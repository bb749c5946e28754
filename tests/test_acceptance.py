"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line naming its criterion, so a
plain ``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import matrix_oracle as mo
import scan_oracle
from superposer import analysis, encoding
from superposer.cli import main as cli_main
from superposer.ir import GateKind, entangler_count
from superposer.lowering import lower, lower_cg, lower_zero_ch
from superposer.qasm import emit_qasm, parse_qasm
from superposer.simulator import run, uniform_distance
from superposer.synthesis import synthesize

SWEEP_MAX = 4096
SCAN_WIDTH = 20


def _criterion(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def circuit_sweep():
    """(entanglers, uniform distance, tail amplitude) for N in 2..4096."""
    facts = {}
    for N in range(2, SWEEP_MAX + 1):
        lowered, _ = lower(synthesize(N))
        amps = run(lowered).amps
        distance = float(np.max(np.abs(amps[:N] - 1.0 / np.sqrt(N))))
        tail = float(np.max(np.abs(amps[N:]))) if amps.size > N else 0.0
        facts[N] = (entangler_count(lowered), distance, tail)
    return facts


@pytest.fixture(scope="module")
def scan_facts():
    """One pass over widths 2..20: per-n stats plus case-bound violations."""
    violations = []

    def checked_rows():
        for row in analysis.scan_rows(SCAN_WIDTH):
            limit_ok = {
                analysis.Case.I: row.cnot == 0,
                analysis.Case.II: row.cnot == row.n - 1,
                analysis.Case.III: row.cnot == 2 * row.n - 3,
                analysis.Case.IV: row.cnot <= 2 * row.n - 4,
                analysis.Case.V: row.cnot <= 2 * row.n - 5,
            }[row.case]
            if not limit_ok:
                violations.append(row)
            yield row

    stats = scan_oracle.summarize(checked_rows())
    return stats, violations


def test_criterion_01_lowered_circuits_prepare_uniform_states(circuit_sweep):
    worst_distance = max(facts[1] for facts in circuit_sweep.values())
    worst_tail = max(facts[2] for facts in circuit_sweep.values())
    ok = worst_distance <= 1e-10 and worst_tail <= 1e-12
    _criterion(
        "C1 uniform amplitudes for N=2..4096",
        ok,
        f"max deviation {worst_distance:.2e}, max tail {worst_tail:.2e}",
    )


def test_criterion_02_closed_form_matches_circuits(circuit_sweep):
    mismatches = [
        N for N, facts in circuit_sweep.items() if analysis.cnot_count(N) != facts[0]
    ]
    formula_ok = True
    for N in range(2, (1 << 20) + 1):
        count = analysis.cnot_count(N)
        if count < 0 or count > max(2 * (N - 1).bit_length() - 3, 0):
            formula_ok = False
            break
    ok = not mismatches and formula_ok
    _criterion(
        "C2 closed-form count computed to 2**20 and equal to circuits to 4096",
        ok,
        f"{len(mismatches)} mismatches",
    )


def test_criterion_03_worst_case_is_2n_minus_3(scan_facts):
    stats, _ = scan_facts
    bad = []
    for n in range(2, SCAN_WIDTH + 1):
        summary = stats.for_n(n)
        attained = analysis.cnot_count((1 << n) - 1)
        if summary.max_count != 2 * n - 3 or attained != 2 * n - 3:
            bad.append(n)
    _criterion("C3 per-width maximum is 2n-3, attained at N=2**n-1", not bad, f"bad widths {bad}")


def test_closed_form_scan_equals_the_exhaustive_scan(scan_facts):
    stats, _ = scan_facts
    closed = analysis.scan(SCAN_WIDTH)
    assert closed == stats
    assert [list(s.histogram) for s in closed.per_n] == [list(s.histogram) for s in stats.per_n]


def test_criterion_04_anchor_values_and_cases():
    expected = {16: (0, analysis.Case.I), 17: (4, analysis.Case.II),
                31: (7, analysis.Case.III), 29: (6, analysis.Case.IV),
                30: (5, analysis.Case.V)}
    bad = [
        N
        for N, (count, case) in expected.items()
        if analysis.cnot_count(N) != count or analysis.classify(N) is not case
    ]
    _criterion("C4 anchor counts and case labels for N=16,17,31,29,30", not bad, f"bad {bad}")


def test_criterion_05_case_bounds_hold_exhaustively(scan_facts):
    _, violations = scan_facts
    _criterion(
        "C5 case bounds exact or respected for every N with n<=20",
        not violations,
        f"{len(violations)} violations",
    )


def test_criterion_06_mean_count_trend(scan_facts):
    stats, _ = scan_facts
    slope, intercept = scan_oracle.mean_fit(stats, n_min=3)
    ok = 1.35 <= slope <= 1.55 and -3.4 <= intercept <= -2.1
    _criterion(
        "C6 least-squares mean trend over n=3..20",
        ok,
        f"slope {slope:.4f}, intercept {intercept:.4f}",
    )


def test_criterion_07_rewrites_match_ideal_matrices():
    zero_ch = lower_zero_ch(0, 1)
    zero_ch_error = float(np.max(np.abs(mo.sequence_matrix(zero_ch) - mo.zero_ch_ideal())))
    entangler_kinds = (GateKind.CNOT, GateKind.CZ)
    ok = zero_ch_error <= 1e-12
    ok = ok and sum(1 for g in zero_ch if g.kind in entangler_kinds) == 1
    worst_cg = 0.0
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        p = Fraction(int(rng.integers(1, 10**6)), 10**6)
        gates = lower_cg(p, 0, 1)
        ok = ok and sum(1 for g in gates if g.kind in entangler_kinds) == 1
        u = mo.sequence_matrix(gates)
        ideal = mo.cg_ideal(p)
        error = float(max(np.max(np.abs(u[:, c] - ideal[:, c])) for c in (0, 2)))
        worst_cg = max(worst_cg, error)
    ok = ok and worst_cg <= 1e-12
    _criterion(
        "C7 one-entangler rewrites match ideal matrices",
        ok,
        f"zero-ch error {zero_ch_error:.2e}, worst cg error {worst_cg:.2e}",
    )


def test_criterion_08_address_maps_round_trip():
    bad = []
    for size in range(1, 65):
        dataset = encoding.Dataset(tuple(b"r%d" % i for i in range(size)))
        for seed in range(10):
            mapping = encoding.build_mapping(dataset, seed)
            if sorted(o for _, o in mapping.pairs) != list(range(size)):
                bad.append((size, seed, "not a permutation"))
                continue
            if encoding.deserialize(encoding.serialize(mapping)) != mapping:
                bad.append((size, seed, "serialize round trip"))
                continue
            if any(mapping.resolve(address) != o for address, o in mapping.pairs):
                bad.append((size, seed, "resolve"))
    _criterion(
        "C8 mappings bijective and round-trip for sizes 1..64 x 10 seeds",
        not bad,
        f"{len(bad)} failures",
    )


def test_criterion_09_qasm_round_trip():
    bad = []
    for N in range(2, 1025):
        lowered, _ = lower(synthesize(N))
        text = emit_qasm(lowered)
        back = parse_qasm(text)
        if back != lowered or emit_qasm(back) != text:
            bad.append(N)
    _criterion("C9 QASM round trip for N=2..1024", not bad, f"bad {bad[:5]}")


def test_criterion_10_cli_verifies_the_20_qubit_worst_case(capsys):
    start = time.monotonic()
    code = cli_main(["verify", "1048575"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 60.0 and "entanglers=37" in out and "PASS" in out
    _criterion(
        "C10 verify 1048575 passes with 37 entanglers",
        ok,
        f"exit {code}, {elapsed:.1f}s",
    )
