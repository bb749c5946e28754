"""Tests for the benchmark's own oracles, op accounting and smoke runs.

Run from the repository root with: python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_op(name: str, inp) -> list[str]:
    """Run one op through the runner's timing and checking; returns its problems."""
    workload = dataclasses.replace(wl.WORKLOADS[name], draw=lambda rng: [inp])
    measured = run.measure(workload, 0, wl.Untraced(), cycles=1)
    assert len(measured.latencies) == 1
    return measured.failures.get(0, [])


def test_expected_entanglers_closed_form():
    cases = {1: 0, 2: 0, 3: 1, 5: 2, 6: 1, 7: 3, 12: 1, (1 << 20) - 1: 37, 1 << 30: 0}
    assert {N: wl.expected_entanglers(N) for N in cases} == cases


@pytest.mark.parametrize("name", ["sweep_narrow", "compile_wide"])
def test_correct_ops_pass(name):
    assert one_op(name, 4095) == []


def test_correct_encode_op_passes():
    records = tuple(b"record %d" % i for i in range(1500))
    assert one_op("encode_scan", wl.EncodeInput(wl.encoding.Dataset(records), 7)) == []


def perturb_run(monkeypatch, index: int, delta: float) -> None:
    real_run = wl.simulator.run

    def perturbed(circuit):
        state = real_run(circuit)
        state.amps[index] += delta
        return state

    monkeypatch.setattr(wl.simulator, "run", perturbed)


def test_perturbed_amplitude_fails_op(monkeypatch):
    perturb_run(monkeypatch, 0, 1e-9)
    monkeypatch.setattr(wl.simulator, "uniform_distance", lambda state, N: 0.0)
    problems = one_op("sweep_narrow", 5)
    assert any("amplitude off" in p for p in problems)


def test_tail_amplitude_below_cli_tolerance_fails_op(monkeypatch):
    # 1e-11 passes the library's own 1e-10 distance check but not the tail oracle.
    perturb_run(monkeypatch, 7, 1e-11)
    problems = one_op("sweep_narrow", 5)
    assert problems and all("tail" in p for p in problems)


@pytest.mark.parametrize("name", ["sweep_narrow", "compile_wide"])
def test_wrong_entangler_count_fails_op(monkeypatch, name):
    real_lower = wl.lowering.lower

    def padded(circuit):
        # Two CZs on the same pair cancel, so only the count is wrong.
        lowered, report = real_lower(circuit)
        extra = (wl.ir.Gate.cz(0, 1), wl.ir.Gate.cz(0, 1))
        return wl.ir.Circuit(lowered.n_qubits, lowered.gates + extra, lowered.level), report

    monkeypatch.setattr(wl.lowering, "lower", padded)
    problems = one_op(name, 11)
    assert problems and all("entanglers" in p for p in problems)


def test_check_state_covers_every_slice():
    N = 3 * wl.CHECK_CHUNK + 5
    amps = wl.np.zeros(4 * wl.CHECK_CHUNK, dtype=complex)
    amps[:N] = 1.0 / wl.math.sqrt(N)
    assert wl.check_state(amps, N, "s") == []
    amps[N - 1] += 1e-9
    amps[-1] = 1e-11
    assert [p.split()[1] for p in wl.check_state(amps, N, "s")] == ["amplitude", "tail"]


def test_verify_op_holds_one_state_at_a_time(monkeypatch):
    real_run = wl.simulator.run
    states: list[weakref.ref] = []
    alive_at_run: list[int] = []

    def tracked(circuit):
        alive_at_run.append(sum(ref() is not None for ref in states))
        state = real_run(circuit)
        states.append(weakref.ref(state))
        return state

    monkeypatch.setattr(wl.simulator, "run", tracked)
    assert one_op("verify_wide", 4095) == []
    assert alive_at_run == [0, 0]


def test_checks_run_off_the_clock(monkeypatch):
    monkeypatch.setattr(wl, "check_state", lambda amps, N, label: time.sleep(0.3) or [])
    latency, problems, _ = wl.WORKLOADS["sweep_narrow"].run(5, wl.Untraced())
    assert problems == [] and latency < 0.3


class FakeMap:
    """Stands in for an AddressMap, which cannot hold a non-bijection."""

    def __init__(self, n: int, pairs):
        self.n, self.seed, self.pairs = n, 0, tuple(pairs)
        self.size = len(self.pairs)

    def resolve(self, address: str) -> int:
        return dict(self.pairs)[address]


def test_check_mapping_rejects_non_bijection():
    good = FakeMap(2, [("00", 2), ("01", 0), ("10", 3), ("11", 1)])
    bad = FakeMap(2, [("00", 2), ("01", 0), ("10", 2), ("11", 1)])
    assert wl.check_mapping(4, good) == []
    assert wl.check_mapping(4, bad) == ["mapping ordinals are not a permutation of 0..N-1"]


def test_non_bijective_mapping_fails_op(monkeypatch):
    N = 1024
    fake = FakeMap(10, [(format(i, "010b"), i // 2) for i in range(N)])
    monkeypatch.setattr(wl.encoding, "build_mapping", lambda dataset, seed: fake)
    monkeypatch.setattr(wl.encoding, "deserialize", lambda data: fake)
    records = tuple(b"%d" % i for i in range(N))
    problems = one_op("encode_scan", wl.EncodeInput(wl.encoding.Dataset(records), 0))
    assert "mapping ordinals are not a permutation of 0..N-1" in problems


def test_check_scan_rejects_a_wrong_histogram():
    stats = wl.analysis.scan(6)
    assert wl.check_scan(6, stats) == []
    s = stats.per_n[-1]
    hist = dict(s.histogram)
    low, high = min(hist), max(hist)
    hist[low] -= 1
    hist[high] += 1
    wrong = SimpleNamespace(per_n=stats.per_n[:-1] + (dataclasses.replace(s, histogram=hist),))
    assert any("exact mean" in p for p in wl.check_scan(6, wrong))


def test_encode_sizes_span_the_range_without_repeats():
    sizes = sorted(wl.ENCODE_SIZES)
    assert sizes[0] >= 1 << 10 and sizes[-1] == 1 << 16
    assert len(set(sizes)) == len(sizes)
    # The median size keeps clear of the powers of two where op cost jumps.
    assert 2 ** 11.25 < sizes[len(sizes) // 2] < 2 ** 11.75


def test_raising_op_counts_as_failed(monkeypatch):
    def broken(N):
        raise ValueError("broken")

    monkeypatch.setattr(wl.synthesis, "synthesize", broken)
    assert one_op("compile_wide", 11) == ["raised ValueError('broken')"]


def test_tracer_spans_and_self_times():
    tracer = wl.Tracer()
    workload = dataclasses.replace(wl.WORKLOADS["compile_wide"], draw=lambda rng: [11, 4095])
    measured = run.measure(workload, 0, tracer, cycles=1, keep_counts=True)
    assert {s[0] for s in tracer.spans} <= {*wl.SPANS, "bench.op"}
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[4] for s in roots] == [0, 1]
    assert all(tracer.spans[s[3]][0] == "bench.op" for s in tracer.spans if s[3] is not None)
    metrics = run.per_layer(wl, tracer, measured, measured, {})
    assert metrics["simulator.run_lowered_s"] == 0.0
    assert metrics["qasm.calls"] == 2.0 and metrics["ir.calls"] == 1.0
    assert metrics["bench.uncovered_s"] >= 0.0


def test_after_op_sees_the_op_time_so_far():
    seen: list[float] = []
    workload = dataclasses.replace(wl.WORKLOADS["compile_wide"], draw=lambda rng: [11, 4095])
    measured = run.measure(workload, 0, wl.Untraced(), cycles=1, after_op=seen.append)
    assert seen == [measured.latencies[0], sum(measured.latencies)]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_without_failures(name):
    done = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert "fail_ratio 0.0 " in done.stdout


def test_traced_smoke_run_reports_every_layer_metric():
    done = bench("--workload", "sweep_narrow", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["simulator.run_lowered_s"]["value"] > 0


def test_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "sweep_narrow", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
