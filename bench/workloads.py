"""Seeded workloads, their operations and the oracles that check them.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned. Inputs come from the seed in
cycles of strata. A cycle draws one input from each stratum of the
workload's input range, in a fixed order of strata, so every cycle carries
the same input mix and the median and the throughput do not depend on which
inputs the seed happened to draw. The fixed order also keeps the allocator
in the same state before each stratum's op on every seed.

An op is a sequence of stages. Only the stages are timed: after each one
its check runs off the clock and drops what the next stage does not need,
so a verify op holds one state at a time, as the CLI's verify does.
Operations call the library directly, mirroring what the CLI commands do,
and route every call through a tracer. The untraced tracer calls straight
through; the traced one records a span per call. The oracles in this module
never use the code under test to decide what is correct.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from superposer import analysis, document, encoding, ir, lowering, qasm, simulator, synthesis

AMP_TOLERANCE = 1e-10
TAIL_TOLERANCE = 1e-12
CHECK_CHUNK = 1 << 16  # amplitudes per slice, so a state check allocates about 1 MiB
LAYERS = ("synthesis", "lowering", "ir", "simulator", "qasm", "document", "analysis", "encoding")
GATE_KINDS = ("h", "x", "z", "ry", "g", "cg", "zero_ch", "cnot", "cz")
# Every span an op records, and every count it returns, as "<layer>.<what>".
SPANS = (
    "synthesis.plan", "synthesis.synthesize", "lowering.lower", "ir.entangler_count", "ir.depth",
    "simulator.run_abstract", "simulator.run_lowered", "simulator.uniform_distance",
    "qasm.emit", "qasm.parse", "document.emit", "document.parse",
    "encoding.build_mapping", "encoding.serialize", "encoding.deserialize", "encoding.resolve",
    "analysis.scan",
)
COUNTS = (
    "synthesis.gates", "lowering.gates", "lowering.entanglers",
    "simulator.gate_amps", "simulator.state_bytes", "simulator.bytes_moved",
    "qasm.bytes", "document.bytes", "encoding.records", "encoding.bytes", "analysis.rows",
)


class Untraced:
    """Calls straight through; used for every end-to-end measurement."""

    op_id = -1

    def call(self, name: str, fn: Callable, *args: Any, calls: int = 1) -> Any:
        return fn(*args)


class Tracer:
    """Records a span around every call, kept in memory until the run ends.

    A span is [name, start_ns, end_ns, parent, op_id, error, calls], where
    parent is the index of the enclosing span (None for an op's root) and
    calls is how many library calls the span wraps.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, calls: int = 1) -> Any:
        span = [name, 0, 0, self._stack[-1] if self._stack else None, self.op_id, False, calls]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()


def expected_entanglers(N: int) -> int:
    """g + m - 3 from the popcount of N and the bit width of its odd part."""
    g = N.bit_count()
    if g < 2:
        return 0
    odd = N >> ((N & -N).bit_length() - 1)
    return g + odd.bit_length() - 3


def check_state(amps: np.ndarray, N: int, label: str) -> list[str]:
    """Compare a state with the runner's own 1/sqrt(N) vector, slice by slice."""
    want = 1.0 / math.sqrt(N)
    head = tail = 0.0
    for lo in range(0, amps.size, CHECK_CHUNK):
        chunk = amps[lo:lo + CHECK_CHUNK]
        split = min(max(N - lo, 0), chunk.size)
        if split:
            head = max(head, float(np.max(np.abs(chunk[:split] - want))))
        if split < chunk.size:
            tail = max(tail, float(np.max(np.abs(chunk[split:]))))
    problems = []
    if not head <= AMP_TOLERANCE:
        problems.append(f"{label} amplitude off by {head:.3e}")
    if not tail <= TAIL_TOLERANCE:
        problems.append(f"{label} tail amplitude {tail:.3e}")
    return problems


def check_entanglers(N: int, found: int, label: str) -> list[str]:
    want = expected_entanglers(N)
    return [] if found == want else [f"{label} has {found} entanglers, expected {want}"]


def qasm_entanglers(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith(("cx ", "cz ")))


def check_mapping(N: int, mapping: Any) -> list[str]:
    """The pairs must put a permutation of 0..N-1 on the N address strings."""
    n = max(1, (N - 1).bit_length())
    addresses = [a for a, _ in mapping.pairs]
    ordinals = [o for _, o in mapping.pairs]
    problems = []
    if mapping.n != n or addresses != [format(i, f"0{n}b") for i in range(N)]:
        problems.append("mapping addresses are not 0..N-1 in order")
    if sorted(ordinals) != list(range(N)):
        problems.append("mapping ordinals are not a permutation of 0..N-1")
    return problems


def check_scan(n: int, stats: Any) -> list[str]:
    """Max 2w - 3 and exact mean 3w/2 - 7/2 + 2**(2 - w) for every width w."""
    problems = []
    widths = [s.n for s in stats.per_n]
    if widths != list(range(2, n + 1)):
        return [f"scan widths {widths[:3]}... are not 2..{n}"]
    for s in stats.per_n:
        w = s.n
        rows = sum(s.histogram.values())
        mean = Fraction(sum(c * k for c, k in s.histogram.items()), rows)
        if rows != 1 << (w - 1):
            problems.append(f"width {w} has {rows} rows")
        if s.max_count != 2 * w - 3:
            problems.append(f"width {w} max {s.max_count} != {2 * w - 3}")
        if mean != Fraction(3 * w - 7, 2) + Fraction(4, 1 << w):
            problems.append(f"width {w} exact mean {mean} off the closed form")
        if not abs(s.mean_count - float(mean)) <= 1e-12:
            problems.append(f"width {w} mean {s.mean_count} != {float(mean)}")
    return problems


# --- verify: the `superposer verify N` pipeline -----------------------------

def verify_abstract(N: int, out: dict, t) -> None:
    pl = t.call("synthesis.plan", synthesis.plan, N)
    if pl.n > simulator.QUBIT_CAP:
        raise ValueError(f"N={N} needs {pl.n} qubits, above the cap")
    abstract = out["abstract"] = t.call("synthesis.synthesize", synthesis.synthesize, N)
    out["lowered"], out["report"] = t.call("lowering.lower", lowering.lower, abstract)
    out["entanglers"] = t.call("ir.entangler_count", ir.entangler_count, out["lowered"])
    state = out["state"] = t.call("simulator.run_abstract", simulator.run, abstract)
    out["distance"] = t.call("simulator.uniform_distance", simulator.uniform_distance, state, N)


def verify_lowered(N: int, out: dict, t) -> None:
    state = out["state"] = t.call("simulator.run_lowered", simulator.run, out["lowered"])
    out["distance"] = t.call("simulator.uniform_distance", simulator.uniform_distance, state, N)


def check_and_drop_state(N: int, out: dict, label: str) -> list[str]:
    """Check the stage's state and distance, keep only their sizes, drop the state."""
    state = out.pop("state")
    distance = out.pop("distance")
    out.setdefault("amps", []).append(state.amps.size)
    out.setdefault("state_bytes", []).append(state.amps.nbytes)
    problems = check_state(state.amps, N, label)
    if not distance <= AMP_TOLERANCE:
        problems.append(f"{label} uniform_distance {distance:.3e} fails the CLI tolerance")
    return problems


def verify_abstract_check(N: int, out: dict) -> list[str]:
    return check_and_drop_state(N, out, "abstract")


def verify_lowered_check(N: int, out: dict) -> list[str]:
    problems = check_and_drop_state(N, out, "lowered")
    counted = sum(1 for gate in out["lowered"].gates if gate.kind.value in ("cnot", "cz"))
    problems += check_entanglers(N, counted, "lowered circuit")
    problems += check_entanglers(N, out["entanglers"], "entangler_count")
    return problems


def verify_counts(N: int, out: dict) -> dict:
    sizes = (len(out["abstract"]), len(out["lowered"]))
    nbytes = out["state_bytes"]
    return {
        "synthesis.gates": sizes[0],
        "lowering.gates": sizes[1],
        "lowering.entanglers": out["report"].entanglers_emitted,
        "simulator.gate_amps": sum(g * a for g, a in zip(sizes, out["amps"])),
        "simulator.state_bytes": sum(nbytes),
        # Computed, not measured: each gate reads and writes every amplitude
        # once and uniform_distance reads the state once.
        "simulator.bytes_moved": sum((2 * g + 1) * b for g, b in zip(sizes, nbytes)),
    }


VERIFY_STAGES = ((verify_abstract, verify_abstract_check), (verify_lowered, verify_lowered_check))


# --- compile: synth, lower, depth, QASM and document round trips ------------

def compile_op(N: int, out: dict, t) -> None:
    abstract = t.call("synthesis.synthesize", synthesis.synthesize, N)
    lowered, report = t.call("lowering.lower", lowering.lower, abstract)
    depth = t.call("ir.depth", ir.depth, lowered)
    text = t.call("qasm.emit", qasm.emit_qasm, lowered)
    parsed = t.call("qasm.parse", qasm.parse_qasm, text)
    doc = t.call("document.emit", document.emit_document, abstract)
    parsed_doc = t.call("document.parse", document.parse_document, doc)
    out.update(abstract=abstract, lowered=lowered, report=report, depth=depth,
               qasm=text, parsed=parsed, doc=doc, parsed_doc=parsed_doc)


def compile_check(N: int, out: dict) -> list[str]:
    problems = []
    if out["parsed"] != out["lowered"]:
        problems.append("QASM round trip changed the circuit")
    if out["parsed_doc"] != out["abstract"]:
        problems.append("document round trip changed the circuit")
    if qasm.emit_qasm(out["parsed"]) != out["qasm"]:
        problems.append("re-emitted QASM differs")
    if not 1 <= out["depth"] <= len(out["lowered"]):
        problems.append(f"depth {out['depth']} outside 1..{len(out['lowered'])}")
    problems += check_entanglers(N, qasm_entanglers(out["qasm"]), "QASM text")
    problems += check_entanglers(N, out["report"].entanglers_emitted, "lowering report")
    return problems


def compile_counts(N: int, out: dict) -> dict:
    return {
        "synthesis.gates": len(out["abstract"]),
        "lowering.gates": len(out["lowered"]),
        "lowering.entanglers": out["report"].entanglers_emitted,
        "qasm.bytes": len(out["qasm"].encode()),
        "document.bytes": len(out["doc"].encode()),
    }


# --- encode: address a dataset, emit its circuit, scan its widths -----------

@dataclass(frozen=True)
class EncodeInput:
    dataset: encoding.Dataset
    seed: int

    @property
    def N(self) -> int:
        return self.dataset.size


def _resolve_all(mapping: encoding.AddressMap) -> list[int]:
    return [mapping.resolve(address) for address, _ in mapping.pairs]


def encode_op(inp: EncodeInput, out: dict, t) -> None:
    N = inp.N
    mapping = t.call("encoding.build_mapping", encoding.build_mapping, inp.dataset, inp.seed)
    data = t.call("encoding.serialize", encoding.serialize, mapping)
    loaded = t.call("encoding.deserialize", encoding.deserialize, data)
    # One span around all N resolve calls and the loop that makes them: a
    # span per call would cost more than the call itself.
    resolved = t.call("encoding.resolve", _resolve_all, loaded, calls=N)
    abstract = t.call("synthesis.synthesize", synthesis.synthesize, N)
    lowered, report = t.call("lowering.lower", lowering.lower, abstract)
    text = t.call("qasm.emit", qasm.emit_qasm, lowered)
    stats = t.call("analysis.scan", analysis.scan, mapping.n)
    out.update(mapping=mapping, data=data, loaded=loaded, resolved=resolved,
               abstract=abstract, lowered=lowered, report=report, qasm=text, stats=stats)


def encode_check(inp: EncodeInput, out: dict) -> list[str]:
    N = inp.N
    mapping, loaded = out["mapping"], out["loaded"]
    problems = check_mapping(N, mapping)
    if (loaded.n, loaded.seed, loaded.pairs) != (mapping.n, mapping.seed, mapping.pairs):
        problems.append("serialize round trip changed the mapping")
    if out["resolved"] != [o for _, o in mapping.pairs]:
        problems.append("resolve disagrees with the mapping pairs")
    problems += check_entanglers(N, qasm_entanglers(out["qasm"]), "QASM text")
    problems += check_scan(mapping.n, out["stats"])
    return problems


def encode_counts(inp: EncodeInput, out: dict) -> dict:
    return {
        "encoding.records": inp.N,
        "encoding.bytes": len(out["data"]),
        "synthesis.gates": len(out["abstract"]),
        "lowering.gates": len(out["lowered"]),
        "lowering.entanglers": out["report"].entanglers_emitted,
        "qasm.bytes": len(out["qasm"].encode()),
        "analysis.rows": sum(sum(s.histogram.values()) for s in out["stats"].per_n),
    }


# --- inputs -----------------------------------------------------------------

def _width_draw(rng: random.Random, width: int) -> int:
    """Uniform N among the values whose register width is `width`."""
    return rng.randint((1 << (width - 1)) + 1, 1 << width)


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi]."""
    step = (hi - lo) / k
    return [lo + step * (i + rng.random()) for i in range(k)]


def verify_wide_inputs(rng: random.Random) -> list[int]:
    # N = 2**20 - 1 is the 20-qubit worst case; widths 19..21 put the
    # states at 8..32 MiB, where the simulator does nearly all the work.
    # Width 20 is that fixed N alone: it then sits between the cheaper
    # width-19 and the dearer width-21 op in every cycle, so the median op is
    # always N = 2**20 - 1. A drawn width-20 N beside it, cheaper by its
    # popcount, put the median on the step between the two.
    return [(1 << 20) - 1] + [_width_draw(rng, w) for w in (19, 21)]


def sweep_narrow_inputs(rng: random.Random) -> list[int]:
    return [min(4096, int(x)) for x in _strata(rng, 2, 4097, 16)]


def compile_wide_inputs(rng: random.Random) -> list[int]:
    bits = [min(2048, int(b)) for b in _strata(rng, 32, 2049, 16)]
    return [rng.getrandbits(b - 1) | 1 << (b - 1) for b in bits]


# Sizes in each octave 2**k..2**(k+1), for k = 10..14; 2**16 closes the range.
ENCODE_OCTAVES = (14, 16, 8, 4, 2)


def _encode_sizes() -> list[int]:
    """2**16 and log-spaced sizes within each octave, in one fixed shuffled order.

    analysis.scan's cost doubles with each bit of N, so op cost jumps at
    every power of two. Smaller octaves get more sizes, so above the first
    octave a cycle spends about the same op time in each, and the median op
    lies mid-way through the 2**11..2**12 octave, among sizes a few per cent
    apart, and not on a jump between octaves. The shuffle spreads every
    octave over the whole cycle, so the median does not hang on one stretch
    of host speed.
    """
    sizes = [1 << 16] + [round(2.0 ** (k + (j + 0.5) / m))
                         for k, m in enumerate(ENCODE_OCTAVES, start=10) for j in range(m)]
    random.Random(0).shuffle(sizes)
    return sizes


ENCODE_SIZES = tuple(_encode_sizes())


def encode_scan_inputs(rng: random.Random) -> Iterator[EncodeInput]:
    # A generator, so only the dataset of the op at hand is in memory. The
    # sizes are fixed, so the median op and peak memory do not depend on the
    # draw: drawn sizes moved op_s_p50 from seed to seed by more than host
    # noise does.
    for N in ENCODE_SIZES:
        records = tuple(rng.randbytes(8).hex().encode() for _ in range(N))
        yield EncodeInput(encoding.Dataset(records), rng.randrange(1 << 31))


Stage = Callable[[Any, dict, Any], None]  # (input, outputs so far, tracer)
Check = Callable[[Any, dict], list[str]]   # (input, outputs so far) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], Iterable]
    stages: tuple[tuple[Stage, Check], ...]
    counts: Callable[[Any, dict], dict]
    warmup_input: Callable[[], Any]
    mix: str

    def inputs(self, seed: int, cycle: int) -> Iterable:
        """The inputs of one cycle; the same seed gives the same inputs."""
        return self.draw(random.Random(f"{self.name}:{seed}:{cycle}"))

    def run(self, inp: Any, t) -> tuple[float, list[str], dict]:
        """One op: its latency, the problems its checks found, and its outputs.

        The latency sums the stages' times; each check runs after its stage,
        off the clock. A stage that raises ends the op as failed.
        """
        out: dict = {}
        latency = 0.0
        problems: list[str] = []
        for stage, check in self.stages:
            start = time.perf_counter()
            try:
                t.call("bench.op", stage, inp, out, t)
            except Exception as exc:  # a raising op is a failed op, not a crash
                return latency + time.perf_counter() - start, [f"raised {exc!r}"], out
            latency += time.perf_counter() - start
            try:
                problems += check(inp, out)
            except Exception as exc:
                return latency, problems + [f"check raised {exc!r}"], out
        return latency, problems, out

    def warmup(self) -> float:
        """One op on a fixed input, so lazy set-up finishes before timing.

        Returns the op's latency: building its input and checking it stay
        off the clock.
        """
        latency, problems, _ = self.run(self.warmup_input(), Untraced())
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")
        return latency


def _warm_dataset() -> EncodeInput:
    return EncodeInput(encoding.Dataset(tuple(b"%d" % i for i in range(1 << 10))), 0)


WORKLOADS = {
    w.name: w
    for w in (
        # Both verify workloads warm up on the same small N: a wide one would
        # spend set-up in the simulator, which the timed ops measure already.
        Workload("verify_wide", verify_wide_inputs, VERIFY_STAGES, verify_counts,
                 lambda: 4095,
                 "cycles of N = 2**20-1 and one uniform N of each width 19 and 21"),
        Workload("sweep_narrow", sweep_narrow_inputs, VERIFY_STAGES, verify_counts,
                 lambda: 4095,
                 "cycles of 16 N, one uniform in each sixteenth of 2..4096"),
        Workload("compile_wide", compile_wide_inputs, ((compile_op, compile_check),), compile_counts,
                 lambda: (1 << 32) - 1,
                 "cycles of 16 random N, one bit width in each sixteenth of 32..2048"),
        Workload("encode_scan", encode_scan_inputs, ((encode_op, encode_check),), encode_counts,
                 _warm_dataset,
                 "cycles of 45 datasets of fixed sizes in a fixed shuffled order: 2**16 and 14, 16, 8, 4, 2 log-spaced sizes in the octaves from 2**10 to 2**15; seeded records and permutation seeds"),
    )
}


# --- per-gate replay (traced run only) ---------------------------------------

def _probe_gates(n_qubits: int) -> list[ir.Gate]:
    """One gate of every kind; X appears in no synthesized circuit."""
    gates = [ir.Gate.h(0), ir.Gate.x(0), ir.Gate.z(0), ir.Gate.ry(0, 0.5), ir.Gate.g(0, Fraction(1, 3))]
    if n_qubits >= 2:
        gates += [ir.Gate.cg(0, 1, Fraction(1, 3)), ir.Gate.zero_ch(0, 1),
                  ir.Gate.cnot(0, 1), ir.Gate.cz(0, 1)]
    return gates


def replay(circuits: list[ir.Circuit], totals: dict[str, list[int]]) -> None:
    """Apply each circuit gate by gate through the public, copying `apply`.

    Adds [ns, amplitudes] per gate kind, and per state copy under "copy",
    into totals.
    """
    def add(key: str, start: int, amps: int) -> None:
        entry = totals.setdefault(key, [0, 0])
        entry[0] += time.perf_counter_ns() - start
        entry[1] += amps

    for circuit in circuits:
        state = simulator.init_zero(circuit.n_qubits)
        amps = state.amps.size
        for gate in circuit.gates:
            start = time.perf_counter_ns()
            state = simulator.apply(state, gate)
            add(gate.kind.value, start, amps)
        for gate in _probe_gates(circuit.n_qubits):
            start = time.perf_counter_ns()
            simulator.apply(state, gate)
            add(gate.kind.value, start, amps)
        start = time.perf_counter_ns()
        state.copy()
        add("copy", start, amps)
