"""Benchmark runner for superposer.

Run from the repository root:

    python3 bench/run.py --workload verify_wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

The workloads, metric names and units are listed in BENCHMARK.json. Each
workload is a closed loop with one client in this one process and thread.
The runner imports the package from src/ of the same checkout and gives it
only the inputs it generates from --seed.

--trace 0 times every op with tracing off and reports the end-to-end
metrics. Times are op latencies in seconds, each the sum of the op's timed
stages; ops_per_s is ops over the sum of their latencies, at the
workload's fixed input mix; setup_s is the median of eleven set-ups spread
over the run, each in a fresh interpreter: importing superposer plus one
warm-up op on a fixed input, with the input built and the op checked off
the clock.

--trace 1 reports the per-layer metrics. It runs whole cycles untraced
for half of --seconds, then the same inputs again with a span around every
call into a layer, and requires both passes to produce the same counts.
Per-layer times are self times per op, averaged over the traced ops.
Counts, and the calls per layer, are per-op means over the first cycle, so
they repeat exactly for a seed. Byte and amplitude counts are computed
from array and text sizes, not measured. The simulator's per-kind costs
come from replaying the traced ops' circuits gate by gate through the
public, copying ``apply``. encoding.resolve is one span around the loop
that resolves all N addresses of an op, so encoding.resolve_s includes
that loop's own overhead, and encoding.calls counts the N calls inside it.
Spans are written to bench/out/ at the end.

Every op is checked outside its timed region against oracles that do not
come from the code under test. A verify op checks and drops the abstract
state before it builds the lowered one, so peak_rss_mib holds one state
plus the library's own buffers, as the CLI's verify does. The last line of
standard output is one JSON object; the exit code is 1 if any op failed
and 2 if the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 11
REPLAY_SHARE = 0.1
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op_id", "error", "calls")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
imported = time.perf_counter() - start
print(imported + workloads.WORKLOADS[sys.argv[3]].warmup())
"""


@dataclass
class Pass:
    """The ops of one measured pass.

    Latencies sit in a flat array and counts are kept only when asked for,
    so what the runner stores adds next to nothing to peak memory however
    many ops a faster program completes.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    cycles: int = 0
    first_cycle_ops: int = 0
    failures: dict = field(default_factory=dict)  # op id -> problems
    counts: list | None = None  # per-op count dicts


def load_and_warm(name: str):
    """Import the benchmark's workloads (and so superposer) and warm up once."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    workloads.WORKLOADS[name].warmup()
    return workloads


def setup_in_child(name: str) -> float:
    """Import superposer and run one warm-up op in a fresh interpreter; returns its time."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, tracer, seconds: float | None = None,
            cycles: int | None = None, keep_counts: bool = False,
            after_op: Callable[[float], None] | None = None) -> Pass:
    """Run whole cycles until `seconds` of op time or `cycles` cycles have passed.

    `after_op`, if given, is called with the op time so far after every op,
    off the clock.
    """
    result = Pass(counts=[] if keep_counts else None)
    busy = 0.0
    while busy < seconds if cycles is None else result.cycles < cycles:
        for inp in workload.inputs(seed, result.cycles):
            op_id = tracer.op_id = len(result.latencies)
            latency, problems, out = workload.run(inp, tracer)
            counts = {}
            if keep_counts and not problems:
                try:
                    counts = workload.counts(inp, out)
                except Exception as exc:
                    problems = [f"counts raised {exc!r}"]
            del out
            result.latencies.append(latency)
            if problems:
                result.failures[op_id] = problems
            if keep_counts:
                result.counts.append(counts)
            busy += latency
            if after_op is not None:
                after_op(busy)
        result.cycles += 1
        if result.cycles == 1:
            result.first_cycle_ops = len(result.latencies)
    return result


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured: Pass, setup: list[float]) -> dict:
    latencies = measured.latencies
    return {
        "op_s_p50": statistics.median(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_mib(),
    }


def describe_latencies(measured: Pass) -> list[str]:
    ops = len(measured.latencies)
    lines = [f"# ops {ops}, cycles {measured.cycles}"]
    if ops >= 100:
        p90 = statistics.quantiles(measured.latencies, n=10)[8]
        lines.append(f"op_s_p90 {p90!r} s ({ops} samples)")
    else:
        lines.append(f"# op_s_p90 not reported: {ops} samples leave fewer than 10 beyond it")
    failed = len(measured.failures)
    lines.append(f"fail_ratio {failed / ops!r} ({failed}/{ops})")
    return lines


def per_layer(wl, tracer, traced: Pass, untraced: Pass, replayed: dict) -> dict:
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_ns[s[3]] += s[2] - s[1]
    first = traced.first_cycle_ops
    self_ns: dict[str, int] = {}
    calls = dict.fromkeys(wl.LAYERS, 0)
    errors = dict.fromkeys(wl.LAYERS, 0)
    for s, children in zip(spans, child_ns):
        self_ns[s[0]] = self_ns.get(s[0], 0) + s[2] - s[1] - children
        layer = s[0].split(".")[0]
        if layer in errors:
            errors[layer] += s[5]
            calls[layer] += s[6] if s[4] < first else 0

    ops = len(traced.latencies)
    metrics = {f"{name}_s": self_ns.get(name, 0) / 1e9 / ops for name in wl.SPANS}
    metrics["bench.uncovered_s"] = self_ns.get("bench.op", 0) / 1e9 / ops
    for name in wl.COUNTS:
        metrics[name] = sum(c.get(name, 0) for c in traced.counts[:first]) / first
    for layer in wl.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / first
        metrics[f"{layer}.errors"] = errors[layer]

    gate_amps = sum(c.get("simulator.gate_amps", 0) for c in traced.counts)
    run_ns = self_ns.get("simulator.run_abstract", 0) + self_ns.get("simulator.run_lowered", 0)
    metrics["simulator.ns_per_gate_amp"] = run_ns / gate_amps if gate_amps else 0.0
    for kind in (*wl.GATE_KINDS, "copy"):
        ns, amps = replayed.get(kind, (0, 0))
        key = "simulator.copy_ns_per_amp" if kind == "copy" else f"simulator.apply_ns_per_amp.{kind}"
        metrics[key] = ns / amps if amps else 0.0
    # Both passes ran the same ops, so this is untraced ops_per_s over traced, minus one.
    metrics["bench.trace_overhead"] = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    return metrics


def replay_traced_ops(wl, workload, seed: int, budget_s: float) -> dict:
    """Replay the first cycle's circuits gate by gate, at least one op, within budget_s."""
    replayed: dict = {}
    if workload.stages is not wl.VERIFY_STAGES:
        return replayed
    start = time.perf_counter()
    for N in workload.inputs(seed, 0):
        abstract = wl.synthesis.synthesize(N)
        wl.replay([abstract, wl.lowering.lower(abstract)[0]], replayed)
        if time.perf_counter() - start >= budget_s:
            break
    return replayed


def read_cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_sha() -> str:
    # The ceiling stops git from searching above a checkout that is not a repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(seed: int, numpy_version: str) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": read_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "client": "closed loop, one client, one process and thread",
        "roofline": "no bandwidth roofline is claimed",
    }


def select(specs: list[dict], values: dict) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_one(args, spec: dict) -> int:
    wl = load_and_warm(args.workload)
    workload = wl.WORKLOADS[args.workload]
    meta = metadata(args.seed, wl.np.__version__)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"# workload {workload.name}: {why}")
    print(f"# input mix: {workload.mix}")
    print(f"# meta {json.dumps(meta)}")

    if args.trace == 0:
        # Set-ups are spread over the run, one due every 1/SETUP_SAMPLES of
        # its op time, so their median does not rest on one stretch of host speed.
        setup: list[float] = []

        def set_up_when_due(busy: float) -> None:
            while len(setup) < SETUP_SAMPLES and busy >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(setup_in_child(workload.name))

        measured = measure(workload, args.seed, wl.Untraced(), seconds=args.seconds,
                           after_op=set_up_when_due)
        set_up_when_due(float("inf"))
        passes = [measured]
        metrics = select(spec["end_to_end"], end_to_end(measured, setup))
        for line in describe_latencies(measured):
            print(line)
    else:
        untraced = measure(workload, args.seed, wl.Untraced(), seconds=args.seconds / 2, keep_counts=True)
        tracer = wl.Tracer()
        traced = measure(workload, args.seed, tracer, cycles=untraced.cycles, keep_counts=True)
        for op_id, (a, b) in enumerate(zip(untraced.counts, traced.counts)):
            if a != b:
                traced.failures.setdefault(op_id, []).append("counts differ between untraced and traced runs")
        passes = [untraced, traced]
        replayed = replay_traced_ops(wl, workload, args.seed, REPLAY_SHARE * args.seconds)
        values = per_layer(wl, tracer, traced, untraced, replayed)
        metrics = select(spec["per_layer"], values)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        with open(trace_path, "w") as handle:
            json.dump({"meta": meta, "metrics": values, "span_fields": SPAN_FIELDS,
                       "spans": tracer.spans}, handle)
        print(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    attempted = sum(len(p.latencies) for p in passes)
    failures = [(op_id, problems) for p in passes for op_id, problems in p.failures.items()]
    for op_id, problems in failures[:5]:
        print(f"# FAILED op {op_id}: {'; '.join(problems)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process, so each has its own peak memory."""
    merged: dict = {}
    attempted = failed = 0
    code = 0
    for w in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        code = code or done.returncode
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print("\n".join(lines))
            code = code or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            merged[f"{w['name']}.{name}"] = m
    print(json.dumps({"correct": code == 0 and not failed, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return code


def main(argv: list[str] | None = None) -> int:
    # Numerics stay on one thread; set before numpy loads, inherited by children.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="superposer benchmark")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superposer" / "__init__.py").is_file():
        print(f"error: no superposer package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
