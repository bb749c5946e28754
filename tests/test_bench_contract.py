"""What the benchmark asks of the library, checked on one small op per workload.

``bench/test_checks.py`` tests the benchmark itself, but it takes about 20 s
and the default test paths leave it out. These tests keep a library change
that breaks a call the benchmark makes from passing the default suite. They
import ``bench/workloads.py`` and change nothing under ``bench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from superposer import encoding
from superposer.ir import GateKind
from superposer.lowering import lower
from superposer.synthesis import synthesize

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their class's module here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _inputs(wl, name):
    if name == "encode_scan":
        records = tuple(b"record-%d" % i for i in range(1500))
        return wl.EncodeInput(encoding.Dataset(records), 7)
    return {"verify_wide": 4095, "sweep_narrow": 4095, "compile_wide": (1 << 32) - 1}[name]


@pytest.mark.parametrize("name", ["verify_wide", "sweep_narrow", "compile_wide", "encode_scan"])
def test_one_op_of_each_workload_passes_its_checks(wl, name):
    _, problems, _ = wl.WORKLOADS[name].run(_inputs(wl, name), wl.Untraced())
    assert problems == []


def test_replay_applies_every_gate_kind_and_copies_the_state(wl):
    # The traced run replays its circuits through init_zero, apply and
    # StateVector.copy, which no untraced op calls. Its circuits have 19 to
    # 21 qubits; 17 already takes the block walk, 12 the whole-array path.
    for N in (4095, (1 << 16) + 3):
        abstract = synthesize(N)
        totals = {}
        wl.replay([abstract, lower(abstract)[0]], totals)
        assert set(totals) == {kind.value for kind in GateKind} | {"copy"}, N
        assert all(amps > 0 for _, amps in totals.values()), (N, totals)


def test_serialize_reads_only_what_the_benchmark_stand_in_has():
    # bench/test_checks.py feeds serialize a stand-in with these four
    # attributes and a non-bijective pairs tuple, which it must write as given.
    pairs = (("00", 2), ("01", 0), ("10", 2), ("11", 1))
    stand_in = SimpleNamespace(n=2, seed=0, size=4, pairs=pairs)
    doc = json.loads(encoding.serialize(stand_in))
    assert doc == {"version": 1, "N": 4, "n": 2, "seed": 0, "pairs": [list(p) for p in pairs]}
    assert b"".join(encoding.serialize_chunks(stand_in)) == encoding.serialize(stand_in)
