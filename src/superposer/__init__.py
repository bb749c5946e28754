"""Uniform-superposition circuit synthesis, lowering, and analysis.

Builds circuits preparing (1/sqrt(N)) sum_{j<N} |j> for any positive N
with at most 2*ceil(log2 N) - 3 entangling gates, verifies them on a
dense statevector simulator, tallies CNOT costs in closed form, and maps
datasets onto the prepared index set.
"""

from .analysis import Case, classify, cnot_count, scan
from .encoding import Dataset, build_indices, build_mapping, deserialize, serialize
from .ir import Circuit, Gate
from .lowering import lower
from .qasm import QasmParseError, emit_qasm, parse_qasm
from .simulator import run, uniform_distance
from .synthesis import synthesize

__version__ = "0.1.0"

__all__ = [
    "Case",
    "Circuit",
    "Dataset",
    "Gate",
    "QasmParseError",
    "build_indices",
    "build_mapping",
    "classify",
    "cnot_count",
    "deserialize",
    "emit_qasm",
    "lower",
    "parse_qasm",
    "run",
    "scan",
    "serialize",
    "synthesize",
    "uniform_distance",
]
