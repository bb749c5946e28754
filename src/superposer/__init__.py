"""Uniform-superposition circuit synthesis, lowering, and analysis.

Builds circuits preparing (1/sqrt(N)) sum_{j<N} |j> for any positive N
with at most 2*ceil(log2 N) - 3 entangling gates, verifies them on a
dense statevector simulator, tallies CNOT costs in closed form, and maps
datasets onto the prepared index set.
"""

from .analysis import (
    Case,
    NSummary,
    ResourceReport,
    ScanRow,
    ScanStats,
    classify,
    cnot_count,
    mean_fit,
    resource_report,
    scan,
    scan_rows,
    summarize,
)
from .document import emit_document, parse_document
from .encoding import AddressMap, Dataset, build_indices, build_mapping, deserialize, serialize
from .ir import (
    Circuit,
    Gate,
    GateKind,
    Level,
    depth,
    entangler_count,
    gate_histogram,
)
from .lowering import (
    Assumption,
    LoweringReport,
    lower,
    lower_cg,
    lower_g,
    lower_zero_ch,
)
from .qasm import QasmParseError, emit_qasm, parse_qasm
from .simulator import (
    QUBIT_CAP,
    StateVector,
    apply,
    init_zero,
    run,
    uniform_distance,
)
from .synthesis import (
    SynthesisPlan,
    plan,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AddressMap",
    "Assumption",
    "Case",
    "Circuit",
    "Dataset",
    "Gate",
    "GateKind",
    "Level",
    "LoweringReport",
    "NSummary",
    "QUBIT_CAP",
    "QasmParseError",
    "ResourceReport",
    "ScanRow",
    "ScanStats",
    "StateVector",
    "SynthesisPlan",
    "apply",
    "build_indices",
    "build_mapping",
    "classify",
    "cnot_count",
    "depth",
    "deserialize",
    "emit_document",
    "emit_qasm",
    "entangler_count",
    "gate_histogram",
    "init_zero",
    "lower",
    "lower_cg",
    "lower_g",
    "lower_zero_ch",
    "mean_fit",
    "parse_document",
    "parse_qasm",
    "plan",
    "resource_report",
    "run",
    "scan",
    "scan_rows",
    "serialize",
    "summarize",
    "synthesize",
    "uniform_distance",
]
