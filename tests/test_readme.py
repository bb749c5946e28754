"""README's "Library surface" section is the package's whole public surface."""

import re
from pathlib import Path

import superposer

README = Path(__file__).resolve().parents[1] / "README.md"
SURFACE = [
    "Case", "Circuit", "Dataset", "Gate", "QasmParseError",
    "build_indices", "build_mapping", "classify", "cnot_count", "deserialize", "emit_qasm",
    "lower", "parse_qasm", "run", "scan", "serialize", "synthesize",
    "uniform_distance",
]


def test_readme_library_example_runs_on_exactly_the_exported_names():
    section = README.read_text().split("## Library surface\n")[1].split("\n## ")[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert sorted(superposer.__all__) == SURFACE
    listed = re.search(r"The package exports exactly these names: (.*?)\. ", section, re.S)
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == SURFACE
