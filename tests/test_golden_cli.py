"""Byte-for-byte pins on the CLI's stdout and written files.

The expected bytes under ``golden/`` were captured from the CLI itself.
Any change to them is a change to the user-visible output and has to be
deliberate.
"""

import os
import subprocess
import sys
from pathlib import Path

import superposer
from superposer.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORDS = b"alpha\nbravo\ncharlie\ndelta\necho\nfoxtrot\ngolf\nhotel\nindia\njuliet\nkilo\n"


def _run(argv, capsys) -> bytes:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode()


def test_cli_output_is_byte_identical(tmp_path, capsys):
    def expect(name: str, actual: bytes) -> None:
        assert actual == (GOLDEN / name).read_bytes(), name

    expect("synth_7_lower.qasm", _run(["synth", "7", "--lower", "--format", "qasm"], capsys))
    expect("synth_12.json", _run(["synth", "12"], capsys))
    expect("verify_7.txt", _run(["verify", "7"], capsys))
    # 18 qubits: the simulator's blocked kernels run here.
    expect("verify_200001.txt", _run(["verify", "200001"], capsys))

    rows = tmp_path / "rows.csv"
    expect("scan_5_summary.csv", _run(["scan", "--n-max", "5", "--csv", str(rows)], capsys))
    expect("scan_5_rows.csv", rows.read_bytes())

    dataset = tmp_path / "records.txt"
    dataset.write_bytes(RECORDS)
    mapping = tmp_path / "map.json"
    circuit = tmp_path / "prep.qasm"
    stdout = _run([
        "encode", str(dataset), "--seed", "3",
        "--mapping-out", str(mapping), "--circuit-out", str(circuit),
    ], capsys)
    expect("encode_11_stdout.txt", stdout)
    expect("encode_11_map.json", mapping.read_bytes())
    expect("encode_11_prep.qasm", circuit.read_bytes())


def _process(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``python -m superposer.cli`` with ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(superposer.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "superposer.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_cli_process_output_is_byte_identical(tmp_path):
    # The same pins through the module entry point, as a user's shell runs it.
    (tmp_path / "records.txt").write_bytes(RECORDS)
    encode = ["encode", "records.txt", "--seed", "3",
              "--mapping-out", "map.json", "--circuit-out", "prep.qasm"]
    for argv, stdout, written in [
        (["synth", "7", "--lower", "--format", "qasm"], "synth_7_lower.qasm", {}),
        (["synth", "12"], "synth_12.json", {}),
        (["verify", "7"], "verify_7.txt", {}),
        (["verify", "200001"], "verify_200001.txt", {}),
        (["scan", "--n-max", "5", "--csv", "rows.csv"], "scan_5_summary.csv",
         {"rows.csv": "scan_5_rows.csv"}),
        (encode, "encode_11_stdout.txt",
         {"map.json": "encode_11_map.json", "prep.qasm": "encode_11_prep.qasm"}),
    ]:
        result = _process(argv, tmp_path)
        assert (result.returncode, result.stderr) == (0, b""), argv
        assert result.stdout == (GOLDEN / stdout).read_bytes(), argv
        for path, golden in written.items():
            assert (tmp_path / path).read_bytes() == (GOLDEN / golden).read_bytes(), path


def test_cli_process_exit_codes(tmp_path):
    refused = _process(["synth", "0"], tmp_path)
    assert (refused.returncode, refused.stdout) == (1, b"")
    assert refused.stderr == b"error: N must be a positive integer, got 0\n"
    failed = _process(["verify", "7", "--tolerance", "0"], tmp_path)
    assert (failed.returncode, failed.stderr) == (2, b"")
    assert failed.stdout.endswith(b"FAIL (tolerance 0)\n")
