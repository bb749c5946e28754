"""Byte-for-byte pins on the CLI's stdout and written files.

The expected bytes under ``golden/`` were captured from the CLI itself.
Any change to them is a change to the user-visible output and has to be
deliberate.
"""

from pathlib import Path

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
