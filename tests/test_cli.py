import json

import pytest

from superposer.cli import main
from superposer.qasm import parse_qasm


def test_synth_qasm_has_one_entangler_line_per_two_qubit_gate(capsys):
    assert main(["synth", "7", "--lower", "--format", "qasm"]) == 0
    out = capsys.readouterr().out
    entangler_lines = [l for l in out.splitlines() if l.startswith(("cx ", "cz "))]
    assert len(entangler_lines) == 3


def test_synth_doc_for_power_of_two(capsys):
    assert main(["synth", "16", "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [g["kind"] for g in doc["gates"]] == ["h", "h", "h", "h"]
    assert doc["level"] == "abstract"


def test_synth_writes_output_file(tmp_path, capsys):
    target = tmp_path / "circ.qasm"
    assert main(["synth", "12", "--lower", "--format", "qasm", "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    circuit = parse_qasm(target.read_text())
    assert circuit.n_qubits == 4


def test_synth_rejects_nonpositive_n(capsys):
    assert main(["synth", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_synth_qasm_requires_lower(capsys):
    assert main(["synth", "7", "--format", "qasm"]) == 1
    assert "requires --lower" in capsys.readouterr().err


def test_synth_n1_emits_an_empty_program(capsys):
    assert main(["synth", "1", "--lower", "--format", "qasm"]) == 0
    out = capsys.readouterr().out
    assert parse_qasm(out).gates == ()


def test_verify_passes_for_n7(capsys):
    assert main(["verify", "7"]) == 0
    out = capsys.readouterr().out
    assert "N=7 n=3 entanglers=3" in out
    assert "PASS" in out


def test_verify_fails_under_impossible_tolerance(capsys):
    assert main(["verify", "29", "--tolerance", "1e-30"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_widths_above_the_cap(capsys):
    assert main(["verify", str(2**24 + 1)]) == 1
    assert "cap" in capsys.readouterr().err


def test_scan_summary_to_stdout(capsys):
    assert main(["scan", "--n-max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,max,mean"
    assert lines[1] == "2,1,0.5"
    assert lines[-1] == "5,7,4.125"


def test_scan_writes_both_csv_files(tmp_path):
    rows_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "summary.csv"
    code = main([
        "scan", "--n-max", "3",
        "--csv", str(rows_path),
        "--summary", str(summary_path),
    ])
    assert code == 0
    rows = rows_path.read_text().strip().splitlines()
    assert rows[0] == "N,n,xi,M,g,m,cnot,case"
    assert "7,3,0,7,3,3,3,III" in rows
    counts = [int(r.split(",")[6]) for r in rows[1:] if r.split(",")[1] == "3"]
    assert counts == [2, 1, 3, 0]
    summary = summary_path.read_text().strip().splitlines()
    assert summary == ["n,max,mean", "2,1,0.5", "3,3,1.5"]


def test_scan_rejects_bad_width(capsys):
    assert main(["scan", "--n-max", "1"]) == 1
    capsys.readouterr()
    assert main(["scan", "--n-max", "99"]) == 1


def test_encode_end_to_end(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"Q\nU\nA\nN\nT\nU\nM\n")
    mapping_path = tmp_path / "mapping.json"
    circuit_path = tmp_path / "circuit.qasm"
    code = main([
        "encode", str(dataset), "--seed", "42",
        "--mapping-out", str(mapping_path),
        "--circuit-out", str(circuit_path),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "N=7 n=3 cnots=3"
    mapping = json.loads(mapping_path.read_text())
    assert mapping["N"] == 7 and mapping["n"] == 3 and mapping["seed"] == 42
    assert len(mapping["pairs"]) == 7
    assert circuit_path.read_text().startswith("OPENQASM 2.0;")


def test_encode_is_deterministic(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\nc\n")
    outputs = []
    for name in ("one", "two"):
        mapping_path = tmp_path / f"{name}.json"
        circuit_path = tmp_path / f"{name}.circ"
        assert main([
            "encode", str(dataset), "--seed", "5",
            "--mapping-out", str(mapping_path),
            "--circuit-out", str(circuit_path),
        ]) == 0
        outputs.append((mapping_path.read_bytes(), circuit_path.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_encode_circuit_doc_when_not_qasm(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"x\ny\n")
    mapping_path = tmp_path / "m.json"
    circuit_path = tmp_path / "c.json"
    assert main([
        "encode", str(dataset), "--seed", "0",
        "--mapping-out", str(mapping_path),
        "--circuit-out", str(circuit_path),
    ]) == 0
    capsys.readouterr()
    doc = json.loads(circuit_path.read_text())
    assert doc["level"] == "lowered"


def test_encode_leaves_no_mapping_when_the_circuit_write_fails(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\nc\n")
    mapping_path = tmp_path / "m.json"
    assert main([
        "encode", str(dataset),
        "--mapping-out", str(mapping_path),
        "--circuit-out", str(tmp_path / "nodir" / "c.qasm"),
    ]) == 1
    assert "error:" in capsys.readouterr().err
    assert not mapping_path.exists()


def test_encode_rejects_missing_and_empty_datasets(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main([
        "encode", str(missing), "--mapping-out", str(tmp_path / "m"),
        "--circuit-out", str(tmp_path / "c"),
    ]) == 1
    capsys.readouterr()
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    assert main([
        "encode", str(empty), "--mapping-out", str(tmp_path / "m"),
        "--circuit-out", str(tmp_path / "c"),
    ]) == 1
    assert "empty" in capsys.readouterr().err


def test_usage_errors_exit_with_one(capsys):
    assert main(["synth", "seven"]) == 1
    capsys.readouterr()
    assert main(["scan"]) == 1
    capsys.readouterr()
