import json
import os
import subprocess
import sys

import pytest

from superposer import analysis, simulator, synthesis
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


def test_verify_refuses_a_wide_n_without_planning_it(monkeypatch, capsys):
    def no_plan(N):
        raise AssertionError("the cap check must not build the plan")

    monkeypatch.setattr(synthesis, "plan", no_plan)
    assert main(["verify", str(2**24 + 1)]) == 1
    message = f"N={2**24 + 1} needs 25 qubits, above the {simulator.QUBIT_CAP}-qubit cap"
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_scan_removes_temporaries_of_killed_runs_only(tmp_path):
    # A finished child's pid stands for a killed run; the test's parent is alive.
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait(timeout=60)
    rows_path = tmp_path / "rows.csv"
    orphan = tmp_path / f"rows.csv.{dead.pid}.tmp"
    live = tmp_path / f"rows.csv.{os.getppid()}.tmp"
    unrelated = [tmp_path / "rows.csv.x.tmp", tmp_path / f"other.csv.{dead.pid}.tmp"]
    for path in (orphan, live, *unrelated):
        path.write_text("partial")
    assert main(["scan", "--n-max", "3", "--csv", str(rows_path)]) == 0
    assert not orphan.exists()
    assert live.read_text() == "partial"
    assert all(path.read_text() == "partial" for path in unrelated)
    assert rows_path.read_text().startswith("N,n,xi,M,g,m,cnot,case")


def test_scan_keeps_a_temporary_whose_writer_cannot_be_signalled(tmp_path, monkeypatch):
    # EPERM: the pid belongs to a live process of another user, which may still write.
    def refuse(pid, signal):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "kill", refuse)
    temp = tmp_path / "rows.csv.1.tmp"
    temp.write_text("partial")
    assert main(["scan", "--n-max", "3", "--csv", str(tmp_path / "rows.csv")]) == 0
    assert temp.read_text() == "partial"


def test_scan_rejects_bad_width(capsys):
    assert main(["scan", "--n-max", "1"]) == 1
    capsys.readouterr()
    assert main(["scan", "--n-max", "99"]) == 1


def test_scan_rejects_a_bad_width_before_opening_the_csv(tmp_path, capsys):
    assert main(["scan", "--n-max", "21", "--csv", str(tmp_path / "rows.csv")]) == 1
    assert "n_max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_summary_enumerates_no_rows(monkeypatch, capsys):
    def no_rows(n_max):
        raise AssertionError("the summary must not enumerate N")

    monkeypatch.setattr(analysis, "scan_rows", no_rows)
    assert main(["scan", "--n-max", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"20,37,{analysis.scan(20).for_n(20).mean_count}"


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


@pytest.mark.parametrize("failing", ["circuit", "mapping"])
def test_encode_failing_mid_write_leaves_no_partial_or_orphan_file(
    tmp_path, capsys, monkeypatch, failing
):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\nc\n")
    targets = {"circuit": tmp_path / "c.qasm", "mapping": tmp_path / "m.json"}
    for path in targets.values():
        path.write_bytes(b"old")
    # The circuit is written first; fail the flush of the chosen output.
    fsyncs = []
    real_fsync = os.fsync

    def fsync(fd):
        fsyncs.append(fd)
        if len(fsyncs) == (1 if failing == "circuit" else 2):
            raise OSError(28, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    assert main([
        "encode", str(dataset),
        "--mapping-out", str(targets["mapping"]),
        "--circuit-out", str(targets["circuit"]),
    ]) == 1
    assert "No space left" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.qasm", "m.json", "records.txt"]
    assert all(path.read_bytes() == b"old" for path in targets.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "7", "-o", "{out}"],
        ["scan", "--n-max", "3", "--csv", "{out}"],
        ["scan", "--n-max", "3", "--summary", "{out}"],
    ],
    ids=["synth", "scan-csv", "scan-summary"],
)
def test_a_failing_write_leaves_the_old_file_and_no_temporary(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "out"
    target.write_bytes(b"old")

    def fsync(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", fsync)
    assert main([arg.format(out=target) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert "No space left" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert target.read_bytes() == b"old"


def test_outputs_must_be_regular_files(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    assert main(["synth", "7", "-o", str(target)]) == 1
    assert "not a regular file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list(target.iterdir()) == []


def test_encode_renames_the_circuit_into_place_before_the_mapping(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\nc\n")
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main([
        "encode", str(dataset),
        "--mapping-out", str(tmp_path / "m.json"),
        "--circuit-out", str(tmp_path / "c.qasm"),
    ]) == 0
    capsys.readouterr()
    assert renamed == ["c.qasm", "m.json"]


def test_encode_refuses_one_path_for_both_outputs(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\n")
    assert main([
        "encode", str(dataset),
        "--mapping-out", str(tmp_path / "out"),
        "--circuit-out", str(tmp_path / ".." / tmp_path.name / "out"),
    ]) == 1
    assert "different files" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.txt"]
    same = str(tmp_path / "same.csv")
    assert main(["scan", "--n-max", "3", "--csv", same, "--summary", same]) == 1
    assert "different files" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.txt"]


def test_encode_replaces_existing_outputs(tmp_path, capsys):
    dataset = tmp_path / "records.txt"
    dataset.write_bytes(b"a\nb\nc\n")
    mapping_path = tmp_path / "m.json"
    circuit_path = tmp_path / "c.qasm"
    for path in (mapping_path, circuit_path):
        path.write_bytes(b"old")
    assert main([
        "encode", str(dataset),
        "--mapping-out", str(mapping_path),
        "--circuit-out", str(circuit_path),
    ]) == 0
    capsys.readouterr()
    assert json.loads(mapping_path.read_text())["N"] == 3
    assert circuit_path.read_text().startswith("OPENQASM 2.0;")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.qasm", "m.json", "records.txt"]


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
