"""Command line interface.

Commands:
  synth   emit the preparation circuit for N (JSON document or QASM)
  verify  simulate both levels for N and check uniformity
  scan    per-n CNOT statistics in closed form, per-N rows as CSV
  encode  address a record file and emit its mapping plus circuit

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from . import analysis, document, encoding, lowering, qasm, synthesis
from .ir import entangler_count


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superposer",
        description="Uniform-superposition circuit synthesis and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="emit the preparation circuit for N")
    synth.add_argument("N", type=int, help="number of basis states to superpose")
    synth.add_argument("--lower", action="store_true", help="rewrite onto {h,x,z,ry,cx,cz}")
    synth.add_argument(
        "--format", choices=("doc", "qasm"), default="doc",
        help="output format (qasm requires --lower)",
    )
    synth.add_argument("-o", "--output", metavar="PATH", help="write here instead of stdout")
    synth.set_defaults(handler=cmd_synth)

    verify = sub.add_parser("verify", help="simulate and check uniformity for N")
    verify.add_argument("N", type=int)
    verify.add_argument(
        "--tolerance", type=float, default=1e-10,
        help="max allowed amplitude deviation (default 1e-10)",
    )
    verify.set_defaults(handler=cmd_verify)

    scan = sub.add_parser("scan", help="CNOT statistics for all widths up to n-max")
    scan.add_argument("--n-max", type=int, required=True, metavar="N_MAX",
                      help=f"largest register width, 2..{analysis.MAX_SCAN_N_MAX}")
    scan.add_argument("--csv", metavar="PATH", help="write the per-N rows here")
    scan.add_argument("--summary", metavar="PATH",
                      help="write the per-n summary here (default stdout)")
    scan.set_defaults(handler=cmd_scan)

    encode = sub.add_parser("encode", help="address a newline-delimited record file")
    encode.add_argument("dataset", metavar="PATH")
    encode.add_argument("--seed", type=int, default=0, help="permutation seed (default 0)")
    encode.add_argument("--mapping-out", required=True, metavar="PATH")
    encode.add_argument("--circuit-out", required=True, metavar="PATH",
                        help="lowered circuit; .qasm suffix selects QASM output")
    encode.set_defaults(handler=cmd_encode)
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    if args.format == "qasm" and not args.lower:
        raise ValueError("qasm output requires --lower")
    circuit = synthesis.synthesize(args.N)
    if args.lower:
        circuit, _ = lowering.lower(circuit)
    if args.format == "qasm":
        text = qasm.emit_qasm(circuit)
    else:
        text = document.emit_document(circuit)
    if args.output is not None:
        _write_all([(args.output, [text.encode()])])
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import simulator  # numpy loads here: no other command simulates a state
    if not 0 <= args.tolerance < math.inf:
        raise ValueError(f"argument --tolerance: must be a finite number >= 0, got {args.tolerance:g}")
    n = synthesis.split(args.N)[0]
    if n > simulator.QUBIT_CAP:
        raise ValueError(f"N={args.N} needs {n} qubits, above the {simulator.QUBIT_CAP}-qubit cap")
    abstract = synthesis.synthesize(args.N)
    lowered, _ = lowering.lower(abstract)
    abstract_distance = simulator.uniform_distance(simulator.run(abstract), args.N)
    lowered_distance = simulator.uniform_distance(simulator.run(lowered), args.N)
    print(f"N={args.N} n={n} entanglers={entangler_count(lowered)}")
    print(f"abstract max deviation: {abstract_distance:.3e}")
    print(f"lowered max deviation:  {lowered_distance:.3e}")
    passed = abstract_distance <= args.tolerance and lowered_distance <= args.tolerance
    print(f"{'PASS' if passed else 'FAIL'} (tolerance {args.tolerance:g})")
    return 0 if passed else 2


def cmd_scan(args: argparse.Namespace) -> int:
    stats = analysis.scan(args.n_max)
    lines = ["n,max,mean"]
    lines += [f"{s.n},{s.max_count},{s.mean_count}" for s in stats.per_n]
    summary = "\n".join(lines) + "\n"
    outputs = []
    if args.csv is not None:
        outputs.append((args.csv, _csv_rows(args.n_max)))
    if args.summary is not None:
        outputs.append((args.summary, [summary.encode()]))
    _write_all(outputs)
    if args.summary is None:
        sys.stdout.write(summary)
    return 0


def _csv_rows(n_max: int) -> Iterator[bytes]:
    """The per-N rows as CSV lines, one at a time, ending in \\r\\n as csv.writer's do."""
    yield (",".join(analysis.ScanRow._fields) + "\r\n").encode()
    for N, n, xi, M, g, m, cnot, case in analysis.scan_rows(n_max):
        yield f"{N},{n},{xi},{M},{g},{m},{cnot},{case.value}\r\n".encode()


def _write_all(outputs: Sequence[tuple[str, Iterable[bytes]]]) -> None:
    """Write each (path, chunks) output in full beside its target, then rename all in order.

    The temporary files are flushed to disk first and removed on failure, so
    no target is ever left partly written. Temporaries of the same targets
    left by killed runs are removed first. Targets are resolved through
    symlinks; two that are one file, or one that is not a regular file, are
    refused before anything is written (a dict would merge equal paths).
    """
    targets = [Path(path).resolve() for path, _ in outputs]
    if len(set(targets)) != len(targets):
        raise ValueError(f"outputs must name different files: {[path for path, _ in outputs]}")
    for target in targets:
        if target.exists() and not target.is_file():
            raise ValueError(f"output {str(target)!r} is not a regular file")
    for target in targets:
        _remove_orphaned_temps(target)
    temps = [target.with_name(f"{target.name}.{os.getpid()}.tmp") for target in targets]
    try:
        for temp, (_, chunks) in zip(temps, outputs):
            with open(temp, "wb") as handle:
                handle.writelines(chunks)
                handle.flush()
                os.fsync(handle.fileno())
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _remove_orphaned_temps(target: Path) -> None:
    """Remove ``<target>.<pid>.tmp`` files whose writing process no longer runs.

    A live run's temporary is never touched, so concurrent runs cannot
    rename or delete each other's partial files.
    """
    prefix = target.name + "."
    for temp in target.parent.glob(glob.escape(prefix) + "*.tmp"):
        pid = temp.name[len(prefix):-len(".tmp")]
        if pid.isascii() and pid.isdigit() and not _process_runs(int(pid)):
            temp.unlink(missing_ok=True)


def _process_runs(pid: int) -> bool:
    """Whether a process with this pid exists; True where that cannot be told."""
    if os.name != "posix" or pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        return True
    return True


def cmd_encode(args: argparse.Namespace) -> int:
    dataset = encoding.Dataset.from_path(args.dataset)
    mapping = encoding.build_mapping(dataset, args.seed)
    lowered, _ = lowering.lower(synthesis.synthesize(dataset.size))
    emit = qasm.emit_qasm if args.circuit_out.endswith(".qasm") else document.emit_document
    # The circuit lands first: no new mapping ever appears without its circuit.
    _write_all([
        (args.circuit_out, [emit(lowered).encode()]),
        (args.mapping_out, encoding.serialize_chunks(mapping)),
    ])
    print(f"N={dataset.size} n={mapping.n} cnots={entangler_count(lowered)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
