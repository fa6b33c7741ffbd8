"""Command-line front end.

Commands: ``coherence``, ``classify``, ``ndqc2``, ``verify``.  All randomness
flows from a single ``--seed`` (default 0xC0FFEE); identical command, seed,
and inputs reproduce byte-identical JSON reports.  The only environment
variable consulted is NETCOH_WORKERS (verify worker processes; default 1,
at most the CPU count; anything but an integer >= 1 exits 2).

Exit codes: 0 success; 1 verification assertions failed; 2 parse or usage
failure; 3 input-state invariant violation; 4 protocol capability violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, classify as classify_mod
from .coherence import ProductBasis, net_global_coherence, normalize_cut
from .linalg import (
    DensityMatrix,
    InvalidStateError,
    gate_network_from_json,
    matrix_from_json,
)
from .ndqc2 import CapabilityViolationError, run_protocol_detailed
from .reporting import canonical_dumps
from .rng import DEFAULT_SEED
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_STATE = 3
EXIT_CAPABILITY = 4


class ParseFailure(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read JSON from {path}: {exc}") from exc


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def load_state(path: str) -> DensityMatrix:
    """State file: matrix JSON with an optional "dims" subsystem signature.

    Without "dims", a power-of-two dimension is split into qubits; other
    dimensions become a single subsystem.
    """
    obj = _read_json(path)
    try:
        mat = matrix_from_json(obj)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    if "dims" in obj:
        dims = obj["dims"]
        if not isinstance(dims, list) or any(type(d) is not int for d in dims):
            raise ParseFailure(f"dims must be a list of integers, got {dims!r}")
        dims = tuple(dims)
    else:
        d = mat.shape[0]
        if d & (d - 1) == 0 and d > 1:
            dims = (2,) * (d.bit_length() - 1)
        else:
            dims = (d,)
    return DensityMatrix(mat, dims)


def load_basis(spec: str | None, dims: tuple[int, ...]) -> ProductBasis:
    if spec is None or spec == "computational":
        return ProductBasis.computational(dims)
    obj = _read_json(spec)
    try:
        mats = tuple(matrix_from_json(m) for m in obj["local_bases"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"malformed basis file {spec}: {exc}") from exc
    return ProductBasis(mats, dims)


def parse_cut(spec: str | None, dims: tuple[int, ...]):
    if spec is None:
        if len(dims) == 2:
            return ((0,), (1,))
        raise ParseFailure(f"--cut required for {len(dims)} subsystems")
    try:
        left, right = spec.split("|")
        cut = (
            tuple(int(x) for x in left.split(",") if x != ""),
            tuple(int(x) for x in right.split(",") if x != ""),
        )
    except ValueError as exc:
        raise ParseFailure(f"malformed cut spec {spec!r} (expected like '0|1')") from exc
    return normalize_cut(dims, cut)


def _load_unitary_entry(entry, base_dir: Path):
    if isinstance(entry, str):
        obj = _read_json(str(base_dir / entry) if not os.path.isabs(entry) else entry)
    elif isinstance(entry, dict):
        obj = entry
    else:
        raise ParseFailure(f"unitary entry must be a filename or object, got {type(entry)}")
    try:
        if "qubits" in obj:
            return gate_network_from_json(obj)
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _write_out(args, seed, inputs: tuple[str, ...], started: float, reports: dict) -> None:
    """With ``--out``, write each report text under its file name, plus a
    ``manifest.json`` with the command, seed, tool version, the SHA-256 of
    each input file and the run time.  Without ``--out``, do nothing."""
    if not args.out:
        return
    manifest = {
        "command": " ".join(sys.argv),
        "seed": seed,
        "tool_version": __version__,
        "inputs": {path: _file_digest(path) for path in inputs},
        "duration_seconds": round(time.time() - started, 3),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in {**reports, "manifest.json": canonical_dumps(manifest) + "\n"}.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")


def _emit(args, name: str, payload, started: float) -> None:
    """Print a state command's report and write it with ``--out``."""
    text = canonical_dumps(payload)
    print(text)
    _write_out(args, args.seed, (args.state,), started, {f"{name}.json": text + "\n"})


def cmd_coherence(args) -> int:
    started = time.time()
    rho = load_state(args.state)
    basis = load_basis(args.basis, rho.dims)
    cut = parse_cut(args.cut, rho.dims)
    report = net_global_coherence(rho, basis, cut)
    _emit(args, "coherence", report.to_json(), started)
    return EXIT_OK


def cmd_classify(args) -> int:
    started = time.time()
    rho = load_state(args.state)
    basis = load_basis(args.basis, rho.dims)
    threshold = args.tolerance if args.tolerance is not None else classify_mod.DISCORD_ZERO_THRESHOLD
    verdict = classify_mod.classify(rho, basis, seed=args.seed, threshold=threshold)
    _emit(args, "classify", verdict.to_json(), started)
    return EXIT_OK


def cmd_ndqc2(args) -> int:
    started = time.time()
    desc = _read_json(args.descriptor)
    base_dir = Path(args.descriptor).resolve().parent
    try:
        task = int(desc["task"])
        shots = int(desc["shots"])
        seed = int(desc.get("seed", args.seed))
        u_a = _load_unitary_entry(desc["unitary_a"], base_dir)
        u_b = _load_unitary_entry(desc["unitary_b"], base_dir)
        signs = tuple(int(s) for s in desc.get("signs", (1, 1)))
        inject = desc.get("inject_violation")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"malformed run descriptor: {exc}") from exc
    report, transcript, _record = run_protocol_detailed(
        task, (u_a, u_b), shots, seed, signs, inject
    )
    text = canonical_dumps(report.to_json())
    print(text)
    exact, est = report.iota_exact, report.iota_est
    print(
        f"# iota exact {exact.real:+.6f}{exact.imag:+.6f}i"
        f"  estimate {est.real:+.6f}{est.imag:+.6f}i"
        f"  SE empirical {report.se_empirical:.6f} predicted {report.se_predicted:.6f}",
        file=sys.stderr,
    )
    reports = {
        "report.json": text + "\n",
        "transcript.json": canonical_dumps(transcript.to_json()) + "\n",
    }
    _write_out(args, seed, (args.descriptor,), started, reports)
    return EXIT_OK


def worker_count(raw: str | None) -> int:
    """NETCOH_WORKERS as a process count: 1 when unset, at most the CPU count."""
    try:
        workers = 1 if raw is None else int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParseFailure(f"NETCOH_WORKERS must be an integer >= 1, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def _csv_text(rows: list[dict]) -> str:
    """Rows as CSV with sorted column names; empty for no rows."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({k for row in rows for k in row}))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_verify(args) -> int:
    started = time.time()
    workers = worker_count(os.environ.get("NETCOH_WORKERS"))
    try:
        results = run_suite(args.suite, args.seed, args.ensemble_size, workers)
    except KeyError as exc:
        raise ParseFailure(str(exc)) from exc
    for result in results:
        print(result.summary)
        for failure in result.failures[:20]:
            print(f"  {failure}")
    # Built only with --out: canonical JSON rejects the NaN a failed thm5
    # cross-check leaves in its row, and that must still exit 1.
    if args.out:
        reports = {}
        for result in results:
            if args.format == "csv":
                reports[f"{result.name}.csv"] = _csv_text(result.rows)
            else:
                payload = {"passed": result.passed, "failures": result.failures, "rows": result.rows}
                reports[f"{result.name}.json"] = canonical_dumps(payload) + "\n"
        _write_out(args, args.seed, (), started, reports)
    return EXIT_OK if all(result.passed for result in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcoh",
        description="Coherence measures, correlation classification, and the "
        "distributed trace-estimation protocol simulator.",
    )
    parser.add_argument("--version", action="version", version=f"netcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
        p.add_argument("--out", help="directory for JSON/CSV reports and the run manifest")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="override the discord-zero threshold (bits) where applicable",
        )

    p = sub.add_parser("coherence", help="net-coherence report for a state file")
    p.add_argument("state", help="density-matrix JSON file")
    p.add_argument("--basis", help="'computational' (default) or a basis JSON file")
    p.add_argument("--cut", help="bipartition like '0|1' or '0,1|2,3'")
    common(p)
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("classify", help="correlation-hierarchy verdict for a state file")
    p.add_argument("state")
    p.add_argument("--basis", help="'computational' (default) or a basis JSON file")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ndqc2", help="run the three-party estimation protocol")
    p.add_argument("descriptor", help="run-descriptor JSON file")
    common(p)
    p.set_defaults(func=cmd_ndqc2)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument(
        "suite", help="thm4 | thm5 | thm6 | lemma1 | isomorphism | se-scaling | privacy | all"
    )
    p.add_argument(
        "--ensemble-size",
        type=float,
        default=1.0,
        help="scale factor on the default ensemble sizes",
    )
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStateError as exc:
        print(f"invalid input state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except CapabilityViolationError as exc:
        print(
            f"protocol capability violation at transcript index {exc.transcript_index}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CAPABILITY
    except ValueError as exc:
        # Library-level contract violations (unsupported dims, malformed
        # payloads) count as usage failures; the exit-code contract is total.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
