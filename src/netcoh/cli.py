"""Command-line front end.

Commands: ``coherence``, ``classify``, ``ndqc2``, ``verify``.  All randomness
flows from a single ``--seed`` (default 0xC0FFEE), an integer in [0, 2^64);
identical command, seed, and inputs reproduce byte-identical JSON reports.
The only environment variable consulted is NETCOH_WORKERS (verify worker
processes; default 1, at most the CPU count; anything but an integer >= 1
exits 2).

Importing this module loads ``linalg``, ``coherence``, ``rng`` and
``reporting``, which parsing and the ``coherence`` command need; ``classify``,
``ndqc2`` and ``verify`` are imported by their own command when it runs.
``hashlib`` and ``csv`` load only where used (``reporting.digest``, the input
digests of ``--out``, ``--format csv``).

Exit codes: 0 success; 1 verification assertions failed; 2 parse or usage
failure; 3 input-state invariant violation; 4 protocol capability violation.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .coherence import ProductBasis, net_global_coherence, normalize_cut
from .linalg import (
    DensityMatrix,
    InvalidStateError,
    gate_network_from_json,
    json_int,
    matrix_from_json,
)
from .reporting import canonical_dumps
from .rng import DEFAULT_SEED, MASK64

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
    import hashlib

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
    mat = matrix_from_json(obj)  # a malformed matrix exits 2 through main
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
    ``manifest.json`` with the command ``main`` ran, seed, tool version, the
    SHA-256 of each input file and the run time.  Without ``--out``, do
    nothing.  A directory that cannot be made or written exits 2."""
    if not args.out:
        return
    manifest = {
        "command": " ".join(["netcoh", *args.argv]),
        "seed": seed,
        "tool_version": __version__,
        "inputs": {path: _file_digest(path) for path in inputs},
        "duration_seconds": round(time.perf_counter() - started, 3),
    }
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in {**reports, "manifest.json": canonical_dumps(manifest) + "\n"}.items():
            (out_dir / name).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseFailure(f"cannot write reports to --out {args.out}: {exc}") from exc


def _emit(args, name: str, payload, started: float) -> None:
    """Print a state command's report and write it with ``--out``."""
    text = canonical_dumps(payload)
    print(text)
    _write_out(args, args.seed, (args.state,), started, {f"{name}.json": text + "\n"})


def cmd_coherence(args) -> int:
    started = time.perf_counter()
    rho = load_state(args.state)
    basis = load_basis(args.basis, rho.dims)
    cut = parse_cut(args.cut, rho.dims)
    report = net_global_coherence(rho, basis, cut)
    _emit(args, "coherence", report.to_json(), started)
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import classify as classify_mod

    started = time.perf_counter()
    rho = load_state(args.state)
    basis = load_basis(args.basis, rho.dims)
    threshold = args.tolerance if args.tolerance is not None else classify_mod.DISCORD_ZERO_THRESHOLD
    verdict = classify_mod.classify(rho, basis, seed=args.seed, threshold=threshold)
    _emit(args, "classify", verdict.to_json(), started)
    return EXIT_OK


def cmd_ndqc2(args) -> int:
    from .ndqc2 import CapabilityViolationError, run_protocol_detailed

    started = time.perf_counter()
    desc = _read_json(args.descriptor)
    base_dir = Path(args.descriptor).resolve().parent
    try:
        task = json_int(desc["task"], "task")
        shots = json_int(desc["shots"], "shots")
        seed = json_int(desc.get("seed", args.seed), "seed")
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        u_a = _load_unitary_entry(desc["unitary_a"], base_dir)
        u_b = _load_unitary_entry(desc["unitary_b"], base_dir)
        signs = tuple(json_int(s, "signs entry") for s in desc.get("signs", (1, 1)))
        inject = desc.get("inject_violation")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"malformed run descriptor: {exc}") from exc
    try:
        report, transcript, _record = run_protocol_detailed(
            task, (u_a, u_b), shots, seed, signs, inject
        )
    except CapabilityViolationError as exc:
        print(
            f"protocol capability violation at transcript index {exc.transcript_index}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CAPABILITY
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
    import csv

    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({k for row in rows for k in row}))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_verify(args) -> int:
    from .verify import run_suite

    started = time.perf_counter()
    workers = worker_count(os.environ.get("NETCOH_WORKERS"))
    try:
        results = run_suite(args.suite, args.seed, args.ensemble_size, workers)
    except KeyError as exc:
        raise ParseFailure(str(exc)) from exc
    for result in results:
        print(result.summary)
        for failure in result.failures[:20]:
            print(f"  {failure}")
    # Built only with --out.  A failed route cross-check leaves None (null) in
    # its row, not the NaN canonical JSON rejects, so a failed suite writes too.
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


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """``--seed``: an integer in [0, 2^64), written in any base ``int(text, 0)``
    reads (``7``, ``0xC0FFEE``); the range keeps distinct seeds distinct
    Philox keys."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """``--tolerance``: a finite number of bits, at least 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _ensemble_size(text: str) -> float:
    """``--ensemble-size``: a finite scale factor above 0."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="netcoh",
        description="Coherence measures, correlation classification, and the "
        "distributed trace-estimation protocol simulator.",
    )
    parser.add_argument("--version", action="version", version=f"netcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--seed", type=_seed, default=DEFAULT_SEED, help="integer in [0, 2^64), any base"
        )
        p.add_argument("--out", help="directory for JSON/CSV reports and the run manifest")

    p = sub.add_parser("coherence", help="net-coherence report for a state file")
    p.add_argument("state", help="density-matrix JSON file")
    p.add_argument("--basis", help="'computational' (default) or a basis JSON file")
    p.add_argument("--cut", help="bipartition like '0|1' or '0,1|2,3'")
    common(p)
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("classify", help="correlation-hierarchy verdict for a state file")
    p.add_argument("state")
    p.add_argument("--basis", help="'computational' (default) or a basis JSON file")
    p.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        help="override the discord-zero threshold (bits, finite, >= 0)",
    )
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
        type=_ensemble_size,
        default=1.0,
        help="scale factor (finite, > 0) on the default ensemble sizes",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    args.argv = argv
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStateError as exc:
        print(f"invalid input state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except ValueError as exc:
        # Library-level contract violations (unsupported dims, malformed
        # payloads) count as usage failures; the exit-code contract is total.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
