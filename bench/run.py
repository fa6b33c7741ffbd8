"""netcoh benchmark: drives ``netcoh.cli.main`` in-process on one workload.

Usage (from the repository root):

    python3 bench/run.py --workload {coherence,classify,protocol,verify} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: ``ops_per_s`` (median over
whole passes of the workload's input list), ``op_p50_ms`` (median op
latency), ``setup_s`` (fresh interpreter to first result, median of
``SETUP_INTERPRETERS`` cold starts) and ``peak_rss_mb``.  ``--trace 1``
runs an untraced and then a traced phase and reports per-layer counts and
self times per op (see ``tracing.py``); spans go to ``bench/out/``.  Every
output is checked (see ``workloads.py``).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread and one netcoh worker on every run, set before numpy
# loads; child interpreters inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NETCOH_WORKERS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_INTERPRETERS = 3
CHILD_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 10

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_cli():
    """netcoh.cli from this checkout's ``src``, never from site-packages."""
    sys.path.insert(0, str(SRC))
    from netcoh import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"netcoh imported from {cli.__file__}, not from {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs passes over one workload's ops and tallies checked outcomes."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ops that ran but gave an output failing a check
        self.first_output: dict[int, str] = {}
        self.messages: list[str] = []
        self.tracer = None

    def _execute(self, op):
        results = []
        for argv in op.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def run_pass(self, count: bool = True) -> tuple[float, list[float]]:
        """One whole pass; returns its wall time and per-op latencies.

        Outputs are checked after the pass, outside the timed region.
        """
        ops = self.workload.ops
        results = []
        latencies = []
        clock = time.perf_counter
        start = clock()
        for index, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op_id = self.attempted + index
            t0 = clock()
            try:
                results.append(self._execute(op))
            except Exception:  # the op failed; record it and keep the run going
                results.append(traceback.format_exc())
            latencies.append(clock() - t0)
        elapsed = clock() - start
        for index, (op, result) in enumerate(zip(ops, results)):
            self._tally(index, op, result, count)
        return elapsed, latencies

    def _tally(self, index: int, op, result, count: bool) -> None:
        if isinstance(result, str):
            problems, wrong = [f"raised:\n{result}"], False
        else:
            problems = self.workload.check(op, result)
            wrong = bool(problems)
            text = "\x00".join(out for _code, out, _err in result)
            first = self.first_output.setdefault(index, text)
            if text != first:
                problems.append("output differs from an earlier run of the same op")
                wrong = True
        if count:
            self.attempted += 1
            self.failed += bool(problems)
            self.wrong += wrong
        if problems and len(self.messages) < MAX_REPORTED_FAILURES:
            prefix = f"{self.workload.name} op {index} ({op.kind}): "
            self.messages.append(prefix + "; ".join(problems))

    def timed_phase(self, seconds: float, between=None) -> tuple[list[float], list[float]]:
        """Whole passes until they have taken ``seconds``; at least one.

        ``between(share)``, if given, runs between passes, outside their
        timing, with the share of ``seconds`` the passes have used so far.
        """
        rates, latencies = [], []
        busy = 0.0
        while not rates or busy < seconds:
            if rates and between is not None:
                between(busy / seconds)
            gc.collect()
            elapsed, lat = self.run_pass()
            busy += elapsed
            rates.append(len(lat) / elapsed)
            latencies.extend(lat)
        return rates, latencies


def cold_start_seconds(op) -> float:
    """Fresh interpreter to the op's result, timed on the shared monotonic clock."""
    cmd = [sys.executable, str(BENCH_DIR / "cold_start.py"), json.dumps(op.argvs)]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(code != 0 for code in report["codes"]):
        raise RuntimeError(f"cold start op exited with {report['codes']}")
    return report["t"] - started


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def package_import_ms(importtime_stderr: str, package: str) -> float:
    """Cumulative import time of ``package`` from ``-X importtime`` output.

    Lines come children first, indented by depth; walking them parents first,
    count each entry of the package whose ancestors are not entries of it.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(flag for _depth, flag in stack)
        hit = name == package or name.startswith(package + ".")
        if hit and not inside:
            total_us += cumulative
        stack.append((depth, hit or inside))
    return total_us / 1000.0


def import_times_ms() -> dict[str, float]:
    """Import cost of ``netcoh`` and ``scipy`` when a fresh interpreter runs
    ``import netcoh.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import netcoh.cli"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of netcoh.cli failed: {proc.stderr[-2000:]}")
    return {p: package_import_ms(proc.stderr, p) for p in ("netcoh", "scipy")}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> dict:
    first_op = runner.workload.ops[0]
    setup: list[float] = []

    def cold_starts(share: float) -> None:
        # Spread the cold starts over the timed phase, so that its passes
        # sample the host's speed over a longer stretch of wall time.
        while len(setup) < min(SETUP_INTERPRETERS, int(share * SETUP_INTERPRETERS)):
            setup.append(cold_start_seconds(first_op))

    runner.run_pass(count=False)  # warm-up
    rates, latencies = runner.timed_phase(seconds, between=cold_starts)
    cold_starts(1.0)
    log(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    log(f"passes: {len(rates)}, ops/s per pass: {', '.join(f'{r:.4g}' for r in rates)}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "op_p50_ms": metric(1000.0 * statistics.median(latencies), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict:
    imports = import_times_ms()
    runner.run_pass(count=False)  # warm-up
    wall0, cpu0 = time.perf_counter(), time.process_time()
    plain_rates, _ = runner.timed_phase(seconds / 2.0)
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    first_traced = runner.attempted
    try:
        traced_rates, _ = runner.timed_phase(seconds / 2.0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced_ops = runner.attempted - first_traced
    for name in tracer.absent:
        log(f"trace target absent: {name}")

    totals = tracer.totals()
    out = {}
    names = tracing.span_names()
    eig_at = names.index(tracing.EIG_SPAN) + 1
    names[eig_at:eig_at] = [f"{tracing.EIG_SPAN}.d{d}" for d in tracing.EIG_DIMS]
    for name in names:
        calls, self_ns = totals.get(name, (0, 0))
        out[f"{name}.calls_per_op"] = metric(calls / traced_ops, "count")
        out[f"{name}.self_ms_per_op"] = metric(self_ns / 1e6 / traced_ops, "ms")
    classify_calls = totals.get("classify.classify", (0, 0))[0]
    minimize_calls = totals.get("coherence.minimize_discord", (0, 0))[0]
    out["classify.minimize_per_classify"] = metric(
        minimize_calls / classify_calls if classify_calls else 0.0, "ratio"
    )
    out["import.netcoh_ms"] = metric(imports["netcoh"], "ms")
    out["import.scipy_ms"] = metric(imports["scipy"], "ms")
    out["process.cpu_per_wall"] = metric(cpu_per_wall, "ratio")
    out["trace.overhead_ratio"] = metric(
        statistics.median(traced_rates) / statistics.median(plain_rates), "ratio"
    )
    tracer.write(
        trace_path,
        {"workload": runner.workload.name, "seed": runner.workload.seed, "traced_ops": traced_ops},
    )
    log(f"spans: {len(tracer.spans)} written to {trace_path}")
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        log(f"error: cannot import netcoh from {SRC}: {exc}")
        return 2
    workload = WORKLOADS[args.workload](args.seed, OUT / "inputs" / f"{args.workload}_{args.seed}")
    runner = Runner(cli, workload)
    if args.trace:
        trace_path = OUT / f"trace_{args.workload}_{args.seed}.tsv"
        metrics = per_layer(runner, args.seconds, trace_path)
    else:
        metrics = end_to_end(runner, args.seconds)
    for message in runner.messages:
        log(f"FAILED {message}")
    for name, m in metrics.items():
        log(f"{args.workload:>9} {name:<48} {m['value']:>14.6g} {m['unit']}")
    log(f"{args.workload:>9} attempted {runner.attempted}, failed {runner.failed}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
