"""The benchmark's own tests: every correctness check passes real netcoh
output and rejects a deliberately wrong value; the reference numerics, the
tracer and the import-time parser do what the benchmark relies on.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import numerics as nm
import run
import tracing
from workloads import WORKLOADS

CLI = run.import_cli()


def _first(workload, kind):
    return next(op for op in workload.ops if op.kind == kind)


def _execute(op):
    return run.Runner(CLI, None)._execute(op)


def _with_report(result, edit):
    """Same result with the op's JSON report edited in place by ``edit``."""
    code, out, err = result[0]
    report = json.loads(out.splitlines()[0])
    edit(report)
    return [(code, json.dumps(report) + "\n", err)]


def _rejects(workload, op, result, needle: str) -> bool:
    return any(needle in msg for msg in workload.check(op, result))


# ---------------------------------------------------------------------------
# reference numerics


def test_numerics_reference_values():
    cnot = nm.compile_gates(2, [("CNOT", [0, 1])])
    assert np.allclose(cnot, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    # First gate listed acts first: X then H on |0> gives |->.
    hx = nm.compile_gates(1, [("X", [0]), ("H", [0])])
    assert np.allclose(hx @ [1, 0], np.array([1, -1]) / math.sqrt(2))
    a, b = nm.hs_state(2, np.random.default_rng(0)), nm.hs_state(4, np.random.default_rng(1))
    assert np.allclose(nm.partial_trace(np.kron(a, b), (2, 4), (0,)), a)
    assert np.allclose(nm.partial_trace(np.kron(a, b), (2, 4), (1,)), b)
    assert nm.werner_discord(1.0) == pytest.approx(1.0)
    assert nm.werner_discord(0.0) == pytest.approx(0.0)
    assert nm.min_eig_partial_transpose(nm.werner_state(1.0)) == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# per-workload checks


@pytest.fixture(scope="module")
def coherence(tmp_path_factory):
    return WORKLOADS["coherence"](0, tmp_path_factory.mktemp("coherence"))


@pytest.mark.parametrize("field", ["rec_global", "mutual_info", "mutual_info_dephased"])
def test_coherence_rejects_wrong_figure(coherence, field):
    op = _first(coherence, "mixed")
    result = _execute(op)
    assert coherence.check(op, result) == []

    def bump(report):
        report[field] += 1e-8

    assert _rejects(coherence, op, _with_report(result, bump), field)


def test_coherence_rejects_wrong_local_rec(coherence):
    op = _first(coherence, "pure")
    result = _execute(op)
    assert coherence.check(op, result) == []

    def bump(report):
        report["rec_local"][1] -= 1e-8

    assert _rejects(coherence, op, _with_report(result, bump), "rec_local")


def test_coherence_ghz_and_product_laws(coherence):
    ghz = _first(coherence, "ghz5")
    result = _execute(ghz)
    assert coherence.check(ghz, result) == []

    def halve(report):
        report["rec_global"] = report["rec_net"] = 0.5

    assert _rejects(coherence, ghz, _with_report(result, halve), "GHZ5 rec_global")

    product = _first(coherence, "product")
    result = _execute(product)
    assert coherence.check(product, result) == []

    def bump(report):
        report["rec_net"] = 1e-6

    assert _rejects(coherence, product, _with_report(result, bump), "product state rec_net")


@pytest.fixture(scope="module")
def classify(tmp_path_factory):
    return WORKLOADS["classify"](0, tmp_path_factory.mktemp("classify"))


def test_classify_cc_witness(classify):
    op = _first(classify, "cc")
    result = _execute(op)
    assert classify.check(op, result) == []

    def identity_witness(report):
        eye = {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        report["witness_basis"] = [eye, eye]

    assert _rejects(classify, op, _with_report(result, identity_witness), "off-diagonal")

    def not_cc(report):
        report["is_cc"] = False

    assert _rejects(classify, op, _with_report(result, not_cc), "not recognised as CC")


def test_classify_werner_and_ppt(classify):
    op = _first(classify, "werner_npt")
    result = _execute(op)
    assert classify.check(op, result) == []

    def bump(report):
        report["discord_b_to_a"] += 1e-5

    assert _rejects(classify, op, _with_report(result, bump), "vs I - J")

    def flip(report):
        report["is_ppt"] = not report["is_ppt"]

    flipped = _with_report(result, flip)
    assert _rejects(classify, op, flipped, "partial-transpose min eig")
    assert _rejects(classify, op, flipped, "Werner p=")


def test_classify_minimum_bounded_by_computational_discord(classify):
    op = _first(classify, "werner_npt")
    bound = nm.computational_discord(op.expect["rho"], 0)

    def above(report):
        report["discord_a_to_b"] = bound + 1e-6

    assert _rejects(classify, op, _with_report(_execute(op), above), "above computational-basis")


@pytest.fixture(scope="module")
def protocol(tmp_path_factory):
    return WORKLOADS["protocol"](0, tmp_path_factory.mktemp("protocol"))


@pytest.mark.parametrize("task", [1, 2])
def test_protocol_checks(protocol, task):
    op = _first(protocol, f"task{task}")
    result = _execute(op)
    assert protocol.check(op, result) == []

    def exact_off(report):
        report["iota_exact"]["re"] += 1e-8

    assert _rejects(protocol, op, _with_report(result, exact_off), "iota_exact")

    def estimate_off(report):
        report["iota_est"]["im"] += 6.0 * report["se_empirical"]

    assert _rejects(protocol, op, _with_report(result, estimate_off), "5 SE")

    def coherence_off(report):
        report["rec_net"] = 0.5

    assert _rejects(protocol, op, _with_report(result, coherence_off), "control coherence")


def test_protocol_rejects_server_to_server_message(protocol):
    op = _first(protocol, "task2")
    result = _execute(op)
    path = op.expect["out"] / "transcript.json"
    transcript = json.loads(path.read_text())
    transcript.append({"index": len(transcript), "sender": "alice", "receiver": "bob"})
    path.write_text(json.dumps(transcript))
    assert _rejects(protocol, op, result, "server-to-server")


def test_verify_checks(tmp_path):
    workload = WORKLOADS["verify"](0, tmp_path)
    op = workload.ops[0]
    result = _execute(op)
    assert workload.check(op, result) == []
    code, out, err = result[0]
    short = [(code, out.replace("60 instances", "59 instances"), err)] + result[1:]
    assert _rejects(workload, op, short, "60 instances requested")
    failed = [(1, out.replace("PASS", "FAIL"), err)] + result[1:]
    assert _rejects(workload, op, failed, "exit code 1")
    assert _rejects(workload, op, failed, "FAIL")


# ---------------------------------------------------------------------------
# runner, tracer, import-time parser


class _FlakyCli:
    """Stands in for netcoh.cli: a different report on every call."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        print(json.dumps({"call": self.calls}))
        return 0


def test_runner_counts_nondeterministic_output_as_wrong(tmp_path):
    workload = WORKLOADS["verify"](0, tmp_path)
    workload.ops = workload.ops[:1]
    workload.check = lambda op, result: []
    runner = run.Runner(_FlakyCli(), workload)
    runner.run_pass(count=False)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 1, 1)


def test_tracer_spans_self_time_and_restore():
    from netcoh import coherence, linalg

    original = coherence.hermitian_eig
    rho = linalg.DensityMatrix(nm.hs_state(8, np.random.default_rng(3)), (2, 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert coherence.hermitian_eig is not original
        coherence.net_global_coherence(rho, coherence.ProductBasis.computational((2, 4)))
    finally:
        tracer.uninstall()
    assert coherence.hermitian_eig is original
    assert tracer.absent == []
    totals = tracer.totals()
    assert totals["coherence.net_global_coherence"][0] == 1
    assert totals["coherence.rec"][0] == 3
    assert totals["linalg.hermitian_eig"][0] == sum(
        totals[f"linalg.hermitian_eig.d{d}"][0] for d in tracing.EIG_DIMS
    )
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == 1
    root_ns = roots[0][2] - roots[0][1]
    self_total = sum(totals[name][1] for name in tracing.span_names() if name in totals)
    assert 0 < self_total <= root_ns


def test_tracer_reports_missing_target(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "coherence", [("gone", "no_such_callable")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "coherence.gone" in tracer.absent


def test_package_import_ms_counts_outermost_entries():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       10 |         10 |     scipy._lib",
            "import time:       20 |         30 |   scipy",
            "import time:        5 |          5 |     scipy.optimize._x",
            "import time:        7 |         12 |   scipy.optimize",
            "import time:      100 |        142 | netcoh",
            "import time:        3 |          3 | netcoh.cli",
        ]
    )
    assert run.package_import_ms(stderr, "scipy") == pytest.approx(0.042)
    assert run.package_import_ms(stderr, "netcoh") == pytest.approx(0.145)
