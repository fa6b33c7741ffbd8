"""The benchmark's four workloads: fixed input lists and their checks.

Each workload turns ``--seed`` into a fixed list of CLI operations through the
benchmark's own numpy generator (``numerics``), writes the input files under
the run's work directory, and checks every output against a computation made
apart from netcoh or against a property the method must have.  An op is a
list of ``netcoh`` argument vectors; its result is one ``(exit code, stdout,
stderr)`` triple per vector.  ``check`` returns the failure messages of one
op, empty when it passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import numerics as nm

# Tags that keep the workloads' generators apart for one seed.
_STREAM_TAGS = {"coherence": 1, "classify": 2, "protocol": 3, "verify": 4}

TOL_SPECTRAL = 1e-9  # reference recomputation of reported bit figures
TOL_DISCORD = 1e-6  # Werner discord against I - J
TOL_DIAGONAL = 1e-7  # witness basis diagonalises the state
PPT_FLOOR = -1e-9
SE_MULTIPLE = 5.0


@dataclass
class Op:
    kind: str
    argvs: list[list[str]]
    expect: dict = field(default_factory=dict)


def _matrix_json(m: np.ndarray) -> dict:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return {"dim": int(m.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in flat]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def _single_report(result, failures: list[str]) -> dict | None:
    code, out, _err = result[0]
    if code != 0:
        failures.append(f"exit code {code}")
        return None
    try:
        return json.loads(out.splitlines()[0])
    except (IndexError, json.JSONDecodeError) as exc:
        failures.append(f"unparsable report: {exc}")
        return None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.gen = np.random.default_rng([self.seed, _STREAM_TAGS[self.name]])
        self.ops: list[Op] = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# coherence: five-qubit state files, 1|4 and 2|3 cuts


class CoherenceWorkload(Workload):
    """Twelve d = 32 reports: 7 HS-mixed states (the majority class, where
    ``op_p50_ms`` lands), 2 Haar-pure, 2 GHZ-type and one state that is a
    product across its cut.  Pure states in the computational basis and GHZ
    states are the cheap ops (the Jacobi solver meets sparse or rank-one
    matrices)."""

    name = "coherence"
    # (state class, qubits on the left of the cut, basis)
    TABLE = (
        ("mixed", 1, "computational"),
        ("pure", 2, "computational"),
        ("mixed", 1, "random"),
        ("ghz5", 2, "computational"),
        ("mixed", 2, "computational"),
        ("mixed", 2, "random"),
        ("product", 1, "random"),
        ("mixed", 2, "random"),
        ("pure", 1, "random"),
        ("ghz_type", 2, "random"),
        ("mixed", 1, "random"),
        ("mixed", 2, "computational"),
    )
    N_QUBITS = 5

    def build(self) -> list[Op]:
        n = self.N_QUBITS
        ops = []
        for i, (kind, left, basis_kind) in enumerate(self.TABLE):
            gen = self.gen
            group_a = tuple(sorted(int(q) for q in gen.choice(n, size=left, replace=False)))
            group_b = tuple(q for q in range(n) if q not in group_a)
            if kind == "mixed":
                rho = nm.hs_state(2**n, gen)
            elif kind == "pure":
                rho = nm.haar_pure_state(2**n, gen)
            elif kind == "ghz5":
                vec = np.zeros(2**n)
                vec[0] = vec[-1] = 1.0
                rho = nm.pure_state(vec)
            elif kind == "ghz_type":
                theta = gen.uniform(0.2, math.pi / 2 - 0.2)
                phi = gen.uniform(0.0, 2.0 * math.pi)
                vec = np.zeros(2**n, dtype=complex)
                vec[0] = math.cos(theta)
                vec[-1] = math.sin(theta) * complex(math.cos(phi), math.sin(phi))
                rho = nm.pure_state(vec)
            else:  # product across the cut
                joint = np.kron(
                    nm.hs_state(2 ** len(group_a), gen), nm.hs_state(2 ** len(group_b), gen)
                )
                rho = nm.permute_qubits(joint, n, group_a + group_b)
            if basis_kind == "random":
                local = [nm.haar_unitary(2, gen) for _ in range(n)]
                basis_arg = _write_json(
                    self.workdir / f"basis_{i}.json",
                    {"local_bases": [_matrix_json(u) for u in local]},
                )
            else:
                local = [np.eye(2, dtype=complex)] * n
                basis_arg = "computational"
            state_path = _write_json(self.workdir / f"state_{i}.json", _matrix_json(rho))
            cut = ",".join(map(str, group_a)) + "|" + ",".join(map(str, group_b))
            argv = ["coherence", state_path, "--cut", cut, "--basis", basis_arg]
            ops.append(
                Op(kind, [argv], {"rho": rho, "local": local, "cut": (group_a, group_b)})
            )
        return ops

    def check(self, op: Op, result) -> list[str]:
        failures: list[str] = []
        report = _single_report(result, failures)
        if report is None:
            return failures
        ref = nm.coherence_figures(op.expect["rho"], op.expect["local"], *op.expect["cut"])
        for key in ("rec_global", "rec_net", "mutual_info", "mutual_info_dephased"):
            if not _close(report[key], ref[key], TOL_SPECTRAL):
                failures.append(f"{key} {report[key]!r} vs reference {ref[key]!r}")
        for got, want in zip(report["rec_local"], ref["rec_local"]):
            if not _close(got, want, TOL_SPECTRAL):
                failures.append(f"rec_local {got!r} vs reference {want!r}")
        if op.kind == "ghz5":
            for key in ("rec_global", "rec_net"):
                if not _close(report[key], 1.0, TOL_SPECTRAL):
                    failures.append(f"GHZ5 {key} {report[key]!r} != 1 bit")
        if op.kind == "product" and not _close(report["rec_net"], 0.0, TOL_SPECTRAL):
            failures.append(f"product state rec_net {report['rec_net']!r} != 0")
        return failures


# ---------------------------------------------------------------------------
# classify: two-qubit verdicts


class ClassifyWorkload(Workload):
    """Fourteen verdicts: 5 HS-random and 6 Werner states (the discordant
    majority), one rotated CC state and two product states, which stop the
    minimiser early and are cheap.  Werner verdicts cost the same from seed to
    seed (~7.9k objective evaluations); HS verdicts spread widely (mean
    ~12.5k, some above 30k), so they are kept to five per pass and
    ``op_p50_ms`` lands among the Werner verdicts."""

    name = "classify"
    TABLE = (
        "hs", "werner_ppt", "werner_npt", "cc", "hs", "werner_ppt", "product",
        "hs", "werner_npt", "hs", "werner_ppt", "product", "werner_npt", "hs",
    )

    def build(self) -> list[Op]:
        gen = self.gen
        ops = []
        for i, kind in enumerate(self.TABLE):
            expect: dict = {}
            if kind == "hs":
                rho = nm.hs_state(4, gen)
            elif kind.startswith("werner"):
                # p is kept away from the separability edge at 1/3.
                p = gen.uniform(0.05, 0.28) if kind == "werner_ppt" else gen.uniform(0.39, 0.95)
                local = np.kron(nm.haar_unitary(2, gen), nm.haar_unitary(2, gen))
                rho = local @ nm.werner_state(p) @ local.conj().T
                expect["p"] = p
            elif kind == "cc":
                ua, ub = nm.haar_unitary(2, gen), nm.haar_unitary(2, gen)
                probs = gen.random(4)
                probs /= probs.sum()
                rho = sum(
                    probs[2 * a + b]
                    * np.kron(
                        np.outer(ua[:, a], ua[:, a].conj()), np.outer(ub[:, b], ub[:, b].conj())
                    )
                    for a in range(2)
                    for b in range(2)
                )
            else:
                rho = np.kron(nm.hs_state(2, gen), nm.hs_state(2, gen))
            rho = (rho + rho.conj().T) / 2.0
            expect["rho"] = rho
            path = _write_json(self.workdir / f"state_{i}.json", _matrix_json(rho))
            op_seed = int(gen.integers(1, 2**31))
            ops.append(Op(kind, [["classify", path, "--seed", str(op_seed)]], expect))
        return ops

    def check(self, op: Op, result) -> list[str]:
        failures: list[str] = []
        v = _single_report(result, failures)
        if v is None:
            return failures
        rho = op.expect["rho"]
        min_eig = nm.min_eig_partial_transpose(rho)
        if v["is_ppt"] != (min_eig >= PPT_FLOOR):
            failures.append(f"is_ppt {v['is_ppt']} but partial-transpose min eig {min_eig:.3e}")
        for key, side in (("discord_a_to_b", 0), ("discord_b_to_a", 1)):
            bound = nm.computational_discord(rho, side)
            if v[key] > bound + TOL_SPECTRAL:
                failures.append(f"{key} {v[key]!r} above computational-basis discord {bound!r}")
        if op.kind.startswith("werner"):
            p = op.expect["p"]
            want = nm.werner_discord(p)
            for key in ("discord_a_to_b", "discord_b_to_a"):
                if not _close(v[key], want, TOL_DISCORD):
                    failures.append(f"Werner p={p:.4f} {key} {v[key]!r} vs I - J {want!r}")
            if v["is_ppt"] != (p <= 1.0 / 3.0):
                failures.append(f"Werner p={p:.4f} is_ppt {v['is_ppt']}")
        if op.kind in ("cc", "product"):
            if not v["is_cc"] or not v["witness_basis"]:
                failures.append(f"{op.kind} state not recognised as CC")
            else:
                local = [
                    np.array([complex(*z) for z in m["entries"]]).reshape(m["dim"], m["dim"])
                    for m in v["witness_basis"]
                ]
                off = nm.off_diagonal_max(rho, np.kron(local[0], local[1]))
                if off > TOL_DIAGONAL:
                    failures.append(f"witness basis leaves off-diagonal {off:.3e}")
        return failures


# ---------------------------------------------------------------------------
# protocol: ndqc2 run descriptors


class ProtocolWorkload(Workload):
    """Forty runs at 1e5 shots, 16 of task 1 and 24 of task 2 (joint Born
    sampling, the slower majority, where ``op_p50_ms`` lands), each server's
    unitary a gate network or an inline matrix on 1-3 qubits."""

    name = "protocol"
    N_OPS = 40
    SHOTS = 100_000
    # (unitary_a, unitary_b) encodings, cycled
    ENCODINGS = (
        ("network", "network"),
        ("network", "matrix"),
        ("matrix", "network"),
        ("matrix", "matrix"),
    )

    def _unitary(self, encoding: str) -> tuple[dict, complex]:
        gen = self.gen
        n = int(gen.integers(1, 4))
        if encoding == "matrix":
            u = nm.haar_unitary(2**n, gen)
            return _matrix_json(u), nm.normalized_trace(u)
        names = nm.GATE_NAMES if n >= 2 else nm.GATE_NAMES[:6]
        gates = []
        for _ in range(int(gen.integers(2, 9))):
            name = names[int(gen.integers(len(names)))]
            if name in ("CNOT", "CZ"):
                targets = [int(q) for q in gen.choice(n, size=2, replace=False)]
            else:
                targets = [int(gen.integers(n))]
            gates.append((name, targets))
        body = {"qubits": n, "gates": [{"name": g, "targets": t} for g, t in gates]}
        return body, nm.normalized_trace(nm.compile_gates(n, gates))

    def build(self) -> list[Op]:
        gen = self.gen
        ops = []
        for i in range(self.N_OPS):
            task = 1 if i % 5 in (0, 3) else 2
            enc_a, enc_b = self.ENCODINGS[(i // 2) % len(self.ENCODINGS)]
            u_a, iota_a = self._unitary(enc_a)
            u_b, iota_b = self._unitary(enc_b)
            desc = {
                "task": task,
                "shots": self.SHOTS,
                "seed": int(gen.integers(0, 2**31)),
                "unitary_a": u_a,
                "unitary_b": u_b,
            }
            if task == 1:
                desc["signs"] = [int(s) for s in gen.choice((-1, 1), size=2)]
            path = _write_json(self.workdir / f"run_{i}.json", desc)
            out_dir = self.workdir / f"out_{i}"
            ops.append(
                Op(
                    f"task{task}",
                    [["ndqc2", path, "--out", str(out_dir)]],
                    {"task": task, "iota": iota_a * iota_b, "out": out_dir},
                )
            )
        return ops

    def check(self, op: Op, result) -> list[str]:
        failures: list[str] = []
        r = _single_report(result, failures)
        if r is None:
            return failures
        exact = complex(r["iota_exact"]["re"], r["iota_exact"]["im"])
        est = complex(r["iota_est"]["re"], r["iota_est"]["im"])
        if abs(exact - op.expect["iota"]) > TOL_SPECTRAL:
            failures.append(f"iota_exact {exact} vs reference {op.expect['iota']}")
        if abs(est - exact) > SE_MULTIPLE * r["se_empirical"]:
            failures.append(f"|iota_est - iota_exact| = {abs(est - exact):.3e} > 5 SE")
        want = (2.0, 0.0) if op.expect["task"] == 1 else (1.0, 1.0)
        got = (r["rec_control"], r["rec_net"])
        if not all(_close(g, w, TOL_SPECTRAL) for g, w in zip(got, want)):
            failures.append(f"control coherence {r['rec_control']}/{r['rec_net']} != {want}")
        try:
            text = (op.expect["out"] / "transcript.json").read_text(encoding="utf-8")
            transcript = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"transcript unreadable: {exc}")
        else:
            for m in transcript:
                if {m["sender"], m["receiver"]} == {"alice", "bob"}:
                    failures.append(f"server-to-server message at index {m['index']}")
        return failures


# ---------------------------------------------------------------------------
# verify: seeded sweeps of three suites


_SUMMARY = re.compile(r"^(\S+): (PASS|FAIL), (\d+) instances")


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


class VerifyWorkload(Workload):
    """Fourteen sweeps per pass, each ``verify thm4``, ``lemma1`` and
    ``isomorphism`` at one seed.  thm4 and lemma1 run at ensemble size 0.04
    (60 and 44 instances); isomorphism runs one instance (ensemble size 0.01)
    because its cost follows the dimension netcoh draws, 4 ms at d = 2 to
    ~120 ms at d = 8, and with more of them the pass time follows the seed."""

    name = "verify"
    N_OPS = 14
    SCALES = {"thm4": 0.04, "lemma1": 0.04, "isomorphism": 0.01}

    def requested(self) -> dict[str, int]:
        s = self.SCALES
        return {
            "thm4": sum(_scaled(n, s["thm4"]) for n in (1000, 100, 200, 200)),
            # lemma1 always adds its four canonical pass/fail channels.
            "lemma1": _scaled(1000, s["lemma1"]) + 4,
            "isomorphism": _scaled(100, s["isomorphism"]),
        }

    def build(self) -> list[Op]:
        ops = []
        for _ in range(self.N_OPS):
            seed = str(int(self.gen.integers(1, 2**31)))
            argvs = [
                ["verify", suite, "--seed", seed, "--ensemble-size", str(scale)]
                for suite, scale in self.SCALES.items()
            ]
            ops.append(Op("sweep", argvs, {"requested": self.requested()}))
        return ops

    def check(self, op: Op, result) -> list[str]:
        failures = []
        for suite, (code, out, _err) in zip(self.SCALES, result):
            if code != 0:
                failures.append(f"verify {suite} exit code {code}")
            m = _SUMMARY.match(out)
            if not m or m.group(1) != suite:
                failures.append(f"verify {suite}: no summary line in {out[:80]!r}")
                continue
            want = op.expect["requested"][suite]
            if m.group(2) != "PASS" or int(m.group(3)) != want:
                failures.append(f"verify {suite}: {m.group(0)!r}, {want} instances requested")
        return failures


WORKLOADS = {
    w.name: w for w in (CoherenceWorkload, ClassifyWorkload, ProtocolWorkload, VerifyWorkload)
}
