import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import bell_state, cc_state, two_control_mixture
from netcoh.cli import main, worker_count
from netcoh.linalg import matrix_to_json
from netcoh.reporting import canonical_dumps


def write_state(path, rho, dims=None):
    obj = matrix_to_json(rho.matrix if hasattr(rho, "matrix") else rho)
    if dims is not None:
        obj["dims"] = list(dims)
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def control_state_file(tmp_path):
    return write_state(tmp_path / "control.json", two_control_mixture(), (2, 2))


@pytest.fixture
def descriptor_file(tmp_path):
    desc = {
        "task": 2,
        "shots": 4000,
        "seed": 42,
        "unitary_a": matrix_to_json(np.eye(2, dtype=complex)),
        "unitary_b": {"qubits": 1, "gates": [{"name": "T", "targets": [0]}]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(desc))
    return str(path)


class TestCoherenceCommand:
    def test_correlated_control_report(self, control_state_file, capsys):
        assert main(["coherence", control_state_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rec_net"] == 1.0

    def test_product_state_report(self, tmp_path, capsys):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
        path = write_state(tmp_path / "prod.json", rho, (2, 2))
        assert main(["coherence", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["rec_net"]) <= 1e-9

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["coherence", str(bad)]) == 2

    def test_invalid_state_exits_3(self, tmp_path):
        path = write_state(tmp_path / "bad_state.json", np.eye(4, dtype=complex), (2, 2))
        assert main(["coherence", str(path)]) == 3

    def test_nan_state_exits_3(self, tmp_path):
        rho = np.diag([np.nan, 0.25, 0.25, 0.25]).astype(complex)
        path = write_state(tmp_path / "nan_state.json", rho, (2, 2))
        assert main(["coherence", path]) == 3

    def test_infinite_entry_exits_3_naming_it(self, tmp_path, capsys):
        path = tmp_path / "inf_state.json"
        path.write_text('{"dim": 1, "entries": [[Infinity, 0]], "dims": [1, 1]}')
        assert main(["coherence", str(path)]) == 3
        assert "non-finite entry rho[0, 0]" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [True, "1", 1.9, 1.0])
    def test_non_integer_dim_exits_2(self, tmp_path, capsys, dim):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": dim, "entries": [[1, 0]], "dims": [1, 1]}))
        assert main(["coherence", str(path)]) == 2
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [["a", 0], [1.0], [1.0, 0.0, 0.0], 5, None, [True, 0], [[1], 0]]
    )
    def test_non_numeric_or_non_pair_entry_exits_2(self, tmp_path, capsys, entry):
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps({"dim": 1, "entries": [entry]}))
        assert main(["coherence", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed matrix" in err and "Traceback" not in err

    @pytest.mark.parametrize("dims", [5, [None], [2.0, 2], ["2", 2], [True, 2], [2**62 + 1, 4]])
    def test_bad_dims_exit_2(self, tmp_path, capsys, dims):
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps(dict(matrix_to_json(np.eye(4) / 4), dims=dims)))
        assert main(["coherence", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dims" in err and "Traceback" not in err

    def test_cut_and_basis_flags(self, tmp_path, capsys):
        path = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        basis = {"local_bases": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(2))]}
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis))
        assert main(["coherence", path, "--cut", "0|1", "--basis", str(basis_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rec_net"] == 1.0

    def test_bad_cut_spec(self, tmp_path):
        path = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        assert main(["coherence", path, "--cut", "nonsense"]) == 2


class TestClassifyCommand:
    def test_bell_state_verdict(self, tmp_path, capsys):
        path = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        assert main(["classify", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_ppt"] is False
        assert payload["quantum_correlated"] is True

    def test_correlated_control_verdict(self, control_state_file, capsys):
        assert main(["classify", control_state_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_cc"] is True
        assert payload["rec_net_in_basis"] == 1.0

    def test_maximally_mixed_verdict(self, tmp_path, capsys):
        path = write_state(tmp_path / "mixed.json", np.eye(4, dtype=complex) / 4, (2, 2))
        assert main(["classify", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_product"] and payload["is_cc"]
        assert not payload["quantum_correlated"]

    def test_dims_default_to_qubit_factorization(self, tmp_path, capsys):
        path = write_state(tmp_path / "nodims.json", two_control_mixture())
        assert main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["is_cc"] is True

    def test_unsupported_dims_exit_2(self, tmp_path):
        path = write_state(tmp_path / "big.json", np.eye(8, dtype=complex) / 8, (2, 4))
        assert main(["classify", path]) == 2


class TestNdqc2Command:
    def test_runs_and_writes_reports(self, descriptor_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ndqc2", descriptor_file, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == 2 and report["seed"] == 42
        transcript = json.loads((out / "transcript.json").read_text())
        assert len(transcript) == 6
        assert not any(
            {m["sender"], m["receiver"]} == {"alice", "bob"} for m in transcript
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42 and descriptor_file in manifest["inputs"]

    def test_seed_reuse_is_byte_identical(self, descriptor_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["ndqc2", descriptor_file, "--out", str(out1)]) == 0
        assert main(["ndqc2", descriptor_file, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "transcript.json").read_bytes() == (out2 / "transcript.json").read_bytes()

    def test_injected_violation_exits_4(self, tmp_path):
        desc = {
            "task": 2,
            "shots": 100,
            "seed": 1,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": matrix_to_json(np.eye(2)),
            "inject_violation": "alice_to_bob",
        }
        path = tmp_path / "bad_run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 4

    def test_malformed_descriptor_exits_2(self, tmp_path):
        path = tmp_path / "desc.json"
        path.write_text(json.dumps({"task": 2}))
        assert main(["ndqc2", str(path)]) == 2

    def test_bad_signs_exit_2(self, tmp_path, capsys):
        desc = {
            "task": 1,
            "shots": 100,
            "seed": 1,
            "signs": [2, 1],
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": matrix_to_json(np.eye(2)),
        }
        path = tmp_path / "bad_signs.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        err = capsys.readouterr().err
        assert "signs" in err and "Traceback" not in err

    @pytest.mark.parametrize("qubits", [1.9, True, "1", 1.0])
    def test_non_integer_qubits_exit_2(self, tmp_path, capsys, qubits):
        desc = {
            "task": 2,
            "shots": 100,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": {"qubits": qubits, "gates": [{"name": "T", "targets": [0]}]},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        assert "qubits must be an integer" in capsys.readouterr().err

    def test_unitary_file_reference(self, tmp_path, capsys):
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(matrix_to_json(np.eye(2, dtype=complex))))
        desc = {
            "task": 1,
            "shots": 400,
            "seed": 5,
            "unitary_a": "u.json",
            "unitary_b": "u.json",
        }
        dpath = tmp_path / "run.json"
        dpath.write_text(json.dumps(desc))
        assert main(["ndqc2", str(dpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rec_control"] == 2.0


class TestVerifyCommand:
    def test_small_suite_passes_with_csv(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(
            [
                "verify",
                "lemma1",
                "--ensemble-size",
                "0.05",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert code == 0
        text = (out / "lemma1.csv").read_text()
        assert text.splitlines()[0] == "family,incoherent,index,strict"

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "not-a-suite"]) == 2

    def test_json_rows_export(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "isomorphism", "--ensemble-size", "0.05", "--out", str(out)]) == 0
        payload = json.loads((out / "isomorphism.json").read_text())
        assert payload["passed"] is True and payload["rows"]

    def test_out_writes_manifest(self, tmp_path):
        out = tmp_path / "verify"
        argv = ["verify", "lemma1", "--ensemble-size", "0.01", "--seed", "7", "--out", str(out)]
        assert main(argv + ["--format", "csv"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["inputs"] == {}
        assert manifest["tool_version"] and manifest["duration_seconds"] >= 0
        assert sorted(p.name for p in out.iterdir()) == ["lemma1.csv", "manifest.json"]

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5", ""])
    def test_bad_worker_count_exits_2(self, monkeypatch, capsys, value):
        # Rejected before the suite runs, so no worker pool is ever started.
        monkeypatch.setenv("NETCOH_WORKERS", value)
        assert main(["verify", "thm4", "--ensemble-size", "0.04"]) == 2
        assert "NETCOH_WORKERS" in capsys.readouterr().err

    def test_worker_count_is_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert worker_count(None) == 1
        assert worker_count("1") == 1
        assert worker_count("2") == 2
        assert worker_count("10000") == 2

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        monkeypatch.setenv("NETCOH_WORKERS", "1")
        assert main(["verify", "thm4", "--ensemble-size", "0.04", "--out", str(out1)]) == 0
        monkeypatch.setenv("NETCOH_WORKERS", "2")
        assert main(["verify", "thm4", "--ensemble-size", "0.04", "--out", str(out2)]) == 0
        assert (out1 / "thm4.json").read_bytes() == (out2 / "thm4.json").read_bytes()


def _golden_mixed_state(d: int) -> np.ndarray:
    """Full-rank mixed state G G^dag / Tr, G_jk = cos(j + 2k) + i sin(3j - k)."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    g = np.cos(j + 2 * k) + 1j * np.sin(3 * j - k)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _golden_cc_state() -> np.ndarray:
    """Classical-classical state in a real rotated basis (A) and a complex one (B)."""
    c, s = np.cos(0.3), np.sin(0.3)
    basis_a = np.array([[c, -s], [s, c]], dtype=complex)
    basis_b = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    probs = np.array([[0.4, 0.1], [0.2, 0.3]])
    return cc_state(probs, basis_a, basis_b).matrix


GOLDEN_RUN = {
    "task": 1,
    "shots": 4000,
    "seed": 42,
    "signs": [1, -1],
    "unitary_a": {
        "qubits": 2,
        "gates": [
            {"name": "H", "targets": [0]},
            {"name": "CNOT", "targets": [0, 1]},
            {"name": "T", "targets": [1]},
        ],
    },
    "unitary_b": {"qubits": 1, "gates": [{"name": "S", "targets": [0]}]},
}

GOLDEN_COHERENCE_2X2 = (
    '{"mutual_info":0.592138777669,"mutual_info_dephased":0.00837788058476,'
    '"rec_global":0.605684126575,"rec_local":[0.0112053593998,0.0107178700914],'
    '"rec_net":0.583760897084}'
)

GOLDEN_COHERENCE_5Q = (
    '{"mutual_info":1.35501236182,"mutual_info_dephased":9.72507649504e-05,'
    '"rec_global":3.017342808,"rec_local":[0.613088514048,1.0493391829],'
    '"rec_net":1.35491511105}'
)

GOLDEN_CLASSIFY_CC = (
    '{"discord_a_to_b":0.0,"discord_b_to_a":0.0,"is_cc":true,"is_ppt":true,'
    '"is_product":false,"is_qc_a_to_b":true,"is_qc_b_to_a":true,'
    '"quantum_correlated":true,"rec_net_in_basis":0.124511249784,'
    '"witness_basis":[{"dim":2,"entries":[[0.2955202065641234,0.0],'
    '[0.9553364891556785,0.0],[-0.9553364891556785,0.0],[0.2955202065641234,0.0]]},'
    '{"dim":2,"entries":[[-0.7071067811865475,0.0],[-0.7071067811865475,0.0],[0.0,'
    '0.7071067811865475],[0.0,-0.7071067811865475]]}]}'
)

GOLDEN_NDQC2 = (
    '{"bp_predicted":0.5,"iota_est":{"im":0.191288,"re":0.058736},'
    '"iota_exact":{"im":0.213388347648,"re":0.0883883476483},"rec_control":2.0,'
    '"rec_net":0.0,"se_empirical":0.037171119706,"se_predicted":0.0205952234334,'
    '"seed":42,"shots":4000,"task":1}'
)


class TestGoldenBytes:
    """Exact stdout bytes for fixed inputs: any change to a report's digits,
    key order or witness basis shows here.  The witness basis holds LAPACK
    eigenvectors, so its bytes are pinned for this numpy/LAPACK build."""

    def test_two_qubit_coherence(self, tmp_path, capsys):
        path = write_state(tmp_path / "two.json", _golden_mixed_state(4), (2, 2))
        assert main(["coherence", path]) == 0
        assert capsys.readouterr().out == GOLDEN_COHERENCE_2X2 + "\n"

    def test_five_qubit_coherence(self, tmp_path, capsys):
        path = write_state(tmp_path / "five.json", _golden_mixed_state(32), (2,) * 5)
        assert main(["coherence", path, "--cut", "0,3|1,2,4"]) == 0
        assert capsys.readouterr().out == GOLDEN_COHERENCE_5Q + "\n"

    def test_cc_classify_verdict(self, tmp_path, capsys):
        path = write_state(tmp_path / "cc.json", _golden_cc_state(), (2, 2))
        assert main(["classify", path, "--seed", "7"]) == 0
        assert capsys.readouterr().out == GOLDEN_CLASSIFY_CC + "\n"

    def test_ndqc2_report(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(GOLDEN_RUN))
        assert main(["ndqc2", str(path)]) == 0
        assert capsys.readouterr().out == GOLDEN_NDQC2 + "\n"


class TestDeterminism:
    def test_repeated_reports_identical(self, control_state_file, capsys):
        main(["coherence", control_state_file])
        first = capsys.readouterr().out
        main(["coherence", control_state_file])
        second = capsys.readouterr().out
        assert first == second

    def test_canonical_dumps_sorts_keys(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "netcoh.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "netcoh" in proc.stdout
