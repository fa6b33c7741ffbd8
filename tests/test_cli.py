import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import bell_state, cc_state, two_control_mixture, werner
from netcoh import verify
from netcoh.cli import main, worker_count
from netcoh.linalg import MAX_GATE_QUBITS, matrix_to_json, random_density_matrix
from netcoh.ndqc2 import MAX_SHOTS
from netcoh.reporting import canonical_dumps
from netcoh.rng import substream
from netcoh.verify import MAX_FAMILY_SIZE, SUITE_NAMES, _families, run_suite


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

    @pytest.mark.parametrize("basis", [{}, {"local_bases": 5}, [1, 2]])
    def test_basis_file_without_local_bases_exits_2(self, tmp_path, capsys, basis):
        path = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis))
        assert main(["coherence", path, "--basis", str(basis_path)]) == 2
        err = capsys.readouterr().err
        assert "malformed basis file" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["coherence", "classify"])
    def test_state_at_the_psd_floor_exits_3(self, tmp_path, capsys, command):
        # The smallest eigenvalue, -0.9e-9, passes the -1e-9 floor of a
        # density matrix, but the net coherence comes out at -2.7e-8.
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho[1, 2] = rho[2, 1] = 0.9e-9
        path = write_state(tmp_path / "floor.json", rho)
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input state: net coherence")

    @pytest.mark.parametrize("command", ["coherence", "classify"])
    def test_non_power_of_two_state_without_dims_exits_2(self, tmp_path, capsys, command):
        # Without "dims", d = 6 is one subsystem: there is no cut to report.
        path = write_state(tmp_path / "six.json", np.eye(6, dtype=complex) / 6)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


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

    @pytest.mark.parametrize("dims", [(3, 3), (2, 4)])
    def test_unsupported_dims_exit_before_the_discord_search(
        self, tmp_path, capsys, monkeypatch, dims
    ):
        import netcoh.classify as classify_mod

        searched = []
        monkeypatch.setattr(classify_mod, "minimize_discord_pair", lambda *a, **k: searched.append(a))
        rho = random_density_matrix(dims, substream(38, *dims))
        path = write_state(tmp_path / "state.json", rho, dims)
        assert main(["classify", path]) == 2
        assert "PPT separability is decided only" in capsys.readouterr().err
        assert searched == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-12", "tiny"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, value):
        # A NaN threshold once passed every "discord > threshold" test, so a
        # rotated CC state came out with is_cc true and is_qc_a_to_b false.
        path = write_state(tmp_path / "cc.json", _golden_cc_state(), (2, 2))
        assert main(["classify", path, f"--tolerance={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tolerance" in captured.err

    def test_zero_tolerance_is_accepted(self, control_state_file, capsys):
        assert main(["classify", control_state_file, "--tolerance", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_qc_a_to_b"] is payload["is_qc_b_to_a"] is True


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

    @pytest.mark.parametrize(
        "mode, code, message",
        [
            ("alice_to_bob", 4, "index 4: alice may not send 'statistics' to bob"),
            ("bob_to_alice", 4, "index 4: bob may not send 'statistics' to alice"),
            ("server_state", 4, "index 4: alice may not send 'state' to charlie"),
            ("teleport", 2, "unknown injection mode 'teleport'"),
            (["alice_to_bob"], 2, "unknown injection mode ['alice_to_bob']"),
            ({"mode": 1}, 2, "unknown injection mode {'mode': 1}"),
        ],
    )
    def test_injection_modes(self, tmp_path, capsys, mode, code, message):
        # Each forged message follows Charlie's four, at transcript index 4.
        desc = {
            "task": 2,
            "shots": 16,
            "seed": 1,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": matrix_to_json(np.eye(2)),
            "inject_violation": mode,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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

    @pytest.mark.parametrize("value", [True, "4000", 4000.9, 1.5, 0.7, 1.0])
    @pytest.mark.parametrize("field", ["task", "shots", "seed", "signs", "targets"])
    def test_non_integer_descriptor_entries_exit_2(self, tmp_path, capsys, field, value):
        desc = {
            "task": 1,
            "shots": 100,
            "seed": 1,
            "signs": [1, -1],
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": {"qubits": 1, "gates": [{"name": "T", "targets": [0]}]},
        }
        if field == "signs":
            desc["signs"] = [value, 1]
        elif field == "targets":
            desc["unitary_b"]["gates"][0]["targets"] = [value]
        else:
            desc[field] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        err = capsys.readouterr().err
        name = {"targets": "gate target", "signs": "signs entry"}.get(field, field)
        assert f"{name} must be an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**13])
    def test_oversized_shots_exit_2(self, tmp_path, capsys, shots):
        # Rejected before any outcome array is allocated.
        desc = {
            "task": 2,
            "shots": shots,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": matrix_to_json(np.eye(2)),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"shots must be at most {MAX_SHOTS}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("qubits", [MAX_GATE_QUBITS + 1, 20])
    def test_oversized_gate_network_exits_2(self, tmp_path, capsys, qubits):
        # Rejected before the 2**qubits-dimensional unitary is compiled.
        desc = {
            "task": 2,
            "shots": 100,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": {"qubits": qubits, "gates": [{"name": "T", "targets": [0]}]},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"qubit_count must be at most {MAX_GATE_QUBITS}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_numeric_unitary_entry_exits_2(self, tmp_path, capsys):
        desc = {"task": 2, "shots": 100, "unitary_a": 5, "unitary_b": matrix_to_json(np.eye(2))}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == 2
        captured = capsys.readouterr()
        assert "unitary entry must be a filename or object" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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

    def test_all_suites_in_order(self, capsys):
        assert main(["verify", "all", "--ensemble-size", "0.01", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(SUITE_NAMES)
        assert all(": PASS, " in line for line in lines)

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "not-a-suite"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "-0.0", "1e999", "half"])
    def test_bad_ensemble_size_exits_2(self, capsys, value):
        # Rejected while parsing: no suite runs, and no traceback is printed.
        assert main(["verify", "thm4", f"--ensemble-size={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--ensemble-size" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0, -1.0])
    def test_run_suite_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="ensemble scale"):
            run_suite("privacy", 7, scale)

    def test_huge_ensemble_size_exits_2(self, capsys):
        # Refused before any instance runs; it once ran until killed.
        assert main(["verify", "privacy", "--ensemble-size", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"above {MAX_FAMILY_SIZE} instances" in captured.err
        assert "Traceback" not in captured.err

    def test_se_scaling_ignores_ensemble_size(self, capsys):
        # Its ensemble is fixed (3 shot counts x 6 runs): the option is
        # accepted and does not scale it.
        assert main(["verify", "se-scaling", "--seed", "7"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", "se-scaling", "--ensemble-size", "0.5", "--seed", "7"]) == 0
        assert capsys.readouterr().out == default == "se-scaling: PASS, 4 instances\n"

    def test_family_size_cap_boundary(self):
        assert dict(_families("thm4", 1000.0))["2x2"] == MAX_FAMILY_SIZE
        with pytest.raises(ValueError, match="'2x2' above"):
            _families("thm4", 1000.01)

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

    def test_manifest_names_the_command_main_ran(self, tmp_path, monkeypatch):
        # The host process's argv (pytest's, a bench's) is not the command.
        out = tmp_path / "verify"
        argv = ["verify", "lemma1", "--ensemble-size", "0.001", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["-c", "--host-flag"])
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "netcoh " + " ".join(argv)
        # Without an argument, main runs the command line after the program name.
        monkeypatch.setattr(sys, "argv", ["entry-point", *argv[:-1], str(tmp_path / "again")])
        assert main() == 0
        manifest = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert manifest["command"] == "netcoh " + " ".join([*argv[:-1], str(tmp_path / "again")])

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

    def test_thm4_chunking_does_not_change_results(self, tmp_path, monkeypatch):
        # thm4 stacks a whole chunk into one computation; chunks of 1, of 7
        # and of a whole family give the same bytes.
        argv = ["verify", "thm4", "--ensemble-size", "0.04", "--seed", "7", "--format", "json"]
        reports = []
        for limit in (1, 7, verify.MAX_CHUNK):
            monkeypatch.setattr(verify, "MAX_CHUNK", limit)
            assert main(argv + ["--out", str(tmp_path / str(limit))]) == 0
            reports.append((tmp_path / str(limit) / "thm4.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert hashlib.sha256(reports[0]).hexdigest() == GOLDEN_VERIFY_SHA256["thm4", "0.04"]

    def test_lemma1_chunking_does_not_change_results(self, monkeypatch):
        # lemma1 stacks a whole chunk of channels into one computation;
        # chunks of 1, of 7 and of a whole family, and two workers, give the
        # same rows.
        families = _families("lemma1", 0.04)
        runs = []
        for limit, workers in ((1, 1), (7, 1), (verify.MAX_CHUNK, 1), (verify.MAX_CHUNK, 2)):
            monkeypatch.setattr(verify, "MAX_CHUNK", limit)
            runs.append(canonical_dumps(verify._sweep(verify._lemma1_rows, 7, families, workers)))
        assert runs[1:] == runs[:1] * 3
        assert json.loads(runs[0])[:2] == [
            {"family": "projected", "incoherent": True, "index": 0, "strict": False},
            {"family": "unitary", "incoherent": False, "index": 1, "strict": False},
        ]

    @pytest.mark.parametrize("suite", ["thm5", "thm6"])
    def test_thm5_thm6_chunking_does_not_change_results(self, tmp_path, monkeypatch, suite):
        # Their bases, and thm6's CC states, are drawn a chunk at a time;
        # chunks of 1, of 7 and of a whole family, and two workers, give
        # the same bytes.
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        argv = ["verify", suite, "--ensemble-size", "0.05", "--seed", "7", "--format", "json"]
        reports = []
        plans = ((1, "1"), (7, "1"), (verify.MAX_CHUNK, "1"), (verify.MAX_CHUNK, "2"))
        for limit, workers in plans:
            monkeypatch.setattr(verify, "MAX_CHUNK", limit)
            monkeypatch.setenv("NETCOH_WORKERS", workers)
            out = tmp_path / f"{limit}-{workers}"
            assert main(argv + ["--out", str(out)]) == 0
            reports.append((out / f"{suite}.json").read_bytes())
        assert reports[1:] == reports[:1] * 3
        assert hashlib.sha256(reports[0]).hexdigest() == GOLDEN_VERIFY_SHA256[suite, "0.05"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunk_plan_is_bounded(self, workers):
        # The plan alone: no instance runs, so 10**6 instances cost nothing.
        for count in (1, 7, 40, MAX_FAMILY_SIZE):
            plan = verify._chunk_plan(count, workers)
            assert plan[0][0] == 0 and plan[-1][1] == count
            assert all(hi == lo for (_, hi), (lo, _) in zip(plan, plan[1:]))
            assert all(0 < hi - lo <= verify.MAX_CHUNK for lo, hi in plan)
        assert verify._chunk_plan(40, 1) == [(0, 40)]
        largest = verify._chunk_plan(MAX_FAMILY_SIZE, workers)
        assert len(largest) == MAX_FAMILY_SIZE // verify.MAX_CHUNK
        if workers > 1:
            assert len(verify._chunk_plan(400, workers)) == 4 * workers

    def test_thm4_route_violation_is_a_failure_row(self, tmp_path, monkeypatch, capsys):
        # A route gap over 1e-9 once raised out of the report with no
        # instance named (exit 2); the sweep now records it per row.
        import netcoh.coherence as coherence

        original = coherence.mutual_information_stack
        monkeypatch.setattr(
            coherence, "mutual_information_stack", lambda *args: original(*args) + 2e-9
        )
        assert main(["verify", "thm4", "--ensemble-size", "0.01", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "thm4: FAIL, 15 instances (15 failures)"
        assert lines[1] == "  2x2[0]: route gap 2.000e-09"
        # A one-state report still refuses the disagreement.
        path = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        assert main(["coherence", path]) == 2
        assert "mutual-information route" in capsys.readouterr().err

    def test_thm4_floor_violation_is_a_failure_row(self, monkeypatch, capsys):
        import netcoh.coherence as coherence

        original = coherence.net_global_coherence_stack

        def below_floor(*args):
            figures = original(*args)
            return figures._replace(
                rec_net=figures.rec_net - 1.0,
                mutual_info_dephased=figures.mutual_info_dephased + 1.0,
            )

        monkeypatch.setattr(verify, "net_global_coherence_stack", below_floor)
        assert main(["verify", "thm4", "--ensemble-size", "0.01", "--seed", "7"]) == 1
        failures = capsys.readouterr().out.splitlines()[1:]
        assert failures[0].startswith("  2x2[0]: rec_net -") and failures[0].endswith(" < -1e-9")

    @pytest.mark.parametrize("suite, first", [("thm5", "haar[0]"), ("thm6", "cc[0]")])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_route_violation_is_a_failure_row(
        self, tmp_path, monkeypatch, capsys, suite, first, with_out
    ):
        # thm5's basis-0 cross-check and thm6's CC witness compare both
        # routes themselves: a 2e-9 gap is a failure naming the instance
        # (exit 1), and a written report holds null where the figure was.
        import netcoh.coherence as coherence

        original = coherence.mutual_information_stack
        monkeypatch.setattr(
            coherence, "mutual_information_stack", lambda *args: original(*args) + 2e-9
        )
        argv = ["verify", suite, "--ensemble-size", "0.01", "--seed", "7"]
        if with_out:
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        assert f"  {first}: route cross-check failed" in capsys.readouterr().out.splitlines()
        if with_out:
            payload = json.loads((tmp_path / f"{suite}.json").read_text())
            assert payload["passed"] is False
            assert f"{first}: route cross-check failed" in payload["failures"]
            figure = "rec_net_min" if suite == "thm5" else "rec_net_witness"
            assert payload["rows"][0][figure] is None

    def test_thm5_shortcut_mismatch_is_written_as_null(self, tmp_path, monkeypatch, capsys):
        # Only the sweep shortcut moves: the full figures of basis 0 no
        # longer match it, and the report still writes and exits 1.
        original = verify.dephased_mutual_information_stack
        monkeypatch.setattr(
            verify, "dephased_mutual_information_stack", lambda *args: original(*args) + 2e-9
        )
        argv = ["verify", "thm5", "--ensemble-size", "0.01", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "  haar[0]: route cross-check failed" in capsys.readouterr().out.splitlines()
        row = json.loads((tmp_path / "thm5.json").read_text())["rows"][0]
        assert row["rec_net_min"] is None and row["rec_net_max"] is None

    def test_thm5_floor_violation_is_a_failure_row(self, monkeypatch, capsys):
        original = verify._nets_in_random_bases

        def below_floor(*args):
            nets, bases = original(*args)
            nets[1:] -= 1.0  # basis 0 still matches its full figures
            return nets, bases

        monkeypatch.setattr(verify, "_nets_in_random_bases", below_floor)
        assert main(["verify", "thm5", "--ensemble-size", "0.01", "--seed", "7"]) == 1
        failures = capsys.readouterr().out.splitlines()[1:]
        assert failures[0].startswith("  haar[0]: rec_net -") and failures[0].endswith(" < -1e-9")

    def test_thm6_witness_floor_violation_is_a_failure_row(self, monkeypatch, capsys):
        original = verify.net_global_coherence_stack

        def below_floor(*args):
            figures = original(*args)
            return figures._replace(
                rec_net=figures.rec_net - 1.0,
                mutual_info_dephased=figures.mutual_info_dephased + 1.0,
            )

        monkeypatch.setattr(verify, "net_global_coherence_stack", below_floor)
        assert main(["verify", "thm6", "--ensemble-size", "0.01", "--seed", "7"]) == 1
        failures = capsys.readouterr().out.splitlines()[1:]
        assert failures[0].startswith("  cc[0]: witness rec_net -")
        assert failures[0].endswith(" < -1e-9")

    def test_thm6_rejection_failure_is_a_failure_row(self, tmp_path, monkeypatch, capsys):
        # 51 draws with no discordant state once raised RuntimeError, which
        # the CLI printed as a traceback; now it fails its row (exit 1).
        from netcoh.coherence import ProductBasis

        basis = ProductBasis.computational((2, 2))
        def no_discord(rho):
            return (0.0, basis), (0.0, basis)

        monkeypatch.setattr(verify, "minimize_discord_pair", no_discord)
        argv = ["verify", "thm6", "--ensemble-size", "0.01", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("thm6: FAIL, 4 instances")
        assert "  discordant[0]: no discordant state in 51 draws" in lines
        assert "  discordant[1]: no discordant state in 51 draws" in lines
        rows = json.loads((tmp_path / "thm6.json").read_text())["rows"]
        assert [row["rec_net_min"] for row in rows if row["kind"] == "discordant"] == [None, None]

    def test_non_strict_embedding_is_a_failure_row(self, tmp_path, monkeypatch, capsys):
        # The round trip once ran extract_classical after the strictness
        # test, and its ValueError exited 2 before the suite could report
        # the channel; now the failure is the row's (exit 1).
        import netcoh.incoherent_ops as iops

        def fourier(g, basis):
            d = g.dim
            f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
            return iops.KrausChannel.unitary(basis.matrix @ f @ basis.matrix.conj().T)

        monkeypatch.setattr(iops, "embed_classical", fourier)
        argv = ["verify", "isomorphism", "--ensemble-size", "0.02", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "isomorphism: FAIL, 2 instances (4 failures)"
        assert lines[1] == "  iso[0]: embedded channel not strict"
        assert lines[2].startswith("  iso[0]: action err ")
        rows = json.loads((tmp_path / "isomorphism.json").read_text())["rows"]
        assert [(row["strict"], row["round_trip_err"]) for row in rows] == [(False, None)] * 2

    def test_sweeps_draw_bases_only_through_the_stacked_sampler(self, monkeypatch):
        # Every product basis of these sweeps comes from
        # coherence.haar_product_bases, which calls no haar_unitary.
        import netcoh.coherence as coherence
        import netcoh.rng as rng

        calls = []
        for module in (rng, coherence, verify):
            original = module.haar_unitary
            monkeypatch.setattr(
                module,
                "haar_unitary",
                lambda dim, gen, original=original: calls.append(dim) or original(dim, gen),
            )
        for suite in ("thm4", "thm5", "thm6", "lemma1", "isomorphism"):
            assert run_suite(suite, 7, 0.01)[0].passed
        assert calls == []


def test_options_are_refused_where_unread(tmp_path, capsys, control_state_file):
    # Only classify reads --tolerance and only verify reads --format; the
    # other commands once accepted both and ignored them.
    desc = tmp_path / "run.json"
    eye = matrix_to_json(np.eye(2))
    desc.write_text(json.dumps({"task": 2, "shots": 400, "unitary_a": eye, "unitary_b": eye}))
    assert main(["coherence", control_state_file]) == 0
    assert main(["ndqc2", str(desc)]) == 0
    capsys.readouterr()
    assert main(["coherence", control_state_file, "--tolerance", "0"]) == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
    assert main(["ndqc2", str(desc), "--format", "csv"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


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


def _golden_werner_state() -> np.ndarray:
    """Werner state p = 0.6 under the local rotations of ``_golden_cc_state``:
    discordant both ways, so both directions reach the Bloch search."""
    c, s = np.cos(0.3), np.sin(0.3)
    basis_a = np.array([[c, -s], [s, c]], dtype=complex)
    basis_b = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    local = np.kron(basis_a, basis_b)
    return local @ werner(0.6).matrix @ local.conj().T


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

GOLDEN_RUN_TASK2 = {
    "task": 2,
    "shots": 4003,
    "seed": 17,
    "unitary_a": {
        "qubits": 2,
        "gates": [
            {"name": "H", "targets": [0]},
            {"name": "T", "targets": [1]},
            {"name": "CNOT", "targets": [0, 1]},
        ],
    },
    "unitary_b": {"qubits": 1, "gates": [{"name": "T", "targets": [0]}]},
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
    '"witness_basis":[{"dim":2,"entries":[[-0.9553364891256061,0.0],'
    '[0.2955202066613396,0.0],[-0.2955202066613396,-3.204752495814957e-17],'
    '[-0.9553364891256061,-1.0360093587024787e-16]]},'
    '{"dim":2,"entries":[[-0.7071067811865475,0.0],[-0.7071067811865475,0.0],[0.0,'
    '0.7071067811865475],[0.0,-0.7071067811865475]]}]}'
)

GOLDEN_CLASSIFY_WERNER = (
    '{"discord_a_to_b":0.36514844544,"discord_b_to_a":0.36514844544,"is_cc":false,'
    '"is_ppt":false,"is_product":false,"is_qc_a_to_b":false,"is_qc_b_to_a":false,'
    '"quantum_correlated":true,"rec_net_in_basis":0.643220350553,"witness_basis":null}'
)

GOLDEN_NDQC2 = (
    '{"bp_predicted":0.5,"iota_est":{"im":0.191288,"re":0.058736},'
    '"iota_exact":{"im":0.213388347648,"re":0.0883883476483},"rec_control":2.0,'
    '"rec_net":0.0,"se_empirical":0.037171119706,"se_predicted":0.0205952234334,'
    '"seed":42,"shots":4000,"task":1}'
)

GOLDEN_NDQC2_TASK2 = (
    '{"bp_predicted":-4.80513975572e-16,"iota_est":{"im":0.168905094905,"re":0.197802197802},'
    '"iota_exact":{"im":0.213388347648,"re":0.213388347648},"rec_control":1.0,"rec_net":1.0,'
    '"se_empirical":0.0625682692044,"se_predicted":0.0275566431638,"seed":17,"shots":4003,'
    '"task":2}'
)
GOLDEN_TRANSCRIPT_TASK2_SHA256 = "dcd4ea21173e8dd683a1f7b17e1bee9567035a34b48c26971a577c6b5eca787c"


# SHA-256 of the ``--format json --out`` report of each verify sweep at seed 7.
GOLDEN_VERIFY_SHA256 = {
    ("lemma1", "0.1"): "78aac2f47286620308d8d6581dea384b6b1bffca207c3c0914f2f4ca5c4cb916",
    ("lemma1", "1"): "6e54f8dcfcb135e059bfed04727b6a4fe0da4e899f002dd88fcbeb28954b0d15",
    ("isomorphism", "0.2"): "1579ae4c1d7e6c54b25deb22d45d0e1cd370572e685bbea8bc677b133762d9f2",
    ("thm6", "0.05"): "90eff1c76851d8fc60726f0e160f94789d7dd0b15f590b012e1b92a3c85dbd60",
    ("thm4", "0.04"): "cb79e033c622a0595bda3fe29cf3a551b25791f7e77d6ca145d45c54580c1490",
    ("thm5", "0.05"): "6bab39ad9a22d6b666ca50605e007a681656911bb2c520cf60fd8fd4f1b15a3e",
    ("thm5", "0.25"): "c80fa45a9f02507f486de1a35949c40a635ccdb6c98e400c04ac3c30aad14077",
    ("thm6", "0.25"): "4fa066b19274abb1b4c05291ad629889ac6bbb220135132c6adbad6f492f50bc",
}


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

    def test_discordant_classify_verdict(self, tmp_path, capsys):
        path = write_state(tmp_path / "werner.json", _golden_werner_state(), (2, 2))
        assert main(["classify", path, "--seed", "7"]) == 0
        assert capsys.readouterr().out == GOLDEN_CLASSIFY_WERNER + "\n"

    def test_ndqc2_report(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(GOLDEN_RUN))
        assert main(["ndqc2", str(path)]) == 0
        assert capsys.readouterr().out == GOLDEN_NDQC2 + "\n"

    def test_ndqc2_task2_report_and_transcript(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(GOLDEN_RUN_TASK2))
        assert main(["ndqc2", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == GOLDEN_NDQC2_TASK2 + "\n"
        transcript = (tmp_path / "out" / "transcript.json").read_bytes()
        assert hashlib.sha256(transcript).hexdigest() == GOLDEN_TRANSCRIPT_TASK2_SHA256

    @pytest.mark.parametrize("suite, size", sorted(GOLDEN_VERIFY_SHA256))
    def test_verify_report(self, tmp_path, suite, size):
        argv = ["verify", suite, "--ensemble-size", size, "--seed", "7"]
        assert main(argv + ["--format", "json", "--out", str(tmp_path)]) == 0
        report = (tmp_path / f"{suite}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == GOLDEN_VERIFY_SHA256[suite, size]


class TestDeterminism:
    def test_repeated_reports_identical(self, control_state_file, capsys):
        main(["coherence", control_state_file])
        first = capsys.readouterr().out
        main(["coherence", control_state_file])
        second = capsys.readouterr().out
        assert first == second

    def test_one_process_matches_one_call_per_process(self, tmp_path, capsys):
        # main reuses one parser per process; a call must not see the last one.
        state = write_state(tmp_path / "bell.json", bell_state(), (2, 2))
        calls = [
            ["coherence", state],
            ["coherence", state, "--no-such-flag"],
            ["classify", state, "--seed", "3"],
            ["verify", "lemma1", "--ensemble-size", "0.01", "--seed", "5"],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        one_per_process = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "netcoh.cli", *argv], capture_output=True, text=True
            )
            one_per_process.append((proc.returncode, proc.stdout))
        assert [code for code, _ in in_process] == [0, 2, 0, 0]
        assert in_process == one_per_process

    def test_canonical_dumps_sorts_keys(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "netcoh.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "netcoh" in proc.stdout


class TestOutWriteFailures:
    """An ``--out`` directory that cannot be made or written exits 2 naming it."""

    def _assert_exit_2(self, argv, out, capsys):
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot write reports to --out {out}" in err
        assert "Traceback" not in err

    def test_out_is_the_input_file(self, control_state_file, capsys):
        self._assert_exit_2(["coherence", control_state_file], control_state_file, capsys)

    def test_out_below_a_file(self, control_state_file, capsys):
        out = control_state_file + "/sub"
        self._assert_exit_2(["coherence", control_state_file], out, capsys)

    def test_verify_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        self._assert_exit_2(["verify", "thm4", "--ensemble-size", "0.01"], str(out), capsys)


class TestSeedRange:
    """Seeds are in [0, 2^64): a Philox key word holds no more, so a larger
    or negative seed would alias an in-range one."""

    @pytest.mark.parametrize("seed", ["-1", "0x10000000000000007", str(2**64)])
    def test_out_of_range_flag_exits_2(self, control_state_file, capsys, seed):
        assert main(["classify", control_state_file, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be in [0, 2^64), got {seed!r}" in err

    def test_malformed_flag_names_the_argument(self, control_state_file, capsys):
        assert main(["coherence", control_state_file, "--seed", "seven"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected an integer, got 'seven'" in err
        assert "lambda" not in err

    def test_range_ends_parse(self, control_state_file, capsys):
        for seed in ("0", "0xFFFFFFFFFFFFFFFF"):
            assert main(["classify", control_state_file, "--seed", seed]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
    def test_descriptor_seed_range(self, tmp_path, capsys, seed, code):
        desc = {
            "task": 1,
            "shots": 100,
            "seed": seed,
            "unitary_a": matrix_to_json(np.eye(2)),
            "unitary_b": matrix_to_json(np.eye(2)),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(desc))
        assert main(["ndqc2", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert f"seed must be in [0, 2^64), got {seed}" in captured.err
        else:
            assert json.loads(captured.out)["seed"] == seed


def test_manifest_duration_ignores_wall_clock_steps(tmp_path, monkeypatch, capsys):
    # A wall clock stepped back mid-run must not give a negative duration.
    import time

    steps = iter(range(10**6, 0, -1000))
    monkeypatch.setattr(time, "time", lambda: float(next(steps)))
    out = tmp_path / "verify"
    argv = ["verify", "lemma1", "--ensemble-size", "0.001", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["duration_seconds"] >= 0
    capsys.readouterr()
