"""Which netcoh modules each entry point loads, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import two_control_mixture
from netcoh.linalg import matrix_to_json

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules no coherence report needs.
UNUSED_BY_COHERENCE = {
    "netcoh.classify",
    "netcoh.incoherent_ops",
    "netcoh.ndqc2",
    "netcoh.verify",
    "multiprocessing",
}


def loaded_after(code: str, **env) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a new interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def netcoh_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "netcoh"}


def run_cli(argv: list[str], **env) -> set[str]:
    return loaded_after(f"from netcoh.cli import main\nassert main({argv!r}) == 0", **env)


def test_cli_import_loads_only_what_parsing_needs():
    assert netcoh_modules(loaded_after("import netcoh.cli")) == {
        "netcoh",
        "netcoh.cli",
        "netcoh.coherence",
        "netcoh.linalg",
        "netcoh.reporting",
        "netcoh.rng",
    }


def test_coherence_run_loads_no_other_command(tmp_path):
    state = tmp_path / "control.json"
    state.write_text(json.dumps(dict(matrix_to_json(two_control_mixture().matrix), dims=[2, 2])))
    assert run_cli(["coherence", str(state)]) & UNUSED_BY_COHERENCE == set()


def test_one_worker_sweep_loads_neither_protocol_nor_pool():
    loaded = run_cli(["verify", "thm4", "--ensemble-size", "0.01"], NETCOH_WORKERS="1")
    assert "netcoh.verify" in loaded
    assert loaded & {"netcoh.ndqc2", "multiprocessing"} == set()


def test_package_import_loads_no_submodule():
    assert netcoh_modules(loaded_after("import netcoh")) == {"netcoh"}


def test_reading_an_export_loads_its_submodule():
    loaded = loaded_after(
        "import netcoh, sys\n"
        "channel = netcoh.KrausChannel\n"
        "assert channel is sys.modules['netcoh.incoherent_ops'].KrausChannel"
    )
    assert "netcoh.incoherent_ops" in loaded
    assert loaded & {"netcoh.classify", "netcoh.ndqc2", "netcoh.verify", "netcoh.cli"} == set()


def test_unknown_attribute_and_dir():
    import netcoh

    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        netcoh.no_such_export
    assert set(netcoh.__all__) <= set(dir(netcoh))
