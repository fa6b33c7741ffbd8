"""netcoh: coherence measures, incoherent channels, correlation classification,
and a three-party distributed trace-estimation simulator.

Exports load on first use (PEP 562): ``import netcoh`` imports no submodule,
and reading a name in ``__all__`` imports the one submodule that defines it.
So ``netcoh.cli`` loads a command's modules only when that command runs.
"""

import importlib

__version__ = "0.1.0"

# Each export and the submodule that defines it.  The hierarchy-verdict entry
# point lives at netcoh.classify.classify; the bare function is not
# re-exported here so the submodule name stays usable.
_EXPORTS = {
    **dict.fromkeys(
        (
            "DensityMatrix",
            "GateNetwork",
            "compile_gate_network",
            "hermitian_eig",
            "partial_trace",
            "partial_transpose",
            "tensor",
            "unitary_eig",
        ),
        "linalg",
    ),
    **dict.fromkeys(
        (
            "A_TO_B",
            "B_TO_A",
            "CoherenceReport",
            "ProductBasis",
            "basis_dependent_discord",
            "dephase",
            "minimize_discord",
            "minimize_discord_pair",
            "mutual_information",
            "net_global_coherence",
            "rec",
            "von_neumann_entropy",
        ),
        "coherence",
    ),
    **dict.fromkeys(("CorrelationVerdict", "is_cc", "ppt_separability"), "classify"),
    **dict.fromkeys(
        (
            "KrausChannel",
            "apply_channel",
            "embed_classical",
            "extract_classical",
            "is_incoherent",
            "is_strict_incoherent",
            "sandwich_dephase",
            "usi_generators",
        ),
        "incoherent_ops",
    ),
    **dict.fromkeys(
        (
            "EstimateReport",
            "ProtocolTranscript",
            "exact_iota",
            "privacy_audit",
            "run_protocol_detailed",
            "sample_run_with_record",
        ),
        "ndqc2",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines export ``name`` and keep the value
    here, so the next read is a plain attribute lookup."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
