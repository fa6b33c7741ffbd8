"""netcoh: coherence measures, incoherent channels, correlation classification,
and a three-party distributed trace-estimation simulator."""

__version__ = "0.1.0"

from .linalg import (
    DensityMatrix,
    GateNetwork,
    compile_gate_network,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    tensor,
    unitary_eig,
)
from .coherence import (
    A_TO_B,
    B_TO_A,
    CoherenceReport,
    ProductBasis,
    basis_dependent_discord,
    dephase,
    minimize_discord,
    minimize_discord_pair,
    mutual_information,
    net_global_coherence,
    rec,
    von_neumann_entropy,
)
# The hierarchy-verdict entry point lives at netcoh.classify.classify; the
# bare function is not re-exported here so the submodule name stays usable.
from .classify import CorrelationVerdict, is_cc, ppt_separability
from .incoherent_ops import (
    KrausChannel,
    apply_channel,
    embed_classical,
    extract_classical,
    is_incoherent,
    is_strict_incoherent,
    sandwich_dephase,
    usi_generators,
)
from .ndqc2 import (
    EstimateReport,
    ProtocolTranscript,
    exact_iota,
    privacy_audit,
    run_protocol_detailed,
    sample_run_with_record,
)

__all__ = [
    "CorrelationVerdict",
    "is_cc",
    "ppt_separability",
    "KrausChannel",
    "apply_channel",
    "embed_classical",
    "extract_classical",
    "is_incoherent",
    "is_strict_incoherent",
    "sandwich_dephase",
    "usi_generators",
    "EstimateReport",
    "ProtocolTranscript",
    "exact_iota",
    "privacy_audit",
    "run_protocol_detailed",
    "sample_run_with_record",
    "DensityMatrix",
    "GateNetwork",
    "compile_gate_network",
    "hermitian_eig",
    "partial_trace",
    "partial_transpose",
    "tensor",
    "unitary_eig",
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
    "__version__",
]
