"""Dense complex linear algebra for small multi-qubit systems.

Matrices are plain complex numpy arrays.  Index convention, used everywhere
in the package: subsystem 0 is the most significant tensor factor, i.e.
``tensor(a, b)`` indexes basis states as ``|i_a i_b>`` with ``i_a`` varying
slowest (the ``numpy.kron`` convention).

Tolerance tiers: 1e-10 for exact-identity checks, 1e-9 for spectral
reconstructions and unitarity: ``hermitian_eig`` (LAPACK) reconstructs
random mixed states to within 4e-15 up to d = 1024, the largest checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

ATOL_IDENTITY = 1e-10
ATOL_SPECTRAL = 1e-9
PSD_FLOOR = -1e-9


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or subsystem signatures."""


class NotHermitianError(ValueError):
    """A Hermitian matrix was required."""


class InvalidStateError(ValueError):
    """A density-matrix invariant (hermiticity, trace, PSD) is violated."""


def as_square_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def unitarity_errors(u: np.ndarray) -> np.ndarray:
    """max |U^dag U - I| of each matrix on the last two axes (NaN if any
    entry is)."""
    gram = u.conj().swapaxes(-2, -1) @ u
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))


def is_unitary(m: np.ndarray) -> bool:
    return bool(unitarity_errors(as_square_matrix(m)) <= ATOL_SPECTRAL)


def check_finite(a: np.ndarray, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first NaN or infinite entry of ``a``."""
    if not np.isfinite(a).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise error(f"non-finite entry {name}{list(index)} = {a[index]}")


def tensor(*operands: np.ndarray) -> np.ndarray:
    """Kronecker product; the first operand is the most significant factor."""
    if not operands:
        raise ValueError("tensor() needs at least one operand")
    mats = [np.asarray(op, dtype=complex) for op in operands]
    return reduce(np.kron, mats)


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The entrywise products np.kron forms, with a leading stack axis.
    n, da, db = a.shape[0], a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, da * db, da * db)


def tensor_stack(*stacks: np.ndarray) -> np.ndarray:
    """``tensor`` member by member over (N, d_k, d_k) stacks, with the same
    bits as one ``tensor`` call per member."""
    return reduce(_kron_pair, stacks)


# ---------------------------------------------------------------------------
# Density matrices


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a subsystem-dimension signature.

    Invariants checked at construction, by ``density_stack`` on a one-member
    stack: hermiticity within 1e-10, unit trace within 1e-10, and positive
    semidefiniteness with eigenvalues permitted down to -1e-9 (roundoff
    floor); anything more negative, and any NaN or infinite entry, is a hard
    error.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = as_square_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatchError(f"subsystem dims must be positive, got {dims}")
        # math.prod, exact on Python ints: np.prod wraps around in int64, so
        # dims like (2**62 + 1, 4) would pass for a 4x4 matrix.
        if math.prod(dims) != mat.shape[0]:
            raise DimensionMismatchError(
                f"dims {dims} do not multiply to matrix dimension {mat.shape[0]}"
            )
        sym = density_stack(mat[None])[0]
        object.__setattr__(self, "matrix", sym)
        object.__setattr__(self, "dims", dims)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_vector(cls, psi: np.ndarray, dims: Sequence[int]) -> "DensityMatrix":
        """Projector onto a (normalized) pure state vector."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise InvalidStateError("zero vector cannot define a state")
        v = v / norm
        return cls(np.outer(v, v.conj()), tuple(dims))


# Cholesky of rho + (|floor| + slack) I succeeds iff the least eigenvalue is
# above the PSD floor, up to rounding: a cheap certificate at any dim.
_PSD_SHIFT = -PSD_FLOOR * (1.0 + 1e-6) + 1e-15


def _cholesky_succeeds(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def density_stack(mats: np.ndarray) -> np.ndarray:
    """``DensityMatrix``'s checks on each matrix of a (N, d, d) stack: finite
    entries, then hermiticity and unit trace within 1e-10, then the PSD
    certificate.  Returns the stack symmetrized, (M + M^dag) / 2.

    The checks run on the whole stack at once.  If one fails, the first
    member that fails raises the ``InvalidStateError`` it raises alone.
    """
    # inf - inf in a non-finite member would warn; that member's errors are
    # NaN or infinite, so it fails the tolerances and check_finite names it.
    with np.errstate(invalid="ignore"):
        adj = mats.conj().swapaxes(-2, -1)
        herm_err = np.abs(mats - adj).max(axis=(-2, -1))
        trace_err = np.abs(mats.diagonal(0, -2, -1).sum(axis=-1) - 1.0)
        sym = (mats + adj) / 2.0
    shifted = sym + _PSD_SHIFT * np.eye(mats.shape[-1])
    if np.all(np.maximum(herm_err, trace_err) <= ATOL_IDENTITY) and _cholesky_succeeds(shifted):
        return sym
    for k in range(len(mats)):
        check_finite(mats[k], "rho", InvalidStateError)
        if not herm_err[k] <= ATOL_IDENTITY:
            raise InvalidStateError(
                f"not Hermitian: max |rho_ij - conj(rho_ji)| = {herm_err[k]:.3e}"
            )
        if not trace_err[k] <= ATOL_IDENTITY:
            raise InvalidStateError(f"trace differs from 1 by {trace_err[k]:.3e}")
        if not _cholesky_succeeds(shifted[k]):
            break
    raise InvalidStateError(f"not PSD: an eigenvalue lies below {PSD_FLOOR:.1e}")


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    dims = tuple(dims)
    d = int(np.prod(dims))
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims)


def subsystem_indices(indices: Iterable[int], n: int, name: str) -> tuple[int, ...]:
    """Sorted distinct indices into ``n`` subsystems.

    Each must be a Python or numpy integer (booleans excluded) in
    ``range(n)``; anything else raises ``DimensionMismatchError`` naming
    ``name``, so that ``1.2`` is not truncated to subsystem 1.
    """
    indices = tuple(indices)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise DimensionMismatchError(f"{name} index {i!r} is not an integer")
    out = tuple(sorted(set(int(i) for i in indices)))
    if any(i < 0 or i >= n for i in out):
        raise DimensionMismatchError(f"{name} indices {list(out)} out of range for {n} subsystems")
    return out


def partial_trace_stack(mats: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial traces of a (N, d, d) stack over the subsystems not in ``keep``."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = subsystem_indices(keep, n, "keep")
    if not keep:
        raise DimensionMismatchError("must keep at least one subsystem")
    a = mats.reshape(mats.shape[:1] + dims + dims)
    traced = [k for k in range(n) if k not in keep]
    # Trace highest indices first so earlier axis numbers stay valid.
    remaining = list(dims)
    for idx in sorted(traced, reverse=True):
        a = np.trace(a, axis1=1 + idx, axis2=1 + idx + len(remaining))
        del remaining[idx]
    d_keep = math.prod(dims[k] for k in keep)
    return a.reshape(-1, d_keep, d_keep)


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a raw matrix over the subsystems not in ``keep``."""
    return partial_trace_stack(as_square_matrix(mat)[None], dims, keep)[0]


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original order."""
    keep = subsystem_indices(keep, len(rho.dims), "keep")
    reduced = partial_trace_matrix(rho.matrix, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[k] for k in keep))


def permute_subsystems(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: output subsystem k is input subsystem perm[k]."""
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise DimensionMismatchError(f"{perm} is not a permutation of {n} subsystems")
    a = as_square_matrix(mat).reshape(dims + dims)
    a = np.transpose(a, perm + tuple(p + n for p in perm))
    d = int(np.prod(dims))
    return a.reshape(d, d)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one subsystem's indices; Hermitian and trace-preserving."""
    n = len(rho.dims)
    if subsystem < 0 or subsystem >= n:
        raise DimensionMismatchError(f"subsystem {subsystem} out of range for {n} subsystems")
    dims = rho.dims
    a = rho.matrix.reshape(dims + dims)
    a = np.swapaxes(a, subsystem, subsystem + n)
    d = rho.dim
    return a.reshape(d, d)


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition by LAPACK (``numpy.linalg.eigh``) of each matrix of
    a (..., d, d) stack, bit for bit as one call per matrix; every state
    entropy's spectrum comes from here.

    Returns (eigenvalues ascending, eigenvector columns).  Each matrix must be
    Hermitian within 1e-10, else ``NotHermitianError`` names the first that is
    not; the stack is symmetrized before decomposition, and the reconstruction
    ``V diag(w) V^dag`` matches it to within 1e-9.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected a (..., d, d) stack, got shape {a.shape}")
    adj = a.conj().swapaxes(-2, -1)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        err = np.abs(a - adj).max(axis=(-2, -1))
    if not np.all(err <= ATOL_IDENTITY):
        k = np.unravel_index(np.argmax(~(err <= ATOL_IDENTITY)), err.shape)
        member = f"member {list(map(int, k))}: " if k else ""
        raise NotHermitianError(f"not Hermitian: {member}max |m - m^dag| = {err[k]:.3e}")
    return np.linalg.eigh((a + adj) / 2.0)


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if abs(pivot) == 0.0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix via its commuting Hermitian parts.

    A unitary is normal, so H = (U + U^dag)/2 and K = (U - U^dag)/(2i) commute
    and share an orthonormal eigenbasis; K is diagonalized inside each
    degenerate eigenspace of H.  Columns are ordered by eigenvalue phase in
    [0, 2pi), ties broken by lexicographic order of the (phase-canonicalized)
    eigenvector components.
    """
    a = as_square_matrix(u)
    if not is_unitary(a):
        raise ValueError("unitary_eig requires a unitary matrix")
    h = (a + a.conj().T) / 2.0
    k = (a - a.conj().T) / 2.0j
    wh, v = hermitian_eig(h)
    d = a.shape[0]
    # Group near-equal eigenvalues of H and diagonalize K inside each block.
    group_tol = 1e-8 * max(1.0, float(np.max(np.abs(wh))))
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and wh[stop] - wh[stop - 1] <= group_tol:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            sub = block.conj().T @ k @ block
            _, w = hermitian_eig(sub)
            v[:, start:stop] = block @ w
        start = stop
    eigvals = np.array([v[:, j].conj() @ a @ v[:, j] for j in range(d)])
    recon_err = float(np.max(np.abs(a - (v * eigvals) @ v.conj().T)))
    if recon_err > ATOL_SPECTRAL:
        raise ArithmeticError(f"unitary eigendecomposition failed to reconstruct: {recon_err:.3e}")
    for j in range(d):
        v[:, j] = _canonical_phase(v[:, j])
    phases = np.mod(np.angle(eigvals), 2.0 * np.pi)
    phases = np.where(phases > 2.0 * np.pi - 1e-9, phases - 2.0 * np.pi, phases)
    lex_keys = [tuple(np.round(v[:, j], 9).view(float)) for j in range(d)]
    order = sorted(range(d), key=lambda j: (round(phases[j] / 1e-9) * 1e-9, lex_keys[j]))
    return eigvals[order], v[:, order]


# ---------------------------------------------------------------------------
# Gate networks

_S2 = np.sqrt(0.5)

GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "S": np.diag([1.0, 1.0j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

# Each two-qubit gate applies this one-qubit gate to its second target when
# its first target is |1>.
CONTROLLED_GATES = {"CNOT": "X", "CZ": "Z"}
TWO_QUBIT_GATES = tuple(CONTROLLED_GATES)

# Largest gate network: d = 1024, the largest size the spectral path is
# checked at; its unitary takes 16 MiB.
MAX_GATE_QUBITS = 10

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class GateNetwork:
    """Ordered list of gates from {H, T, S, X, Y, Z, CNOT, CZ} on 1 to
    ``MAX_GATE_QUBITS`` named qubits.

    For CNOT, targets are (control, target).  CZ is symmetric.
    """

    qubit_count: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be positive")
        if self.qubit_count > MAX_GATE_QUBITS:
            raise ValueError(
                f"qubit_count must be at most {MAX_GATE_QUBITS}, got {self.qubit_count}"
            )
        normalized = []
        for entry in self.gates:
            name, targets = entry
            targets = tuple(int(t) for t in targets)
            if name in GATE_MATRICES:
                if len(targets) != 1:
                    raise ValueError(f"gate {name} takes one target, got {targets}")
            elif name in TWO_QUBIT_GATES:
                if len(targets) != 2 or targets[0] == targets[1]:
                    raise ValueError(f"gate {name} takes two distinct targets, got {targets}")
            else:
                raise ValueError(f"unknown gate name {name!r}")
            if any(t < 0 or t >= self.qubit_count for t in targets):
                raise ValueError(f"targets {targets} out of range for {self.qubit_count} qubits")
            normalized.append((name, targets))
        object.__setattr__(self, "gates", tuple(normalized))


@lru_cache(maxsize=4096)
def _embedded_gate(n: int, name: str, targets: tuple[int, ...]) -> np.ndarray:
    def chain(factors: dict[int, np.ndarray]) -> np.ndarray:
        return tensor(*[factors.get(i, np.eye(2, dtype=complex)) for i in range(n)])

    if name in GATE_MATRICES:
        return chain({targets[0]: GATE_MATRICES[name]})
    ctrl, tgt = targets
    return chain({ctrl: _P0}) + chain({ctrl: _P1, tgt: GATE_MATRICES[CONTROLLED_GATES[name]]})


def compile_gate_network(network: GateNetwork) -> np.ndarray:
    """Unitary of the network; the first listed gate is applied first."""
    d = 2**network.qubit_count
    u = np.eye(d, dtype=complex)
    for name, targets in network.gates:
        u = _embedded_gate(network.qubit_count, name, targets) @ u
    return u


# ---------------------------------------------------------------------------
# Random ensembles (seeded by the caller; see rng.substream)


def hilbert_schmidt_stack(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for each matrix of a (N, d, d) Ginibre stack;
    not yet validated (see ``density_stack``)."""
    m = g @ g.conj().swapaxes(-2, -1)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrix(dims: Sequence[int], gen: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state: normalized G G^dag, Ginibre G."""
    from .rng import ginibre

    dims = tuple(dims)
    d = int(np.prod(dims))
    return DensityMatrix(hilbert_schmidt_stack(ginibre(d, gen)[None])[0], dims)


def random_pure_density(dims: Sequence[int], gen: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state projector."""
    dims = tuple(dims)
    d = int(np.prod(dims))
    v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return DensityMatrix.from_vector(v, dims)


def random_gate_network(
    qubit_count: int, depth: int, gen: np.random.Generator
) -> GateNetwork:
    names = list(GATE_MATRICES) + list(TWO_QUBIT_GATES)
    gates = []
    for _ in range(depth):
        name = names[int(gen.integers(len(names)))]
        if name in TWO_QUBIT_GATES and qubit_count >= 2:
            pair = gen.choice(qubit_count, size=2, replace=False)
            gates.append((name, (int(pair[0]), int(pair[1]))))
        else:
            if name in TWO_QUBIT_GATES:
                name = "H"
            gates.append((name, (int(gen.integers(qubit_count)),)))
    return GateNetwork(qubit_count, tuple(gates))


# ---------------------------------------------------------------------------
# JSON file formats


def matrix_to_json(m: np.ndarray) -> dict:
    """{"dim": d, "entries": [[re, im], ...]} with row-major entries."""
    a = as_square_matrix(m)
    flat = a.reshape(-1)
    return {"dim": a.shape[0], "entries": [[float(z.real), float(z.imag)] for z in flat]}


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (booleans excluded), else a
    ``ValueError`` naming ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        d = json_int(obj["dim"], "dim")
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"matrix of dim {d} needs {d * d} entries, got {len(entries)}")
        flat = np.array([complex(re, im) for re, im in entries])
        if {type(x) for pair in entries for x in pair} - {int, float}:
            raise ValueError("entries must be [re, im] pairs of numbers")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(d, d)


def gate_network_to_json(network: GateNetwork) -> dict:
    return {
        "qubits": network.qubit_count,
        "gates": [{"name": name, "targets": list(t)} for name, t in network.gates],
    }


def gate_network_from_json(obj: dict) -> GateNetwork:
    try:
        n = json_int(obj["qubits"], "qubits")
        gates = tuple(
            (g["name"], tuple(json_int(t, "gate target") for t in g["targets"]))
            for g in obj["gates"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed gate-network object: {exc}") from exc
    return GateNetwork(n, gates)

