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
from functools import cached_property, lru_cache, reduce
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


def matrices_equal(a: np.ndarray, b: np.ndarray, atol: float = ATOL_IDENTITY) -> bool:
    """Entrywise equality with an explicit absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= atol)


def is_hermitian(m: np.ndarray) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= ATOL_IDENTITY)


def is_unitary(m: np.ndarray) -> bool:
    a = as_square_matrix(m)
    return matrices_equal(a.conj().T @ a, np.eye(a.shape[0]), ATOL_SPECTRAL)


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


# ---------------------------------------------------------------------------
# Density matrices


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a subsystem-dimension signature.

    Invariants checked at construction: hermiticity within 1e-10, unit trace
    within 1e-10, and positive semidefiniteness with eigenvalues permitted
    down to -1e-9 (roundoff floor); anything more negative, and any NaN or
    infinite entry, is a hard error.
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
        # Before any arithmetic: an infinite entry would make herm_err NaN,
        # with a numpy warning and a message that names no entry.
        check_finite(mat, "rho", InvalidStateError)
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_err <= ATOL_IDENTITY:
            raise InvalidStateError(f"not Hermitian: max |rho_ij - conj(rho_ji)| = {herm_err:.3e}")
        trace_err = abs(complex(np.trace(mat)) - 1.0)
        if not trace_err <= ATOL_IDENTITY:
            raise InvalidStateError(f"trace differs from 1 by {trace_err:.3e}")
        sym = (mat + mat.conj().T) / 2.0
        _require_psd(sym)
        object.__setattr__(self, "matrix", sym)
        object.__setattr__(self, "dims", dims)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, decomposed once per state."""
        w = hermitian_eig(self.matrix)[0]
        w.setflags(write=False)
        return w

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    @classmethod
    def from_vector(cls, psi: np.ndarray, dims: Sequence[int]) -> "DensityMatrix":
        """Projector onto a (normalized) pure state vector."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise InvalidStateError("zero vector cannot define a state")
        v = v / norm
        return cls(np.outer(v, v.conj()), tuple(dims))


def _require_psd(sym: np.ndarray) -> None:
    # Cholesky of rho + (|floor| + slack) I succeeds iff min eigenvalue is
    # above the PSD floor, up to rounding; cheap certificate at any dim.
    shift = -PSD_FLOOR * (1.0 + 1e-6) + 1e-15
    try:
        np.linalg.cholesky(sym + shift * np.eye(sym.shape[0]))
    except np.linalg.LinAlgError:
        raise InvalidStateError(f"not PSD: an eigenvalue lies below {PSD_FLOOR:.1e}") from None


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    dims = tuple(dims)
    d = int(np.prod(dims))
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims)


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a raw matrix over the subsystems not in ``keep``."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep:
        raise DimensionMismatchError("must keep at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n} subsystems")
    a = as_square_matrix(mat).reshape(dims + dims)
    traced = [k for k in range(n) if k not in keep]
    # Trace highest indices first so earlier axis numbers stay valid.
    remaining = list(dims)
    for idx in sorted(traced, reverse=True):
        a = np.trace(a, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d_keep = int(np.prod([dims[k] for k in keep]))
    return a.reshape(d_keep, d_keep)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original order."""
    keep = sorted(set(int(k) for k in keep))
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
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvector columns).  The input must be
    Hermitian within 1e-10 and is symmetrized before decomposition; the
    reconstruction ``V diag(w) V^dag`` matches it to within 1e-9.
    """
    a = as_square_matrix(m)
    if not is_hermitian(a):
        raise NotHermitianError("hermitian_eig requires a Hermitian matrix")
    return np.linalg.eigh((a + a.conj().T) / 2.0)


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

TWO_QUBIT_GATES = ("CNOT", "CZ")

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class GateNetwork:
    """Ordered list of gates from {H, T, S, X, Y, Z, CNOT, CZ} on named qubits.

    For CNOT, targets are (control, target).  CZ is symmetric.
    """

    qubit_count: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be positive")
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
    if name == "CNOT":
        ctrl, tgt = targets
        return chain({ctrl: _P0}) + chain({ctrl: _P1, tgt: GATE_MATRICES["X"]})
    if name == "CZ":
        a, b = targets
        return chain({a: _P0}) + chain({a: _P1, b: GATE_MATRICES["Z"]})
    raise ValueError(f"unknown gate name {name!r}")


def compile_gate_network(network: GateNetwork) -> np.ndarray:
    """Unitary of the network; the first listed gate is applied first."""
    d = 2**network.qubit_count
    u = np.eye(d, dtype=complex)
    for name, targets in network.gates:
        u = _embedded_gate(network.qubit_count, name, targets) @ u
    return u


# ---------------------------------------------------------------------------
# Random ensembles (seeded by the caller; see rng.substream)


def random_density_matrix(dims: Sequence[int], gen: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state: normalized G G^dag, Ginibre G."""
    from .rng import ginibre

    dims = tuple(dims)
    d = int(np.prod(dims))
    g = ginibre(d, gen)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


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


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        d = obj["dim"]
        if type(d) is not int:
            raise ValueError(f"dim must be an integer, got {d!r}")
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
        n = obj["qubits"]
        if type(n) is not int:
            raise ValueError(f"qubits must be an integer, got {n!r}")
        gates = tuple((g["name"], tuple(g["targets"])) for g in obj["gates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed gate-network object: {exc}") from exc
    return GateNetwork(n, gates)

