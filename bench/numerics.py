"""Reference numerics for the benchmark's inputs and correctness checks.

Plain numpy, written apart from netcoh: nothing here imports the package,
so a fault in ``netcoh.linalg``, ``netcoh.coherence`` or ``netcoh.rng`` can
neither change the benchmark's inputs nor hide by being checked against
itself.  Conventions match the package's documented ones: subsystem 0 is the
most significant tensor factor, entropies are in bits, 0 log 0 = 0.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# Random objects, drawn from the benchmark's own numpy generator


def ginibre(d: int, gen: np.random.Generator) -> np.ndarray:
    return (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(2.0)


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(d, gen))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag)).conj()


def hs_state(d: int, gen: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random mixed state, exactly Hermitian."""
    g = ginibre(d, gen)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def pure_state(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_pure_state(d: int, gen: np.random.Generator) -> np.ndarray:
    return pure_state(gen.standard_normal(d) + 1j * gen.standard_normal(d))


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def permute_qubits(rho: np.ndarray, n: int, order) -> np.ndarray:
    """State whose qubit ``order[k]`` is qubit ``k`` of ``rho``."""
    t = np.asarray(rho).reshape((2,) * (2 * n))
    inverse = [0] * n
    for k, q in enumerate(order):
        inverse[q] = k
    t = np.transpose(t, inverse + [n + i for i in inverse])
    return t.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# Entropies and reduced states


def shannon(p) -> float:
    p = np.clip(np.asarray(p, dtype=float).reshape(-1), 0.0, None)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits from ``numpy.linalg.eigvalsh``."""
    return shannon(np.linalg.eigvalsh(rho))


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced matrix on the subsystems in ``keep`` (kept in original order)."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    rows = list(_LETTERS[:n])
    cols = list(_LETTERS[n : 2 * n])
    for k in range(n):
        if k not in keep:
            cols[k] = rows[k]
    spec = "".join(rows) + "".join(cols) + "->"
    spec += "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    d = int(np.prod([dims[k] for k in keep]))
    return np.einsum(spec, np.asarray(rho).reshape(dims + dims)).reshape(d, d)


def basis_probabilities(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Diagonal of B^dag rho B: outcome probabilities of a full measurement."""
    return np.real(np.sum(basis.conj() * (rho @ basis), axis=0))


# ---------------------------------------------------------------------------
# Coherence figures


def coherence_figures(rho: np.ndarray, local_bases, group_a, group_b) -> dict:
    """REC, net coherence and both mutual informations across a qubit cut.

    ``local_bases`` holds one 2x2 unitary per qubit; the dephased mutual
    information is Shannon's, from the product-basis outcome distribution.
    """
    n = len(local_bases)
    dims = (2,) * n
    probs = basis_probabilities(rho, kron_all(local_bases))
    rec_global = shannon(probs) - entropy(rho)
    rec_local = []
    entropies = []
    for group in (group_a, group_b):
        marg = partial_trace(rho, dims, group)
        sub = kron_all([local_bases[k] for k in group])
        rec_local.append(shannon(basis_probabilities(marg, sub)) - entropy(marg))
        entropies.append(entropy(marg))
    grid = probs.reshape(dims)
    p_a = grid.sum(axis=tuple(group_b))
    p_b = grid.sum(axis=tuple(group_a))
    return {
        "rec_global": rec_global,
        "rec_local": rec_local,
        "rec_net": rec_global - sum(rec_local),
        "mutual_info": entropies[0] + entropies[1] - entropy(rho),
        "mutual_info_dephased": shannon(p_a) + shannon(p_b) - shannon(probs),
    }


# ---------------------------------------------------------------------------
# Two-qubit correlations


def mutual_information_2q(rho: np.ndarray) -> float:
    return (
        entropy(partial_trace(rho, (2, 2), (0,)))
        + entropy(partial_trace(rho, (2, 2), (1,)))
        - entropy(rho)
    )


def computational_discord(rho: np.ndarray, side: int) -> float:
    """I(rho) minus I of rho dephased on ``side`` in the computational basis."""
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    eye = np.eye(2)
    dephased = np.zeros((4, 4), dtype=complex)
    for p in projectors:
        op = np.kron(p, eye) if side == 0 else np.kron(eye, p)
        dephased += op @ rho @ op
    return mutual_information_2q(rho) - mutual_information_2q(dephased)


def min_eig_partial_transpose(rho: np.ndarray) -> float:
    t = np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(t)[0])


SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def werner_state(p: float) -> np.ndarray:
    """p |psi-><psi-| + (1 - p) I/4."""
    return p * np.outer(SINGLET, SINGLET) + (1.0 - p) * np.eye(4) / 4.0


def werner_discord(p: float) -> float:
    """Discord of the Werner state, either direction: I - J, in bits."""
    lam = [(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3
    mutual = 2.0 - shannon(lam)
    classical = 0.0
    for x in (1.0 - p, 1.0 + p):
        if x > 0.0:
            classical += (x / 2.0) * math.log2(x)
    return mutual - classical


def off_diagonal_max(rho: np.ndarray, basis: np.ndarray) -> float:
    frame = basis.conj().T @ rho @ basis
    return float(np.max(np.abs(frame - np.diag(np.diagonal(frame)))))


# ---------------------------------------------------------------------------
# Gate networks and normalized traces

_S2 = math.sqrt(0.5)
_GATES = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "T": np.diag([1.0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))]),
    "S": np.diag([1.0, 1.0j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
GATE_NAMES = tuple(_GATES) + ("CNOT", "CZ")


def _apply_gate(state: np.ndarray, n: int, name: str, targets) -> np.ndarray:
    """Apply one gate to every column of a (2,)*n x cols tensor."""
    if name in _GATES:
        (q,) = targets
        return np.moveaxis(np.tensordot(_GATES[name], state, axes=([1], [q])), 0, q)
    first, second = targets
    out = state.copy()
    index = [slice(None)] * (n + 1)
    index[first] = 1
    sub_second = second - (1 if second > first else 0)
    gate = _GATES["X"] if name == "CNOT" else _GATES["Z"]
    block = state[tuple(index)]
    out[tuple(index)] = np.moveaxis(
        np.tensordot(gate, block, axes=([1], [sub_second])), 0, sub_second
    )
    return out


def compile_gates(n: int, gates) -> np.ndarray:
    """Unitary of a gate list; the first gate listed acts first."""
    d = 2**n
    state = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for name, targets in gates:
        state = _apply_gate(state, n, name, targets)
    return state.reshape(d, d)


def normalized_trace(u: np.ndarray) -> complex:
    return complex(np.trace(u)) / u.shape[0]
