"""Named verification suites behind the ``verify`` CLI command.

Each suite sweeps a seeded ensemble, returns one row per sampled instance
for CSV export, and an overall pass flag.  A sweep runs in one process, cut
into chunks of at most ``MAX_CHUNK`` instances.  Instance generators draw
from counter-derived substreams, so results are independent of chunking.
A chunk's substreams come from ``rng.draw_substreams``, one rekeyed
generator, with the same values as one fresh generator per instance.
``ndqc2`` is imported only by the two protocol suites (``se-scaling``,
``privacy``), so a sweep of the other suites does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import incoherent_ops as iops
from .classify import DISCORD_ZERO_THRESHOLD, NET_COHERENCE_WITNESS_THRESHOLD
from .coherence import (
    BIPARTITE_CUT,
    _von_neumann_entropies,
    dephased_mutual_information_stack,
    haar_product_bases,
    minimize_discord_pair,
    mutual_information_stack,
    net_global_coherence_stack,
    product_basis_normals,
    random_product_basis,
)
from .linalg import (
    ATOL_IDENTITY,
    ATOL_SPECTRAL,
    PSD_FLOOR,
    DensityMatrix,
    density_stack,
    hilbert_schmidt_stack,
    partial_trace_stack,
    random_density_matrix,
    tensor_stack,
)
from .rng import draw_substreams, ginibre_stack, haar_unitaries, haar_unitary, substream

SUITE_NAMES = ("thm4", "thm5", "thm6", "lemma1", "isomorphism", "se-scaling", "privacy")

# Substream lane tags, one per ensemble family.
_LANE_THM4 = 40
_LANE_THM5 = 50
_LANE_THM6 = 60
_LANE_LEMMA1 = 10
_LANE_ISO = 11
_LANE_SE = 12
_LANE_PRIVACY = 13

# Default ensemble sizes, as (family, count) pairs per suite; a suite's
# ``scale`` (``--ensemble-size``) multiplies each count.
_ENSEMBLES = {
    "thm4": (("2x2", 1000), ("2x4", 100), ("product", 200), ("cc", 200)),
    "thm5": (("haar", 500), ("product", 100)),
    "thm6": (("cc", 200), ("discordant", 200)),
    "lemma1": (("channel", 1000),),
    "isomorphism": (("iso", 100),),
    "privacy": (("task2", 50),),
}

# Largest scaled family count; a larger ``--ensemble-size`` is refused
# before any instance runs.
MAX_FAMILY_SIZE = 10**6

# Most instances in one sweep chunk.  A thm4 chunk is one stack of states
# and a lemma1 chunk one stack of channels, so this bounds their arrays (a
# few MB) at any ensemble size.
MAX_CHUNK = 1000

# Fixed ensemble parameters that ``--ensemble-size`` does not scale.
_THM5_BASES = 20  # product bases sampled per thm5 state
_THM6_BASES = 50  # product bases sampled per discordant thm6 state
_THM6_DRAWS = 51  # states drawn per discordant thm6 instance before it fails
_SE_SHOT_GRID = (1_000, 10_000, 100_000)
_SE_REPS = 6  # protocol runs averaged per se-scaling shot count
_PRIVACY_SHOTS = 40_000
_PRIVACY_LEAK_RUNS = 10


@dataclass
class SuiteResult:
    name: str
    passed: bool
    rows: list[dict]
    failures: list[str] = field(default_factory=list)

    @property
    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({len(self.failures)} failures)" if self.failures else ""
        return f"{self.name}: {status}, {len(self.rows)} instances{detail}"


def _families(suite: str, scale: float) -> tuple[tuple[str, int], ...]:
    """The suite's (family, count) pairs with each count scaled, at least 1
    and at most ``MAX_FAMILY_SIZE``."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"ensemble scale must be a finite number above 0, got {scale!r}")
    for family, n in _ENSEMBLES[suite]:
        if n * scale > MAX_FAMILY_SIZE:
            raise ValueError(
                f"ensemble scale {scale!r} puts {suite} family {family!r}"
                f" above {MAX_FAMILY_SIZE} instances"
            )
    return tuple((family, max(1, int(round(n * scale)))) for family, n in _ENSEMBLES[suite])


def _chunk_plan(count: int) -> list[tuple[int, int]]:
    """(start, stop) index ranges that cut a family of ``count`` instances
    into chunks of ``MAX_CHUNK``, the last one possibly shorter."""
    return [(lo, min(lo + MAX_CHUNK, count)) for lo in range(0, count, MAX_CHUNK)]


def _sweep(
    chunk_rows: Callable[[int, str, int, int], list[dict]],
    seed: int,
    families: Sequence[tuple[str, int]],
) -> list[dict]:
    """Rows ``chunk_rows(seed, family, start, stop)`` for each (family,
    count) pair, cut by ``_chunk_plan``, in family order and then index
    order.  thm4, thm5 and lemma1 compute each chunk as stacked arrays; thm6
    and isomorphism run its instances one by one.  Every product basis is
    built by ``coherence.haar_product_bases`` from one row of standard
    normals, and each instance draws from its own substream, so the rows do
    not depend on the chunking."""
    chunks = [(family, lo, hi) for family, count in families for lo, hi in _chunk_plan(count)]
    return [row for chunk in chunks for row in chunk_rows(seed, *chunk)]


def _nets_in_random_bases(
    states: np.ndarray, seed: int, lane: int, index: Sequence[int], count: int
) -> tuple:
    """Net coherence of each state of a validated (N, 4, 4) two-qubit stack
    in ``count`` Haar product bases, basis b of state ``index[n]`` from
    substream (seed, lane, 2, index[n], b), as I(rho) minus each dephased
    state's mutual information: an (N, count) array.  All N * count bases
    are scored as one stack, with each state repeated once per basis.  Also
    returns the bases' local stacks, each (N, count, 2, 2)."""
    dims = (2, 2)
    n = product_basis_normals(dims)
    lanes = [(lane, 2, i, b) for i in index for b in range(count)]
    normals = draw_substreams(seed, lanes, lambda gen: gen.standard_normal(n))
    bases = haar_product_bases(normals, dims)
    repeated = np.repeat(states, count, axis=0)
    dephased = dephased_mutual_information_stack(repeated, bases, dims, BIPARTITE_CUT)
    mutual = mutual_information_stack(states, dims, BIPARTITE_CUT)
    nets = mutual[:, None] - dephased.reshape(len(states), count)
    return nets, [u.reshape(len(states), count, *u.shape[1:]) for u in bases]


# ---------------------------------------------------------------------------
# Positivity and route agreement (thm4)


def _cc_stack(frame: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """States diagonal in each global basis matrix of a (N, d, d) stack, with
    the eigenvalues ``weights`` (N, d) normalized; not yet validated."""
    p = weights / weights.sum(axis=-1, keepdims=True)
    return (frame * p[:, None, :]) @ frame.conj().swapaxes(-2, -1)


_THM4_LANES = {"2x2": 0, "2x4": 1, "product": 2, "cc": 3}
_THM4_DIMS = {"2x2": (2, 2), "2x4": (2, 4), "product": (2, 2), "cc": (2, 2)}


def _thm4_rows(seed: int, kind: str, start: int, stop: int) -> list[dict]:
    """thm4 rows for instances ``start`` to ``stop - 1`` of one family.

    Each instance draws from its own substream, in the order of the
    one-state generators: a Hilbert-Schmidt state's Ginibre matrix (for
    "product", one per factor) and then its basis, all one run of standard
    normals, or for "cc" its basis and then the eigenvalue weights.  All
    that follows runs once on the chunk's stacks: the states and their
    ``DensityMatrix`` checks, and ``net_global_coherence_stack``.  The rows
    hold its figures, so the suite, not an exception, reports a floor or
    route violation.
    """
    dims = _THM4_DIMS[kind]
    lanes = [(_LANE_THM4, _THM4_LANES[kind], i) for i in range(start, stop)]
    n_basis = product_basis_normals(dims)
    if kind == "cc":
        draws = draw_substreams(
            seed, lanes, lambda gen: (gen.standard_normal(n_basis), gen.random(math.prod(dims)))
        )
        bases = haar_product_bases([normals for normals, _ in draws], dims)
        weights = np.array([w for _, w in draws])
        states = density_stack(_cc_stack(tensor_stack(*bases), weights))
    else:
        shapes = dims if kind == "product" else (math.prod(dims),)
        cuts = np.cumsum([0] + [2 * d * d for d in shapes]).tolist()
        n = cuts[-1] + n_basis
        normals = np.array(draw_substreams(seed, lanes, lambda gen: gen.standard_normal(n)))
        bases = haar_product_bases(normals[:, cuts[-1] :], dims)
        factors = [
            density_stack(hilbert_schmidt_stack(ginibre_stack(normals[:, lo:hi], d)))
            for lo, hi, d in zip(cuts, cuts[1:], shapes)
        ]
        states = density_stack(tensor_stack(*factors)) if kind == "product" else factors[0]
    figures = net_global_coherence_stack(states, bases, dims, BIPARTITE_CUT)
    route_gaps = np.abs(figures.rec_net - (figures.mutual_info - figures.mutual_info_dephased))
    return [
        {"kind": kind, "index": i, "rec_net": net, "route_gap": gap}
        for i, net, gap in zip(range(start, stop), figures.rec_net.tolist(), route_gaps.tolist())
    ]


def suite_thm4(seed: int, scale: float = 1.0) -> SuiteResult:
    """Net-coherence positivity and two-route agreement on random ensembles,
    with equality on product states and basis-diagonal CC states.  A state
    below the positivity floor or with routes more than 1e-9 apart is a
    failure of its row."""
    rows = _sweep(_thm4_rows, seed, _families("thm4", scale))
    failures = []
    for row in rows:
        name, net = f"{row['kind']}[{row['index']}]", row["rec_net"]
        if net < PSD_FLOOR:
            failures.append(f"{name}: rec_net {net:.3e} < -1e-9")
        if row["route_gap"] > ATOL_SPECTRAL:
            failures.append(f"{name}: route gap {row['route_gap']:.3e}")
        if row["kind"] in ("product", "cc") and net > ATOL_SPECTRAL:
            failures.append(f"{name}: equality case rec_net {net:.3e}")
    return SuiteResult("thm4", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Pure states (thm5)


def _pure_projector(gen: np.random.Generator, d: int) -> np.ndarray:
    """``random_pure_density``'s draws, normalization and outer product for
    one state vector of dimension ``d``, without its per-state validation
    (the caller validates a whole stack)."""
    v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _thm5_rows(seed: int, kind: str, start: int, stop: int) -> list[dict]:
    """thm5 rows for instances ``start`` to ``stop - 1`` of one family.

    Each instance draws its state from substream (seed, lane, 0, i) for
    "haar" or (seed, lane, 1, i) for "product", one vector at a time as
    ``random_pure_density`` does; a product state is two validated qubit
    projectors joined by ``tensor_stack``.  All that follows runs once on
    the chunk's stacks: the entanglement entropies, the nets in 20 bases per
    state (``_nets_in_random_bases``), and basis 0's full figures, which
    check the nets' shortcut against both routes.  A failed check leaves
    None for the row's extremes.
    """
    index = range(start, stop)
    lanes = [(_LANE_THM5, 0 if kind == "haar" else 1, i) for i in index]
    if kind == "haar":
        states = density_stack(
            np.array(draw_substreams(seed, lanes, lambda gen: _pure_projector(gen, 4)))
        )
    else:
        pairs = draw_substreams(
            seed, lanes, lambda gen: (_pure_projector(gen, 2), _pure_projector(gen, 2))
        )
        factors = [density_stack(np.array(side)) for side in zip(*pairs)]
        states = density_stack(tensor_stack(*factors))
    marginals = density_stack(partial_trace_stack(states, (2, 2), (0,)))
    entropies = _von_neumann_entropies(marginals)
    nets, bases = _nets_in_random_bases(states, seed, _LANE_THM5, index, _THM5_BASES)
    full = net_global_coherence_stack(states, [u[:, 0] for u in bases], (2, 2))
    routes = np.stack([nets[:, 0], full.mutual_info - full.mutual_info_dephased], axis=-1)
    checked = np.all(np.abs(full.rec_net[:, None] - routes) <= ATOL_SPECTRAL, axis=-1)
    return [
        {
            "kind": kind,
            "index": i,
            "entanglement_entropy": entropy,
            "rec_net_min": float(row.min()) if ok else None,
            "rec_net_max": float(row.max()) if ok else None,
        }
        for i, entropy, row, ok in zip(index, entropies.tolist(), nets, checked.tolist())
    ]


def suite_thm5(seed: int, scale: float = 1.0) -> SuiteResult:
    """Pure-state law: entangled iff positive net coherence, product implies
    zero, checked in 20 sampled product bases per state.  A state whose
    routes disagree in basis 0, or whose net coherence is below the
    positivity floor, is a failure of its row."""
    rows = _sweep(_thm5_rows, seed, _families("thm5", scale))
    failures = []
    for row in rows:
        name, net_min = f"{row['kind']}[{row['index']}]", row["rec_net_min"]
        if net_min is None:
            failures.append(f"{name}: route cross-check failed")
            continue
        if net_min < PSD_FLOOR:
            failures.append(f"{name}: rec_net {net_min:.3e} < -1e-9")
        if row["kind"] == "product":
            if row["rec_net_max"] > ATOL_SPECTRAL:
                failures.append(f"{name}: rec_net {row['rec_net_max']:.3e} > 1e-9")
        else:
            # A pure state's entanglement entropy is its discord.
            entangled = row["entanglement_entropy"] > DISCORD_ZERO_THRESHOLD
            if entangled != (net_min > NET_COHERENCE_WITNESS_THRESHOLD):
                failures.append(
                    f"{name}: EE {row['entanglement_entropy']:.3e} vs min rec_net {net_min:.3e}"
                )
    return SuiteResult("thm5", not failures, rows, failures)


# ---------------------------------------------------------------------------
# CC recovery and discordant states (thm6)


def _thm6_cc_row(rho: DensityMatrix, i: int) -> dict:
    (val_ab, basis_ab), (val_ba, basis_ba) = minimize_discord_pair(rho)
    # The candidates: both minimizers' bases, and A -> B's side A with
    # B -> A's side B.  Routes that disagree leave None as the witness.
    (a_ab, b_ab), (a_ba, b_ba) = basis_ab.local_bases, basis_ba.local_bases
    local = [np.stack([a_ab, a_ba, a_ab]), np.stack([b_ab, b_ba, b_ba])]
    figures = net_global_coherence_stack(np.repeat(rho.matrix[None], 3, 0), local, rho.dims)
    gaps = np.abs(figures.rec_net - (figures.mutual_info - figures.mutual_info_dephased))
    witness = float(figures.rec_net.min()) if np.all(gaps <= ATOL_SPECTRAL) else None
    return {
        "kind": "cc",
        "index": i,
        "discord_ab": val_ab,
        "discord_ba": val_ba,
        "rec_net_witness": witness,
    }


def _thm6_discordant_row(seed: int, i: int) -> dict:
    # Draw t comes from substream (seed, lane, 1, i, t).  If none of the
    # draws is discordant, the row holds None for its net coherence and the
    # last draw's discord values.
    for attempt in range(_THM6_DRAWS):
        rho = random_density_matrix((2, 2), substream(seed, _LANE_THM6, 1, i, attempt))
        (val_ab, _), (val_ba, _) = minimize_discord_pair(rho)
        if min(val_ab, val_ba) > 0.01:
            nets, _ = _nets_in_random_bases(rho.matrix[None], seed, _LANE_THM6, [i], _THM6_BASES)
            rec_net_min = float(nets.min())
            break
    else:
        rec_net_min = None
    return {
        "kind": "discordant",
        "index": i,
        "discord_ab": val_ab,
        "discord_ba": val_ba,
        "rec_net_min": rec_net_min,
    }


def _thm6_rows(seed: int, kind: str, start: int, stop: int) -> list[dict]:
    """thm6 rows for instances ``start`` to ``stop - 1`` of one family.  A
    CC instance draws its basis and then its eigenvalue weights from its own
    substream, and the chunk's states are built as one stack; each state
    then runs alone."""
    if kind == "discordant":
        return [_thm6_discordant_row(seed, i) for i in range(start, stop)]
    lanes = [(_LANE_THM6, 0, i) for i in range(start, stop)]
    n_basis = product_basis_normals((2, 2))
    draws = draw_substreams(seed, lanes, lambda gen: (gen.standard_normal(n_basis), gen.random(4)))
    frames = tensor_stack(*haar_product_bases([normals for normals, _ in draws], (2, 2)))
    states = _cc_stack(frames, np.array([w for _, w in draws]))
    return [_thm6_cc_row(DensityMatrix(m, (2, 2)), i) for m, i in zip(states, range(start, stop))]


def suite_thm6(seed: int, scale: float = 1.0) -> SuiteResult:
    """Rotated CC states: the discord minimizer recovers a basis with
    vanishing net coherence.  Discordant states: positive net coherence in
    each of 50 sampled product bases.  A CC state whose candidate bases'
    routes disagree, or whose witness is below the positivity floor, is a
    failure of its row, and so is a discordant instance none of whose 51
    draws is discordant."""
    rows = _sweep(_thm6_rows, seed, _families("thm6", scale))
    failures = []
    for row in rows:
        name = f"{row['kind']}[{row['index']}]"
        if row["kind"] == "cc":
            witness = row["rec_net_witness"]
            if max(row["discord_ab"], row["discord_ba"]) > DISCORD_ZERO_THRESHOLD:
                failures.append(f"{name}: discord floor not reached")
            if witness is None:
                failures.append(f"{name}: route cross-check failed")
            elif witness < PSD_FLOOR:
                failures.append(f"{name}: witness rec_net {witness:.3e} < -1e-9")
            elif witness > NET_COHERENCE_WITNESS_THRESHOLD:
                failures.append(f"{name}: witness rec_net {witness:.3e} > 1e-6")
        elif row["rec_net_min"] is None:
            failures.append(f"{name}: no discordant state in {_THM6_DRAWS} draws")
        elif row["rec_net_min"] <= NET_COHERENCE_WITNESS_THRESHOLD:
            failures.append(f"{name}: rec_net {row['rec_net_min']:.3e} <= 1e-6")
    return SuiteResult("thm6", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Strictness tests (lemma1)


_LEMMA1_FAMILIES = ("projected", "unitary", "permutation", "dephasing")
_LEMMA1_DIMS = (2, 2)
_LEMMA1_DIM = math.prod(_LEMMA1_DIMS)


def _lemma1_draw(gen: np.random.Generator, family: int) -> tuple:
    """One lemma1 instance's draws, in stream order: the ``rotated`` flag,
    a rotated instance's local-basis normals (None otherwise), then its
    family draw: an incoherent channel's draws (family 0), a 4x4 Ginibre
    matrix's normals (1), a permutation (2) or nothing (3)."""
    rotated = bool(gen.integers(2))
    normals = gen.standard_normal(product_basis_normals(_LEMMA1_DIMS)) if rotated else None
    if family == 0:
        drawn = iops.draw_incoherent_kraus(_LEMMA1_DIM, gen)
    elif family == 1:
        drawn = gen.standard_normal(2 * _LEMMA1_DIM**2)
    elif family == 2:
        drawn = gen.permutation(_LEMMA1_DIM)
    else:
        drawn = None
    return rotated, normals, drawn


def _lemma1_kraus(family: int, draws: list, bases: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    """The (n, K, d, d) Kraus stack of n instances of one lemma1 family from
    their family draws and global bases: a random incoherent channel (in
    the basis frame if the instance is rotated), a Haar unitary, the
    permutation unitary B P B^dag, or the dephasing projectors B_k B_k^dag."""
    if family == 0:
        raw = iops.pad_kraus(iops.build_incoherent_kraus(_LEMMA1_DIM, draws))
        iops.require_kraus_stack(raw)  # the generated channel, before rotation
        b = bases[rotated][:, None]
        raw[rotated] = b @ raw[rotated] @ b.conj().swapaxes(-2, -1)
        return raw
    if family == 1:
        return haar_unitaries(ginibre_stack(np.stack(draws), _LEMMA1_DIM))[:, None]
    if family == 2:
        perms = np.zeros_like(bases)
        perms[np.arange(len(draws))[:, None], np.stack(draws), np.arange(_LEMMA1_DIM)] = 1.0
        return (bases @ perms @ bases.conj().swapaxes(-2, -1))[:, None]
    columns = bases.swapaxes(-2, -1)  # [n, k, :] is basis vector k
    return columns[:, :, :, None] * columns.conj()[:, :, None, :]


def _lemma1_rows(seed: int, _family: str, start: int, stop: int) -> list[dict]:
    """lemma1 rows for channels ``start`` to ``stop - 1``; channel i is of
    family i % 4.

    Each channel draws from its own substream, in the order of the
    one-channel generators: the ``rotated`` flag, then a rotated channel's
    Haar local bases (the computational basis otherwise), then its family
    draw (``_lemma1_draw``).  All that follows runs once on the chunk's
    stacks: the global bases, each family's Kraus stack, one completeness
    check on the zero-padded stack of every channel, its basis frames and
    both strictness tests (which raise if they disagree).
    """
    index = range(start, stop)
    family = np.arange(start, stop) % 4
    families = iter(family.tolist())  # draw_substreams draws once per lane, in order
    instances = draw_substreams(
        seed, [(_LANE_LEMMA1, i) for i in index], lambda gen: _lemma1_draw(gen, next(families))
    )
    rotated = np.array([r for r, _, _ in instances])
    local = haar_product_bases([n for r, n, _ in instances if r], _LEMMA1_DIMS)
    draws = [d for _, _, d in instances]
    factors = [np.tile(np.eye(d, dtype=complex), (len(index), 1, 1)) for d in _LEMMA1_DIMS]
    for u, drawn in zip(factors, local):
        u[rotated] = drawn
    bases = tensor_stack(*factors)
    kraus: list = [None] * len(draws)
    for f in range(4):
        members = np.flatnonzero(family == f)
        if members.size:
            own = [draws[m] for m in members]
            for m, ops in zip(members, _lemma1_kraus(f, own, bases[members], rotated[members])):
                kraus[m] = ops
    stack = iops.pad_kraus(kraus)
    iops.require_kraus_stack(stack)
    frames = iops.in_frame_stack(stack, bases)
    incoherent = iops.incoherent_stack(frames)
    strict = iops.strict_incoherent_stack(frames)  # raises on test disagreement
    return [
        {"index": i, "family": _LEMMA1_FAMILIES[i % 4], "incoherent": inc, "strict": st}
        for i, (inc, _), (st, _) in zip(index, incoherent, strict)
    ]


def suite_lemma1(seed: int, scale: float = 1.0) -> SuiteResult:
    """Agreement of the definitional and sparsity strictness tests across
    random channels, plus the canonical pass and fail cases."""
    rows = _sweep(_lemma1_rows, seed, _families("lemma1", scale))
    failures = []
    for row in rows:
        if row["strict"] and not row["incoherent"]:
            failures.append(f"channel[{row['index']}]: strict but not incoherent")
        if row["family"] in ("permutation", "dephasing") and not row["strict"]:
            failures.append(f"channel[{row['index']}]: {row['family']} failed strictness")

    s2 = math.sqrt(0.5)
    canonical = iops.pad_kraus(
        [
            np.array([[[s2, s2], [s2, -s2]]], dtype=complex),  # Hadamard
            np.array([[[s2, s2], [0, 0]], [[0, 0], [s2, -s2]]], dtype=complex),  # |0><+|, |1><-|
        ]
    )
    iops.require_kraus_stack(canonical)
    frames = iops.in_frame_stack(canonical, np.stack([np.eye(2, dtype=complex)] * 2))
    strict = iops.strict_incoherent_stack(frames)
    expected = {"hadamard": (False, False), "plus-channel": (True, False)}
    for (name, wants), (inc, _), (st, _) in zip(
        expected.items(), iops.incoherent_stack(frames), strict
    ):
        for test, value, want in zip(("incoherent", "strict"), (inc, st), wants):
            label = f"{name} {test}"
            rows.append({"index": label, "family": "canonical", "incoherent": inc, "strict": st})
            if value != want:
                failures.append(f"canonical case {label}: got {value}, expected {want}")
    if strict[1][1] is None:
        failures.append("plus-channel strictness failure carries no witness")
    return SuiteResult("lemma1", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Classical-computation embedding (isomorphism)


def _iso_row(seed: int, i: int) -> dict:
    gen = substream(seed, _LANE_ISO, i)
    d = int(gen.integers(2, 9))
    g = gen.random((d, d))
    g /= g.sum(axis=0, keepdims=True)
    stoch = iops.StochasticMatrix(g)
    basis = random_product_basis((d,), gen)
    channel = iops.embed_classical(stoch, basis)
    # One strictness test per instance: a channel that fails it fails its
    # row, and only a strict one takes the round trip (extract_classical
    # without its own test).
    frames = iops.in_frame_stack(channel.kraus[None], basis.matrix[None])
    ((strict, _),) = iops.strict_incoherent_stack(frames)
    rt_err = float(np.max(np.abs(iops.classical_action(frames[0]).matrix - g))) if strict else None
    p = gen.random(d)
    p /= p.sum()
    b = basis.matrix
    rho = DensityMatrix((b * p) @ b.conj().T, (d,))
    out = iops.apply_channel(channel, rho)
    out_frame = b.conj().T @ out.matrix @ b
    action_err = float(np.max(np.abs(np.diagonal(out_frame).real - g @ p)))
    off_err = float(np.max(np.abs(out_frame - np.diag(np.diagonal(out_frame)))))
    return {
        "index": i,
        "dim": d,
        "strict": strict,
        "round_trip_err": rt_err,
        "action_err": max(action_err, off_err),
    }


def _iso_rows(seed: int, _family: str, start: int, stop: int) -> list[dict]:
    return [_iso_row(seed, i) for i in range(start, stop)]


def suite_isomorphism(seed: int, scale: float = 1.0) -> SuiteResult:
    """Embedding of stochastic maps round-trips exactly and reproduces the
    classical action on diagonal states.  An embedded channel that is not
    strict incoherent is a failure of its row, with no round trip (None)."""
    rows = _sweep(_iso_rows, seed, _families("isomorphism", scale))
    failures = []
    for row in rows:
        if not row["strict"]:
            failures.append(f"iso[{row['index']}]: embedded channel not strict")
        elif row["round_trip_err"] > ATOL_IDENTITY:
            failures.append(f"iso[{row['index']}]: round trip err {row['round_trip_err']:.3e}")
        if row["action_err"] > ATOL_IDENTITY:
            failures.append(f"iso[{row['index']}]: action err {row['action_err']:.3e}")
    return SuiteResult("isomorphism", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Precision scaling (se-scaling)


def suite_se_scaling(seed: int) -> SuiteResult:
    """Empirical standard error tracks the predicted inverse-root law within
    a factor of three, with log-log slope -0.5 +/- 0.1, over 1e3, 1e4 and
    1e5 shots and 6 runs per shot count.  This ensemble is fixed: it takes
    no scale, so ``--ensemble-size`` does not change it."""
    from .ndqc2 import iota_factor, predicted_se, sample_run_with_record

    gen = substream(seed, _LANE_SE)
    u_a = haar_unitary(4, gen)
    u_b = haar_unitary(4, gen)
    rows = []
    failures = []
    mean_ses = []
    for m in _SE_SHOT_GRID:
        ses = []
        for r in range(_SE_REPS):
            report, _ = sample_run_with_record(2, u_a, u_b, m, seed + 7919 * r)
            ses.append(report.se_empirical)
        se_mean = float(np.mean(ses))
        predicted = predicted_se(iota_factor(u_a), iota_factor(u_b), m, report.rec_control)
        ratio = se_mean / predicted
        rows.append({"shots": m, "se_empirical": se_mean, "se_predicted": predicted, "ratio": ratio})
        mean_ses.append(se_mean)
        if not (1.0 / 3.0 <= ratio <= 3.0):
            failures.append(f"shots={m}: SE ratio {ratio:.3f} outside [1/3, 3]")
    slope = float(np.polyfit(np.log(_SE_SHOT_GRID), np.log(mean_ses), 1)[0])
    rows.append({"shots": "slope", "se_empirical": slope, "se_predicted": -0.5, "ratio": None})
    if abs(slope + 0.5) > 0.1:
        failures.append(f"log-log slope {slope:.3f} outside -0.5 +/- 0.1")
    return SuiteResult("se-scaling", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Marginal privacy (privacy)


def _diagonal_phase_unitary(n_qubits: int, gen, max_phase: float) -> np.ndarray:
    d = 2**n_qubits
    phases = gen.uniform(-max_phase, max_phase, size=d)
    return np.diag(np.exp(1j * phases))


def suite_privacy(seed: int, scale: float = 1.0) -> SuiteResult:
    """Correlated-input runs leak nothing into single-server marginals; the
    single-sided protocol with a large normalized trace is flagged in each
    of 10 runs.  Every run takes 40 000 shots."""
    from .ndqc2 import iota_factor, privacy_audit, sample_run_with_record

    rows = []
    failures = []
    bound = 4.0 / math.sqrt(_PRIVACY_SHOTS / 4.0)
    ((_, n_unitaries),) = _families("privacy", scale)
    for i in range(n_unitaries):
        gen = substream(seed, _LANE_PRIVACY, 0, i)
        n_q = int(gen.integers(1, 3))
        u_a = haar_unitary(2**n_q, gen)
        u_b = haar_unitary(2**n_q, gen)
        _, record = sample_run_with_record(2, u_a, u_b, _PRIVACY_SHOTS, seed + i)
        audit = privacy_audit([record])
        worst = max(abs(c.mean) for c in audit.checks)
        rows.append(
            {"kind": "task2", "index": i, "worst_marginal": worst, "verdict": audit.verdict}
        )
        if worst > bound:
            failures.append(f"task2[{i}]: marginal {worst:.4f} > {bound:.4f}")
        if not audit.passed:
            failures.append(f"task2[{i}]: audit verdict {audit.verdict}")
    for i in range(_PRIVACY_LEAK_RUNS):
        gen = substream(seed, _LANE_PRIVACY, 1, i)
        u_a = _diagonal_phase_unitary(int(gen.integers(1, 4)), gen, math.pi / 4)
        u_b = haar_unitary(2, gen)
        assert abs(iota_factor(u_a)) >= 0.5
        _, record = sample_run_with_record(1, u_a, u_b, _PRIVACY_SHOTS, seed + 100 + i)
        audit = privacy_audit([record])
        rows.append(
            {
                "kind": "task1-leak",
                "index": i,
                "worst_marginal": max(abs(c.mean) for c in audit.checks),
                "verdict": audit.verdict,
            }
        )
        if audit.verdict != "leak detected":
            failures.append(f"task1-leak[{i}]: audit verdict {audit.verdict}")
    return SuiteResult("privacy", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Dispatch


def run_suite(name: str, seed: int, ensemble_scale: float = 1.0) -> list[SuiteResult]:
    """Run one named suite (or all); ensemble sizes scale linearly, except
    ``se-scaling``'s, which is fixed (3 shot counts x 6 runs) and ignores
    ``ensemble_scale``."""
    dispatch = {
        "thm4": lambda: suite_thm4(seed, ensemble_scale),
        "thm5": lambda: suite_thm5(seed, ensemble_scale),
        "thm6": lambda: suite_thm6(seed, ensemble_scale),
        "lemma1": lambda: suite_lemma1(seed, ensemble_scale),
        "isomorphism": lambda: suite_isomorphism(seed, ensemble_scale),
        "se-scaling": lambda: suite_se_scaling(seed),
        "privacy": lambda: suite_privacy(seed, ensemble_scale),
    }
    if name == "all":
        return [dispatch[suite]() for suite in SUITE_NAMES]
    if name not in dispatch:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [dispatch[name]()]
