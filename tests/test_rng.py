"""Philox substreams: the rekeyed many-stream form against one fresh
generator per stream, the Ginibre row layout, and where generators are built."""

import ast
from pathlib import Path

import numpy as np
import pytest

from netcoh.rng import draw_substreams, ginibre, ginibre_stack, substream


def _mixed(gen):
    return (
        gen.integers(2),
        gen.standard_normal(3),
        gen.random(),
        gen.permutation(5),
        gen.integers(9, size=2),
    )


def _half_word(gen):
    # Three 32-bit draws: the last leaves half of a 64-bit word buffered,
    # which the next stream must not see.
    return (
        gen.integers(9, dtype=np.int32),
        gen.standard_normal(2),
        gen.integers(1000, dtype=np.int32),
        gen.integers(7, dtype=np.int32),
    )


def _as_bytes(draws):
    return [[np.asarray(x).tobytes() for x in draw] for draw in draws]


@pytest.mark.parametrize("draw", [_mixed, _half_word])
def test_many_streams_match_one_generator_each(draw):
    lanes = [(40, 1, i) for i in range(30)] + [(7,), (), (60, 1, 3, 2), (40, 1, 0)]
    fresh = [draw(substream(43, *lane)) for lane in lanes]
    assert _as_bytes(draw_substreams(43, lanes, draw)) == _as_bytes(fresh)


def test_half_word_draw_leaves_a_buffered_half():
    gen = substream(43, 1)
    _half_word(gen)
    assert gen.bit_generator.state["has_uint32"] == 1


def test_many_streams_take_any_iterable_and_none():
    lanes = ((11, i) for i in range(4))
    got = draw_substreams(5, lanes, lambda gen: gen.random(2))
    assert _as_bytes([got]) == _as_bytes([[substream(5, 11, i).random(2) for i in range(4)]])
    assert draw_substreams(5, [], _mixed) == []


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_ginibre_is_one_row_of_the_stack(dim):
    rows = np.stack([substream(3, dim, i).standard_normal(2 * dim * dim) for i in range(6)])
    stack = ginibre_stack(rows, dim)
    assert stack.shape == (6, dim, dim)
    for i, z in enumerate(stack):
        gen = substream(3, dim, i)
        # Real parts first, then imaginary parts, from one run of normals.
        assert np.array_equal(ginibre(dim, gen), z)
        split = substream(3, dim, i)
        re, im = split.standard_normal((dim, dim)), split.standard_normal((dim, dim))
        assert np.array_equal((re + 1j * im) / np.sqrt(2.0), z)


# Calls that build a generator or bit generator; only rng.substream may make
# one, so every stream's key is derived in one place.
GENERATOR_FACTORIES = {
    "Philox", "Generator", "default_rng", "RandomState", "PCG64", "MT19937", "SFC64"
}
GENERATOR_HOMES = {("rng", "substream")}


def _generator_builds(tree: ast.AST, function: str = ""):
    """(enclosing function, line) of each call under ``tree`` whose callee
    is named like a generator factory."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _generator_builds(node, node.name)
            continue
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in GENERATOR_FACTORIES:
                yield function, node.lineno
        yield from _generator_builds(node, function)


def test_generators_are_built_only_in_substream():
    import netcoh

    strays = []
    for path in sorted(Path(netcoh.__file__).parent.glob("*.py")):
        for function, line in _generator_builds(ast.parse(path.read_text())):
            if (path.stem, function) not in GENERATOR_HOMES:
                strays.append(f"{path.name}:{line} in {function or '<module>'}")
    assert strays == []
