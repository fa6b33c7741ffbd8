"""CLI fuzz property: any JSON state file ends in a contract exit code."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from netcoh.cli import main

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
# Pairs of small numbers in square counts, so that some files parse and
# reach the state checks (exit 3) or a report (exit 0).
NUMBERS = st.sampled_from([0, 1, 0.5, 0.25, -0.5, float("nan")])
PAIR_LISTS = st.sampled_from([1, 4, 9]).flatmap(
    lambda n: st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=n, max_size=n)
)
SMALL_DIMS = st.lists(st.integers(-1, 4), max_size=3) | st.sampled_from(
    [[1, 1], [2, 1], [1, 2], [2, 2], [1, 4], [4, 1], [2, 2, 1], [-2, -2]]
)


def _maximally_mixed(n: int) -> dict:
    entries = [[1.0 / n if i == j else 0.0, 0.0] for i in range(n) for j in range(n)]
    return {"dim": n, "entries": entries}


# Valid matrices under arbitrary "dims": some factorise and reach a report.
MIXED_STATES = st.builds(
    lambda n, dims: dict(_maximally_mixed(n), dims=dims),
    st.sampled_from([1, 2, 4]),
    SMALL_DIMS | JSON_VALUES,
)
STATE_FILES = (
    MIXED_STATES
    | st.fixed_dictionaries(
        {},
        optional={
            "dim": JSON_VALUES | st.sampled_from([1, 2, 3]),
            "entries": JSON_VALUES | PAIR_LISTS,
            "dims": JSON_VALUES | SMALL_DIMS,
        },
    )
    | JSON_VALUES
)


# Derandomized and without an example database, so every run draws the same
# examples and writes nothing.
@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(obj=STATE_FILES)
def test_coherence_exit_code_is_in_contract(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(json.dumps(obj))
    assert main(["coherence", str(path)]) in (0, 2, 3, 4)
