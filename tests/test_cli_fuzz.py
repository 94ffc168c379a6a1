"""Arbitrary JSON into the pair-reading commands: exit 0, 1 or 2, no traceback.

Inputs are bounded in size.  Half are free-form JSON; the other half keep
the {"a": {"field", "rows"}, "astar": ...} shape with arbitrary leaves, so
the fuzzing reaches field construction, parsing and recognition instead of
stopping at the first missing key.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leonardpairs import cli

scalars = st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=8)
anything = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
entries = (
    st.integers(-9, 9)
    | st.sampled_from(["0", "1", "-1", "1/2", "s", "1+s", "2*s", "x", "1/0", ""])
    | scalars
)
fields = st.sampled_from(
    [
        {"kind": "rationals"},
        {"kind": "prime_field", "p": 5},
        {"kind": "prime_field", "p": 6},
        {"kind": "quadratic_extension", "discriminant": 5},
        {"kind": "quadratic_extension", "discriminant": 4},
        {"kind": "octonions"},
        {},
    ]
) | anything


@st.composite
def square_rows(draw):
    n = draw(st.integers(1, 4))
    width = st.integers(n - 1, n + 1) if draw(st.booleans()) else st.just(n)
    widths = [draw(width) for _ in range(n)]
    return [draw(st.lists(entries, min_size=w, max_size=w)) for w in widths]


@st.composite
def wellformed_pairs(draw):
    """Same field, same size, valid entries; often tridiagonal and diagonal."""
    field = draw(st.sampled_from(VALID_FIELDS))
    cells = ["0", "1", "-1", "2", "3", "1/2"]
    if field["kind"] == "quadratic_extension":
        cells += ["s", "1+s"]
    n = draw(st.integers(1, 5))
    shaped = draw(st.booleans())

    def member(band):
        return {
            "field": field,
            "rows": [
                [draw(st.sampled_from(cells)) if abs(i - j) <= band or not shaped else "0"
                 for j in range(n)]
                for i in range(n)
            ],
        }

    return {"a": member(1), "astar": member(0)}


VALID_FIELDS = [
    {"kind": "rationals"},
    {"kind": "prime_field", "p": 5},
    {"kind": "quadratic_extension", "discriminant": 5},
]
matrices = st.fixed_dictionaries({"field": fields, "rows": square_rows() | anything})
pairs = wellformed_pairs() | st.fixed_dictionaries({"a": matrices, "astar": matrices}) | anything

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code


@FUZZ
@given(pair=pairs)
def test_pair_commands_survive_arbitrary_json(pair):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pair, handle)
        for command in ("verify", "extract", "awfit"):
            _run(command, "--pair", path)
            _run(command, "--pair", path, "--strict")


@FUZZ
@given(batch=st.lists(pairs, min_size=1, max_size=3))
def test_batch_survives_arbitrary_json(batch):
    with tempfile.TemporaryDirectory() as tmp:
        for i, pair in enumerate(batch):
            with open(os.path.join(tmp, f"p{i}.json"), "w", encoding="utf-8") as handle:
                json.dump(pair, handle)
        _run("verify", "--batch", tmp, "--jobs", "1")
