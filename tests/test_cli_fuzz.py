"""Arbitrary JSON, and arbitrary bytes, into the CLI: exit 0, 1 or 2, no
traceback.

Inputs are bounded in size.  Half are free-form JSON; the other half keep
the shape of a pair ({"a": {"field", "rows"}, "astar": ...}) or of a
parameter array ({"field", "d", "theta", ...}) with arbitrary leaves, so
the fuzzing reaches field construction, parsing and recognition instead of
stopping at the first missing key.  Byte inputs, which need not be UTF-8
or JSON, reach the pair, array and batch commands through files and
standard input.  Valid parameter arrays with large-height rational
entries must go through every array command with exit 0, and their
bidiagonal pairs must verify.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from leonardpairs import cli
from leonardpairs.field import Rationals
from leonardpairs.generators import _complete_array, _recurrence
from leonardpairs.parray import parameter_array_to_dict, validate

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


ARRAY_COMMANDS = (
    ("construct",),
    ("tdconstruct",),
    ("tdconstruct", "--split", "symmetric"),
    ("gmatrix",),
    ("polys",),
    ("classify",),
    ("validate-array",),
    ("roundtrip",),
)

# rationals of up to about 100 bits, and ones just off 1 whose
# squares minus 4 have large numerators and denominators
big = st.integers(-(2**100), 2**100)
heights = st.builds(Fraction, big, st.integers(1, 2**100)) | st.builds(
    lambda n, k: Fraction(n + k, n), st.integers(10**20, 10**22), st.integers(-9, 9)
)
array_entries = entries | heights.map(str)


@st.composite
def array_shaped(draw):
    d = draw(st.integers(0, 4))
    length = st.integers(max(d - 1, 0), d + 1) if draw(st.booleans()) else st.just(d)

    def seq(n):
        return draw(st.lists(array_entries, min_size=n, max_size=n))

    return {
        "field": draw(fields),
        "d": draw(st.sampled_from([d, d + 1, "3", None])) if draw(st.booleans()) else d,
        "theta": seq(draw(length) + 1),
        "theta_star": seq(draw(length) + 1),
        "varphi": seq(draw(length)),
        "phi": seq(draw(length)),
    }


arrays = array_shaped() | anything


def _write(tmp, name, obj):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


@FUZZ
@given(array=arrays)
def test_array_commands_survive_arbitrary_json(array):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "array.json", array)
        for command in ARRAY_COMMANDS:
            _run(*command, "--in", path)


# raw bytes, and JSON text in encodings other than UTF-8 (with and
# without a byte-order mark)
raw_bytes = st.binary(max_size=64) | st.builds(
    lambda obj, codec: json.dumps(obj, ensure_ascii=False).encode(codec, "replace"),
    pairs | arrays,
    st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "latin-1"]),
)


@FUZZ
@given(data=raw_bytes, batch=st.lists(raw_bytes, max_size=2))
def test_commands_survive_arbitrary_bytes(data, batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(data)
        for command in ("verify", "extract", "awfit"):
            _run(command, "--pair", path)
        for command in ARRAY_COMMANDS:
            _run(*command, "--in", path)
        for i, blob in enumerate(batch):
            with open(os.path.join(tmp, f"p{i}.json"), "wb") as handle:
                handle.write(blob)
        _run("verify", "--batch", tmp)
    stdin = sys.stdin
    try:
        for argv in (("verify", "--pair", "-"), ("validate-array", "--in", "-")):
            sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
            _run(*argv)
    finally:
        sys.stdin = stdin


@settings(FUZZ, max_examples=30)
@given(
    d=st.integers(1, 4),
    r=heights,
    starts=st.lists(heights, min_size=3, max_size=3),
    dual_starts=st.lists(heights, min_size=3, max_size=3),
    phi1=heights,
)
def test_valid_arrays_of_large_height_exit_zero(d, r, starts, dual_starts, phi1):
    field = Rationals()
    theta = _recurrence(field, [field.coerce(v) for v in starts], field.coerce(r), d)
    theta_star = _recurrence(field, [field.coerce(v) for v in dual_starts], field.coerce(r), d)
    assume(theta is not None and theta_star is not None and phi1 != 0)
    pa = _complete_array(field, theta, theta_star, field.coerce(phi1))
    assume(pa is not None and validate(pa).valid)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "array.json", parameter_array_to_dict(pa))
        for command in ARRAY_COMMANDS:
            if command[-1] != "symmetric":  # needs square roots in Q
                assert _run(*command, "--in", path, "--strict") == 0, command
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["construct", "--in", path]) == 0
        pair = os.path.join(tmp, "pair.json")
        with open(pair, "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
        assert _run("verify", "--pair", pair, "--strict") == 0
