"""One digest over the bytes of many seeded CLI invocations.

The structured matrices (the split and tridiagonal forms, the sl2 and
U_q(sl2) modules, the lattice chains, the non-examples) and every
command that builds from a parameter array are run over Q, GF(7),
GF(101) and Q(sqrt 5).  The exit code, standard output and standard
error of each invocation go into one SHA-256 digest, so any change in
any byte of any of them shows.  A second digest covers extraction and
the Askey-Wilson fit: `extract` and `awfit` on every generated pair, and
`extract` on every pair that `construct` and `tdconstruct` build from a
valid array.  A third covers `gen lattice` on the (4,2) and (3,3)
lattices, the two that the benchmark builds beyond the small ones in the
first digest, and a fourth `gen lattice` on the larger (5,2) and (4,3)
lattices, of 374 and 212 subspaces.  A fifth covers `verify`, `extract`
and `awfit` on dense pairs over Q, GF(101) and Q(sqrt 5): the split forms
of seeded arrays of diameter 2 to 6, each conjugated by a seeded
invertible matrix, and one pair per field whose Hessenberg form splits.
These are the inputs on which the Hessenberg reduction, the eigenvector
kernels and the inverse all run.  A sixth covers the `gen` options that
the others leave at their defaults: `example2`, `uq` with explicit
--alpha, --beta and --epsilon, `lattice` with explicit --alpha and
--beta, and `sl2` with --combo and --combo-star.  The digests were recorded from the
same invocations on an earlier tree; when an output is meant to change,
rerun this file as a script to print the new digests.
"""

import contextlib
import hashlib
import io
import json
import random

from leonardpairs import cli
from leonardpairs.field import PrimeField, QuadraticExtension, Rationals
from leonardpairs.generators import _random_invertible
from leonardpairs.matrix import conjugate, matrix_to_dict
from leonardpairs.parray import construct_bidiagonal

from corpusgen import dense_reduced_pair, random_valid_array

GOLDEN_DIGEST = "d656beb6690a6ad016db9a37bb4d12ffd2c3cfccab662aa79914196d34f331bd"
EXTRACTION_DIGEST = "36cdccd192af6888860cb45a4c6339566cc0320f21fe86f27791b1eac4cd66ad"
LATTICE_DIGEST = "6cf37287f0dbfe4516d42766578d0166811799ac7faa119864e07a435d45637e"
LARGE_LATTICE_DIGEST = "1fb750a4e2ca2cb45094c0fe93e434cab07149009010f396833e000adbbad4b5"
DENSE_DIGEST = "bfb93612c776f21e7da2317f77fed12221646e06eea51568ef2339049423d632"
GEN_DIGEST = "8489df39fcf5150fd79d1103d585bc9912522cdee7311093f73499b69b3a2f3a"

FIELDS = ("Q", "GF(7)", "GF(101)", "Q(sqrt 5)")
NONEXAMPLE_KINDS = ("repeated-eigenvalue", "reducible", "one-sided", "defective")
ARRAY_COMMANDS = (
    ("construct",),
    ("tdconstruct", "--split", "unit"),
    ("tdconstruct", "--split", "symmetric"),
    ("gmatrix",),
    ("roundtrip",),
    ("classify",),
    ("polys",),
    ("validate-array",),
)
# the array commands whose output, when they construct, is a pair
PAIR_COMMANDS = ("construct", "tdconstruct")
DENSE_FIELDS = (Rationals(), PrimeField(101), QuadraticExtension(5))
# gen invocations, each run over every field, that set what the others default
GEN_OPTIONS = (
    ("--source", "example2"),
    ("--source", "uq", "--d", "2", "--q", "3", "--alpha", "3", "--beta", "5", "--epsilon", "-1"),
    ("--source", "uq", "--d", "3", "--q", "3", "--epsilon", "-1"),
    ("--source", "sl2", "--d", "3", "--combo", "1,4,0", "--combo-star", "0,0,3"),
    ("--source", "sl2", "--d", "2", "--combo", "1,1,0", "--combo-star", "0,0,1"),
    ("--source", "sl2", "--d", "2", "--combo", "1,2"),
)


def _dense_pairs():
    """(label, A, A*) for each dense pair: split forms of seeded arrays of
    diameter 2..6 conjugated by seeded invertible matrices, then one pair
    per field with a split Hessenberg form."""
    for k, field in enumerate(DENSE_FIELDS):
        rng = random.Random(1900 + k)
        for d in range(2, 7):
            b, b_star = construct_bidiagonal(random_valid_array(field, rng, d))
            s = _random_invertible(field, d + 1, rng)
            yield f"dense {field.name} d={d}", conjugate(b, s), conjugate(b_star, s)
        yield (f"reduced {field.name} d=4", *dense_reduced_pair(field, 4, seed=1910 + k))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _tampered(pa: dict) -> list[tuple[str, dict]]:
    """Two invalid neighbours of an array of diameter >= 1: a repeated
    eigenvalue (PA1 fails) and a changed varphi_1."""
    if pa["d"] == 0:
        return []
    repeated = dict(pa, theta=[pa["theta"][-1]] + pa["theta"][1:])
    other = "2" if pa["varphi"][0] != "2" else "3"
    changed = dict(pa, varphi=[other] + pa["varphi"][1:])
    return [("repeated", repeated), ("changed", changed)]


def transcripts(workdir) -> tuple[list[str], ...]:
    """Label, exit code, stdout and stderr of every invocation, in order:
    the golden invocations, the extraction ones, the two sets of larger
    lattices, the dense pairs, then the explicit `gen` options."""
    lines, extraction, lattices, large, dense, gen = [], [], [], [], [], []

    def record(label, argv, into=lines):
        code, out, err = _run(argv)
        into.append(f"{label}\n{code}\n{out}\n{err.replace(str(workdir), '<dir>')}")
        return code, out

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    for n, q in ((2, 2), (3, 2), (2, 3), (2, 4)):
        argv = ["gen", "--source", "lattice", "--n", str(n), "--q", str(q)]
        record(f"lattice {n} {q}", argv)
    for n, q in ((4, 2), (3, 3)):
        argv = ["gen", "--source", "lattice", "--n", str(n), "--q", str(q)]
        record(f"lattice {n} {q}", argv, lattices)
    for n, q in ((5, 2), (4, 3)):
        argv = ["gen", "--source", "lattice", "--n", str(n), "--q", str(q)]
        record(f"lattice {n} {q}", argv, large)
    for fi, field in enumerate(FIELDS):
        pairs = []
        for d in (1, 2, 3, 4):
            argv = ["gen", "--source", "sl2", "--d", str(d), "--field", field]
            pairs.append((" ".join(argv), record(" ".join(argv), argv)))
        for d in (2, 3):
            argv = ["gen", "--source", "uq", "--d", str(d), "--q", "2", "--field", field]
            pairs.append((" ".join(argv), record(" ".join(argv), argv)))
        for kind in NONEXAMPLE_KINDS:
            for size in (2, 3, 4):
                argv = [
                    "gen", "--source", "random-nonexample", "--size", str(size),
                    "--kind", kind, "--seed", str(size), "--field", field,
                ]
                pairs.append((" ".join(argv), record(" ".join(argv), argv)))
        for label, (code, out) in pairs:
            if code == 0:
                path = write(f"pair{fi}.json", json.loads(out))
                record(f"verify {label}", ["verify", "--pair", path])
                for command in ("extract", "awfit"):
                    record(f"{command} {label}", [command, "--pair", path], extraction)
        for d in (0, 1, 2, 3, 4):
            argv = ["gen", "--source", "random-array", "--d", str(d), "--seed", "1",
                    "--field", field]
            code, out = record(" ".join(argv), argv)
            if code != 0:
                continue
            pa = json.loads(out)["parameter_array"]
            for tag, doc in [("valid", pa)] + _tampered(pa):
                path = write(f"array{fi}.json", doc)
                for command in ARRAY_COMMANDS:
                    label = f"{' '.join(command)} {tag} {field} d={d}"
                    code, out = record(label, [command[0], "--in", path, *command[1:]])
                    built = json.loads(out) if code == 0 else {}
                    if tag == "valid" and command[0] in PAIR_COMMANDS and "astar" in built:
                        pair = write(f"built{fi}.json", built)
                        record(f"extract {label}", ["extract", "--pair", pair], extraction)
    for label, a, a_star in _dense_pairs():
        path = write("dense.json", {"a": matrix_to_dict(a), "astar": matrix_to_dict(a_star)})
        for command in ("verify", "extract", "awfit"):
            record(f"{command} {label}", [command, "--pair", path], dense)
    for argv in GEN_OPTIONS:
        for field in FIELDS:
            argv = ["gen", *argv, "--field", field]
            record(" ".join(argv), argv, gen)
    for n, q in ((2, 3), (3, 2)):
        for scales in (("--alpha", "2", "--beta", "3"), ("--alpha", "2"), ("--beta", "-1")):
            argv = ["gen", "--source", "lattice", "--n", str(n), "--q", str(q), *scales]
            record(" ".join(argv), argv, gen)
    return lines, extraction, lattices, large, dense, gen


def digests(workdir) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256("\x00".join(lines).encode()).hexdigest()
        for lines in transcripts(workdir)
    )


def test_cli_outputs_match_golden_digest(tmp_path):
    assert digests(tmp_path) == (
        GOLDEN_DIGEST,
        EXTRACTION_DIGEST,
        LATTICE_DIGEST,
        LARGE_LATTICE_DIGEST,
        DENSE_DIGEST,
        GEN_DIGEST,
    )


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(*digests(pathlib.Path(tmp)), sep="\n")
