"""One digest over the bytes of many seeded CLI invocations.

The structured matrices (the split and tridiagonal forms, the sl2 and
U_q(sl2) modules, the lattice chains, the non-examples) and every
command that builds from a parameter array are run over Q, GF(7),
GF(101) and Q(sqrt 5).  The exit code, standard output and standard
error of each invocation go into one SHA-256 digest, so any change in
any byte of any of them shows.  The digest was recorded from the same
invocations on an earlier tree; when an output is meant to change,
rerun this file as a script to print the new digest.
"""

import contextlib
import hashlib
import io
import json

from leonardpairs import cli

GOLDEN_DIGEST = "d656beb6690a6ad016db9a37bb4d12ffd2c3cfccab662aa79914196d34f331bd"

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


def transcript(workdir) -> list[str]:
    """Label, exit code, stdout and stderr of every invocation, in order."""
    lines = []

    def record(label, argv):
        code, out, err = _run(argv)
        lines.append(f"{label}\n{code}\n{out}\n{err.replace(str(workdir), '<dir>')}")
        return code, out

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    for n, q in ((2, 2), (3, 2), (2, 3), (2, 4)):
        argv = ["gen", "--source", "lattice", "--n", str(n), "--q", str(q)]
        record(f"lattice {n} {q}", argv)
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
                    record(f"{' '.join(command)} {tag} {field} d={d}",
                           [command[0], "--in", path, *command[1:]])
    return lines


def digest(workdir) -> str:
    return hashlib.sha256("\x00".join(transcript(workdir)).encode()).hexdigest()


def test_cli_outputs_match_golden_digest(tmp_path):
    assert digest(tmp_path) == GOLDEN_DIGEST


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(digest(pathlib.Path(tmp)))
