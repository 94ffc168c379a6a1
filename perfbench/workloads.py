"""Seeded inputs, operations and output checks of the three workloads.

Every operation is one call of ``leonardpairs.cli.run(argv)``.  Besides
its argv it knows how to check the captured output, how to make the same
library call without the command-line layer (``library``), and how to
replay that call stage by stage through the modules' public functions
(``replay``) so a :class:`tracing.Tracer` can time each stage.

Workloads:

* ``ladder``: ``verify --pair`` on structured pairs of growing size, where
  recognition's support products and idempotents dominate.
* ``corpus``: one ``verify --batch`` over a directory of small seeded
  pairs over Q, GF(101), GF(999983) and Q(sqrt 5), a quarter of them
  certified non-examples; root finding and per-file cost dominate.
* ``build``: the construction direction, ``gen`` plus the array commands,
  each invocation timed on its own.
"""

from __future__ import annotations

import json
import os
import random

from leonardpairs import generators as lp_generators
from leonardpairs import leonard as lp_leonard
from leonardpairs import matrix as lp_matrix
from leonardpairs import parray as lp_parray
from leonardpairs.errors import LeonardPairsError
from leonardpairs.field import PrimeField, QuadraticExtension, Rationals
from leonardpairs.generators import NONEXAMPLE_KINDS

# Q inputs of the corpus stay at d <= Q_CORPUS_MAX_D.  Root finding over Q
# enumerates divisors: one seeded d = 5 array took 55 s to verify, and at
# d = 4 the time per pair is heavy-tailed (60 draws: median 0.33 s,
# maximum 5.9 s), so the corpus total would depend on the seed far more
# than on the code.  At d = 3 roots are still most of the verify time.
Q_CORPUS_MAX_D = 3

FIELDS = {
    "Q": Rationals,
    "GF(101)": lambda: PrimeField(101),
    "GF(999983)": lambda: PrimeField(999983),
    "Q(sqrt 5)": lambda: QuadraticExtension(5),
}

LADDER_SL2_DIAMETERS = (6, 8, 10)  # a pass takes about 5 s, so a run makes several
LADDER_UQ_DIAMETER = 8
LADDER_SPLIT_DIAMETER = 6  # uq over Q(sqrt 5) with q the golden ratio, split form
LADDER_NONEXAMPLE_SIZE = 13

# (field, d, conjugated).  The Q(sqrt 5) entries are golden-ratio uq pairs,
# which are in split form: a seeded random array over Q(sqrt 5) costs up to
# 50% more or less to verify depending on the seed.
CORPUS_PAIRS = (
    [("Q", 2, False)] * 4 + [("Q", 2, True)] * 2
    + [("Q", Q_CORPUS_MAX_D, False)] * 2 + [("Q", Q_CORPUS_MAX_D, True)] * 2
    + [("GF(101)", d, c) for d, c in ((2, False), (3, True), (4, False), (4, True))]
    + [("GF(101)", d, c) for d, c in ((5, True), (6, False), (6, True))]
    + [("GF(999983)", 3, True), ("GF(999983)", 4, False)]
    + [("Q(sqrt 5)", d, False) for d in (2, 3, 4, 5)]
)
# (field, matrix size) for each of the four non-example kinds.
CORPUS_NONEXAMPLES = (("Q", 3), ("GF(101)", 5))
# The corpus is split round-robin into this many directories, one
# verify --batch each, so that each pass has several invocations of about
# a second, with host-speed samples between them (see hostspeed.py).
CORPUS_SHARDS = 6

BUILD_ARRAYS = (
    ("Q", 4), ("Q", 8), ("Q", 12),
    ("GF(101)", 4), ("GF(101)", 8), ("GF(101)", 12),
    ("Q(sqrt 5)", 3), ("Q(sqrt 5)", 6), ("Q(sqrt 5)", 9),
)
ARRAY_COMMANDS = ("construct", "tdconstruct", "gmatrix", "polys", "roundtrip", "classify")
# The (5, 2) lattice is left out: one 3.5 s invocation was most of a pass,
# and its time alone moved ops_per_s by 25% between runs.
BUILD_LATTICES = ((4, 2), (3, 3))
BUILD_NONEXAMPLE = ("GF(101)", 6)

TINY = {
    "sl2": (3, 4),
    "uq": 4,
    "nonexample": 4,
    "arrays": (("Q", 3), ("GF(101)", 4), ("Q(sqrt 5)", 3)),
    "lattices": ((2, 2), (3, 2)),
    "corpus": (
        ("Q", 2, False), ("Q", 3, True), ("GF(101)", 3, True),
        ("GF(999983)", 2, False), ("Q(sqrt 5)", 2, False),
    ),
}


def render(payload) -> str:
    """The command line's own rendering: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def payload_bits(payload) -> int:
    """Bit length of one field payload: int, rational, or (a, b) pair."""
    if isinstance(payload, tuple):
        return sum(payload_bits(p) for p in payload)
    if isinstance(payload, int):
        return abs(payload).bit_length()
    return abs(int(payload.numerator)).bit_length() + int(payload.denominator).bit_length()


def matrix_bits(m) -> int:
    return sum(payload_bits(v) for row in m.rows for v in row)


def array_bits(pa) -> int:
    return sum(
        payload_bits(v) for seq in (pa.theta, pa.theta_star, pa.varphi, pa.phi) for v in seq
    )


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _pair_doc(a, a_star) -> dict:
    return {"a": lp_matrix.matrix_to_dict(a), "astar": lp_matrix.matrix_to_dict(a_star)}


def _read_pair(path: str):
    obj = _read_json(path)
    return lp_matrix.matrix_from_dict(obj["a"]), lp_matrix.matrix_from_dict(obj["astar"])


def _read_array(path: str):
    return lp_parray.parameter_array_from_dict(_read_json(path))


def _serialize(field, seq) -> list:
    return [field.serialize(v) for v in seq]


def replay_verification(tr, a, a_star) -> None:
    """The stages of leonard.verification_report, one public call each.

    Module attributes are looked up at call time, so an installed tracer
    records a span around every call.
    """
    rec = lp_leonard.is_leonard_pair(a, a_star)
    lp_leonard.fit_askey_wilson(a, a_star)
    if not rec.is_pair:
        return
    pa = rec.canonical.parameter_array()
    lp_parray.validate(pa)
    lp_parray.fingerprint(pa)
    with tr.span("leonard.bidiagonal_roundtrip"):
        lp_leonard.system_from_parameter_array(pa).parameter_array()
    with tr.span("leonard.tridiagonal_roundtrip"):
        tri_a, tri_star = lp_parray.construct_tridiagonal(pa)
        lp_leonard.system_from_pair_with_orderings(
            tri_a, tri_star, pa.theta, pa.theta_star
        ).parameter_array()
    lp_parray.check_poly_characterization(pa)
    lp_parray.find_g_matrix(pa)


def check_report(report, expect_pair: bool, source_order) -> list[str]:
    """Problems with one verification report, empty when it is right."""
    if not isinstance(report, dict) or "is_leonard_pair" not in report:
        return ["report is not a verification report"]
    if report["is_leonard_pair"] is not expect_pair:
        return [f"is_leonard_pair is {report['is_leonard_pair']}, expected {expect_pair}"]
    if not expect_pair:
        return []
    problems = []
    if report.get("all_checks_passed") is not True:
        problems.append("all_checks_passed is not true")
    theta, theta_star = source_order
    wanted = {"theta": theta, "theta_star": theta_star}
    if wanted not in report.get("orderings", []):
        problems.append("the source (theta, theta*) ordering is not among the orderings")
    return problems


class Op:
    """One command-line invocation of a workload."""

    command = ""
    verifications = 1  # operations it counts towards ops_per_s

    def __init__(self, argv, size: int = 0, bits: int = 0):
        self.argv = argv
        self.size = size  # summed matrix size n of its inputs or outputs
        self.bits = bits  # summed bit length of its input entries
        self.payload = None  # last parsed output, rendered again by replay

    def check(self, rc: int, out: str) -> list[str]:
        """Problems with one captured run; each counts one failed operation."""
        if rc != 0:
            return [f"exit code {rc}"] * self.verifications
        try:
            self.payload = json.loads(out)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"] * self.verifications
        try:
            return self.check_payload(self.payload)
        except (AttributeError, KeyError, TypeError, ValueError, LeonardPairsError) as exc:
            return [f"output does not parse: {exc!r}"] * self.verifications

    def check_payload(self, payload) -> list[str]:
        raise NotImplementedError

    def extra_output(self) -> bytes:
        """Output bytes written to files rather than stdout."""
        return b""

    def library(self) -> None:
        """The library work of the command, without argv, files or JSON."""
        raise NotImplementedError

    def replay(self, tr) -> None:
        raise NotImplementedError

    def units(self):
        """(library call, traced replay) pairs, timed in turn when tracing."""
        return [(self.library, self.replay)]


class VerifyPair(Op):
    command = "verify"

    def __init__(self, path, a, a_star, expect_pair, source_order=None):
        super().__init__(["verify", "--pair", path], a.n, matrix_bits(a) + matrix_bits(a_star))
        self.path = path
        self.a, self.a_star = a, a_star
        self.expect_pair = expect_pair
        self.source_order = source_order

    def check_payload(self, payload):
        return check_report(payload, self.expect_pair, self.source_order)

    def library(self):
        lp_leonard.verification_report(self.a, self.a_star)

    def replay(self, tr):
        with tr.span("cli.parse"):
            a, a_star = _read_pair(self.path)
        replay_verification(tr, a, a_star)
        with tr.span("cli.render"):
            render(self.payload)


class VerifyBatch(Op):
    command = "verify-batch"

    def __init__(self, directory, pairs, jobs):
        """pairs: {file name: VerifyPair of that file}."""
        super().__init__(
            ["verify", "--batch", directory, "--jobs", str(jobs)],
            sum(p.size for p in pairs.values()),
            sum(p.bits for p in pairs.values()),
        )
        self.directory = directory
        self.pairs = pairs
        self.verifications = len(pairs)
        self.reports = {}

    def _report_path(self, name):
        return os.path.join(self.directory, name[: -len(".json")] + ".report.json")

    def check_payload(self, payload):
        problems = []
        if payload.get("checked") != len(self.pairs) or payload.get("errors") != 0:
            problems.append(f"batch summary reads {payload.get('checked')} checked, "
                            f"{payload.get('errors')} errors")
        results = payload.get("results", {})
        for name, pair in sorted(self.pairs.items()):
            row = results.get(name)
            try:
                with open(self._report_path(name), encoding="utf-8") as handle:
                    text = handle.read()
                report = json.loads(text)
            except (OSError, ValueError) as exc:
                problems.append(f"{name}: report unreadable: {exc}")
                continue
            self.reports[name] = report
            found = check_report(report, pair.expect_pair, pair.source_order)
            if row is None or row.get("is_leonard_pair") is not pair.expect_pair:
                found.append("summary verdict disagrees")
            if found:
                problems.append(f"{name}: {'; '.join(found)}")
        return problems

    def extra_output(self):
        chunks = []
        for name in sorted(self.pairs):
            with open(self._report_path(name), "rb") as handle:
                chunks.append(handle.read())
        return b"".join(chunks)

    def units(self):
        """One unit per file, so each file's library call is timed right
        before its replay, and a last one for the summary."""
        units = []
        for name, pair in sorted(self.pairs.items()):
            pair.payload = self.reports[name]
            units.append((pair.library, pair.replay))
        units.append((lambda: None, self._replay_summary))
        return units

    def _replay_summary(self, tr):
        with tr.span("cli.render"):
            render(self.payload)


class GenPair(Op):
    """gen for a source that emits a pair: sl2, uq, lattice, random-nonexample."""

    command = "gen"

    def __init__(self, argv, make, size=0, check_extra=None):
        super().__init__(argv, size)
        self.make = make  # () -> (a, a_star), through the generators module
        self.check_extra = check_extra

    def check_payload(self, payload):
        a = lp_matrix.matrix_from_dict(payload["a"])
        a_star = lp_matrix.matrix_from_dict(payload["astar"])
        problems = []
        if a.n != a_star.n or (self.size and a.n != self.size):
            problems.append(f"pair has sizes {a.n} and {a_star.n}, expected {self.size}")
        self.size = a.n
        if self.check_extra is not None:
            problems.extend(self.check_extra(payload))
        return problems

    def library(self):
        self.make()

    def replay(self, tr):
        a, a_star = self.make()
        with tr.span("cli.render"):
            _pair_doc(a, a_star)
            render(self.payload)


class GenArray(Op):
    command = "gen"

    def __init__(self, field_flag, pa, seed):
        super().__init__(
            ["gen", "--source", "random-array", "--field", field_flag,
             "--d", str(pa.d), "--seed", str(seed)],
            pa.d + 1,
        )
        self.pa = pa
        self.seed = seed

    def _make(self):
        return lp_generators.random_parameter_array(
            self.pa.field, self.pa.d, random.Random(self.seed)
        )

    def check_payload(self, payload):
        back = lp_parray.parameter_array_from_dict(payload["parameter_array"])
        return [] if back == self.pa else ["random-array differs from the seeded array"]

    def library(self):
        self._make()

    def replay(self, tr):
        pa = self._make()
        with tr.span("cli.render"):
            lp_parray.parameter_array_to_dict(pa)
            render(self.payload)


class ArrayCommand(Op):
    """construct, tdconstruct, gmatrix, polys, roundtrip or classify."""

    def __init__(self, command, path, pa):
        super().__init__([command, "--in", path], pa.d + 1, array_bits(pa))
        self.command = command
        self.path = path
        self.pa = pa

    def check_payload(self, payload):
        pa = self.pa
        cmd = self.command
        if cmd in ("construct", "tdconstruct"):
            a = lp_matrix.matrix_from_dict(payload["a"])
            a_star = lp_matrix.matrix_from_dict(payload["astar"])
            diag_a = [a.rows[i][i] for i in range(a.n)]
            diag_s = [a_star.rows[i][i] for i in range(a.n)]
            if cmd == "construct":
                ok = (lp_matrix.shape(a) == lp_matrix.SHAPE_LOWER_BIDIAGONAL
                      and lp_matrix.shape(a_star) == lp_matrix.SHAPE_UPPER_BIDIAGONAL
                      and tuple(diag_a) == pa.theta)
            else:
                ok = (lp_matrix.shape(a) == lp_matrix.SHAPE_IRREDUCIBLE_TRIDIAGONAL
                      and lp_matrix.shape(a_star) == lp_matrix.SHAPE_DIAGONAL)
            ok = ok and a.n == pa.d + 1 and tuple(diag_s) == pa.theta_star
            return [] if ok else [f"{cmd} output is not the expected pair"]
        if cmd == "gmatrix":
            lp_matrix.matrix_from_dict(payload["g"])
            return [] if payload["found"] is True else ["no g-matrix found"]
        if cmd == "polys":
            ok = payload["poly_characterization"] is True and len(payload["u"]) == pa.d + 1
            return [] if ok else ["polynomial characterization fails"]
        if cmd == "roundtrip":
            back = lp_parray.parameter_array_from_dict(payload["parameter_array"])
            ok = payload["identical"] is True and back == pa
            return [] if ok else ["roundtrip is not identical"]
        ok = payload["valid"] is True and payload["fingerprint"] is not None
        return [] if ok else ["classify does not accept a valid array"]

    def _stages(self, pa):
        cmd = self.command
        lp_parray.validate(pa)
        if cmd == "construct":
            return _pair_doc(*lp_parray.construct_bidiagonal(pa))
        if cmd == "tdconstruct":
            return _pair_doc(*lp_parray.construct_tridiagonal(pa))
        if cmd == "gmatrix":
            return lp_parray.find_g_matrix(pa)
        if cmd == "polys":
            [lp_parray.poly_u(pa, i) for i in range(pa.d + 1)]
            [lp_parray.poly_u_dual(pa, i) for i in range(pa.d + 1)]
            return lp_parray.check_poly_characterization(pa)
        if cmd == "roundtrip":
            a, a_star = lp_parray.construct_bidiagonal(pa)
            system = lp_leonard.system_from_bidiagonal_pair(a, a_star)
            return lp_leonard.extract_parameter_array(system)
        return lp_parray.fingerprint(pa)

    def library(self):
        self._stages(self.pa)

    def replay(self, tr):
        with tr.span("cli.parse"):
            pa = _read_array(self.path)
        if self.command == "roundtrip":
            with tr.span("leonard.bidiagonal_roundtrip"):
                self._stages(pa)
        else:
            self._stages(pa)
        with tr.span("cli.render"):
            render(self.payload)


# --- inputs ---


def _dress(field, a, a_star, rng):
    """Conjugate both members by one seeded diagonal sign matrix.

    This changes the signs of off-diagonal entries but keeps the spectra,
    the canonical ordering and the amount of arithmetic, so the seed
    does not change the cost of a rung.
    """
    signs = lp_matrix.ExactMatrix.diagonal(field, [rng.choice((1, -1)) for _ in range(a.n)])
    return lp_matrix.conjugate(a, signs), lp_matrix.conjugate(a_star, signs)


def _random_unimodular(field, n, rng):
    """Unit lower times unit upper triangular, small integer entries."""
    low = [[int(i == j) for j in range(n)] for i in range(n)]
    up = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = rng.randint(-2, 2)
            up[j][i] = rng.randint(-2, 2)
    return lp_matrix.ExactMatrix(field, low) @ lp_matrix.ExactMatrix(field, up)


def _diag(m):
    return [m.rows[i][i] for i in range(m.n)]


def _golden_uq_pair(d):
    """The uq pair over Q(sqrt 5) with q the golden ratio, in split form.

    Its cost depends only on d.  beta = -1 at odd d keeps eps alpha beta
    off the forbidden powers of q, which include q^0 = 1 there.
    """
    a, a_star, allowed = lp_generators.uq_pair(
        QuadraticExtension(5), d, "1/2+1/2*s", beta=1 if d % 2 == 0 else -1
    )
    if not allowed:
        raise ValueError(f"the golden-ratio uq pair at d={d} is not allowed")
    return a, a_star


def ladder_pairs(rng, tiny: bool):
    """(label, a, a_star, expect_pair, source_order) for each ladder rung."""
    q_field = Rationals()
    rungs = []
    for d in TINY["sl2"] if tiny else LADDER_SL2_DIAMETERS:
        a, a_star = lp_generators.sl2_pair(q_field, d)
        weights = [q_field.from_int(d - 2 * i) for i in range(d + 1)]
        rungs.append((f"sl2-d{d}", q_field, a, a_star, (weights, weights)))
    d = TINY["uq"] if tiny else LADDER_UQ_DIAMETER
    a, a_star, _ = lp_generators.uq_pair(q_field, d, 2)
    rungs.append((f"uq-d{d}", q_field, a, a_star, (_diag(a), _diag(a_star))))
    d = TINY["uq"] if tiny else LADDER_SPLIT_DIAMETER
    a, a_star = _golden_uq_pair(d)
    rungs.append((f"uq-sqrt5-d{d}", a.field, a, a_star, (_diag(a), _diag(a_star))))
    out = []
    for label, field, a, a_star, (theta, theta_star) in rungs:
        a, a_star = _dress(field, a, a_star, rng)
        order = (_serialize(field, theta), _serialize(field, theta_star))
        out.append((label, a, a_star, True, order))
    size = TINY["nonexample"] if tiny else LADDER_NONEXAMPLE_SIZE
    a, a_star, kind = lp_generators.random_nonexample(PrimeField(101), size, rng, "one-sided")
    out.append((f"nonexample-{kind}-n{size}", a, a_star, False, None))
    return out


def _whole_field_scan_array(field, d, rng):
    """A seeded array over GF(p) on which every exhaustive root search of
    its verification scans the whole field, whatever the seed.

    The search stops once it has found every root, so its cost depends on
    where the largest root lies.  Both eigenvalue sequences are shifted so
    that the largest residue in each is p - 1.  At d >= 3 the fingerprint
    also searches for the roots of x^2 - beta x + 1 unless beta = +-2;
    arrays with beta = +-2 or whose quadratic has two distinct roots in
    GF(p), about half of the draws, are drawn again, so that search scans
    the whole field too.  Affine shifts keep beta.
    """
    p = field.p
    while True:
        pa = lp_generators.random_parameter_array(field, d, rng)
        if d >= 3:
            t = pa.theta
            beta = ((t[0] - t[3]) * pow(t[1] - t[2], -1, p) - 1) % p
            if beta in (2, p - 2) or pow(beta * beta - 4, (p - 1) // 2, p) == 1:
                continue
        top = p - 1
        return lp_parray.affine_transform(
            pa, 1, top - max(pa.theta), 1, top - max(pa.theta_star)
        )


def corpus_pairs(rng, tiny: bool):
    out = []
    schedule = TINY["corpus"] if tiny else CORPUS_PAIRS
    for flag, d, conjugated in schedule:
        field = FIELDS[flag]()
        if flag == "Q(sqrt 5)":
            a, a_star = _golden_uq_pair(d)
            a, a_star = _dress(field, a, a_star, rng)
            order = (_serialize(field, _diag(a)), _serialize(field, _diag(a_star)))
            out.append((f"uq-sqrt5-d{d}", a, a_star, True, order))
            continue
        if flag == "GF(999983)":
            pa = _whole_field_scan_array(field, d, rng)
        else:
            pa = lp_generators.random_parameter_array(field, d, rng)
        a, a_star = lp_parray.construct_tridiagonal(pa)
        if conjugated:
            g = _random_unimodular(field, d + 1, rng)
            a, a_star = lp_matrix.conjugate(a, g), lp_matrix.conjugate(a_star, g)
        order = (_serialize(field, pa.theta), _serialize(field, pa.theta_star))
        tag = "conj" if conjugated else "plain"
        out.append((f"{field.name}-d{d}-{tag}", a, a_star, True, order))
    for flag, size in CORPUS_NONEXAMPLES[:1] if tiny else CORPUS_NONEXAMPLES:
        for kind in NONEXAMPLE_KINDS:
            a, a_star, _ = lp_generators.random_nonexample(FIELDS[flag](), size, rng, kind)
            out.append((f"{flag}-n{size}-{kind}", a, a_star, False, None))
    return out


def _pair_ops(pairs, directory):
    ops = {}
    for k, (label, a, a_star, expect, order) in enumerate(pairs):
        name = f"{k:02d}-{label.replace(' ', '').replace('(', '').replace(')', '')}.json"
        path = os.path.join(directory, name)
        _write_json(path, _pair_doc(a, a_star))
        ops[name] = VerifyPair(path, a, a_star, expect, order)
    return ops


def _sign(rng) -> str:
    return str(rng.choice((1, -1)))


def build_ops(rng, directory, tiny: bool):
    q_field = Rationals()
    ops = []
    d = TINY["sl2"][0] if tiny else 8
    s, t = _sign(rng), _sign(rng)
    combo, combo_star = ("0", "0", s), (t, t, "0")
    ops.append(GenPair(
        ["gen", "--source", "sl2", "--d", str(d),
         f"--combo={','.join(combo)}", f"--combo-star={','.join(combo_star)}"],
        lambda d=d, c=combo, cs=combo_star: lp_generators.sl2_pair(q_field, d, c, cs),
        d + 1,
    ))
    d = TINY["uq"] if tiny else 8
    alpha, beta = _sign(rng), _sign(rng)
    ops.append(GenPair(
        ["gen", "--source", "uq", "--d", str(d), "--q", "2", f"--alpha={alpha}", f"--beta={beta}"],
        lambda d=d, al=alpha, be=beta: lp_generators.uq_pair(
            q_field, d, 2, alpha=al, beta=be)[:2],
        d + 1,
        lambda payload: [] if payload["allowed"] is True else ["uq pair not allowed"],
    ))
    for n, q in TINY["lattices"] if tiny else BUILD_LATTICES:
        alpha = _sign(rng)

        def make(n=n, q=q, alpha=alpha):
            lat = lp_generators.build_lattice(n, q)
            return lp_generators.lattice_pair(
                lat, lat.field.coerce(alpha), lat.field.coerce(q ** n)
            )[:2]

        ops.append(GenPair(
            ["gen", "--source", "lattice", "--n", str(n), "--q", str(q), f"--alpha={alpha}"],
            make,
        ))
    flag, size = BUILD_NONEXAMPLE
    if tiny:
        size = 4
    for kind in NONEXAMPLE_KINDS:
        seed = rng.randrange(10**6)
        ops.append(GenPair(
            ["gen", "--source", "random-nonexample", "--field", flag, "--size", str(size),
             "--seed", str(seed), "--kind", kind],
            lambda seed=seed, kind=kind, flag=flag, size=size: lp_generators.random_nonexample(
                FIELDS[flag](), size, random.Random(seed), kind)[:2],
            size,
            lambda payload, kind=kind: [] if payload["params"]["kind"] == kind
            else ["wrong non-example kind"],
        ))
    for k, (flag, d) in enumerate(TINY["arrays"] if tiny else BUILD_ARRAYS):
        seed = rng.randrange(10**6)
        pa = lp_generators.random_parameter_array(FIELDS[flag](), d, random.Random(seed))
        path = os.path.join(directory, f"array-{k:02d}.json")
        _write_json(path, lp_parray.parameter_array_to_dict(pa))
        ops.append(GenArray(flag, pa, seed))
        ops.extend(ArrayCommand(cmd, path, pa) for cmd in ARRAY_COMMANDS)
    return ops


def warmup_ops(directory):
    """One small invocation of each command kind, run before timing so
    lazy imports and first-call costs are paid in set-up."""
    rng = random.Random("warm-up")
    os.makedirs(os.path.join(directory, "warm-batch"))
    pairs = ladder_pairs(rng, tiny=True)[:1]
    ops = list(_pair_ops(pairs, directory).values())
    batch = _pair_ops(corpus_pairs(rng, tiny=True)[:2], os.path.join(directory, "warm-batch"))
    ops.append(VerifyBatch(os.path.join(directory, "warm-batch"), batch, 1))
    warm = os.path.join(directory, "warm")
    os.makedirs(warm)
    seen = set()
    for op in build_ops(rng, warm, tiny=True):
        key = tuple(op.argv[:3]) if op.command == "gen" else op.command
        if key not in seen:
            seen.add(key)
            ops.append(op)
    return ops


def build_workload(name: str, seed: int, directory: str, jobs: int, tiny: bool = False):
    """The operations of one pass of the named workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        return list(_pair_ops(ladder_pairs(rng, tiny), directory).values())
    if name == "corpus":
        pairs = corpus_pairs(rng, tiny)
        shards = 2 if tiny else CORPUS_SHARDS
        ops = []
        for k in range(shards):
            shard = os.path.join(directory, f"corpus-{k}")
            os.makedirs(shard)
            ops.append(VerifyBatch(shard, _pair_ops(pairs[k::shards], shard), jobs))
        return ops
    if name == "build":
        return build_ops(rng, directory, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ladder", "corpus", "build")
