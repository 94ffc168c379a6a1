"""Recognition, systems, extraction, and Askey-Wilson fits.

The oracle here re-decides recognition from the definition: enumerate all
orderings of both idempotent families and test every E_i X E_j product
directly.  The library's path-based recognizer must agree with it on
pairs and non-pairs alike.
"""

import collections
import contextlib
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from leonardpairs.errors import DegenerateSplitError, FieldMismatchError, InternalCheckError
from leonardpairs.field import PrimeField, QuadraticExtension, Rationals
from leonardpairs.generators import _random_invertible, random_nonexample, sl2_pair, uq_pair
from leonardpairs.matrix import (
    ExactMatrix,
    conjugate,
    inverse,
    is_multiplicity_free,
    matrix_to_dict,
)
from leonardpairs import cli, leonard
from leonardpairs.leonard import (
    AskeyWilsonFit,
    LeonardSystem,
    _in_eigenbasis,
    _is_split_form_of,
    _is_tridiagonal_form_of,
    _support_matrix,
    extract_parameter_array,
    fit_askey_wilson,
    is_leonard_pair,
    system_from_bidiagonal_pair,
    system_from_pair_with_orderings,
    system_from_parameter_array,
    verification_report,
)
from leonardpairs.parray import (
    ParameterArray,
    construct_bidiagonal,
    construct_tridiagonal,
    fingerprint,
    parameter_array_to_dict,
    validate,
)

import oracles
from corpusgen import array_from_eigen_data, random_valid_array, theta_by_recurrence

Q = Rationals()

THETA = (3, 1, -1, -3)
VARPHI = (-6, -8, -6)
PHI = (6, 8, 6)
FIXTURE_A = [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]]
FIXTURE_S = [[1, -3, 6, -6], [0, 1, -4, 6], [0, 0, 2, -6], [0, 0, 0, 6]]


def fixture_pair(field=Q):
    return (
        ExactMatrix(field, FIXTURE_A),
        ExactMatrix.diagonal(field, THETA),
    )


def fixture_array(field=Q):
    return ParameterArray(field, THETA, THETA, VARPHI, PHI)


# --- definition-level oracle ---


def _product_support(x, idempotents):
    """nonzero[i][j] says whether the product E_i X E_j is nonzero."""
    n = len(idempotents)
    return [
        [not (idempotents[i] @ x @ idempotents[j]).is_zero for j in range(n)]
        for i in range(n)
    ]


def _admissible_orders(x, idempotents):
    """All orderings under which x acts irreducibly tridiagonally."""
    n = len(idempotents)
    nonzero = _product_support(x, idempotents)
    good = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for a in range(n):
            for b in range(n):
                hit = nonzero[perm[a]][perm[b]]
                gap = abs(a - b)
                if (gap > 1 and hit) or (gap == 1 and not hit):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            good.append(perm)
    return good


def brute_recognize(a, a_star):
    """(is_pair, e_orderings, dual_orderings) straight from the definition."""
    mf_a = is_multiplicity_free(a)
    mf_star = is_multiplicity_free(a_star)
    if not (mf_a and mf_star):
        return False, None, None
    e_orders = _admissible_orders(a_star, mf_a.eigen.idempotents)
    star_orders = _admissible_orders(a, mf_star.eigen.idempotents)
    if not e_orders or not star_orders:
        return False, e_orders, star_orders
    theta = [
        tuple(v.payload for v in mf_a.eigen.reordered(p).eigenvalues)
        for p in e_orders
    ]
    theta_star = [
        tuple(v.payload for v in mf_star.eigen.reordered(p).eigenvalues)
        for p in star_orders
    ]
    return True, theta, theta_star


SUPPORT_FIELDS = (Rationals(), PrimeField(101), PrimeField(999983))


def _support_cases(field):
    yield "sl2", sl2_pair(field, 4)
    yield "uq", uq_pair(field, 4, 2)[:2]
    rng = random.Random(field.characteristic())
    for kind in ("reducible", "one-sided"):
        yield kind, random_nonexample(field, 5, rng, kind)[:2]


@pytest.mark.parametrize("field", SUPPORT_FIELDS, ids=lambda f: f.name)
def test_support_matrix_matches_idempotent_products(field):
    for label, (a, a_star) in _support_cases(field):
        checked = 0
        for x, other in ((a_star, a), (a, a_star)):
            eigen = is_multiplicity_free(other).eigen
            if eigen is None:  # a reducible A need not split over the field
                continue
            want = _product_support(x, eigen.idempotents)
            assert _support_matrix(_in_eigenbasis(x, eigen)) == want, label
            checked += 1
        assert checked == 2 or (label == "reducible" and checked == 1), label


def assert_matches_oracle(a, a_star):
    verdict, thetas, theta_stars = brute_recognize(a, a_star)
    rec = is_leonard_pair(a, a_star)
    assert rec.is_pair == verdict
    if verdict:
        got = {(s.theta, s.theta_star) for s in rec.systems}
        want = {(t, ts) for t in thetas for ts in theta_stars}
        assert got == want
    else:
        assert rec.failure_reason


# --- recognition on the fixture ---


def test_fixture_recognized():
    a, a_star = fixture_pair()
    rec = is_leonard_pair(a, a_star)
    assert rec.is_pair and rec.d == 3
    assert rec.failure_reason is None
    assert len(rec.systems) == 4
    coerced = tuple(Q.coerce(v) for v in THETA)
    assert rec.canonical.theta == coerced
    assert rec.canonical.theta_star == coerced
    orderings = {(s.theta, s.theta_star) for s in rec.systems}
    rev = tuple(reversed(coerced))
    assert orderings == {
        (coerced, coerced),
        (coerced, rev),
        (rev, coerced),
        (rev, rev),
    }
    assert_matches_oracle(a, a_star)


def test_fixture_recognized_over_gf13():
    a, a_star = fixture_pair(PrimeField(13))
    rec = is_leonard_pair(a, a_star)
    assert rec.is_pair and len(rec.systems) == 4
    assert_matches_oracle(a, a_star)


def test_structural_mismatches_raise():
    a, _ = fixture_pair()
    with pytest.raises(FieldMismatchError):
        is_leonard_pair(a, ExactMatrix.diagonal(PrimeField(13), THETA))
    with pytest.raises(ValueError):
        is_leonard_pair(a, ExactMatrix.diagonal(Q, (1, 2)))


def test_gf3_reduction_fails_with_multiplicity_reason():
    f3 = PrimeField(3)
    a, a_star = fixture_pair(f3)
    rec = is_leonard_pair(a, a_star)
    assert not rec.is_pair
    assert "multiplicity" in rec.failure_reason
    assert "tridiagonal but not irreducible" in rec.failure_reason


def test_failure_repeated_dual_eigenvalue():
    a, _ = fixture_pair()
    rec = is_leonard_pair(a, ExactMatrix.diagonal(Q, (3, 1, 1, -3)))
    assert not rec.is_pair
    assert "A* is not multiplicity-free" in rec.failure_reason
    assert "multiplicity 2" in rec.failure_reason
    assert_matches_oracle(a, ExactMatrix.diagonal(Q, (3, 1, 1, -3)))


def test_failure_nonsplitting_spectrum():
    rotation = ExactMatrix(Q, [[0, -1], [1, 0]])
    rec = is_leonard_pair(rotation, ExactMatrix.diagonal(Q, (0, 1)))
    assert not rec.is_pair
    assert "does not split" in rec.failure_reason


def test_failure_disconnected_support():
    # two untouched blocks: {0,1} chained, {2} and {3} isolated
    a = ExactMatrix(Q, [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    a_star = ExactMatrix.diagonal(Q, (0, 1, 2, 3))
    rec = is_leonard_pair(a, a_star)
    assert not rec.is_pair
    assert "disconnected" in rec.failure_reason
    assert_matches_oracle(a, a_star)


def test_failure_one_sided_link():
    a = ExactMatrix(Q, [[0, 0, 0], [1, 1, 0], [0, 1, 2]])
    a_star = ExactMatrix.diagonal(Q, (0, 1, 2))
    rec = is_leonard_pair(a, a_star)
    assert not rec.is_pair
    assert "but not back" in rec.failure_reason
    assert_matches_oracle(a, a_star)


def _search_pattern_counterexample(edges, n):
    """First diagonal over GF(13) making the symmetric pattern
    multiplicity-free; the support pattern itself is fixed by edges."""
    f = PrimeField(13)
    for diag in itertools.product(range(13), repeat=n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
        for i, j in edges:
            rows[i][j] = 1
            rows[j][i] = 1
        m = ExactMatrix(f, rows)
        if is_multiplicity_free(m):
            return m, ExactMatrix.diagonal(f, range(n))
    raise AssertionError("no multiplicity-free pattern found")


def test_failure_branching_support():
    a, a_star = _search_pattern_counterexample([(0, 1), (1, 2), (1, 3)], 4)
    rec = is_leonard_pair(a, a_star)
    assert not rec.is_pair
    assert "branches" in rec.failure_reason
    assert_matches_oracle(a, a_star)


def test_failure_cyclic_support():
    a, a_star = _search_pattern_counterexample([(0, 1), (1, 2), (2, 3), (0, 3)], 4)
    rec = is_leonard_pair(a, a_star)
    assert not rec.is_pair
    assert "cycle" in rec.failure_reason
    assert_matches_oracle(a, a_star)


def test_trivial_sizes():
    rec = is_leonard_pair(ExactMatrix(Q, [[5]]), ExactMatrix(Q, [[7]]))
    assert rec.is_pair and rec.d == 0 and len(rec.systems) == 1
    pa = rec.canonical.parameter_array()
    assert pa.d == 0 and validate(pa).valid

    d1 = ParameterArray(Q, (0, 1), (0, 1), (1,), (2,))
    a, a_star = construct_tridiagonal(d1)
    rec1 = is_leonard_pair(a, a_star)
    assert rec1.is_pair and rec1.d == 1
    assert_matches_oracle(a, a_star)


# --- systems, split basis, extraction ---


def test_split_basis_frozen():
    a, a_star = fixture_pair()
    rec = is_leonard_pair(a, a_star)
    s = oracles.split_basis(rec.canonical)
    assert s == ExactMatrix(Q, FIXTURE_S)
    b = conjugate(a, s)
    assert b == construct_bidiagonal(fixture_array())[0]


def test_split_basis_starts_at_the_image_of_dual_e0():
    """u_0 is the first nonzero column of E*_0, scaled to leading 1."""
    for a, a_star in (fixture_pair(), sl2_pair(PrimeField(101), 5)):
        for system in is_leonard_pair(a, a_star).systems:
            f = system.field
            e0 = system.dual_idempotents[0]
            col = next(
                e0.column(k)
                for k in range(e0.n)
                if any(not f.is_zero(v) for v in e0.column(k))
            )
            lead = f.inv(next(v for v in col if not f.is_zero(v)))
            assert oracles.split_basis(system).column(0) == tuple(f.mul(v, lead) for v in col)


def test_extraction_frozen():
    a, a_star = fixture_pair()
    rec = is_leonard_pair(a, a_star)
    pa = rec.canonical.parameter_array()
    assert pa == fixture_array()


def test_all_four_relatives_extract_valid_arrays():
    a, a_star = fixture_pair()
    rec = is_leonard_pair(a, a_star)
    arrays = {extract_parameter_array(s) for s in rec.systems}
    assert len(arrays) == 4
    for pa in arrays:
        assert validate(pa).valid
    # the relative with both orderings reversed swaps the split sequences
    flipped = next(
        s
        for s in rec.systems
        if s.theta == tuple(Q.coerce(v) for v in reversed(THETA))
        and s.theta_star == tuple(Q.coerce(v) for v in THETA)
    )
    pa_flipped = extract_parameter_array(flipped)
    assert pa_flipped.varphi == tuple(Q.coerce(v) for v in PHI)
    assert pa_flipped.phi == tuple(Q.coerce(v) for v in VARPHI)


def test_system_relative_matches_recognition():
    a, a_star = fixture_pair()
    rec = is_leonard_pair(a, a_star)
    rel = rec.canonical.relative(reverse_e=True)
    assert rel in rec.systems
    assert rel.theta == tuple(reversed(rec.canonical.theta))


def test_bidiagonal_roundtrip_exact():
    pa = fixture_array()
    system = system_from_parameter_array(pa)
    assert system.theta == pa.theta and system.theta_star == pa.theta_star
    assert system.parameter_array() == pa

    with pytest.raises(ValueError, match="lower bidiagonal"):
        a, a_star = fixture_pair()
        system_from_bidiagonal_pair(a, a_star)

    with pytest.raises(ValueError, match="upper bidiagonal"):
        a, _ = construct_bidiagonal(pa)
        system_from_bidiagonal_pair(a, a)


def test_tridiagonal_roundtrip_exact():
    pa = fixture_array()
    a, a_star = construct_tridiagonal(pa)
    system = system_from_pair_with_orderings(a, a_star, pa.theta, pa.theta_star)
    assert system.parameter_array() == pa


# --- the assembled split-form system against recognition ---


ASSEMBLY_FIELDS = [
    (Q, 12),
    (PrimeField(101), 12),
    (PrimeField(1000003), 12),
    (QuadraticExtension(5), 9),
]


@pytest.mark.parametrize("field, max_d", ASSEMBLY_FIELDS, ids=lambda v: getattr(v, "name", v))
def test_assembled_split_system_is_the_recognised_one(field, max_d):
    """system_from_parameter_array assembles the system that recognising
    its split-form pair with the diagonal orderings finds, down to the
    lazily formed A side and the arrays of the three relatives."""
    rng = random.Random(31)
    for d in range(max_d + 1):
        pa = random_valid_array(field, rng, d)
        got = system_from_parameter_array(pa)
        want = system_from_pair_with_orderings(*construct_bidiagonal(pa), pa.theta, pa.theta_star)
        where = (field.name, d)
        assert (got.theta, got.theta_star) == (want.theta, want.theta_star), where
        assert got.parameter_array() == pa, where
        assert got.a_in_dual_basis() == want.a_in_dual_basis(), where
        assert got.dual_idempotents == want.dual_idempotents, where
        assert got.idempotents == want.idempotents, where
        for flags in ((True, False), (False, True), (True, True)):
            assert (
                got.relative(*flags).parameter_array() == want.relative(*flags).parameter_array()
            ), (where, flags)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write_array(tmp_path, pa):
    path = tmp_path / "pa.json"
    path.write_text(json.dumps(parameter_array_to_dict(pa)))
    return str(path)


@pytest.mark.parametrize("field", [f for f, _ in ASSEMBLY_FIELDS], ids=lambda f: f.name)
def test_roundtrip_decomposes_one_matrix_and_recognises_nothing(field, tmp_path, monkeypatch):
    """roundtrip decomposes A* alone and never searches; verify --pair on
    the same split-form pair still recognises it, once."""
    pa = random_valid_array(field, random.Random(37), 6)
    a, a_star = construct_bidiagonal(pa)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"a": matrix_to_dict(a), "astar": matrix_to_dict(a_star)}))
    calls = collections.Counter()

    def count(name):
        inner = getattr(leonard, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(leonard, name, counted)

    count("is_multiplicity_free")
    count("is_leonard_pair")
    code, out, err = _cli("roundtrip", "--in", _write_array(tmp_path, pa))
    assert code == 0 and json.loads(out)["identical"] is True, err
    assert (calls["is_multiplicity_free"], calls["is_leonard_pair"]) == (1, 0)
    calls.clear()
    code, out, err = _cli("verify", "--pair", str(pair))
    assert code == 0 and json.loads(out)["all_checks_passed"] is True, err
    assert calls["is_leonard_pair"] == 1


@pytest.mark.parametrize("side", ["A", "A*"])
def test_roundtrip_refuses_a_mutated_split_pair(side, tmp_path, monkeypatch):
    """With one subdiagonal entry of A set to 2, or one superdiagonal
    entry of A* doubled, the pair is no longer the array's split form:
    roundtrip reports it not identical or exits 2 with one error line,
    never identical."""
    outcomes = collections.Counter()
    for field, max_d in ASSEMBLY_FIELDS:
        rng = random.Random(41)
        for d in range(1, min(max_d, 6) + 1):
            pa = random_valid_array(field, rng, d)
            path = _write_array(tmp_path, pa)
            for i in range(1, d + 1):

                def mutated(pa, i=i):
                    a, a_star = construct_bidiagonal(pa)
                    if side == "A":
                        return _changed(a, (i, i - 1), lambda v: field.add(v, v)), a_star
                    return a, _changed(a_star, (i - 1, i), lambda v: field.add(v, v))

                monkeypatch.setattr(leonard, "construct_bidiagonal", mutated)
                code, out, err = _cli("roundtrip", "--in", path)
                where = (field.name, d, i)
                if code == 2:
                    assert out == "" and err.startswith("error: "), where
                    assert err.count("\n") == 1, where
                    outcomes["refused"] += 1
                else:
                    assert code == 0 and json.loads(out)["identical"] is False, where
                    outcomes["not identical"] += 1
    assert set(outcomes) == {"refused", "not identical"}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda theta: (theta[2], theta[1], theta[0], theta[3]), "irreducible tridiagonal"),
        (lambda theta: (theta[0], theta[2], theta[1], theta[3]), "irreducible tridiagonal"),
        (
            lambda theta: (theta[0], theta[1], theta[2], Q.add(theta[3], 1)),
            "not its matrix's spectrum",
        ),
    ],
    ids=["theta_0 and theta_2 swapped", "theta_1 and theta_2 swapped", "theta_3 moved"],
)
def test_lazy_eigen_data_certifies_the_theta_order(change, message):
    """An assembled system whose theta is not A's spectrum in an
    admissible order raises when A's eigen-data is first formed."""
    system = system_from_parameter_array(fixture_array())
    assert system.parameter_array() == fixture_array()
    loose = LeonardSystem(
        system.a, system.a_star, change(system.theta), system.dual_eigen, system.a_in_dual_basis()
    )
    with pytest.raises(InternalCheckError, match=message):
        loose.idempotents


def _eigen_in_order(x, values):
    """Certified eigen-data of x, reordered to list the given values."""
    eigen = is_multiplicity_free(x).eigen
    have = [v.payload for v in eigen.eigenvalues]
    return eigen.reordered([have.index(x.field.coerce(v)) for v in values])


def test_with_orderings_verifies_support():
    a, a_star = fixture_pair()
    # (3, -1) adjacent in this order but their eigenspaces are not linked
    bad = (3, -1, 1, -3)
    for theta in (bad, (3, 1, -1, 5), (3, 3, -1, -3), (3, 1, -1)):
        with pytest.raises(ValueError, match="not an admissible ordering"):
            system_from_pair_with_orderings(a, a_star, theta, THETA)
    with pytest.raises(ValueError, match="leaves the eigenspaces disconnected"):
        system_from_pair_with_orderings(a_star, a_star, THETA, THETA)

    # assembled directly, a loose system goes through, but extraction then
    # refuses the array it reads, and so does the split walk
    loose = LeonardSystem(
        a, a_star, _eigen_in_order(a, bad), _eigen_in_order(a_star, THETA)
    )
    with pytest.raises(DegenerateSplitError):
        extract_parameter_array(loose)
    loose_dual = LeonardSystem(
        a, a_star, _eigen_in_order(a, THETA), _eigen_in_order(a_star, bad)
    )
    with pytest.raises(DegenerateSplitError, match="parameter array axioms"):
        extract_parameter_array(loose_dual)
    with pytest.raises(DegenerateSplitError, match="upper bidiagonal"):
        oracles.split_walk_array(loose_dual)


def test_split_needs_an_independent_basis():
    # xi = (1, 0, 1) meets only two A-eigenspaces, so u_1 and u_2 are
    # parallel, yet every bidiagonal relation of the forward walk holds:
    # only the rank of the split basis tells it apart in the split walk;
    # extraction reads varphi_2 = 0 off the diagonal of P*^-1 A P*
    a = ExactMatrix.diagonal(Q, [1, 2, 3])
    p = ExactMatrix(Q, [[1, 0, 0], [0, 0, 1], [1, 1, 0]])
    a_star = p @ ExactMatrix.diagonal(Q, [10, 20, 30]) @ inverse(p)
    loose = LeonardSystem(
        a, a_star, _eigen_in_order(a, (1, 2, 3)), _eigen_in_order(a_star, (10, 20, 30))
    )
    s = oracles.split_basis(loose)
    assert s.column(1) == s.column(2) == (0, 0, 2)
    with pytest.raises(DegenerateSplitError, match="singular"):
        oracles.split_superdiagonal(loose, reverse_theta=False)
    with pytest.raises(DegenerateSplitError, match="PA2"):
        extract_parameter_array(loose)


SPLIT_WALK_FIELDS = [
    (Q, 6),
    (PrimeField(3), 2),
    (PrimeField(101), 6),
    (QuadraticExtension(5), 6),
]


@pytest.mark.parametrize(
    "field, max_d", SPLIT_WALK_FIELDS, ids=lambda v: getattr(v, "name", v)
)
def test_extraction_matches_split_walk(field, max_d):
    """Reading the array off P*^-1 A P* gives what the split walk reads
    off A* in the split bases, on every system of seeded split-form pairs
    and of the same pairs conjugated by a seeded dense matrix."""
    rng = random.Random(23)
    for d in range(max_d + 1):
        pa = random_valid_array(field, rng, d)
        split = construct_bidiagonal(pa)
        dress = _random_invertible(field, d + 1, rng)
        for a, a_star in (split, (conjugate(split[0], dress), conjugate(split[1], dress))):
            rec = is_leonard_pair(a, a_star)
            assert rec.is_pair and len(rec.systems) == (4 if d else 1)
            for s in rec.systems:
                assert extract_parameter_array(s) == oracles.split_walk_array(s), (field.name, d)
            assert pa in {s.parameter_array() for s in rec.systems}


@pytest.mark.parametrize(
    "field, max_d", SPLIT_WALK_FIELDS, ids=lambda v: getattr(v, "name", v)
)
def test_relatives_keep_the_dual_basis_matrix(field, max_d, monkeypatch):
    """Each relative of a recognised system carries X = P*^-1 A P* in its
    own theta* order, read off its parent's X without a triple product,
    and extracts what the split walk reads."""
    rng = random.Random(29)
    cases = []
    for d in range(max_d + 1):
        split = construct_bidiagonal(random_valid_array(field, rng, d))
        dress = _random_invertible(field, d + 1, rng)
        for a, a_star in (split, (conjugate(split[0], dress), conjugate(split[1], dress))):
            canonical = is_leonard_pair(a, a_star).canonical
            for flags in itertools.product((False, True), repeat=2):
                cases.append((a, canonical.relative(*flags)))
    with monkeypatch.context() as m:
        m.setattr(leonard, "_in_eigenbasis", None)
        kept = [rel.a_in_dual_basis() for _, rel in cases]
    for x, (a, rel) in zip(kept, cases):
        assert x == _in_eigenbasis(a, rel.dual_eigen), (field.name, rel)
        assert extract_parameter_array(rel) == oracles.split_walk_array(rel), (field.name, rel)


def test_extraction_refuses_a_tampered_dual_basis_matrix():
    """A hand-built system whose X = P*^-1 A P* is not A's: an entry off the
    band fails the tridiagonal check, a changed band entry the comparison
    with the tridiagonal construction; the diagonal, and so the array read
    off it, is the same in both."""
    dress = ExactMatrix(Q, FIXTURE_S)
    a, a_star = (conjugate(m, dress) for m in fixture_pair())
    system = is_leonard_pair(a, a_star).canonical
    x = system.a_in_dual_basis()

    def with_x(m):
        return LeonardSystem(a, a_star, system.eigen, system.dual_eigen, a_in_dual_basis=m)

    assert extract_parameter_array(with_x(x)) == system.parameter_array()
    with pytest.raises(DegenerateSplitError, match="not tridiagonal"):
        extract_parameter_array(with_x(_changed(x, (0, 2), lambda v: Q.add(v, 1))))
    with pytest.raises(DegenerateSplitError, match="not the tridiagonal form"):
        extract_parameter_array(with_x(_changed(x, (1, 0), lambda v: Q.mul(v, 2))))


def test_extraction_costs_quadratic_field_multiplications(counting_field):
    # the split walk's two rank checks and 2(d + 1) dense applies are
    # O(d^3): its ratio from d = 8 to d = 16 was 6.3; reading X's diagonal
    # and comparing bands is O(d^2), at most (17/9)^2 < 3.6
    field = counting_field(1009)
    counts = []
    for d in (8, 16):
        a, a_star = sl2_pair(field, d)
        dress = _random_invertible(field, d + 1, random.Random(d))
        rec = is_leonard_pair(conjugate(a, dress), conjugate(a_star, dress))
        field.muls = 0
        extract_parameter_array(rec.canonical)
        counts.append(field.muls)
    assert counts[1] <= 4.5 * counts[0], counts


def _band_check(eigen, dual, a, a_star, theta, theta_star):
    """Reference: the separate support check that system_from_pair_with_orderings
    once ran.  Reorder the certified eigen-data to the request and require
    each support to be an irreducible tridiagonal band."""
    def reorder(data, wanted):
        have = {str(v): i for i, v in enumerate(data.eigenvalues)}
        order = [have.get(a.field.serialize(v)) for v in wanted]
        if None in order or sorted(order) != list(range(len(have))):
            return None
        return data.reordered(order)

    eigen, dual = reorder(eigen, theta), reorder(dual, theta_star)
    if eigen is None or dual is None:
        return False
    for x, data in ((a, dual), (a_star, eigen)):
        support = _support_matrix(_in_eigenbasis(x, data))
        n = len(support)
        for i in range(n):
            for j in range(n):
                gap = abs(i - j)
                if (gap > 1 and support[i][j]) or (gap == 1 and not support[i][j]):
                    return False
    return True


def _unitriangular(field, n, rng):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = field.one
        for j in range(i + 1, n):
            rows[i][j] = field.from_int(rng.randint(-2, 2))
    return ExactMatrix(field, rows)


def _small_array(field, rng, d):
    """A seeded valid array of diameter d built from small entries, so that
    each of the (d + 1)!^2 ordering requests stays cheap."""
    s = field.coerce("s") if isinstance(field, QuadraticExtension) else field.zero

    def small():
        return field.add(
            field.from_int(rng.randint(-5, 5)),
            field.mul(field.from_int(rng.randint(-1, 1)), s),
        )

    while True:
        r = small()
        theta = theta_by_recurrence(field, [small() for _ in range(3)], r, d)
        theta_star = theta_by_recurrence(field, [small() for _ in range(3)], r, d)
        phi1 = small()
        if theta is None or theta_star is None or field.is_zero(phi1):
            continue
        pa = array_from_eigen_data(field, theta, theta_star, phi1)
        if pa is not None and validate(pa).valid:
            return pa


@pytest.mark.parametrize(
    "field, max_d",
    [(Q, 3), (PrimeField(101), 3), (QuadraticExtension(5), 2)],
    ids=lambda v: getattr(v, "name", v),
)
def test_prescribed_orderings_are_recognition_systems(field, max_d):
    """Every ordering pair is accepted exactly when recognition lists it,
    which is exactly when the band check passes.  Q(sqrt 5) stops at d = 2:
    its 576 requests at d = 3 take half a minute."""
    rng = random.Random(9)
    for d in range(max_d + 1):
        pa = _small_array(field, rng, d)
        dress = _unitriangular(field, d + 1, rng)
        for a, a_star in (construct_bidiagonal(pa), construct_tridiagonal(pa)):
            a, a_star = conjugate(a, dress), conjugate(a_star, dress)
            rec = is_leonard_pair(a, a_star)
            admissible = {(s.theta, s.theta_star) for s in rec.systems}
            assert (pa.theta, pa.theta_star) in admissible
            eigen = is_multiplicity_free(a).eigen
            dual = is_multiplicity_free(a_star).eigen
            accepted = set()
            for theta in itertools.permutations(pa.theta):
                for theta_star in itertools.permutations(pa.theta_star):
                    banded = _band_check(eigen, dual, a, a_star, theta, theta_star)
                    try:
                        system = system_from_pair_with_orderings(
                            a, a_star, theta, theta_star
                        )
                    except ValueError as exc:
                        assert "not an admissible ordering" in str(exc)
                        assert not banded, (theta, theta_star)
                        continue
                    assert banded, (theta, theta_star)
                    assert (system.theta, system.theta_star) == (theta, theta_star)
                    assert system in rec.systems
                    accepted.add((theta, theta_star))
            assert accepted == admissible


# --- the report's roundtrips against recognising the constructions ---


def _changed(m, pos, change):
    """m with the entry at pos replaced by change(entry)."""
    rows = [list(row) for row in m.rows]
    i, j = pos
    rows[i][j] = change(rows[i][j])
    return ExactMatrix(m.field, rows)


def _realisations(system):
    """(kind, M, M*, expected) inputs for the two roundtrip checks: the
    constructions of the system's array, then for each i = 1..d a changed
    varphi_i, a changed product b_{i-1} c_i of the tridiagonal form, and
    each form with its off-diagonal pair rescaled by 2 and 1/2."""
    f = system.field
    pa = system.parameter_array()
    b, b_star = construct_bidiagonal(pa)
    t, t_star = construct_tridiagonal(pa)
    out = [("split", b, b_star, True), ("tridiagonal", t, t_star, True)]
    two = f.from_int(2)
    for i in range(1, pa.d + 1):
        up, down = (i - 1, i), (i, i - 1)

        def plus_one(v):
            return f.add(v, f.one)

        out.append(("split", b, _changed(b_star, up, plus_one), False))
        out.append(("tridiagonal", _changed(t, up, plus_one), t_star, False))
        if f.is_zero(two):
            continue

        def double(v):
            return f.mul(two, v)

        def halve(v):
            return f.div(v, two)

        out.append(("split", _changed(b, down, double), _changed(b_star, up, halve), True))
        out.append(("tridiagonal", _changed(_changed(t, up, double), down, halve), t_star, True))
    return out


# GF(2) has no valid array of diameter 1 (PA3 gives varphi_1 = phi_1 + 1)
# and GF(3) none past diameter 2, which needs four distinct eigenvalues
WITNESS_FIELDS = [
    (Q, 6),
    (PrimeField(2), 0),
    (PrimeField(3), 2),
    (PrimeField(101), 6),
    (QuadraticExtension(5), 6),
]


@pytest.mark.parametrize("field, max_d", WITNESS_FIELDS, ids=lambda v: getattr(v, "name", v))
def test_report_roundtrips_match_recognition_oracle(field, max_d):
    """The report's witness checks give the booleans of recognising each
    construction again, on split-form pairs and on pairs conjugated by a
    seeded unitriangular matrix, for the constructions and their mutants."""
    rng = random.Random(17)
    for d in range(max_d + 1):
        pa = random_valid_array(field, rng, d)
        split = construct_bidiagonal(pa)
        dress = _unitriangular(field, d + 1, rng)
        for a, a_star in (split, (conjugate(split[0], dress), conjugate(split[1], dress))):
            report = verification_report(a, a_star)
            rec = is_leonard_pair(a, a_star)
            for s in rec.systems:
                assert s.a_in_dual_basis() == _in_eigenbasis(a, s.dual_eigen)
            system = rec.canonical
            canon = system.parameter_array()
            assert report["parameter_array"]["varphi"] == [
                field.serialize(v) for v in canon.varphi
            ]
            cases = _realisations(system)
            for kind, m, m_star, expected in cases:
                if kind == "split":
                    witness = _is_split_form_of(system, m, m_star)
                    oracle = oracles.bidiagonal_roundtrip(canon, m, m_star)
                else:
                    witness = _is_tridiagonal_form_of(system, m, m_star)
                    oracle = oracles.tridiagonal_roundtrip(canon, m, m_star)
                assert witness is oracle is expected, (field.name, d, kind)
            (_, b, b_star, _), (_, t, t_star, _) = cases[:2]
            checks = report["cross_checks"]
            assert checks["bidiagonal_roundtrip"] is oracles.bidiagonal_roundtrip(canon, b, b_star)
            tri = oracles.tridiagonal_roundtrip(canon, t, t_star)
            assert checks["tridiagonal_roundtrip"] is tri


def test_roundtrip_witnesses_catch_mutants():
    """A changed varphi or tridiagonal product is refused; a diagonal
    rescaling of the tridiagonal form is accepted, as is a non-unit
    subdiagonal in split form that keeps every product."""
    dress = ExactMatrix(Q, FIXTURE_S)
    a, a_star = (conjugate(m, dress) for m in fixture_pair())
    system = is_leonard_pair(a, a_star).canonical
    cases = _realisations(system)
    assert len(cases) == 2 + 4 * 3
    for kind, m, m_star, expected in cases:
        check = _is_split_form_of if kind == "split" else _is_tridiagonal_form_of
        assert check(system, m, m_star) is expected, kind
    # the tridiagonal check also needs T* = diag(theta*) in theta* order
    t, t_star = construct_tridiagonal(system.parameter_array())
    backwards = ExactMatrix.diagonal(Q, reversed(system.theta_star))
    assert not _is_tridiagonal_form_of(system, t, backwards)
    assert not _is_split_form_of(system, t, t_star)


def test_verification_report_recognises_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_leonard_pair(*args, **kwargs)

    monkeypatch.setattr(leonard, "is_leonard_pair", counted)
    a, a_star = sl2_pair(Q, 4)
    report = verification_report(a, a_star)
    assert report["all_checks_passed"] is True
    assert len(calls) == 1


def test_verification_report_constructs_the_tridiagonal_form_once(monkeypatch):
    """Extraction's certificate is the report's tridiagonal roundtrip, so
    one report builds construct_tridiagonal(pa) once."""
    calls = []

    def counted(pa):
        calls.append(pa)
        return construct_tridiagonal(pa)

    monkeypatch.setattr(leonard, "construct_tridiagonal", counted)
    a, a_star = sl2_pair(Q, 4)
    report = verification_report(a, a_star)
    assert report["cross_checks"]["tridiagonal_roundtrip"] is True
    assert report["all_checks_passed"] is True
    assert len(calls) == 1


# --- Askey-Wilson relations ---


def test_askey_wilson_fixture_frozen():
    a, a_star = fixture_pair()
    fit = fit_askey_wilson(a, a_star)
    assert fit.found and fit.unique and fit.nullity == 0
    expected = {
        "beta": "2",
        "gamma": "0",
        "gamma_star": "0",
        "rho": "4",
        "rho_star": "4",
        "omega": "0",
        "eta": "0",
        "eta_star": "0",
    }
    assert {k: str(v) for k, v in fit.coefficients.items()} == expected
    res1, res2 = oracles.askey_wilson_residuals(a, a_star, fit)
    assert res1.is_zero and res2.is_zero

    # a perturbed beta must leave a visible residual
    wrong = AskeyWilsonFit(
        True,
        True,
        0,
        {**fit.coefficients, "beta": Q(3)},
    )
    res1, _ = oracles.askey_wilson_residuals(a, a_star, wrong)
    assert not res1.is_zero


def test_askey_wilson_beta_matches_fingerprint():
    for d, theta in ((3, THETA), (4, (1, 2, 4, 8, 16))):
        if d == 3:
            pa = fixture_array()
        else:
            pa = array_from_eigen_data(Q, theta, tuple(reversed(theta)), Q.coerce(1))
        a, a_star = construct_tridiagonal(pa)
        fit = fit_askey_wilson(a, a_star)
        assert fit.found and fit.unique
        assert fit.beta == fingerprint(pa).beta


def test_askey_wilson_low_diameter_not_unique():
    pa = ParameterArray(Q, (0, 1, 2), (0, 1, 3), (-1, -2), (1, 2))
    a, a_star = construct_tridiagonal(pa)
    fit = fit_askey_wilson(a, a_star)
    assert fit.found and not fit.unique and fit.nullity > 0
    res1, res2 = oracles.askey_wilson_residuals(a, a_star, fit)
    assert res1.is_zero and res2.is_zero


def _rank_mod_p(rows, p):
    mat = [list(r) for r in rows]
    rank = 0
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                factor = mat[i][c]
                mat[i] = [(v - factor * w) % p for v, w in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def test_askey_wilson_inconsistent_pair():
    rng = random.Random(7)
    f = PrimeField(101)
    while True:
        a = ExactMatrix(f, [[rng.randrange(101) for _ in range(4)] for _ in range(4)])
        b = ExactMatrix(f, [[rng.randrange(101) for _ in range(4)] for _ in range(4)])
        fit = fit_askey_wilson(a, b)
        if not fit.found:
            break
    assert fit.coefficients is None

    # independent witness: rebuild the linear system from the relations and
    # compare ranks modulo p
    aa, ss = a @ a, b @ b
    as_, sa = a @ b, b @ a
    anti = as_ + sa
    ident = ExactMatrix.identity(f, 4)
    zero = ExactMatrix.zeros(f, 4)
    cols1 = (as_ @ a, anti, aa, b, zero, a, ident, zero)
    cols2 = (sa @ b, ss, anti, zero, a, b, zero, ident)
    rhs1 = aa @ b + b @ aa
    rhs2 = ss @ a + a @ ss
    rows, aug = [], []
    for mats, target in ((cols1, rhs1), (cols2, rhs2)):
        for i in range(4):
            for j in range(4):
                row = [int(m.entry(i, j)) for m in mats]
                rows.append(row)
                aug.append(row + [int(target.entry(i, j))])
    assert _rank_mod_p(rows, 101) < _rank_mod_p(aug, 101)


def test_converse_preconditions():
    a, a_star = fixture_pair()
    report = oracles.check_converse_preconditions(a, a_star)
    assert report.relations_hold and report.unique_fit
    assert report.multiplicity_free_a and report.multiplicity_free_a_star
    assert report.q_not_root_of_unity is False
    assert not report.conclusive
    assert any("root of unity" in note for note in report.notes)

    # geometric pair: beta = 5/2, q = 2, nothing cyclotomic about it
    theta = (1, 2, 4, 8, 16)
    pa = array_from_eigen_data(Q, theta, tuple(reversed(theta)), Q.coerce(1))
    ga, gs = construct_tridiagonal(pa)
    report = oracles.check_converse_preconditions(ga, gs)
    assert report.conclusive and report.q_not_root_of_unity
    assert is_leonard_pair(ga, gs).is_pair

    # finite fields never satisfy the root-of-unity hypothesis
    fa, fs = fixture_pair(PrimeField(13))
    report = oracles.check_converse_preconditions(fa, fs)
    assert report.q_not_root_of_unity is False
    assert any("finite field" in note for note in report.notes)
    assert not report.conclusive

    # low diameter: fit not unique, beta not pinned
    pa2 = ParameterArray(Q, (0, 1, 2), (0, 1, 3), (-1, -2), (1, 2))
    ta, ts = construct_tridiagonal(pa2)
    report = oracles.check_converse_preconditions(ta, ts)
    assert report.relations_hold and not report.unique_fit
    assert report.q_not_root_of_unity is None
    assert not report.conclusive


def test_verification_report_fixture():
    a, a_star = fixture_pair()
    rep = verification_report(a, a_star)
    assert rep["is_leonard_pair"] is True
    assert rep["diameter"] == 3
    assert rep["orderings_found"] == 4
    assert rep["parameter_array"]["theta"] == ["3", "1", "-1", "-3"]
    assert rep["parameter_array"]["varphi"] == ["-6", "-8", "-6"]
    assert rep["validity"]["valid"] is True
    assert rep["fingerprint"]["family"] == "classical"
    assert rep["askey_wilson"]["coefficients"]["beta"] == "2"
    assert rep["cross_checks"]["bidiagonal_roundtrip"] is True
    assert rep["cross_checks"]["tridiagonal_roundtrip"] is True
    assert rep["cross_checks"]["poly_characterization"] is True
    assert rep["cross_checks"]["g_matrix_found"] is True
    assert rep["cross_checks"]["askey_wilson_beta_matches"] is True
    assert rep["all_checks_passed"] is True

    import json

    assert json.dumps(rep, sort_keys=True)  # JSON-ready throughout


def test_verification_report_failure():
    f3 = PrimeField(3)
    a, a_star = fixture_pair(f3)
    rep = verification_report(a, a_star)
    assert rep["is_leonard_pair"] is False
    assert "multiplicity" in rep["failure_reason"]
    assert rep["parameter_array"] is None
    assert rep["fingerprint"] is None


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10**9))
def test_random_arrays_recognized_and_extracted(d, seed):
    rng = random.Random(seed)
    field = rng.choice([Q, PrimeField(101)])
    pa = random_valid_array(field, rng, d)

    a, a_star = construct_tridiagonal(pa)
    rec = is_leonard_pair(a, a_star)
    assert rec.is_pair and rec.d == d
    assert_matches_oracle(a, a_star)

    system = system_from_pair_with_orderings(a, a_star, pa.theta, pa.theta_star)
    assert system.parameter_array() == pa

    for s in rec.systems:
        assert validate(extract_parameter_array(s)).valid
