"""Parameter array axioms, constructions, intertwiner, polynomials,
fingerprint.

Frozen expectations for the 4x4 Krawtchouk-type example were derived by
hand: the split products (3, 4, 3), the change-of-basis S to split form,
and the u_i(theta_j) table matching the eigenvector matrix P columnwise.
"""

import contextlib
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from leonardpairs import cli
from leonardpairs import field as field_module
from leonardpairs import parray as parray_module
from leonardpairs.errors import (
    InternalCheckError,
    InvalidParameterArrayError,
    UnsupportedFieldOperationError,
)
from leonardpairs.field import (
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
)
from leonardpairs.generators import _complete_array, random_parameter_array, sl2_pair
from leonardpairs.leonard import verification_report
from leonardpairs.matrix import (
    ExactMatrix,
    SHAPE_IRREDUCIBLE_TRIDIAGONAL,
    conjugate,
    is_irreducible_tridiagonal,
    shape,
)
from leonardpairs.parray import (
    FAMILY_BANNAI_ITO,
    FAMILY_CHAR2,
    FAMILY_CLASSICAL,
    FAMILY_Q_TYPE,
    FAMILY_SMALL_DIAMETER,
    ParameterArray,
    affine_transform,
    check_poly_characterization,
    classify_beta,
    construct_bidiagonal,
    construct_tridiagonal,
    find_g_matrix,
    fingerprint,
    parameter_array_to_dict,
    poly_u,
    poly_u_dual,
    reversal_intertwiner_systems,
    tridiagonal_products,
    validate,
)

from corpusgen import _distinct_sample, array_from_eigen_data, random_valid_array, theta_by_recurrence
from oracles import classify_beta_by_roots, evaluate_axioms, joint_intertwiner_basis, split_rhs

Q = Rationals()

THETA = (3, 1, -1, -3)
VARPHI = (-6, -8, -6)
PHI = (6, 8, 6)

FIXTURE_A = [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]]
FIXTURE_P = [[1, 3, 3, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -3, 3, -1]]
# change of basis to split form, computed by iterating A - theta_h I on the
# first primitive vector
FIXTURE_S = [[1, -3, 6, -6], [0, 1, -4, 6], [0, 0, 2, -6], [0, 0, 0, 6]]


def krawtchouk_array(field=Q) -> ParameterArray:
    return ParameterArray(field, THETA, THETA, VARPHI, PHI)


def test_lengths_checked():
    with pytest.raises(InvalidParameterArrayError):
        ParameterArray(Q, (1, 2), (1,), (), ())
    with pytest.raises(InvalidParameterArrayError):
        ParameterArray(Q, (1, 2), (3, 4), (5,), ())
    with pytest.raises(InvalidParameterArrayError):
        ParameterArray(Q, (), (), (), ())


def test_fixture_array_is_valid():
    report = validate(krawtchouk_array())
    assert report.valid
    assert [a.name for a in report.axioms] == ["PA1", "PA2", "PA3", "PA4", "PA5"]
    assert all(a.passed and a.evaluated for a in report.axioms)
    assert report.failing() == ()


def test_pa1_failure_gates_pa3_to_pa5():
    pa = ParameterArray(Q, (3, 1, 3, -3), THETA, VARPHI, PHI)
    report = validate(pa)
    assert not report.valid
    pa1 = report.axiom("PA1")
    assert not pa1.passed and pa1.first_failure == 2
    assert "theta[0] == theta[2]" in pa1.detail
    for name in ("PA3", "PA4", "PA5"):
        status = report.axiom(name)
        assert not status.evaluated and not status.passed
        assert "PA1" in status.detail
    # duplicate in the dual sequence alone also trips PA1
    dual = ParameterArray(Q, THETA, (3, 1, 1, -3), VARPHI, PHI)
    assert "theta*[1] == theta*[2]" in validate(dual).axiom("PA1").detail


def test_axioms_are_evaluated_once_per_array(monkeypatch, tmp_path):
    """validate keeps its report on the array: one verification report and
    one CLI construct each evaluate the axioms once."""
    calls = []
    real = parray_module._evaluate_axioms
    monkeypatch.setattr(
        parray_module, "_evaluate_axioms", lambda pa: calls.append(pa) or real(pa)
    )
    verification_report(*sl2_pair(Q, 6))
    assert len(calls) == 1

    calls.clear()
    path = tmp_path / "pa.json"
    path.write_text(json.dumps(parameter_array_to_dict(krawtchouk_array())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["construct", "--in", str(path)]) == 0
    assert len(calls) == 1

    pa = krawtchouk_array()
    report = validate(pa)
    assert validate(pa) is report
    fresh = krawtchouk_array()
    assert fresh == pa and hash(fresh) == hash(pa)


def test_validation_makes_no_payload_product(monkeypatch):
    """The axioms of a valid array are checked on integer images: over
    Q(sqrt 5) at d = 12 no payload product, inverse or element string is
    formed."""
    field = QuadraticExtension(5)
    drawn = random_parameter_array(field, 12, random.Random(12))
    pa = ParameterArray(field, drawn.theta, drawn.theta_star, drawn.varphi, drawn.phi)

    def refuse(*args):
        raise AssertionError("payload arithmetic during validation")

    for name in ("mul", "inv", "serialize"):
        monkeypatch.setattr(QuadraticExtension, name, refuse)
    assert validate(pa).valid


AXIOM_FIELDS = (Q, PrimeField(101), PrimeField(999983), QuadraticExtension(5), QuadraticExtension(-1))
MUTATIONS = ("valid", "entry", "zero", "repeat-theta", "repeat-theta*", "dual-ratio", "index-2-ratio")


def _with_ratios(field, starts, ratios):
    """starts extended by theta_{i+1} = theta_{i-2} - r_i (theta_{i-1} - theta_i),
    r_i = ratios[i - 2], so that PA5's i-th ratio is r_i."""
    seq = list(starts)
    for r in ratios:
        seq.append(field.sub(seq[-3], field.mul(r, field.sub(seq[-2], seq[-1]))))
    return seq


def _axiom_case(field, d, rng, mutation):
    """A valid array, or one with a single defect of the given kind."""
    if mutation in ("dual-ratio", "index-2-ratio"):
        # the ratios of theta and theta* differ at one index, or agree
        # everywhere but change after index 2; PA3 and PA4 hold
        while True:
            ratios = [field.random_element(rng).payload] * (d - 2)
            ratios_star = list(ratios)
            k = rng.randrange(1 if mutation == "index-2-ratio" else 0, d - 2)
            ratios_star[k:] = [field.add(ratios[k], field.one)] * (d - 2 - k)
            if mutation == "index-2-ratio":
                ratios = ratios_star
            theta, theta_star = (
                _with_ratios(field, _distinct_sample(field, rng, 3), rs)
                for rs in (ratios, ratios_star)
            )
            if len(set(theta)) == len(set(theta_star)) == d + 1:
                break
        phi1 = field.random_element(rng).payload
        varphi = split_rhs(field, theta, theta_star, phi1)
        phi = split_rhs(field, theta[::-1], theta_star, varphi[0])
        return ParameterArray(field, theta, theta_star, varphi, phi)
    pa = random_parameter_array(field, d, rng)
    seqs = [list(pa.theta), list(pa.theta_star), list(pa.varphi), list(pa.phi)]
    if mutation in ("entry", "zero") and d:
        seq = seqs[rng.randrange(4)]
        j = rng.randrange(len(seq))
        seq[j] = field.zero if mutation == "zero" else field.random_element(rng).payload
    elif mutation.startswith("repeat") and d:
        seq = seqs[0 if mutation == "repeat-theta" else 1]
        i, j = sorted(rng.sample(range(d + 1), 2))
        seq[j] = seq[i]
    return ParameterArray(field, *seqs)


@settings(max_examples=250, deadline=None)
@given(
    field=st.sampled_from(AXIOM_FIELDS),
    d=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    mutation=st.sampled_from(MUTATIONS),
)
def test_axioms_match_the_payload_reference(field, d, seed, mutation):
    """The report on images equals the payload reference's, down to
    first_failure and the bytes of every detail string."""
    if mutation == "dual-ratio" and d < 3 or mutation == "index-2-ratio" and d < 4:
        mutation = "valid"
    pa = _axiom_case(field, d, random.Random(seed), mutation)
    assert parray_module._evaluate_axioms(pa) == evaluate_axioms(pa)


def test_axiom_cases_reach_every_outcome():
    """The mutation kinds of the differential test fail where they are
    meant to: PA1 on either sequence, PA5 at the dual ratio and at the
    index-2 ratio."""
    expected = {
        "repeat-theta": ("PA1", "theta["),
        "repeat-theta*": ("PA1", "theta*["),
        "dual-ratio": ("PA5", "dual ratio"),
        "index-2-ratio": ("PA5", "at index 2"),
    }
    for field in AXIOM_FIELDS:
        for mutation, (axiom, text) in expected.items():
            pa = _axiom_case(field, 8, random.Random(8), mutation)
            report = validate(pa)
            assert axiom in report.failing(), (field.name, mutation)
            assert text in report.axiom(axiom).detail, (field.name, mutation)
            assert report == evaluate_axioms(pa)


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(AXIOM_FIELDS), d=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_complete_array_matches_the_payload_reference(field, d, seed):
    rng = random.Random(seed)
    theta = _distinct_sample(field, rng, d + 1)
    theta_star = _distinct_sample(field, rng, d + 1)
    phi1 = field.random_element(rng).payload
    if theta is None or theta_star is None:
        return
    varphi = split_rhs(field, theta, theta_star, phi1)
    phi = split_rhs(field, theta[::-1], theta_star, varphi[0]) if d else []
    pa = _complete_array(field, theta, theta_star, phi1)
    if any(field.is_zero(v) for v in varphi + phi):
        assert pa is None
    else:
        assert (pa.varphi, pa.phi) == (tuple(varphi), tuple(phi))


def test_guards_name_the_failing_axioms():
    bad_split = ParameterArray(Q, THETA, THETA, (-7, -8, -6), PHI)
    with pytest.raises(InvalidParameterArrayError) as err:
        construct_bidiagonal(bad_split)
    assert str(err.value) == (
        "construct_bidiagonal requires a valid parameter array; failing axioms: PA3, PA4"
    )
    zero_split = ParameterArray(Q, THETA, THETA, (-6, 0, -6), PHI)
    with pytest.raises(InvalidParameterArrayError) as err:
        find_g_matrix(zero_split)
    assert str(err.value) == "find_g_matrix requires PA1 and PA2; failing: PA2"
    with pytest.raises(InvalidParameterArrayError) as err:
        poly_u(zero_split, 1)
    assert str(err.value) == "poly_u requires PA1 and PA2; failing: PA2"
    assert find_g_matrix(bad_split).found is False


def test_pa2_failure_reported_with_index():
    pa = ParameterArray(Q, THETA, THETA, (-6, 0, -6), PHI)
    report = validate(pa)
    status = report.axiom("PA2")
    assert not status.passed and status.first_failure == 2
    assert status.detail == "varphi_2 == 0"
    # PA3 is still evaluated (PA1 holds) and fails at the zero
    assert report.axiom("PA3").evaluated
    assert not report.axiom("PA3").passed

    pa = ParameterArray(Q, THETA, THETA, VARPHI, (6, 8, 0))
    assert validate(pa).axiom("PA2").detail == "phi_3 == 0"


def test_pa3_mutation_isolated():
    pa = ParameterArray(Q, THETA, THETA, (-6, -7, -6), PHI)
    report = validate(pa)
    assert report.failing() == ("PA3",)
    status = report.axiom("PA3")
    assert status.first_failure == 2
    assert "index 2" in status.detail


def test_pa4_mutation_isolated():
    pa = ParameterArray(Q, THETA, THETA, VARPHI, (6, 9, 6))
    report = validate(pa)
    assert report.failing() == ("PA4",)
    assert report.axiom("PA4").first_failure == 2


def test_pa5_failure_detected():
    # theta with unequal ratios: 5 breaks the arithmetic progression pattern
    theta = (0, 1, 2, 3, 5)
    pa = ParameterArray(Q, theta, (0, 1, 2, 3, 4), (1, 1, 1, 1), (1, 1, 1, 1))
    report = validate(pa)
    assert not report.axiom("PA5").passed
    # mismatch against the dual ratio is reported with the index
    assert "index" in report.axiom("PA5").detail


def test_small_diameter_arrays():
    d0 = ParameterArray(Q, (5,), (7,), (), ())
    assert validate(d0).valid
    assert fingerprint(d0).family == FAMILY_SMALL_DIAMETER

    d1 = ParameterArray(Q, (0, 1), (0, 1), (1,), (2,))
    assert validate(d1).valid

    d2 = ParameterArray(Q, (0, 1, 2), (0, 1, 3), (-1, -2), (1, 2))
    assert validate(d2).valid
    fp = fingerprint(d2)
    assert fp.family == FAMILY_SMALL_DIAMETER
    assert fp.beta is None and fp.beta_plus_one is None


def test_bidiagonal_construction_frozen():
    a, a_star = construct_bidiagonal(krawtchouk_array())
    assert a == ExactMatrix(
        Q, [[3, 0, 0, 0], [1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -3]]
    )
    assert a_star == ExactMatrix(
        Q, [[3, -6, 0, 0], [0, 1, -8, 0], [0, 0, -1, -6], [0, 0, 0, -3]]
    )


def test_split_basis_conjugation_recovers_bidiagonal_pair():
    # S^-1 A S and S^-1 A* S give exactly the canonical bidiagonal pair
    a = ExactMatrix(Q, FIXTURE_A)
    a_star = ExactMatrix.diagonal(Q, THETA)
    s = ExactMatrix(Q, FIXTURE_S)
    b, c = construct_bidiagonal(krawtchouk_array())
    assert conjugate(a, s) == b
    assert conjugate(a_star, s) == c


def test_tridiagonal_construction_frozen():
    pa = krawtchouk_array()
    products = tridiagonal_products(pa)
    assert [p.payload for p in products] == [Q.coerce(v) for v in (3, 4, 3)]

    a, a_star = construct_tridiagonal(pa)
    assert a == ExactMatrix(
        Q, [[0, 3, 0, 0], [1, 0, 4, 0], [0, 1, 0, 3], [0, 0, 1, 0]]
    )
    assert a_star == ExactMatrix.diagonal(Q, THETA)
    assert shape(a) == SHAPE_IRREDUCIBLE_TRIDIAGONAL

    # trace is basis independent, so it must match the eigenvalue sum
    assert a.trace() == Q.zero


def test_tridiagonal_d2_frozen():
    pa = ParameterArray(Q, (0, 1, 2), (0, 1, 3), (-1, -2), (1, 2))
    a, _ = construct_tridiagonal(pa)
    products = [p.payload for p in tridiagonal_products(pa)]
    assert products == [Q.coerce("2/3"), Q.coerce("1/3")]
    for i in range(3):
        assert a.entry(i, i) == Q.one
    assert a.trace() == Q.coerce(3)


def test_tridiagonal_splits():
    pa = krawtchouk_array()
    with pytest.raises(UnsupportedFieldOperationError):
        construct_tridiagonal(pa, split="symmetric")
    with pytest.raises(ValueError):
        construct_tridiagonal(pa, split="cholesky")

    # over GF(13) the products 3, 4, 3 are squares (3 = 4^2)
    f13 = PrimeField(13)
    pa13 = krawtchouk_array(f13)
    a, _ = construct_tridiagonal(pa13, split="symmetric")
    assert a == a.transpose()
    unit, _ = construct_tridiagonal(pa13, split="unit")
    for i in range(1, 4):
        assert f13.mul(a.entry(i, i - 1), a.entry(i - 1, i)) == unit.entry(i - 1, i)


def test_construct_requires_validity():
    broken = ParameterArray(Q, THETA, THETA, (-6, -7, -6), PHI)
    with pytest.raises(InvalidParameterArrayError, match="PA3"):
        construct_bidiagonal(broken)
    with pytest.raises(InvalidParameterArrayError):
        construct_tridiagonal(broken)
    with pytest.raises(InvalidParameterArrayError):
        fingerprint(broken)


def test_find_g_matrix_fixture():
    pa = krawtchouk_array()
    result = find_g_matrix(pa)
    assert result.found and not result.pencil_exhausted
    assert result.solution_dimension == 1
    b1, b2, c1, c2 = reversal_intertwiner_systems(pa)
    g = result.g
    assert b1 @ g == g @ b2
    assert c1 @ g == g @ c2

    # deterministic: a second call returns the identical matrix
    again = find_g_matrix(pa)
    assert again.g == g

    # independent dense solve spans the same one dimensional space
    naive = joint_intertwiner_basis([(b1, b2), (c1, c2)])
    assert len(naive) == 1


def test_find_g_matrix_rejects_broken_arrays():
    broken = ParameterArray(Q, THETA, THETA, (-6, -7, -6), PHI)
    result = find_g_matrix(broken)
    assert not result.found and result.g is None

    with pytest.raises(InvalidParameterArrayError):
        find_g_matrix(ParameterArray(Q, (3, 1, 3, -3), THETA, VARPHI, PHI))


def test_find_g_matrix_certifies_the_b_identity(monkeypatch):
    # G is built from theta alone, so a B2 with one wrong diagonal entry
    # reaches only the certificate B1 G = G B2
    systems = parray_module.reversal_intertwiner_systems

    def wrong_b2(pa):
        b1, b2, c1, c2 = systems(pa)
        rows = [list(r) for r in b2.rows]
        rows[1][1] = pa.field.add(rows[1][1], pa.field.one)
        return b1, ExactMatrix._raw(pa.field, rows), c1, c2

    monkeypatch.setattr(parray_module, "reversal_intertwiner_systems", wrong_b2)
    with pytest.raises(InternalCheckError, match="intertwining identities"):
        find_g_matrix(krawtchouk_array())


def _with(pa, **changes) -> ParameterArray:
    parts = {
        "theta": pa.theta,
        "theta_star": pa.theta_star,
        "varphi": pa.varphi,
        "phi": pa.phi,
    }
    parts.update(changes)
    return ParameterArray(pa.field, **parts)


def _fresh_nonzero(field, rng, avoid):
    while True:
        v = field.random_element(rng).payload
        if v not in avoid and not field.is_zero(v):
            return v


def _broken_variants(pa, rng):
    """PA1/PA2 arrays next to a valid one that break PA3, PA4 or PA5."""
    f, d = pa.field, pa.d
    out = []
    if d >= 1:
        i = rng.randrange(d)
        varphi = list(pa.varphi)
        varphi[i] = _fresh_nonzero(f, rng, [varphi[i]])
        out.append(_with(pa, varphi=varphi))
    if d >= 2:
        phi = list(pa.phi)
        phi[-1] = _fresh_nonzero(f, rng, [phi[-1]])
        out.append(_with(pa, phi=phi))
    if d >= 3:
        # PA3 and PA4 rebuilt around a theta that leaves the recurrence
        theta = list(pa.theta)
        theta[-1] = _fresh_nonzero(f, rng, theta)
        broken = array_from_eigen_data(f, theta, pa.theta_star, pa.phi[0])
        if broken is not None:
            out.append(broken)
    return out


def _all_pa12_arrays(field, d):
    """Every array of diameter d over a small prime field that passes PA1
    and PA2."""
    values = range(field.characteristic())
    nonzero = range(1, field.characteristic())
    for theta in itertools.permutations(values, d + 1):
        for theta_star in itertools.permutations(values, d + 1):
            for varphi in itertools.product(nonzero, repeat=d):
                for phi in itertools.product(nonzero, repeat=d):
                    yield ParameterArray(field, theta, theta_star, varphi, phi)


def _differential_arrays(field):
    """Every PA1/PA2 array over GF(2) and GF(3), where PA1 caps the
    diameter at p - 1; elsewhere seeded valid arrays of diameter 0 to 5,
    each with its broken variants."""
    if field.characteristic() in (2, 3):
        top = field.characteristic() - 1
        return [pa for d in range(top + 1) for pa in _all_pa12_arrays(field, d)]
    rng = random.Random(field.name)
    out = []
    for d in range(6):
        pa = random_valid_array(field, rng, d)
        out.append(pa)
        out.extend(_broken_variants(pa, rng))
    return out


@pytest.mark.parametrize(
    "field",
    [Q, PrimeField(2), PrimeField(3), PrimeField(101), QuadraticExtension(5)],
    ids=str,
)
def test_cross_checks_agree_with_dense_solve_and_axioms(field):
    arrays = _differential_arrays(field)
    failing = set()
    for pa in arrays:
        report = validate(pa)
        assert report.axiom("PA1").passed and report.axiom("PA2").passed, pa
        failing.update(report.failing())

        result = find_g_matrix(pa)
        b1, b2, c1, c2 = reversal_intertwiner_systems(pa)
        dense = joint_intertwiner_basis([(b1, b2), (c1, c2)])
        assert result.solution_dimension == len(dense), pa
        assert result.found is report.valid, pa
        assert not result.pencil_exhausted
        if result.found:
            # normalised the same way, so G is the dense solve's basis
            assert dense == [result.g], pa
            rows = result.g.rows
            assert all(rows[r][r] == field.one for r in range(pa.d + 1)), pa
            assert all(
                field.is_zero(rows[r][c]) for r in range(pa.d + 1) for c in range(r)
            ), pa
        else:
            assert result.g is None

        assert check_poly_characterization(pa) is report.valid, pa
    # the corpus reaches each failure it is meant to test; PA5 needs d >= 3
    expected = {"PA3", "PA4"} | ({"PA5"} if max(pa.d for pa in arrays) >= 3 else set())
    assert expected <= failing, failing


def test_find_g_matrix_costs_quadratic_field_multiplications(counting_field):
    # dense column products and the n^2 + n by n kernel elimination took
    # 7.4x the multiplications from n = 12 to n = 24, near the cubic 8;
    # the banded column steps and the four products of the two identities,
    # each with a bidiagonal factor, are O(n^2): 664 -> 2626, 3.95x
    field = counting_field(1009)
    counts = []
    for n in (12, 24):
        pa = random_valid_array(field, random.Random(n), n - 1)
        field.muls = 0
        assert find_g_matrix(pa).found
        counts.append(field.muls)
    assert counts[1] <= 6 * counts[0], counts


def test_poly_u_matches_eigenvector_matrix():
    pa = krawtchouk_array()
    for i in range(4):
        u = poly_u(pa, i)
        assert u.degree == i
        for j in range(4):
            expected = Q.div(Q.coerce(FIXTURE_P[j][i]), Q.coerce(FIXTURE_P[0][i]))
            assert u.eval_payload(Q.coerce(THETA[j])) == expected


def test_poly_u_normalization_and_duality():
    pa = krawtchouk_array()
    theta0 = Q.coerce(THETA[0])
    theta_d = Q.coerce(THETA[-1])
    for i in range(4):
        assert poly_u(pa, i).eval_payload(theta0) == Q.one
        assert poly_u_dual(pa, i).eval_payload(theta_d) == Q.one
    assert check_poly_characterization(pa)

    with pytest.raises(ValueError):
        poly_u(pa, 5)
    with pytest.raises(ValueError):
        poly_u(pa, -1)


def test_poly_characterization_fails_on_mutation():
    broken = ParameterArray(Q, THETA, THETA, (-6, -7, -6), PHI)
    assert not check_poly_characterization(broken)
    broken4 = ParameterArray(Q, THETA, THETA, VARPHI, (6, 9, 6))
    assert not check_poly_characterization(broken4)


def test_fingerprint_classical():
    fp = fingerprint(krawtchouk_array())
    assert fp.family == FAMILY_CLASSICAL
    assert fp.beta == FieldElement(Q, Q.coerce(2))
    assert fp.beta_plus_one == FieldElement(Q, Q.coerce(3))
    assert fp.q is None and fp.q_field is None and fp.q_minimal_poly is None


def test_fingerprint_q_type_rational():
    theta = (1, 2, 4, 8, 16)
    theta_star = (16, 8, 4, 2, 1)
    pa = array_from_eigen_data(Q, theta, theta_star, Q.coerce(1))
    assert pa is not None and validate(pa).valid
    fp = fingerprint(pa)
    assert fp.family == FAMILY_Q_TYPE
    assert fp.beta == FieldElement(Q, Q.coerce("5/2"))
    assert fp.q == FieldElement(Q, Q.coerce(2))
    assert fp.q_field is None and fp.q_minimal_poly is None


def test_fingerprint_bannai_ito():
    theta = theta_by_recurrence(Q, (0, 1, 3), -1, 3)
    theta_star = theta_by_recurrence(Q, (0, 2, 5), -1, 3)
    assert theta is not None and theta_star is not None
    pa = array_from_eigen_data(Q, theta, theta_star, Q.coerce(1))
    assert pa is not None and validate(pa).valid
    fp = fingerprint(pa)
    assert fp.family == FAMILY_BANNAI_ITO
    assert fp.beta == FieldElement(Q, Q.coerce(-2))


def test_fingerprint_q_in_quadratic_extension():
    # beta = 3 makes q a root of x^2 - 3x + 1, living in Q(sqrt 5)
    theta = theta_by_recurrence(Q, (0, 1, 3), 4, 3)
    pa = array_from_eigen_data(Q, theta, theta, Q.coerce(1))
    assert pa is not None and validate(pa).valid
    fp = fingerprint(pa)
    assert fp.family == FAMILY_Q_TYPE
    assert fp.beta == FieldElement(Q, Q.coerce(3))
    assert fp.q_field == QuadraticExtension(5)
    assert str(fp.q) == "3/2+1/2*s"
    # the two quadratic roots multiply to 1
    inv = FieldElement(fp.q_field, fp.q_field.inv(fp.q.payload))
    assert str(inv) == "3/2-1/2*s"


def test_classify_beta_finite_fields():
    assert classify_beta(PrimeField(13), 2).family == FAMILY_CLASSICAL
    assert classify_beta(PrimeField(3), 1).family == FAMILY_BANNAI_ITO
    assert classify_beta(PrimeField(2), 0).family == FAMILY_CHAR2

    # over GF(7): beta = 0 gives x^2 + 1 with nonresidue discriminant
    fp = classify_beta(PrimeField(7), 0)
    assert fp.family == FAMILY_Q_TYPE
    assert fp.q is None and fp.q_field is None
    assert fp.q_minimal_poly is not None
    assert [str(c) for c in fp.q_minimal_poly.coefficients()] == ["1", "0", "1"]

    # GF(2) with beta = 1: x^2 + x + 1 has no roots in GF(2)
    fp2 = classify_beta(PrimeField(2), 1)
    assert fp2.family == FAMILY_Q_TYPE
    assert fp2.q_minimal_poly is not None

    # residue discriminant stays in the prime field: beta = 4 over GF(11)
    # solves x^2 - 4x + 1 = 0 at x in {2 + 9, 2 - 9} ... check exactly
    fp3 = classify_beta(PrimeField(11), 4)
    assert fp3.family == FAMILY_Q_TYPE
    assert fp3.q is not None
    f11 = PrimeField(11)
    q = fp3.q.payload
    assert f11.add(f11.mul(q, q), f11.add(f11.mul(f11.coerce(-4), q), f11.one)) == 0


def test_classify_beta_matches_the_root_finder():
    """q from the quadratic formula is q from the root finder, in the base
    field, in Q(sqrt D) over Q, or as the minimal polynomial."""
    rng = random.Random(79)
    fields = [Q, PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(999983),
              QuadraticExtension(5), QuadraticExtension(-1), QuadraticExtension(2)]
    for field in fields:
        betas = [field.from_int(i) for i in range(-12, 13)]
        betas += [field.random_element(rng).payload for _ in range(40)]
        if field == Q:
            betas += [Q.coerce(v) for v in ("5/2", "10/3", "-17/4", "1/7")]
        for beta in betas:
            assert classify_beta(field, beta) == classify_beta_by_roots(field, beta), (
                field.name, field.serialize(beta)
            )


def test_classify_over_q_calls_no_root_finder(monkeypatch, tmp_path):
    """Over Q the discriminant's exact square root decides how x^2 - beta x
    + 1 splits: rational q (beta = 5/2), q in Q(sqrt 5) (beta = 3) and a
    seeded array."""
    def refuse(*args):
        raise AssertionError("classify called roots_in_field")

    monkeypatch.setattr(parray_module, "roots_in_field", refuse)
    monkeypatch.setattr(field_module, "roots_in_field", refuse)
    arrays = [random_parameter_array(Q, 8, random.Random(8))]
    for ratio in ("7/2", "4"):  # beta + 1
        theta = theta_by_recurrence(Q, (0, 1, 3), Q.coerce(ratio), 3)
        arrays.append(array_from_eigen_data(Q, theta, theta, Q.coerce(1)))
    for k, pa in enumerate(arrays):
        path = tmp_path / f"pa{k}.json"
        path.write_text(json.dumps(parameter_array_to_dict(pa)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["classify", "--in", str(path)]) == 0
        assert json.loads(out.getvalue())["fingerprint"]["family"] == FAMILY_Q_TYPE


def test_fingerprint_over_reduced_field():
    fp = fingerprint(krawtchouk_array(PrimeField(13)))
    assert fp.family == FAMILY_CLASSICAL


def test_affine_invariance_frozen():
    pa = krawtchouk_array()
    moved = affine_transform(pa, 2, 5, -3, 7)
    assert validate(moved).valid
    fp = fingerprint(moved)
    assert fp.family == FAMILY_CLASSICAL
    # products scale by a^2, diagonal entries map to a x + b
    assert [p.payload for p in tridiagonal_products(moved)] == [
        Q.coerce(v) for v in (12, 16, 12)
    ]
    a, _ = construct_tridiagonal(moved)
    for i in range(4):
        assert a.entry(i, i) == Q.coerce(5)
    with pytest.raises(ValueError):
        affine_transform(pa, 0, 1, 1, 0)


def test_reversal_closure():
    pa = krawtchouk_array()
    reversed_pa = ParameterArray(
        Q, tuple(reversed(THETA)), THETA, PHI, VARPHI
    )
    report = validate(reversed_pa)
    assert report.axiom("PA3").passed and report.axiom("PA4").passed
    assert report.valid
    assert fingerprint(reversed_pa).family == FAMILY_CLASSICAL

    theta = (1, 2, 4, 8, 16)
    pa_q = array_from_eigen_data(Q, theta, tuple(reversed(theta)), Q.coerce(1))
    rev = ParameterArray(
        Q,
        tuple(reversed(pa_q.theta)),
        pa_q.theta_star,
        pa_q.phi,
        pa_q.varphi,
    )
    assert validate(rev).valid


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10**9))
def test_random_valid_arrays_roundtrip(d, seed):
    rng = random.Random(seed)
    choices = [Q, PrimeField(101)] + ([PrimeField(13)] if d <= 3 else [])
    field = rng.choice(choices)
    pa = random_valid_array(field, rng, d)
    assert validate(pa).valid

    a, a_star = construct_tridiagonal(pa)
    assert is_irreducible_tridiagonal(a)
    trace = field.zero
    for t in pa.theta:
        trace = field.add(trace, t)
    assert a.trace() == trace
    assert a_star == ExactMatrix.diagonal(field, pa.theta_star)

    assert check_poly_characterization(pa)

    result = find_g_matrix(pa)
    assert result.found
    assert result.solution_dimension == 1

    if d >= 3:
        assert fingerprint(pa).family != FAMILY_SMALL_DIAMETER
