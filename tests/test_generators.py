"""Algebraic generators: sl2 modules, quantum pairs, subspace lattices,
and the seeded random sources.

Frozen values were computed away from the library: the quantum matrix
entries at q = 2 from [n] = (q^n - q^-n)/(q - 1/q) by hand, the lattice
subspace counts from the Gaussian binomial product formula, the (2,2)
chain vectors on paper (empty space -> all three lines -> the full space
with weight 3), and the (3,2) superdiagonal by counting cover paths:
the raw lowering scalars along the top chain are 7, 9, 7, rescaled by
beta / sqrt(2)^2 = 4.
"""

import hashlib
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from leonardpairs.errors import (
    GeneratorError,
    InternalCheckError,
    LatticeSizeError,
)
from leonardpairs.field import (
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
)
from leonardpairs.generators import (
    NONEXAMPLE_KINDS,
    build_lattice,
    example2,
    gaussian_binomial,
    lattice_forbidden_set,
    lattice_pair,
    random_nonexample,
    random_parameter_array,
    sl2_module,
    sl2_pair,
    uq_forbidden_set,
    uq_module,
    uq_pair,
)
from leonardpairs.leonard import (
    extract_parameter_array,
    fit_askey_wilson,
    is_leonard_pair,
)
from leonardpairs import generators, leonard, matrix
from leonardpairs.matrix import ExactMatrix, inverse, matrix_to_dict
from leonardpairs.parray import (
    FAMILY_CLASSICAL,
    FAMILY_Q_TYPE,
    fingerprint,
    validate,
)

from oracles import (
    dense_quantum_relations,
    dense_sl2_relations,
    graded_operators,
    lattice_chains,
    lattice_operators,
    lattice_relation_args,
    pairwise_covers,
    rref_lattice,
    tiny_tables,
)

Q = Rationals()

EX2_A = [
    ["0", "3", "0", "0"],
    ["1", "0", "2", "0"],
    ["0", "2", "0", "1"],
    ["0", "0", "3", "0"],
]
EX2_ASTAR = [
    ["3", "0", "0", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-3"],
]
EX2_P = [
    ["1", "3", "3", "1"],
    ["1", "1", "-1", "-1"],
    ["1", "-1", "-1", "1"],
    ["1", "-3", "3", "-1"],
]

UQ_A_Q2 = [
    ["16/3", "0", "0", "0"],
    ["1", "4/3", "0", "0"],
    ["0", "5/2", "1/3", "0"],
    ["0", "0", "21/4", "1/12"],
]
UQ_ASTAR_Q2 = [
    ["1/12", "63/4", "0", "0"],
    ["0", "1/3", "15/2", "0"],
    ["0", "0", "4/3", "3"],
    ["0", "0", "0", "16/3"],
]

LATTICE_COUNTS = {
    (2, 2): (1, 3, 1),
    (3, 2): (1, 7, 7, 1),
    (3, 3): (1, 13, 13, 1),
    (4, 2): (1, 15, 35, 15, 1),
    (4, 3): (1, 40, 130, 40, 1),
    (5, 2): (1, 31, 155, 155, 31, 1),
    (2, 4): (1, 5, 1),
    (2, 8): (1, 9, 1),
    (2, 9): (1, 10, 1),
}

LATTICE_MULTIPLICITIES = {
    (2, 2): {2: 1, 0: 2},
    (3, 2): {3: 1, 1: 6},
    (3, 3): {3: 1, 1: 12},
    (4, 2): {4: 1, 2: 14, 0: 20},
    (4, 3): {4: 1, 2: 39, 0: 90},
    (5, 2): {5: 1, 3: 30, 1: 124},
    (2, 4): {2: 1, 0: 4},
    (2, 8): {2: 1, 0: 8},
    (2, 9): {2: 1, 0: 9},
}


def _grid(matrix):
    f = matrix.field
    return [[f.serialize(v) for v in row] for row in matrix.rows]


def test_example2_frozen_matrices():
    a, a_star, p = example2(Q)
    assert _grid(a) == EX2_A
    assert _grid(a_star) == EX2_ASTAR
    assert _grid(p) == EX2_P


def test_example2_transition_identities():
    a, a_star, p = example2(Q)
    assert p @ p == ExactMatrix.diagonal(Q, [8, 8, 8, 8])
    assert a @ p == p @ a_star


def test_example2_recognized_away_from_characteristics_2_and_3():
    for field in (Q, PrimeField(5)):
        a, a_star, _ = example2(field)
        assert is_leonard_pair(a, a_star)


def test_example2_embeds_but_fails_in_characteristics_2_and_3():
    # no error: the matrices exist, the eigenvalues collide
    for p in (2, 3):
        a, a_star, _ = example2(PrimeField(p))
        result = is_leonard_pair(a, a_star)
        assert not result
        assert result.failure_reason


def test_example2_is_the_diameter_three_weight_module():
    a, a_star, _ = example2(Q)
    assert (a, a_star) == sl2_pair(Q, 3, a=(1, 1, 0), a_star=(0, 0, 1))


def test_sl2_module_brackets():
    m = sl2_module(Q, 10)
    assert m.e @ m.f - m.f @ m.e == m.h
    assert m.h @ m.e - m.e @ m.h == m.e.scale(Q.from_int(2))
    assert m.h @ m.f - m.f @ m.h == m.f.scale(Q.from_int(-2))


def test_sl2_default_pair_diameter_one():
    a, a_star = sl2_pair(Q, 1)
    assert _grid(a) == [["1", "0"], ["0", "-1"]]
    assert _grid(a_star) == [["0", "1"], ["1", "0"]]


def test_sl2_recognized_across_diameters():
    for d in range(7):
        a, a_star = sl2_pair(Q, d)
        result = is_leonard_pair(a, a_star)
        assert result
        assert len(result.systems) == (1 if d == 0 else 4)


def test_sl2_extraction_is_classical():
    for d in (3, 4, 6):
        result = is_leonard_pair(*sl2_pair(Q, d))
        fp = fingerprint(extract_parameter_array(result.canonical))
        assert fp.family == FAMILY_CLASSICAL
        assert fp.beta == FieldElement(Q, Q.coerce(2))


def test_sl2_generation_guard():
    with pytest.raises(GeneratorError, match="generate"):
        sl2_pair(Q, 3, a=(0, 0, 1), a_star=(0, 0, 1))


def test_sl2_semisimplicity_guard():
    # z^2 + xy = 1 - 1 = 0
    with pytest.raises(GeneratorError, match="semisimple"):
        sl2_pair(Q, 2, a=(1, -1, 1), a_star=(1, 1, 0))


def test_sl2_combination_with_irrational_spectrum_needs_the_extension():
    # e + f + h has eigenvalues +-sqrt(2) at d = 1
    with pytest.raises(GeneratorError, match="multiplicity-free"):
        sl2_pair(Q, 1, a=(1, 1, 1), a_star=(1, 1, 0))
    a, a_star = sl2_pair(QuadraticExtension(2), 1, a=(1, 1, 1), a_star=(1, 1, 0))
    assert is_leonard_pair(a, a_star)


def test_sl2_characteristic_guards():
    # char 2 kills the brackets (generation fails); p <= d collides the
    # weights d - 2i (multiplicity-freeness fails)
    cases = [
        (5, 4, None),
        (5, 5, "multiplicity-free"),
        (2, 0, "generate"),
        (2, 1, "generate"),
        (3, 2, None),
        (3, 3, "multiplicity-free"),
        (7, 6, None),
        (7, 7, "multiplicity-free"),
    ]
    for p, d, failure in cases:
        if failure is None:
            assert is_leonard_pair(*sl2_pair(PrimeField(p), d))
        else:
            with pytest.raises(GeneratorError, match=failure):
                sl2_pair(PrimeField(p), d)
    with pytest.raises(GeneratorError):
        sl2_pair(Q, -1)


def test_sl2_mod_p_is_the_reduction_of_the_rational_pair():
    f7 = PrimeField(7)
    a_q, s_q = sl2_pair(Q, 3)
    a_p, s_p = sl2_pair(f7, 3)
    for rat, red in ((a_q, a_p), (s_q, s_p)):
        for i in range(4):
            for j in range(4):
                value = Fraction(Q.serialize(rat.entry(i, j)))
                assert red.entry(i, j) == value.numerator % 7


def test_uq_frozen_matrices_q2():
    a, a_star, allowed = uq_pair(Q, 3, 2, beta=3)
    assert allowed
    assert _grid(a) == UQ_A_Q2
    assert _grid(a_star) == UQ_ASTAR_Q2


def test_uq_module_relations():
    m = uq_module(Q, 10, 2)
    den = Q.coerce("3/2")  # q - 1/q at q = 2
    assert m.e @ m.f - m.f @ m.e == (m.k - m.k_inv).scale(Q.inv(den))
    assert m.k @ m.e == (m.e @ m.k).scale(Q.coerce(4))
    assert m.k @ m.f == (m.f @ m.k).scale(Q.coerce("1/4"))
    assert m.k @ m.k_inv == ExactMatrix.identity(Q, 11)


def test_uq_askey_wilson_beta_is_q_squared_plus_inverse():
    """The eigenvalue ladder steps by q^2, so the fitted beta must equal
    q^2 + q^-2, not q + 1/q."""
    a, a_star, _ = uq_pair(Q, 3, 2, beta=3)
    result = is_leonard_pair(a, a_star)
    assert result and len(result.systems) == 4
    fit = fit_askey_wilson(a, a_star)
    assert fit.unique
    assert fit.coefficients["beta"] == FieldElement(Q, Q.coerce("17/4"))
    fp = fingerprint(extract_parameter_array(result.canonical))
    assert fp.family == FAMILY_Q_TYPE
    assert fp.q == FieldElement(Q, Q.coerce(4))  # q^2 at the array level


def test_uq_forbidden_set_frozen():
    values = {Q.serialize(v) for v in uq_forbidden_set(Q, 3, Q.coerce(2))}
    assert values == {"4", "1", "1/4"}


def test_uq_forbidden_scalars_are_flagged_not_raised():
    # eps*alpha*beta = 1 = q^(d-3) and 4 = q^(d-1) are both in the set;
    # the pair is still handed back, and recognition rejects it
    for beta in (1, 4):
        a, a_star, allowed = uq_pair(Q, 3, 2, beta=beta)
        assert not allowed
        result = is_leonard_pair(a, a_star)
        assert not result
        assert result.failure_reason


def test_uq_epsilon_enters_the_membership_test():
    a, a_star, allowed = uq_pair(Q, 3, 2, beta=1, epsilon=-1)
    assert allowed  # eps*alpha*beta = -1 avoids {4, 1, 1/4}
    assert is_leonard_pair(a, a_star)
    _, _, allowed2 = uq_pair(Q, 3, 2, beta=-1, epsilon=-1)
    assert not allowed2  # the product lands back on 1


def test_uq_diameter_zero_trivial():
    a, a_star, allowed = uq_pair(Q, 0, 2)
    assert allowed
    assert _grid(a) == [["2/3"]]
    assert _grid(a_star) == [["2/3"]]
    assert is_leonard_pair(a, a_star)


def test_uq_parameter_guards():
    for bad_q in (0, 1, -1):
        with pytest.raises(GeneratorError):
            uq_pair(Q, 3, bad_q, beta=3)
    with pytest.raises(GeneratorError):
        uq_pair(Q, 3, 2, alpha=0)
    with pytest.raises(GeneratorError):
        uq_pair(Q, 3, 2, beta=0)
    with pytest.raises(GeneratorError, match="epsilon"):
        uq_pair(Q, 3, 2, beta=3, epsilon=2)
    with pytest.raises(GeneratorError):
        uq_pair(Q, -2, 2)


def test_uq_finite_field_order_guard():
    f13 = PrimeField(13)
    a, a_star, allowed = uq_pair(f13, 3, 2, beta=7)
    assert allowed
    assert is_leonard_pair(a, a_star)
    # 2 has order 12 in GF(13), so q^(2k) = 1 first at k = 6
    with pytest.raises(GeneratorError, match="collide"):
        uq_pair(f13, 6, 2, beta=7)


def test_uq_irrational_q():
    """q = sqrt 2 gives rational beta: q^2 + q^-2 = 5/2."""
    ext = QuadraticExtension(2)
    a, a_star, allowed = uq_pair(ext, 3, "s", beta=5)
    assert allowed
    result = is_leonard_pair(a, a_star)
    assert result
    fit = fit_askey_wilson(a, a_star)
    assert str(fit.coefficients["beta"]) == "5/2"
    fp = fingerprint(extract_parameter_array(result.canonical))
    assert fp.family == FAMILY_Q_TYPE
    assert str(fp.q) == "2"


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 2, 2) == 155
    assert [gaussian_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0
    assert sum(gaussian_binomial(5, k, 2) for k in range(6)) == 374
    assert sum(gaussian_binomial(5, k, 3) for k in range(6)) == 2664


@pytest.mark.parametrize("n,q", sorted(LATTICE_COUNTS))
def test_lattice_counts_frozen(n, q):
    _, _, dec = lattice_pair(build_lattice(n, q))
    assert dec.counts == LATTICE_COUNTS[(n, q)]
    assert dec.total_subspaces == sum(LATTICE_COUNTS[(n, q)])
    assert sum(c.diameter + 1 for c in dec.components) == dec.total_subspaces
    assert dec.multiplicities() == LATTICE_MULTIPLICITIES[(n, q)]


def test_subspace_counts_script_agrees_with_frozen_counts():
    script = Path(__file__).resolve().parents[1] / "scripts" / "subspace_counts.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        match = re.fullmatch(
            r"n=(\d+) q=(\d+): per-dimension \[([\d, ]+)\] total (\d+)"
            r" covers \[([\d, ]+)\] subcovers \[([\d, ]+)\]",
            line,
        )
        assert match, line
        n, q, cols, total, up, down = match.groups()
        n, q = int(n), int(q)
        counts = tuple(int(c) for c in cols.split(", "))
        assert counts == LATTICE_COUNTS[(n, q)]
        assert int(total) == sum(counts)
        # every k-subspace has [n-k]_q covers and [k]_q subcovers, in the
        # script's brute force and in build_lattice's covers
        lat = build_lattice(n, q)
        below = [[0] * m for m in counts]
        for k, grade in enumerate(lat.covers):
            for ups in grade:
                for y in ups:
                    below[k + 1][y] += 1
        above = [[len(ups) for ups in grade] for grade in lat.covers] + [[0]]
        for listed, lists in ((up, above), (down, below)):
            per_dim = [int(c) for c in listed.split(", ")]
            assert [set(grade) for grade in lists] == [{c} for c in per_dim]
        assert [int(c) for c in up.split(", ")] == [
            (q ** (n - k) - 1) // (q - 1) for k in range(n + 1)
        ]


@pytest.mark.parametrize("q", sorted(generators._TINY_MODULI))
def test_tiny_moduli_build_their_fields(q):
    # _TinyField raises InternalCheckError on a reducible modulus
    tiny = generators._TinyField(q)
    assert all(1 in tiny.mul_table[a] for a in range(1, q))


@pytest.mark.parametrize("q", sorted([*generators._TINY_MODULI, 2, 3, 5, 7]))
def test_tiny_field_tables_match_mulmod_reference(q):
    tiny = generators._TinyField(q)
    assert (tiny.mul_table, tiny.neg_table) == tiny_tables(tiny)


@pytest.mark.parametrize("modulus", [(0, 0, 1), (1, 0, 1)], ids=["x^2", "x^2 + 1"])
def test_tiny_field_refuses_reducible_moduli(monkeypatch, modulus):
    # x is nilpotent modulo x^2: its powers 1, x, 0, 0 never return to 1
    monkeypatch.setitem(generators._TINY_MODULI, 4, modulus)
    with pytest.raises(InternalCheckError, match="not irreducible"):
        generators._TinyField(4)


def test_lattice_structure_2_2():
    lat = build_lattice(2, 2)
    assert lat.counts == (1, 3, 1)
    assert len(lat.points) == 5
    assert lat.covers[0][0] == (0, 1, 2)
    assert all(lat.covers[1][j] == (0,) for j in range(3))
    assert lat.field.name == "Q(sqrt 2)"


def test_lattice_even_prime_power_collapses_to_q():
    lat = build_lattice(2, 4)
    assert lat.field.name == "Q"
    _, _, dec = lattice_pair(lat)
    top = next(c for c in dec.components if c.diameter == 2)
    assert [str(top.a[i, i]) for i in range(3)] == ["8/3", "2/3", "1/6"]
    assert is_leonard_pair(top.a, top.a_star)


def test_lattice_big_pair_matches_operator_formula():
    lat = build_lattice(3, 2)
    f = lat.field
    sq = f.from_parts(0, 1)
    den = f.inv(f.sub(sq, f.inv(sq)))
    a, a_star, _ = lattice_pair(lat, 1, 8)
    k_op, r_op, l_op = lattice_operators(lat)
    assert a == r_op.scale(f.one) + k_op.scale(den)
    k_inv = ExactMatrix.diagonal(f, [f.inv(k_op.rows[i][i]) for i in range(16)])
    assert a_star == l_op.scale(f.from_int(8)) + k_inv.scale(den)


def test_lattice_components_are_leonard_pairs():
    for n, q in ((2, 2), (3, 2), (4, 2), (3, 3)):
        _, _, dec = lattice_pair(build_lattice(n, q))
        for comp in dec.components:
            assert is_leonard_pair(comp.a, comp.a_star), (n, q, comp.grade)


@pytest.mark.parametrize("n,q,distinct", [(4, 2, 3), (3, 3, 2), (5, 2, 3)])
def test_lattice_validates_one_array_per_distinct_chain_and_recognises_nothing(
    monkeypatch, n, q, distinct
):
    recognised, validated = [], []

    def counted_recognition(a, a_star):
        recognised.append((a, a_star))
        return is_leonard_pair(a, a_star)

    def counted_validation(pa):
        validated.append(pa)
        return validate(pa)

    monkeypatch.setattr(leonard, "is_leonard_pair", counted_recognition)
    monkeypatch.setattr(generators, "is_leonard_pair", counted_recognition, raising=False)
    monkeypatch.setattr(generators, "validate", counted_validation)
    _, _, dec = lattice_pair(build_lattice(n, q))
    assert recognised == []
    assert len(validated) == distinct == n // 2 + 1
    pairs = {(c.a, c.a_star) for c in dec.components}
    assert len(pairs) == distinct
    # each validated array is the one on the bands of a distinct chain pair
    diagonals = {(a.rows[0][0], a_star.rows[0][0], a.n) for a, a_star in pairs}
    assert {(pa.theta[0], pa.theta_star[0], pa.d + 1) for pa in validated} == diagonals
    assert all(validate(pa).valid for pa in validated)


def _band_mutants(a, a_star):
    """The chain pair, then each diagonal entry of A moved (one up, and onto
    its neighbour's value), each diagonal entry of A* moved one up, and each
    superdiagonal entry of A* doubled."""
    f, n = a.field, a.n

    def edited(m, i, j, value):
        rows = [list(row) for row in m.rows]
        rows[i][j] = value
        return ExactMatrix._raw(f, rows)

    yield a, a_star
    for i in range(n):
        yield edited(a, i, i, f.add(a.rows[i][i], f.one)), a_star
        yield edited(a, i, i, a.rows[(i + 1) % n][(i + 1) % n]), a_star
        yield a, edited(a_star, i, i, f.add(a_star.rows[i][i], f.one))
    for i in range(n - 1):
        yield a, edited(a_star, i, i + 1, f.mul(f.from_int(2), a_star.rows[i][i + 1]))


@pytest.mark.parametrize(
    "n,q",
    [(n, 2) for n in range(1, 6)]
    + [(n, 3) for n in range(2, 5)]
    + [(2, 4), (2, 5), (3, 4), (2, 9)],
)
def test_split_array_certificate_agrees_with_recognition(n, q):
    """The array on the bands is valid exactly when is_leonard_pair accepts
    the pair, on every distinct chain pair and on its band mutants."""
    _, _, dec = lattice_pair(build_lattice(n, q))
    verdicts = []
    for a, a_star in {(c.a, c.a_star) for c in dec.components}:
        for x, x_star in _band_mutants(a, a_star):
            certified = generators._split_array(x, x_star) is not None
            assert certified == bool(is_leonard_pair(x, x_star)), (n, q, x, x_star)
            verdicts.append(certified)
    assert True in verdicts and False in verdicts


def test_lattice_refuses_a_chain_with_a_broken_coefficient(monkeypatch):
    # on (4,2) the grade-1 chains have diameter 2, where doubling the first
    # lowering scalar breaks the array, and recognition must refuse it
    real = generators._lowering_scalars

    def broken(n, q, k):
        out = real(n, q, k)
        return [2 * out[0]] + out[1:] if k == 1 else out

    monkeypatch.setattr(generators, "_lowering_scalars", broken)
    with pytest.raises(InternalCheckError, match="grade-1 component failed recognition"):
        lattice_pair(build_lattice(4, 2))


def test_lattice_top_component_fingerprint():
    _, _, dec = lattice_pair(build_lattice(3, 2))
    comp = next(c for c in dec.components if c.diameter == 3)
    result = is_leonard_pair(comp.a, comp.a_star)
    pa = extract_parameter_array(result.canonical)
    assert validate(pa).valid
    assert [str(v) for v in pa.theta_elements()] == ["4", "2", "1", "1/2"]
    fp = fingerprint(pa)
    assert fp.family == FAMILY_Q_TYPE
    assert str(fp.beta) == "5/2"
    assert str(fp.q) == "2"


def test_lattice_top_component_bidiagonal_frozen():
    _, _, dec = lattice_pair(build_lattice(3, 2))
    top = next(c for c in dec.components if c.diameter == 3)
    assert [str(top.a[i + 1, i]) for i in range(3)] == ["1", "1", "1"]
    assert [str(top.a_star[i, i + 1]) for i in range(3)] == ["28", "36", "28"]
    # K^-1 weights 2^(2j-3) times den = sqrt(2): 2^(j-1)
    assert [str(top.a_star[i, i]) for i in range(4)] == ["1/2", "1", "2", "4"]


def test_lattice_two_two_chain_frozen():
    top = next(c for c in lattice_chains(build_lattice(2, 2)) if c.grade == 0)
    chains = [[str(v) for v in vec] for vec in top.basis]
    assert chains == [
        ["1", "0", "0", "0", "0"],
        ["0", "1", "1", "1", "0"],
        ["0", "0", "0", "0", "3"],
    ]


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_lattice_restriction_matches_full_operators(n, q):
    """Cross-check the closed-form pairs: applying the full-module
    operator to each walked chain vector must reproduce the column of the
    component's pair expanded back in the chain."""
    lat = build_lattice(n, q)
    big_a, big_s, dec = lattice_pair(lat)
    ext = lat.field
    chains = lattice_chains(lat)
    assert len(chains) == len(dec.components)
    for comp, chain in zip(dec.components, chains):
        assert chain.grade == comp.grade
        cols = [[ext.from_rational(v) for v in vec] for vec in chain.basis]
        for small, big in ((comp.a, big_a), (comp.a_star, big_s)):
            for j in range(comp.diameter + 1):
                image = big.apply(cols[j])
                expected = [ext.zero] * dec.total_subspaces
                for i in range(comp.diameter + 1):
                    coeff = small.entry(i, j)
                    if ext.is_zero(coeff):
                        continue
                    expected = [
                        ext.add(e, ext.mul(coeff, w))
                        for e, w in zip(expected, cols[i])
                    ]
                assert image == expected, (n, q, comp.grade, j)


# 250 chains in all; (5,2) alone has 155
WALKED_LATTICES = (
    (1, 2), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (4, 2), (2, 5), (3, 4), (5, 2),
)


def test_lattice_closed_form_matches_the_chain_walk():
    walked = 0
    for n, q in WALKED_LATTICES:
        lat = build_lattice(n, q)
        _, _, dec = lattice_pair(lat)
        chains = lattice_chains(lat)
        assert [(c.grade, c.diameter) for c in dec.components] == [
            (chain.grade, len(chain.basis) - 1) for chain in chains
        ], (n, q)
        for chain in chains:
            assert list(chain.coefficients) == generators._lowering_scalars(
                n, q, chain.grade
            ), (n, q, chain.grade)
        walked += len(chains)
    assert walked == 250


def test_lattice_full_module_is_not_a_pair():
    big_a, big_s, _ = lattice_pair(build_lattice(2, 2))
    result = is_leonard_pair(big_a, big_s)
    assert not result
    assert "multiplicity-free" in result.failure_reason


def test_lattice_unit_scalars_follow_the_parity_of_n():
    # the forbidden set holds odd powers of sqrt(q) for even n, so
    # alpha = beta = 1 survives there; for odd n it contains q^0 = 1
    _, _, dec = lattice_pair(build_lattice(2, 2), 1, 1)
    assert dec.multiplicities() == {2: 1, 0: 2}
    with pytest.raises(GeneratorError, match="forbidden"):
        lattice_pair(build_lattice(3, 2), 1, 1)


def test_lattice_forbidden_set_frozen():
    lat32 = build_lattice(3, 2)
    assert {lat32.field.serialize(v) for v in lattice_forbidden_set(lat32)} == {
        "2",
        "1",
        "1/2",
    }
    lat22 = build_lattice(2, 2)
    assert {lat22.field.serialize(v) for v in lattice_forbidden_set(lat22)} == {
        "s",
        "1/2*s",
    }
    with pytest.raises(GeneratorError, match="forbidden"):
        lattice_pair(lat22, 1, "s")


def test_lattice_irrational_scalars_can_multiply_to_an_allowed_value():
    # alpha*beta = 2 = sqrt(2)^2 is an even power, outside the set
    _, _, dec = lattice_pair(build_lattice(2, 2), "s", "s")
    comp = next(c for c in dec.components if c.diameter == 2)
    assert is_leonard_pair(comp.a, comp.a_star)


def test_lattice_default_beta_is_never_forbidden():
    for n, q in ((2, 2), (3, 2), (3, 3), (2, 4)):
        lat = build_lattice(n, q)
        assert lat.field.coerce(q**n) not in lattice_forbidden_set(lat)


def _uq_relation_args(m):
    """The graded form of a uq module, read off its matrices."""
    d, field = m.d, m.field
    return [
        field,
        m.q,
        (1,) * (d + 1),
        [((0,),)] * d,
        [m.k.rows[i][i] for i in range(d + 1)],
        [m.e.rows[i][i + 1] for i in range(d)],
        [m.f.rows[i + 1][i] for i in range(d)],
    ]


def _sl2_relation_args(m):
    """The graded form of an sl2 module, read off its matrices."""
    d = m.d
    return [
        m.field,
        [m.h.rows[i][i] for i in range(d + 1)],
        [m.e.rows[i][i + 1] for i in range(d)],
        [m.f.rows[i + 1][i] for i in range(d)],
    ]


def _dense_relation_check(args):
    """The dense reference on the grids a graded argument list spells out."""
    field, q, counts, covers, weights, e, f = args
    k_op, e_op, f_op = graded_operators(field, counts, covers, weights, e, f)
    dense_quantum_relations(k_op, e_op, f_op, q)


def _dense_sl2_check(args):
    """The six dense products on the grids an sl2 argument list spells out."""
    field, weights, e, f = args
    covers = [((0,),)] * len(e)
    h_op, e_op, f_op = graded_operators(field, (1,) * len(weights), covers, weights, e, f)
    dense_sl2_relations(e_op, f_op, h_op)


QUANTUM_CHECKS = (generators._verify_quantum_relations, _dense_relation_check)
SL2_CHECKS = (generators._verify_sl2_grades, _dense_sl2_check)


def test_graded_and_dense_relation_checks_accept_the_same_modules():
    for n, q in WALKED_LATTICES:
        args = lattice_relation_args(build_lattice(n, q))
        generators._verify_quantum_relations(*args)
        _dense_relation_check(args)
    for field, q in ((Q, 2), (PrimeField(101), 3), (QuadraticExtension(5), "1/2+1/2*s")):
        m = uq_module(field, 6, q, epsilon=-1)
        args = _uq_relation_args(m)
        generators._verify_quantum_relations(*args)
        _dense_relation_check(args)
        dense_quantum_relations(m.k, m.e, m.f, m.q, m.k_inv)
    # GF(3) at d = 4 has colliding weights 1, 2, 0, 1, 2
    sl2_cases = [(Q, d) for d in range(11)] + [
        (PrimeField(3), 4), (PrimeField(101), 6), (QuadraticExtension(5), 6)
    ]
    for field, d in sl2_cases:
        m = sl2_module(field, d)
        args = _sl2_relation_args(m)
        generators._verify_sl2_grades(*args)
        _dense_sl2_check(args)
        dense_sl2_relations(m.e, m.f, m.h)


def test_lattice_covers_match_the_pairwise_scan():
    for n, q in WALKED_LATTICES:
        lat = build_lattice(n, q)
        assert lat.covers == pairwise_covers(lat), (n, q)


def test_lattice_grades_follow_the_rref_enumeration():
    """Grades read off the cover pass come in the order of pivot columns,
    then free entries, as a direct RREF enumeration yields them."""
    for n, q in WALKED_LATTICES + ((4, 5),):
        lat = build_lattice(n, q)
        assert (lat.grades, lat.covers) == rref_lattice(n, q), (n, q)


def test_build_lattice_forms_no_matrix(monkeypatch):
    """Neither the lattice nor the sl2 and uq modules form a matrix
    product to check their relations."""
    def refuse(*args):
        raise AssertionError("a module check formed a matrix product")

    monkeypatch.setattr(ExactMatrix, "__matmul__", refuse)
    monkeypatch.setattr(matrix, "_lift_lines", refuse)
    lat = build_lattice(4, 2)
    assert lat.counts == LATTICE_COUNTS[(4, 2)]
    assert sl2_module(Q, 8).h.entry(0, 0) == Q.from_int(8)
    assert uq_module(Q, 8, 2).k.entry(8, 8) == Q.coerce("1/256")


def _lattice_args():
    return QUANTUM_CHECKS, lattice_relation_args(build_lattice(3, 2))


def _uq_args():
    return QUANTUM_CHECKS, _uq_relation_args(uq_module(Rationals(), 3, 2))


def _sl2_args():
    return SL2_CHECKS, _sl2_relation_args(sl2_module(Rationals(), 3))


def _double(field, value):
    return field.mul(field.from_int(2), value)


def _double_grade_weight(args):
    args[4][1] = _double(args[0], args[4][1])


def _double_l(args):
    args[5] = [_double(args[0], x) for x in args[5]]


def _drop_a_cover(args):
    covers = args[3][0]
    args[3][0] = (covers[0][1:],) + covers[1:]


def _add_a_cover(args):
    # a line and a plane not containing it
    covers = args[3][1]
    plane = next(j for j in range(args[2][2]) if j not in covers[0])
    args[3][1] = (tuple(sorted(covers[0] + (plane,))),) + covers[1:]


def _rewire_two_covers(args):
    # lines x1, x2 trade planes y1 in covers(x1) only and y2 in covers(x2)
    # only: every vertex keeps its number of covers and of subcovers
    covers = list(args[3][1])
    y1 = next(y for y in covers[0] if y not in covers[1])
    y2 = next(y for y in covers[1] if y not in covers[0])
    covers[0] = tuple(sorted(set(covers[0]) - {y1} | {y2}))
    covers[1] = tuple(sorted(set(covers[1]) - {y2} | {y1}))
    args[3][1] = tuple(covers)


def _double_uq_e(args):
    args[5][0] = _double(args[0], args[5][0])


def _double_sl2(slot, grade):
    # on d = 3 the weights are 3, 1, -1, -3, so no doubled scalar stays put
    def mutate(args):
        args[slot][grade] = _double(args[0], args[slot][grade])

    return mutate


@pytest.mark.parametrize(
    "build,mutate,match",
    [
        pytest.param(_lattice_args, _double_l, "on the diagonal", id="L-doubled"),
        pytest.param(
            _lattice_args, _double_grade_weight, "ke = q", id="K-grade-weight-doubled"
        ),
        pytest.param(_lattice_args, _drop_a_cover, "on the diagonal", id="cover-dropped"),
        pytest.param(_lattice_args, _add_a_cover, "on the diagonal", id="cover-added"),
        pytest.param(
            _lattice_args, _rewire_two_covers, "off the diagonal", id="covers-rewired"
        ),
        pytest.param(_uq_args, _double_uq_e, "on the diagonal", id="uq-e-entry-doubled"),
        pytest.param(_sl2_args, _double_sl2(1, 2), "he - eh = 2e", id="sl2-h-entry-doubled"),
        pytest.param(_sl2_args, _double_sl2(2, 0), "on the diagonal", id="sl2-e-entry-doubled"),
        pytest.param(_sl2_args, _double_sl2(3, 1), "on the diagonal", id="sl2-f-entry-doubled"),
    ],
)
def test_quantum_relation_check_catches_mutants(build, mutate, match):
    (graded, dense), args = build()
    graded(*args)
    mutate(args)
    with pytest.raises(InternalCheckError, match=match):
        graded(*args)
    with pytest.raises(InternalCheckError):
        dense(args)


def test_lattice_guards():
    with pytest.raises(GeneratorError):
        build_lattice(6, 2)
    with pytest.raises(GeneratorError):
        build_lattice(0, 2)
    with pytest.raises(GeneratorError):
        build_lattice(4, 11)
    with pytest.raises(GeneratorError):
        build_lattice(3, 6)
    with pytest.raises(LatticeSizeError):
        build_lattice(5, 4)
    with pytest.raises(GeneratorError):
        lattice_pair(build_lattice(2, 2), 0, 1)


def test_random_parameter_arrays_are_valid():
    rng = random.Random(7)
    for d in range(6):
        pa = random_parameter_array(Q, d, rng)
        assert pa.d == d
        assert validate(pa).valid
    pa = random_parameter_array(PrimeField(101), 3, random.Random(5))
    assert validate(pa).valid


def test_random_parameter_array_is_seed_deterministic():
    one = random_parameter_array(Q, 3, random.Random(42))
    two = random_parameter_array(Q, 3, random.Random(42))
    assert one == two


def test_random_parameter_array_exhaustion():
    with pytest.raises(GeneratorError, match="no valid parameter array"):
        random_parameter_array(PrimeField(2), 2, random.Random(0))


@pytest.mark.parametrize("kind", NONEXAMPLE_KINDS)
def test_random_nonexamples_are_rejected(kind):
    for field in (Q, PrimeField(101), QuadraticExtension(5)):
        a, a_star, got = random_nonexample(field, 4, random.Random(3), kind)
        assert got == kind
        result = is_leonard_pair(a, a_star)
        assert not result
        assert result.failure_reason


def test_random_nonexample_default_kind_and_determinism():
    a1, s1, k1 = random_nonexample(Q, 5, random.Random(11))
    a2, s2, k2 = random_nonexample(Q, 5, random.Random(11))
    assert (a1, s1, k1) == (a2, s2, k2)
    assert k1 in NONEXAMPLE_KINDS


def test_random_nonexample_inverts_once(monkeypatch):
    # digest of the seeded output from when each member was conjugated on
    # its own, inverting g twice
    calls = []

    def counted(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(generators, "inverse", counted)
    digest = hashlib.sha256()
    for field in (Q, PrimeField(101)):
        for seed, kind in enumerate(NONEXAMPLE_KINDS):
            calls.clear()
            a, a_star, got = random_nonexample(field, 5, random.Random(seed), kind)
            assert len(calls) == 1
            dumped = [matrix_to_dict(a), matrix_to_dict(a_star), got]
            digest.update(json.dumps(dumped, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "c8f9c7e0eed7c2da6122878ffd2271bdb8a26382293ddc7707edb2e0a9ef99d4"
    )


def test_random_nonexample_guards():
    with pytest.raises(GeneratorError):
        random_nonexample(Q, 1, random.Random(0))
    with pytest.raises(GeneratorError):
        random_nonexample(Q, 4, random.Random(0), "mystery")
    with pytest.raises(GeneratorError):
        random_nonexample(PrimeField(3), 4, random.Random(0), "one-sided")
