"""Exact matrix algebra: char polys, eigen witnesses, shapes, solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from leonardpairs.errors import (
    FieldMismatchError,
    InternalCheckError,
    SingularMatrixError,
)
from leonardpairs import matrix as matrix_module
from leonardpairs.field import (
    ExactPolynomial,
    PrimeField,
    QuadraticExtension,
    Rationals,
    roots_in_field,
)
from leonardpairs.generators import sl2_pair, uq_pair
from leonardpairs.matrix import (
    ExactMatrix,
    _hessenberg,
    SHAPE_DIAGONAL,
    SHAPE_IRREDUCIBLE_TRIDIAGONAL,
    SHAPE_LOWER_BIDIAGONAL,
    SHAPE_OTHER,
    SHAPE_TRIDIAGONAL,
    SHAPE_UPPER_BIDIAGONAL,
    char_poly,
    conjugate,
    inverse,
    is_irreducible_tridiagonal,
    is_multiplicity_free,
    is_tridiagonal,
    matrix_to_dict,
    shape,
)

from oracles import (
    echelon,
    joint_intertwiner_basis,
    nullspace,
    nullspace_grid,
    solve_grid,
    solve_linear,
    subtract_multiple,
    triangular_eigen,
)

Q = Rationals()

# the 4x4 fixture pair: A irreducible tridiagonal, A* diagonal, P conjugates
A4 = ExactMatrix(Q, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
A4_STAR = ExactMatrix.diagonal(Q, [3, 1, -1, -3])
P4 = ExactMatrix(Q, [[1, 3, 3, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -3, 3, -1]])


def _charpoly_cofactor(matrix: ExactMatrix) -> ExactPolynomial:
    """Independent oracle: Laplace expansion of det(lambda I - M)."""
    f = matrix.field
    n = matrix.n
    entries = [
        [
            ExactPolynomial(
                f, [f.neg(matrix.entry(i, j))] + ([f.one] if i == j else [])
            )
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows: list[int], cols: list[int]) -> ExactPolynomial:
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = ExactPolynomial(f, [])
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = entries[r][c] * minor
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    return det(list(range(n)), list(range(n)))


def _random_matrix(field, n, rng) -> ExactMatrix:
    return ExactMatrix(
        field, [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
    )


def _random_invertible(field, n, rng) -> ExactMatrix:
    lower = [
        [
            field.one
            if i == j
            else (field.coerce(rng.randint(-4, 4)) if i > j else field.zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    upper = [
        [
            field.one
            if i == j
            else (field.coerce(rng.randint(-4, 4)) if i < j else field.zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ExactMatrix._raw(field, lower) @ ExactMatrix._raw(field, upper)


def test_constructor_checks():
    with pytest.raises(ValueError):
        ExactMatrix(Q, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(Q, [])
    with pytest.raises(FieldMismatchError):
        A4 + ExactMatrix.identity(PrimeField(5), 4)


BAND_FIELDS = [Q, PrimeField(2), PrimeField(101), QuadraticExtension(5)]


@pytest.mark.parametrize("field", BAND_FIELDS, ids=lambda f: f.name)
def test_diagonal_builds_bands(field):
    diag, below, above = [1, "2", -3, "4"], ["5", 6, "-7"], [8, "9", 10]
    grid = [
        [
            diag[i] if i == j
            else below[j] if i == j + 1
            else above[i] if j == i + 1
            else 0
            for j in range(4)
        ]
        for i in range(4)
    ]
    banded = ExactMatrix.diagonal(field, diag, below=below, above=above)
    assert banded == ExactMatrix(field, grid)
    assert banded.rows[1][0] == field.coerce("5") and banded.rows[0][1] == field.coerce(8)
    assert ExactMatrix.diagonal(
        field, reversed(diag[::-1]), below=reversed(below[::-1]), above=iter(above)
    ) == banded
    assert ExactMatrix.diagonal(field, diag, below=below) == ExactMatrix(
        field, [[v if j <= i else 0 for j, v in enumerate(row)] for i, row in enumerate(grid)]
    )
    assert ExactMatrix.diagonal(field, diag, above=above) == ExactMatrix(
        field, [[v if j >= i else 0 for j, v in enumerate(row)] for i, row in enumerate(grid)]
    )
    assert ExactMatrix.diagonal(field, ["7"]) == ExactMatrix(field, [[7]])
    assert ExactMatrix.diagonal(field, [7], below=[], above=()) == ExactMatrix(field, [[7]])
    assert ExactMatrix.identity(field, 3) == ExactMatrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ExactMatrix.zeros(field, 2) == ExactMatrix(field, [[0, 0], [0, 0]])
    for bad in ([], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            ExactMatrix.diagonal(field, diag, below=bad)
        with pytest.raises(ValueError):
            ExactMatrix.diagonal(field, diag, above=bad)
    with pytest.raises(ValueError):
        ExactMatrix.diagonal(field, [7], below=[1])
    for empty in (
        lambda: ExactMatrix.diagonal(field, []),
        lambda: ExactMatrix.diagonal(field, [], below=[], above=[]),
        lambda: ExactMatrix.identity(field, 0),
        lambda: ExactMatrix.zeros(field, 0),
    ):
        with pytest.raises(ValueError, match="square and nonempty"):
            empty()


def test_basic_algebra():
    eye = ExactMatrix.identity(Q, 4)
    assert A4 @ eye == A4
    assert (A4 - A4).is_zero
    assert A4 + (-A4) == ExactMatrix.zeros(Q, 4)
    assert A4.scale(2) == A4 + A4
    assert A4.transpose().transpose() == A4
    assert A4.trace() == Q(0)
    assert A4[0, 1] == Q(3)
    assert eye.scale(7).trace() == Q(28)


def test_fixture_identities():
    assert P4 @ P4 == ExactMatrix.identity(Q, 4).scale(8)
    assert conjugate(A4, P4) == A4_STAR
    assert conjugate(A4, ExactMatrix.identity(Q, 4)) == A4


def test_char_poly_fixture():
    chi = char_poly(A4)
    assert [str(c) for c in chi.coefficients()] == ["9", "0", "-10", "0", "1"]
    assert chi == _charpoly_cofactor(A4)
    assert [(str(r), m) for r, m in roots_in_field(chi)] == [
        ("1", 1),
        ("3", 1),
        ("-1", 1),
        ("-3", 1),
    ]


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(41)
    for field in (Q, PrimeField(13), QuadraticExtension(2)):
        for n in (1, 2, 3, 4):
            m = _random_matrix(field, n, rng)
            assert char_poly(m) == _charpoly_cofactor(m)


def test_char_poly_small_characteristic():
    # p <= n: the Hessenberg recurrence never divides by n, so these need
    # no lift to Q; dense conjugates make the reduction do real work
    rng = random.Random(42)
    for p in (2, 3):
        field = PrimeField(p)
        for n in range(p, 7):
            m = _random_matrix(field, n, rng)
            assert char_poly(m) == _charpoly_cofactor(m)
            dense = conjugate(m, _random_invertible(field, n, rng))
            assert char_poly(dense) == _charpoly_cofactor(dense)


def _hessenberg_inputs(field):
    """Matrices the reduction must leave alone: diagonal, bidiagonal, and
    block upper triangular Hessenberg with a zero subdiagonal entry."""
    yield ExactMatrix.diagonal(field, [3, -1, 4, 1, -5])
    lower = ExactMatrix(
        field, [[2, 0, 0, 0], [1, 5, 0, 0], [0, -3, 2, 0], [0, 0, 7, -1]]
    )
    yield lower
    yield lower.transpose()
    yield ExactMatrix(
        field,
        [
            [1, 2, 3, 4, 5],
            [6, 7, 8, 9, 1],
            [0, 0, 2, 3, 4],  # h[2][1] = 0 splits off a 2x2 block
            [0, 0, 5, 6, 7],
            [0, 0, 0, 8, 9],
        ],
    )


def _reducible(field):
    """Block diagonal, not triangular: its H keeps h[2][1] = 0, so it has a
    2x2 and a 3x3 block, and the reduction does work in the second."""
    return ExactMatrix(
        field,
        [
            [1, 2, 0, 0, 0],
            [3, 4, 0, 0, 0],
            [0, 0, 1, 2, 3],
            [0, 0, 4, 5, 6],
            [0, 0, 7, 8, 10],
        ],
    )


@pytest.mark.parametrize(
    "field", [Q, PrimeField(101), QuadraticExtension(5)], ids=lambda f: f.name
)
def test_char_poly_of_reducible_input_matches_cofactor_oracle(field):
    m = _reducible(field)
    h, _ = _hessenberg(m)
    assert h != m and field.is_zero(h.rows[2][1])
    assert char_poly(m) == _charpoly_cofactor(m)


def test_char_poly_runs_the_recurrence_on_blocks_only(monkeypatch):
    # chi is the product of the block polynomials: no recurrence runs over
    # the whole of an H with two or more blocks
    recurrence = matrix_module._hessenberg_recurrence
    calls = []

    def spy(field, h, start, stop):
        calls.append((start, stop))
        return recurrence(field, h, start, stop)

    monkeypatch.setattr(matrix_module, "_hessenberg_recurrence", spy)
    cases = [
        (_reducible(Q), [(0, 2), (2, 5)]),
        (A4_STAR, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ]
    for m, blocks in cases:
        calls.clear()
        char_poly(m)
        assert calls == blocks


@pytest.mark.parametrize(
    "field", [Q, PrimeField(7), QuadraticExtension(5)], ids=lambda f: f.name
)
def test_char_poly_on_hessenberg_input(field):
    for m in _hessenberg_inputs(field):
        h, q = _hessenberg(m)
        assert h == m and q == ExactMatrix.identity(field, m.n)  # no work done
        assert char_poly(m) == _charpoly_cofactor(m)


def test_hessenberg_reduction_is_a_similarity():
    rng = random.Random(45)
    for field in (Q, PrimeField(2), QuadraticExtension(5)):
        for n in (1, 2, 3, 5, 6):
            m = _random_matrix(field, n, rng)
            h, q = _hessenberg(m)
            assert m @ q == q @ h
            assert all(
                field.is_zero(h.entry(i, j)) for i in range(n) for j in range(i - 1)
            )


def test_char_poly_similarity_invariant():
    rng = random.Random(43)
    for n in (2, 3, 4, 5, 6):
        m = _random_matrix(Q, n, rng)
        g = _random_invertible(Q, n, rng)
        assert char_poly(conjugate(m, g)) == char_poly(m)


def test_inverse():
    assert inverse(P4) @ P4 == ExactMatrix.identity(Q, 4)
    with pytest.raises(SingularMatrixError):
        inverse(ExactMatrix(Q, [[1, 2], [2, 4]]))
    rng = random.Random(44)
    for field in (Q, PrimeField(7)):
        g = _random_invertible(field, 4, rng)
        assert g @ inverse(g) == ExactMatrix.identity(field, 4)


def test_solve_linear():
    m = ExactMatrix(Q, [[1, 2], [2, 4]])
    under = solve_linear(m, [1, 2])
    assert under.status == "underdetermined"
    assert len(under.nullspace) == 1
    x = under.solution
    assert x[0] + 2 * x[1] == Q(1)
    assert solve_linear(m, [1, 3]).status == "inconsistent"
    unique = solve_linear(P4, [1, 0, 0, 0])
    assert unique.status == "unique" and not unique.nullspace
    back = [
        sum((P4[i, j] * unique.solution[j] for j in range(4)), Q(0)) for i in range(4)
    ]
    assert back == [Q(1), Q(0), Q(0), Q(0)]
    with pytest.raises(ValueError):
        solve_linear(m, [1, 2, 3])


def test_nullspace_normalization():
    m = ExactMatrix(Q, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert [str(v) for v in basis[0]] == ["1", "0", "0"]
    # leading coordinate of every basis vector is exactly 1
    m2 = ExactMatrix(Q, [[1, 2, 3], [2, 4, 6], [1, 2, 3]])
    for vec in nullspace(m2):
        lead = next(v for v in vec if not v.is_zero)
        assert lead == Q(1)


def test_shapes():
    assert shape(A4) == SHAPE_IRREDUCIBLE_TRIDIAGONAL
    assert shape(A4_STAR) == SHAPE_DIAGONAL
    assert shape(ExactMatrix(Q, [[1]])) == SHAPE_DIAGONAL
    lower = ExactMatrix(Q, [[1, 0, 0], [1, 2, 0], [0, 1, 3]])
    assert shape(lower) == SHAPE_LOWER_BIDIAGONAL
    assert shape(lower.transpose()) == SHAPE_UPPER_BIDIAGONAL
    broken = ExactMatrix(Q, [[0, 1, 0], [0, 0, 0], [0, 1, 0]])
    assert shape(broken) == SHAPE_TRIDIAGONAL
    dense = ExactMatrix(Q, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert shape(dense) == SHAPE_OTHER
    assert is_tridiagonal(A4) and not is_tridiagonal(dense)
    assert is_irreducible_tridiagonal(A4)
    assert is_irreducible_tridiagonal(ExactMatrix(Q, [[5]]))
    assert not is_irreducible_tridiagonal(broken)


def test_shape_respects_field_characteristic():
    F3 = PrimeField(3)
    a3 = ExactMatrix(F3, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    assert shape(a3) == SHAPE_TRIDIAGONAL  # the 3s vanish mod 3
    assert not is_irreducible_tridiagonal(a3)


def test_multiplicity_free_fixture():
    result = is_multiplicity_free(A4)
    assert result.multiplicity_free and result.reason is None
    assert [str(v) for v in result.eigen.eigenvalues] == ["1", "3", "-1", "-3"]
    eigen = result.eigen
    for i, theta in enumerate(eigen.eigenvalues):
        col = eigen.eigenvectors.column(i)
        out = [
            sum((A4[r, k] * Q(col[k]) for k in range(4)), Q(0)) for r in range(4)
        ]
        assert out == [theta * Q(v) for v in col]
        lead = next(v for v in col if not Q.is_zero(v))
        assert Q.serialize(lead) == "1"


def test_idempotent_identities():
    eigen = is_multiplicity_free(A4).eigen
    eye = ExactMatrix.identity(Q, 4)
    total = ExactMatrix.zeros(Q, 4)
    recon = ExactMatrix.zeros(Q, 4)
    for i, e in enumerate(eigen.idempotents):
        assert e @ e == e
        for j, e2 in enumerate(eigen.idempotents):
            if i != j:
                assert (e @ e2).is_zero
        total = total + e
        recon = recon + e.scale(eigen.eigenvalues[i])
    assert total == eye
    assert recon == A4


def _lagrange_idempotents(matrix, eigenvalues):
    """Reference: E_i = prod_{j != i} (M - theta_j I) / (theta_i - theta_j)."""
    f = matrix.field
    out = []
    for theta in eigenvalues:
        e = ExactMatrix.identity(f, matrix.n)
        for other in eigenvalues:
            if other != theta:
                step = matrix.add_scalar_diagonal(f.neg(other.payload))
                e = (e @ step).scale(f.inv(f.sub(theta.payload, other.payload)))
        out.append(e)
    return out


@pytest.mark.parametrize(
    "field, q",
    [(Q, 2), (PrimeField(101), 2), (QuadraticExtension(5), "1/2+1/2*s")],
    ids=["Q", "GF(101)", "Q(sqrt 5)"],
)
def test_idempotents_match_lagrange_products(field, q):
    a4 = ExactMatrix(field, A4.rows)
    matrices = [a4, *sl2_pair(field, 4), *uq_pair(field, 4, q)[:2]]
    for m in matrices:
        eigen = is_multiplicity_free(m).eigen
        eye = ExactMatrix.identity(field, m.n)
        assert eigen.inverse_eigenvectors @ eigen.eigenvectors == eye
        want = _lagrange_idempotents(m, eigen.eigenvalues)
        assert list(eigen.idempotents) == want
        assert eigen.idempotents is eigen.idempotents  # built once, then cached
        perm = list(reversed(range(m.n)))
        assert list(eigen.reordered(perm).idempotents) == want[::-1]


def _reference_eigenvectors(matrix, eigenvalues):
    """Columns nullspace(M - theta I), one elimination per eigenvalue."""
    f = matrix.field
    columns = []
    for theta in eigenvalues:
        kernel = nullspace(matrix.add_scalar_diagonal(f.neg(theta.payload)))
        assert len(kernel) == 1
        columns.append([v.payload for v in kernel[0]])
    return ExactMatrix._raw(f, zip(*columns))


@pytest.mark.parametrize(
    "field, q",
    [(Q, 2), (PrimeField(101), 2), (QuadraticExtension(5), "1/2+1/2*s")],
    ids=["Q", "GF(101)", "Q(sqrt 5)"],
)
def test_eigenvectors_match_nullspace_reference(field, q):
    rng = random.Random(46)
    a4 = ExactMatrix(field, A4.rows)
    structured = [a4, *sl2_pair(field, 5), *uq_pair(field, 4, q)[:2]]
    dense = [conjugate(m, _random_invertible(field, m.n, rng)) for m in structured]
    for m in structured + dense:
        eigen = is_multiplicity_free(m).eigen
        assert eigen.eigenvectors == _reference_eigenvectors(m, eigen.eigenvalues)


def _flip_constant_term(recurrence, whole_only=False):
    def mutant(field, h, start, stop):
        coeffs = recurrence(field, h, start, stop)
        if not whole_only or stop - start == len(h):
            coeffs[0] = field.add(coeffs[0], field.one)
        return coeffs

    return mutant


def _wrong_entry(reduce):
    def mutant(matrix):
        h, q = reduce(matrix)
        f = h.field
        rows = [list(r) for r in h.rows]
        rows[0][-1] = f.add(rows[0][-1], f.one)
        return ExactMatrix._raw(f, rows), q

    return mutant


def _no_reduction(matrix):
    return matrix, ExactMatrix.identity(matrix.field, matrix.n)


def _singular_q(matrix):
    f, n = matrix.field, matrix.n
    return ExactMatrix.diagonal(f, range(n)), ExactMatrix.zeros(f, n)


_DENSE4 = conjugate(A4, _random_invertible(Q, 4, random.Random(47)))
# not Hessenberg, yet (x - 1) and the lower 2x2 block's polynomial pass the
# block checks: only the shape check sees the entry 6
_ONE_ENTRY_BELOW = ExactMatrix(Q, [[1, 2, 3], [0, 4, 5], [6, 7, 8]])


@pytest.mark.parametrize(
    "mutation, matrices",
    [
        ("block polynomials", (A4, A4_STAR, _DENSE4, _reducible(Q))),
        # the whole range is the one block of A4 and _DENSE4
        ("whole polynomial", (A4, _DENSE4)),
        ("H entry", (A4, A4_STAR, _DENSE4)),
        ("no reduction", (_DENSE4, _ONE_ENTRY_BELOW)),
        ("singular Q", (A4, _DENSE4)),
    ],
)
def test_char_poly_certificates_catch_mutants(monkeypatch, mutation, matrices):
    recurrence = matrix_module._hessenberg_recurrence
    mutants = {
        "block polynomials": ("_hessenberg_recurrence", _flip_constant_term(recurrence)),
        "whole polynomial": (
            "_hessenberg_recurrence",
            _flip_constant_term(recurrence, whole_only=True),
        ),
        "H entry": ("_hessenberg", _wrong_entry(_hessenberg)),
        "no reduction": ("_hessenberg", _no_reduction),
        "singular Q": ("_hessenberg", _singular_q),
    }
    monkeypatch.setattr(matrix_module, *mutants[mutation])
    for m in matrices:
        with pytest.raises(InternalCheckError):
            char_poly(m)
        if m is A4_STAR:
            # diagonal: is_multiplicity_free decomposes it by substitution,
            # with no characteristic polynomial for these mutants to reach
            continue
        with pytest.raises(InternalCheckError):
            is_multiplicity_free(m)


def _one_wrong_kernel_vector(kernels):
    """_nullspace_grid whose first answer has 1 added to its last
    coordinate: P stays invertible, so P P^-1 = I still holds."""
    calls = []

    def wrong(field, grid):
        basis = kernels(field, grid)
        if calls:
            return basis
        calls.append(grid)
        vec = list(basis[0])
        vec[-1] = field.add(vec[-1], field.one)
        return [tuple(vec)] + basis[1:]

    return wrong


@pytest.mark.parametrize("m", [A4, _DENSE4], ids=["tridiagonal", "dense"])
def test_multiplicity_free_certifies_eigenvectors(monkeypatch, m):
    kernels = matrix_module._nullspace_grid
    monkeypatch.setattr(matrix_module, "_nullspace_grid", _one_wrong_kernel_vector(kernels))
    with pytest.raises(InternalCheckError, match=r"M P = P diag\(theta\)"):
        is_multiplicity_free(m)
    monkeypatch.setattr(matrix_module, "_nullspace_grid", kernels)
    eigen = is_multiplicity_free(m).eigen
    p = eigen.eigenvectors
    assert m @ p == p @ ExactMatrix.diagonal(Q, [v.payload for v in eigen.eigenvalues])


_TRIANGULAR4 = {
    "diagonal": A4_STAR,
    "lower bidiagonal": ExactMatrix.diagonal(Q, [3, 1, -1, -3], below=[1, 1, 1]),
    "upper bidiagonal": ExactMatrix.diagonal(Q, [0, 2, 4, 6], above=[3, 2, 1]),
    "dense lower": ExactMatrix(
        Q, [[1, 0, 0, 0], [2, 5, 0, 0], [-1, 3, 2, 0], [4, Fraction(1, 2), 7, -2]]
    ),
    "dense upper": ExactMatrix(
        Q, [[1, 2, -1, 4], [0, 5, 3, Fraction(1, 2)], [0, 0, 2, 7], [0, 0, 0, -2]]
    ),
}


def _one_wrong_substitution(substitute, wrong_call):
    """_substitute whose answer on call wrong_call (0: the right
    eigenvectors, 1: the left ones) has 1 added to the last coordinate of
    its first vector, which is not that vector's coordinate 1."""
    calls = []

    def wrong(field, rows, lower):
        vectors = substitute(field, rows, lower)
        if len(calls) == wrong_call:
            vectors[0][-1] = field.add(vectors[0][-1], field.one)
        calls.append(rows)
        return vectors

    return wrong


@pytest.mark.parametrize("m", list(_TRIANGULAR4.values()), ids=list(_TRIANGULAR4))
def test_substitution_certificates_catch_mutants(monkeypatch, m):
    substitute = matrix_module._substitute
    monkeypatch.setattr(matrix_module, "_substitute", _one_wrong_substitution(substitute, 0))
    with pytest.raises(InternalCheckError, match=r"M P = P diag\(theta\)"):
        is_multiplicity_free(m)
    monkeypatch.setattr(matrix_module, "_substitute", _one_wrong_substitution(substitute, 1))
    with pytest.raises(InternalCheckError, match="idempotents must sum to the identity"):
        is_multiplicity_free(m)
    monkeypatch.setattr(matrix_module, "_substitute", substitute)
    assert is_multiplicity_free(m)


def _random_triangular(field, n, kind, repeated, rng):
    """A seeded n x n matrix of the given triangular kind; when repeated,
    one diagonal entry is copied onto another."""
    diagonal = []
    while len(diagonal) < n:
        v = field.random_element(rng).payload
        if v not in diagonal:
            diagonal.append(v)
    if repeated:
        i, k = rng.sample(range(n), 2)
        diagonal[i] = diagonal[k]
    below = kind in ("lower bidiagonal", "dense lower")
    band = "bidiagonal" in kind
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
        for j in range(n):
            if kind != "diagonal" and (j < i if below else j > i):
                if not band or abs(i - j) == 1:
                    rows[i][j] = field.random_element(rng).payload
    return ExactMatrix(field, rows)


def _general_path_forbidden(*args, **kwargs):
    raise AssertionError("the characteristic-polynomial path ran on triangular input")


@pytest.mark.parametrize(
    "field", [Q, PrimeField(101), QuadraticExtension(5)], ids=lambda f: f.name
)
@pytest.mark.parametrize("kind", list(_TRIANGULAR4))
def test_triangular_decomposition_matches_general_path(monkeypatch, field, kind):
    rng = random.Random(f"{field.name} {kind}")
    cases = [
        _random_triangular(field, n, kind, repeated, rng)
        for n in range(1, 9)
        for repeated in ((False, True) if n > 1 else (False,))
    ]
    want = [triangular_eigen(m) for m in cases]
    assert sum(not r for r in want) == 7  # every repeated diagonal is refused
    for name in ("char_poly", "roots_in_field", "verify_root_multiset", "_nullspace_grid",
                 "inverse"):
        monkeypatch.setattr(matrix_module, name, _general_path_forbidden, raising=False)
    for m, expected in zip(cases, want):
        got = is_multiplicity_free(m)
        assert got == expected
        if got:
            for ours, theirs in (
                (got.eigen.eigenvectors, expected.eigen.eigenvectors),
                (got.eigen.inverse_eigenvectors, expected.eigen.inverse_eigenvectors),
            ):
                assert matrix_to_dict(ours) == matrix_to_dict(theirs)


def test_multiplicity_free_costs_cubic_field_operations(counting_field):
    # one elimination per eigenvalue on a dense matrix is O(n^4): the ratio
    # from n = 12 to n = 24 was 15.5; O(n^3) work gives at most 8
    field = counting_field(1009)
    counts = []
    for n in (12, 24):
        _, a_star = sl2_pair(field, n - 1)
        m = conjugate(a_star, _random_invertible(field, n, random.Random(n)))
        field.muls = 0
        assert is_multiplicity_free(m)
        counts.append(field.muls)
    assert counts[1] <= 10 * counts[0], counts


def test_multiplicity_free_failures():
    F3 = PrimeField(3)
    a3 = ExactMatrix(F3, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    r = is_multiplicity_free(a3)
    assert not r.multiplicity_free
    assert "multiplicity 2" in r.reason and "0" in r.reason
    # rotation matrix: eigenvalues not rational
    rot = ExactMatrix(Q, [[0, -1], [1, 0]])
    r = is_multiplicity_free(rot)
    assert not r.multiplicity_free
    assert "does not split" in r.reason
    # same matrix over Q(i) splits
    over_i = ExactMatrix(QuadraticExtension(-1), [[0, -1], [1, 0]])
    r = is_multiplicity_free(over_i)
    assert r.multiplicity_free
    assert [str(v) for v in r.eigen.eigenvalues] == ["s", "-s"]


def test_eigendata_reordered():
    eigen = is_multiplicity_free(A4).eigen
    perm = [2, 0, 3, 1]
    re = eigen.reordered(perm)
    assert [str(v) for v in re.eigenvalues] == ["-1", "1", "-3", "3"]
    assert re.idempotents[0] == eigen.idempotents[2]
    assert re.eigenvectors.column(1) == eigen.eigenvectors.column(0)
    with pytest.raises(ValueError):
        eigen.reordered([0, 0, 1, 2])


def test_joint_intertwiner():
    basis = joint_intertwiner_basis([(A4, A4), (A4_STAR, A4_STAR)])
    # scalars only: the pair generates everything
    assert basis == [ExactMatrix.identity(Q, 4)]
    # intertwiner from (A, A*) to the conjugated pair recovers a conjugator
    b4 = conjugate(A4, P4)
    b4s = conjugate(A4_STAR, P4)
    basis = joint_intertwiner_basis([(A4, b4), (A4_STAR, b4s)])
    assert len(basis) == 1
    g = basis[0]
    assert conjugate(A4, g) == b4 and conjugate(A4_STAR, g) == b4s


# --- the integer kernel against the payload-level kernel it replaced ---
#
# The reference functions below are the payload-by-payload product,
# matrix-vector product, unit-pivot elimination and Gauss-Jordan inverse,
# with one field operation (and one normalisation) per step.

KERNEL_FIELDS = [
    Q,
    PrimeField(2),
    PrimeField(101),
    PrimeField(2**61 - 1),
    QuadraticExtension(5),
    QuadraticExtension(-3),
]


def _ref_matmul(a: ExactMatrix, b: ExactMatrix) -> list:
    f = a.field
    n = a.n
    out = []
    for arow in a.rows:
        acc = [f.zero] * n
        for k in range(n):
            if f.is_zero(arow[k]):
                continue
            for j in range(n):
                if not f.is_zero(b.rows[k][j]):
                    acc[j] = f.add(acc[j], f.mul(arow[k], b.rows[k][j]))
        out.append(acc)
    return out


def _ref_dot(f, row, vector):
    acc = f.zero
    for coeff, v in zip(row, vector):
        if not f.is_zero(coeff):
            acc = f.add(acc, f.mul(coeff, v))
    return acc


def _ref_apply(m: ExactMatrix, vector) -> list:
    return [_ref_dot(m.field, row, vector) for row in m.rows]


def _ref_inverse(m: ExactMatrix) -> "list | None":
    f = m.field
    n = m.n
    aug = [
        list(row) + [f.one if i == j else f.zero for j in range(n)]
        for i, row in enumerate(m.rows)
    ]
    rows, pivots = echelon(f, aug)
    if pivots != list(range(n)):
        return None
    for r in range(n - 1, -1, -1):
        for i in range(r):
            if not f.is_zero(rows[i][r]):
                subtract_multiple(f, rows[i], rows[r], rows[i][r], r)
    return [row[n:] for row in rows]


def _ref_det(f, grid):
    """Determinant by unit-pivot elimination: the product of the pivots."""
    rows = [list(r) for r in grid]
    n = len(rows)
    det = f.one
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not f.is_zero(rows[i][c])), None)
        if pivot_row is None:
            return f.zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = f.neg(det)
        det = f.mul(det, rows[c][c])
        inv = f.inv(rows[c][c])
        for i in range(c + 1, n):
            if not f.is_zero(rows[i][c]):
                subtract_multiple(f, rows[i], rows[c], f.mul(rows[i][c], inv), c)
    return det


def _kernel_entry(field, rng, density: float):
    """Zero with probability 1 - density; over Q, heights up to 100 bits over
    mixed denominators."""
    if rng.random() >= density:
        return field.zero
    if isinstance(field, Rationals):
        height = rng.choice((3, 20, 100))
        return Q.coerce(
            Fraction(rng.randint(-(2**height), 2**height), rng.choice((1, 1, 2, 3, 7, 2**40 + 15)))
        )
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    base = [Fraction(rng.randint(-(2**30), 2**30), rng.choice((1, 2, 5, 9))) for _ in range(2)]
    return field.coerce(tuple(base))


def _kernel_grid(field, rng, nrows, ncols, density=0.7, rank=None):
    """A seeded grid; with rank, a product of nrows x rank and rank x ncols
    factors, so rank-deficient when rank < min(nrows, ncols)."""
    if rank is None:
        return [[_kernel_entry(field, rng, density) for _ in range(ncols)] for _ in range(nrows)]
    left = _kernel_grid(field, rng, nrows, rank, density)
    right = _kernel_grid(field, rng, rank, ncols, density)
    if not rank:
        return [[field.zero] * ncols for _ in range(nrows)]
    return [[_ref_dot(field, row, col) for col in zip(*right)] for row in left]


def _kernel_shapes(field, rng):
    """Grids of every shape the kernel must handle, seeded."""
    grids = [
        _kernel_grid(field, rng, 1, 1),
        [[field.zero]],
        _kernel_grid(field, rng, 3, 5),
        _kernel_grid(field, rng, 5, 3),
        _kernel_grid(field, rng, 4, 4),
        _kernel_grid(field, rng, 6, 6, density=0.3),
        _kernel_grid(field, rng, 5, 5, rank=2),
        _kernel_grid(field, rng, 4, 6, rank=3),
        _kernel_grid(field, rng, 6, 4, rank=1),
    ]
    zero_row = _kernel_grid(field, rng, 4, 4)
    zero_row[1] = [field.zero] * 4
    zero_col = _kernel_grid(field, rng, 4, 5)
    for row in zero_col:
        row[2] = field.zero
    return grids + [zero_row, zero_col]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_products_match_payload_reference(field):
    rng = random.Random(1010)
    for n in (1, 2, 3, 5, 8):
        for density in (1.0, 0.5, 0.15):
            a = ExactMatrix._raw(field, _kernel_grid(field, rng, n, n, density))
            b = ExactMatrix._raw(field, _kernel_grid(field, rng, n, n, density))
            assert [list(r) for r in (a @ b).rows] == _ref_matmul(a, b)
            vec = [_kernel_entry(field, rng, density) for _ in range(n)]
            assert a.apply(vec) == _ref_apply(a, vec)
    # a zero row on the left, a zero column on the right
    a = _kernel_grid(field, rng, 4, 4)
    a[2] = [field.zero] * 4
    b = _kernel_grid(field, rng, 4, 4)
    for row in b:
        row[0] = field.zero
    a, b = ExactMatrix._raw(field, a), ExactMatrix._raw(field, b)
    assert [list(r) for r in (a @ b).rows] == _ref_matmul(a, b)
    assert [list(r) for r in (b @ a).rows] == _ref_matmul(b, a)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_echelon_matches_payload_reference(field):
    # _bareiss's pivots are the unit elimination's, each pivot row is its
    # unit row times the pivot, and the rows past the rank are zero
    rng = random.Random(2020)
    for grid in _kernel_shapes(field, rng):
        rows, pivots = matrix_module._bareiss(field, [field.lift(row)[0] for row in grid])
        unit_rows, unit_pivots = echelon(field, grid)
        assert pivots == unit_pivots
        for row, c, unit in zip(rows, pivots, unit_rows):
            assert field.quotients(row, row[c]) == unit
        assert all(v == field.image_zero for row in rows[len(pivots) :] for v in row)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_nullspace_matches_payload_reference(field):
    rng = random.Random(2525)
    for grid in _kernel_shapes(field, rng):
        assert matrix_module._nullspace_grid(field, grid) == nullspace_grid(field, grid)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_solve_matches_payload_reference(field):
    rng = random.Random(3030)
    statuses = set()
    for grid in _kernel_shapes(field, rng):
        width = len(grid[0])
        x = [_kernel_entry(field, rng, 0.8) for _ in range(width)]
        consistent = [_ref_dot(field, row, x) for row in grid]
        arbitrary = [_kernel_entry(field, rng, 0.9) for _ in grid]
        for rhs in (consistent, arbitrary):
            got = matrix_module._solve_grid(field, grid, rhs)
            assert got == solve_grid(field, grid, rhs)
            if got is None:
                statuses.add("inconsistent")
            else:
                statuses.add("underdetermined" if got[1] else "unique")
    assert statuses == {"inconsistent", "underdetermined", "unique"}


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_inverse_matches_payload_reference(field):
    rng = random.Random(4040)
    cases = [
        _kernel_grid(field, rng, 1, 1, density=1.0),
        [[field.zero]],
        _kernel_grid(field, rng, 3, 3, rank=2),
        _kernel_grid(field, rng, 5, 5, rank=4),
    ]
    cases += [_kernel_grid(field, rng, n, n, density) for n in (2, 4, 7) for density in (1.0, 0.5)]
    singular = 0
    for grid in cases:
        m = ExactMatrix._raw(field, grid)
        want = _ref_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert [list(r) for r in inverse(m).rows] == want
    assert singular >= 3


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_bareiss_last_pivot_is_the_determinant(field):
    # Bareiss's division by the previous pivot keeps every pivot a minor of
    # the integer image, the last one its determinant up to sign; without
    # the division, or without the owed rescaling of skipped rows, the
    # rows stay proportional but the pivots do not
    rng = random.Random(5050)
    one = field.image_one
    checked = 0
    for n in (1, 2, 3, 5, 7) * 3:
        for density in (1.0, 0.6, 0.35):
            grid = _kernel_grid(field, rng, n, n, density)
            image = [field.lift(row)[0] for row in grid]
            as_payloads = [field.quotients(row, one) for row in image]
            det = _ref_det(field, as_payloads)
            rows, pivots = matrix_module._bareiss(field, [list(r) for r in image])
            if len(pivots) < n:
                assert field.is_zero(det)
                continue
            last = field.quotients([rows[n - 1][n - 1]], one)[0]
            assert last in (det, field.neg(det))
            checked += 1
    assert checked >= 5
