"""Exact dense square matrices and their eigenstructure.

Matrices are immutable: a field plus a tuple-of-tuples payload grid.  All
eliminations use first-nonzero pivoting, so identical inputs always produce
identical outputs.  Eigenvectors are normalized to leading coordinate 1 and
eigenvalues are listed in the canonical shortlex order of their serialized
form; the primitive idempotent E_i is the outer product of eigenvector i
with row i of the inverse eigenvector matrix, built only when asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    FieldMismatchError,
    InternalCheckError,
    SingularMatrixError,
)
from .field import (
    ExactPolynomial,
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    field_from_dict,
    field_to_dict,
    roots_in_field,
    verify_root_multiset,
)

SHAPE_DIAGONAL = "diagonal"
SHAPE_LOWER_BIDIAGONAL = "lower-bidiagonal"
SHAPE_UPPER_BIDIAGONAL = "upper-bidiagonal"
SHAPE_IRREDUCIBLE_TRIDIAGONAL = "irreducible-tridiagonal"
SHAPE_TRIDIAGONAL = "tridiagonal"
SHAPE_OTHER = "other"


class ExactMatrix:
    """Square matrix over one exact field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        grid = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise ValueError("matrix must be square and nonempty")
        self.field = field
        self.rows = grid

    @classmethod
    def _raw(cls, field: Field, rows) -> "ExactMatrix":
        m = object.__new__(cls)
        m.field = field
        m.rows = tuple(tuple(row) for row in rows)
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        z, o = field.zero, field.one
        return cls._raw(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, n: int) -> "ExactMatrix":
        z = field.zero
        return cls._raw(field, [[z] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, field: Field, entries) -> "ExactMatrix":
        payloads = [field.coerce(v) for v in entries]
        z = field.zero
        n = len(payloads)
        return cls._raw(
            field,
            [[payloads[i] if i == j else z for j in range(n)] for i in range(n)],
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __getitem__(self, key) -> FieldElement:
        i, j = key
        return FieldElement(self.field, self.rows[i][j])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def _check_field(self, other: "ExactMatrix") -> Field:
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return self.field

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        f = self._check_field(other)
        return ExactMatrix._raw(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        f = self._check_field(other)
        return ExactMatrix._raw(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "ExactMatrix":
        f = self.field
        return ExactMatrix._raw(f, [[f.neg(a) for a in row] for row in self.rows])

    def apply(self, vector) -> list:
        """Matrix-vector product on payloads."""
        f = self.field
        x = [f.coerce(v) for v in vector]
        if len(x) != self.n:
            raise ValueError(f"vector has length {len(x)}, expected {self.n}")
        out = []
        for row in self.rows:
            acc = f.zero
            for coeff, v in zip(row, x):
                if not f.is_zero(coeff):
                    acc = f.add(acc, f.mul(coeff, v))
            out.append(acc)
        return out

    def scale(self, scalar) -> "ExactMatrix":
        f = self.field
        s = f.coerce(scalar)
        return ExactMatrix._raw(f, [[f.mul(s, a) for a in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        f = self._check_field(other)
        n = self.n
        add, mul, is_zero, zero = f.add, f.mul, f.is_zero, f.zero
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = [zero] * n
            for k in range(n):
                a = arow[k]
                if is_zero(a):
                    continue
                brow = brows[k]
                for j in range(n):
                    b = brow[j]
                    if not is_zero(b):
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return ExactMatrix._raw(f, out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._raw(self.field, zip(*self.rows))

    def trace(self) -> FieldElement:
        f = self.field
        acc = f.zero
        for i in range(self.n):
            acc = f.add(acc, self.rows[i][i])
        return FieldElement(f, acc)

    def add_scalar_diagonal(self, scalar) -> "ExactMatrix":
        """self + scalar * I."""
        f = self.field
        s = f.coerce(scalar)
        rows = [list(row) for row in self.rows]
        for i in range(self.n):
            rows[i][i] = f.add(rows[i][i], s)
        return ExactMatrix._raw(f, rows)

    @property
    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(v) for row in self.rows for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.field.serialize(v) for v in row) for row in self.rows
        )
        return f"ExactMatrix({self.field.name}; {body})"


# --- elimination on raw grids (rectangular allowed internally) ---


def _rref(field: Field, grid: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns pivots."""
    rows = [list(r) for r in grid]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [
                    field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], lead)
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _normalize_leading(field: Field, vec: list) -> tuple:
    for v in vec:
        if not field.is_zero(v):
            inv = field.inv(v)
            return tuple(field.mul(inv, w) for w in vec)
    return tuple(vec)


def _nullspace_grid(field: Field, grid: list[list]) -> list[tuple]:
    """Basis of the right nullspace, leading coordinates normalized to 1.

    Basis vectors are emitted in increasing order of their free column, so
    the result is deterministic.
    """
    ncols = len(grid[0])
    rref, pivots = _rref(field, grid)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = field.neg(rref[r_idx][free])
        basis.append(_normalize_leading(field, vec))
    return basis


def char_poly(matrix: ExactMatrix) -> ExactPolynomial:
    """Monic characteristic polynomial det(lambda I - M), exactly.

    Faddeev-LeVerrier; its divisions by 1..n are exact in characteristic 0
    and in GF(p) for p > n.  For p <= n the computation is lifted to Q on
    the canonical residues and reduced back, where those divisions are
    again exact (the coefficients are integers).
    """
    field = matrix.field
    n = matrix.n
    p = field.characteristic()
    if 0 < p <= n:
        lifted = ExactMatrix(Rationals(), [[int(v) for v in row] for row in matrix.rows])
        integral = char_poly(lifted)
        return ExactPolynomial(field, [int(c) for c in integral.coeffs])
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    work = ExactMatrix.identity(field, n)
    for k in range(1, n + 1):
        work = matrix @ work
        c = field.div(field.neg(work.trace().payload), field.from_int(k))
        coeffs[n - k] = c
        work = work.add_scalar_diagonal(c)
    if not work.is_zero:
        raise InternalCheckError("Faddeev-LeVerrier closure failed")
    return ExactPolynomial(field, coeffs)


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Inverse by Gauss-Jordan; SingularMatrixError when rank < n."""
    field = matrix.field
    n = matrix.n
    aug = [
        list(row) + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(matrix.rows)
    ]
    rref, pivots = _rref(field, aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return ExactMatrix._raw(field, [row[n:] for row in rref])


def conjugate(matrix: ExactMatrix, g: ExactMatrix) -> ExactMatrix:
    """g^-1 @ matrix @ g."""
    return inverse(g) @ matrix @ g


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solve_linear: status plus witnesses."""

    status: str  # "unique" | "underdetermined" | "inconsistent"
    solution: "tuple[FieldElement, ...] | None"
    nullspace: tuple

    @property
    def is_consistent(self) -> bool:
        return self.status != "inconsistent"


def solve_linear(matrix: ExactMatrix, rhs) -> LinearSolution:
    """Solve matrix @ x = rhs with exact tri-state reporting.

    The particular solution sets every free variable to zero; the nullspace
    basis (nonempty only in the underdetermined case) uses the same
    deterministic normalization as _nullspace_grid.
    """
    field = matrix.field
    n = matrix.n
    b = [field.coerce(v) for v in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has length {len(b)}, expected {n}")
    aug = [list(row) + [b[i]] for i, row in enumerate(matrix.rows)]
    rref, pivots = _rref(field, aug)
    if n in pivots:
        return LinearSolution("inconsistent", None, ())
    x = [field.zero] * n
    for r_idx, pc in enumerate(pivots):
        x[pc] = rref[r_idx][n]
    solution = tuple(FieldElement(field, v) for v in x)
    if len(pivots) == n:
        return LinearSolution("unique", solution, ())
    basis = _nullspace_grid(field, [list(row) for row in matrix.rows])
    wrapped = tuple(tuple(FieldElement(field, v) for v in vec) for vec in basis)
    return LinearSolution("underdetermined", solution, wrapped)


def nullspace(matrix: ExactMatrix) -> list[tuple[FieldElement, ...]]:
    """Deterministic basis of the kernel of matrix."""
    basis = _nullspace_grid(matrix.field, [list(row) for row in matrix.rows])
    return [tuple(FieldElement(matrix.field, v) for v in vec) for vec in basis]


# --- shape taxonomy ---


def shape(matrix: ExactMatrix) -> str:
    """Most specific shape class of the nonzero pattern."""
    f = matrix.field
    n = matrix.n
    sub = [matrix.rows[i + 1][i] for i in range(n - 1)]
    sup = [matrix.rows[i][i + 1] for i in range(n - 1)]
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and not f.is_zero(matrix.rows[i][j]):
                return SHAPE_OTHER
    has_sub = any(not f.is_zero(v) for v in sub)
    has_sup = any(not f.is_zero(v) for v in sup)
    if not has_sub and not has_sup:
        return SHAPE_DIAGONAL
    if not has_sup:
        return SHAPE_LOWER_BIDIAGONAL
    if not has_sub:
        return SHAPE_UPPER_BIDIAGONAL
    if all(not f.is_zero(v) for v in sub) and all(not f.is_zero(v) for v in sup):
        return SHAPE_IRREDUCIBLE_TRIDIAGONAL
    return SHAPE_TRIDIAGONAL


def is_tridiagonal(matrix: ExactMatrix) -> bool:
    return shape(matrix) != SHAPE_OTHER


def is_irreducible_tridiagonal(matrix: ExactMatrix) -> bool:
    """Tridiagonal with every subdiagonal and superdiagonal entry nonzero."""
    if matrix.n == 1:
        return True
    return shape(matrix) == SHAPE_IRREDUCIBLE_TRIDIAGONAL


# --- eigenstructure ---


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues, the eigenvector matrix P, and its inverse.

    Eigenvalue i, column i of ``eigenvectors`` (leading coordinate 1) and
    row i of ``inverse_eigenvectors`` are index-aligned.  The primitive
    idempotent E_i is column i of P times row i of P^-1; ``idempotents``
    builds all of them on first access and caches the tuple.
    """

    eigenvalues: tuple[FieldElement, ...]
    eigenvectors: ExactMatrix
    inverse_eigenvectors: ExactMatrix

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def idempotents(self) -> tuple[ExactMatrix, ...]:
        f = self.eigenvectors.field
        p_rows = self.eigenvectors.rows
        return tuple(
            ExactMatrix._raw(f, [[f.mul(row[i], w) for w in dual] for row in p_rows])
            for i, dual in enumerate(self.inverse_eigenvectors.rows)
        )

    def reordered(self, order) -> "EigenData":
        """Same data with positions permuted: item i becomes old item order[i]."""
        order = list(order)
        if sorted(order) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {order}")
        f = self.eigenvectors.field
        p_rows, inv_rows = self.eigenvectors.rows, self.inverse_eigenvectors.rows
        return EigenData(
            tuple(self.eigenvalues[i] for i in order),
            ExactMatrix._raw(f, [[row[j] for j in order] for row in p_rows]),
            ExactMatrix._raw(f, [inv_rows[i] for i in order]),
        )


@dataclass(frozen=True)
class MultiplicityFreeResult:
    """Verdict of is_multiplicity_free with either a witness or a reason."""

    multiplicity_free: bool
    eigen: "EigenData | None"
    reason: "str | None"

    def __bool__(self) -> bool:
        return self.multiplicity_free


def _is_triangular(matrix: ExactMatrix) -> bool:
    f = matrix.field
    n = matrix.n
    lower = all(
        f.is_zero(matrix.rows[i][j]) for i in range(n) for j in range(i + 1, n)
    )
    if lower:
        return True
    return all(f.is_zero(matrix.rows[i][j]) for i in range(n) for j in range(i))


def is_multiplicity_free(
    matrix: ExactMatrix, eigenvalue_hints=None
) -> MultiplicityFreeResult:
    """Decide whether matrix has n distinct eigenvalues in its own field.

    On success the witness carries eigenvalues in shortlex order, the
    leading-1 eigenvectors, and their inverse matrix.  Hints are candidate
    eigenvalues; they are certified by exact deflation of the
    characteristic polynomial before use, so wrong hints cost time but
    cannot change the verdict.
    """
    field = matrix.field
    n = matrix.n
    chi = char_poly(matrix)
    mults = None
    if eigenvalue_hints is not None:
        mults = verify_root_multiset(chi, eigenvalue_hints)
    if mults is None and _is_triangular(matrix):
        mults = verify_root_multiset(chi, [row[i] for i, row in enumerate(matrix.rows)])
        if mults is None:
            raise InternalCheckError("triangular diagonal must exhaust the spectrum")
    if mults is None:
        mults = [(r.payload, m) for r, m in roots_in_field(chi)]
    total = sum(m for _, m in mults)
    for payload, mult in mults:
        if mult > 1:
            return MultiplicityFreeResult(
                False,
                None,
                f"eigenvalue {field.serialize(payload)} has multiplicity {mult}",
            )
    if total < n:
        return MultiplicityFreeResult(
            False,
            None,
            f"characteristic polynomial does not split over {field.name}: "
            f"only {total} of {n} eigenvalues lie in the field",
        )

    eigenvalues = [payload for payload, _ in mults]
    columns = []
    for theta in eigenvalues:
        shifted = matrix.add_scalar_diagonal(field.neg(theta))
        kernel = _nullspace_grid(field, [list(row) for row in shifted.rows])
        if len(kernel) != 1:
            raise InternalCheckError(
                "distinct eigenvalue must have a one-dimensional eigenspace"
            )
        columns.append(kernel[0])
    vectors = ExactMatrix._raw(field, zip(*columns))
    try:
        inv = inverse(vectors)
    except SingularMatrixError as exc:
        raise InternalCheckError(
            "eigenvectors of distinct eigenvalues must be independent"
        ) from exc
    # sum_i E_i = P P^-1, so this certifies that the idempotents sum to I
    if vectors @ inv != ExactMatrix.identity(field, n):
        raise InternalCheckError("primitive idempotents must sum to the identity")

    eigen = EigenData(tuple(FieldElement(field, v) for v in eigenvalues), vectors, inv)
    return MultiplicityFreeResult(True, eigen, None)


# --- joint intertwiners ---


def joint_intertwiner_basis(pairs) -> list[ExactMatrix]:
    """Deterministic basis of {G : X @ G = G @ Y for every (X, Y) pair}."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one matrix pair")
    field = pairs[0][0].field
    n = pairs[0][0].n
    for x, y in pairs:
        if x.field != field or y.field != field:
            raise FieldMismatchError("intertwiner pairs over different fields")
        if x.n != n or y.n != n:
            raise ValueError("intertwiner pairs of different sizes")
    rows = []
    for x, y in pairs:
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for a in range(n):
                    row[a * n + j] = field.add(row[a * n + j], x.rows[i][a])
                for b in range(n):
                    row[i * n + b] = field.sub(row[i * n + b], y.rows[b][j])
                rows.append(row)
    basis = _nullspace_grid(field, rows)
    return [
        ExactMatrix._raw(field, [vec[i * n : (i + 1) * n] for i in range(n)])
        for vec in basis
    ]


def _is_invertible(matrix: ExactMatrix) -> bool:
    _, pivots = _rref(matrix.field, [list(row) for row in matrix.rows])
    return len(pivots) == matrix.n


PENCIL_CAP = 4096


def invertible_in_span(basis) -> tuple["ExactMatrix | None", bool]:
    """Deterministic search for an invertible element of a matrix span.

    Tries the basis itself first, then 0/1 combinations in lexicographic
    subset order, giving up after PENCIL_CAP combinations.  The second
    component is True when the search ended without certifying either
    existence or absence.
    """
    basis = list(basis)
    for mat in basis:
        if _is_invertible(mat):
            return mat, False
    tried = 0
    for size in range(2, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), size):
            tried += 1
            if tried > PENCIL_CAP:
                return None, True
            acc = basis[combo[0]]
            for idx in combo[1:]:
                acc = acc + basis[idx]
            if _is_invertible(acc):
                return acc, False
    return None, bool(basis)


def matrix_to_dict(matrix: ExactMatrix) -> dict:
    """JSON-ready form: field descriptor plus rows of canonical strings."""
    f = matrix.field
    return {
        "field": field_to_dict(f),
        "rows": [[f.serialize(v) for v in row] for row in matrix.rows],
    }


def matrix_from_dict(data: dict) -> ExactMatrix:
    field = field_from_dict(data["field"])
    return ExactMatrix(field, data["rows"])


__all__ = [
    "EigenData",
    "ExactMatrix",
    "LinearSolution",
    "MultiplicityFreeResult",
    "SHAPE_DIAGONAL",
    "SHAPE_IRREDUCIBLE_TRIDIAGONAL",
    "SHAPE_LOWER_BIDIAGONAL",
    "SHAPE_OTHER",
    "SHAPE_TRIDIAGONAL",
    "SHAPE_UPPER_BIDIAGONAL",
    "char_poly",
    "conjugate",
    "inverse",
    "invertible_in_span",
    "is_irreducible_tridiagonal",
    "is_multiplicity_free",
    "is_tridiagonal",
    "joint_intertwiner_basis",
    "matrix_from_dict",
    "matrix_to_dict",
    "nullspace",
    "shape",
    "solve_linear",
]
