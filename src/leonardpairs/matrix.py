"""Exact dense square matrices and their eigenstructure.

Matrices are immutable: a field plus a tuple-of-tuples payload grid.  There
is one elimination kernel, a forward pass with first-nonzero pivoting, so
identical inputs always produce identical outputs; kernels and solutions
are read off it by back-substitution, and an upward pass gives the reduced
form where one is needed (inverses, canonical bases).  One Hessenberg
reduction H = Q^-1 M Q per matrix gives both the characteristic polynomial,
by the Hessenberg recurrence, and the eigenvectors Q ker(H - theta I);
diagonal, bidiagonal and tridiagonal matrices are already Hessenberg.
Eigenvectors are normalized to leading coordinate 1 and eigenvalues are
listed in the canonical shortlex order of their serialized form; the
primitive idempotent E_i is the outer product of eigenvector i with row i
of the inverse eigenvector matrix, built only when asked for.
"""

from __future__ import annotations

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


def _subtract_multiple(field: Field, row: list, lead: list, factor, start: int) -> None:
    """row[start:] -= factor * lead[start:], in place, skipping zeros of lead."""
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    row[start:] = [
        v if is_zero(w) else sub(v, mul(factor, w))
        for v, w in zip(row[start:], lead[start:])
    ]


def _echelon(field: Field, grid) -> tuple[list[list], list[int]]:
    """Row echelon form by first-nonzero pivoting; returns it and the pivots.

    Each pivot row is scaled to a leading 1 and clears the rows below it,
    never those above, so upper Hessenberg input costs O(n^2).
    """
    rows = [list(r) for r in grid]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    is_zero, mul = field.is_zero, field.mul
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if not is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r]
        inv = field.inv(lead[c])
        lead[c:] = [v if is_zero(v) else mul(inv, v) for v in lead[c:]]
        for i in range(r + 1, nrows):
            if not is_zero(rows[i][c]):
                _subtract_multiple(field, rows[i], lead, rows[i][c], c)
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref(field: Field, grid) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns pivots.

    The forward pass, then the upward pass clearing above each pivot.
    """
    rows, pivots = _echelon(field, grid)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        for i in range(r):
            if not field.is_zero(rows[i][c]):
                _subtract_multiple(field, rows[i], rows[r], rows[i][c], c)
    return rows, pivots


def _back_substitute(field: Field, rows, pivots: list[int], x: list) -> list:
    """Fill the pivot coordinates of x from unit-pivot echelon rows, in place.

    The other coordinates are read as given.  A row longer than x carries
    its right-hand side in its last column; otherwise the right side is 0.
    """
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    width = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        row = rows[r]
        acc = row[width] if len(row) > width else field.zero
        for j in range(pivots[r] + 1, width):
            if not is_zero(row[j]) and not is_zero(x[j]):
                acc = sub(acc, mul(row[j], x[j]))
        x[pivots[r]] = acc
    return x


def _normalize_leading(field: Field, vec: list) -> tuple:
    for v in vec:
        if not field.is_zero(v):
            inv = field.inv(v)
            return tuple(field.mul(inv, w) for w in vec)
    return tuple(vec)


def _nullspace_grid(field: Field, grid) -> list[tuple]:
    """Basis of the right nullspace, leading coordinates normalized to 1.

    Basis vectors are emitted in increasing order of their free column, so
    the result is deterministic.  Each is the back-substituted solution
    with that free coordinate 1 and the others 0, which is also what the
    reduced echelon form would give.
    """
    ncols = len(grid[0])
    rows, pivots = _echelon(field, grid)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        _back_substitute(field, rows, pivots, vec)
        basis.append(_normalize_leading(field, vec))
    return basis


def _is_invertible(matrix: ExactMatrix) -> bool:
    return len(_echelon(matrix.field, matrix.rows)[1]) == matrix.n


def _solve_grid(field: Field, rows, rhs) -> "tuple[list, int] | None":
    """Exact solve of rows @ x = rhs, rectangular allowed.

    Returns (x, nullity) with every free variable set to zero, or None
    when the system is inconsistent.
    """
    width = len(rows[0])
    echelon, pivots = _echelon(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == width:
        return None
    x = _back_substitute(field, echelon, pivots, [field.zero] * width)
    return x, width - len(pivots)


# --- Hessenberg form and the characteristic polynomial ---


def _hessenberg(matrix: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Upper Hessenberg H and Q with H = Q^-1 M Q (Cohen, Alg. 2.2.9).

    For each column c the first nonzero entry below the subdiagonal row
    c + 1 is swapped up to it (rows and columns alike), then clears the
    entries under it by row operations, each followed by the inverse
    column operation; Q collects the column operations.  Input that is
    already upper Hessenberg is returned as it is, with Q = I.
    """
    f = matrix.field
    n = matrix.n
    is_zero, add, mul = f.is_zero, f.add, f.mul
    h = [list(row) for row in matrix.rows]
    q = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    reduced = False
    for c in range(n - 2):
        m = c + 1
        below = [i for i in range(m, n) if not is_zero(h[i][c])]
        if below in ([], [m]):
            continue
        reduced = True
        pivot = below[0]
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for grid in (h, q):
                for row in grid:
                    row[m], row[pivot] = row[pivot], row[m]
        inv = f.inv(h[m][c])
        for i in range(m + 1, n):
            if is_zero(h[i][c]):
                continue
            u = mul(h[i][c], inv)
            _subtract_multiple(f, h[i], h[m], u, c)
            for grid in (h, q):
                for r in grid:
                    if not is_zero(r[i]):
                        r[m] = add(r[m], mul(u, r[i]))
    if not reduced:
        return matrix, ExactMatrix._raw(f, q)
    return ExactMatrix._raw(f, h), ExactMatrix._raw(f, q)


def _similar_hessenberg(matrix: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """_hessenberg, certified: H is upper Hessenberg, M Q = Q H, Q invertible."""
    h, q = _hessenberg(matrix)
    f = matrix.field
    if any(not f.is_zero(h.rows[i][j]) for i in range(2, h.n) for j in range(i - 1)):
        raise InternalCheckError("Hessenberg form has an entry below the subdiagonal")
    if h is matrix and q == ExactMatrix.identity(f, h.n):
        return h, q  # no work was done: M Q = Q H would read M I = I M
    if matrix @ q != q @ h or not _is_invertible(q):
        raise InternalCheckError("Hessenberg reduction is not a similarity")
    return h, q


def _hessenberg_recurrence(field: Field, h, start: int, stop: int) -> list:
    """Coefficients, low to high, of det(lambda I - B) for the diagonal block
    B = h[start:stop, start:stop] of an upper Hessenberg grid.

    p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    (Cohen, Alg. 2.2.9).  A zero subdiagonal entry ends the sum, and zero
    entries of column m add nothing, so a tridiagonal block costs O(n^2).
    """
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    polys = [[field.one]]
    for m in range(start, stop):
        prev = polys[-1]
        nxt = [field.zero] + prev
        if not is_zero(h[m][m]):
            for k, v in enumerate(prev):
                nxt[k] = sub(nxt[k], mul(h[m][m], v))
        t = field.one
        for i in range(m - 1, start - 1, -1):
            t = mul(t, h[i + 1][i])
            if is_zero(t):
                break
            if not is_zero(h[i][m]):
                coef = mul(h[i][m], t)
                for k, v in enumerate(polys[i - start]):
                    nxt[k] = sub(nxt[k], mul(coef, v))
        polys.append(nxt)
    return polys[-1]


def _annihilates_first_vector(field: Field, h, start: int, stop: int, coeffs) -> bool:
    """Whether p(B) e_start = 0 for the block B = h[start:stop, start:stop]."""
    block = ExactMatrix._raw(field, [row[start:stop] for row in h[start:stop]])
    v = [field.zero] * (stop - start)
    for c in reversed(coeffs):  # Horner: v <- B v + c e_start
        v = block.apply(v)
        v[0] = field.add(v[0], c)
    return all(field.is_zero(x) for x in v)


def char_poly(matrix: ExactMatrix) -> ExactPolynomial:
    """Monic characteristic polynomial det(lambda I - M), exactly.

    M is reduced to an upper Hessenberg H = Q^-1 M Q, which costs nothing
    when M is already upper Hessenberg (diagonal, bidiagonal, tridiagonal),
    and the polynomial is read off H by the Hessenberg recurrence (Cohen,
    Alg. 2.2.9): O(n^3) field operations in every field, O(n^2) on
    tridiagonal input.  Certified by M Q = Q H with Q invertible, and per
    unreduced diagonal block of H: the block's first basis vector is
    cyclic, so the only monic polynomial of the block's size annihilating
    it is the block's characteristic polynomial.  The blocks' polynomials
    must multiply to the recurrence's result over all of H.
    """
    h, _ = _similar_hessenberg(matrix)
    f = h.field
    n = h.n
    rows = h.rows
    chi = _hessenberg_recurrence(f, rows, 0, n)
    cuts = [0] + [k for k in range(1, n) if f.is_zero(rows[k][k - 1])] + [n]
    product = ExactPolynomial._raw(f, [f.one])
    for start, stop in zip(cuts, cuts[1:]):
        if stop - start == n:
            block = chi
        else:
            block = _hessenberg_recurrence(f, rows, start, stop)
        if not _annihilates_first_vector(f, rows, start, stop, block):
            raise InternalCheckError(
                f"characteristic polynomial of the Hessenberg block "
                f"{start}..{stop - 1} does not annihilate its cyclic vector"
            )
        product = product * ExactPolynomial._raw(f, block)
    chi = ExactPolynomial._raw(f, chi)
    if product != chi:
        raise InternalCheckError(
            "Hessenberg blocks do not multiply to the characteristic polynomial"
        )
    return chi


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
    solved = _solve_grid(field, matrix.rows, b)
    if solved is None:
        return LinearSolution("inconsistent", None, ())
    x, nullity = solved
    solution = tuple(FieldElement(field, v) for v in x)
    if nullity == 0:
        return LinearSolution("unique", solution, ())
    basis = _nullspace_grid(field, matrix.rows)
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

    One Hessenberg reduction H = Q^-1 M Q serves both the characteristic
    polynomial, read off H, and the eigenvectors Q ker(H - theta I), each
    kernel taken by forward elimination and back-substitution in O(n^2).
    """
    field = matrix.field
    n = matrix.n
    h, q = _similar_hessenberg(matrix)
    chi = char_poly(h)
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
    kernels = []
    for theta in eigenvalues:
        kernel = _nullspace_grid(field, h.add_scalar_diagonal(field.neg(theta)).rows)
        if len(kernel) != 1:
            raise InternalCheckError(
                "distinct eigenvalue must have a one-dimensional eigenspace"
            )
        kernels.append(kernel[0])
    moved = q @ ExactMatrix._raw(field, zip(*kernels))
    columns = [_normalize_leading(field, col) for col in zip(*moved.rows)]
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
