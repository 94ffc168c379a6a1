"""Exact dense square matrices and their eigenstructure.

Matrices are immutable: a field plus a grid of payloads, whose rows and
columns are lifted on first use to integer images over one positive
denominator each (Field.lift) and kept.  All three fields share one
integer kernel.  Products and matrix-vector products are dot products of
the images over the positions where both sides are nonzero, lowered to
payloads once per entry.  Elimination is Bareiss's fraction-free forward
pass with first-nonzero pivoting, so identical inputs always produce
identical outputs; its rows are proportional to the unit-pivot ones.
Inverses, kernels and solutions all finish it with one fraction-free
upward pass on the integers (Nakos, Turner and Williams, SIGSAM Bull. 31,
1997), and each entry they emit is divided once.  The Hessenberg
reduction works on payloads, since only dense input reaches it.  One
Hessenberg reduction H = Q^-1 M Q per matrix gives both the characteristic
polynomial, by the Hessenberg recurrence, and the eigenvectors
Q ker(H - theta I); diagonal, bidiagonal and tridiagonal matrices are
already Hessenberg.  A triangular matrix (diagonal, split-form bidiagonal
or dense) skips all of that: its diagonal is its spectrum, and its right
and left eigenvectors come by substitution on the triangle.
Eigenvectors are normalized to leading coordinate 1 and eigenvalues are
listed in the canonical shortlex order of their serialized form; the
primitive idempotent E_i is the outer product of eigenvector i with row i
of the inverse eigenvector matrix, built only when asked for.
"""

from __future__ import annotations

from collections import Counter
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
    _json_list,
    field_from_dict,
    field_to_dict,
    roots_in_field,
)

SHAPE_DIAGONAL = "diagonal"
SHAPE_LOWER_BIDIAGONAL = "lower-bidiagonal"
SHAPE_UPPER_BIDIAGONAL = "upper-bidiagonal"
SHAPE_IRREDUCIBLE_TRIDIAGONAL = "irreducible-tridiagonal"
SHAPE_TRIDIAGONAL = "tridiagonal"
SHAPE_OTHER = "other"

_NOT_SQUARE = "matrix must be square and nonempty"


class ExactMatrix:
    """Square matrix over one exact field.

    The integer images of its rows and columns are lifted on first use
    and kept, since the matrix never changes.
    """

    __slots__ = ("field", "rows", "_row_images", "_column_images")

    def __init__(self, field: Field, rows):
        grid = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise ValueError(_NOT_SQUARE)
        self.field = field
        self.rows = grid
        self._row_images = self._column_images = None

    @classmethod
    def _raw(cls, field: Field, rows) -> "ExactMatrix":
        m = object.__new__(cls)
        m.field = field
        m.rows = tuple(tuple(row) for row in rows)
        m._row_images = m._column_images = None
        return m

    def _lifted_rows(self) -> list:
        if self._row_images is None:
            self._row_images = _lift_lines(self.field, self.rows)
        return self._row_images

    def _lifted_columns(self) -> list:
        if self._column_images is None:
            self._column_images = _lift_lines(self.field, zip(*self.rows))
        return self._column_images

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        return cls.diagonal(field, [field.one] * n)

    @classmethod
    def zeros(cls, field: Field, n: int) -> "ExactMatrix":
        return cls.diagonal(field, [field.zero] * n)

    @classmethod
    def diagonal(cls, field: Field, entries, below=None, above=None) -> "ExactMatrix":
        """The n x n matrix with these diagonal entries and, when given,
        the n - 1 entries of `below` just under the diagonal and those of
        `above` just over it; zero elsewhere.  Every entry is coerced."""
        payloads = [field.coerce(v) for v in entries]
        n = len(payloads)
        if n == 0:
            raise ValueError(_NOT_SQUARE)
        rows = [[field.zero] * n for _ in range(n)]
        for i, v in enumerate(payloads):
            rows[i][i] = v
        for band, down, right in ((below, 1, 0), (above, 0, 1)):
            if band is None:
                continue
            band = [field.coerce(v) for v in band]
            if len(band) != n - 1:
                raise ValueError(
                    f"a band of a {n}x{n} matrix has {n - 1} entries, got {len(band)}"
                )
            for i, v in enumerate(band):
                rows[i + down][i + right] = v
        return cls._raw(field, rows)

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
        """Matrix-vector product: payloads in, payloads out."""
        f = self.field
        x = [f.coerce(v) for v in vector]
        if len(x) != self.n:
            raise ValueError(f"vector has length {len(x)}, expected {self.n}")
        ((y, y_den, y_support),) = _lift_lines(f, [x])
        dot, lower = f.dot, f.lower
        return [
            lower(dot(r, y, r_support & y_support), r_den * y_den)
            for r, r_den, r_support in self._lifted_rows()
        ]

    def scale(self, scalar) -> "ExactMatrix":
        f = self.field
        s = f.coerce(scalar)
        return ExactMatrix._raw(f, [[f.mul(s, a) for a in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entry (i, j) is row i's image dotted with column j's over the
        positions where both are nonzero, lowered over the product of
        their denominators; a bidiagonal factor on either side makes the
        product O(n^2)."""
        f = self._check_field(other)
        dot, lower = f.dot, f.lower
        columns = other._lifted_columns()
        return ExactMatrix._raw(
            f,
            [
                [
                    lower(dot(r, c, r_support & c_support), r_den * c_den)
                    for c, c_den, c_support in columns
                ]
                for r, r_den, r_support in self._lifted_rows()
            ],
        )

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


# --- the integer kernel: lifted lines and Bareiss elimination ---


def _lift_lines(field: Field, lines) -> list[tuple[list, int, set]]:
    """(image, den, support) per line: its integer image over one positive
    denominator, and the positions where the image is nonzero."""
    zero = field.image_zero
    out = []
    for line in lines:
        image, den = field.lift(line)
        out.append((image, den, {k for k, v in enumerate(image) if v != zero}))
    return out


def _subtract_multiple(field: Field, row: list, lead: list, factor, start: int) -> None:
    """row[start:] -= factor * lead[start:], in place, skipping zeros of lead."""
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    row[start:] = [
        v if is_zero(w) else sub(v, mul(factor, w))
        for v, w in zip(row[start:], lead[start:])
    ]


def _bareiss(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Fraction-free forward elimination of image rows, in place (Bareiss,
    Math. Comp. 22, 1968); returns the rows and the pivot columns.

    Pivoting takes the first nonzero entry of each column, as the unit
    elimination would, and each step replaces a row below the pivot row
    by (p row - row[c] lead) / prev, with p the pivot and prev the one
    before it: an exact division, so every entry stays in the image and
    the k-th pivot is a k by k minor of the input.  A row with a zero in
    the pivot column is owed the factor p / prev; it is paid, telescoped,
    when the row is next touched, so upper Hessenberg input costs O(n^2).
    Rows past the rank come out zero; the others are proportional to the
    unit echelon rows.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero, combine = field.image_zero, field.combine
    pivot_values = [field.image_one]
    stage = [0] * nrows  # row i is owed pivot_values[r] / pivot_values[stage[i]]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        stage[r], stage[pivot_row] = stage[pivot_row], stage[r]
        prev = pivot_values[r]
        lead = rows[r]
        if stage[r] != r:
            lead[c:] = combine(lead[c:], prev, pivot_values[stage[r]])
        p = lead[c]
        tail = lead[c:]
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[c] == zero:
                continue
            if stage[i] != r:
                row[c:] = combine(row[c:], prev, pivot_values[stage[i]])
            row[c:] = combine(row[c:], p, prev, row[c], tail)
            stage[i] = r + 1
        pivot_values.append(p)
        pivots.append(c)
        r += 1
    return rows, pivots


def _upward(field: Field, rows, pivots: list[int], width: int, columns) -> tuple:
    """Fraction-free back-substitution on _bareiss's pivot rows.

    For each right-hand column index b in columns, returns the image Y of
    length width with U Y = D U_b on the pivot rows, Y zero off the pivot
    columns, and D the last pivot (image_one when there is none).  Each
    division is exact: on the pivot columns Y = D M_pp^-1 M_b, with M_pp
    the pivot block of the lifted input, an adjugate image.  Returns
    (ys, D).
    """
    zero, one = field.image_zero, field.image_one
    dot, combine = field.dot, field.combine
    det = rows[len(pivots) - 1][pivots[-1]] if pivots else one
    ys = [[zero] * width for _ in columns]
    for r in range(len(pivots) - 1, -1, -1):
        row, c = rows[r], pivots[r]
        support = [j for j in pivots[r + 1 :] if row[j] != zero]
        sums = [dot(row, y, support) for y in ys]
        for y, v in zip(ys, combine([row[b] for b in columns], det, row[c], one, sums)):
            y[c] = v
    return ys, det


def _leading_one(field: Field, image: list) -> tuple:
    """The payloads of a nonzero image vector scaled to leading coordinate 1."""
    zero = field.image_zero
    return tuple(field.quotients(image, next(v for v in image if v != zero)))


def _nullspace_grid(field: Field, grid) -> list[tuple]:
    """Basis of the right nullspace, leading coordinates normalized to 1.

    Basis vectors are emitted in increasing order of their free column, so
    the result is deterministic.  Each is the solution with that free
    coordinate 1 and the others 0, which is also what the reduced echelon
    form would give: _upward solves for the free column f on integers, the
    image vector is Y with -D at f, and it is scaled to leading 1 at once.
    """
    ncols = len(grid[0])
    rows, pivots = _bareiss(field, [field.lift(row)[0] for row in grid])
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    ys, det = _upward(field, rows, pivots, ncols, free)
    one = field.image_one
    (neg_det,) = field.combine([field.image_zero], one, one, one, [det])  # (0 - D) / 1
    for f, y in zip(free, ys):
        y[f] = neg_det
    return [_leading_one(field, y) for y in ys]


def _is_invertible(matrix: ExactMatrix) -> bool:
    rows = [list(image) for image, _, _ in matrix._lifted_rows()]
    return len(_bareiss(matrix.field, rows)[1]) == matrix.n


def _solve_grid(field: Field, rows, rhs) -> "tuple[list, int] | None":
    """Exact solve of rows @ x = rhs, rectangular allowed.

    Returns (x, nullity) with every free variable set to zero, or None
    when the system is inconsistent, that is when [rows | rhs] has a pivot
    on its last column.  _upward reads D x off that column, and each entry
    of x is divided by D once.
    """
    width = len(rows[0])
    grid = [field.lift(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    echelon, pivots = _bareiss(field, grid)
    if pivots and pivots[-1] == width:
        return None
    (y,), det = _upward(field, echelon, pivots, width, [width])
    return field.quotients(y, det), width - len(pivots)


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
    """_hessenberg, certified: H is upper Hessenberg, and M Q = Q H with Q
    invertible unless H is M itself, which _hessenberg returns (with Q = I)
    only when it did no work; a wrong Q would fail M P = P diag(theta)."""
    h, q = _hessenberg(matrix)
    f = matrix.field
    if any(not f.is_zero(h.rows[i][j]) for i in range(2, h.n) for j in range(i - 1)):
        raise InternalCheckError("Hessenberg form has an entry below the subdiagonal")
    if h is matrix:
        return h, q
    if matrix @ q != q @ h or not _is_invertible(q):
        raise InternalCheckError("Hessenberg reduction is not a similarity")
    return h, q


def _hessenberg_recurrence(field: Field, h, start: int, stop: int) -> list:
    """Coefficients, low to high, of det(lambda I - B) for an unreduced
    diagonal block B = h[start:stop, start:stop] of an upper Hessenberg grid.

    p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    (Cohen, Alg. 2.2.9).  Zero entries of column m add nothing, so a
    tridiagonal block costs O(n^2).
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
    and the polynomial is the product of the Hessenberg recurrence (Cohen,
    Alg. 2.2.9) over each unreduced diagonal block of H: O(n^3) field
    operations in every field, O(n^2) on tridiagonal input.  Certified by
    M Q = Q H with Q invertible, and per block: the block's first basis
    vector is cyclic, so the only monic polynomial of the block's size
    annihilating it is the block's characteristic polynomial.
    """
    h, _ = _similar_hessenberg(matrix)
    return _hessenberg_char_poly(h)


def _hessenberg_char_poly(h: ExactMatrix) -> ExactPolynomial:
    """char_poly's block recurrences and certificates on an upper Hessenberg H."""
    f = h.field
    n = h.n
    rows = h.rows
    cuts = [0] + [k for k in range(1, n) if f.is_zero(rows[k][k - 1])] + [n]
    chi = ExactPolynomial._raw(f, [f.one])
    for start, stop in zip(cuts, cuts[1:]):
        block = _hessenberg_recurrence(f, rows, start, stop)
        if not _annihilates_first_vector(f, rows, start, stop, block):
            raise InternalCheckError(
                f"characteristic polynomial of the Hessenberg block "
                f"{start}..{stop - 1} does not annihilate its cyclic vector"
            )
        chi = chi * ExactPolynomial._raw(f, block)
    return chi


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Inverse by fraction-free Gauss-Jordan; SingularMatrixError when rank < n.

    [M | I] is lifted row by row and reduced by _bareiss to [U | R], with
    last pivot D = U[n-1][n-1], up to sign the determinant of the lifted
    M.  _upward solves U Y = D R on integers, each division exact because
    Y = D M^-1 is the image of an adjugate, and each entry of M^-1 = Y / D
    is normalised once.
    """
    field = matrix.field
    n = matrix.n
    aug = [
        field.lift(list(row) + [field.one if i == j else field.zero for j in range(n)])[0]
        for i, row in enumerate(matrix.rows)
    ]
    rows, pivots = _bareiss(field, aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    y_columns, det = _upward(field, rows, pivots, n, range(n, 2 * n))
    return ExactMatrix._raw(field, zip(*(field.quotients(col, det) for col in y_columns)))


def conjugate(matrix: ExactMatrix, g: ExactMatrix) -> ExactMatrix:
    """g^-1 @ matrix @ g."""
    return inverse(g) @ matrix @ g


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


def _triangular_side(matrix: ExactMatrix) -> "bool | None":
    """True when matrix is lower triangular (so when it is diagonal), False
    when it is upper triangular only, None otherwise."""
    f = matrix.field
    n = matrix.n
    rows = matrix.rows
    if all(f.is_zero(rows[i][j]) for i in range(n) for j in range(i + 1, n)):
        return True
    if all(f.is_zero(rows[i][j]) for i in range(n) for j in range(i)):
        return False
    return None


def _substitute(field: Field, rows, lower: bool) -> list[list]:
    """Vector j: the eigenvector for diagonal entry j of a triangular grid
    whose diagonal entries are distinct, with coordinate j equal to 1.

    The coordinates before j (lower) or after it (upper) are 0, and row i
    of (M - theta_j I) v = 0 gives coordinate i as sum_k M_ik v_k divided
    by theta_j - M_ii, walking away from j down a lower triangle and up an
    upper one.  Only the nonzero off-diagonal entries are visited: O(n^2)
    field operations on a bidiagonal grid, O(n^3) on a dense one.
    """
    is_zero, add, mul, sub, div = field.is_zero, field.add, field.mul, field.sub, field.div
    n = len(rows)
    diagonal = [row[i] for i, row in enumerate(rows)]
    off = [
        [(k, v) for k, v in enumerate(row) if k != i and not is_zero(v)]
        for i, row in enumerate(rows)
    ]
    vectors = []
    for j, theta in enumerate(diagonal):
        vec = [field.zero] * n
        vec[j] = field.one
        for i in range(j + 1, n) if lower else range(j - 1, -1, -1):
            acc = field.zero
            for k, v in off[i]:
                if not is_zero(vec[k]):
                    acc = add(acc, mul(v, vec[k]))
            if not is_zero(acc):
                vec[i] = div(acc, sub(theta, diagonal[i]))
        vectors.append(vec)
    return vectors


def _multiplicity_reason(field: Field, n: int, mults) -> "str | None":
    """Why a spectrum of (eigenvalue, multiplicity) pairs in shortlex
    order is not n distinct eigenvalues in the field, or None when it is."""
    for payload, mult in mults:
        if mult > 1:
            return f"eigenvalue {field.serialize(payload)} has multiplicity {mult}"
    total = sum(m for _, m in mults)
    if total < n:
        return (
            f"characteristic polynomial does not split over {field.name}: "
            f"only {total} of {n} eigenvalues lie in the field"
        )
    return None


def _eigenvector_matrix(matrix: ExactMatrix, eigenvalues, columns) -> ExactMatrix:
    """P with these columns, certified by M P = P diag(theta)."""
    field = matrix.field
    vectors = ExactMatrix._raw(field, zip(*columns))
    if matrix @ vectors != vectors @ ExactMatrix.diagonal(field, eigenvalues):
        raise InternalCheckError("eigenvectors must satisfy M P = P diag(theta)")
    return vectors


def _witness(eigenvalues, vectors: ExactMatrix, inv: ExactMatrix) -> MultiplicityFreeResult:
    """The positive verdict, certified by P P^-1 = I."""
    field = vectors.field
    # sum_i E_i = P P^-1, so this certifies that the idempotents sum to I
    if vectors @ inv != ExactMatrix.identity(field, vectors.n):
        raise InternalCheckError("primitive idempotents must sum to the identity")
    eigen = EigenData(tuple(FieldElement(field, v) for v in eigenvalues), vectors, inv)
    return MultiplicityFreeResult(True, eigen, None)


def _triangular_decomposition(matrix: ExactMatrix, lower: bool) -> MultiplicityFreeResult:
    """is_multiplicity_free without a characteristic polynomial, kernel or
    inverse.  The diagonal is the spectrum, counted as it stands.
    _substitute gives the eigenvectors v_j on M and the left eigenvectors
    w_j on M^T, and P^-1 has rows w_j / (w_j . v_j), since left and right
    eigenvectors of distinct eigenvalues are orthogonal."""
    field = matrix.field
    n = matrix.n
    diagonal = [row[i] for i, row in enumerate(matrix.rows)]
    mults = sorted(Counter(diagonal).items(), key=lambda pair: field.sort_key(pair[0]))
    reason = _multiplicity_reason(field, n, mults)
    if reason is not None:
        return MultiplicityFreeResult(False, None, reason)

    is_zero, mul = field.is_zero, field.mul
    order = sorted(range(n), key=lambda i: field.sort_key(diagonal[i]))
    right = _substitute(field, matrix.rows, lower)
    left = _substitute(field, matrix.transpose().rows, not lower)
    columns, inv_rows = [], []
    for j in order:
        vec = right[j]
        lead = next(v for v in vec if not is_zero(v))
        scale = field.inv(lead)
        columns.append([v if is_zero(v) else mul(v, scale) for v in vec])
        # v_j and w_j meet only at coordinate j, where both were 1 before
        # v_j was scaled, so w_j . v_j = 1 / lead
        inv_rows.append([x if is_zero(x) else mul(x, lead) for x in left[j]])
    eigenvalues = [diagonal[j] for j in order]
    vectors = _eigenvector_matrix(matrix, eigenvalues, columns)
    return _witness(eigenvalues, vectors, ExactMatrix._raw(field, inv_rows))


def is_multiplicity_free(matrix: ExactMatrix) -> MultiplicityFreeResult:
    """Decide whether matrix has n distinct eigenvalues in its own field.

    On success the witness carries eigenvalues in shortlex order, the
    leading-1 eigenvectors, and their inverse matrix.  The eigenvalues
    come from the matrix alone.  A triangular matrix (diagonal, split-form
    bidiagonal, or dense) is decomposed by substitution on the triangle,
    with no characteristic polynomial (_triangular_decomposition).  Any
    other matrix is reduced once to a Hessenberg form H = Q^-1 M Q: the roots
    of the characteristic polynomial read off H are the eigenvalues, the
    eigenvectors are Q ker(H - theta I), each kernel taken by forward
    elimination and back-substitution in O(n^2), and P^-1 is an inverse.
    Either way the witness is certified by M P = P diag(theta) and
    P P^-1 = I.
    """
    lower = _triangular_side(matrix)
    if lower is not None:
        return _triangular_decomposition(matrix, lower)
    field = matrix.field
    h, q = _similar_hessenberg(matrix)
    mults = [(r.payload, m) for r, m in roots_in_field(_hessenberg_char_poly(h))]
    reason = _multiplicity_reason(field, matrix.n, mults)
    if reason is not None:
        return MultiplicityFreeResult(False, None, reason)

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
    columns = [_leading_one(field, image) for image, _, _ in moved._lifted_columns()]
    vectors = _eigenvector_matrix(matrix, eigenvalues, columns)
    try:
        inv = inverse(vectors)
    except SingularMatrixError as exc:
        raise InternalCheckError(
            "eigenvectors of distinct eigenvalues must be independent"
        ) from exc
    return _witness(eigenvalues, vectors, inv)


def matrix_to_dict(matrix: ExactMatrix) -> dict:
    """JSON-ready form: field descriptor plus rows of canonical strings."""
    f = matrix.field
    zero, is_zero, ser = f.serialize(f.zero), f.is_zero, f.serialize
    return {
        "field": field_to_dict(f),
        "rows": [[zero if is_zero(v) else ser(v) for v in row] for row in matrix.rows],
    }


def matrix_from_dict(data: dict) -> ExactMatrix:
    field = field_from_dict(data["field"])
    return ExactMatrix(field, _json_rows(data["rows"]))


def _json_rows(rows) -> list:
    """The rows of a JSON matrix, each required to be a JSON list."""
    return [_json_list(row, f"rows[{i}]") for i, row in enumerate(_json_list(rows, "rows"))]


__all__ = [
    "EigenData",
    "ExactMatrix",
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
    "matrix_from_dict",
    "matrix_to_dict",
    "shape",
]
