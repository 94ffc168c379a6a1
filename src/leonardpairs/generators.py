"""Generators: algebraic module constructions and random sources.

Structured families, all returned as exact matrix pairs:

* example2: the classical 4x4 pair together with the transition matrix P
  satisfying AP = PA* and P^2 = 8I.
* sl2_module / sl2_pair: the (d+1)-dimensional irreducible module with
  h v_i = (d-2i) v_i, f v_i = (i+1) v_{i+1}, e v_i = (d-i+1) v_{i-1};
  pairs are K-linear combinations x e + y f + z h chosen semisimple and
  generating.
* uq_module / uq_pair: the quantum weight module with k u_i = eps
  q^(d-2i) u_i, f u_i = [i+1] u_{i+1}, e u_i = eps [d-i+1] u_{i-1};
  A = alpha f + k/(q - 1/q) against A* = beta e + k^(-1)/(q - 1/q).
  The pair is Leonard exactly when eps alpha beta avoids q^(d-1),
  q^(d-3), ..., q^(1-d); uq_pair reports that membership as a flag.
* build_lattice / lattice_pair: the full subspace lattice of GF(q)^n
  and its cover relation, each grade enumerated as the covers of the one
  below.  Over Q(sqrt q) its grading, raising and lowering maps K, R, L
  make it a U_q(sl2)-module at sqrt q, with K, L, R in the roles of k, e,
  f.  All three modules are graded: one weight per grade, cover lists
  between adjacent grades and one scalar of e and of f per pair of them.
  One exact check reads that form, _verify_graded_relations, given each
  module's weight steps and bracket targets.  lattice_pair splits the
  module into irreducible chains, each carrying one Leonard pair in split
  form.

Plus deterministic random sources for valid parameter arrays and for
certified non-examples.

All module relations are re-verified at construction time.  The lattice
decompositions follow from the certified relations, and the parameter
array on each grade's split pair certifies that pair.  A failure there
raises InternalCheckError and means a bug, not bad input.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import (
    GeneratorError,
    InternalCheckError,
    LatticeSizeError,
)
from .field import Field, QuadraticExtension, Rationals, _mulmod
from .matrix import ExactMatrix, inverse, is_multiplicity_free
from .parray import ParameterArray, _split_rhs, validate


def example2(field: Field) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The classical 4x4 pair and its transition matrix, embedded in field.

    Over characteristics other than 2 and 3 this is a Leonard pair and
    AP = PA* with P^2 = 8I; in characteristics 2 and 3 the matrices still
    embed but the eigenvalues collide and recognition rejects the pair.
    """
    a = ExactMatrix(field, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    a_star = ExactMatrix.diagonal(field, (3, 1, -1, -3))
    p = ExactMatrix(
        field,
        [[1, 3, 3, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -3, 3, -1]],
    )
    return a, a_star, p


@dataclass(frozen=True)
class Sl2Module:
    """The irreducible module of diameter d with exact bracket relations."""

    field: Field
    d: int
    e: ExactMatrix
    f: ExactMatrix
    h: ExactMatrix


def sl2_module(field: Field, d: int) -> Sl2Module:
    if d < 0:
        raise GeneratorError("diameter must be nonnegative")
    h = [field.from_int(d - 2 * g) for g in range(d + 1)]
    e_above = [field.from_int(d - g) for g in range(d)]
    f_below = [field.from_int(g + 1) for g in range(d)]
    _verify_sl2_grades(field, h, e_above, f_below)
    zeros = [field.zero] * (d + 1)
    return Sl2Module(
        field,
        d,
        ExactMatrix.diagonal(field, zeros, above=e_above),
        ExactMatrix.diagonal(field, zeros, below=f_below),
        ExactMatrix.diagonal(field, h),
    )


def _verify_sl2_grades(field, weights, e, f) -> None:
    """Check he - eh = 2e, hf - fh = -2f and ef - fe = h exactly on a
    module with one vertex v_g per grade g, covered by v_(g+1): h scales
    v_g by weights[g], f sends it to f[g] v_(g+1) and e sends v_(g+1) to
    e[g] v_g.  The first two say weights[g] = weights[g+1] + 2."""
    two = field.from_int(2)
    steps = [w == field.add(v, two) for w, v in zip(weights, weights[1:])]
    names = ("he - eh = 2e", "hf - fh = -2f", "ef - fe = h")
    _verify_graded_relations(
        field, (1,) * len(weights), (((0,),),) * len(e), e, f, steps, weights, names
    )


def _sl2_combination(module: Sl2Module, coeffs) -> ExactMatrix:
    field = module.field
    x, y, z = (field.coerce(c) for c in coeffs)
    return (
        module.e.scale(x) + module.f.scale(y) + module.h.scale(z)
    )


def _sl2_bracket(field: Field, u, v):
    """Coordinates of [u, v] in the (e, f, h) basis."""
    x1, y1, z1 = u
    x2, y2, z2 = v
    two = field.from_int(2)
    x = field.mul(two, field.sub(field.mul(z1, x2), field.mul(x1, z2)))
    y = field.mul(two, field.sub(field.mul(y1, z2), field.mul(z1, y2)))
    z = field.sub(field.mul(x1, y2), field.mul(y1, x2))
    return (x, y, z)


def sl2_pair(
    field: Field,
    d: int,
    a=(0, 0, 1),
    a_star=(1, 1, 0),
) -> tuple[ExactMatrix, ExactMatrix]:
    """The pair (x e + y f + z h, x' e + y' f + z' h) on the module.

    Both elements must be semisimple (z^2 + xy != 0) and together generate
    the algebra (bracket closure of dimension 3); the defaults give the
    pair (h, e + f).  The built matrices are confirmed multiplicity-free
    on the module, which also rejects characteristics where the weights
    d - 2i collide.
    """
    module = sl2_module(field, d)
    u = tuple(field.coerce(c) for c in a)
    v = tuple(field.coerce(c) for c in a_star)
    for name, (x, y, z) in (("A", u), ("A*", v)):
        if field.is_zero(field.add(field.mul(z, z), field.mul(x, y))):
            raise GeneratorError(f"{name} = xe+yf+zh is not semisimple: z^2 + xy = 0")
    w = _sl2_bracket(field, u, v)
    det = _det3(field, u, v, w)
    if field.is_zero(det):
        raise GeneratorError(
            "the chosen elements do not generate: bracket closure has dimension < 3"
        )
    mat_a = _sl2_combination(module, u)
    mat_s = _sl2_combination(module, v)
    for name, m in (("A", mat_a), ("A*", mat_s)):
        check = is_multiplicity_free(m)
        if not check:
            raise GeneratorError(
                f"{name} is not multiplicity-free on the diameter-{d} module "
                f"over {field.name}: {check.reason}"
            )
    return mat_a, mat_s


def _det3(field: Field, r0, r1, r2):
    def m2(a, b, c, d):
        return field.sub(field.mul(a, d), field.mul(b, c))

    return field.add(
        field.sub(
            field.mul(r0[0], m2(r1[1], r1[2], r2[1], r2[2])),
            field.mul(r0[1], m2(r1[0], r1[2], r2[0], r2[2])),
        ),
        field.mul(r0[2], m2(r1[0], r1[1], r2[0], r2[1])),
    )


@dataclass(frozen=True)
class UqModule:
    """The quantum weight module; relations kk^-1 = 1, ke = q^2 ek,
    kf = q^-2 fk and ef - fe = (k - k^-1)/(q - 1/q) hold exactly."""

    field: Field
    d: int
    q: object
    epsilon: object
    e: ExactMatrix
    f: ExactMatrix
    k: ExactMatrix
    k_inv: ExactMatrix


def _q_int(field: Field, q, n: int):
    """[n] = (q^n - q^-n)/(q - 1/q) as a payload."""
    qi = field.inv(q)
    num = field.sub(field.pow(q, n), field.pow(qi, n))
    den = field.sub(q, qi)
    return field.div(num, den)


def uq_module(field: Field, d: int, q, epsilon=1) -> UqModule:
    if d < 0:
        raise GeneratorError("diameter must be nonnegative")
    q = field.coerce(q)
    epsilon = field.coerce(epsilon)
    if field.is_zero(q):
        raise GeneratorError("q must be nonzero")
    qsq = field.mul(q, q)
    power = field.one
    for j in range(1, max(d, 1) + 1):
        power = field.mul(power, qsq)
        if power == field.one:
            raise GeneratorError(
                f"q^{2 * j} = 1, so the weights q^(d-2i) collide at diameter {d}"
            )
    if epsilon not in (field.one, field.from_int(-1)):
        raise GeneratorError("epsilon must be 1 or -1")
    if field.characteristic() == 2:
        epsilon = field.one  # the sign set collapses

    k_diag = [field.mul(epsilon, field.pow(q, d - 2 * i)) for i in range(d + 1)]
    e_above = [field.mul(epsilon, _q_int(field, q, d - i)) for i in range(d)]
    f_below = [_q_int(field, q, i) for i in range(1, d + 1)]
    # one vertex u_i per grade i, covered by u_(i+1)
    _verify_quantum_relations(field, q, (1,) * (d + 1), (((0,),),) * d, k_diag, e_above, f_below)
    zeros = [field.zero] * (d + 1)
    return UqModule(
        field,
        d,
        q,
        epsilon,
        ExactMatrix.diagonal(field, zeros, above=e_above),
        ExactMatrix.diagonal(field, zeros, below=f_below),
        ExactMatrix.diagonal(field, k_diag),
        ExactMatrix.diagonal(field, [field.inv(w) for w in k_diag]),
    )


def _verify_quantum_relations(field, q, counts, covers, weights, e, f) -> None:
    """Check ke = q^2 ek, kf = q^-2 fk and ef - fe = (k - k^-1)/(q - 1/q)
    exactly on a graded module, read as _verify_graded_relations reads it,
    with k scaling each grade-g vertex by weights[g].

    As k is one scalar per grade and e, f move one grade, the first two
    relations say weights[g] = q^2 weights[g+1] wherever e or f is
    nonzero between the grades.
    """
    if any(field.is_zero(w) for w in weights):
        raise InternalCheckError("k has a zero weight")
    qsq = field.mul(q, q)
    den = field.inv(field.sub(q, field.inv(q)))
    steps = [w == field.mul(qsq, v) for w, v in zip(weights, weights[1:])]
    targets = [field.mul(field.sub(w, field.inv(w)), den) for w in weights]
    names = ("ke = q^2 ek", "kf = q^-2 fk", "ef - fe = (k - k^-1)/(q - 1/q)")
    _verify_graded_relations(field, counts, covers, e, f, steps, targets, names)


def _verify_graded_relations(field, counts, covers, e, f, steps, targets, names) -> None:
    """Check a graded module's weight steps and its bracket ef - fe.

    Grade g has counts[g] vertices.  covers[g][x] lists the grade-(g+1)
    vertices above vertex x of grade g.  f sends x to f[g] times the sum
    of those covers; e sends a grade-(g+1) vertex to e[g] times the sum of
    the vertices it covers.  steps[g] tells whether the weights of grades
    g and g+1 differ as the two weight relations, names[0] for e and
    names[1] for f, require; where they do not, e[g] and f[g] must vanish.

    With p_g = e[g] f[g], the bracket on a grade-g vertex x is p_g U(x) -
    p_(g-1) D(x), where U(x) counts the walks from x to a cover and back
    down, and D(x) those to a covered vertex and back up, by their end.
    At x itself that is p_g #covers(x) - p_(g-1) #subcovers(x), and it
    must equal targets[g] (names[2]).  At any other end y it must vanish,
    which for the lattice says that x and y have as many common covers as
    common subcovers.  Only integer counts are walked, and each distinct
    pair of counts on a grade meets the field once.
    """
    for g, grade in enumerate(covers):
        if any(grade) and not steps[g]:
            for name, x in zip(names, (e[g], f[g])):
                if not field.is_zero(x):
                    raise InternalCheckError(f"{name} fails")
    # below[g][y]: the grade-(g-1) vertices that vertex y of grade g covers
    below = [[[] for _ in range(m)] for m in counts]
    for g, grade in enumerate(covers):
        for x, ups in enumerate(grade):
            for y in ups:
                below[g + 1][y].append(x)
    above = list(covers) + [[()] * counts[-1]]
    products = [field.zero] + [field.mul(a, b) for a, b in zip(e, f)] + [field.zero]
    for g, (ups, downs) in enumerate(zip(above, below)):
        # (up, down) counts met at x itself, and at the other ends
        diagonal, off = set(), set()
        for x in range(counts[g]):
            up = Counter(end for y in ups[x] for end in below[g + 1][y])
            down = Counter(end for y in downs[x] for end in above[g - 1][y])
            diagonal.add((up.pop(x, 0), down.pop(x, 0)))
            off.update((up[y], down[y]) for y in up.keys() | down.keys())
        for where, pairs, want in (("on", diagonal, targets[g]), ("off", off, field.zero)):
            if any(
                field.sub(
                    field.mul(products[g + 1], field.from_int(a)),
                    field.mul(products[g], field.from_int(b)),
                ) != want
                for a, b in pairs
            ):
                raise InternalCheckError(f"{names[2]} fails {where} the diagonal")


def uq_forbidden_set(field: Field, d: int, q) -> list:
    """The payloads q^(d-1), q^(d-3), ..., q^(1-d)."""
    q = field.coerce(q)
    return [field.pow(q, d - 1 - 2 * t) for t in range(d)]


def uq_pair(
    field: Field,
    d: int,
    q,
    *,
    alpha=1,
    beta=1,
    epsilon=1,
) -> tuple[ExactMatrix, ExactMatrix, bool]:
    """The quantum pair plus a flag telling whether eps alpha beta avoids
    the forbidden powers of q.

    A flagged-forbidden pair is still returned: one of its dual split
    products vanishes, so recognition rejects it, and callers may want
    the boundary object itself.
    """
    alpha = field.coerce(alpha)
    beta = field.coerce(beta)
    if field.is_zero(alpha) or field.is_zero(beta):
        raise GeneratorError("alpha and beta must be nonzero")
    module = uq_module(field, d, q, epsilon)
    q_pay = module.q
    den = field.inv(field.sub(q_pay, field.inv(q_pay)))
    a = module.f.scale(alpha) + module.k.scale(den)
    a_star = module.e.scale(beta) + module.k_inv.scale(den)
    scalar = field.mul(module.epsilon, field.mul(alpha, beta))
    allowed = scalar not in uq_forbidden_set(field, d, q_pay)
    return a, a_star, allowed


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    value = 1
    for i in range(k):
        # each partial product is the integer [n choose i+1]_q
        value = value * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return value


# monic irreducible moduli realizing GF(p^k), as full coefficient tuples
# from the constant term up to the leading 1; _TinyField re-verifies each
# by finding a unit whose powers are every nonzero element
_TINY_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    16: (1, 1, 0, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    9: (1, 0, 1),
    27: (1, 2, 0, 1),
    81: (2, 1, 0, 0, 1),
    25: (3, 0, 1),
    125: (1, 1, 0, 1),
    49: (1, 0, 1),
    343: (5, 0, 0, 1),
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise GeneratorError(f"{q} is not a prime power")
    for p in (2, 3, 5, 7):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise GeneratorError(f"{q} is not a power of the prime {p}")
            return p, k
    raise GeneratorError(f"the lattice supports prime powers of 2, 3, 5, 7; got {q}")


class _TinyField:
    """GF(q) for small prime powers, elements encoded as 0..q-1 (base-p
    digit vectors of the polynomial representation), arithmetic by
    precomputed tables.  Internal to the lattice enumeration."""

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        self.q, self.p, self.k = q, p, k
        # the modulus x realises GF(p) itself
        modulus = (0, 1) if k == 1 else _TINY_MODULI.get(q)
        if modulus is None:
            raise GeneratorError(f"no internal representation for GF({q})")
        digits = [self._digits(a) for a in range(q)]
        self.add_table = [
            [self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        self.neg_table = [self._undigits([-x % p for x in digits[a]]) for a in range(q)]
        # the powers of the first g of order q - 1: g^(q-1) = 1 makes g a
        # unit, so its q - 1 distinct powers are every nonzero element, each
        # a unit, which certifies the modulus irreducible
        for g in range(1, q):
            power, x = [1], digits[g]
            while (code := self._undigits(x)) != 1 and len(power) < q - 1:
                power.append(code)
                x = _mulmod(x, digits[g], modulus, p)
            if code == 1 and len(power) == q - 1:
                break
        else:
            raise InternalCheckError(f"GF({q}) table modulus is not irreducible")
        log = {a: j for j, a in enumerate(power)}
        self.mul_table = [[0] * q] + [
            [0] + [power[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
            for a in range(1, q)
        ]

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digits) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + c
        return out


def _pivots(x) -> tuple[int, ...]:
    """The pivot columns of an RREF row tuple."""
    return tuple(next(c for c, v in enumerate(row) if v) for row in x)


def _extensions(x, n: int, tiny: _TinyField):
    """The RREF of span(x, v) for each cover of span(x), x in RREF.

    Each cover is spanned by x and one point v of the quotient: a vector
    zero on x's pivot columns with a leading 1, each such v once.  Clearing
    v's leading column from x's rows and slotting v in by that column
    gives the cover's RREF.
    """
    pivots = _pivots(x)
    free = [c for c in range(n) if c not in pivots]
    for t, lead in enumerate(free):
        rest = free[t + 1:]
        slot = sum(1 for c in pivots if c < lead)
        for values in itertools.product(range(tiny.q), repeat=len(rest)):
            v = [0] * n
            v[lead] = 1
            for c, value in zip(rest, values):
                v[c] = value
            rows = []
            for row in x:
                coeff = row[lead]
                if coeff:
                    scaled = tiny.mul_table[coeff]
                    row = tuple(
                        tiny.add_table[a][tiny.neg_table[scaled[b]]] for a, b in zip(row, v)
                    )
                rows.append(row)
            rows.insert(slot, tuple(v))
            yield tuple(rows)


@dataclass(frozen=True)
class SubspaceLattice:
    """All subspaces of GF(q)^n, graded by dimension, and the cover
    relation: covers[k][j] lists, in increasing order, the grade-(k+1)
    indices covering vertex j of grade k.  field holds sqrt q, over which
    K, R and L act on the vertices as build_lattice describes."""

    n: int
    q: int
    field: Field
    grades: tuple
    offsets: tuple[int, ...]
    covers: tuple

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grades)

    @property
    def points(self) -> tuple:
        """All subspaces in grade order, matching the vertex coordinates."""
        return tuple(x for grade in self.grades for x in grade)

    @property
    def total_subspaces(self) -> int:
        return self.offsets[-1]


MAX_LATTICE_SUBSPACES = 1200


def _sqrt_q_setup(q: int):
    """Field containing sqrt q and the payload of sqrt q itself."""
    p, k = _factor_prime_power(q)
    if k % 2 == 0:
        field = Rationals()
        return field, field.from_int(p ** (k // 2))
    field = QuadraticExtension(p)
    return field, field.from_parts(0, p ** ((k - 1) // 2))


def build_lattice(n: int, q: int) -> SubspaceLattice:
    """Enumerate the subspace lattice of GF(q)^n and its covers, and
    certify it as a U_q(sl2)-module at sqrt q.

    K scales a grade-k vertex by sqrt(q)^(n-2k); R sends a vertex to the
    sum of its covers; L sends it to sqrt(q)^(1-n) times the sum of the
    vertices it covers.  The relations KL = q LK, KR = q^-1 RK and
    LR - RL = (K - K^-1)/(sqrt q - 1/sqrt q) are verified exactly on
    those scalars and the cover lists before returning; no operator is
    formed.
    """
    if n < 1:
        raise GeneratorError("n must be at least 1")
    if n > 5:
        raise GeneratorError(f"the lattice construction is guarded at n <= 5; got {n}")
    tiny = _TinyField(q)
    counts = tuple(gaussian_binomial(n, k, q) for k in range(n + 1))
    if sum(counts) > MAX_LATTICE_SUBSPACES:
        raise LatticeSizeError(
            f"the lattice of GF({q})^{n} has {sum(counts)} subspaces, "
            f"above the limit of {MAX_LATTICE_SUBSPACES}"
        )
    # grade k+1 is every cover of grade k, in order of (pivot columns, rows)
    grades, covers = [((),)], []
    for k in range(n):
        ups = [tuple(_extensions(x, n, tiny)) for x in grades[k]]
        verts = sorted({y for u in ups for y in u}, key=lambda y: (_pivots(y), y))
        if len(verts) != counts[k + 1]:
            raise InternalCheckError(
                f"enumerated {len(verts)} subspaces of dimension {k + 1}, "
                f"expected {counts[k + 1]}"
            )
        index = {y: i for i, y in enumerate(verts)}
        covers.append(tuple(tuple(sorted(index[y] for y in u)) for u in ups))
        grades.append(tuple(verts))
    offsets = (0, *itertools.accumulate(counts))

    field, sq = _sqrt_q_setup(q)
    _verify_quantum_relations(
        field,
        sq,
        counts,
        covers,
        [field.pow(sq, n - 2 * k) for k in range(n + 1)],
        [field.pow(sq, 1 - n)] * n,
        [field.one] * n,
    )
    return SubspaceLattice(n, q, field, tuple(grades), offsets, tuple(covers))


def _grade_operator(field: Field, offsets, covers, diagonal, below, above):
    """An operator on the vertex coordinates that moves a vertex at most one
    grade: diagonal[k] on each grade-k vertex, the entry below the diagonal
    from a vertex to each of its covers, and the one above from each cover
    back to the vertex.

    Assembled cell by cell so the handful of distinct payloads is shared
    across the whole grid, and every empty cell holds field.zero itself:
    the CLI writes the dense operators one row at a time and spots those
    cells by identity, so near the guard neither the grid of strings nor
    the whole document is built.
    """
    total = offsets[-1]
    rows = [[field.zero] * total for _ in range(total)]
    for k, pay in enumerate(diagonal):
        for j in range(offsets[k + 1] - offsets[k]):
            col = offsets[k] + j
            rows[col][col] = pay
            if k < len(covers):
                for up in covers[k][j]:
                    rows[offsets[k + 1] + up][col] = below
                    rows[col][offsets[k + 1] + up] = above
    return ExactMatrix._raw(field, rows)


@dataclass(frozen=True)
class LatticeComponent:
    """One irreducible chain: grade of its lowest vector, its index among
    that grade's chains, diameter, and the split-form pair carried on it.
    The chains of one grade share one pair."""

    grade: int
    index: int
    diameter: int
    a: ExactMatrix
    a_star: ExactMatrix


@dataclass(frozen=True)
class LatticeDecomposition:
    n: int
    q: int
    field: Field
    counts: tuple[int, ...]
    components: tuple[LatticeComponent, ...]

    @property
    def total_subspaces(self) -> int:
        return sum(self.counts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for comp in self.components:
            out[comp.diameter] = out.get(comp.diameter, 0) + 1
        return out


def lattice_forbidden_set(lat: SubspaceLattice) -> list:
    """The payloads sqrt(q)^(n-1), sqrt(q)^(n-3), ..., sqrt(q)^(1-n)."""
    return uq_forbidden_set(lat.field, lat.n, _sqrt_q_setup(lat.q)[1])


def lattice_pair(
    lat: SubspaceLattice,
    alpha=1,
    beta=None,
) -> tuple[ExactMatrix, ExactMatrix, LatticeDecomposition]:
    """A = alpha R + K/(sqrt q - 1/sqrt q) and A* = beta L +
    K^(-1)/(sqrt q - 1/sqrt q), plus the decomposition into chains.

    The module is completely reducible (characteristic 0, sqrt q not a
    root of unity): for each grade k <= n/2 it holds counts[k] -
    counts[k-1] chains w_j = R^j w_0 of diameter n - 2k, each grown from
    a grade-k kernel vector w_0 of L.  On every chain of grade k the pair
    is the same split bidiagonal pair: A has its grades' K-weights over
    sqrt q - 1/sqrt q on the diagonal and alpha below it, A* the inverse
    weights on the diagonal and beta sqrt(q)^(1-n) c_j above it, with c_j
    from _lowering_scalars.  Each grade's pair is built once and
    certified by the parameter array on its bands (_split_array), in O(d)
    field operations, so a lattice validates n//2 + 1 arrays and
    decomposes no matrix.  alpha beta must avoid sqrt(q)^(n-1), ...,
    sqrt(q)^(1-n); beta defaults to q^n, which is always safe.
    """
    field = lat.field
    n, q = lat.n, lat.q
    alpha = field.coerce(alpha)
    beta = field.coerce(q**n if beta is None else beta)
    if field.is_zero(alpha) or field.is_zero(beta):
        raise GeneratorError("alpha and beta must be nonzero")
    product = field.mul(alpha, beta)
    if product in lattice_forbidden_set(lat):
        raise GeneratorError(
            "alpha * beta equals a forbidden power of sqrt(q); "
            "the chains degenerate"
        )
    _, sq = _sqrt_q_setup(q)
    den = field.inv(field.sub(sq, field.inv(sq)))
    counts = lat.counts
    diag = [field.mul(field.pow(sq, n - 2 * k), den) for k in range(n + 1)]
    diag_s = [field.mul(field.pow(sq, 2 * k - n), den) for k in range(n + 1)]
    super_pay = field.mul(beta, field.pow(sq, 1 - n))
    z = field.zero
    big_a = _grade_operator(field, lat.offsets, lat.covers, diag, alpha, z)
    big_s = _grade_operator(field, lat.offsets, lat.covers, diag_s, z, super_pay)
    components = []
    for k in range(n // 2 + 1):
        d_comp = n - 2 * k
        grades = slice(k, k + d_comp + 1)
        above = [field.mul(super_pay, field.from_int(c)) for c in _lowering_scalars(n, q, k)]
        a = ExactMatrix.diagonal(field, diag[grades], below=[alpha] * d_comp)
        a_star = ExactMatrix.diagonal(field, diag_s[grades], above=above)
        if _split_array(a, a_star) is None:
            raise InternalCheckError(
                f"grade-{k} component failed recognition: the array on its "
                f"bands is not valid, despite an allowed alpha * beta"
            )
        chains = counts[k] - (counts[k - 1] if k >= 1 else 0)
        components += [LatticeComponent(k, i, d_comp, a, a_star) for i in range(chains)]
    dim_sum = sum(c.diameter + 1 for c in components)
    if dim_sum != sum(counts):
        raise InternalCheckError(
            f"component dimensions sum to {dim_sum}, not {sum(counts)}"
        )
    decomposition = LatticeDecomposition(n, q, field, counts, tuple(components))
    return big_a, big_s, decomposition


def _split_array(a: ExactMatrix, a_star: ExactMatrix) -> "ParameterArray | None":
    """The parameter array of a lower bidiagonal A and an upper bidiagonal
    A* when the pair is a Leonard pair, else None.

    theta and theta* are the two diagonals and varphi_i = A_(i,i-1)
    A*_(i-1,i); phi comes from PA4, as in _complete_array.  When the array
    is valid, diag(1, A_10, A_10 A_21, ...) takes the pair to
    construct_bidiagonal's pair of that array, a Leonard pair by the
    classification theorem.  Conversely, span(e_0..e_i) is the sum of A*'s
    eigenspaces for theta*_0..theta*_i, and A maps it into the next such
    sum.  On a Leonard pair A links A*'s eigenspaces along a path, and
    linked ones must then sit next to each other in the diagonal's order,
    so that order is standard; so is theta's, by the same argument.  The
    pair with those orders is a Leonard system in split form, and the
    array read off is its parameter array.
    """
    field, d = a.field, a.n - 1
    theta = [a.rows[i][i] for i in range(d + 1)]
    theta_star = [a_star.rows[i][i] for i in range(d + 1)]
    varphi = [field.mul(a.rows[i][i - 1], a_star.rows[i - 1][i]) for i in range(1, d + 1)]
    if d and theta[0] == theta[d]:
        return None  # PA1 fails, and PA4 cannot be solved for phi
    seed = field.lift(varphi[:1])
    _, (rhs, den) = _split_rhs(field, field.lift(theta), field.lift(theta_star), (seed, seed))
    pa = ParameterArray(field, theta, theta_star, varphi, field.quotients(rhs, den))
    return pa if validate(pa).valid else None


def _lowering_scalars(n: int, q: int, k: int) -> list[int]:
    """c_1, ..., c_(n-2k) with L' w_j = c_j w_(j-1) on a grade-k chain,
    where L' = sqrt(q)^(n-1) L sends a vertex to the sum of those it covers.

    On grade m the relation LR - RL = (K - K^-1)/(sqrt q - 1/sqrt q) that
    build_lattice certifies reads L'R - RL' = [n-m]_q - [m]_q, with
    [m]_q = (q^m - 1)/(q - 1).  As L' w_0 = 0 and w_j = R w_(j-1),
    c_j = sum over t < j of [n-k-t]_q - [k+t]_q.
    """
    def bracket(m: int) -> int:
        return (q**m - 1) // (q - 1)

    out, c = [], 0
    for t in range(n - 2 * k):
        c += bracket(n - k - t) - bracket(k + t)
        out.append(c)
    return out


RANDOM_ARRAY_DRAWS = 500
DISTINCT_DRAWS = 60


def random_parameter_array(field: Field, d: int, rng) -> ParameterArray:
    """A valid parameter array drawn from the direct construction: shared
    three-term ratio for the eigenvalue sequences, free phi_1, rejection on
    the nonvanishing axiom."""
    if d < 0:
        raise GeneratorError("diameter must be nonnegative")
    for _ in range(RANDOM_ARRAY_DRAWS):
        if d <= 2:
            theta = _distinct(field, rng, d + 1)
            theta_star = _distinct(field, rng, d + 1)
        else:
            r = field.random_element(rng).payload
            theta = _recurrence(field, _distinct(field, rng, 3), r, d)
            theta_star = _recurrence(field, _distinct(field, rng, 3), r, d)
        if theta is None or theta_star is None:
            continue
        phi1 = field.random_element(rng).payload
        if field.is_zero(phi1):
            continue
        candidate = _complete_array(field, theta, theta_star, phi1)
        if candidate is not None and validate(candidate).valid:
            return candidate
    raise GeneratorError(
        f"no valid parameter array of diameter {d} over {field.name} "
        f"after {RANDOM_ARRAY_DRAWS} draws"
    )


def _distinct(field: Field, rng, count: int):
    for _ in range(DISTINCT_DRAWS):
        values = [field.random_element(rng).payload for _ in range(count)]
        if len(set(values)) == count:  # payloads are canonical
            return values
    return None


def _recurrence(field: Field, starts, r, d: int):
    if starts is None:
        return None
    seq = list(starts)
    while len(seq) < d + 1:
        seq.append(field.sub(seq[-3], field.mul(r, field.sub(seq[-2], seq[-1]))))
    seq = seq[: d + 1]
    if len(set(seq)) != len(seq):
        return None
    return seq


def _complete_array(field: Field, theta, theta_star, phi1):
    """The array with these eigenvalue sequences and phi_1: varphi from the
    PA3 right-hand sides and phi from those of PA4, lowered once per entry.
    None when a split value vanishes (PA2)."""
    theta = [field.coerce(v) for v in theta]
    theta_star = [field.coerce(v) for v in theta_star]
    d = len(theta) - 1
    if d == 0:
        return ParameterArray(field, theta, theta_star, [], [])
    phi1 = field.coerce(phi1)
    # PA4 reads varphi_1, which is PA3 at i = 1, where S_1 = 1
    varphi1 = field.add(
        phi1, field.mul(field.sub(theta_star[1], theta_star[0]), field.sub(theta[0], theta[d]))
    )
    seeds = (field.lift([phi1]), field.lift([varphi1]))
    varphi, phi = (
        field.quotients(*side)
        for side in _split_rhs(field, field.lift(theta), field.lift(theta_star), seeds)
    )
    if any(field.is_zero(v) for v in varphi + phi):
        return None
    return ParameterArray(field, theta, theta_star, varphi, phi)


NONEXAMPLE_KINDS = ("repeated-eigenvalue", "reducible", "one-sided", "defective")


def random_nonexample(field: Field, n: int, rng, kind: "str | None" = None):
    """A pair certified not to be a Leonard pair, dressed by conjugation.

    Every kind fails for a structural reason that conjugation cannot cure:
    a repeated dual eigenvalue, a disconnected support, a one-directional
    support, or a defective (nondiagonalizable) member.
    """
    if n < 2:
        raise GeneratorError("non-examples need size at least 2")
    if kind is None:
        kind = NONEXAMPLE_KINDS[rng.randrange(len(NONEXAMPLE_KINDS))]
    if kind not in NONEXAMPLE_KINDS:
        raise GeneratorError(f"unknown non-example kind {kind!r}")

    diag = _structural_scalars(field, n, rng)
    ones = [field.one] * (n - 1)
    dual = diag
    if kind == "repeated-eigenvalue":
        a = ExactMatrix.diagonal(field, diag, below=ones, above=ones)
        dual = diag[:-1] + diag[:1]
    elif kind == "reducible":
        cut = rng.randrange(1, n - 1) if n > 2 else 1
        band = [field.zero if i + 1 == cut else field.one for i in range(n - 1)]
        a = ExactMatrix.diagonal(field, diag, below=band, above=band)
    elif kind == "one-sided":
        a = ExactMatrix.diagonal(field, diag, below=ones)
    else:  # defective
        a = ExactMatrix.diagonal(field, [diag[0]] * n, above=ones)
    a_star = ExactMatrix.diagonal(field, dual)

    g = _random_invertible(field, n, rng)
    g_inv = inverse(g)
    return g_inv @ a @ g, g_inv @ a_star @ g, kind


def _structural_scalars(field: Field, n: int, rng):
    """Distinct scalars from the prime subfield, so characteristic
    polynomials stay inside the decidable root-finding fragment."""
    p = field.characteristic()
    if p:
        if n > p:
            raise GeneratorError(f"{field.name} has only {p} prime-subfield scalars")
        values = rng.sample(range(p), n)
    else:
        values = rng.sample(range(-3 * n, 3 * n + 1), n)
    return [field.from_int(v) for v in values]


def _random_invertible(field: Field, n: int, rng) -> ExactMatrix:
    low = [[field.zero] * n for _ in range(n)]
    up = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = field.one
        up[i][i] = field.one
        for j in range(i):
            low[i][j] = field.random_element(rng).payload
            up[j][i] = field.random_element(rng).payload
    return ExactMatrix._raw(field, low) @ ExactMatrix._raw(field, up)


__all__ = [
    "LatticeComponent",
    "LatticeDecomposition",
    "MAX_LATTICE_SUBSPACES",
    "NONEXAMPLE_KINDS",
    "Sl2Module",
    "SubspaceLattice",
    "UqModule",
    "build_lattice",
    "example2",
    "gaussian_binomial",
    "lattice_forbidden_set",
    "lattice_pair",
    "random_nonexample",
    "random_parameter_array",
    "sl2_module",
    "sl2_pair",
    "uq_forbidden_set",
    "uq_module",
    "uq_pair",
]
