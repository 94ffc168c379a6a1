"""Slow, direct reference computations that the library's fast paths are
checked against.

joint_intertwiner_basis solves X G = G Y for every pair at once as one
dense n^2 x n^2 kernel.  split_basis builds a system's split basis, and
split_walk_array extracts its parameter array by the paper's definition,
reading both split sequences off A* in the two split bases.  The two
roundtrip oracles decide verification_report's cross-checks the direct
way: recognise the construction again with the orderings it was built in
and extract its parameter array by the split walk.  lattice_chains walks
every irreducible chain of a subspace lattice by hand, against which the
closed-form chain pairs of lattice_pair are checked; pairwise_covers
finds its covers by a containment test on every pair of adjacent grades,
graded_operators spells a graded module (a lattice, or a uq module with
one vertex per grade) out as dense k, e and f, and
dense_quantum_relations checks the U_q(sl2) relations on those grids,
the references for build_lattice's covers by extension and for the
counts that _verify_graded_relations walks; dense_sl2_relations checks
the sl2 relations by six dense products, the reference for the same walk
on sl2 modules.  rref_lattice enumerates each grade's RREF subspaces by
pivot columns and free entries, the reference for build_lattice's
grades read off its cover pass.  tiny_tables multiplies every pair of
GF(q) elements by _mulmod and scans the sums for each negative, the
reference for _TinyField's tables by the powers of a generator.
solve_linear and nullspace are the tri-state solve and kernel basis on an
ExactMatrix.
triangular_eigen decomposes a triangular matrix through its
characteristic polynomial, one kernel per eigenvalue and an inverse, the
general path that is_multiplicity_free's substitution on the triangle
is checked against.
split_rhs and evaluate_axioms check PA1-PA5 on payloads, normalising
every step, the references for validate's check on integer images.
classify_beta_by_roots finds q as a root of x^2 - beta x + 1 through the
general root finder, the reference for classify_beta's quadratic
formula.
askey_wilson_residuals and check_converse_preconditions are the converse
direction: the two relations' left-hand sides under a fit, and the
hypotheses (a unique fit, both matrices multiplicity-free, q not a root
of unity) under which the relations force a Leonard pair.

Every kernel and solve here runs on payloads, by unit-pivot elimination
(echelon) and back-substitution (back_substitute), and shares nothing
with the library's integer kernel: nullspace_grid and solve_grid are the
references that _nullspace_grid and _solve_grid are checked against.
"""

import itertools
from dataclasses import dataclass

from leonardpairs.errors import (
    DegenerateSplitError,
    FieldMismatchError,
    InternalCheckError,
    LeonardPairsError,
)
from leonardpairs.leonard import (
    AW_COEFFICIENT_NAMES,
    AskeyWilsonFit,
    LeonardSystem,
    _askey_wilson_relations,
    _residual,
    _structural_check,
    fit_askey_wilson,
    system_from_bidiagonal_pair,
    system_from_pair_with_orderings,
)
from leonardpairs.field import (
    ExactPolynomial,
    Field,
    FieldElement,
    QuadraticExtension,
    Rationals,
    _mulmod,
    roots_in_field,
    squarefree_part,
    verify_root_multiset,
)
from leonardpairs.generators import _TINY_MODULI, _extensions, _sqrt_q_setup, _TinyField
from leonardpairs.matrix import (
    EigenData,
    ExactMatrix,
    MultiplicityFreeResult,
    _is_invertible,
    _nullspace_grid,
    char_poly,
    inverse,
    is_multiplicity_free,
)
from leonardpairs.parray import (
    FAMILY_BANNAI_ITO,
    FAMILY_CHAR2,
    FAMILY_CLASSICAL,
    FAMILY_Q_TYPE,
    AxiomStatus,
    ClassificationFingerprint,
    ParameterArray,
    ValidityReport,
    validate,
)


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
    basis = nullspace_grid(field, rows)
    return [
        ExactMatrix._raw(field, [vec[i * n : (i + 1) * n] for i in range(n)])
        for vec in basis
    ]


def split_basis(system: LeonardSystem, *, reverse_theta: bool = False) -> ExactMatrix:
    """Columns u_i = (A - theta_{i-1} I) ... (A - theta_0 I) xi.

    xi is the theta*_0 eigenvector of A*, which spans the image of E*_0;
    its leading coordinate is 1, which makes the basis deterministic.  In
    this basis A is lower bidiagonal with subdiagonal 1 and A* is upper
    bidiagonal; passing reverse_theta walks the thetas backwards, which
    swaps the two split sequences.
    """
    field = system.field
    n = system.d + 1
    theta = tuple(reversed(system.theta)) if reverse_theta else system.theta
    cols = [list(system.dual_eigen.eigenvectors.column(0))]
    for i in range(n - 1):
        nxt = _shifted_apply(system.a, theta[i], cols[-1])
        if all(field.is_zero(v) for v in nxt):
            raise DegenerateSplitError(f"split vector u_{i + 1} vanishes")
        cols.append(nxt)
    return ExactMatrix._raw(field, zip(*cols))


def _shifted_apply(x: ExactMatrix, shift, vector) -> list:
    """(X - shift I) vector."""
    f = x.field
    return [f.sub(v, f.mul(shift, w)) for v, w in zip(x.apply(vector), vector)]


def split_superdiagonal(system, *, reverse_theta: bool) -> list:
    """The superdiagonal phi of A* in the split basis u_0, ..., u_d.

    A u_i = theta_i u_i + u_{i+1} holds for i < d by construction, so the
    split form is certified by three exact checks: the u_i are independent
    (full rank on forward elimination), (A - theta_d I) u_d = 0, and
    A* u_i - theta*_i u_i = phi_i u_{i-1} for each i (0 for i = 0), which
    is also where phi_i is read.
    """
    field = system.field
    n = system.d + 1
    theta = tuple(reversed(system.theta)) if reverse_theta else system.theta
    s = split_basis(system, reverse_theta=reverse_theta)
    if not _is_invertible(s):
        raise DegenerateSplitError("split basis is singular")
    cols = [s.column(i) for i in range(n)]
    if any(not field.is_zero(v) for v in _shifted_apply(system.a, theta[-1], cols[-1])):
        raise DegenerateSplitError(
            f"split form of A: A u_{n - 1} != theta_{n - 1} u_{n - 1}"
        )
    phi = []
    for i in range(n):
        rest = _shifted_apply(system.a_star, system.theta_star[i], cols[i])
        if i == 0:
            want = [field.zero] * n
        else:
            prev = cols[i - 1]
            lead = next(k for k, v in enumerate(prev) if not field.is_zero(v))
            phi.append(field.div(rest[lead], prev[lead]))
            want = [field.mul(phi[-1], v) for v in prev]
        if rest != want:
            raise DegenerateSplitError(
                f"split form of A* is not upper bidiagonal with diagonal theta* "
                f"(column {i})"
            )
    return phi


def split_walk_array(system) -> ParameterArray:
    """A system's parameter array: varphi is the superdiagonal of A* in
    the split basis, and phi the same reading with theta reversed."""
    pa = ParameterArray(
        system.field,
        system.theta,
        system.theta_star,
        split_superdiagonal(system, reverse_theta=False),
        split_superdiagonal(system, reverse_theta=True),
    )
    report = validate(pa)
    if not report.valid:
        raise InternalCheckError(
            "extracted data violates the parameter array axioms: "
            + ", ".join(report.failing())
        )
    return pa


def bidiagonal_roundtrip(pa, b, b_star) -> bool:
    """Whether the system of the bidiagonal (B, B*), ordered by their
    diagonals, has the array pa; False where there is no such system."""
    try:
        return split_walk_array(system_from_bidiagonal_pair(b, b_star)) == pa
    except (LeonardPairsError, ValueError):
        return False


def tridiagonal_roundtrip(pa, t, t_star) -> bool:
    """Whether the system of (T, T*) with pa's orderings has the array pa;
    False where there is no such system."""
    try:
        system = system_from_pair_with_orderings(t, t_star, pa.theta, pa.theta_star)
        return split_walk_array(system) == pa
    except (LeonardPairsError, ValueError):
        return False


def subtract_multiple(f, row, lead, factor, start):
    row[start:] = [
        v if f.is_zero(w) else f.sub(v, f.mul(factor, w))
        for v, w in zip(row[start:], lead[start:])
    ]


def echelon(f, grid) -> tuple[list, list]:
    """Row echelon form of a payload grid by unit-pivot elimination with
    first-nonzero pivoting; returns the rows and the pivot columns."""
    rows = [list(r) for r in grid]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if not f.is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r]
        inv = f.inv(lead[c])
        lead[c:] = [v if f.is_zero(v) else f.mul(inv, v) for v in lead[c:]]
        for i in range(r + 1, nrows):
            if not f.is_zero(rows[i][c]):
                subtract_multiple(f, rows[i], lead, rows[i][c], c)
        pivots.append(c)
        r += 1
    return rows, pivots


def back_substitute(field: Field, rows, pivots: list[int], x: list) -> list:
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


def nullspace_grid(field: Field, grid) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column in
    increasing order: that coordinate 1, the other free ones 0, the pivot
    ones back-substituted, then scaled to leading coordinate 1."""
    ncols = len(grid[0])
    rows, pivots = echelon(field, grid)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        back_substitute(field, rows, pivots, vec)
        lead = next(v for v in vec if not field.is_zero(v))
        basis.append(tuple(v if field.is_zero(v) else field.div(v, lead) for v in vec))
    return basis


def solve_grid(field: Field, rows, rhs) -> "tuple[list, int] | None":
    """(x, nullity) for rows @ x = rhs with every free variable zero, or
    None when the system is inconsistent."""
    width = len(rows[0])
    rows, pivots = echelon(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == width:
        return None
    x = back_substitute(field, rows, pivots, [field.zero] * width)
    return x, width - len(pivots)


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
    deterministic normalization as nullspace_grid.
    """
    field = matrix.field
    n = matrix.n
    b = [field.coerce(v) for v in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side has length {len(b)}, expected {n}")
    solved = solve_grid(field, matrix.rows, b)
    if solved is None:
        return LinearSolution("inconsistent", None, ())
    x, nullity = solved
    solution = tuple(FieldElement(field, v) for v in x)
    if nullity == 0:
        return LinearSolution("unique", solution, ())
    basis = nullspace_grid(field, matrix.rows)
    wrapped = tuple(tuple(FieldElement(field, v) for v in vec) for vec in basis)
    return LinearSolution("underdetermined", solution, wrapped)


def nullspace(matrix: ExactMatrix) -> list[tuple[FieldElement, ...]]:
    """Deterministic basis of the kernel of matrix."""
    basis = nullspace_grid(matrix.field, [list(row) for row in matrix.rows])
    return [tuple(FieldElement(matrix.field, v) for v in vec) for vec in basis]


def triangular_eigen(matrix: ExactMatrix) -> MultiplicityFreeResult:
    """is_multiplicity_free on a triangular matrix by the general path: the
    diagonal certified as the spectrum by deflating char_poly, the kernel
    of M - theta I for each eigenvalue in shortlex order, and inverse."""
    field = matrix.field
    diagonal = [row[i] for i, row in enumerate(matrix.rows)]
    mults = verify_root_multiset(char_poly(matrix), diagonal)
    if mults is None:
        raise InternalCheckError("triangular diagonal must exhaust the spectrum")
    for payload, mult in mults:
        if mult > 1:
            reason = f"eigenvalue {field.serialize(payload)} has multiplicity {mult}"
            return MultiplicityFreeResult(False, None, reason)
    eigenvalues = [payload for payload, _ in mults]
    columns = []
    for theta in eigenvalues:
        (vector,) = _nullspace_grid(field, matrix.add_scalar_diagonal(field.neg(theta)).rows)
        columns.append(vector)
    p = ExactMatrix._raw(field, zip(*columns))
    eigen = EigenData(tuple(FieldElement(field, v) for v in eigenvalues), p, inverse(p))
    return MultiplicityFreeResult(True, eigen, None)


def split_rhs(field: Field, theta, theta_star, seed) -> list:
    """The d right-hand sides of PA3, varphi_1..varphi_d given phi_1 = seed,
    on payloads: S_i normalised at every step through one inverse of
    theta_0 - theta_d.  Passing theta reversed gives those of PA4, phi_1..phi_d
    given varphi_1 = seed."""
    d = len(theta) - 1
    if d == 0:
        return []
    scale = field.mul(seed, field.inv(field.sub(theta[0], theta[d])))
    acc = field.zero
    out = []
    for i in range(1, d + 1):
        acc = field.add(acc, field.sub(theta[i - 1], theta[d - i + 1]))
        out.append(
            field.add(
                field.mul(scale, acc),
                field.mul(
                    field.sub(theta_star[i], theta_star[0]),
                    field.sub(theta[i - 1], theta[d]),
                ),
            )
        )
    return out


def evaluate_axioms(pa: ParameterArray) -> ValidityReport:
    """PA1-PA5 on payloads: PA1 by serialized keys, PA3 and PA4 against
    split_rhs, PA5 by dividing every ratio."""
    f = pa.field
    d = pa.d

    def status(name, fail):
        if fail is None:
            return AxiomStatus(name, True)
        return AxiomStatus(name, False, first_failure=fail[0], detail=fail[1])

    def distinctness(values, label):
        seen = {}
        for i, v in enumerate(values):
            key = f.serialize(v)
            if key in seen:
                return i, f"{label}[{seen[key]}] == {label}[{i}] == {key}"
            seen[key] = i
        return None

    def first_mismatch(values, rhs):
        for i, (v, want) in enumerate(zip(values, rhs), start=1):
            if v != want:
                return i, f"index {i}: {f.serialize(v)} != {f.serialize(want)}"
        return None

    pa1 = status(
        "PA1", distinctness(pa.theta, "theta") or distinctness(pa.theta_star, "theta*")
    )
    pa2_fail = None
    for i in range(d):
        if f.is_zero(pa.varphi[i]):
            pa2_fail = (i + 1, f"varphi_{i + 1} == 0")
            break
        if f.is_zero(pa.phi[i]):
            pa2_fail = (i + 1, f"phi_{i + 1} == 0")
            break
    pa2 = status("PA2", pa2_fail)
    if not pa1.passed:
        return ValidityReport(
            (pa1, pa2)
            + tuple(
                AxiomStatus(name, False, evaluated=False, detail="not evaluated: PA1 failed")
                for name in ("PA3", "PA4", "PA5")
            )
        )
    phi1, varphi1 = (pa.phi[0], pa.varphi[0]) if d >= 1 else (f.zero, f.zero)
    pa3 = status("PA3", first_mismatch(pa.varphi, split_rhs(f, pa.theta, pa.theta_star, phi1)))
    pa4 = status(
        "PA4", first_mismatch(pa.phi, split_rhs(f, pa.theta[::-1], pa.theta_star, varphi1))
    )
    pa5_fail = None
    ratio = None
    for i in range(2, d):
        r = f.div(f.sub(pa.theta[i - 2], pa.theta[i + 1]), f.sub(pa.theta[i - 1], pa.theta[i]))
        r_star = f.div(
            f.sub(pa.theta_star[i - 2], pa.theta_star[i + 1]),
            f.sub(pa.theta_star[i - 1], pa.theta_star[i]),
        )
        if r != r_star:
            pa5_fail = (i, f"index {i}: ratio {f.serialize(r)} != dual ratio {f.serialize(r_star)}")
            break
        if ratio is None:
            ratio = r
        elif r != ratio:
            pa5_fail = (
                i,
                f"index {i}: ratio {f.serialize(r)} != ratio {f.serialize(ratio)} at index 2",
            )
            break
    return ValidityReport((pa1, pa2, pa3, pa4, status("PA5", pa5_fail)))


@dataclass(frozen=True)
class LatticeChain:
    """One walked chain: the grade of its lowest vector, the chain vectors
    w_j = R^j w_0 in grade-sorted vertex coordinates, and the scalars c_j
    with L' w_j = c_j w_(j-1), L' the lowering map without its
    sqrt(q)^(1-n); all rational payloads."""

    grade: int
    basis: tuple[tuple, ...]
    coefficients: tuple


def lattice_chains(lat) -> list[LatticeChain]:
    """Every irreducible chain of the lattice module, found by hand.

    For each grade k <= n/2 the lowest vectors are a basis of the kernel
    of L' on grade k, from the incidence grid of grades k-1 and k; R walks
    each up to its top and must vanish just above it, and L' must act on
    it by one scalar per step, checked entrywise.
    """
    q_rat = Rationals()
    n, counts = lat.n, lat.counts
    chains = []
    for k in range(n // 2 + 1):
        d_comp = n - 2 * k
        if k == 0:
            kernel = [[q_rat.one]]
        else:
            rows = [[q_rat.zero] * counts[k] for _ in range(counts[k - 1])]
            for j_low in range(counts[k - 1]):
                for j_up in lat.covers[k - 1][j_low]:
                    rows[j_low][j_up] = q_rat.one
            kernel = nullspace_grid(q_rat, rows)
        expected = counts[k] - (counts[k - 1] if k >= 1 else 0)
        if len(kernel) != expected:
            raise InternalCheckError(
                f"grade {k} kernel has dimension {len(kernel)}, expected {expected}"
            )
        for low in kernel:
            chain = [list(low)]
            # R walks the chain up; above its top it must vanish, and the
            # top grade n has no covers to walk
            for here in range(k, min(k + d_comp + 1, n)):
                nxt = _raise(q_rat, chain[-1], lat.covers[here], counts[here + 1])
                nonzero = any(not q_rat.is_zero(v) for v in nxt)
                if here == k + d_comp:
                    if nonzero:
                        raise InternalCheckError("R does not kill the top of the chain")
                elif not nonzero:
                    raise InternalCheckError("chain ended before its diameter")
                else:
                    chain.append(nxt)
            c_raw = _lowering_coefficients(q_rat, chain, lat.covers, k, counts)
            basis = tuple(
                _embed(q_rat, vec, k + j, counts) for j, vec in enumerate(chain)
            )
            chains.append(LatticeChain(k, basis, tuple(c_raw)))
    return chains


def _raise(q_rat, vec, covers_k, size: int) -> list:
    """R on a grade-k vector: each coefficient added to each cover."""
    out = [q_rat.zero] * size
    for col, coeff in enumerate(vec):
        if q_rat.is_zero(coeff):
            continue
        for target in covers_k[col]:
            out[target] = q_rat.add(out[target], coeff)
    return out


def _lowering_coefficients(q_rat, chain, covers, k, counts):
    """c_j with (unscaled lowering) w_j = c_j w_{j-1}, verified entrywise."""
    out = []
    for j in range(1, len(chain)):
        here = k + j
        image = [q_rat.zero] * counts[here - 1]
        for j_low in range(counts[here - 1]):
            acc = q_rat.zero
            for j_up in covers[here - 1][j_low]:
                acc = q_rat.add(acc, chain[j][j_up])
            image[j_low] = acc
        prev = chain[j - 1]
        lead = next(i for i, v in enumerate(prev) if not q_rat.is_zero(v))
        c = q_rat.div(image[lead], prev[lead])
        for a, b in zip(image, prev):
            if a != q_rat.mul(c, b):
                raise InternalCheckError("L does not act by a scalar on the chain")
        out.append(c)
    return out


def _embed(q_rat, vec, grade, counts):
    out = []
    for k, size in enumerate(counts):
        out.extend(vec if k == grade else [q_rat.zero] * size)
    return tuple(out)


def contains(big, small, tiny: _TinyField) -> bool:
    """Whether span(small) <= span(big), both in RREF."""
    pivots = [next(c for c, v in enumerate(row) if v) for row in big]
    for row in small:
        vec = list(row)
        for prow, pc in zip(big, pivots):
            coeff = vec[pc]
            if coeff:
                for j, b in enumerate(prow):
                    vec[j] = tiny.add_table[vec[j]][tiny.neg_table[tiny.mul_table[coeff][b]]]
        if any(vec):
            return False
    return True


def pairwise_covers(lat) -> tuple:
    """The lattice's covers by testing containment on every pair of
    adjacent grades, in build_lattice's layout."""
    tiny = _TinyField(lat.q)
    return tuple(
        tuple(
            tuple(i for i, up in enumerate(lat.grades[k + 1]) if contains(up, x, tiny))
            for x in lat.grades[k]
        )
        for k in range(lat.n)
    )


def tiny_tables(tiny: _TinyField) -> tuple[list, list]:
    """GF(q)'s product and negation tables the direct way: _mulmod on each
    pair of digit vectors, and each negative found among the sums."""
    q, p = tiny.q, tiny.p
    modulus = (0, 1) if tiny.k == 1 else _TINY_MODULI[q]
    digits = [tiny._digits(a) for a in range(q)]
    mul = [
        [tiny._undigits(_mulmod(digits[a], digits[b], modulus, p)) for b in range(q)]
        for a in range(q)
    ]
    neg = [next(b for b in range(q) if tiny.add_table[a][b] == 0) for a in range(q)]
    return mul, neg


def rref_subspaces(n: int, dim: int, q: int):
    """All dim-dimensional subspaces of GF(q)^n as RREF row tuples, by
    pivot columns and then by the free entries, row by row."""
    if dim == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), dim):
        free = [
            (r, c)
            for r in range(dim)
            for c in range(n)
            if c > pivots[r] and c not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def rref_lattice(n: int, q: int) -> tuple[tuple, tuple]:
    """The grades of GF(q)^n from rref_subspaces, and each subspace's
    covers among them, found by extension, in build_lattice's layout."""
    tiny = _TinyField(q)
    grades = tuple(tuple(rref_subspaces(n, k, q)) for k in range(n + 1))
    covers = []
    for k in range(n):
        index = {up: i for i, up in enumerate(grades[k + 1])}
        covers.append(tuple(
            tuple(sorted(index[up] for up in _extensions(x, n, tiny))) for x in grades[k]
        ))
    return grades, tuple(covers)


def lattice_relation_args(lat) -> list:
    """The graded module build_lattice certifies, as the argument list of
    generators._verify_quantum_relations: K, L and R in the roles of k, e
    and f."""
    field, (_, sq) = lat.field, _sqrt_q_setup(lat.q)
    n = lat.n
    return [
        field,
        sq,
        lat.counts,
        list(lat.covers),
        [field.pow(sq, n - 2 * k) for k in range(n + 1)],
        [field.pow(sq, 1 - n)] * n,
        [field.one] * n,
    ]


def graded_operators(field, counts, covers, weights, e, f) -> tuple:
    """Dense k, e and f of a graded module on its vertices in grade order:
    k scales grade g by weights[g], f adds f[g] from a grade-g vertex to
    each of its covers, e adds e[g] from a cover back to the vertex."""
    offsets = [0]
    for m in counts:
        offsets.append(offsets[-1] + m)
    total = offsets[-1]
    grids = [[[field.zero] * total for _ in range(total)] for _ in range(3)]
    k_rows, e_rows, f_rows = grids
    for g, m in enumerate(counts):
        for x in range(m):
            i = offsets[g] + x
            k_rows[i][i] = weights[g]
            for y in covers[g][x] if g < len(covers) else ():
                j = offsets[g + 1] + y
                f_rows[j][i] = field.add(f_rows[j][i], f[g])
                e_rows[i][j] = field.add(e_rows[i][j], e[g])
    return tuple(ExactMatrix._raw(field, rows) for rows in grids)


def lattice_operators(lat) -> tuple:
    """The lattice's K, R and L as dense grids."""
    field, _, counts, covers, weights, e, f = lattice_relation_args(lat)
    k_op, l_op, r_op = graded_operators(field, counts, covers, weights, e, f)
    return k_op, r_op, l_op


def dense_quantum_relations(k, e, f, q, k_inv=None) -> None:
    """Check ke = q^2 ek, kf = q^-2 fk and ef - fe = (k - k^-1)/(q - 1/q)
    on dense grids, for an invertible diagonal k; and k_inv = k^-1 when
    given.  The bracket compares the rows of the products ef and fe."""
    field = k.field
    weights = [row[i] for i, row in enumerate(k.rows)]
    if k != ExactMatrix.diagonal(field, weights) or any(field.is_zero(w) for w in weights):
        raise InternalCheckError("k is not an invertible diagonal matrix")
    inverses = [field.inv(w) for w in weights]
    if k_inv is not None and k_inv != ExactMatrix.diagonal(field, inverses):
        raise InternalCheckError("k k^-1 = 1 fails")
    qsq = field.mul(q, q)
    for name, x, c in (("ke = q^2 ek", e, qsq), ("kf = q^-2 fk", f, field.inv(qsq))):
        for i, row in enumerate(x.rows):
            if any(
                weights[i] != field.mul(c, weights[j])
                for j, v in enumerate(row)
                if not field.is_zero(v)
            ):
                raise InternalCheckError(f"{name} fails")
    den = field.inv(field.sub(q, field.inv(q)))
    for i, (ef_row, fe_row) in enumerate(zip((e @ f).rows, (f @ e).rows)):
        bracket = field.mul(field.sub(weights[i], inverses[i]), den)
        if (
            ef_row[:i] != fe_row[:i]
            or ef_row[i + 1:] != fe_row[i + 1:]
            or field.sub(ef_row[i], fe_row[i]) != bracket
        ):
            raise InternalCheckError("ef - fe = (k - k^-1)/(q - 1/q) fails")


def dense_sl2_relations(e: ExactMatrix, f: ExactMatrix, h: ExactMatrix) -> None:
    """Check he - eh = 2e, hf - fh = -2f and ef - fe = h by six dense
    products."""
    field = h.field
    checks = (
        (h @ e - e @ h, e.scale(field.from_int(2))),
        (h @ f - f @ h, f.scale(field.from_int(-2))),
        (e @ f - f @ e, h),
    )
    for got, want in checks:
        if got != want:
            raise InternalCheckError("bracket relations fail on the module")


def classify_beta_by_roots(field: Field, beta) -> ClassificationFingerprint:
    """classify_beta with q found by roots_in_field: in the base field,
    else over Q inside Q(sqrt D) with beta^2 - 4 = D t^2, else by its
    minimal polynomial."""
    b = field.coerce(beta)
    beta_elem = FieldElement(field, b)
    r_elem = FieldElement(field, field.add(b, field.one))
    if field.characteristic() == 2 and field.is_zero(b):
        return ClassificationFingerprint(FAMILY_CHAR2, beta_elem, r_elem)
    if b == field.from_int(2):
        return ClassificationFingerprint(FAMILY_CLASSICAL, beta_elem, r_elem)
    if b == field.from_int(-2):
        return ClassificationFingerprint(FAMILY_BANNAI_ITO, beta_elem, r_elem)
    quadratic = ExactPolynomial(field, [field.one, field.neg(b), field.one])
    roots = roots_in_field(quadratic)
    if roots:
        q = min((root for root, _ in roots), key=lambda e: e.sort_key())
        return ClassificationFingerprint(FAMILY_Q_TYPE, beta_elem, r_elem, q=q)
    if isinstance(field, Rationals):
        disc = b * b - 4
        ext = QuadraticExtension(squarefree_part(disc.numerator * disc.denominator))
        roots_ext = roots_in_field(ExactPolynomial(ext, [1, -b, 1]))
        if not roots_ext:
            raise InternalCheckError(f"x^2 - beta x + 1 does not split over {ext.name}")
        return ClassificationFingerprint(
            FAMILY_Q_TYPE, beta_elem, r_elem, q=roots_ext[0][0], q_field=ext
        )
    return ClassificationFingerprint(
        FAMILY_Q_TYPE, beta_elem, r_elem, q_minimal_poly=quadratic
    )


def askey_wilson_residuals(
    a: ExactMatrix, a_star: ExactMatrix, fit: AskeyWilsonFit
) -> tuple[ExactMatrix, ExactMatrix]:
    """The two relation left-hand sides under the given coefficients."""
    if fit.coefficients is None:
        raise ValueError("fit carries no coefficients")
    values = [fit.coefficients[name].payload for name in AW_COEFFICIENT_NAMES]
    res1, res2 = (
        _residual(mats, target, values)
        for mats, target in _askey_wilson_relations(a, a_star)
    )
    return res1, res2


def _root_of_unity_betas(field: Field) -> "set | None":
    """Payloads beta = q + 1/q with q a root of unity in fields of
    characteristic zero; None for finite fields (where every nonzero q
    qualifies)."""
    if field.characteristic() != 0:
        return None
    core = {field.from_int(v) for v in (-2, -1, 0, 1, 2)}
    m = getattr(field, "m", None)
    if m in (2, 3):
        core.update(field.coerce(s) for s in ("s", "-s"))
    elif m == 5:
        core.update(
            field.coerce(s)
            for s in ("1/2+1/2*s", "1/2-1/2*s", "-1/2+1/2*s", "-1/2-1/2*s")
        )
    return core


@dataclass(frozen=True)
class ConverseReport:
    """Sufficient-condition check for the converse direction.

    When every flag is true the relations force (A, A*) to be a Leonard
    pair; a false flag only means this criterion is silent.
    """

    relations_hold: bool
    unique_fit: bool
    multiplicity_free_a: bool
    multiplicity_free_a_star: bool
    q_not_root_of_unity: "bool | None"
    conclusive: bool
    notes: tuple[str, ...]
    fit: "AskeyWilsonFit | None" = None


def check_converse_preconditions(a: ExactMatrix, a_star: ExactMatrix) -> ConverseReport:
    """Check the hypotheses under which the relations imply a Leonard pair:
    a unique coefficient fit, both matrices multiplicity-free, and the
    quantum parameter attached to beta not a root of unity."""
    field = _structural_check(a, a_star)
    notes = []
    fit = fit_askey_wilson(a, a_star)
    if not fit.found:
        notes.append("the pair satisfies no Askey-Wilson relations")
    elif not fit.unique:
        notes.append(
            f"the coefficient fit has {fit.nullity} degrees of freedom, "
            "so beta is not pinned down"
        )
    mf_a = bool(is_multiplicity_free(a))
    mf_star = bool(is_multiplicity_free(a_star))
    if not mf_a:
        notes.append("A is not multiplicity-free")
    if not mf_star:
        notes.append("A* is not multiplicity-free")

    q_ok: "bool | None" = None
    if fit.found and fit.unique:
        bad = _root_of_unity_betas(field)
        if bad is None:
            q_ok = False
            notes.append(
                "every nonzero element of a finite field is a root of unity, "
                "so the root-of-unity hypothesis cannot hold"
            )
        elif fit.beta.payload in bad:
            q_ok = False
            notes.append(
                f"beta = {fit.beta} makes x^2 - beta x + 1 a cyclotomic factor, "
                "so q is a root of unity"
            )
        else:
            q_ok = True

    conclusive = bool(fit.found and fit.unique and mf_a and mf_star and q_ok)
    return ConverseReport(
        fit.found,
        fit.unique,
        mf_a,
        mf_star,
        q_ok,
        conclusive,
        tuple(notes),
        fit,
    )
