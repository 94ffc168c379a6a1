"""Leonard pairs: recognition, systems, extraction, Askey-Wilson fits.

A square pair (A, A*) over one exact field is a Leonard pair when each
matrix is multiplicity-free and acts irreducibly tridiagonally on the
eigenspace chain of the other for some ordering of those eigenspaces.  A
Leonard system fixes both orderings.  Recognition finds every admissible
ordering (at most two per side, so at most four systems) by reading the
nonzero pattern of P^-1 X P, where P holds the eigenvectors of the other
matrix: E_i X E_j is nonzero exactly when entry (i, j) is.  The pattern
must be a Hamiltonian path with both directions present on every edge.
A system with prescribed orderings is picked from the systems that
recognition finds; there is no second support check.

Extraction reads a system's parameter array off X = P*^-1 A P*, the
tridiagonal that recognition formed, by two running sums over its
diagonal; comparing X with the tridiagonal construction of that array
certifies it.  No split basis is formed; the split-basis walk is the
test oracle for extraction.

A Leonard system is determined up to isomorphism by its parameter array,
and an isomorphism keeps the array (Terwilliger, LAA 330 (2001), Thm
1.9).  So the system of a valid array is assembled on its split-form
pair, not searched for (system_from_parameter_array), and the report's
two construction roundtrips need no second recognition.  The split-form
pair with subdiagonal 1 realises the array, and an isomorphism of
systems maps the A*-eigenbasis to itself up to a diagonal matrix.  So
the bidiagonal construction realises the system exactly when it is the
split-form pair up to a diagonal similarity, and the tridiagonal one
exactly when it is (D^-1 X D, diag(theta*)) for an invertible diagonal
D; verification_report derives both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateSplitError,
    FieldMismatchError,
    InternalCheckError,
)
from .field import BACKEND, Field, FieldElement, field_to_dict
from .matrix import (
    SHAPE_DIAGONAL,
    SHAPE_LOWER_BIDIAGONAL,
    SHAPE_UPPER_BIDIAGONAL,
    ExactMatrix,
    EigenData,
    _solve_grid,
    is_irreducible_tridiagonal,
    is_multiplicity_free,
    is_tridiagonal,
    shape,
)
from .parray import (
    ParameterArray,
    check_poly_characterization,
    construct_bidiagonal,
    construct_tridiagonal,
    find_g_matrix,
    fingerprint,
    fingerprint_to_dict,
    parameter_array_to_dict,
    validate,
    validity_report_to_dict,
)


class LeonardSystem:
    """A Leonard pair with fixed eigenvalue orderings on both sides.

    eigen and dual_eigen are the eigen-data of A and A* in the system's
    orderings; theta and theta_star are their eigenvalue payload tuples,
    and the read-only idempotents and dual_idempotents are index-aligned
    with them.

    eigen may be given as theta alone, as system_from_parameter_array
    assembles the split-form system: A's eigen-data is then formed when
    eigen, idempotents or relative is first used, by is_multiplicity_free
    (M P = P diag(theta), P P^-1 = I) reordered to theta, and certified
    by A* acting irreducibly tridiagonally on that basis.  A failed
    check raises InternalCheckError.
    """

    __slots__ = (
        "field",
        "a",
        "a_star",
        "_eigen",
        "dual_eigen",
        "theta",
        "theta_star",
        "_pa_cache",
        "_a_dual_cache",
    )

    def __init__(
        self, a, a_star, eigen: "EigenData | tuple", dual_eigen: EigenData, a_in_dual_basis=None
    ):
        self.field = a.field
        self.a = a
        self.a_star = a_star
        if isinstance(eigen, EigenData):
            self._eigen = eigen
            self.theta = tuple(v.payload for v in eigen.eigenvalues)
        else:
            self._eigen = None
            self.theta = tuple(eigen)
        self.dual_eigen = dual_eigen
        self.theta_star = tuple(v.payload for v in dual_eigen.eigenvalues)
        self._pa_cache = None
        self._a_dual_cache = a_in_dual_basis

    @property
    def eigen(self) -> EigenData:
        if self._eigen is None:
            eigen = _eigen_in_order(self.a, self.theta)
            if not is_irreducible_tridiagonal(_in_eigenbasis(self.a_star, eigen)):
                raise InternalCheckError(
                    "A* is not irreducible tridiagonal on the A-eigenbasis in the theta order"
                )
            self._eigen = eigen
        return self._eigen

    @property
    def idempotents(self) -> tuple[ExactMatrix, ...]:
        return self.eigen.idempotents

    @property
    def dual_idempotents(self) -> tuple[ExactMatrix, ...]:
        return self.dual_eigen.idempotents

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    def theta_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.theta)

    def theta_star_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.theta_star)

    def parameter_array(self) -> ParameterArray:
        if self._pa_cache is None:
            self._pa_cache = extract_parameter_array(self)
        return self._pa_cache

    def a_in_dual_basis(self) -> ExactMatrix:
        """X = P*^-1 A P*, A acting on the A*-eigenbasis in the theta* order.

        Recognition forms X to read the supports and hands it to the
        systems it returns, system_from_parameter_array forms it to
        extract, and relative passes it on; only a system assembled by
        hand forms it here.
        """
        if self._a_dual_cache is None:
            self._a_dual_cache = _in_eigenbasis(self.a, self.dual_eigen)
        return self._a_dual_cache

    def relative(self, reverse_e: bool = False, reverse_e_star: bool = False) -> "LeonardSystem":
        """The system with one or both eigenvalue orderings reversed.

        X = P*^-1 A P* goes along: reversing theta keeps P*, and reversing
        theta* reverses its columns, so X has its rows and columns reversed.
        """
        backwards = range(self.d, -1, -1)
        eigen, dual, x = self.eigen, self.dual_eigen, self._a_dual_cache
        if reverse_e:
            eigen = eigen.reordered(backwards)
        if reverse_e_star:
            dual = dual.reordered(backwards)
            if x is not None:
                x = _permuted(x, backwards)
        return LeonardSystem(self.a, self.a_star, eigen, dual, x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeonardSystem)
            and other.field == self.field
            and other.a == self.a
            and other.a_star == self.a_star
            and other.theta == self.theta
            and other.theta_star == self.theta_star
        )

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.a_star, self.theta, self.theta_star))

    def __repr__(self) -> str:
        ser = self.field.serialize
        return (
            f"LeonardSystem({self.field.name}; d={self.d}; "
            f"theta=({', '.join(ser(v) for v in self.theta)}); "
            f"theta*=({', '.join(ser(v) for v in self.theta_star)}))"
        )


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of is_leonard_pair.

    systems lists every admissible ordering pair; canonical is the one
    whose (theta, theta*) string sequences are smallest in shortlex order.
    """

    is_pair: bool
    d: "int | None"
    failure_reason: "str | None"
    systems: tuple
    canonical: "LeonardSystem | None"

    def __bool__(self) -> bool:
        return self.is_pair


def _structural_check(a: ExactMatrix, a_star: ExactMatrix) -> Field:
    if a.field != a_star.field:
        raise FieldMismatchError("A and A* live over different fields")
    if a.n != a_star.n:
        raise ValueError(f"size mismatch: A is {a.n}x{a.n}, A* is {a_star.n}x{a_star.n}")
    return a.field


def _in_eigenbasis(x: ExactMatrix, eigen: EigenData) -> ExactMatrix:
    """P^-1 X P with P the eigenvectors of eigen: X acting on that eigenbasis."""
    return eigen.inverse_eigenvectors @ x @ eigen.eigenvectors


def _eigen_in_order(m: ExactMatrix, values) -> EigenData:
    """is_multiplicity_free's eigen-data of m, reordered to list the
    eigenvalue payloads values; InternalCheckError unless m is
    multiplicity-free with exactly these eigenvalues."""
    mf = is_multiplicity_free(m)
    if not mf:
        raise InternalCheckError(f"a system's matrix is not multiplicity-free: {mf.reason}")
    position = {v.payload: i for i, v in enumerate(mf.eigen.eigenvalues)}
    order = [position.get(v) for v in values]
    if None in order or len(set(order)) != m.n:
        raise InternalCheckError("a system's eigenvalue sequence is not its matrix's spectrum")
    return mf.eigen.reordered(order)


def _permuted(m: ExactMatrix, order) -> ExactMatrix:
    """Rows and columns both taken in the given order."""
    return ExactMatrix._raw(m.field, [[m.rows[i][j] for j in order] for i in order])


def _support_matrix(moved: ExactMatrix) -> list[list[bool]]:
    """support[i][j] says whether E_i X E_j is nonzero, for moved = P^-1 X P.

    E_i X E_j = v_i (w_i X v_j) w_j^T with v_i column i of P and w_i row i
    of P^-1, both nonzero, so it vanishes exactly when moved[i][j] does.
    """
    f = moved.field
    return [[not f.is_zero(v) for v in row] for row in moved.rows]


def _path_orderings(support, labels):
    """Orderings that chain the support into an irreducible tridiagonal.

    Returns (orderings, None) with one or two index tuples, or
    ((), reason-fragment) describing the first obstruction.  labels gives
    the eigenvalue strings used in messages.
    """
    n = len(support)
    if n == 1:
        return ((0,),), None
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if support[i][j] != support[j][i]:
                src, dst = (i, j) if support[i][j] else (j, i)
                return (), (
                    f"links the eigenspace of {labels[src]} to that of "
                    f"{labels[dst]} but not back"
                )
            if support[i][j]:
                edges.add((i, j))
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    for v in range(n):
        if degree[v] > 2:
            return (), f"branches at the eigenspace of {labels[v]}"
    if len(edges) >= n:
        return (), "closes into a cycle"
    if len(edges) < n - 1 or degree.count(1) != 2:
        return (), "leaves the eigenspaces disconnected"
    start = degree.index(1)
    walk = [start]
    prev = -1
    while True:
        nxt = [
            u
            for u in range(n)
            if u != prev and u != walk[-1] and (min(u, walk[-1]), max(u, walk[-1])) in edges
        ]
        if not nxt:
            break
        prev = walk[-1]
        walk.append(nxt[0])
    if len(walk) != n:
        return (), "leaves the eigenspaces disconnected"
    return (tuple(walk), tuple(reversed(walk))), None


def is_leonard_pair(a: ExactMatrix, a_star: ExactMatrix) -> RecognitionResult:
    """Recognize a Leonard pair and enumerate its systems.

    The verdict reads the two maps alone, as conditions (i) and (ii) do:
    each side's eigenvalues come from its own matrix.  On failure the
    reason strings name the first obstruction on each side.
    """
    _structural_check(a, a_star)

    mf_a = is_multiplicity_free(a)
    mf_star = is_multiplicity_free(a_star)
    clauses = []
    if not mf_a:
        clauses.append(f"A is not multiplicity-free: {mf_a.reason}")
    if not mf_star:
        clauses.append(f"A* is not multiplicity-free: {mf_star.reason}")
    if clauses:
        if is_tridiagonal(a) and not is_irreducible_tridiagonal(a):
            clauses.append("A is tridiagonal but not irreducible")
        if is_tridiagonal(a_star) and not is_irreducible_tridiagonal(a_star):
            clauses.append("A* is tridiagonal but not irreducible")
        return RecognitionResult(False, None, "; ".join(clauses), (), None)

    eigen_a: EigenData = mf_a.eigen
    eigen_star: EigenData = mf_star.eigen

    star_labels = [str(v) for v in eigen_star.eigenvalues]
    x = _in_eigenbasis(a, eigen_star)
    star_orders, obstruction = _path_orderings(_support_matrix(x), star_labels)
    if obstruction:
        return RecognitionResult(
            False,
            None,
            f"the action of A on the A*-eigenspaces {obstruction}",
            (),
            None,
        )

    a_labels = [str(v) for v in eigen_a.eigenvalues]
    support_v = _support_matrix(_in_eigenbasis(a_star, eigen_a))
    e_orders, obstruction = _path_orderings(support_v, a_labels)
    if obstruction:
        return RecognitionResult(
            False,
            None,
            f"the action of A* on the A-eigenspaces {obstruction}",
            (),
            None,
        )

    dual = {s: (eigen_star.reordered(s), _permuted(x, s)) for s in star_orders}
    systems = [
        LeonardSystem(a, a_star, eigen_a.reordered(e), *dual[s])
        for e in e_orders
        for s in star_orders
    ]
    canonical = min(systems, key=_system_sort_key)
    return RecognitionResult(True, a.n - 1, None, tuple(systems), canonical)


def _system_sort_key(system: LeonardSystem):
    f = system.field
    return (
        tuple(f.sort_key(v) for v in system.theta),
        tuple(f.sort_key(v) for v in system.theta_star),
    )


def system_from_pair_with_orderings(
    a: ExactMatrix, a_star: ExactMatrix, theta, theta_star
) -> LeonardSystem:
    """The system of (A, A*) with prescribed eigenvalue orderings.

    theta and theta_star list the eigenvalues of A and A* in the desired
    order.  The system is the one among recognition's systems with exactly
    these orderings; a ValueError gives recognition's failure reason or
    says that the orderings are not admissible.
    """
    field = _structural_check(a, a_star)
    theta = tuple(field.coerce(v) for v in theta)
    theta_star = tuple(field.coerce(v) for v in theta_star)
    rec = is_leonard_pair(a, a_star)
    if not rec.is_pair:
        raise ValueError(rec.failure_reason)
    for system in rec.systems:
        if system.theta == theta and system.theta_star == theta_star:
            return system
    ser = field.serialize
    raise ValueError(
        f"theta = ({', '.join(ser(v) for v in theta)}), "
        f"theta* = ({', '.join(ser(v) for v in theta_star)}) is not an "
        "admissible ordering of the eigenspaces"
    )


def system_from_bidiagonal_pair(a: ExactMatrix, a_star: ExactMatrix) -> LeonardSystem:
    """System of a split-form pair, keeping the diagonal orderings.

    A must be lower bidiagonal and A* upper bidiagonal; their diagonals
    are taken as theta and theta* in the given order.
    """
    _structural_check(a, a_star)
    if shape(a) not in (SHAPE_DIAGONAL, SHAPE_LOWER_BIDIAGONAL):
        raise ValueError("A is not lower bidiagonal")
    if shape(a_star) not in (SHAPE_DIAGONAL, SHAPE_UPPER_BIDIAGONAL):
        raise ValueError("A* is not upper bidiagonal")
    theta = [a.entry(i, i) for i in range(a.n)]
    theta_star = [a_star.entry(i, i) for i in range(a.n)]
    return system_from_pair_with_orderings(a, a_star, theta, theta_star)


def system_from_parameter_array(pa: ParameterArray) -> LeonardSystem:
    """Realize a valid array as the system of its split-form pair.

    The system is assembled, not searched for: the classification theorem
    realises every valid array by construct_bidiagonal's pair, ordered by
    its diagonals (Terwilliger, LAA 330 (2001), Thm 1.9).  So A* alone is
    decomposed, its eigenbasis put in the order of its diagonal theta*,
    and X = P*^-1 A P* formed with it; theta is read off A's diagonal, and
    A's eigen-data is formed when it is first used (LeonardSystem).
    Extraction runs before the system is returned, so its array is
    certified by the axioms, X tridiagonal and X = D^-1 T D for T of
    construct_tridiagonal; a failed step raises DegenerateSplitError.
    """
    a, a_star = construct_bidiagonal(pa)
    dual = _eigen_in_order(a_star, [row[i] for i, row in enumerate(a_star.rows)])
    theta = tuple(row[i] for i, row in enumerate(a.rows))
    system = LeonardSystem(a, a_star, theta, dual, _in_eigenbasis(a, dual))
    system.parameter_array()
    return system


def extract_parameter_array(system: LeonardSystem) -> ParameterArray:
    """Parameter array of a system, read off X = P*^-1 A P* in O(d).

    X has diagonal a_i = theta_i + varphi_i/(theta*_i - theta*_{i-1}) +
    varphi_{i+1}/(theta*_i - theta*_{i+1}) (construct_tridiagonal), which
    telescopes to varphi_i = (theta*_i - theta*_{i-1}) sum_{h<i} (theta_h -
    a_h); reversing theta swaps varphi and phi and keeps X, so phi_i has
    theta_{d-h} in place of theta_h.  Certified in three steps: the axioms
    hold, X is tridiagonal, and T = D^-1 X D for T of construct_tridiagonal
    and an invertible diagonal D.  is_multiplicity_free certified
    P*^-1 A* P* = diag(theta*), so P* D carries the system to that
    construction, which has the array (Thm 1.9).  A failed step raises
    DegenerateSplitError.
    """
    f = system.field
    x = system.a_in_dual_basis()
    theta, theta_star, d = system.theta, system.theta_star, system.d
    varphi, phi = [], []
    up = down = f.zero
    for i in range(1, d + 1):
        a = x.rows[i - 1][i - 1]
        up = f.add(up, f.sub(theta[i - 1], a))
        down = f.add(down, f.sub(theta[d - i + 1], a))
        gap = f.sub(theta_star[i], theta_star[i - 1])
        varphi.append(f.mul(gap, up))
        phi.append(f.mul(gap, down))
    pa = ParameterArray(f, theta, theta_star, varphi, phi)
    failing = validate(pa).failing()
    if failing:
        raise DegenerateSplitError(
            "extracted data violates the parameter array axioms: " + ", ".join(failing)
        )
    if not is_tridiagonal(x):
        raise DegenerateSplitError("A is not tridiagonal in the theta* eigenbasis")
    if not _is_tridiagonal_form_of(system, *construct_tridiagonal(pa)):
        raise DegenerateSplitError(
            "A in the theta* eigenbasis is not the tridiagonal form of the extracted array"
        )
    return pa


AW_COEFFICIENT_NAMES = (
    "beta",
    "gamma",
    "gamma_star",
    "rho",
    "rho_star",
    "omega",
    "eta",
    "eta_star",
)


@dataclass(frozen=True)
class AskeyWilsonFit:
    """Solution of the two three-term relations.

    found is False when no coefficient vector satisfies them.  When the
    pair admits a fit, unique says whether it is the only one (d >= 3 for
    Leonard pairs); with freedom left, nullity counts it and the reported
    coefficients set every free parameter to zero.
    """

    found: bool
    unique: bool
    nullity: int
    coefficients: "dict[str, FieldElement] | None"

    @property
    def beta(self) -> "FieldElement | None":
        return None if self.coefficients is None else self.coefficients["beta"]


def fit_askey_wilson(a: ExactMatrix, a_star: ExactMatrix) -> AskeyWilsonFit:
    """Fit (beta, gamma, gamma*, rho, rho*, omega, eta, eta*) exactly.

    The relations, with every term moved left:
      A^2 A* - beta A A* A + A* A^2 - gamma (A A* + A* A) - rho A*
        - gamma* A^2 - omega A - eta I = 0
      A*^2 A - beta A* A A* + A A*^2 - gamma* (A* A + A A*) - rho* A
        - gamma A*^2 - omega A* - eta* I = 0
    Each matrix entry of each relation contributes one linear equation,
    read as target = sum of coefficient * matrix.  The products are formed
    once, for the equations and for the residual certificate alike.
    """
    field = _structural_check(a, a_star)
    n = a.n
    relations = _askey_wilson_relations(a, a_star)
    rows = []
    rhs = []
    for mats, target in relations:
        for i in range(n):
            for j in range(n):
                rows.append([m.entry(i, j) for m in mats])
                rhs.append(target.entry(i, j))

    solution = _solve_grid(field, rows, rhs)
    if solution is None:
        return AskeyWilsonFit(False, False, 0, None)
    values, nullity = solution
    coeffs = {
        name: FieldElement(field, v) for name, v in zip(AW_COEFFICIENT_NAMES, values)
    }
    if not all(_residual(mats, target, values).is_zero for mats, target in relations):
        raise InternalCheckError("Askey-Wilson fit does not satisfy the relations")
    return AskeyWilsonFit(True, nullity == 0, nullity, coeffs)


def _askey_wilson_relations(a: ExactMatrix, a_star: ExactMatrix) -> tuple:
    """Each relation as (matrices, target): the matrix that each coefficient
    of AW_COEFFICIENT_NAMES multiplies, and the coefficient-free part
    A^2 A* + A* A^2 or A*^2 A + A A*^2.  The relation is target = sum of
    coefficient * matrix."""
    field, n = a.field, a.n
    aa = a @ a
    ss = a_star @ a_star
    as_ = a @ a_star
    sa = a_star @ a
    anti = as_ + sa
    ident = ExactMatrix.identity(field, n)
    zero = ExactMatrix.zeros(field, n)
    return (
        ((as_ @ a, anti, aa, a_star, zero, a, ident, zero), aa @ a_star + a_star @ aa),
        ((sa @ a_star, ss, anti, zero, a, a_star, zero, ident), ss @ a + a @ ss),
    )


def _residual(mats, target: ExactMatrix, values) -> ExactMatrix:
    """target minus the sum of value * matrix, skipping zero terms."""
    f = target.field
    rows = [list(row) for row in target.rows]
    for m, c in zip(mats, values, strict=True):
        if f.is_zero(c):
            continue
        for row, mrow in zip(rows, m.rows):
            for j, v in enumerate(mrow):
                if not f.is_zero(v):
                    row[j] = f.sub(row[j], f.mul(c, v))
    return ExactMatrix._raw(f, rows)


def askey_wilson_to_dict(fit: AskeyWilsonFit) -> dict:
    out: dict = {
        "found": fit.found,
        "unique": fit.unique,
        "nullity": fit.nullity,
    }
    out["coefficients"] = (
        None
        if fit.coefficients is None
        else {k: str(v) for k, v in fit.coefficients.items()}
    )
    return out


def _diagonal_is(m: ExactMatrix, values) -> bool:
    return all(row[i] == v for i, (row, v) in enumerate(zip(m.rows, values, strict=True)))


def _products_are(lower: ExactMatrix, upper: ExactMatrix, products) -> bool:
    """Whether lower[i][i-1] * upper[i-1][i] = products[i-1], i = 1..d.

    The callers' products are nonzero, so a match also says that
    lower[i][i-1] is nonzero."""
    f = lower.field
    return all(
        f.mul(lower.rows[i][i - 1], upper.rows[i - 1][i]) == p
        for i, p in enumerate(products, start=1)
    )


def _is_split_form_of(system: LeonardSystem, b: ExactMatrix, b_star: ExactMatrix) -> bool:
    """Whether (B, B*) is the system's split-form pair up to a diagonal
    similarity: B lower and B* upper bidiagonal, with diagonals theta and
    theta*, and B_{i,i-1} B*_{i-1,i} = varphi_i, which is nonzero; the
    split-form pair has subdiagonal 1 and superdiagonal varphi.
    """
    return (
        shape(b) in (SHAPE_DIAGONAL, SHAPE_LOWER_BIDIAGONAL)
        and shape(b_star) in (SHAPE_DIAGONAL, SHAPE_UPPER_BIDIAGONAL)
        and _diagonal_is(b, system.theta)
        and _diagonal_is(b_star, system.theta_star)
        and _products_are(b, b_star, system.parameter_array().varphi)
    )


def _is_tridiagonal_form_of(system: LeonardSystem, t: ExactMatrix, t_star: ExactMatrix) -> bool:
    """Whether T* = diag(theta*) and T = D^-1 X D for an invertible
    diagonal D, with X = P*^-1 A P* as recognition formed it.

    X is irreducible tridiagonal in the theta* order, so such a D exists
    exactly when T is tridiagonal with X's diagonal and
    T_{i-1,i} T_{i,i-1} = X_{i-1,i} X_{i,i-1}, which is nonzero.  Then
    T_{i,i-1} != 0, and d_0 = 1, d_i = d_{i-1} X_{i,i-1} / T_{i,i-1}
    match the subdiagonal by construction and the superdiagonal through
    the products.  Conversely a diagonal similarity keeps the diagonal,
    the zero pattern and these products.
    """
    f = system.field
    x = system.a_in_dual_basis().rows
    return (
        t_star == ExactMatrix.diagonal(f, system.theta_star)
        and is_tridiagonal(t)
        and _diagonal_is(t, [row[i] for i, row in enumerate(x)])
        and _products_are(
            t, t, [f.mul(x[i - 1][i], x[i][i - 1]) for i in range(1, len(x))]
        )
    )


def verification_report(a: ExactMatrix, a_star: ExactMatrix) -> dict:
    """Full cross-validation of a pair, as one JSON-ready dictionary.

    Recognition, canonical parameter array, axiom report, fingerprint,
    both construction roundtrips, the polynomial characterization, the
    reversal intertwiner, and the Askey-Wilson fit with its beta checked
    against the fingerprint.

    Recognition runs once.  Let Phi be the canonical system and pa =
    (theta, theta*, varphi, phi) its array.  A roundtrip asks whether a
    construction of pa, taken as a system with the orderings it is built
    in, has the array pa again.  Each is decided from a witness of the
    first recognition, with the same boolean as recognising the
    construction:

    * bidiagonal: (B, B*) = construct_bidiagonal(pa), ordered by its
      diagonals.  The split-form pair (L, U), with L of diagonal theta and
      subdiagonal 1 and U of diagonal theta* and superdiagonal varphi, is a
      system with array pa: the classification theorem realises each valid
      array so.  If diag B = theta, diag B* = theta* and
      B_{i,i-1} B*_{i-1,i} = varphi_i, nonzero by PA2, then
      D = diag(1, B_{1,0}, B_{1,0} B_{2,1}, ...) is invertible and gives
      (B, B*) = D (L, U) D^-1: the construction is (L, U) moved by D^-1,
      and an isomorphism keeps the array.  Conversely, let the construction's
      system Psi have array pa.  Its diagonals are then theta and theta*.
      B* e_0 = theta*_0 e_0, so Psi's split basis is u_i = B_{1,0} ...
      B_{i,i-1} e_i.  It is a basis only when every B_{i,i-1} != 0, and
      in it B* has superdiagonal B_{i,i-1} B*_{i-1,i}, which is Psi's
      varphi_i and so equals varphi_i.
    * tridiagonal: (T, T*) = construct_tridiagonal(pa), ordered by
      (theta, theta*), against X = P*^-1 A P* in Phi's theta* order.  If
      T* = diag(theta*) and T = D^-1 X D for an invertible diagonal D,
      then (T, T*) = (P* D)^-1 (A, A*) (P* D), and the array is kept.
      Conversely, let the construction's system have array pa, with
      T* = diag(theta*) as construct_tridiagonal builds it.  By the
      classification theorem (Terwilliger, LAA 330 (2001), Thm 1.9) an
      isomorphism sigma carries Phi to it.  sigma maps the theta*_i
      eigenvector P* e_i of A* to a theta*_i eigenvector of diag(theta*),
      a multiple of e_i.  So sigma P* = E is diagonal and T = E X E^-1.
      Extraction certifies pa by exactly this check
      (_is_tridiagonal_form_of), so the report reads its value, true,
      off that certificate instead of evaluating it a second time.

    Both checks compare bands in O(n) field operations after O(n^2)
    shape and zero tests (_is_split_form_of, _is_tridiagonal_form_of).
    """
    field = _structural_check(a, a_star)
    rec = is_leonard_pair(a, a_star)
    fit = fit_askey_wilson(a, a_star)
    out: dict = {
        "backend": BACKEND,
        "field": field_to_dict(field),
        "size": a.n,
        "is_leonard_pair": rec.is_pair,
        "failure_reason": rec.failure_reason,
        "diameter": rec.d,
        "orderings_found": len(rec.systems),
        "askey_wilson": askey_wilson_to_dict(fit),
    }
    if not rec.is_pair:
        out["parameter_array"] = None
        out["fingerprint"] = None
        return out

    system = rec.canonical
    pa = system.parameter_array()
    report = validate(pa)
    fp = fingerprint(pa)
    out["parameter_array"] = parameter_array_to_dict(pa)
    out["validity"] = validity_report_to_dict(report)
    out["fingerprint"] = fingerprint_to_dict(fp)
    out["orderings"] = [
        {
            "theta": [field.serialize(v) for v in system.theta],
            "theta_star": [field.serialize(v) for v in system.theta_star],
        }
        for system in rec.systems
    ]

    cross: dict = {}
    cross["bidiagonal_roundtrip"] = _is_split_form_of(system, *construct_bidiagonal(pa))
    # extraction returned pa only after _is_tridiagonal_form_of held
    cross["tridiagonal_roundtrip"] = True
    cross["poly_characterization"] = check_poly_characterization(pa)
    g = find_g_matrix(pa)
    cross["g_matrix_found"] = g.found
    out["g_matrix_pencil_exhausted"] = g.pencil_exhausted
    if fp.beta is not None and fit.found and fit.unique:
        cross["askey_wilson_beta_matches"] = fit.beta == fp.beta
    else:
        cross["askey_wilson_beta_matches"] = None
    out["cross_checks"] = cross
    out["all_checks_passed"] = all(v is True or v is None for v in cross.values()) and report.valid
    return out


__all__ = [
    "AW_COEFFICIENT_NAMES",
    "AskeyWilsonFit",
    "LeonardSystem",
    "RecognitionResult",
    "askey_wilson_to_dict",
    "extract_parameter_array",
    "fit_askey_wilson",
    "is_leonard_pair",
    "system_from_bidiagonal_pair",
    "system_from_pair_with_orderings",
    "system_from_parameter_array",
    "verification_report",
]
