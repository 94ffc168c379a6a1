"""Parameter arrays: validation, canonical constructions, classification.

A parameter array of diameter d holds two eigenvalue sequences theta,
theta* (length d+1) and two split sequences varphi, phi (length d, 1-indexed
in the classical formulas).  The five axioms:

PA1  theta mutually distinct, theta* mutually distinct
PA2  every varphi_i and phi_i nonzero
PA3  varphi_i = phi_1 * S_i + (theta*_i - theta*_0)(theta_{i-1} - theta_d)
PA4  phi_i    = varphi_1 * S_i + (theta*_i - theta*_0)(theta_{d-i+1} - theta_0)
PA5  (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i) is independent of
     i for 2 <= i <= d-1 and equals the same expression in theta*

with S_i = sum_{h=0}^{i-1} (theta_h - theta_{d-h}) / (theta_0 - theta_d).

Valid arrays are exactly the classification data of Leonard systems: the
bidiagonal construction below realizes each array, and extraction inverts
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import (
    InvalidParameterArrayError,
    InternalCheckError,
    UnsupportedFieldOperationError,
)
from .field import (
    ExactPolynomial,
    Field,
    FieldElement,
    QuadraticExtension,
    Rationals,
    _json_list,
    field_from_dict,
    field_to_dict,
    roots_in_field,
    squarefree_part,
)
from .matrix import ExactMatrix

FAMILY_CLASSICAL = "classical"
FAMILY_BANNAI_ITO = "bannai-ito"
FAMILY_Q_TYPE = "q-type"
FAMILY_SMALL_DIAMETER = "small-diameter"
FAMILY_CHAR2 = "char2-special"


class ParameterArray:
    """Immutable parameter array over one exact field.

    The ValidityReport that validate computes is kept in _report, so the
    axioms are evaluated once per array; equality and hashing ignore it.
    """

    __slots__ = ("field", "theta", "theta_star", "varphi", "phi", "_report")

    def __init__(self, field: Field, theta, theta_star, varphi, phi):
        th = tuple(field.coerce(v) for v in theta)
        ts = tuple(field.coerce(v) for v in theta_star)
        vp = tuple(field.coerce(v) for v in varphi)
        ph = tuple(field.coerce(v) for v in phi)
        if len(th) == 0:
            raise InvalidParameterArrayError("theta must have length d+1 >= 1")
        if len(ts) != len(th):
            raise InvalidParameterArrayError(
                f"length mismatch: {len(th)} thetas vs {len(ts)} dual thetas"
            )
        d = len(th) - 1
        if len(vp) != d or len(ph) != d:
            raise InvalidParameterArrayError(
                f"length mismatch: diameter {d} needs {d} varphi and phi values, "
                f"got {len(vp)} and {len(ph)}"
            )
        self.field = field
        self.theta = th
        self.theta_star = ts
        self.varphi = vp
        self.phi = ph
        self._report = None

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    def theta_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.theta)

    def theta_star_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.theta_star)

    def varphi_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.varphi)

    def phi_elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.phi)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParameterArray)
            and other.field == self.field
            and other.theta == self.theta
            and other.theta_star == self.theta_star
            and other.varphi == self.varphi
            and other.phi == self.phi
        )

    def __hash__(self) -> int:
        return hash((self.field, self.theta, self.theta_star, self.varphi, self.phi))

    def __repr__(self) -> str:
        ser = self.field.serialize
        return (
            f"ParameterArray({self.field.name}; d={self.d}; "
            f"theta=({', '.join(ser(v) for v in self.theta)}); "
            f"theta*=({', '.join(ser(v) for v in self.theta_star)}); "
            f"varphi=({', '.join(ser(v) for v in self.varphi)}); "
            f"phi=({', '.join(ser(v) for v in self.phi)}))"
        )


@dataclass(frozen=True)
class AxiomStatus:
    name: str
    passed: bool
    evaluated: bool = True
    first_failure: "int | None" = None
    detail: "str | None" = None


@dataclass(frozen=True)
class ValidityReport:
    axioms: tuple[AxiomStatus, ...]

    @property
    def valid(self) -> bool:
        return all(a.passed for a in self.axioms)

    def axiom(self, name: str) -> AxiomStatus:
        for a in self.axioms:
            if a.name == name:
                return a
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axioms if not a.passed)


def _distinctness(field: Field, values, label: str) -> "tuple[int, str] | None":
    # payloads are canonical, so they are their own keys; only a repeat is
    # serialized, for its detail string
    seen: dict = {}
    for i, v in enumerate(values):
        j = seen.setdefault(v, i)
        if j != i:
            return i, f"{label}[{j}] == {label}[{i}] == {field.serialize(v)}"
    return None


def _split_rhs(field: Field, theta, theta_star, seeds, scales=(1, 1)) -> list:
    """The right-hand sides of PA3 and PA4 on images, each from one seed.

    theta, theta_star and the two seeds are (image, den) pairs from
    Field.lift; PA3's sides varphi_1..varphi_d read phi_1, the first entry
    of seeds[0], and PA4's sides phi_1..phi_d read varphi_1, that of
    seeds[1].  Returns [(rhs3, k3), (rhs4, k4)] with rhs3[i-1] / k3 =
    scales[0] varphi_i and rhs4[i-1] / k4 = scales[1] phi_i.

    With D = theta_0 - theta_d multiplied through, the sides are
      varphi_i D = phi_1 A_i + D (theta*_i - theta*_0)(theta_{i-1} - theta_d),
      phi_i D = varphi_1 A_i + D (theta*_i - theta*_0)(theta_{d-i+1} - theta_0),
    with one running sum A_i = sum_{h<i} (theta_h - theta_{d-h}) for both.
    The denominators are cross-multiplied, so nothing is inverted or
    normalised.
    """
    (th, t), (ts, s) = theta, theta_star
    d = len(th) - 1
    if d == 0:
        return [([], field.image_one)] * 2
    add, sub, mul = field.add, field.sub, field.image_mul
    ((x3, *_), den3), ((x4, *_), den4) = seeds
    scale3, scale4 = scales
    # the denominators, as images that scale image entries
    ints = (s * t * scale3, s * t * scale4, den3 * scale3, den4 * scale4, den3 * s * t, den4 * s * t)
    c3, c4, b3, b4, k3, k4 = field.lift([field.from_int(n) for n in ints])[0]
    e = sub(th[0], th[d])
    a3, a4, b3, b4 = mul(x3, c3), mul(x4, c4), mul(b3, e), mul(b4, e)
    acc = field.image_zero
    rhs3, rhs4 = [], []
    for i in range(1, d + 1):
        acc = add(acc, sub(th[i - 1], th[d - i + 1]))
        dual = sub(ts[i], ts[0])
        rhs3.append(add(mul(a3, acc), mul(b3, mul(dual, sub(th[i - 1], th[d])))))
        rhs4.append(add(mul(a4, acc), mul(b4, mul(dual, sub(th[d - i + 1], th[0])))))
    return [(rhs3, mul(k3, e)), (rhs4, mul(k4, e))]


# statuses are frozen, so every report shares one passing status per axiom
_PASSED = {name: AxiomStatus(name, True) for name in ("PA1", "PA2", "PA3", "PA4", "PA5")}


def _status(name: str, fail: "tuple[int, str] | None") -> AxiomStatus:
    if fail is None:
        return _PASSED[name]
    return AxiomStatus(name, False, first_failure=fail[0], detail=fail[1])


def _first_mismatch(field: Field, values, lifted, side) -> "tuple[int, str] | None":
    """The first i with values[i-1] != the i-th right-hand side, on images.

    lifted = Field.lift(values) = (image, den), and side = (rhs, k) from
    _split_rhs scaled by den, so image[i-1] k must equal rhs[i-1].  Only a
    mismatch is lowered, for the detail string.
    """
    (image, den), (rhs, k) = lifted, side
    products = list(map(field.image_mul, image, repeat(k)))
    if products == rhs:
        return None
    i = next(i for i, (v, n) in enumerate(zip(products, rhs), start=1) if v != n)
    want = field.div(field.quotients([rhs[i - 1]], k)[0], field.from_int(den))
    return i, f"index {i}: {field.serialize(values[i - 1])} != {field.serialize(want)}"


def _ratio_mismatch(field: Field, th, ts) -> "tuple[int, str] | None":
    """PA5 on the images th and ts of theta and theta*, by cross-multiplying
    r_i = (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i) with its dual
    and with r_2, so the image denominators cancel.  Only a failing ratio
    is divided, for the detail string."""
    sub, mul = field.sub, field.image_mul

    def ratio(num, den) -> str:
        return field.serialize(field.quotients([num], den)[0])

    for i in range(2, len(th) - 1):
        a3, a1 = sub(th[i - 2], th[i + 1]), sub(th[i - 1], th[i])
        b3, b1 = sub(ts[i - 2], ts[i + 1]), sub(ts[i - 1], ts[i])
        if i == 2:
            r3, r1 = a3, a1
        if mul(a3, b1) != mul(b3, a1):
            return i, f"index {i}: ratio {ratio(a3, a1)} != dual ratio {ratio(b3, b1)}"
        if mul(a3, r1) != mul(r3, a1):
            return i, f"index {i}: ratio {ratio(a3, a1)} != ratio {ratio(r3, r1)} at index 2"
    return None


def validate(pa: ParameterArray) -> ValidityReport:
    """Check PA1-PA5 and report per-axiom outcomes.

    PA3-PA5 involve divisions guarded by PA1, so they are reported as not
    evaluated (and not passed) when PA1 fails.  The report is computed on
    the first call and kept on the array.
    """
    if pa._report is None:
        pa._report = _evaluate_axioms(pa)
    return pa._report


def _evaluate_axioms(pa: ParameterArray) -> ValidityReport:
    f = pa.field
    d = pa.d

    pa1 = _status(
        "PA1",
        _distinctness(f, pa.theta, "theta")
        or _distinctness(f, pa.theta_star, "theta*"),
    )

    pa2_fail = None
    for i in range(d):
        if f.is_zero(pa.varphi[i]):
            pa2_fail = (i + 1, f"varphi_{i + 1} == 0")
            break
        if f.is_zero(pa.phi[i]):
            pa2_fail = (i + 1, f"phi_{i + 1} == 0")
            break
    pa2 = _status("PA2", pa2_fail)

    if not pa1.passed:
        return ValidityReport(
            (pa1, pa2)
            + tuple(
                AxiomStatus(
                    name, False, evaluated=False, detail="not evaluated: PA1 failed"
                )
                for name in ("PA3", "PA4", "PA5")
            )
        )

    theta, theta_star, varphi, phi = (
        f.lift(seq) for seq in (pa.theta, pa.theta_star, pa.varphi, pa.phi)
    )
    side3, side4 = _split_rhs(f, theta, theta_star, (phi, varphi), (varphi[1], phi[1]))
    pa3 = _status("PA3", _first_mismatch(f, pa.varphi, varphi, side3))
    pa4 = _status("PA4", _first_mismatch(f, pa.phi, phi, side4))
    pa5 = _status("PA5", _ratio_mismatch(f, theta[0], theta_star[0]))
    return ValidityReport((pa1, pa2, pa3, pa4, pa5))


def _require(pa: ParameterArray, what: str, *, pa12_only: bool = False) -> None:
    """Raise unless pa satisfies every axiom, or PA1 and PA2 when
    pa12_only, as the report that validate keeps on the array says."""
    failing = validate(pa).failing()
    if pa12_only:
        failing = [n for n in failing if n in ("PA1", "PA2")]
        need = "PA1 and PA2; failing: "
    else:
        need = "a valid parameter array; failing axioms: "
    if failing:
        raise InvalidParameterArrayError(
            f"{what} requires {need}" + ", ".join(failing)
        )


def construct_bidiagonal(pa: ParameterArray) -> tuple[ExactMatrix, ExactMatrix]:
    """The canonical split-form pair of a valid array.

    A is lower bidiagonal with diagonal theta and subdiagonal all 1; A* is
    upper bidiagonal with diagonal theta* and superdiagonal varphi.
    """
    _require(pa, "construct_bidiagonal")
    f = pa.field
    a = ExactMatrix.diagonal(f, pa.theta, below=[f.one] * pa.d)
    a_star = ExactMatrix.diagonal(f, pa.theta_star, above=pa.varphi)
    return a, a_star


def tridiagonal_products(pa: ParameterArray) -> tuple[FieldElement, ...]:
    """Off-diagonal products a_{i,i-1} a_{i-1,i}, i = 1..d, of the
    tridiagonal realization."""
    f = pa.field
    d = pa.d
    ts = pa.theta_star
    out = []
    for i in range(1, d + 1):
        num1 = f.one
        for h in range(i - 1):
            num1 = f.mul(num1, f.sub(ts[i - 1], ts[h]))
        den1 = f.one
        for h in range(i):
            den1 = f.mul(den1, f.sub(ts[i], ts[h]))
        num2 = f.one
        for h in range(i + 1, d + 1):
            num2 = f.mul(num2, f.sub(ts[i], ts[h]))
        den2 = f.one
        for h in range(i, d + 1):
            den2 = f.mul(den2, f.sub(ts[i - 1], ts[h]))
        value = f.mul(
            f.mul(pa.varphi[i - 1], pa.phi[i - 1]),
            f.div(f.mul(num1, num2), f.mul(den1, den2)),
        )
        out.append(FieldElement(f, value))
    return tuple(out)


def construct_tridiagonal(
    pa: ParameterArray, split: str = "unit"
) -> tuple[ExactMatrix, ExactMatrix]:
    """Tridiagonal-diagonal realization of a valid array.

    A has diagonal theta_i + varphi_i/(theta*_i - theta*_{i-1})
    + varphi_{i+1}/(theta*_i - theta*_{i+1}) (out-of-range terms dropped)
    and off-diagonal products given by tridiagonal_products; A* is
    diag(theta*).  split="unit" puts 1 on the subdiagonal; "symmetric"
    splits each product as a square root and needs those roots to exist in
    the field.
    """
    if split not in ("unit", "symmetric"):
        raise ValueError(f"unknown split {split!r}; expected 'unit' or 'symmetric'")
    _require(pa, "construct_tridiagonal")
    f = pa.field
    d = pa.d
    ts = pa.theta_star
    diag = []
    for i in range(d + 1):
        v = pa.theta[i]
        if i >= 1:
            v = f.add(v, f.div(pa.varphi[i - 1], f.sub(ts[i], ts[i - 1])))
        if i <= d - 1:
            v = f.add(v, f.div(pa.varphi[i], f.sub(ts[i], ts[i + 1])))
        diag.append(v)
    products = [e.payload for e in tridiagonal_products(pa)]
    if split == "unit":
        sub = [f.one] * d
        sup = products
    else:
        sub = []
        for i, p in enumerate(products):
            root = f.sqrt(p)
            if root is None:
                raise UnsupportedFieldOperationError(
                    f"symmetric split needs square roots in {f.name}; "
                    f"product at index {i + 1} ({f.serialize(p)}) is not a square"
                )
            sub.append(root)
        sup = sub
    a = ExactMatrix.diagonal(f, diag, below=sub, above=sup)
    a_star = ExactMatrix.diagonal(f, pa.theta_star)
    return a, a_star


@dataclass(frozen=True)
class GMatrixResult:
    """Outcome of the reversal-intertwiner search."""

    found: bool
    g: "ExactMatrix | None"
    solution_dimension: int
    pencil_exhausted: bool


def reversal_intertwiner_systems(
    pa: ParameterArray,
) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]:
    """The two matrix pairs (B1, B2), (C1, C2) that G must intertwine."""
    f = pa.field
    ones = [f.one] * pa.d
    return (
        ExactMatrix.diagonal(f, pa.theta, below=ones),
        ExactMatrix.diagonal(f, pa.theta[::-1], below=ones),
        ExactMatrix.diagonal(f, pa.theta_star, above=pa.varphi),
        ExactMatrix.diagonal(f, pa.theta_star, above=pa.phi),
    )


def find_g_matrix(pa: ParameterArray) -> GMatrixResult:
    """Find the invertible G with B1 G = G B2 and C1 G = G C2.

    B1, B2 are the lower-bidiagonal matrices with diagonals theta and
    reversed theta (subdiagonals 1); C1, C2 are upper bidiagonal with
    diagonal theta*, superdiagonals varphi and phi.  Such an invertible G
    exists precisely when PA3-PA5 hold (given PA1 and PA2, which are
    required here).

    Column j of the two identities reads
      B1 g_j = theta_{d-j} g_j + g_{j+1}    (g_{d+1} = 0)
      C1 g_j = theta*_j g_j + phi_j g_{j-1}  (g_{-1} = 0).
    At j = 0 the second puts g_0 in the kernel of C1 - theta*_0 I, which is
    upper bidiagonal with diagonal (0, theta*_1 - theta*_0, ...), nonzero
    after its first entry by PA1, and superdiagonal varphi, nonzero by
    PA2: that kernel is span(e_0).  So the solutions form a space of
    dimension 0 or 1, and g_0 = e_0 decides which.  The first identity
    builds g_{j+1} = (B1 - theta_{d-j} I) g_j, each step banded, in O(d^2)
    field operations.  Its last column holds on its own, since
    (B1 - theta_0 I) g_d = prod_k (B1 - theta_k I) e_0 = 0 by
    Cayley-Hamilton.  So multiplying out both identities once, each product
    with a bidiagonal factor, decides the search: B1 G != G B2 means the
    code is wrong, and C1 G = G C2 holds exactly when a solution exists.
    g_j ends in a 1 in row j, so G is upper unitriangular, hence invertible.
    """
    _require(pa, "find_g_matrix", pa12_only=True)
    f = pa.field
    d = pa.d
    theta = pa.theta
    cols = [[f.one]]
    for j in range(d):
        # (B1 - theta_{d-j} I) g_j reaches one row below g_j's last
        col, shift = cols[j], theta[d - j]
        nxt = [f.mul(f.sub(theta[i], shift), v) for i, v in enumerate(col)]
        for i in range(1, j + 1):
            nxt[i] = f.add(nxt[i], col[i - 1])
        nxt.append(col[j])
        cols.append(nxt)
    z = f.zero
    n = d + 1
    g = ExactMatrix._raw(
        f, [[cols[j][r] if r <= j else z for j in range(n)] for r in range(n)]
    )
    b1, b2, c1, c2 = reversal_intertwiner_systems(pa)
    if b1 @ g != g @ b2:
        raise InternalCheckError("candidate G fails the intertwining identities")
    if c1 @ g != g @ c2:
        return GMatrixResult(False, None, 0, False)
    return GMatrixResult(True, g, 1, False)


def poly_u(pa: ParameterArray, i: int) -> ExactPolynomial:
    """u_i(x) = sum_n prod_{h<n}(x - theta_h) prod_{h<n}(theta*_i - theta*_h)
    / (varphi_1 ... varphi_n), for 0 <= n <= i.

    Normalized so that u_i(theta_0) = 1 (only the n = 0 term survives
    there).  Requires PA1 and PA2.
    """
    _check_index(pa, i)
    _require(pa, "poly_u", pa12_only=True)
    return _u_sequence(pa, pa.theta, pa.varphi)[i]


def poly_u_dual(pa: ParameterArray, i: int) -> ExactPolynomial:
    """The mirror of poly_u: theta reversed and phi in place of varphi."""
    _check_index(pa, i)
    _require(pa, "poly_u", pa12_only=True)
    return _u_sequence(pa, tuple(reversed(pa.theta)), pa.phi)[i]


def _check_index(pa: ParameterArray, i: int) -> None:
    if not 0 <= i <= pa.d:
        raise ValueError(f"index {i} outside 0..{pa.d}")


def poly_u_sequences(
    pa: ParameterArray,
) -> tuple[tuple[ExactPolynomial, ...], tuple[ExactPolynomial, ...]]:
    """(u_0, ..., u_d) and their duals, from one PA1/PA2 check.

    Every u_i combines the same running products prod_{h<n}(x - theta_h),
    so each sequence builds them once: O(d^3) field operations in all.
    """
    _require(pa, "poly_u", pa12_only=True)
    return (
        _u_sequence(pa, pa.theta, pa.varphi),
        _u_sequence(pa, tuple(reversed(pa.theta)), pa.phi),
    )


def _u_sequence(pa: ParameterArray, theta, denoms) -> tuple[ExactPolynomial, ...]:
    f = pa.field
    ts = pa.theta_star
    running = [[f.one]]
    for t in theta[: pa.d]:
        prev = running[-1]
        nt = f.neg(t)
        nxt = [f.mul(nt, prev[0])]
        for k in range(1, len(prev)):
            nxt.append(f.add(prev[k - 1], f.mul(nt, prev[k])))
        nxt.append(f.one)
        running.append(nxt)
    out = []
    for i in range(pa.d + 1):
        acc = [f.one] + [f.zero] * i
        coeff = f.one
        for n in range(1, i + 1):
            coeff = f.mul(coeff, f.div(f.sub(ts[i], ts[n - 1]), denoms[n - 1]))
            for k, c in enumerate(running[n]):
                acc[k] = f.add(acc[k], f.mul(coeff, c))
        out.append(ExactPolynomial._raw(f, acc))
    return tuple(out)


def duals_proportional(us, duals) -> bool:
    """Whether each polynomial of us is a scalar multiple of its dual.

    The scalar is fixed from the leading coefficients, so the comparison
    is exact.
    """
    for u, v in zip(us, duals, strict=True):
        if u.degree != v.degree:
            return False
        if u != v.scale(u.field.div(u.coeffs[-1], v.coeffs[-1])):
            return False
    return True


def check_poly_characterization(pa: ParameterArray) -> bool:
    """Whether every u_i is a scalar multiple of its dual.

    Given PA1 and PA2, this holds exactly when PA3-PA5 do.
    """
    return duals_proportional(*poly_u_sequences(pa))


@dataclass(frozen=True)
class ClassificationFingerprint:
    """Coarse classification data extracted from a valid array.

    For d <= 2 the defining ratio has no instances and the family is
    "small-diameter" with every other attribute None.  Otherwise beta + 1
    is the common PA5 ratio; the family tells how x^2 - beta x + 1 splits:
    beta = 2 is classical (q = 1), beta = -2 is bannai-ito (q = -1), the
    char-2 collapse of those two is char2-special, and anything else is
    q-type with q a root of that quadratic.  For q-type, q is reported in
    the base field when possible, else inside a constructed quadratic
    extension (q_field), else only by its minimal polynomial.
    """

    family: str
    beta: "FieldElement | None"
    beta_plus_one: "FieldElement | None"
    q: "FieldElement | None" = None
    q_field: "Field | None" = None
    q_minimal_poly: "ExactPolynomial | None" = None


def classify_beta(field: Field, beta) -> ClassificationFingerprint:
    """Family and q data for a known beta (the d >= 3 fingerprint core)."""
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
    disc = field.sub(field.mul(b, b), field.from_int(4))
    if field.characteristic() == 2:
        # 1/2 does not exist, so the root finder decides the quadratic
        roots = roots_in_field(quadratic)
        q = roots[0][0] if roots else None
    else:
        root = field.sqrt(disc)
        q = None if root is None else _smaller_root(field, b, root)
    if q is not None:
        return ClassificationFingerprint(FAMILY_Q_TYPE, beta_elem, r_elem, q=q)

    if isinstance(field, Rationals):
        # beta^2 - 4 = D t^2, so the roots (beta +- t sqrt D)/2 lie in Q(sqrt D)
        ext = QuadraticExtension(squarefree_part(disc.numerator * disc.denominator))
        t = field.sqrt(disc / ext.m)
        q = _smaller_root(ext, ext.from_parts(b, 0), ext.from_parts(0, t))
        return ClassificationFingerprint(FAMILY_Q_TYPE, beta_elem, r_elem, q=q, q_field=ext)

    # GF(p) nonresidue disc, or a quadratic-extension base needing degree 4:
    # report the minimal polynomial instead of a representative.
    return ClassificationFingerprint(
        FAMILY_Q_TYPE, beta_elem, r_elem, q_minimal_poly=quadratic
    )


def _smaller_root(field: Field, b, root) -> FieldElement:
    """The smaller by sort_key of (b +- root)/2, the roots of x^2 - b x + 1."""
    half = field.inv(field.from_int(2))
    roots = (field.mul(field.add(b, s), half) for s in (root, field.neg(root)))
    return min((FieldElement(field, r) for r in roots), key=FieldElement.sort_key)


def fingerprint(pa: ParameterArray) -> ClassificationFingerprint:
    """Classification fingerprint of a valid array.

    The ratio (theta_{i-2} - theta_{i+1})/(theta_{i-1} - theta_i) is
    determined for d >= 3 (one instance at d = 3, all equal by PA5 beyond)
    and equals beta + 1; below that the family is "small-diameter".
    """
    _require(pa, "fingerprint")
    f = pa.field
    if pa.d <= 2:
        return ClassificationFingerprint(FAMILY_SMALL_DIAMETER, None, None)
    ratio = f.div(
        f.sub(pa.theta[0], pa.theta[3]), f.sub(pa.theta[1], pa.theta[2])
    )
    return classify_beta(f, f.sub(ratio, f.one))


def affine_transform(pa: ParameterArray, a, b, a_star, b_star) -> ParameterArray:
    """The array (a theta + b, a* theta* + b*, a a* varphi, a a* phi).

    Affine changes of the two eigenvalue sequences preserve validity and
    the fingerprint; a and a_star must be nonzero.
    """
    f = pa.field
    pa_, pb = f.coerce(a), f.coerce(b)
    pas, pbs = f.coerce(a_star), f.coerce(b_star)
    if f.is_zero(pa_) or f.is_zero(pas):
        raise ValueError("affine scale factors must be nonzero")
    scale = f.mul(pa_, pas)
    return ParameterArray(
        f,
        [f.add(f.mul(pa_, t), pb) for t in pa.theta],
        [f.add(f.mul(pas, t), pbs) for t in pa.theta_star],
        [f.mul(scale, v) for v in pa.varphi],
        [f.mul(scale, v) for v in pa.phi],
    )


def parameter_array_to_dict(pa: ParameterArray) -> dict:
    """JSON-ready form: field descriptor, diameter, canonical strings."""
    ser = pa.field.serialize
    return {
        "field": field_to_dict(pa.field),
        "d": pa.d,
        "theta": [ser(v) for v in pa.theta],
        "theta_star": [ser(v) for v in pa.theta_star],
        "varphi": [ser(v) for v in pa.varphi],
        "phi": [ser(v) for v in pa.phi],
    }


def parameter_array_from_dict(data: dict) -> ParameterArray:
    def entry(key: str):
        # looked up in reading order, so the first fault is the one reported
        if key not in data:
            raise InvalidParameterArrayError(f"parameter array has no {key!r} key")
        return data[key]

    field = field_from_dict(entry("field"))
    pa = ParameterArray(
        field,
        *(_json_list(entry(key), key) for key in ("theta", "theta_star", "varphi", "phi")),
    )
    if "d" in data:
        declared = data["d"]
        # bool is an int subclass and 1.0 == 1, so both would pass the comparison
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise InvalidParameterArrayError(
                f"declared diameter {declared!r} is not an integer"
            )
        if declared != pa.d:
            raise InvalidParameterArrayError(
                f"declared diameter {declared} but theta has length {pa.d + 1}"
            )
    return pa


def validity_report_to_dict(report: ValidityReport) -> dict:
    return {
        "valid": report.valid,
        "axioms": {
            a.name: {
                "passed": a.passed,
                "evaluated": a.evaluated,
                "first_failure": a.first_failure,
                "detail": a.detail,
            }
            for a in report.axioms
        },
    }


def fingerprint_to_dict(fp: ClassificationFingerprint) -> dict:
    out: dict = {"family": fp.family}
    out["beta"] = None if fp.beta is None else str(fp.beta)
    out["beta_plus_one"] = None if fp.beta_plus_one is None else str(fp.beta_plus_one)
    out["q"] = None if fp.q is None else str(fp.q)
    out["q_field"] = None if fp.q_field is None else field_to_dict(fp.q_field)
    out["q_minimal_poly"] = (
        None
        if fp.q_minimal_poly is None
        else [str(c) for c in fp.q_minimal_poly.coefficients()]
    )
    return out


__all__ = [
    "AxiomStatus",
    "ClassificationFingerprint",
    "FAMILY_BANNAI_ITO",
    "FAMILY_CHAR2",
    "FAMILY_CLASSICAL",
    "FAMILY_Q_TYPE",
    "FAMILY_SMALL_DIAMETER",
    "GMatrixResult",
    "ParameterArray",
    "ValidityReport",
    "affine_transform",
    "check_poly_characterization",
    "classify_beta",
    "construct_bidiagonal",
    "construct_tridiagonal",
    "duals_proportional",
    "find_g_matrix",
    "fingerprint",
    "parameter_array_from_dict",
    "parameter_array_to_dict",
    "poly_u",
    "poly_u_dual",
    "poly_u_sequences",
    "reversal_intertwiner_systems",
    "tridiagonal_products",
    "validate",
    "validity_report_to_dict",
    "fingerprint_to_dict",
]
