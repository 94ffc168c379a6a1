"""Exact scalar fields: Q, GF(p), and quadratic extensions Q(sqrt m).

Payload conventions (the raw values field methods operate on):

- ``Rationals``: a backend rational (gmpy2 ``mpq`` or ``fractions.Fraction``),
  always in lowest terms with positive denominator.
- ``PrimeField(p)``: a plain ``int`` in ``range(p)``.
- ``QuadraticExtension(m)``: a pair ``(a, b)`` of backend rationals meaning
  ``a + b*sqrt(m)``; ``m`` is squarefree, not 0 or 1, and may be negative.

``FieldElement`` wraps one payload together with its field and provides the
usual operators; the matrix and polynomial layers call the payload-level
methods directly to keep inner loops lean.

Element strings: rationals serialize as ``"a"`` or ``"a/b"``; prime-field
elements as the canonical decimal residue; quadratic-extension elements as
``"a/b+c/d*s"`` where ``s`` stands for sqrt(m) and zero terms are elided
(``"0"``, ``"s"``, ``"-s"``, ``"1/2-3*s"``).  Parsing accepts any integer
for prime fields and reduces it; serialization always emits the canonical
form.

Roots (``roots_in_field``) come from one kernel on raw residues.  Over
GF(p) the distinct roots of f are those of r = gcd(f, x^p - x), with x^p
taken mod f by repeated squaring; gcd(r, (x + a)^((p-1)/2) - 1) for
seeded random a splits r into linear factors (Cantor and Zassenhaus,
Math. Comp. 36, 1981), in O(d^2 log p) operations for every p the field
accepts.  Over Q the kernel runs modulo the smallest odd prime at which
the squarefree part of f keeps its degree and stays squarefree, and
Newton iteration lifts each root p-adically past twice the Cauchy bound,
where centring recovers every rational root exactly.  Either way, exact
deflation of f certifies each candidate and counts its multiplicity.
Q(sqrt m) factors over Q with sympy.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from ._backend import BACKEND, Rational
from .errors import (
    FieldConstructionError,
    FieldMismatchError,
    ParseError,
    PolynomialError,
    SearchTooLargeError,
    UnsupportedFieldOperationError,
)

_RAT_ZERO = Rational(0)
_RAT_ONE = Rational(1)
_RAT_TYPES = (int, Fraction, type(_RAT_ZERO))

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_DIVISION_BOUND = 10**7


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < _TRIAL_DIVISION_BOUND:
        if n % 2 == 0:
            return n == 2
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorint(n: int) -> dict[int, int]:
    # Guard keeps exactness: an incomplete factorization would silently drop
    # root candidates, so refuse inputs we cannot certify.
    if n.bit_length() > 200:
        raise SearchTooLargeError(
            f"cannot factor {n.bit_length()}-bit integer exactly; "
            "coefficients this large are outside the supported range"
        )
    import sympy

    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor pattern: n = squarefree_part(n) * square."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in _factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


def _sqrt_rational(x) -> "Rational | None":
    if x < 0:
        return None
    num, den = int(x.numerator), int(x.denominator)
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Rational(rn, rd)
    return None


def _sqrt_mod_p(a: int, p: int) -> "int | None":
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _parse_rational(text: str) -> Rational:
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Rational(int(num), int(den))
    return Rational(int(text))


class Field:
    """Base class; subclasses provide payload-level arithmetic."""

    kind: str

    def _params(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._params()))

    def __repr__(self) -> str:
        return self.name

    # --- payload arithmetic (overridden) ---

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_rational(self, r):
        raise NotImplementedError

    def characteristic(self) -> int:
        raise NotImplementedError

    def serialize(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def sqrt(self, a):
        """A payload x with x*x == a, or None when a is not a square."""
        raise NotImplementedError

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    # --- element layer ---

    def coerce(self, value):
        """Turn ints, strings, rationals, or same-field elements into a payload."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(
                    f"element of {value.field.name} used in {self.name}"
                )
            return value.payload
        if isinstance(value, bool) or isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, _RAT_TYPES):
            return self.from_rational(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(
            f"cannot coerce {type(value).__name__} into {self.name}; "
            "exact inputs only (int, rational, or element string)"
        )

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    def __call__(self, value) -> "FieldElement":
        return self.element(value)

    def sort_key(self, a) -> tuple[int, str]:
        # Shortlex on the canonical string: length first, then bytes.  This
        # is the single ordering used for every deterministic selection.
        s = self.serialize(a)
        return (len(s), s)

    def random_element(self, rng) -> "FieldElement":
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers."""

    kind = "rationals"
    name = "Q"

    def __init__(self):
        self.zero = _RAT_ZERO
        self.one = _RAT_ONE

    def _params(self) -> tuple:
        return ()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return Rational(n)

    def from_rational(self, r):
        if isinstance(r, Fraction):
            return Rational(r.numerator, r.denominator)
        return Rational(r)

    def characteristic(self) -> int:
        return 0

    def serialize(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return _parse_rational(text.strip())

    def sqrt(self, a):
        return _sqrt_rational(a)

    def pow(self, a, n: int):
        if n < 0 and a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a**n

    def random_element(self, rng) -> "FieldElement":
        return self.element(Rational(rng.randint(-60, 60), rng.randint(1, 12)))


class PrimeField(Field):
    """GF(p) for prime p, elements stored as canonical residues."""

    kind = "prime_field"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise FieldConstructionError(f"prime field modulus must be an integer >= 2, got {p!r}")
        if p > 2**61 - 1:
            raise FieldConstructionError(f"modulus {p} exceeds the supported bound 2^61 - 1")
        if not _is_prime(p):
            raise FieldConstructionError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def _params(self) -> tuple:
        return (self.p,)

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return n % self.p

    def from_rational(self, r):
        num, den = int(r.numerator) % self.p, int(r.denominator) % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator of {r} vanishes modulo {self.p}"
            )
        return num * pow(den, -1, self.p) % self.p

    def characteristic(self) -> int:
        return self.p

    def serialize(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        text = text.strip()
        if not re.fullmatch(r"[+-]?\d+", text):
            raise ParseError(f"malformed {self.name} element {text!r}")
        return int(text) % self.p

    def sqrt(self, a):
        return _sqrt_mod_p(a, self.p)

    def pow(self, a, n: int):
        if a == 0 and n < 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return pow(a, n, self.p)

    def random_element(self, rng) -> "FieldElement":
        return self.element(rng.randrange(self.p))


class QuadraticExtension(Field):
    """Q(sqrt m) for squarefree m not in {0, 1}; payloads are (a, b) pairs."""

    kind = "quadratic_extension"

    def __init__(self, m: int):
        if not isinstance(m, int):
            raise FieldConstructionError(f"discriminant must be an integer, got {m!r}")
        if m in (0, 1):
            raise FieldConstructionError(f"discriminant {m} does not give a quadratic extension")
        if squarefree_part(m) != m:
            raise FieldConstructionError(f"discriminant {m} is not squarefree")
        self.m = m
        self._mr = Rational(m)
        self.name = f"Q(sqrt {m})"
        self.zero = (_RAT_ZERO, _RAT_ZERO)
        self.one = (_RAT_ONE, _RAT_ZERO)

    def _params(self) -> tuple:
        return (self.m,)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 + self._mr * a1 * b1, a0 * b1 + a1 * b0)

    def neg(self, a):
        return (-a[0], -a[1])

    def inv(self, a):
        a0, a1 = a
        norm = a0 * a0 - self._mr * a1 * a1
        if norm == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return (a0 / norm, -a1 / norm)

    def is_zero(self, a) -> bool:
        return a[0] == 0 and a[1] == 0

    def from_int(self, n: int):
        return (Rational(n), _RAT_ZERO)

    def from_rational(self, r):
        if isinstance(r, Fraction):
            return (Rational(r.numerator, r.denominator), _RAT_ZERO)
        return (Rational(r), _RAT_ZERO)

    def from_parts(self, a, b):
        """Payload a + b*sqrt(m) from two rational-like parts."""
        base = Rationals()
        return (base.coerce(a), base.coerce(b))

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return self.from_parts(*value)
        return super().coerce(value)

    def characteristic(self) -> int:
        return 0

    def serialize(self, a) -> str:
        a0, a1 = a
        if a1 == 0:
            return str(a0)
        if a1 == 1:
            s_part = "s"
        elif a1 == -1:
            s_part = "-s"
        else:
            s_part = f"{a1}*s"
        if a0 == 0:
            return s_part
        if s_part.startswith("-"):
            return f"{a0}{s_part}"
        return f"{a0}+{s_part}"

    def parse(self, text: str):
        compact = text.strip().replace(" ", "")
        if not compact:
            raise ParseError("empty element string")
        terms = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(terms) != compact:
            raise ParseError(f"malformed {self.name} element {text!r}")
        rat, coef = None, None
        for term in terms:
            sign = _RAT_ONE
            body = term
            if body[0] in "+-":
                if body[0] == "-":
                    sign = -_RAT_ONE
                body = body[1:]
            if body == "s":
                part = _RAT_ONE
            elif body.endswith("*s"):
                part = _parse_rational(body[:-2])
            else:
                if rat is not None or coef is not None:
                    raise ParseError(f"malformed {self.name} element {text!r}")
                rat = sign * _parse_rational(body)
                continue
            if coef is not None:
                raise ParseError(f"malformed {self.name} element {text!r}")
            coef = sign * part
        return (rat if rat is not None else _RAT_ZERO,
                coef if coef is not None else _RAT_ZERO)

    def sqrt(self, a):
        a0, a1 = a
        if a1 == 0:
            r = _sqrt_rational(a0)
            if r is not None:
                return (r, _RAT_ZERO)
            r = _sqrt_rational(a0 / self._mr)
            if r is not None:
                return (_RAT_ZERO, r)
            return None
        norm = a0 * a0 - self._mr * a1 * a1
        s = _sqrt_rational(norm)
        if s is None:
            return None
        for t in ((a0 + s) / 2, (a0 - s) / 2):
            x = _sqrt_rational(t)
            if x is not None and x != 0:
                return (x, a1 / (2 * x))
        return None

    def random_element(self, rng) -> "FieldElement":
        return self.element(
            (
                Rational(rng.randint(-30, 30), rng.randint(1, 8)),
                Rational(rng.randint(-30, 30), rng.randint(1, 8)),
            )
        )


class FieldElement:
    """One field value; arithmetic stays inside the carrying field."""

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _coerce_other(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixed arithmetic between {self.field.name} and {other.field.name}"
                )
            return other.payload
        if isinstance(other, (int, *(_RAT_TYPES))) and not isinstance(other, bool):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(p, self.payload))

    def __mul__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.payload, p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.payload, p))

    def __rtruediv__(self, other):
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(p, self.payload))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.payload))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return FieldElement(self.field, self.field.pow(self.payload, n))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.payload == self.payload
        p = self._coerce_other(other)
        if p is None:
            return NotImplemented
        return self.payload == p

    def __hash__(self) -> int:
        return hash((self.field, self.payload))

    def __bool__(self) -> bool:
        return not self.field.is_zero(self.payload)

    @property
    def is_zero(self) -> bool:
        return self.field.is_zero(self.payload)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.payload))

    def sqrt(self) -> "FieldElement | None":
        root = self.field.sqrt(self.payload)
        return None if root is None else FieldElement(self.field, root)

    def sort_key(self) -> tuple[int, str]:
        return self.field.sort_key(self.payload)

    def __str__(self) -> str:
        return self.field.serialize(self.payload)

    def __repr__(self) -> str:
        return f"{self.field.name}[{self}]"


class ExactPolynomial:
    """Dense univariate polynomial; coefficients run low degree to high.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        payloads = [field.coerce(c) for c in coeffs]
        while payloads and field.is_zero(payloads[-1]):
            payloads.pop()
        self.field = field
        self.coeffs = tuple(payloads)

    @classmethod
    def _raw(cls, field: Field, payloads) -> "ExactPolynomial":
        poly = object.__new__(cls)
        trimmed = list(payloads)
        while trimmed and field.is_zero(trimmed[-1]):
            trimmed.pop()
        poly.field = field
        poly.coeffs = tuple(trimmed)
        return poly

    @classmethod
    def from_roots(cls, field: Field, roots) -> "ExactPolynomial":
        out = [field.one]
        for r in roots:
            rp = field.coerce(r)
            nxt = [field.zero] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i + 1] = field.add(nxt[i + 1], c)
                nxt[i] = field.sub(nxt[i], field.mul(c, rp))
            out = nxt
        return cls._raw(field, out)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return FieldElement(self.field, self.coeffs[i])
        return FieldElement(self.field, self.field.zero)

    def coefficients(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c) for c in self.coeffs)

    def eval_payload(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def __call__(self, x) -> FieldElement:
        return FieldElement(self.field, self.eval_payload(self.field.coerce(x)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactPolynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        f = self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            f.add(
                self.coeffs[i] if i < len(self.coeffs) else f.zero,
                other.coeffs[i] if i < len(other.coeffs) else f.zero,
            )
            for i in range(n)
        ]
        return ExactPolynomial._raw(f, out)

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + (-other)

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial._raw(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        f = self._same_field(other)
        if self.is_zero or other.is_zero:
            return ExactPolynomial._raw(f, [])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return ExactPolynomial._raw(f, out)

    def scale(self, scalar) -> "ExactPolynomial":
        s = self.field.coerce(scalar)
        return ExactPolynomial._raw(
            self.field, [self.field.mul(c, s) for c in self.coeffs]
        )

    def monic(self) -> "ExactPolynomial":
        if self.is_zero:
            raise PolynomialError("the zero polynomial has no monic form")
        return self.scale(FieldElement(self.field, self.field.inv(self.coeffs[-1])))

    def deflate(self, root) -> tuple["ExactPolynomial", FieldElement]:
        """Synthetic division by (x - root): quotient and remainder."""
        f = self.field
        r = f.coerce(root)
        if self.is_zero:
            raise PolynomialError("cannot deflate the zero polynomial")
        quotient = [f.zero] * (len(self.coeffs) - 1)
        acc = f.zero
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = f.add(f.mul(acc, r), self.coeffs[i])
            quotient[i - 1] = acc
        rem = f.add(f.mul(acc, r), self.coeffs[0])
        return ExactPolynomial._raw(f, quotient), FieldElement(f, rem)

    def _same_field(self, other: "ExactPolynomial") -> Field:
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")
        return self.field

    def __repr__(self) -> str:
        inner = ", ".join(self.field.serialize(c) for c in self.coeffs)
        return f"ExactPolynomial({self.field.name}; [{inner}])"


def _mults_by_deflation(poly: ExactPolynomial, candidates) -> list[tuple]:
    """Roots among candidates with multiplicities, found by exact deflation."""
    field = poly.field
    found = []
    current = poly
    for cand in candidates:
        mult = 0
        while current.degree >= 1:
            quotient, rem = current.deflate(cand)
            if not rem.is_zero:
                break
            mult += 1
            current = quotient
        if mult:
            found.append((cand, mult))
        if current.degree < 1:
            break
    return found


# --- root kernel on raw residues (see the module docstring) ---
#
# Polynomials below are plain lists of ints, low degree first, with no
# trailing zeros.


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic_mod(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divmod_mod(a: list, f: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by monic f over GF(p); a is consumed."""
    n = len(f) - 1
    quotient = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        if c:
            quotient[i - n] = c
            k = i - n
            for j in range(n):
                a[k + j] -= c * f[j]
    return quotient, _trim([c % p for c in a[:n]])


def _mulmod(a: list, b: list, f: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divmod_mod(out, f, p)[1]


def _powmod(base: list, e: int, f: list, p: int) -> list:
    """base^e modulo (f, p) by repeated squaring; f monic."""
    base = _divmod_mod(list(base), f, p)[1]
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, base, f, p)
    return out


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p); the gcd of two zero polynomials is []."""
    a = list(a)
    while b:
        b = _monic_mod(b, p)
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _split_linear(r: list, p: int, rng, out: list) -> None:
    """Roots of a monic product r of distinct linear factors, p odd."""
    if len(r) == 2:
        out.append(-r[0] % p)
        return
    while True:
        h = _powmod([rng.randrange(p), 1], (p - 1) // 2, r, p) or [0]
        h[0] = (h[0] - 1) % p
        g = _gcd_mod(r, _trim(h), p)
        if 1 < len(g) < len(r):
            break
    _split_linear(g, p, rng, out)
    _split_linear(_divmod_mod(list(r), g, p)[0], p, rng, out)


def _distinct_roots_mod(f: list, p: int) -> list[int]:
    """The distinct roots in GF(p) of a nonzero residue list f."""
    f = _monic_mod(_trim([c % p for c in f]), p)
    if p == 2:  # f(0) = f[0] and f(1) = sum(f)
        return [x for x, value in ((0, f[0]), (1, sum(f))) if value % 2 == 0]
    if len(f) < 2:
        return []
    h = _powmod([0, 1], p, f, p)
    h += [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    r = _gcd_mod(f, _trim(h), p)
    out: list[int] = []
    if len(r) > 1:
        _split_linear(r, p, random.Random(0), out)
    return out


def _prim(a: list) -> list:
    """Primitive part of an integer polynomial, positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _gcd_int(a: list, b: list) -> list:
    """Primitive gcd in Z[x] by the primitive remainder sequence."""
    a, b = _prim(a), _prim(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        n, lead = len(b) - 1, b[-1]
        r = list(a)
        for i in range(len(r) - 1, n - 1, -1):
            c = r.pop()
            if c:
                g = math.gcd(lead, c)
                s, t = lead // g, c // g
                k = i - n
                r = [x * s for x in r]
                for j in range(n):
                    r[k + j] -= t * b[j]
        if not _trim(r):
            return b
        a, b = b, _prim(r)
    return [1]


def _exact_quotient_int(a: list, b: list) -> list:
    """a / b in Z[x] when b divides a exactly."""
    a = list(a)
    n = len(b) - 1
    quotient = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] // b[-1]
        quotient[i - n] = c
        for j in range(n + 1):
            a[i - n + j] -= c * b[j]
    return quotient


def _next_prime(p: int) -> int:
    p += 2
    while not _is_prime(p):
        p += 2
    return p


def _rational_candidates(f: list) -> list:
    """Every rational root of the primitive integer polynomial f, and more.

    A root a/b in lowest terms of the squarefree part s has b | lead(s),
    so it is the unique p-adic lift of a simple root of s mod p, and
    |lead * a/b| <= |lead| + max|c_i| (Cauchy) stays below m/2 once the
    lift reaches modulus m; centring lead * r mod m recovers it exactly.
    """
    sf = _exact_quotient_int(f, _gcd_int(f, _derivative(f)))
    lead = sf[-1]
    ds = _derivative(sf)
    p = 3
    while lead % p == 0 or len(_gcd_mod([c % p for c in sf], _trim([c % p for c in ds]), p)) > 1:
        p = _next_prime(p)
    bound = 2 * (abs(lead) + max(abs(c) for c in sf))
    out = []
    for r in _distinct_roots_mod(sf, p):
        m = p
        while m <= bound:
            m *= m
            value = slope = 0
            for c in reversed(sf):
                slope = (slope * r + value) % m
                value = (value * r + c) % m
            r = (r - value * pow(slope, -1, m)) % m
        v = lead * r % m
        if 2 * v > m:
            v -= m
        out.append(Rational(v, lead))
    return out


def _roots_rationals(poly: ExactPolynomial) -> list[tuple]:
    scale = math.lcm(*(int(c.denominator) for c in poly.coeffs))
    ints = _prim([int(c * scale) for c in poly.coeffs])
    reduced = ExactPolynomial._raw(poly.field, [Rational(c) for c in ints])
    return _mults_by_deflation(reduced, _rational_candidates(ints))


def _roots_prime_field(poly: ExactPolynomial) -> list[tuple]:
    return _mults_by_deflation(poly, _distinct_roots_mod(list(poly.coeffs), poly.field.p))


def _quadratic_roots_in_field(field: Field, c0, c1, c2) -> "list[tuple] | None":
    """Roots of c2 x^2 + c1 x + c0 inside field, or None when irreducible."""
    disc = field.sub(field.mul(c1, c1), field.mul(field.from_int(4), field.mul(c2, c0)))
    s = field.sqrt(disc)
    if s is None:
        return None
    two_a = field.mul(field.from_int(2), c2)
    if field.is_zero(s):
        return [(field.div(field.neg(c1), two_a), 2)]
    r1 = field.div(field.sub(s, c1), two_a)
    r2 = field.div(field.sub(field.neg(s), c1), two_a)
    return [(r1, 1), (r2, 1)]


def _roots_quadext(poly: ExactPolynomial) -> list[tuple]:
    field = poly.field
    degree = poly.degree
    if degree == 1:
        c0, c1 = poly.coeffs
        return [(field.div(field.neg(c0), c1), 1)]
    if degree == 2:
        c0, c1, c2 = poly.coeffs
        return _quadratic_roots_in_field(field, c0, c1, c2) or []
    if any(c[1] != 0 for c in poly.coeffs):
        raise UnsupportedFieldOperationError(
            f"root finding over {field.name} covers degree <= 2 and arbitrary-degree "
            f"polynomials with rational coefficients; got degree {degree} with "
            "irrational coefficients"
        )

    dens = [int(c[0].denominator) for c in poly.coeffs]
    scale = math.lcm(*dens)
    ints = [int(c[0] * scale) for c in poly.coeffs]

    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(ints)), x, domain="QQ").factor_list()
    found = []
    for factor, mult in factors:
        fc = [Rational(int(c.p), int(c.q)) for c in reversed(factor.all_coeffs())]
        if factor.degree() == 1:
            root = (-fc[0] / fc[1], _RAT_ZERO)
            found.append((root, mult))
        elif factor.degree() == 2:
            pair = _quadratic_roots_in_field(
                field, (fc[0], _RAT_ZERO), (fc[1], _RAT_ZERO), (fc[2], _RAT_ZERO)
            )
            if pair:
                found.extend((root, mult) for root, _ in pair)
        # degree >= 3 irreducible over Q has no root in a quadratic extension
    return found


def roots_in_field(poly: ExactPolynomial) -> list[tuple[FieldElement, int]]:
    """All roots of poly lying in its own field, with multiplicities.

    Sorted by the canonical shortlex order on serialized roots.  Over Q
    and GF(p) every polynomial is decided, with no size limit on p or on
    the coefficients; roots mod p by gcd with x^p - x and equal-degree
    splitting, lifted p-adically over Q, each certified by exact
    deflation.  Raises PolynomialError for the zero polynomial, and
    UnsupportedFieldOperationError over Q(sqrt m) for degree >= 3 with
    irrational coefficients.
    """
    if poly.is_zero:
        raise PolynomialError("every scalar is a root of the zero polynomial")
    field = poly.field
    if poly.degree < 1:
        return []
    if isinstance(field, PrimeField):
        raw = _roots_prime_field(poly)
    elif isinstance(field, Rationals):
        raw = _roots_rationals(poly)
    else:
        raw = _roots_quadext(poly)
    raw.sort(key=lambda pair: field.sort_key(pair[0]))
    return [(FieldElement(field, r), m) for r, m in raw]


def verify_root_multiset(poly: ExactPolynomial, candidates) -> "list[tuple] | None":
    """Check whether candidate payloads exactly exhaust poly's roots.

    Returns (root, multiplicity) pairs when repeated deflation by the
    candidates reduces poly to a nonzero constant, None otherwise.  Used to
    certify externally supplied eigenvalue hints without trusting them.
    """
    if poly.is_zero:
        return None
    field = poly.field
    seen = []
    for cand in candidates:
        payload = field.coerce(cand)
        if all(payload != s for s, _ in seen):
            seen.append((payload, 0))
    found = _mults_by_deflation(poly, [s for s, _ in seen])
    if sum(m for _, m in found) == poly.degree:
        found.sort(key=lambda pair: field.sort_key(pair[0]))
        return found
    return None


_FIELD_NAME_RE = re.compile(
    r"(?i)^\s*(?:(q|qq|rationals)|gf\(\s*(\d+)\s*\)|q\(\s*sqrt\s*(-?\d+)\s*\))\s*$"
)


def parse_field_name(text: str) -> Field:
    """Field from a command-line style name: Q, GF(7), Q(sqrt 2)."""
    match = _FIELD_NAME_RE.match(text)
    if not match:
        raise ParseError(
            f"unrecognized field {text!r}; expected Q, GF(p), or Q(sqrt m)"
        )
    if match.group(1):
        return Rationals()
    if match.group(2):
        return PrimeField(int(match.group(2)))
    return QuadraticExtension(int(match.group(3)))


def field_to_dict(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, PrimeField):
        return {"kind": "prime_field", "p": field.p}
    if isinstance(field, QuadraticExtension):
        return {"kind": "quadratic_extension", "discriminant": field.m}
    raise TypeError(f"unknown field {field!r}")


def field_from_dict(data: dict) -> Field:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError(f"field description must be an object with a 'kind': {data!r}")
    kind = data["kind"]
    if kind == "rationals":
        return Rationals()
    if kind == "prime_field":
        if "p" not in data:
            raise ParseError("prime_field needs a modulus 'p'")
        return PrimeField(data["p"])
    if kind == "quadratic_extension":
        if "discriminant" not in data:
            raise ParseError("quadratic_extension needs a 'discriminant'")
        return QuadraticExtension(data["discriminant"])
    raise ParseError(f"unknown field kind {kind!r}")


__all__ = [
    "BACKEND",
    "ExactPolynomial",
    "Field",
    "FieldElement",
    "PrimeField",
    "QuadraticExtension",
    "Rationals",
    "field_from_dict",
    "field_to_dict",
    "parse_field_name",
    "roots_in_field",
    "squarefree_part",
    "verify_root_multiset",
]
