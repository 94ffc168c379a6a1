"""Exact scalar fields: Q, GF(p), and quadratic extensions Q(sqrt m).

Payload conventions (the raw values field methods operate on):

- ``Rationals``: a ``fractions.Fraction``, always in lowest terms with
  positive denominator.
- ``PrimeField(p)``: a plain ``int`` in ``range(p)``.
- ``QuadraticExtension(m)``: a pair ``(a, b)`` of ``Fraction``s meaning
  ``a + b*sqrt(m)``; ``squarefree_part(m) == m``, not 0 or 1, may be negative.

``FieldElement`` wraps one payload together with its field and provides the
usual operators; the polynomial layer calls the payload-level methods
directly to keep inner loops lean.  The matrix layer works on integer
images instead: ``lift`` takes a row of payloads to integers (pairs of
integers over Q(sqrt m), residues over GF(p)) over one positive
denominator, ``dot`` and ``combine`` multiply and exactly divide them
(``add``, ``sub`` and ``image_mul`` for single entries), and ``lower``
and ``quotients`` return canonical payloads, one normalisation per entry.

Element strings: rationals serialize as ``"a"`` or ``"a/b"``; prime-field
elements as the canonical decimal residue; quadratic-extension elements as
``"a/b+c/d*s"`` where ``s`` stands for sqrt(m) and zero terms are elided
(``"0"``, ``"s"``, ``"-s"``, ``"1/2-3*s"``).  Parsing accepts any integer
for prime fields and reduces it; serialization always emits the canonical
form.

Roots (``roots_in_field``, and ``sqrt`` over Q(sqrt m)) come from one
kernel on raw residues.  Over GF(p) the distinct roots of f are those of
r = gcd(f, x^p - x), with x^p taken mod f by repeated squaring;
gcd(r, (x + a)^((p-1)/2) - 1) for seeded random a splits r into linear
factors (Cantor and Zassenhaus, Math. Comp. 36, 1981), in O(d^2 log p)
operations for every p the field accepts.  Over Q and Q(sqrt m) the
kernel runs modulo the smallest odd prime at which the squarefree part
of f (of its norm f * conj(f) over Q(sqrt m), with m a square mod p)
keeps its degree and stays squarefree, and Newton iteration lifts each
root p-adically past a multiple of the Cauchy bound, where centring
recovers every root exactly.  Exact deflation of f certifies each
candidate and counts its multiplicity.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from .errors import (
    FieldConstructionError,
    FieldMismatchError,
    ParseError,
    PolynomialError,
)

# Kept: every report's "backend" key and the perfbench digests are pinned to it.
BACKEND = "fractions"

_RAT_ZERO = Fraction(0)
_RAT_ONE = Fraction(1)
_RAT_TYPES = (int, Fraction)

# Deterministic Miller-Rabin witnesses: the first twelve primes decide
# every n below psi_12 = 318665857834031151167461 = 399165290221 *
# 798330580441, the least composite that passes all twelve.  Callers stay
# far below it: PrimeField refuses p > 2^61 - 1 before testing, and the
# lifting primes are small.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
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


_SMALL_PRIMES = [p for p in range(2, 1 << 10) if _is_prime(p)]


def squarefree_part(n: int) -> int:
    """A divisor m of n, not a square unless it is +-1, with n/m a square.

    The squares of primes below 2^10 are stripped by trial division and
    the cofactor is dropped when it is a perfect square.  Every other
    prime of the cofactor is at least 1031, so below 1031^3 > 2^30 it is
    1, q, q^2 or qr and m is the squarefree part of n exactly; above
    that, m still labels the same quadratic field as n.
    """
    if n == 0:
        return 0
    out, n = (-1, -n) if n < 0 else (1, n)
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
    if math.isqrt(n) ** 2 != n:
        out *= n
    return out


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


# ASCII digits only: \d also matches the digits of other scripts (U+0661 ...)
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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
        """A payload x with x*x == a, or None when a is not a square.

        Over Q(sqrt m), the largest of the roots of x^2 - a: the one whose
        first nonzero part is positive.  Rationals (the nonnegative root,
        by integer square roots) and PrimeField override this.
        """
        square = ExactPolynomial._raw(self, [self.neg(a), self.zero, self.one])
        return max((root.payload for root, _ in roots_in_field(square)), default=None)

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

    # --- integer image (overridden): the matrix kernel's arithmetic ---
    #
    # A row of payloads lifts to an image row over one positive integer
    # denominator: Z for Q, residues over 1 for GF(p), Z[sqrt m] for
    # Q(sqrt m).  Image entries are multiplied and exactly divided without
    # normalising; lower and quotients turn results back into canonical
    # payloads, one normalisation per entry.  image_zero and image_one are
    # the images of 0 and 1.  add and sub act on a payload's parts one by
    # one, so they take image entries too, and image_mul multiplies two:
    # on integers and pairs of integers nothing is normalised, and over
    # GF(p) residues stay reduced, so equal images compare equal.

    def lift(self, payloads) -> tuple[list, int]:
        """(image, den): a new list with image[k] / den == payloads[k]."""
        raise NotImplementedError

    def lower(self, v, den: int):
        """The payload v / den of an image entry over a positive integer."""
        raise NotImplementedError

    def quotients(self, values, w) -> list:
        """The payloads v / w for image entries v and a nonzero image entry w."""
        raise NotImplementedError

    def dot(self, x, y, support):
        """Image of sum x[k] y[k] over k in support, left unreduced."""
        raise NotImplementedError

    def image_mul(self, x, y):
        """The image of x y for image entries x and y."""
        raise NotImplementedError

    def combine(self, row, p, prev, a=None, lead=None) -> list:
        """(p row - a lead) / prev entrywise, or p row / prev without a lead.

        The caller guarantees that every division is exact in the image
        (Bareiss's identity); the result is a new list.
        """
        raise NotImplementedError

    # --- element layer ---

    def coerce(self, value):
        """Turn ints, strings, rationals, or same-field elements into a payload."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(
                    f"element of {value.field.name} used in {self.name}"
                )
            return value.payload
        if isinstance(value, bool):
            # JSON true/false are not numbers
            raise TypeError(f"cannot coerce bool {value!r} into {self.name}")
        if isinstance(value, int):
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
        return Fraction(n)

    def from_rational(self, r):
        return r if type(r) is Fraction else Fraction(r)

    def characteristic(self) -> int:
        return 0

    def serialize(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return _parse_rational(text.strip())

    def sqrt(self, a):
        """The nonnegative x with x*x == a, or None when a is not a square."""
        if a >= 0:
            root = Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))
            if root * root == a:
                return root
        return None

    def pow(self, a, n: int):
        if n < 0 and a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a**n

    image_zero = 0
    image_one = 1

    def lift(self, payloads):
        ratios = [v.as_integer_ratio() for v in payloads]
        den = math.lcm(*(d for _, d in ratios))
        if den == 1:
            return [n for n, _ in ratios], 1
        return [n * (den // d) for n, d in ratios], den

    def lower(self, v, den: int):
        return Fraction(v, den) if v else _RAT_ZERO

    def quotients(self, values, w) -> list:
        return [Fraction(v, w) if v else _RAT_ZERO for v in values]

    def dot(self, x, y, support):
        return sum(x[k] * y[k] for k in support)

    def image_mul(self, x, y):
        return x * y

    def combine(self, row, p, prev, a=None, lead=None) -> list:
        if lead is None:
            return [v * p // prev for v in row]
        return [(v * p - a * w) // prev for v, w in zip(row, lead)]

    def random_element(self, rng) -> "FieldElement":
        return self.element(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))


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
        if not re.fullmatch(r"[+-]?[0-9]+", text):
            raise ParseError(f"malformed {self.name} element {text!r}")
        return int(text) % self.p

    def sqrt(self, a):
        """A residue x with x*x == a, or None when a is not a square mod p.

        Not the larger of the two residues, but the one this rule reaches:
        a^((p+1)/4) when p = 3 mod 4, otherwise Tonelli-Shanks from the
        least non-residue.  Symmetric splits print it, so it is kept.
        """
        return _sqrt_mod_p(a, self.p)

    def pow(self, a, n: int):
        if a == 0 and n < 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return pow(a, n, self.p)

    image_zero = 0
    image_one = 1

    def lift(self, payloads):
        return list(payloads), 1

    def lower(self, v, den: int):
        return v % self.p  # residues lift over den = 1

    def quotients(self, values, w) -> list:
        p = self.p
        inv = pow(w, -1, p)
        return [v * inv % p for v in values]

    def dot(self, x, y, support):
        return sum(x[k] * y[k] for k in support)

    def image_mul(self, x, y):
        return x * y % self.p

    def combine(self, row, p, prev, a=None, lead=None) -> list:
        # one reduction per entry: (p/prev) row - (a/prev) lead, mod the prime
        q = self.p
        inv = pow(prev, -1, q)
        s = p * inv % q
        if lead is None:
            return [v * s % q for v in row]
        t = a * inv % q
        return [(v * s - w * t) % q for v, w in zip(row, lead)]

    def random_element(self, rng) -> "FieldElement":
        return self.element(rng.randrange(self.p))


class QuadraticExtension(Field):
    """Q(sqrt m) for m not 0 or 1 with squarefree_part(m) == m; payloads are (a, b)."""

    kind = "quadratic_extension"

    def __init__(self, m: int):
        if not isinstance(m, int):
            raise FieldConstructionError(f"discriminant must be an integer, got {m!r}")
        if m in (0, 1):
            raise FieldConstructionError(f"discriminant {m} does not give a quadratic extension")
        if squarefree_part(m) != m:
            raise FieldConstructionError(f"discriminant {m} is not squarefree")
        self.m = m
        self._mr = Fraction(m)
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
        return (Fraction(n), _RAT_ZERO)

    def from_rational(self, r):
        return (Fraction(r), _RAT_ZERO)

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

    # image entries are pairs (u, v) of ints meaning u + v*sqrt(m)
    image_zero = (0, 0)
    image_one = (1, 0)

    # zero entries share one image and one payload, so sparse grids stay small
    def lift(self, payloads):
        ratios = [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in payloads]
        den = math.lcm(*(d for pair in ratios for _, d in pair))
        zero = self.image_zero
        return [
            (a * (den // da), b * (den // db)) if a or b else zero
            for (a, da), (b, db) in ratios
        ], den

    def lower(self, v, den: int):
        a, b = v
        if not (a or b):
            return self.zero
        return (
            Fraction(a, den) if a else _RAT_ZERO,
            Fraction(b, den) if b else _RAT_ZERO,
        )

    def quotients(self, values, w) -> list:
        # v / w = v * conj(w) / norm(w); the norm is negative for some w when m > 0
        m = self.m
        c, d = w
        norm = c * c - m * d * d
        md = m * d
        return [self.lower((a * c - md * b, b * c - a * d), norm) for a, b in values]

    def dot(self, x, y, support):
        re = ir = sq = 0
        for k in support:
            a, b = x[k]
            c, d = y[k]
            re += a * c
            ir += b * d
            sq += a * d + b * c
        return (re + self.m * ir, sq)

    def image_mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c + self.m * b * d, a * d + b * c)

    def combine(self, row, p, prev, a=None, lead=None) -> list:
        # (p row - a lead) conj(prev) / norm(prev), exact in Z[sqrt m]
        m = self.m
        c, d = prev
        norm = c * c - m * d * d
        p0, p1 = p
        s0, s1 = p0 * c - m * p1 * d, p1 * c - p0 * d
        ms1 = m * s1
        if lead is None:
            return [((s0 * u + ms1 * v) // norm, (s0 * v + s1 * u) // norm) for u, v in row]
        a0, a1 = a
        t0, t1 = a0 * c - m * a1 * d, a1 * c - a0 * d
        mt1 = m * t1
        return [
            (
                (s0 * u + ms1 * v - t0 * x - mt1 * y) // norm,
                (s0 * v + s1 * u - t0 * y - t1 * x) // norm,
            )
            for (u, v), (x, y) in zip(row, lead)
        ]

    def random_element(self, rng) -> "FieldElement":
        return self.element(
            (
                Fraction(rng.randint(-30, 30), rng.randint(1, 8)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 8)),
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
        if isinstance(other, _RAT_TYPES) and not isinstance(other, bool):
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


def _convolve(a: list, b: list) -> list:
    """The product of two integer polynomials, without reduction."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mulmod(a: list, b: list, f: list, p: int) -> list:
    return _divmod_mod(_convolve(a, b), f, p)[1]


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


def _lifting_prime(s: list, m: int = 1) -> int:
    """Smallest odd prime p not dividing lead(s), with m a nonzero square
    mod p, at which the integer polynomial s stays squarefree."""
    ds = _derivative(s)
    p = 3
    while (
        s[-1] % p == 0
        or pow(m, (p - 1) // 2, p) != 1
        or len(_gcd_mod([c % p for c in s], _trim([c % p for c in ds]), p)) > 1
    ):
        p = _next_prime(p)
    return p


def _value_mod(f: list, r: int, m: int) -> int:
    value = 0
    for c in reversed(f):
        value = (value * r + c) % m
    return value


def _lift(f: list, r: int, p: int, bound: int) -> tuple[int, int]:
    """Newton-lift a simple root r of f mod p to modulus p^(2^k) > bound."""
    df, m = _derivative(f), p
    while m <= bound:
        m *= m
        r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
    return r, m


def _centre(v: int, m: int) -> int:
    """The residue of v mod m in (-m/2, m/2]."""
    v %= m
    return v - m if 2 * v > m else v


def _squarefree_int(f: list) -> list:
    """Primitive squarefree part of an integer polynomial, positive lead."""
    f = _prim(f)
    return _exact_quotient_int(f, _gcd_int(f, _derivative(f)))


def _rational_candidates(f: list) -> list:
    """Every rational root of the integer polynomial f, and more.

    A root a/b in lowest terms of the squarefree part s has b | lead(s),
    so it is the unique p-adic lift of a simple root of s mod p, and
    |lead * a/b| <= |lead| + max|c_i| (Cauchy) stays below m/2 once the
    lift reaches modulus m; centring lead * r mod m recovers it exactly.
    """
    s = _squarefree_int(f)
    lead, p = s[-1], _lifting_prime(s)
    bound = 2 * (lead + max(abs(c) for c in s))
    out = []
    for r in _distinct_roots_mod(s, p):
        r, m = _lift(s, r, p, bound)
        out.append(Fraction(_centre(lead * r, m), lead))
    return out


def _quadratic_candidates(f: list, m: int) -> list:
    """Every root in Q(sqrt m) of f = sum (a_i + b_i sqrt m) x^i, a_i, b_i in Z.

    A root alpha = x + y sqrt m and its conjugate are roots of the norm
    f * conj(f), so of its squarefree part s, with lead c.  With S^2 = m
    mod p, sqrt m -> +-S send alpha to lifts r+ of f(+S) and r- of f(-S)
    of simple roots of s mod p.  As c alpha is an algebraic integer,
    c (r+ + r-) = 2cx and c (r+ - r-) S = 2cym are integers, also when m
    keeps a square factor, and Cauchy's bound H = c + max|s_i| on
    |c alpha| and |c conj(alpha)| gives |2cx| <= 2H, |2cym| <= 2H sqrt|m|:
    centring modulo a lift past 4H sqrt|m| recovers both.
    """
    a, b = (list(part) for part in zip(*f))
    s = _squarefree_int([x - m * y for x, y in zip(_convolve(a, a), _convolve(b, b))])
    c, p = s[-1], _lifting_prime(s, m)
    bound = math.isqrt(16 * (c + max(abs(v) for v in s)) ** 2 * abs(m))
    root, mod = _lift([-m, 0, 1], _sqrt_mod_p(m, p), p, bound)
    lifted = [_lift(s, r, p, bound)[0] for r in _distinct_roots_mod(s, p)]
    plus, minus = (
        [r for r in lifted if _value_mod([x + sign * y * root for x, y in f], r, mod) == 0]
        for sign in (1, -1)
    )
    out = []
    for u in plus:
        for v in minus:
            trace, part = _centre(c * (u + v), mod), _centre(c * (u - v) * root, mod)
            if _vanishes_at(f, trace * m, part, 2 * c * m, m):
                out.append((Fraction(trace, 2 * c), Fraction(part, 2 * c * m)))
    return out


def _vanishes_at(f: list, u: int, v: int, den: int, m: int) -> bool:
    """Whether f((u + v sqrt m) / den) = 0, by Horner's rule in Z[sqrt m]."""
    acc, bcc = f[-1]
    scale = 1
    for a, b in reversed(f[:-1]):
        scale *= den
        acc, bcc = acc * u + m * bcc * v + a * scale, acc * v + bcc * u + b * scale
    return acc == 0 and bcc == 0


def _integer_coefficients(values: list) -> list:
    scale = math.lcm(*(int(v.denominator) for v in values))
    return [int(v * scale) for v in values]


def _roots_rationals(poly: ExactPolynomial) -> list[tuple]:
    ints = _prim(_integer_coefficients(list(poly.coeffs)))
    reduced = ExactPolynomial._raw(poly.field, [Fraction(c) for c in ints])
    return _mults_by_deflation(reduced, _rational_candidates(ints))


def _roots_prime_field(poly: ExactPolynomial) -> list[tuple]:
    return _mults_by_deflation(poly, _distinct_roots_mod(list(poly.coeffs), poly.field.p))


def _roots_quadext(poly: ExactPolynomial) -> list[tuple]:
    flat = _integer_coefficients([v for pair in poly.coeffs for v in pair])
    pairs = list(zip(flat[::2], flat[1::2]))
    return _mults_by_deflation(poly, _quadratic_candidates(pairs, poly.field.m))


def roots_in_field(poly: ExactPolynomial) -> list[tuple[FieldElement, int]]:
    """All roots of poly lying in its own field, with multiplicities.

    Sorted by the canonical shortlex order on serialized roots.  Every
    polynomial over Q, GF(p) and Q(sqrt m) is decided, of any degree and
    with no size limit on p or on the coefficients: roots mod p by gcd
    with x^p - x and equal-degree splitting, lifted p-adically over Q and
    Q(sqrt m), each certified by exact deflation.  Raises PolynomialError
    for the zero polynomial.
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
    candidates reduces poly to a nonzero constant, None otherwise.  Part of
    the public API; the library itself no longer calls it, since
    is_multiplicity_free reads a triangular matrix's spectrum straight off
    its diagonal.
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


def _json_list(value, key: str) -> list:
    """value if JSON gave a list there: a string would be read as its
    characters, and null as no sequence at all."""
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a JSON list")
    return value


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
    "roots_in_field",
    "squarefree_part",
    "verify_root_multiset",
]
