"""Gates for the exact root finder over Q, GF(p) and Q(sqrt m).

Roots mod p come from gcd(f, x^p - x) and equal-degree splitting; over Q
and Q(sqrt m) they are lifted p-adically from a prime where the
squarefree part of f (of its norm over Q(sqrt m)) stays squarefree.  The
references here are independent of that kernel: a scan of the whole
field over GF(p), and sympy's factorisation over Q and over Q(sqrt m).
The search for a good prime and the splitting both loop until they
succeed, so every test runs under a deadline and fails instead of
hanging.
"""

import math
import random
import signal
from fractions import Fraction

import pytest
import sympy

from leonardpairs.field import (
    ExactPolynomial,
    PrimeField,
    QuadraticExtension,
    Rationals,
    roots_in_field,
)

Q = Rationals()


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise TimeoutError("root finding ran past its 20 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def roots(poly):
    return [(str(r), m) for r, m in roots_in_field(poly)]


def test_factorial_sextic():
    base = math.factorial(12)
    poly = ExactPolynomial.from_roots(Q, [base + i for i in range(6)])
    assert roots(poly) == [(str(base + i), 1) for i in range(6)]


def test_218_bit_coefficient():
    big = 2**109
    poly = ExactPolynomial.from_roots(Q, [big + 3, -big - 5])
    poly = poly * ExactPolynomial(Q, [1, 0, 1]) * ExactPolynomial(Q, [-1, 3])
    assert abs(int(poly.coeffs[0])).bit_length() >= 218
    assert sorted(roots(poly)) == sorted(
        [("1/3", 1), (str(big + 3), 1), (str(-big - 5), 1)]
    )


def test_repeated_and_fractional_rational_roots():
    poly = (
        ExactPolynomial.from_roots(Q, [Fraction(1, 3), Fraction(1, 3), Fraction(-7, 2)])
        * ExactPolynomial(Q, [1, 0, 1])
    )
    assert roots(poly) == [("1/3", 2), ("-7/2", 1)]
    # a zero root, a scaled leading coefficient and a cube
    poly = ExactPolynomial.from_roots(Q, [0, 0, Fraction(5, 4), Fraction(5, 4), Fraction(5, 4)])
    assert roots(poly.scale(Fraction(-9, 7))) == [("0", 2), ("5/4", 3)]


def test_lift_reaches_the_cauchy_bound():
    # |lead * root| comes within |lead| of the Cauchy bound |lead| + max|c_i|;
    # a lift that stops at a modulus half as large centres some wrongly
    for c in range(1, 120):
        assert roots(ExactPolynomial(Q, [-c, 1])) == [(str(c), 1)]
        assert roots(ExactPolynomial(Q, [c, 1])) == [(str(-c), 1)]
        for b in (2, 5):
            if math.gcd(b, c) == 1:
                assert roots(ExactPolynomial(Q, [-c, b])) == [(f"{c}/{b}", 1)]


def test_smallest_primes():
    f2, f3 = PrimeField(2), PrimeField(3)
    assert roots(ExactPolynomial(f2, [0, 1, 1])) == [("0", 1), ("1", 1)]
    assert roots(ExactPolynomial(f2, [1, 1, 1])) == []
    assert roots(ExactPolynomial(f2, [0, 0, 1, 1])) == [("0", 2), ("1", 1)]
    assert roots(ExactPolynomial(f2, [1, 0, 0, 0, 1])) == [("1", 4)]
    assert roots(ExactPolynomial(f3, [0, -1, 0, 1])) == [("0", 1), ("1", 1), ("2", 1)]
    assert roots(ExactPolynomial(f3, [1, 0, 1])) == []
    assert roots(ExactPolynomial.from_roots(f3, [2, 2, 2, 1])) == [("1", 1), ("2", 3)]


def _scan(poly):
    """Roots by trying every residue, multiplicities by repeated division."""
    found = []
    for x in range(poly.field.p):
        mult, current = 0, poly
        while current.degree >= 1:
            current, rem = current.deflate(x)
            if not rem.is_zero:
                break
            mult += 1
        if mult:
            found.append((str(x), mult))
    return sorted(found)


def test_prime_fields_match_a_full_scan():
    rng = random.Random(20240611)
    for p in (2, 3, 5, 7, 11, 13, 31, 101):
        field = PrimeField(p)
        for _ in range(40):
            poly = ExactPolynomial(field, [rng.randrange(p) for _ in range(rng.randint(2, 6))])
            poly = poly * ExactPolynomial.from_roots(
                field, [rng.randrange(p) for _ in range(rng.randint(0, 4))]
            )
            if poly.degree < 1:
                continue
            assert sorted(roots(poly)) == _scan(poly), (p, poly)


def _sympy_rational_roots(poly):
    x = sympy.Symbol("x")
    coeffs = [sympy.Integer(int(c)) for c in reversed(poly.coeffs)]
    _, factors = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    found = []
    for factor, mult in factors:
        if factor.degree() == 1:
            lead, const = factor.all_coeffs()
            root = -sympy.Rational(const) / lead
            found.append((str(Fraction(int(root.p), int(root.q))), mult))
    return sorted(found)


def test_rationals_match_sympy_factorisation():
    rng = random.Random(77)
    for _ in range(120):
        poly = ExactPolynomial(Q, [rng.choice([-6, -2, -1, 1, 3, 10])])
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                num, den = rng.randint(-40, 40), rng.randint(1, 9)
                factor = [-num, den]
            else:
                factor = [rng.randint(-60, 60) for _ in range(rng.randint(2, 4))]
                factor.append(rng.randint(1, 6))
            for _ in range(rng.choice([1, 1, 2])):
                poly = poly * ExactPolynomial(Q, factor)
        if poly.degree < 1:
            continue
        assert sorted(roots(poly)) == _sympy_rational_roots(poly), poly


def _sympy_quadratic_roots(poly):
    """Roots in Q(sqrt m) from sympy's factorisation over that field."""
    x, w = sympy.Symbol("x"), sympy.sqrt(poly.field.m)
    expr = sum(
        (sympy.Rational(str(a)) + sympy.Rational(str(b)) * w) * x**i
        for i, (a, b) in enumerate(poly.coeffs)
    )
    _, factors = sympy.factor_list(sympy.expand(expr), x, extension=w)
    found = []
    for factor, mult in factors:
        factor = sympy.Poly(factor, x, extension=w)
        if factor.degree() == 1:
            lead, const = factor.all_coeffs()
            found.append((sympy.expand(sympy.radsimp(-const / lead)), mult))
    return found


def _as_sympy(root, m):
    a, b = root.payload
    return sympy.expand(sympy.Rational(str(a)) + sympy.Rational(str(b)) * sympy.sqrt(m))


@pytest.mark.parametrize("m", [2, 5, -3])
def test_quadratic_extensions_match_sympy_factorisation(m):
    field = QuadraticExtension(m)
    rng = random.Random(1000 + m)

    def element(size):
        return field((rng.randint(-size, size), Fraction(rng.randint(-size, size), rng.randint(1, 3))))

    for trial in range(12):
        # roots in the field (some repeated), times a factor with irrational
        # coefficients and no root, of degree 2 or 3
        roots = [element(4) for _ in range(rng.randint(1, 3))]
        roots += roots[: rng.randint(0, 1)]
        poly = ExactPolynomial.from_roots(field, roots)
        extra = ExactPolynomial(field, [element(6) for _ in range(rng.randint(3, 4))])
        poly = (poly * extra).scale(element(3) or field(1))
        assert poly.degree >= 3
        ours = sorted((str(_as_sympy(r, m)), k) for r, k in roots_in_field(poly))
        theirs = sorted((str(r), k) for r, k in _sympy_quadratic_roots(poly))
        assert ours == theirs, (trial, poly)


@pytest.mark.parametrize("m", [2, -3])
def test_quadratic_lift_reaches_the_cauchy_bound(m):
    # |2c * root| comes within 2c of twice the Cauchy bound of the norm's
    # squarefree part; a lift that stops at a modulus half as large centres
    # some wrongly, whatever the sqrt m part needs
    field = QuadraticExtension(m)
    for c in range(1, 120):
        for root in (field(c), field(-c), field((c, 1)), field((0, c))):
            poly = ExactPolynomial.from_roots(field, [root])
            assert roots_in_field(poly) == [(root, 1)], root


def test_quadratic_roots_of_rational_and_irrational_polynomials():
    k5 = QuadraticExtension(5)
    phi = k5("1/2+1/2*s")
    # x^2 - x - 1 has the golden ratio and its conjugate as roots
    got = roots_in_field(ExactPolynomial(k5, [-1, -1, 1]))
    assert sorted(str(r) for r, _ in got) == ["1/2+1/2*s", "1/2-1/2*s"]
    # a root repeated three times beside an irrational cubic without roots
    poly = ExactPolynomial.from_roots(k5, [phi, phi, phi]) * ExactPolynomial(k5, [k5("s"), 0, 0, 1])
    assert roots_in_field(poly) == [(phi, 3)]
    # an irrational leading coefficient and a root with a large denominator
    root = k5("7/1000003-3/1000033*s")
    poly = ExactPolynomial.from_roots(k5, [root, 2]).scale(k5("2-s"))
    assert sorted(roots_in_field(poly), key=str) == sorted([(root, 1), (k5(2), 1)], key=str)
