"""Field arithmetic, serialization, square roots, and root finding."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from leonardpairs.errors import (
    FieldConstructionError,
    FieldMismatchError,
    ParseError,
    PolynomialError,
)
from leonardpairs.field import (
    BACKEND,
    ExactPolynomial,
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
    field_from_dict,
    field_to_dict,
    _is_prime,
    roots_in_field,
    squarefree_part,
    verify_root_multiset,
)

Q = Rationals()
F13 = PrimeField(13)
K2 = QuadraticExtension(2)
KI = QuadraticExtension(-1)

AXIOM_SAMPLES = 10_000


def test_backend_selected():
    assert BACKEND == "fractions"


def _axiom_battery(field, rng, samples):
    one = field(1)
    zero = field(0)
    for _ in range(samples):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if not b.is_zero:
            assert b * b.inverse() == one
            assert (a / b) * b == a


def test_axioms_rationals():
    _axiom_battery(Q, random.Random(11), AXIOM_SAMPLES)


def test_axioms_prime_field():
    _axiom_battery(F13, random.Random(12), AXIOM_SAMPLES)


def test_axioms_quadratic_extension():
    _axiom_battery(K2, random.Random(13), AXIOM_SAMPLES)


@pytest.mark.parametrize("field", [Q, F13, PrimeField(999983), K2, KI], ids=lambda f: f.name)
def test_image_arithmetic_matches_payload_arithmetic(field):
    """add and sub take image entries over one denominator, and image_mul
    multiplies two; lowered, each equals the payload operation."""
    rng = random.Random(14)
    for _ in range(500):
        a, b = (field.random_element(rng).payload for _ in range(2))
        (x, y), den = field.lift([a, b])
        assert field.lower(field.add(x, y), den) == field.add(a, b)
        assert field.lower(field.sub(x, y), den) == field.sub(a, b)
        assert field.lower(field.image_mul(x, y), den * den) == field.mul(a, b)


def test_characteristics():
    assert Q.characteristic() == 0
    assert F13.characteristic() == 13
    assert K2.characteristic() == 0
    assert PrimeField(2).characteristic() == 2


def test_field_equality_and_hash():
    assert Rationals() == Q
    assert PrimeField(13) == F13
    assert PrimeField(13) != PrimeField(11)
    assert QuadraticExtension(2) == K2
    assert K2 != KI
    assert len({Rationals(), Rationals(), F13, PrimeField(13)}) == 2


def test_bad_field_parameters():
    with pytest.raises(FieldConstructionError):
        PrimeField(6)
    with pytest.raises(FieldConstructionError):
        PrimeField(1)
    with pytest.raises(FieldConstructionError):
        PrimeField(2**61)
    with pytest.raises(FieldConstructionError):
        QuadraticExtension(0)
    with pytest.raises(FieldConstructionError):
        QuadraticExtension(1)
    with pytest.raises(FieldConstructionError):
        QuadraticExtension(12)
    assert QuadraticExtension(6).m == 6
    assert QuadraticExtension(-5).m == -5
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_is_prime_is_miller_rabin_exact_below_psi12():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]
    # the least strong pseudoprimes to the first 1, 2, ..., 8 prime bases
    for composite in (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321,
    ):
        assert not _is_prime(composite)
    assert _is_prime(2**61 - 1)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(8) == 2
    assert squarefree_part(-18) == -2
    assert squarefree_part(7) == 7
    assert squarefree_part(1) == 1


def test_coercion_paths():
    assert Q(Fraction(3, 4)) == Q("3/4")
    assert F13(-1) == F13(12)
    assert F13(Fraction(1, 2)) == F13(7)
    assert K2((1, 2)) == K2("1+2*s")
    assert K2(Fraction(1, 3)) == K2("1/3")
    with pytest.raises(TypeError):
        Q(0.5)
    with pytest.raises(ZeroDivisionError):
        F13(Fraction(1, 13))


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatchError):
        Q(1) + F13(1)
    with pytest.raises(FieldMismatchError):
        K2(FieldElement(Q, Q.coerce(1)))


def test_division_by_zero():
    for field in (Q, F13, K2):
        with pytest.raises(ZeroDivisionError):
            field(1) / field(0)
        with pytest.raises(ZeroDivisionError):
            field(0) ** -1


def test_powers():
    assert Q("2/3") ** -2 == Q("9/4")
    assert F13(2) ** 12 == F13(1)
    assert K2("s") ** 2 == K2(2)
    assert K2("1+s") ** -1 == K2("-1+s")
    assert KI("s") ** 4 == KI(1)


def _roundtrip_battery(field, rng, samples=1000):
    for _ in range(samples):
        x = field.random_element(rng)
        assert field.parse(str(x)) == x.payload


def test_serialize_roundtrip():
    _roundtrip_battery(Q, random.Random(21))
    _roundtrip_battery(F13, random.Random(22))
    _roundtrip_battery(K2, random.Random(23))
    _roundtrip_battery(KI, random.Random(24))


def test_canonical_strings():
    assert str(Q("-6/4")) == "-3/2"
    assert str(F13(26)) == "0"
    assert str(K2((0, 0))) == "0"
    assert str(K2((0, 1))) == "s"
    assert str(K2((0, -1))) == "-s"
    assert str(K2((0, Fraction(5, 2)))) == "5/2*s"
    assert str(K2((Fraction(1, 2), -3))) == "1/2-3*s"
    assert str(K2((Fraction(1, 2), 1))) == "1/2+s"
    assert str(K2((-2, Fraction(-1, 3)))) == "-2-1/3*s"


def test_parse_rejects_malformed():
    for bad in ("", "1//2", "3/0", "1.5", "x"):
        with pytest.raises(ParseError):
            Q.parse(bad)
    for bad in ("", "7.0", "a"):
        with pytest.raises(ParseError):
            F13.parse(bad)
    for bad in ("", "s+s", "1+2", "2s", "s*2", "1/2+-3*s", "s+1"):
        with pytest.raises(ParseError):
            K2.parse(bad)


def test_parse_leniency():
    assert F13.parse("-1") == 12
    assert F13.parse("+20") == 7
    assert Q.parse(" 3/4 ") == Q.coerce("3/4")
    assert K2.parse("1/2 - 3*s") == K2.coerce("1/2-3*s")


def test_sort_key_is_shortlex():
    values = [Q(v) for v in ("3", "1", "-1", "-3")]
    ordered = sorted(values, key=lambda e: e.sort_key())
    # one-character strings come first (lex within a length), longer ones after
    assert ordered == [Q(1), Q(3), Q(-1), Q(-3)]
    assert Q("2").sort_key() < Q("1/2").sort_key()
    assert Q("3").sort_key() < Q("-3").sort_key()
    assert F13(3).sort_key() < F13(10).sort_key()


def test_sqrt():
    assert Q("9/4").sqrt() == Q("3/2")
    assert Q(2).sqrt() is None
    assert Q(0).sqrt() == Q(0)
    for a in range(13):
        root = F13(a).sqrt()
        if root is not None:
            assert root * root == F13(a)
    assert F13(2).sqrt() is None  # 2 is not a QR mod 13
    s = K2("3+2*s").sqrt()
    assert s is not None and s * s == K2("3+2*s")
    assert K2(2).sqrt() == K2("s") or K2(2).sqrt() == K2("-s")
    assert K2(3).sqrt() is None
    assert KI(-4).sqrt() is not None
    x = KI("3+4*s").sqrt()  # sqrt(3+4i) = 2+i
    assert x is not None and x * x == KI("3+4*s")
    assert PrimeField(2).sqrt(1) == 1
    # over Q and Q(sqrt m) the root whose first nonzero part is positive
    # (symmetric splits print it)
    assert Q("-9/4").sqrt() is None
    assert Q("4/3").sqrt() is None and Q("3/4").sqrt() is None
    assert Q("25/49").sqrt() == Q("5/7")
    assert [str(K2(a).sqrt()) for a in ("3+2*s", "3-2*s", "2", "1/2", "9", "0")] == [
        "1+s", "1-s", "s", "1/2*s", "3", "0"
    ]
    assert str(KI(-4).sqrt()) == "2*s" and str(KI("3-4*s").sqrt()) == "2-s"


def test_prime_field_sqrt_is_the_rule_not_the_larger_residue():
    # a^((p+1)/4) when p = 3 mod 4 (7, 999983), Tonelli-Shanks from the
    # least non-residue otherwise (13, 101); symmetric splits print it
    assert PrimeField(7).sqrt(4) == 2 and PrimeField(7).sqrt(2) == 4
    assert PrimeField(13).sqrt(3) == 9 and PrimeField(13).sqrt(4) == 11
    assert PrimeField(101).sqrt(4) == 99 and PrimeField(101).sqrt(5) == 56
    assert PrimeField(999983).sqrt(4) == 2


def test_polynomial_basics():
    p = ExactPolynomial(Q, [1, 2, 3])
    assert p.degree == 2
    assert p(2) == Q(17)
    zero = ExactPolynomial(Q, [0, 0])
    assert zero.is_zero and zero.degree == -1 and zero.coeffs == ()
    q = ExactPolynomial(Q, [1, 1])
    assert (p * q).coefficients() == ExactPolynomial(Q, [1, 3, 5, 3]).coefficients()
    assert (p + q).degree == 2
    assert (p - p).is_zero
    assert p.monic().coefficients()[-1] == Q(1)
    with pytest.raises(PolynomialError):
        zero.monic()


def test_deflation():
    p = ExactPolynomial.from_roots(Q, [1, 2, 2])
    quotient, rem = p.deflate(2)
    assert rem.is_zero
    assert quotient == ExactPolynomial.from_roots(Q, [1, 2])
    _, rem = p.deflate(5)
    assert rem == p(5)


def test_roots_quartic_hand_factored():
    # lambda^4 - 10 lambda^2 + 9 = (lambda^2 - 1)(lambda^2 - 9), by hand
    byhand = ExactPolynomial(Q, [-1, 0, 1]) * ExactPolynomial(Q, [-9, 0, 1])
    assert [Q.serialize(c) for c in byhand.coeffs] == ["9", "0", "-10", "0", "1"]
    roots = roots_in_field(byhand)
    assert [(str(r), m) for r, m in roots] == [("1", 1), ("3", 1), ("-1", 1), ("-3", 1)]


def test_roots_rationals():
    p = ExactPolynomial(Q, [1, -5, 6])  # (2x-1)(3x-1)
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("1/2", 1), ("1/3", 1)]
    p = ExactPolynomial.from_roots(Q, [2, 2, -1]).scale(Fraction(7, 3))
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("2", 2), ("-1", 1)]
    p = ExactPolynomial(Q, [0, 0, 0, 5])  # 5 x^3
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("0", 3)]
    p = ExactPolynomial(Q, [1, 0, 1])
    assert roots_in_field(p) == []
    assert roots_in_field(ExactPolynomial(Q, [7])) == []


def test_roots_prime_field():
    p = ExactPolynomial.from_roots(F13, [3, 3, 7])
    assert [(int(r.payload), m) for r, m in roots_in_field(p)] == [(3, 2), (7, 1)]
    F2 = PrimeField(2)
    p = ExactPolynomial(F2, [0, 1, 1])  # x^2 + x
    assert [(int(r.payload), m) for r, m in roots_in_field(p)] == [(0, 1), (1, 1)]
    p = ExactPolynomial(PrimeField(7), [1, 0, 1])  # x^2 + 1, no roots mod 7
    assert roots_in_field(p) == []


def test_roots_prime_field_size_guard():
    # no cap on p: a repeated root and an irreducible quadratic over large fields
    for p in (1_000_003, 2**61 - 1):
        big = PrimeField(p)
        poly = ExactPolynomial.from_roots(big, [5, 5, p - 1, 17])
        assert [(str(r), m) for r, m in roots_in_field(poly)] == [
            ("5", 2), ("17", 1), (str(p - 1), 1)
        ]
        assert p % 4 == 3  # so -1 is not a square and x^2 + 1 is irreducible
        assert roots_in_field(ExactPolynomial(big, [1, 0, 1])) == []
        assert roots_in_field(poly * ExactPolynomial(big, [1, 0, 1])) == roots_in_field(poly)


def test_squarefree_part_of_unfactorable_integers():
    # no integer is factored: n / m is a square and m is not, at any size
    n = 2**201 + 1
    start = time.perf_counter()
    m = squarefree_part(n)
    assert time.perf_counter() - start < 0.1
    assert n % m == 0 and math.isqrt(n // m) ** 2 == n // m
    assert math.isqrt(m) ** 2 != m
    # below 2^30 the result is exact, also for squares of primes above 2^10
    assert squarefree_part(1031**2 * 7) == 7
    assert squarefree_part(-(1031**2)) == -1
    assert squarefree_part(1031 * 1033) == 1031 * 1033
    assert squarefree_part(2**29 * 3**3) == 2 * 3


def test_discriminant_of_162_bits_is_checked_in_under_a_second():
    m = 2923003274661805836422499372065043123433313040949
    start = time.perf_counter()
    assert QuadraticExtension(m).m == m
    assert time.perf_counter() - start < 1.0
    # square factors that are found are refused: small primes and squares
    for bad in (4 * m, 1021**2 * m, m * m):
        with pytest.raises(FieldConstructionError):
            QuadraticExtension(bad)


def test_roots_over_a_discriminant_with_a_hidden_square():
    # 1031^2 * 1033 is above 2^30 and its square factor is above 2^10, so it
    # labels Q(sqrt 1033) as it stands; the roots of x^2 - 1033 are then
    # +-sqrt(m)/1031, whose sqrt m part has a denominator prime to 2c
    field = QuadraticExtension(1031**2 * 1033)
    got = roots_in_field(ExactPolynomial(field, [-1033, 0, 1]))
    assert [(str(r), k) for r, k in got] == [("1/1031*s", 1), ("-1/1031*s", 1)]


def test_roots_quadratic_extension():
    p = ExactPolynomial(K2, [-2, 0, 1])
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("s", 1), ("-s", 1)]
    # rational-coefficient quartic: only the sqrt-2 pair lies in Q(sqrt 2)
    p = ExactPolynomial(K2, [-2, 0, 1]) * ExactPolynomial(K2, [-3, 0, 1])
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("s", 1), ("-s", 1)]
    # irreducible cubic over Q has no roots in a quadratic extension
    p = ExactPolynomial(K2, [-2, 0, 0, 1])
    assert roots_in_field(p) == []
    # repeated irrational root through a squared rational factor
    p = ExactPolynomial(K2, [-2, 0, 1]) * ExactPolynomial(K2, [-2, 0, 1])
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("s", 2), ("-s", 2)]
    # linear and quadratic with genuinely irrational coefficients stay decidable
    p = ExactPolynomial(K2, [K2("s"), K2(1)])
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("-s", 1)]
    p = ExactPolynomial.from_roots(K2, [K2("s"), K2("1+s")])
    got = roots_in_field(p)
    assert sorted(str(r) for r, _ in got) == sorted(["s", "1+s"])


def test_roots_quadext_irrational_cubic():
    p = ExactPolynomial.from_roots(K2, [K2("s"), K2("1+s"), K2(2)])
    assert [(str(r), m) for r, m in roots_in_field(p)] == [("2", 1), ("s", 1), ("1+s", 1)]


def test_roots_zero_polynomial():
    with pytest.raises(PolynomialError):
        roots_in_field(ExactPolynomial(Q, []))


def test_roots_match_exhaustive_eval():
    rng = random.Random(31)
    F = PrimeField(23)
    for _ in range(25):
        coeffs = [rng.randrange(23) for _ in range(rng.randint(2, 6))]
        poly = ExactPolynomial(F, coeffs)
        if poly.is_zero:
            continue
        found = {int(r.payload) for r, _ in roots_in_field(poly)}
        brute = {x for x in range(23) if poly(x).is_zero}
        assert found == brute


def test_verify_root_multiset():
    p = ExactPolynomial.from_roots(Q, [1, 2, 2])
    assert verify_root_multiset(p, [1, 2]) == [
        (Q.coerce(1), 1),
        (Q.coerce(2), 2),
    ]
    assert verify_root_multiset(p, [1]) is None
    assert verify_root_multiset(p, [1, 3]) is None


def test_field_dicts_and_names():
    for field in (Q, F13, K2, KI):
        assert field_from_dict(field_to_dict(field)) == field
    with pytest.raises(ParseError):
        field_from_dict({"kind": "octonions"})
    with pytest.raises(ParseError):
        field_from_dict({"kind": "prime_field"})
