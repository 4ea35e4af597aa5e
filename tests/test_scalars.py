import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from oracles import OppositeScalar
from qbruhat.errors import ZeroInverse
from qbruhat.factorize import commute_neg_pos
from qbruhat.scalars import (
    RationalQuaternion as Q,
    equal,
    format_scalar,
    inv,
    is_zero,
    parse_scalar,
    quat_inv,
)
from qbruhat.sampling import quaternion

ONE = Q(1)
I, J, K = Q(0, 1), Q(0, 0, 1), Q(0, 0, 0, 1)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
quaternions = st.builds(Q, fractions, fractions, fractions, fractions)


def test_hamilton_relations():
    assert I * I == J * J == K * K == Q(-1)
    assert I * J == K and J * K == I and K * I == J
    assert J * I == -K and K * J == -I and I * K == -J
    assert I * J * K == Q(-1)


def test_identity_and_conjugate_product():
    q = Q(2, -3, Fraction(1, 2), 5)
    assert ONE * q == q and q * ONE == q
    assert Q(1, 1) * Q(1, -1) == Q(2)


def test_quat_inv_examples():
    assert quat_inv(ONE) == ONE
    assert quat_inv(I) == -I
    assert quat_inv(Q(1, 1)) == Q(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ZeroInverse):
        quat_inv(Q(0))


def test_inverse_is_two_sided():
    rng = random.Random(3)
    for _ in range(50):
        q = quaternion(rng, 5)
        assert q * quat_inv(q) == ONE
        assert quat_inv(q) * q == ONE


def test_product_inverse_reverses_factors():
    rng = random.Random(9)
    for _ in range(1000):
        x = quaternion(rng, 3)
        y = quaternion(rng, 3)
        assert quat_inv(x * y) == quat_inv(y) * quat_inv(x)


def test_noncommutativity_witness_exists():
    rng = random.Random(1)
    for _ in range(200):
        x = quaternion(rng, 2)
        y = quaternion(rng, 2)
        if x * y != y * x:
            return
    pytest.fail("no noncommuting pair found in 200 samples")


@given(quaternions, quaternions, quaternions)
def test_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_rational_arithmetic_against_cross_multiplication():
    rng = random.Random(17)
    for _ in range(1000):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        s = a + b * c
        # cross-multiplied big-integer check of a + b*c = s
        lhs = (
            a.numerator * b.denominator * c.denominator
            + b.numerator * c.numerator * a.denominator
        ) * s.denominator
        rhs = s.numerator * a.denominator * b.denominator * c.denominator
        assert lhs == rhs
        if b != 0:
            q = a / b
            assert q.numerator * b.numerator * a.denominator == a.numerator * b.denominator * q.denominator


def test_sample_generic_contract():
    assert quaternion(random.Random(5), 1) == quaternion(random.Random(5), 1)
    for seed in range(30):
        q = quaternion(random.Random(seed), 1)
        assert not q.is_zero()
        assert all(c.denominator == 1 and -1 <= c <= 1 for c in q.components())
        wide = quaternion(random.Random(seed), 3)
        assert all(-3 <= c <= 3 for c in wide.components())
    with pytest.raises(ValueError):
        quaternion(random.Random(1), 0)


def test_format_parse_round_trip():
    rng = random.Random(4)
    values = [Fraction(3, 4), Fraction(-7), Fraction(0), Q(0), Q(1, -2, 0, Fraction(5, 3))]
    values += [quaternion(rng, 9) for _ in range(50)]
    for v in values:
        text = format_scalar(v)
        assert parse_scalar(text) == v
        assert format_scalar(parse_scalar(text)) == text


def test_parse_flexible_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("1+i") == Q(1, 1)
    assert parse_scalar("-i+2*k") == Q(0, -1, 0, 2)
    assert parse_scalar(" 1/2 - 3*j ") == Q(Fraction(1, 2), 0, -3, 0)
    # spaces stand around the text, after a sign, around a `*` and between terms
    assert parse_scalar("- 3") == -3 and parse_scalar(" 3 ") == 3
    assert parse_scalar("2 * i  - j") == Q(0, 2, -1, 0)
    # digits are ASCII, a `*` stands only between a coefficient and its unit,
    # and a space never stands inside a coefficient or before its unit
    spaced = ("1 2", "1 2*i", "1.5 5+i", "2 / 3", "1. 5", "2 i")
    malformed = ("", "i*j", "1//2", "2+*i", "\u0663", "\uff11", "1+\u0663*i", "i+2*", "2*+i")
    for bad in malformed + spaced:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_zero_denominator_is_a_bad_scalar():
    # a rational and a quaternion coefficient fail alike, with ValueError
    for bad in ("1/0", "1/0*i", "1+2/0*j", "0/0*k", "i-3/0"):
        with pytest.raises(ValueError, match="bad"):
            parse_scalar(bad)


def test_parse_decimal_quaternion_coefficients():
    assert parse_scalar("1.5") == Fraction(3, 2)
    assert parse_scalar("1.5+i") == Q(Fraction(3, 2), 1)
    assert parse_scalar(".5-2.25*j") == Q(Fraction(1, 2), 0, Fraction(-9, 4))
    assert parse_scalar("3/4*k+1.") == Q(1, 0, 0, Fraction(3, 4))
    # a rational is one signed coefficient: no exponent and no underscore, as in a quaternion
    for bad in ("1.5/2*i", "1.5.5+i", "1..5+i", ".+i", "2i3", "1e5", "1_000", "1e3000000", "5*"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_inv_dispatch():
    assert inv(Fraction(2, 3)) == Fraction(3, 2)
    assert inv(4) == Fraction(1, 4)
    with pytest.raises(ZeroInverse):
        inv(Fraction(0))
    with pytest.raises(ZeroInverse):
        inv(0)


def test_the_scalar_layer_refuses_inexact_numbers():
    # a float would be stored as its binary expansion and a bool read as 0 or 1
    refused = (
        lambda: Q(0.1),
        lambda: Q(True),
        lambda: Q(1, 2, 3, 1j),
        lambda: inv(0.1),
        lambda: inv(True),
        lambda: is_zero(0.5),
        lambda: commute_neg_pos(1, 1, 0.5, 0.25),
        lambda: Q(1, 1) + True,
        lambda: True * Q(1, 1),
        lambda: OppositeScalar(Q(1, 1)) - False,
    )
    for call in refused:
        with pytest.raises(TypeError):
            call()
    a = sympy.Symbol("a")
    assert inv(a) == 1 / a and is_zero(a - a) and not is_zero(a)
    assert Q(Fraction(1, 2), "1/3", 0, 5) == Q(3, 2, 0, 30) * Fraction(1, 6)


def test_equal_decides_as_the_zero_test_of_the_difference():
    # (a, b, equal or not): `equal` compares stored forms, and must give the answer
    # is_zero(a - b) gives on every kind of scalar, a foreign ring's included
    a = sympy.Symbol("a")
    table = [
        (Q(1, 2, 3, 4) * Fraction(1, 6), Q(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), "2/3"), True),
        (Q(1, 2, 3, 4), Q(1, 2, 3, 5), False),
        (Q(Fraction(3, 4)), Fraction(3, 4), True),
        (Fraction(3, 4), Q(Fraction(3, 4)), True),
        (Q(Fraction(3, 4), 1), Fraction(3, 4), False),
        (Fraction(3, 4), Q(Fraction(3, 4), 0, 0, 1), False),
        (Q(2) * Q(0, 1) * Q(0, 1), -2, True),
        (-2, Q(-2), True),
        (Q(2), 3, False),
        (5, Q(5, 0, 1), False),
        (Fraction(6, 8), Fraction(3, 4), True),
        (Fraction(1, 3), Fraction(1, 4), False),
        (Fraction(4, 2), 2, True),
        ((a**2 - 1) / (a - 1), a + 1, True),
        ((a**2 - 1) / (a - 1), a - 1, False),
        (OppositeScalar(Q(1, 1)), OppositeScalar(Q(1, 1) * 1), True),
        (OppositeScalar(Q(1, 1)), OppositeScalar(Q(1, -1)), False),
        (OppositeScalar(Q(2)), 2, True),
    ]
    for x, y, expected in table:
        assert equal(x, y) is expected == is_zero(x - y), (x, y)
    # the sympy pair differs in form: only the zero test of its difference settles it
    assert (a**2 - 1) / (a - 1) != a + 1


def test_opposite_scalar_reverses_products():
    rng = random.Random(12)
    for _ in range(50):
        x = quaternion(rng, 3)
        y = quaternion(rng, 3)
        assert OppositeScalar(x) * OppositeScalar(y) == OppositeScalar(y * x)
        assert OppositeScalar(x) + OppositeScalar(y) == OppositeScalar(x + y)
        assert inv(OppositeScalar(x)) == OppositeScalar(inv(x))
    assert is_zero(OppositeScalar(Q(0)))
    assert not is_zero(OppositeScalar(Q(1)))
    with pytest.raises(ZeroInverse):
        inv(OppositeScalar(Q(0)))


def test_quaternion_equality_coerces_reals():
    assert Q(2) == 2
    assert Q(Fraction(1, 2)) == Fraction(1, 2)
    assert Q(2, 1) != 2
    assert hash(Q(2)) == hash(Fraction(2))


# -- the packed-integer representation -----------------------------------------


def test_equal_values_from_different_denominators_are_one_value():
    x = Q(Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6))
    y = Q(Fraction(3, 6), Fraction(4, 12), Fraction(0, 7), Fraction(-10, 12))
    z = Q(3, 2, 0, -5) * Fraction(1, 6)
    assert x == y == z
    assert hash(x) == hash(y) == hash(z)
    half = Q(1, 1) * Fraction(1, 2) + Q(1, -1) * Fraction(1, 2)
    assert half == Q(1) == 1 and hash(half) == hash(1)


@given(quaternions, quaternions, fractions, st.integers(-9, 9))
def test_stored_form_is_canonical(x, y, r, k):
    values = [x, y, x * y, x + y, x - y, -x, x.conjugate(), r * x, x * r, k - x, r + x]
    if not x.is_zero():
        values.append(x.inverse())
    for q in values:
        a, b, c, d, e = q._q
        assert e > 0
        assert math.gcd(a, b, c, d, e) == 1
        assert q.components() == (Fraction(a, e), Fraction(b, e), Fraction(c, e), Fraction(d, e))
    assert (x - x)._q == (0, 0, 0, 0, 1)
    if not x.is_zero():
        assert (x * x.inverse())._q == (1, 0, 0, 0, 1)


@given(fractions)
def test_hash_of_real_quaternion_is_hash_of_its_rational(r):
    assert hash(Q(r)) == hash(r) == hash(Q(r).a)
    assert Q(r) == r and r == Q(r)


@given(quaternions, fractions, st.integers(-9, 9))
def test_mixed_operands_on_both_sides(q, r, k):
    rq, kq = Q(r), Q(k)
    assert q * r == q * rq and r * q == rq * q
    assert q * k == q * kq and k * q == kq * q
    assert q + r == q + rq and r + q == rq + q
    assert q + k == q + kq and k + q == kq + q
    assert q - k == q - kq and k - q == kq - q
    assert r - q == rq - q and q - r == q - rq


@given(quaternions)
def test_text_form_round_trips(q):
    assert parse_scalar(format_scalar(q)) == q
    assert parse_scalar(format_scalar(q))._q == q._q


def _frames(call):
    """The names of the Python frames that call() runs, besides its own."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names[1:]


def test_each_quaternion_operation_runs_in_one_frame():
    x = Q(Fraction(1, 2), 3, Fraction(-2, 3), 5)
    y = Q(Fraction(3, 4), -1, 2, Fraction(1, 5))
    assert _frames(lambda: x * y) == ["__mul__"]
    assert _frames(lambda: x - y) == ["__sub__"]
    assert _frames(lambda: x + y) == ["__add__"]
    assert _frames(lambda: is_zero(x)) == ["is_zero"]
    assert _frames(lambda: x.inverse()) == ["inverse"]
    # inv goes through the method, so a wrapper of RationalQuaternion.inverse sees it
    assert _frames(lambda: inv(x)) == ["inv", "inverse"]


def test_assigning_an_attribute_raises():
    q = Q(1, 2, 3, 4)
    for name in ("a", "b", "c", "d", "_q", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
    assert q == Q(1, 2, 3, 4)
