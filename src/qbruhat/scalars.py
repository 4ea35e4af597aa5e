"""Division-ring scalars: exact rationals and exact rational quaternions.

Every algorithm in this package is generic over a scalar that supports
``+``, ``-``, ``*``, exact equality, and inversion of nonzero elements via
:func:`inv`.  Multiplication is never assumed commutative.  Two concrete
scalars ship here; any other ring goes through the generic branch of
:func:`is_zero` and :func:`inv`, so it needs ``a == 0`` for its zero test and
``1 / a`` (``__rtruediv__`` with an int 1) for its inverse:

* ``fractions.Fraction`` -- the commutative oracle scalar.  The stdlib type
  already guarantees lowest terms and a positive denominator.
* :class:`RationalQuaternion` -- quaternions with rational components, the
  working noncommutative skew field.  A value is stored as four Python ints
  over one positive denominator, reduced by their common gcd after every
  operation, so each value has exactly one stored form and equality is a
  comparison of integer tuples.  Each of ``+``, ``-``, ``*`` and
  ``inverse()`` computes, reduces and builds its result in its own frame,
  with no helper call, and leaves that one stored form.  The components are
  read back as ``Fraction`` through ``.a``, ``.b``, ``.c``, ``.d`` and
  ``components()``.

Python ints are accepted anywhere a scalar is (they behave as rationals),
so identity matrices and generator matrices can be built from literals.
``bool``, ``float``, ``complex`` and a missing value (``None``) are refused
with TypeError (``_exact``, and the quaternion operators).  Two scalars are
compared with :func:`equal`, which builds no difference where ``==`` decides.

Text forms: rationals print as ``p`` or ``p/q``; quaternions print
canonically as ``a+b*i+c*j+d*k`` with all four components present, e.g.
``1/2-3*i+0*j+7/5*k``.  ``parse_scalar(format_scalar(x)) == x`` exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ZeroInverse

# An unsigned coefficient in ASCII digits: p/q with q > 0, or a decimal such as 1.5, 1. or .5
# (no exponent).  In a quaternion term a `*` may stand only between a coefficient and its unit.
# Spaces may stand before a term, after a sign and around a `*`: never inside a coefficient
# or between a coefficient and its unit.
_COEF = r"[0-9]+/[0-9]*[1-9][0-9]*|[0-9]+(?:\.[0-9]*)?|\.[0-9]+"
_QUAT_TERM = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>{_COEF})(?:\s*\*\s*(?=[ijk]))?)?(?P<unit>[ijk]?)"
)
_RATIONAL = re.compile(rf"(?P<sign>[+-]?)\s*(?P<coef>{_COEF})")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _exact(a):
    """a as an exact scalar, an int as a Fraction; a bool, float, complex or None is a TypeError."""
    if a is None or isinstance(a, (bool, float, complex)):
        raise TypeError(f"{type(a).__name__} is not an exact scalar")
    return Fraction(a) if isinstance(a, int) else a


class RationalQuaternion:
    """A quaternion a + b*i + c*j + d*k with exact rational components.

    The stored form ``_q = (a, b, c, d, e)`` holds integers with ``e > 0``
    and ``gcd(a, b, c, d, e) == 1``; the value is ``(a + b*i + c*j + d*k) / e``.
    """

    __slots__ = ("_q",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            _set_q(self, (a, b, c, d, 1))
            return
        parts = [Fraction(_exact(part)) for part in (a, b, c, d)]
        e = math.lcm(*(part.denominator for part in parts))
        _set_q(self, (*(part.numerator * (e // part.denominator) for part in parts), e))

    def __setattr__(self, name, value):
        raise AttributeError("RationalQuaternion is immutable")

    a = property(lambda self: Fraction(self._q[0], self._q[4]))
    b = property(lambda self: Fraction(self._q[1], self._q[4]))
    c = property(lambda self: Fraction(self._q[2], self._q[4]))
    d = property(lambda self: Fraction(self._q[3], self._q[4]))

    def components(self):
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def _coerce(other):
        """The stored form of a real operand, or None; quaternions never come here."""
        if type(other) is int:  # a bool is an int but not a scalar
            return (other, 0, 0, 0, 1)
        if isinstance(other, Fraction):
            return (other.numerator, 0, 0, 0, other.denominator)
        return None

    # The hot operators below each do their whole job in one frame: unpack both stored
    # forms, compute, divide by the gcd when e != 1, and build the result.  A real operand
    # goes through _coerce; a real is central, so q + r = r + q and q * r = r * q.

    def __add__(self, other):
        a1, b1, c1, d1, e1 = self._q
        if type(other) is RationalQuaternion:
            a2, b2, c2, d2, e2 = other._q
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            a2, b2, c2, d2, e2 = o
        if e1 == e2:
            a, b, c, d, e = a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1
        else:
            a, b, c, d = a1 * e2 + a2 * e1, b1 * e2 + b2 * e1, c1 * e2 + c2 * e1, d1 * e2 + d2 * e1
            e = e1 * e2
        if e != 1:
            g = math.gcd(a, b, c, d, e)
            if g != 1:
                a, b, c, d, e = a // g, b // g, c // g, d // g, e // g
        out = object.__new__(RationalQuaternion)
        _set_q(out, (a, b, c, d, e))
        return out

    __radd__ = __add__

    def __sub__(self, other):
        a1, b1, c1, d1, e1 = self._q
        if type(other) is RationalQuaternion:
            a2, b2, c2, d2, e2 = other._q
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            a2, b2, c2, d2, e2 = o
        if e1 == e2:
            a, b, c, d, e = a1 - a2, b1 - b2, c1 - c2, d1 - d2, e1
        else:
            a, b, c, d = a1 * e2 - a2 * e1, b1 * e2 - b2 * e1, c1 * e2 - c2 * e1, d1 * e2 - d2 * e1
            e = e1 * e2
        if e != 1:
            g = math.gcd(a, b, c, d, e)
            if g != 1:
                a, b, c, d, e = a // g, b // g, c // g, d // g, e // g
        out = object.__new__(RationalQuaternion)
        _set_q(out, (a, b, c, d, e))
        return out

    def __rsub__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else -diff

    def __neg__(self):
        a, b, c, d, e = self._q
        out = object.__new__(RationalQuaternion)
        _set_q(out, (-a, -b, -c, -d, e))
        return out

    def __mul__(self, other):
        a1, b1, c1, d1, e1 = self._q
        if type(other) is RationalQuaternion:
            a2, b2, c2, d2, e2 = other._q
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            a2, b2, c2, d2, e2 = o
        # the Hamilton product, i^2 = j^2 = k^2 = ijk = -1
        a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
        b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
        c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
        d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
        e = e1 * e2
        if e != 1:
            g = math.gcd(a, b, c, d, e)
            if g != 1:
                a, b, c, d, e = a // g, b // g, c // g, d // g, e // g
        out = object.__new__(RationalQuaternion)
        _set_q(out, (a, b, c, d, e))
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is RationalQuaternion:
            return self._q == other._q
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._q == o

    def __hash__(self):
        a, b, c, d, e = self._q
        if b == 0 and c == 0 and d == 0:
            return hash(Fraction(a, e))
        return hash(self._q)

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self):
        q = self._q
        return q[0] == 0 and q[1] == 0 and q[2] == 0 and q[3] == 0

    def conjugate(self):
        a, b, c, d, e = self._q
        out = object.__new__(RationalQuaternion)
        _set_q(out, (a, -b, -c, -d, e))
        return out

    def inverse(self):
        a, b, c, d, e = self._q
        n = a * a + b * b + c * c + d * d
        if n == 0:
            raise ZeroInverse("cannot invert the zero quaternion")
        # conj(q) / |q|^2 = (a - bi - cj - dk) e / (a^2 + b^2 + c^2 + d^2), and n > 0
        a, b, c, d = a * e, -b * e, -c * e, -d * e
        if n != 1:
            g = math.gcd(a, b, c, d, n)
            if g != 1:
                a, b, c, d, n = a // g, b // g, c // g, d // g, n // g
        out = object.__new__(RationalQuaternion)
        _set_q(out, (a, b, c, d, n))
        return out

    def __repr__(self):
        return f"RationalQuaternion({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        return format_scalar(self)


_set_q = RationalQuaternion.__dict__["_q"].__set__


def is_zero(a) -> bool:
    """Exact zero test, usable for every supported scalar.

    sympy expressions are normalized with ``cancel`` first, so rational
    functions in commuting symbols are decided exactly.
    """
    if type(a) is RationalQuaternion:
        q = a._q
        return q[0] == 0 and q[1] == 0 and q[2] == 0 and q[3] == 0
    if isinstance(_exact(a), Fraction):
        return a == 0
    if type(a).__module__.split(".")[0] == "sympy":
        import sympy

        return sympy.cancel(sympy.together(a)) == 0
    return a == 0


def equal(a, b) -> bool:
    """Exact equality: ``a == b`` compares the one stored form of a quaternion, Fraction or int,
    and ``is_zero(a - b)`` settles what ``==`` cannot match (an uncancelled sympy form)."""
    return a == b or is_zero(a - b)


def inv(a):
    """Multiplicative inverse of a nonzero scalar."""
    # every quaternion inversion runs through the method, where perfbench's tracer counts it
    if type(a) is RationalQuaternion:
        return a.inverse()
    if is_zero(a):
        raise ZeroInverse(f"cannot invert {a}")
    return Fraction(1, a) if isinstance(a, int) else 1 / a


def quat_inv(x: RationalQuaternion) -> RationalQuaternion:
    """Two-sided inverse conj(x)/norm(x); raises ZeroInverse at x = 0."""
    return x.inverse()


def format_scalar(x) -> str:
    """Canonical text form; round-trips exactly through parse_scalar."""
    if isinstance(x, (int, Fraction)):
        return _format_rational(Fraction(x))
    if isinstance(x, RationalQuaternion):
        parts = [_format_rational(x.a)]
        for coef, unit in ((x.b, "i"), (x.c, "j"), (x.d, "k")):
            body = _format_rational(abs(coef))
            parts.append(("-" if coef < 0 else "+") + body + "*" + unit)
        return "".join(parts)
    raise TypeError(f"no text form for {type(x).__name__}")


def _format_rational(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def parse_int(text: str) -> int:
    """Parse an integer in ASCII digits, ``[+-]?[0-9]+``, with surrounding spaces allowed.

    ``int`` alone would also take other Unicode digits and underscores.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_scalar(text: str):
    """Parse ``p/q`` into a Fraction or ``a+b*i+c*j+d*k`` into a quaternion.

    Terms may be omitted or reordered; every term after the first starts
    with its sign, and a bare unit like ``-i`` means coefficient 1.  A
    coefficient is ``p``, ``p/q`` or a decimal such as ``1.5`` or ``.5`` in
    ASCII digits, with no exponent, and a rational is one coefficient with
    its sign.  A ``*`` stands only between a coefficient and its unit.
    Spaces may stand around the text, after a sign, around a ``*`` and
    between terms; a space inside a coefficient (``1 2``, ``2 / 3``) or
    between a coefficient and its unit (``2 i``) is refused.
    Any appearance of i/j/k yields a RationalQuaternion.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    if not re.search(r"[ijk]", s):
        m = _RATIONAL.fullmatch(s)
        if not m:
            raise ValueError(f"bad rational {text!r}")
        value = Fraction(m.group("coef"))
        return -value if m.group("sign") == "-" else value
    comps = {"": Fraction(0), "i": Fraction(0), "j": Fraction(0), "k": Fraction(0)}
    pos = 0
    while pos < len(s):
        m = _QUAT_TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad quaternion {text!r} at position {pos}")
        sign, coef, unit = m.group("sign"), m.group("coef"), m.group("unit")
        if (coef is None and unit == "") or (pos > 0 and not sign):
            raise ValueError(f"bad quaternion {text!r} at position {pos}")
        value = Fraction(coef) if coef is not None else Fraction(1)
        if sign == "-":
            value = -value
        comps[unit] += value
        pos = m.end()
    return RationalQuaternion(comps[""], comps["i"], comps["j"], comps["k"])
