"""Independent commutative oracles for the test suite, and a test-only ring.

Deliberately naive and self-contained: cofactor expansion over plain
Python lists, no shared code with the package's elimination or
quasideterminant routines.  Ranks come from sympy's rational domain
matrices, and a quaternion matrix's rank from the rank of its real form.
``OppositeScalar`` is a ring the package does not know: it reaches the
package's zero test and inversion only through their generic branch.
``counted_products`` counts the quaternion products a block of code makes,
``counted_sums`` its quaternion sums and differences, ``counted_inversions``
its quaternion inversions.  ``delete`` is the A^{pq} of the definition, a
copy of x without one row and one column.
"""

import contextlib
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from qbruhat.scalars import RationalQuaternion, inv

QUATERNION_BASIS = [RationalQuaternion(*(int(i == e) for i in range(4))) for e in range(4)]


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion; exact Fractions."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for col in range(n):
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = rows[0][col] * cofactor_det(minor)
        total += term if col % 2 == 0 else -term
    return total


def det_of(x):
    """Determinant of a package Matrix with rational entries."""
    return cofactor_det(x.to_lists())


def det_minor(x, rows, cols):
    """Determinant of the submatrix given by 1-based sorted index sets."""
    lists = x.to_lists()
    return cofactor_det([[lists[i - 1][j - 1] for j in cols] for i in rows])


def plucker_coordinate(x, col_order):
    """det of the square submatrix taking all rows and the given column order."""
    lists = x.to_lists()
    return cofactor_det([[row[c - 1] for c in col_order] for row in lists])


def plucker_row_coordinate(x, row_order):
    """det of the square submatrix taking the given row order and all columns."""
    lists = x.to_lists()
    return cofactor_det([list(lists[r - 1]) for r in row_order])


def rational_rank(rows):
    """Rank of a nonempty rational matrix given as lists of Fractions or ints."""
    entries = [[QQ(Fraction(a).numerator, Fraction(a).denominator) for a in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), QQ).rank()


def real_form(x):
    """The 4n x 4m rational matrix of v -> x v on H^m, for a quaternion matrix x.

    Entry q becomes the 4 x 4 block whose column e holds the components of
    q * e for e = 1, i, j, k.  The image of v -> x v is a right H-space of
    dimension rank(x), so the real form has rank exactly 4 rank(x).
    """
    return [
        [(q * e).components()[r] for q in row for e in QUATERNION_BASIS]
        for row in x.to_lists()
        for r in range(4)
    ]


@contextlib.contextmanager
def _counted(names):
    """Yield a list that grows by one entry per call of the named quaternion operators."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            method = getattr(RationalQuaternion, name)
            patch.setattr(
                RationalQuaternion,
                name,
                lambda *args, method=method: calls.append(1) or method(*args),
            )
        yield calls


def counted_products():
    """Yield a list that grows by one entry per quaternion product made inside the block.

    Both ``__mul__`` and ``__rmul__`` are counted, and restored on exit.
    """
    return _counted(("__mul__", "__rmul__"))


def counted_sums():
    """Yield a list that grows by one entry per quaternion sum or difference made inside the block.

    ``__add__``, ``__radd__``, ``__sub__`` and ``__rsub__`` are counted, and restored on exit.
    """
    return _counted(("__add__", "__radd__", "__sub__", "__rsub__"))


def counted_inversions():
    """Yield a list that grows by one entry per quaternion inversion made inside the block.

    Every quaternion inversion runs through ``RationalQuaternion.inverse``, which is counted.
    """
    return _counted(("inverse",))


def delete(x, i, j):
    """The submatrix of x with row i and column j removed."""
    rows = tuple(r for r in range(1, x.rows + 1) if r != i)
    cols = tuple(c for c in range(1, x.cols + 1) if c != j)
    return x.submatrix(rows, cols)


class OppositeScalar:
    """A scalar of the opposite ring: same additive group, reversed products.

    Wrapping every entry of x^T in this turns the literal transpose into a
    genuine antiautomorphism over a noncommutative scalar, which is what the
    transpose identity for quasiminors asserts.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("OppositeScalar is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, OppositeScalar):
            return other
        if type(other) is int or isinstance(other, (Fraction, RationalQuaternion)):
            return OppositeScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OppositeScalar(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OppositeScalar(self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return OppositeScalar(-self.value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OppositeScalar(o.value * self.value)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __rtruediv__(self, other):
        # other times the inverse of self, in the opposite ring; ``inv`` reaches it as 1 / a
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * OppositeScalar(inv(self.value))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash(("op", self.value))

    def __repr__(self):
        return f"OppositeScalar({self.value!r})"
