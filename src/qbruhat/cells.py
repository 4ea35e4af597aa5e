"""Bruhat cell classification, reduced-cell membership and twist maps.

Classification reduces x by row operations from the upper Borel only: a
*lower* row may be added to a higher one (left multiplication by B).  The
pivot of each column is its bottom-most nonzero entry among the rows not yet
used as pivots: ``gauss._reduce_rows`` by the Bruhat pivot rule, where the
Gauss rule takes the diagonal one.  The pivot pattern is the permutation u
with x in B u B.  Column operations from B would only rewrite pivot rows, so
they could not change the pattern and none are done.  The opposite cell
datum comes from the same procedure applied to the 180-degree rotation of x,
conjugating by the longest permutation; ``_opposite_datum`` is that v side
alone, which ``factor_w0_v`` reads before the gate.

The twist of a reduced cell point is

    psi(x) = ([x vbar']_-)^iota (x^iota)^{-1} ([ubar^{-1} x]_+)^iota

with vbar' the signed representative of v^{-1} and iota the positive
inverse, so (x^iota)^{-1} = J x J.  The general twist prepends the permuted
torus part h of [ubar^{-1} x]_0, the level quasiminors of x at (u, e), and
is left H-equivariant; h is all 1 exactly on the reduced cell.  As
x [ubar^{-1} x]_+^{-1} = ubar [ubar^{-1} x]_-, the twist is
J [x vbar']_-^{-1} ubar [ubar^{-1} x]_- J with rows scaled by h.  Its two
projections are the Bruhat factorizations that decide the double cell, so
``_twist`` is also the one cell gate, reducing x once per side.  The u side
is ``bruhat_factor``: x = b1 ubar b2 with b1 in U(u), so
ubar [ubar^{-1} x]_- = b1 ubar D with D = diag(b2), and h is D permuted by
u.  The v side is B^- v B^- = B^- vbar (U^- meet v^{-1} U v): x lies in it
iff x vbar' is in the Gauss cell and [x vbar']_+ vanishes off
``schubert_support(v)``.  ``gauss._gauss_eliminate`` on [x vbar' | b1 ubar],
scaling no pivot row, leaves row k as d_k times that of
[[x vbar']_+ | [x vbar']_-^{-1} b1 ubar], d_k the k-th pivot: the zeros
of the left block give that test, and psi[k, l] = +-(h_k d_k^{-1}) M[k, l] D_l
with M the right block; no matrix is inverted.  b1 is built with the zeros
and ones of x's own scalar type (``_bruhat_parts``), so the twist of a
quaternion x does only quaternion arithmetic.  ``_twist_from_factor`` is
that v side (with h and psi(x)) on a given Bruhat factor.
``cross_checked_twist`` decomposes both sides afresh to check the form
above and those through [(vbar x^iota)^{-1}]_+ and [ubar' (x^iota)^{-1}]_-
against it.

x is reduced only through ``_point``, a record of the last matrix seen (keyed
by identity): its Bruhat factor, opposite datum, twist at each v and one
``MinorCache`` of x and of each twist, each made on first use.  It keeps a
NotGeneric as ``MinorCache`` does (``quasidet._kept``) and raises a fresh copy
on every later read.  ``classify``, ``bruhat_factor`` and the gate read it, so
calls on one point, a refusal's ``classify`` included, reduce x once per side,
and a singular x once in all.

Errors distinguish "wrong cell" (WrongCell) from "a Gauss projection
failed" (NotGeneric), because the harness treats them differently.  With
`check`, x off the double cell is WrongCell naming the cell ``classify``
finds; without it, NotGeneric naming the projection that failed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotGeneric, QBruhatError, ShapeMismatch, WrongCell
from .gauss import _gauss_eliminate, _reduce_rows, gauss_parts
from .matrix import Matrix, _schur_chain, interval, iota, iota_inverse_free, sigma
from .quasidet import MinorCache, _kept
from .scalars import equal, is_zero
from .weyl import Permutation, left_by_representative, right_by_representative


def _no_pivot(j: int) -> NotGeneric:
    return NotGeneric(f"matrix is singular: column {j} has no usable pivot", witness=("column", j))


def _pivot_pattern(x: Matrix):
    """``gauss._reduce_rows`` of x by the Bruhat rule: (u, M, steps) with M the reduced x.

    The column-j pivot of M is in row u(j), zeros left of it, so ubar^{-1} M is upper
    triangular.
    """
    if not x.is_square:
        raise ShapeMismatch("classification needs a square matrix")
    m = x.to_lists()
    steps = _reduce_rows(m, bottom=True)
    if len(steps) < x.rows:
        raise _no_pivot(len(steps) + 1)
    return Permutation([r + 1 for r, _, _, _ in steps]), Matrix._wrap(tuple(map(tuple, m))), steps


class CellLabel(NamedTuple):
    """The double Bruhat cell datum of a matrix; compares equal to (u, v)."""

    u: Permutation
    v: Permutation


def _opposite_datum(x: Matrix) -> Permutation:
    """The v with x in B^- v B^-: the pivot pattern of sigma(x), conjugated by w0.

    A singular x is reported at its own column n + 1 - j, not at column j of sigma(x).
    """
    try:
        pattern = _pivot_pattern(sigma(x))[0]
    except NotGeneric as exc:
        raise _no_pivot(x.rows + 1 - exc.witness[1]) from None
    w0 = Permutation.longest(x.rows)
    return w0 * pattern * w0


def classify(x: Matrix) -> CellLabel:
    """The unique (u, v) with x in BuB and x in B^- v B^-, read off x's record."""
    point = _point(x)
    return CellLabel(point.bruhat_parts()[1], point.opposite_datum())


def _bruhat_parts(x: Matrix):
    """``bruhat_factor(x)``, made once per point by its record.

    b1 holds f at b1[i, r] for each row_i -= f row_r of the reduction and elsewhere the
    zero a - a and the one a - a + 1 of x's first entry a.
    """
    u, m, steps = _pivot_pattern(x)
    b2 = left_by_representative(u, m, inverse=True)
    if not b2.is_upper_triangular():
        raise QBruhatError("pivot normal form did not reduce to an upper triangular factor")
    a = x._e[0][0]
    zero = a - a
    one = zero + 1
    b1 = [[one if i == c else zero for c in range(x.rows)] for i in range(x.rows)]
    for r, _, _, multipliers in steps:
        for i, f in multipliers:
            b1[i][r] = f
    return Matrix._wrap(tuple(map(tuple, b1))), u, b2


def bruhat_factor(x: Matrix):
    """(b1, u, b2) with x = b1 * representative(u) * b2 and b1, b2 upper.

    b1 undoes the row operations of the reduction and is unitriangular (in
    U(u), see ``bruhat_factor_schubert``); b2 = ubar^{-1} M, with M the
    reduced matrix, carries the torus part.
    """
    return _point(x).bruhat_parts()


def in_bruhat_cell(x: Matrix, u: Permutation) -> bool:
    """Rank-profile membership oracle for x in BuB.

    x lies in BuB iff every lower-left corner block has the rank forced by
    the pivot pattern of u: the pivot count of ``_schur_chain`` on that
    corner of x, independently of the classification routine.
    """
    n = x.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = sum(1 for k in range(1, j + 1) if u(k) >= i)
            if len(_schur_chain(x._e, interval(i, n), interval(1, j))[0]) != expected:
                return False
    return True


def in_opposite_cell(x: Matrix, v: Permutation) -> bool:
    """Rank-profile membership oracle for x in B^- v B^-."""
    w0 = Permutation.longest(x.rows)
    return in_bruhat_cell(sigma(x), w0 * v * w0)


def schubert_support(u: Permutation) -> frozenset:
    """Positions (i, j), i < j, where u U^- u^{-1} meets U."""
    uinv = u.inverse()
    return frozenset(
        (i, j)
        for i in range(1, u.n + 1)
        for j in range(i + 1, u.n + 1)
        if uinv(i) > uinv(j)
    )


def _within_support(rows, u: Permutation) -> bool:
    """True iff the strict upper part of the rows' leading square vanishes off the support."""
    support, n = schubert_support(u), u.n
    pairs = ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return all(is_zero(rows[i - 1][j - 1]) for i, j in pairs if (i, j) not in support)


def bruhat_factor_schubert(x: Matrix, u: Permutation | None = None):
    """(n_u, b) with x = n_u * representative(u) * b, n_u in U(u), b upper.

    Constructive form of BuB = U(u) u B.  The reduction behind
    ``bruhat_factor`` only subtracts pivot row u(j) from a row u(j') with
    j' > j and u(j') < u(j), a position on the Schubert support of u, so
    its unitriangular factor b1 lies in the group U(u) already: n_u = b1
    and b = b2.  That membership is checked.
    """
    b1, u_found, b2 = bruhat_factor(x)
    if u is None:
        u = u_found
    elif u != u_found:
        raise WrongCell(f"x lies in the cell of {u_found!r}", expected=u, actual=u_found)
    if not _within_support(b1._e, u):
        raise QBruhatError("the unipotent Borel factor is not in U(u)")
    return b1, b2


def _gauss(m: Matrix, label: str):
    """``gauss_parts(m)``; a failure names the projection `label`."""
    try:
        return gauss_parts(m)
    except NotGeneric as exc:
        raise NotGeneric(
            f"Gauss projection {label} failed: {exc}", witness=("projection", label)
        ) from exc


def _torus_entries(u: Permutation, h: Matrix) -> list:
    # ubar h ubar^{-1} carries h[j, j] to position u(j); the +-1 signs cancel
    return [h[j, j] for j in u.inverse().images]


def _twist_from_factor(x: Matrix, b1: Matrix, u: Permutation, b2: Matrix, v: Permutation):
    """(psi(x), h) from x's Bruhat factor x = b1 ubar b2: the gate's v side, NotGeneric off it.

    The Gauss-rule elimination leaves row k of [x vbar' | b1 ubar] as d_k times that of
    [[x vbar']_+ | [x vbar']_-^-1 b1 ubar], d_k the k-th pivot, so with D = diag(b2)
    psi[k, l] = +-(h_k d_k^-1) M[k, l] D[l]; an exact zero M[k, l] is kept as it is, with no
    product.
    """
    n = x.rows
    rhs = right_by_representative(b1, u)
    rows = [list(a + b) for a, b in zip(right_by_representative(x, v.inverse())._e, rhs._e)]
    steps = _gauss_eliminate(rows)
    if not _within_support(rows, v):
        raise NotGeneric(f"[x vbar']_+ is not zero off the Schubert support of {v!r}")
    d = [b2._e[j][j] for j in range(n)]
    h = _torus_entries(u, b2)
    psi = []
    for k, (row, (_, p, _, _)) in enumerate(zip(rows, steps)):
        c = h[k] * p
        signed = (c, -c)
        psi.append(
            tuple(
                a if is_zero(a) else signed[(k + l) % 2] * a * s
                for l, (a, s) in enumerate(zip(row[n:], d))
            )
        )
    return Matrix._wrap(tuple(psi)), h


# -- the derived data of one point ----------------------------------------------


class _Point:
    """Pure functions of one matrix x, each made on first use and kept in one memo.

    The Bruhat factor and the opposite datum of x, the twist (psi(x), h) at each
    (u, v) with u the Bruhat pattern of x, and one ``MinorCache`` of x and of each
    twist.  The memo follows ``MinorCache``'s rule (``quasidet._kept``): a NotGeneric
    is kept, and every later read raises a fresh copy of it; any other error
    propagates and is not kept.
    """

    def __init__(self, x: Matrix):
        self.x = x
        self._memo = {}

    def bruhat_parts(self):
        return _kept(self._memo, "bruhat", _bruhat_parts, (self.x,))

    def opposite_datum(self) -> Permutation:
        return _kept(self._memo, "opposite", _opposite_datum, (self.x,))

    def twist(self, v: Permutation):
        """(psi(x), h) at (u, v), u the pattern of x: ``_twist_from_factor`` on x's factor."""
        return _kept(self._memo, ("twist", v), self._twist_at, (v,))

    def _twist_at(self, v: Permutation):
        b1, u, b2 = self.bruhat_parts()
        return _twist_from_factor(self.x, b1, u, b2, v)

    def minors(self, m: Matrix) -> MinorCache:
        """The one ``MinorCache`` of m, which is x or one of its twists."""
        # keyed by id(m): the cache holds m, so its id is not reused meanwhile
        return _kept(self._memo, ("minors", id(m)), MinorCache, (m,))


# The last point the gate's entry points saw; they are separate public calls that take
# only x, so the record lives here.  One entry, keyed by identity: a Matrix is immutable
# but unhashable, and a structurally equal copy is another point.  Threads need no lock:
# each keeps the point it took, and a field two threads fill holds equal values.
_last_point = None


def _point(x: Matrix) -> _Point:
    global _last_point
    point = _last_point
    if point is None or point.x is not x:
        point = _last_point = _Point(x)
    return point


def _twist(x: Matrix, u: Permutation, v: Permutation, check: bool = True):
    """(psi(x), h) from one reduction of x per side: the cell gate (see the module docstring).

    The u side is tested first; a singular x under `check` stays classify's NotGeneric.
    """
    if u.n != x.rows or v.n != x.rows:
        raise ShapeMismatch(
            f"permutations of sizes ({u.n}, {v.n}) against a {x.shape_str()} matrix"
        )
    point = _point(x)
    label = "[ubar^-1 x]"
    try:
        found = point.bruhat_parts()[1]
        if found != u:
            raise NotGeneric(f"x lies in B {found!r} B")
        label = "[x vbar']_-"
        return point.twist(v)
    except NotGeneric as exc:
        if not check:
            raise NotGeneric(
                f"Gauss projection {label} failed: {exc}", witness=("projection", label)
            ) from exc
        actual = classify(x)
        raise WrongCell(
            f"x lies in the cell of {actual!r}, not ({u!r}, {v!r})",
            expected=(u, v),
            actual=actual,
        ) from exc


def in_reduced_cell(x: Matrix, u: Permutation, v: Permutation) -> bool:
    """True iff the torus (level quasiminors at (u, e)) is all 1; WrongCell off the double cell."""
    return all(equal(h, 1) for h in _twist(x, u, v)[1])


def twist_general(x: Matrix, u: Permutation, v: Permutation, check: bool = True) -> Matrix:
    """Left H-equivariant twist on the full double cell, inverse-free.

    x off the double cell is WrongCell with `check`, NotGeneric without it.
    """
    return _twist(x, u, v, check)[0]


def twist_reduced(x: Matrix, u: Permutation, v: Permutation, check: bool = True) -> Matrix:
    """The twist of a reduced-cell point; lands in the opposite reduced cell.

    x off the double cell is WrongCell with `check`, NotGeneric without it;
    with `check`, a torus that is not all 1 is WrongCell too.
    """
    psi, h = _twist(x, u, v, check)
    if check and not all(equal(t, 1) for t in h):
        raise WrongCell(
            f"x is in the double cell of ({u!r}, {v!r}) but not in its reduced cell"
        )
    return psi


def cross_checked_twist(x: Matrix, u: Permutation, v: Permutation) -> Matrix:
    """The twist oracle: ``twist_general`` once the paper's form and both alternatives equal it."""
    result = twist_general(x, u, v)
    _, mid, up0 = _gauss(left_by_representative(u, x, inverse=True), "[ubar^-1 x]")
    torus = _torus_entries(u, mid)
    left = _gauss(right_by_representative(x, v.inverse()), "[x vbar']_-")[0]
    core = iota_inverse_free(x)
    iota_left, iota_up = iota(left), iota(up0)
    paper = (iota_left * core * iota_up)._scale_rows(torus)
    plus = _gauss(right_by_representative(core, v, inverse=True), "[(vbar x^iota)^-1]_+")[2]
    alt1 = (right_by_representative(plus, v) * iota_up)._scale_rows(torus)
    minus = _gauss(left_by_representative(u.inverse(), core), "[ubar' (x^iota)^-1]_-")[0]
    alt2 = (
        iota_left * left_by_representative(u.inverse(), minus, inverse=True)
    )._scale_rows(torus)
    if result != paper or result != alt1 or result != alt2:
        raise QBruhatError("the twist formulas disagree")
    return result
