"""Bruhat cell classification, reduced-cell membership and twist maps.

Classification reduces x by row operations from the upper Borel only: a
*lower* row may be added to a higher one (left multiplication by B).  The
pivot of each column is its bottom-most nonzero entry among the rows not
yet used as pivots; the pivot pattern is the permutation u with x in B u B.
Column operations from B would only rewrite pivot rows, so they could not
change the pattern and none are done.  The opposite cell datum comes from
the same procedure applied to the 180-degree rotation of x, conjugating by
the longest permutation.

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
``schubert_support(v)``, and ``gauss.lower_solve`` on
[x vbar' | b1 ubar D] yields that test and divides by [x vbar']_-, with
no inverse.  ``cross_checked_twist`` decomposes both sides afresh to check
the form above and those through [(vbar x^iota)^{-1}]_+ and
[ubar' (x^iota)^{-1}]_- against it.

Errors distinguish "wrong cell" (WrongCell) from "a Gauss projection
failed" (NotGeneric), because the harness treats them differently.  With
`check`, x off the double cell is WrongCell naming the cell ``classify``
finds; without it, NotGeneric naming the projection that failed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotGeneric, QBruhatError, ShapeMismatch, WrongCell
from .gauss import gauss_parts, lower_solve
from .matrix import Matrix, iota, iota_inverse_free, rank, sigma
from .scalars import inv, is_zero
from .weyl import Permutation, left_by_representative, right_by_representative


def _pivot_pattern(x: Matrix):
    """Reduce x by upper-Borel row operations.

    Returns (u, M, b1) with x = b1 M (b1 upper unitriangular, as rows) and the
    column-j pivot of M in row u(j), zeros left of it, so ubar^{-1} M is upper
    triangular.  Undoing row_i -= f row_r, with row i no pivot yet, puts f at b1[i, r].
    """
    if not x.is_square:
        raise ShapeMismatch("classification needs a square matrix")
    n = x.rows
    m = x.to_lists()
    b1 = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    used = [False] * n
    images = [0] * n
    for j in range(n):
        candidates = [r for r in range(n) if not used[r] and not is_zero(m[r][j])]
        if not candidates:
            raise NotGeneric(
                f"matrix is singular: column {j + 1} has no usable pivot",
                witness=("column", j + 1),
            )
        r = max(candidates)
        used[r] = True
        images[j] = r + 1
        pinv = inv(m[r][j])
        for i in range(r):
            if not used[i] and not is_zero(m[i][j]):
                f = m[i][j] * pinv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                b1[i][r] = f
    return Permutation(images), Matrix(m), b1


class CellLabel(NamedTuple):
    """The double Bruhat cell datum of a matrix; compares equal to (u, v)."""

    u: Permutation
    v: Permutation


def classify(x: Matrix) -> CellLabel:
    """The unique (u, v) with x in BuB and x in B^- v B^-."""
    u = _pivot_pattern(x)[0]
    n = x.rows
    w0 = Permutation.longest(n)
    v_rot = _pivot_pattern(sigma(x))[0]
    return CellLabel(u, w0 * v_rot * w0)


def bruhat_factor(x: Matrix):
    """(b1, u, b2) with x = b1 * representative(u) * b2 and b1, b2 upper.

    b1 undoes the row operations of the reduction and is unitriangular (in
    U(u), see ``bruhat_factor_schubert``); b2 = ubar^{-1} M, with M the
    reduced matrix, carries the torus part.
    """
    u, m, b1 = _pivot_pattern(x)
    b2 = left_by_representative(u, m, inverse=True)
    if not b2.is_upper_triangular():
        raise QBruhatError("pivot normal form did not reduce to an upper triangular factor")
    return Matrix(b1), u, b2


def in_bruhat_cell(x: Matrix, u: Permutation) -> bool:
    """Rank-profile membership oracle for x in BuB.

    x lies in BuB iff every lower-left corner block has the rank forced by
    the pivot pattern of u; computed by row reduction, independently of
    the classification routine.
    """
    n = x.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = sum(1 for k in range(1, j + 1) if u(k) >= i)
            block = x.submatrix(tuple(range(i, n + 1)), tuple(range(1, j + 1)))
            if rank(block) != expected:
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


def _within_support(upper: Matrix, u: Permutation) -> bool:
    """True iff the strict upper part of `upper` vanishes off ``schubert_support(u)``."""
    support, n = schubert_support(u), upper.rows
    pairs = ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return all(is_zero(upper[i, j]) for i, j in pairs if (i, j) not in support)


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
    if not _within_support(b1, u):
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


def _twist(x: Matrix, u: Permutation, v: Permutation, check: bool = True):
    """(psi(x), h) from one reduction of x per side: the cell gate (see the module docstring).

    The u side is tested first; a singular x under `check` stays classify's NotGeneric.
    """
    if u.n != x.rows or v.n != x.rows:
        raise ShapeMismatch(
            f"permutations of sizes ({u.n}, {v.n}) against a {x.shape_str()} matrix"
        )
    label = "[ubar^-1 x]"
    try:
        b1, found, b2 = bruhat_factor(x)
        if found != u:
            raise NotGeneric(f"x lies in B {found!r} B")
        label = "[x vbar']_-"
        d = [b2[j, j] for j in range(1, x.rows + 1)]
        plus, core = lower_solve(
            right_by_representative(x, v.inverse()), right_by_representative(b1, u)._scale_cols(d)
        )
        if not _within_support(plus, v):
            raise NotGeneric(f"[x vbar']_+ is not zero off the Schubert support of {v!r}")
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
    h = _torus_entries(u, b2)
    return iota_inverse_free(core)._scale_rows(h), h


def in_reduced_cell(x: Matrix, u: Permutation, v: Permutation) -> bool:
    """True iff the torus (level quasiminors at (u, e)) is all 1; WrongCell off the double cell."""
    return all(is_zero(h - 1) for h in _twist(x, u, v)[1])


def torus_twist(u: Permutation, h: Matrix) -> Matrix:
    """u(h) = ubar h ubar^{-1}; permutes the diagonal entries by u."""
    if not h.is_diagonal():
        raise ShapeMismatch("torus_twist needs a diagonal matrix")
    return Matrix.diagonal(_torus_entries(u, h))


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
    if check and not all(is_zero(t - 1) for t in h):
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
