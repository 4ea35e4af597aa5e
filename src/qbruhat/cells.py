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
torus part h of [ubar^{-1} x]_0 and is left H-equivariant.  h holds the
level quasiminors of x at (u, e), all 1 exactly on the reduced cell, so
the twist, ``in_reduced_cell`` and ``factorize.recover_params`` read it off
one Gauss decomposition (``_ubar_gauss``).  As x [ubar^{-1} x]_+^{-1} = ubar
[ubar^{-1} x]_-, the twist is J [x vbar']_-^{-1} ubar [ubar^{-1} x]_- J with
rows scaled by h: one left division (``Matrix.solve``), no inverse.  The
form above and those through [(vbar x^iota)^{-1}]_+ and [ubar' (x^iota)^{-1}]_-
are the oracles of ``cross_checked_twist``.  Errors distinguish "wrong
cell" (WrongCell) from "a Gauss projection failed" (NotGeneric), because
the harness treats them differently; ``require_cell`` is the one cell gate,
and a permutation of another size than x is a ShapeMismatch there.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotGeneric, QBruhatError, ShapeMismatch, WrongCell
from .gauss import gauss_parts
from .matrix import Matrix, iota, iota_inverse_free, rank, sigma
from .scalars import inv, is_zero
from .weyl import Permutation, left_by_representative, right_by_representative


def _pivot_pattern(x: Matrix, track: bool):
    """Reduce x by upper-Borel row operations.

    Returns (u, M, L) with L x = M, L upper unitriangular (tracked only
    when `track` is set) and the column-j pivot of M in row u(j), with zeros
    left of it, so that ubar^{-1} M is upper triangular.
    """
    if not x.is_square:
        raise ShapeMismatch("classification needs a square matrix")
    n = x.rows
    m = x.to_lists()
    lam = [[1 if r == c else 0 for c in range(n)] for r in range(n)] if track else None
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
                if track:
                    lam[i] = [a - f * b for a, b in zip(lam[i], lam[r])]
    return Permutation(images), Matrix(m), Matrix(lam) if track else None


class CellLabel(NamedTuple):
    """The double Bruhat cell datum of a matrix; compares equal to (u, v)."""

    u: Permutation
    v: Permutation


def classify(x: Matrix) -> CellLabel:
    """The unique (u, v) with x in BuB and x in B^- v B^-."""
    u = _pivot_pattern(x, track=False)[0]
    n = x.rows
    w0 = Permutation.longest(n)
    v_rot = _pivot_pattern(sigma(x), track=False)[0]
    return CellLabel(u, w0 * v_rot * w0)


def require_cell(x: Matrix, u: Permutation, v: Permutation) -> None:
    """Raise unless x lies in the double cell of (u, v).

    ShapeMismatch when u or v has another size than x (a usage error),
    WrongCell when x classifies into another cell.
    """
    if u.n != x.rows or v.n != x.rows:
        raise ShapeMismatch(
            f"permutations of sizes ({u.n}, {v.n}) against a {x.shape_str()} matrix"
        )
    actual = classify(x)
    if actual != (u, v):
        raise WrongCell(
            f"x lies in the cell of {actual!r}, not ({u!r}, {v!r})",
            expected=(u, v),
            actual=actual,
        )


def bruhat_factor(x: Matrix):
    """(b1, u, b2) with x = b1 * representative(u) * b2 and b1, b2 upper.

    b1 undoes the row operations of the reduction and is unitriangular (in
    U(u), see ``bruhat_factor_schubert``); b2 = ubar^{-1} M, with M the
    reduced matrix, carries the torus part.
    """
    u, m, lam = _pivot_pattern(x, track=True)
    b2 = left_by_representative(u, m, inverse=True)
    if not b2.is_upper_triangular():
        raise QBruhatError("pivot normal form did not reduce to an upper triangular factor")
    return lam.inverse(), u, b2


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
    n = x.rows
    support = schubert_support(u)
    off_support = (
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in support
    )
    if any(not is_zero(b1[i, j]) for i, j in off_support):
        raise QBruhatError("the unipotent Borel factor is not in U(u)")
    return b1, b2


def _gauss(m: Matrix, label: str):
    """``gauss_parts(m)``; a failure names the twist projection `label`."""
    try:
        return gauss_parts(m)
    except NotGeneric as exc:
        raise NotGeneric(
            f"Gauss projection {label} failed: {exc}", witness=("projection", label)
        ) from exc


def _torus_entries(u: Permutation, h: Matrix) -> list:
    # ubar h ubar^{-1} carries h[j, j] to position u(j); the +-1 signs cancel
    return [h[j, j] for j in u.inverse().images]


def _ubar_gauss(x: Matrix, u: Permutation):
    """([ubar^{-1} x]_-, h, [ubar^{-1} x]_+), h_i = [ubar^{-1} x]_0 at u^{-1}(i).

    h_i is the level-u^{-1}(i) quasiminor of x at (u, e), since the LDU
    diagonal of ubar^{-1} x holds its principal quasiminors.
    """
    low, mid, up = _gauss(left_by_representative(u, x, inverse=True), "[ubar^-1 x]")
    return low, _torus_entries(u, mid), up


def in_reduced_cell(x: Matrix, u: Permutation, v: Permutation) -> bool:
    """True iff every torus entry of x (level quasiminor at (u, e)) is 1: the reduced cell.

    Raises as ``require_cell`` when x is not in the double cell of (u, v).
    """
    require_cell(x, u, v)
    return all(is_zero(h - 1) for h in _ubar_gauss(x, u)[1])


def torus_twist(u: Permutation, h: Matrix) -> Matrix:
    """u(h) = ubar h ubar^{-1}; permutes the diagonal entries by u."""
    if not h.is_diagonal():
        raise ShapeMismatch("torus_twist needs a diagonal matrix")
    return Matrix.diagonal(_torus_entries(u, h))


def _twist(x: Matrix, u: Permutation, v: Permutation):
    """(psi(x), h): the inverse-free twist and the torus its rows are scaled by."""
    low, h, _ = _ubar_gauss(x, u)
    left = _gauss(right_by_representative(x, v.inverse()), "[x vbar']_-")[0]
    return iota_inverse_free(left.solve(left_by_representative(u, low)))._scale_rows(h), h


def twist_general(x: Matrix, u: Permutation, v: Permutation, check: bool = True) -> Matrix:
    """Left H-equivariant twist on the full double cell, inverse-free."""
    if check:
        require_cell(x, u, v)
    return _twist(x, u, v)[0]


def twist_reduced(x: Matrix, u: Permutation, v: Permutation, check: bool = True) -> Matrix:
    """The reduced-cell gate, then ``twist_general``; lands in the opposite reduced cell."""
    if check and not in_reduced_cell(x, u, v):
        raise WrongCell(
            f"x is in the double cell of ({u!r}, {v!r}) but not in its reduced cell"
        )
    return twist_general(x, u, v, check=False)


def cross_checked_twist(x: Matrix, u: Permutation, v: Permutation) -> Matrix:
    """The twist oracle: ``twist_general`` once the paper's form and both alternatives equal it."""
    result = twist_general(x, u, v)
    _, torus, up0 = _ubar_gauss(x, u)
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
