"""Gauss LDU decomposition and the Gauss cell projections.

Two independent routes produce the same triple and are tested against each
other:

* :func:`ldu` builds the factors from quasi-Plucker coordinates of leading
  column and row blocks, with the diagonal given by the principal
  quasiminors.  This is the closed-form route.
* :func:`ldu_elimination` reads plain Gaussian elimination over the skew
  field, the oracle route.

Both exist exactly on the Gauss cell: all principal quasiminors defined
and invertible.  The projections [x]_- = L*D, [x]_0 = D, [x]_+ = U feed
the Bruhat cell machinery; note [x]_- is lower *triangular* (it carries
the diagonal), while the stored factors keep L unitriangular.  The
projections and the oracle's factors take their zeros from x's first entry,
so they carry x's scalar type; :func:`ldu` builds its units from int
literals.  The elimination is ``_reduce_rows`` by the Gauss pivot rule,
the row reduction that ``cells`` runs by the Bruhat rule.  On the rows
[A | B] it leaves row k as d_k times row k of [[A]_+ | [A]_-^-1 B], d_k the
k-th pivot (``_gauss_eliminate``, the twist's elimination); scaled by
d_k^-1, the rows are the pair :func:`lower_solve` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGeneric, NotInGaussCell, ShapeMismatch
from .matrix import Matrix, interval
from .quasidet import principal_quasiminor, quasi_plucker_left, quasi_plucker_right
from .scalars import inv, is_zero


@dataclass(frozen=True)
class GaussTriple:
    lower: Matrix
    diag: Matrix
    upper: Matrix

    def __post_init__(self):
        if not self.lower.is_unitriangular("lower"):
            raise ShapeMismatch("lower factor must be lower unitriangular")
        if not self.diag.is_diagonal():
            raise ShapeMismatch("middle factor must be diagonal")
        if not self.upper.is_unitriangular("upper"):
            raise ShapeMismatch("upper factor must be upper unitriangular")

    def product(self) -> Matrix:
        """lower * diag * upper, with one dense product: diag scales lower's columns."""
        d = self.diag
        return self.lower._scale_cols([d[i, i] for i in range(1, d.rows + 1)]) * self.upper


def ldu(A: Matrix) -> GaussTriple:
    """LDU factors from quasi-Plucker coordinates of leading blocks.

    Diagonal entries are the principal quasiminors; the (beta, alpha)
    entry of L is the right quasi-Plucker coordinate of the first alpha
    columns, and the (alpha, beta) entry of U the left quasi-Plucker
    coordinate of the first alpha rows.  NotGeneric names the first zero
    principal quasiminor; levels go in order, so by heredity (GGRW 2005, Thm
    1.5.2) a singular leading block shows one level earlier as a zero one.
    """
    if not A.is_square:
        raise ShapeMismatch(f"ldu needs a square matrix, got {A.shape_str()}")
    n = A.rows
    diag_entries = []
    for k in range(1, n + 1):
        y = principal_quasiminor(A, k)
        if is_zero(y):
            raise NotGeneric(
                f"principal quasiminor at level {k} is zero", witness=("principal", k)
            )
        diag_entries.append(y)
    lower = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    upper = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    all_rows = interval(1, n)
    all_cols = interval(1, n)
    for alpha in range(1, n):
        col_block = A.submatrix(all_rows, interval(1, alpha))
        row_block = A.submatrix(interval(1, alpha), all_cols)
        aux = interval(1, alpha - 1)
        for beta in range(alpha + 1, n + 1):
            lower[beta - 1][alpha - 1] = quasi_plucker_right(col_block, beta, alpha, aux)
            upper[alpha - 1][beta - 1] = quasi_plucker_left(row_block, alpha, beta, aux)
    return GaussTriple(Matrix(lower), Matrix.diagonal(diag_entries), Matrix(upper))


def _reduce_rows(rows: list, *, bottom: bool) -> list:
    """Clear the leading square block of `rows` in place by left multiples of pivot rows.

    Column j's pivot d is row j's entry (the Gauss rule, no exchange) or, with `bottom`,
    the bottom-most unused row's nonzero one (the Bruhat rule).  Every other unused row,
    zero left of j, with a != 0 in column j loses f = a d^-1 times the pivot row from
    column j + 1 on, and its column j becomes a zero of a's type: a - a, made again only
    when a's type differs from the last cleared entry's.  An entry c above an exact zero b
    of the pivot row is kept as it is, with no c - f b.  Pivot rows are not scaled.  Returns
    (r, d^-1, column j as it was, [(i, f), ...]) per pivot row r, up to the first column
    without a pivot.
    """
    free = list(range(len(rows)))
    steps, zero = [], None
    for j in range(len(rows)):
        column = [row[j] for row in rows]
        nonzero = [i for i in free if not is_zero(column[i])]
        r = nonzero[-1] if bottom and nonzero else j
        if r not in nonzero:
            break
        free.remove(r)
        p, pivot = inv(column[r]), rows[r]
        live = [(q, pivot[q]) for q in range(j + 1, len(pivot)) if not is_zero(pivot[q])]
        multipliers = [(i, column[i] * p) for i in nonzero if i != r]
        for i, f in multipliers:
            a, row = column[i], rows[i]
            if type(a) is not type(zero):
                zero = a - a
            row[j] = zero
            for q, b in live:
                row[q] = row[q] - f * b
        steps.append((r, p, column, multipliers))
    return steps


def _gauss_eliminate(rows: list) -> list:
    """``_reduce_rows`` by the Gauss rule, every row reduced: its steps, pivot k in row k.

    Row k is left as d_k times row k of [[A]_+ | [A]_-^-1 B], d_k its pivot.  A zero
    pivot k raises NotInGaussCell, witness ("pivot", k).
    """
    steps = _reduce_rows(rows, bottom=False)
    if len(steps) < len(rows):
        k = len(steps) + 1
        message = f"matrix is outside the Gauss cell: elimination pivot {k} is zero"
        raise NotInGaussCell(message, witness=("pivot", k))
    return steps


def _gauss_reduce(rows: list) -> list:
    """``_gauss_eliminate``, then each pivot row scaled to a leading 1.

    Returns (column, d^-1) per pivot d: column k from its diagonal down is column k of [A]_-.
    """
    steps = _gauss_eliminate(rows)
    for k, (_, p, _, _) in enumerate(steps):
        rows[k][k:] = [p * a for a in rows[k][k:]]
    return [(column, p) for _, p, column, _ in steps]


def _projections(x: Matrix):
    """``gauss_parts(x)`` and the inverses of the entries of [x]_0, from one elimination.

    The zeros of [x]_- and [x]_0 are a - a for x's first entry a.
    """
    if not x.is_square:
        raise ShapeMismatch(f"gauss_parts needs a square matrix, got {x.shape_str()}")
    n = x.rows
    a = x._e[0][0]
    zero = a - a
    rows = x.to_lists()
    cols, inverses = zip(*_gauss_reduce(rows))
    lower = Matrix([[cols[j][i] if j <= i else zero for j in range(n)] for i in range(n)])
    diag = Matrix([[cols[k][k] if j == k else zero for j in range(n)] for k in range(n)])
    return lower, diag, Matrix._wrap(tuple(map(tuple, rows))), inverses


def gauss_parts(x: Matrix):
    """The projections ([x]_-, [x]_0, [x]_+) on the Gauss cell B^- U."""
    return _projections(x)[:3]


def lower_solve(a: Matrix, b: Matrix):
    """([a]_+, [a]_-^-1 b), the latter a^-1 b for a lower triangular a; raises as gauss_parts."""
    if not a.is_square or b.rows != a.rows:
        raise ShapeMismatch(f"cannot solve {a.shape_str()} against {b.shape_str()}")
    n = a.rows
    rows = [list(row + rhs) for row, rhs in zip(a._e, b._e)]
    _gauss_reduce(rows)
    plus, solved = zip(*((tuple(row[:n]), tuple(row[n:])) for row in rows))
    return Matrix._wrap(plus), Matrix._wrap(solved)


def ldu_elimination(A: Matrix) -> GaussTriple:
    """LDU from one elimination, L = [A]_- D^-1 with D^-1 from it; the oracle for :func:`ldu`."""
    lower, diag, upper, inverses = _projections(A)
    return GaussTriple(lower._scale_cols(inverses), diag, upper)
