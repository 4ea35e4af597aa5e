"""Gauss LDU decomposition and the Gauss cell projections.

Two independent routes produce the same triple and are tested against each
other:

* :func:`ldu` builds the factors from quasi-Plucker coordinates of leading
  column and row blocks, with the diagonal given by the principal
  quasiminors.  This is the closed-form route.
* :func:`ldu_elimination` reads plain Gaussian elimination over the skew
  field (``_eliminate``), the oracle route.

Both exist exactly on the Gauss cell: all principal quasiminors defined
and invertible.  The projections [x]_- = L*D, [x]_0 = D, [x]_+ = U feed
the Bruhat cell machinery; note [x]_- is lower *triangular* (it carries
the diagonal), while the stored factors keep L unitriangular.  On the rows
[A | B] that elimination leaves [A]_-^-1 B, which :func:`lower_solve` returns.
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
        return self.lower * self.diag * self.upper


def ldu(A: Matrix) -> GaussTriple:
    """LDU factors from quasi-Plucker coordinates of leading blocks.

    Diagonal entries are the principal quasiminors; the (beta, alpha)
    entry of L is the right quasi-Plucker coordinate of the first alpha
    columns, and the (alpha, beta) entry of U the left quasi-Plucker
    coordinate of the first alpha rows.  NotGeneric names the first
    principal quasiminor that is undefined or not invertible.
    """
    if not A.is_square:
        raise ShapeMismatch(f"ldu needs a square matrix, got {A.shape_str()}")
    n = A.rows
    diag_entries = []
    for k in range(1, n + 1):
        try:
            y = principal_quasiminor(A, k)
        except NotGeneric as exc:
            raise NotGeneric(
                f"principal quasiminor at level {k} undefined", witness=("principal", k)
            ) from exc
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


def _eliminate(rows: list, n: int) -> Matrix:
    """Eliminate the leading n x n block A of the rows [A | B] in place; returns [A]_-.

    Pivot row k is scaled to a leading 1 and a left multiple of it leaves
    every row below, with no row exchange, so the rows end as
    [[A]_+ | [A]_-^-1 B].  Column k of [A]_- = L*D is column k of the rows
    just before step k.  A zero pivot k raises NotInGaussCell, witness ("pivot", k).
    """
    cols = []
    for k in range(n):
        top = rows[k]
        if is_zero(top[k]):
            raise NotInGaussCell(
                f"matrix is outside the Gauss cell: elimination pivot {k + 1} is zero",
                witness=("pivot", k + 1),
            )
        cols.append([row[k] for row in rows[k:]])
        p = inv(top[k])
        pivot = [p * a for a in top[k:]]
        top[k:] = pivot
        for row in rows[k + 1 :]:
            f = row[k]
            if not is_zero(f):
                row[k:] = [a - f * b for a, b in zip(row[k:], pivot)]
    return Matrix([[cols[j][i - j] if j <= i else 0 for j in range(n)] for i in range(n)])


def gauss_parts(x: Matrix):
    """The projections ([x]_-, [x]_0, [x]_+) on the Gauss cell B^- U."""
    if not x.is_square:
        raise ShapeMismatch(f"ldu needs a square matrix, got {x.shape_str()}")
    rows = x.to_lists()
    lower = _eliminate(rows, x.rows)
    diag = Matrix.diagonal([lower[k, k] for k in range(1, x.rows + 1)])
    return lower, diag, Matrix._wrap(tuple(map(tuple, rows)))


def lower_solve(a: Matrix, b: Matrix) -> Matrix:
    """[a]_-^-1 b, which is a^-1 b for a lower triangular a; raises as ``gauss_parts``."""
    if not a.is_square or b.rows != a.rows:
        raise ShapeMismatch(f"cannot solve {a.shape_str()} against {b.shape_str()}")
    rows = [list(row + rhs) for row, rhs in zip(a._e, b._e)]
    _eliminate(rows, a.rows)
    return Matrix._wrap(tuple(tuple(row[a.rows :]) for row in rows))


def ldu_elimination(A: Matrix) -> GaussTriple:
    """LDU read off ``gauss_parts``, L = [A]_- D^-1; the independent oracle for :func:`ldu`."""
    lower, diag, upper = gauss_parts(A)
    d = [inv(diag[k, k]) for k in range(1, A.rows + 1)]
    return GaussTriple(lower._scale_cols(d), diag, upper)
