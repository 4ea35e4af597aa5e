"""Gauss LDU decomposition and the Gauss cell projections.

Two independent routes produce the same triple and are tested against each
other:

* :func:`ldu` builds the factors from quasi-Plucker coordinates of leading
  column and row blocks, with the diagonal given by the principal
  quasiminors.  This is the closed-form route.
* :func:`ldu_elimination` is plain Gaussian elimination over the skew
  field, the oracle route.

Both exist exactly on the Gauss cell: all principal quasiminors defined
and invertible.  The projections [x]_- = L*D, [x]_0 = D, [x]_+ = U feed
the Bruhat cell machinery; note [x]_- is lower *triangular* (it carries
the diagonal), while the stored factors keep L unitriangular.
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

    def lower_part(self) -> Matrix:
        """[x]_- = L * D, the lower-triangular Gauss projection (a column scaling of L)."""
        return self.lower._scale_cols([self.diag[i, i] for i in range(1, self.diag.rows + 1)])


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


def ldu_elimination(A: Matrix) -> GaussTriple:
    """LDU by direct elimination; independent oracle for :func:`ldu`."""
    if not A.is_square:
        raise ShapeMismatch(f"ldu needs a square matrix, got {A.shape_str()}")
    n = A.rows
    m = A.to_lists()
    lower = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    upper = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    diag = []
    for k in range(n):
        p = m[k][k]
        if is_zero(p):
            raise NotGeneric(f"elimination pivot {k + 1} is zero", witness=("pivot", k + 1))
        pinv = inv(p)
        diag.append(p)
        for j in range(k + 1, n):
            upper[k][j] = pinv * m[k][j]
        for i in range(k + 1, n):
            f = m[i][k] * pinv
            lower[i][k] = f
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return GaussTriple(Matrix(lower), Matrix.diagonal(diag), Matrix(upper))


def gauss_parts(x: Matrix):
    """The projections ([x]_-, [x]_0, [x]_+) on the Gauss cell B^- U."""
    try:
        triple = ldu_elimination(x)
    except NotGeneric as exc:
        raise NotInGaussCell(
            f"matrix is outside the Gauss cell: {exc}", witness=exc.witness
        ) from exc
    return triple.lower_part(), triple.diag, triple.upper
