"""Quasideterminants, positive quasiminors and quasi-Plucker coordinates.

The quasideterminant of a square matrix A marked at (p, q) is

    |A|_pq = a_pq - r_p (A^pq)^{-1} c_q

where A^pq deletes row p and column q, and r_p, c_q are the punctured row
and column.  It exists exactly when the inner submatrix is invertible, and
it replaces a *ratio* of determinants, not a determinant: over a
commutative scalar |A|_pq = (-1)^{p+q} det A / det A^pq.

All marks are given in the indexing of the ambient matrix ("global"
positions): a positive quasiminor of x is specified by row set I, column
set J and a marked position (i, j) with i in I, j in J.  The sign
(-1)^{d_i(I) + d_j(J)} counts the members of I above i and of J above j,
which is what makes the commutative specialization a positive ratio of
minors.

Permutation-indexed quasiminors carry a level k and a pair (u, v); they
equal the positive quasiminor with I = u[1,k], J = v[1,k] marked at
(u(k), v(k)), and also the principal quasiminor of ubar^{-1} x vbar where
ubar, vbar are the signed representatives.  `quasiminor_indexed` computes
both and insists they agree; `quasiminor_uv` is the direct route alone,
and ``MinorCache.uv`` its cached form.  One bounded table, ``_level_key``,
turns (w, k) into (w[1, k] sorted, w(k)) for every one of them.

Quasiminors come in families.  By the definition and heredity
(Gelfand, Gelfand, Retakh, Wilson, *Quasideterminants*, Adv. Math. 193
(2005), Thm 1.5.2), |x_{I'+p, J'+q}|_{p,q} is entry (p, q) of the Schur
complement x[R, C] - x[R, J'] x[I', J']^{-1} x[I', C] of the inner block
(I', J'), so every member of a family reads one solve
z_q = x[I', J']^{-1} x[I', q] (``_schur_columns``).  ``MinorCache`` keeps
that solve per inner block, made when the first member is asked for;
``sylvester_reduce`` is the Schur complement of its pivot block, and
``quasideterminant`` the one-member case.

Every solve is a chain of bordering steps (``matrix._border``): by the
quotient property of Schur complements (Crabtree, Haynsworth, Proc. AMS 22
(1969)) the solutions of x[P, Q] follow from those of x[P - a, Q - b] and
one Schur row, O(k n) scalar work.  A cold solve borders the empty block
with each row of I' in turn (``matrix._solve``), O(k^2 n).  Blocks come in
chains too: the inner block of the level-(k+1) quasiminor at (u, v) is the
whole level-k block, so ``MinorCache`` borders a new block once from a
cached one-smaller parent when it has one.

The two meet in one Schur entry: x[a, q] - x[a, Q'] z_q of a block
(P', Q'), row a and column q is, up to sign, the quasiminor with inner
block (P', Q') marked at (a, q), and it is the Schur row that bordering
(P', Q') by row a reads.  ``MinorCache`` keeps these entries, so a member
and the bordering of its family's child block compute each one once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import IndexOutOfRange, NotGeneric, QBruhatError
from .matrix import Matrix, _border, _dot, _solve, check_index_set, interval
from .scalars import inv, is_zero
from .weyl import Permutation, left_by_representative, right_by_representative


def _schur_columns(e, I, J, cols):
    """{q: x[I, J]^{-1} x[I, q]} for q in cols; None when x[I, J] is singular.

    `e` holds the rows of x as 0-based tuples; I, J and cols are 1-based,
    with |I| = |J| >= 1 and J increasing: ``_solve`` borders the block one
    row of I at a time.
    """
    Q, z = _solve(e, I, J, cols)
    return z if len(Q) == len(J) else None


def _schur_entry(e, J, z, p: int, q: int):
    """Entry (p, q) of the Schur complement of x[I, J]: x[p, q] - x[p, J] z_q."""
    row = e[p - 1]
    return row[q - 1] - _dot([row[c - 1] for c in J], z[q])


def _inner_singular(p: int, q: int, size: int) -> NotGeneric:
    return NotGeneric(
        f"quasideterminant |A|_({p},{q}) undefined: inner {size}x{size} submatrix singular",
        witness=("inner", p, q),
    )


def quasideterminant(A: Matrix, p: int, q: int):
    """|A|_pq, exact; NotGeneric when the inner submatrix A^pq is singular.

    The Schur complement a_pq - r_p z of the inner block, with
    z = (A^pq)^{-1} c_q from ``_schur_columns``; r_p multiplies z from the left.
    """
    if not A.is_square:
        raise IndexOutOfRange(f"quasideterminant needs a square matrix, got {A.shape_str()}")
    n = A.rows
    a_pq = A[p, q]
    if n == 1:
        return a_pq
    rows = [r for r in range(1, n + 1) if r != p]
    cols = [c for c in range(1, n + 1) if c != q]
    z = _schur_columns(A._e, rows, cols, (q,))
    if z is None:
        raise _inner_singular(p, q, n - 1)
    return _schur_entry(A._e, cols, z, p, q)


def quasidet_expansion(A: Matrix, p: int, q: int):
    """|A|_pq via the expansion over inverted quasiminors of A^pq.

    Cross-check only: needs every |A^pq|_{p',q'} defined and invertible,
    a much stronger genericity requirement than the definition itself.
    """
    n = A.rows
    if n == 1:
        return A[p, q]
    inner = A.delete(p, q)
    rows = [r for r in range(1, n + 1) if r != p]
    cols = [c for c in range(1, n + 1) if c != q]
    acc = A[p, q]
    for pr, r in enumerate(rows, start=1):
        for pc, c in enumerate(cols, start=1):
            m = quasideterminant(inner, pr, pc)
            if is_zero(m):
                raise NotGeneric(
                    f"expansion term |A^({p}{q})|_({r},{c}) is zero",
                    witness=("expansion", r, c),
                )
            acc = acc - A[p, c] * inv(m) * A[r, q]
    return acc


def boxed_quasiminor(x: Matrix, rows, cols, p: int, q: int):
    """|x_{rows,cols}|_{p,q} with the mark given in global coordinates."""
    rows = check_index_set(rows, x.rows)
    cols = check_index_set(cols, x.cols)
    try:
        pi = rows.index(p) + 1
        qi = cols.index(q) + 1
    except ValueError:
        raise IndexOutOfRange(f"mark ({p}, {q}) not inside {rows} x {cols}") from None
    return quasideterminant(x.submatrix(rows, cols), pi, qi)


@dataclass(frozen=True)
class MinorSpec:
    """A positioned quasiminor: row set I, column set J, mark (i, j)."""

    I: tuple
    J: tuple
    i: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "I", tuple(self.I))
        object.__setattr__(self, "J", tuple(self.J))
        if len(self.I) != len(self.J):
            raise IndexOutOfRange(f"|I| = {len(self.I)} != |J| = {len(self.J)}")
        if self.i not in self.I or self.j not in self.J:
            raise IndexOutOfRange(f"mark ({self.i}, {self.j}) not in {self.I} x {self.J}")


def count_greater(indices, pivot: int) -> int:
    return sum(1 for a in indices if a > pivot)


def positive_quasiminor(x: Matrix, spec: MinorSpec):
    """(-1)^{d_i(I) + d_j(J)} |x_{I,J}|_{i,j}."""
    sign = (-1) ** (count_greater(spec.I, spec.i) + count_greater(spec.J, spec.j))
    value = boxed_quasiminor(x, spec.I, spec.J, spec.i, spec.j)
    return value if sign == 1 else -value


def principal_quasiminor(x: Matrix, i: int):
    """The principal i x i quasiminor, marked at its lower-right corner."""
    return boxed_quasiminor(x, interval(1, i), interval(1, i), i, i)


@dataclass(frozen=True)
class SnMinorSpec:
    """A quasiminor addressed by a pair of permutations and a level k."""

    u: Permutation
    v: Permutation
    k: int

    def minor_spec(self) -> MinorSpec:
        I, i = _level_key(self.u.images, self.k)
        J, j = _level_key(self.v.images, self.k)
        return MinorSpec(I, J, i, j)


# Room for every (w, k) of S_1 ... S_6: the sum of n * n! is 7! - 1 = 5,039 keys.  n = 6
# is the largest grid the check budget accepts, and it reads S_6's 4,320 keys once per
# pass, in the same order; a smaller LRU table would evict each key before its next read.
@functools.lru_cache(maxsize=5039)
def _level_key(images: tuple, k: int) -> tuple:
    """(w[1, k] in increasing order, w(k)) for the permutation with these images."""
    if not 1 <= k <= len(images):
        raise IndexOutOfRange(f"level {k} outside [1, {len(images)}]")
    return tuple(sorted(images[:k])), images[k - 1]


def quasiminor_uv(x: Matrix, u: Permutation, v: Permutation, k: int):
    """The positive quasiminor at level k for (u, v), direct route only."""
    return positive_quasiminor(x, SnMinorSpec(u, v, k).minor_spec())


def quasiminor_indexed(x: Matrix, spec: SnMinorSpec):
    """Permutation-indexed quasiminor, evaluated along both defining routes.

    Direct route: the signed quasiminor of the (I, J, i, j) translation.
    Conjugation route: the principal level-k quasiminor of ubar^{-1} x vbar.
    The two must agree exactly; a mismatch means the sign bookkeeping broke
    and is reported as a hard error, never as a value.
    """
    direct = positive_quasiminor(x, spec.minor_spec())
    conj = principal_quasiminor(
        right_by_representative(left_by_representative(spec.u, x, inverse=True), spec.v),
        spec.k,
    )
    if not is_zero(direct - conj):
        raise QBruhatError(
            f"quasiminor routes disagree at level {spec.k}: {direct!r} vs {conj!r}"
        )
    return direct


def quasi_plucker_left(A: Matrix, i: int, j: int, I):
    """Left quasi-Plucker coordinate q^I_{ij} of a k x n matrix, k < n.

    Ratio of two column-selected quasideterminants sharing the auxiliary
    row s; the value does not depend on s, and this is asserted by
    evaluating at the two smallest usable choices.
    """
    k = A.rows
    I = check_index_set(I, A.cols)
    if len(I) != k - 1:
        raise IndexOutOfRange(f"need |I| = {k - 1}, got {len(I)}")
    if i in I:
        raise IndexOutOfRange(f"column {i} must avoid I = {I}")
    if not (1 <= i <= A.cols and 1 <= j <= A.cols):
        raise IndexOutOfRange(f"columns ({i}, {j}) outside [1, {A.cols}]")
    first = Matrix([[A[r, c] for c in (i,) + I] for r in range(1, k + 1)])
    second = Matrix([[A[r, c] for c in (j,) + I] for r in range(1, k + 1)])
    found = []
    for s in range(1, k + 1):
        try:
            denom = quasideterminant(first, s, 1)
            if is_zero(denom):
                continue
            value = inv(denom) * quasideterminant(second, s, 1)
        except NotGeneric:
            continue
        found.append((s, value))
        if len(found) == 2:
            break
    if not found:
        raise NotGeneric(
            f"left quasi-Plucker q^{I}_({i},{j}) undefined for every auxiliary row",
            witness=("plucker-left", I, i, j),
        )
    if len(found) == 2 and not is_zero(found[0][1] - found[1][1]):
        raise QBruhatError(
            f"left quasi-Plucker depends on the auxiliary row: {found!r}"
        )
    return found[0][1]


def quasi_plucker_right(B: Matrix, i: int, j: int, I):
    """Right quasi-Plucker coordinate r^I_{ij} of an n x k matrix, k < n."""
    k = B.cols
    I = check_index_set(I, B.rows)
    if len(I) != k - 1:
        raise IndexOutOfRange(f"need |I| = {k - 1}, got {len(I)}")
    if j in I:
        raise IndexOutOfRange(f"row {j} must avoid I = {I}")
    if not (1 <= i <= B.rows and 1 <= j <= B.rows):
        raise IndexOutOfRange(f"rows ({i}, {j}) outside [1, {B.rows}]")
    first = Matrix([[B[r, c] for c in range(1, k + 1)] for r in (i,) + I])
    second = Matrix([[B[r, c] for c in range(1, k + 1)] for r in (j,) + I])
    found = []
    for t in range(1, k + 1):
        try:
            denom = quasideterminant(second, 1, t)
            if is_zero(denom):
                continue
            value = quasideterminant(first, 1, t) * inv(denom)
        except NotGeneric:
            continue
        found.append((t, value))
        if len(found) == 2:
            break
    if not found:
        raise NotGeneric(
            f"right quasi-Plucker r^{I}_({i},{j}) undefined for every auxiliary column",
            witness=("plucker-right", I, i, j),
        )
    if len(found) == 2 and not is_zero(found[0][1] - found[1][1]):
        raise QBruhatError(
            f"right quasi-Plucker depends on the auxiliary column: {found!r}"
        )
    return found[0][1]


def sylvester_reduce(A: Matrix, I0, J0) -> Matrix:
    """Sylvester reduction of A by the pivot submatrix A_{I0,J0}.

    Returns B indexed by the complements of I0 and J0 in their original
    order, with b_pq the quasideterminant of the bordered pivot block
    marked at (p, q); |A|_st = |B|_st for every surviving position.  B is
    the Schur complement of A_{I0,J0}, read off one ``_schur_columns``
    solve.  An empty pivot returns A itself; the pivot {2..n-1} is
    the noncommutative Lewis Carroll setup.
    """
    if not A.is_square:
        raise IndexOutOfRange("sylvester_reduce needs a square matrix")
    n = A.rows
    I0 = check_index_set(I0, n)
    J0 = check_index_set(J0, n)
    if len(I0) != len(J0):
        raise IndexOutOfRange(f"|I0| = {len(I0)} != |J0| = {len(J0)}")
    if len(I0) >= n:
        raise IndexOutOfRange("pivot must be a proper submatrix")
    if not I0:
        return A
    comp_rows = tuple(r for r in range(1, n + 1) if r not in I0)
    comp_cols = tuple(c for c in range(1, n + 1) if c not in J0)
    z = _schur_columns(A._e, I0, J0, comp_cols)
    if z is None:
        raise NotGeneric(
            f"pivot submatrix A_{I0},{J0} is singular",
            witness=("pivot-block", I0, J0),
        )
    return Matrix([[_schur_entry(A._e, J0, z, p, q) for q in comp_cols] for p in comp_rows])


class MinorCache:
    """Memoizes the positive quasiminors of one fixed matrix x.

    ``_memo`` maps (I, J, i, j) to ("ok", value) or ("err", NotGeneric):
    the identity grids ask for the same quasiminor over and over, and a
    repeated failure costs nothing.  A miss reads the Schur-complement
    family of its inner block (I', J') = (I - {i}, J - {j}) (GGRW 2005,
    Thm 1.5.2, see the module docstring): ``_blocks`` maps (I', J') to the
    solutions z_q = x[I', J']^{-1} x[I', q] for every column q outside J'
    and the Schur entries computed so far, or to None when x[I', J'] is
    singular, and the member is
    (-1)^{d_i(I) + d_j(J)} (x[i, j] - x[i, J'] z_j).  A block is made when
    the first member of its family is asked for, never ahead: most families
    are read in one or two members.  ``_block`` borders it once from a
    cached, nonsingular one-smaller parent when there is one
    (Crabtree-Haynsworth 1969, ``matrix._border`` with the one candidate
    column b), and solves it cold with ``_schur_columns`` otherwise: 1x1
    blocks, and blocks whose parents are missing or singular.  The member
    and the bordering share their Schur entries (see the module docstring):
    a block keeps {q: x[a, q] - x[a, Q'] z_q} per row a, which ``_member``
    fills at row i of (I', J') and ``_border`` at the row a that borders a
    child block, each entry computed the first time either one needs it.
    A failed key raises a fresh NotGeneric with the kept one's message and
    witness on every later read.

    A key is validated where it enters, so ``_member`` reads only valid,
    increasing I and J, and a bad key raises ``check_index_set``'s
    IndexOutOfRange on every read and is never memoized.  ``spec`` checks
    I and J against x on a key's miss.  ``uv`` reads its key off
    ``_level_key``, strictly increasing within [1, n] for permutations of
    n, so it checks I and J only when u or v is larger than x.
    """

    def __init__(self, x: Matrix):
        self.x = x
        self._memo = {}
        self._blocks = {}

    def spec(self, spec: MinorSpec):
        key = (spec.I, spec.J, spec.i, spec.j)
        if key not in self._memo:
            check_index_set(spec.I, self.x.rows)
            check_index_set(spec.J, self.x.cols)
        return self._lookup(key)

    def uv(self, u: Permutation, v: Permutation, k: int):
        I, i = _level_key(u.images, k)
        J, j = _level_key(v.images, k)
        x = self.x
        # a level key is strictly increasing within [1, len(images)]
        if len(u.images) > x.rows or len(v.images) > x.cols:
            check_index_set(I, x.rows)
            check_index_set(J, x.cols)
        return self._lookup((I, J, i, j))

    def _lookup(self, key):
        hit = self._memo.get(key)
        if hit is None:
            try:
                hit = ("ok", self._member(*key))
            except NotGeneric as exc:
                # kept as a copy that is never raised, so it holds no reader's frames
                self._memo[key] = ("err", type(exc)(*exc.args, witness=exc.witness))
                raise
            self._memo[key] = hit
        if hit[0] == "err":
            # a fresh error on every later read: raising one object again
            # would append each read's frames to its traceback
            exc = hit[1]
            raise type(exc)(*exc.args, witness=exc.witness)
        return hit[1]

    def _block(self, P, Q):
        """(z, rows) for x[P, Q], bordered or cold; None if x[P, Q] is singular.

        z maps each column q outside Q to x[P, Q]^{-1} x[P, q]; rows maps a
        row a of x to its Schur entries {q: x[a, q] - x[a, Q] z_q}, as far
        as they have been computed.
        """
        blocks, e = self._blocks, self.x._e
        if (P, Q) not in blocks:
            for s, a in enumerate(P):
                inner_rows = P[:s] + P[s + 1 :]
                for t, b in enumerate(Q):
                    inner_cols = Q[:t] + Q[t + 1 :]
                    parent = blocks.get((inner_rows, inner_cols))
                    if parent is not None:
                        z, rows = parent
                        step = _border(e[a - 1], inner_cols, z, (b,), rows.setdefault(a, {}))
                        blocks[P, Q] = None if step is None else (step[1], {})
                        return blocks[P, Q]
            outside = tuple(c for c in range(1, self.x.cols + 1) if c not in Q)
            z = _schur_columns(e, P, Q, outside)
            blocks[P, Q] = None if z is None else (z, {})
        return blocks[P, Q]

    def _member(self, I, J, i, j):
        e = self.x._e
        if len(I) == 1:
            return e[i - 1][j - 1]
        # I and J increase: a = |{r in I : r < i}|, and d_i(I) = |I| - 1 - a
        a, b = I.index(i), J.index(j)
        inner_rows, inner_cols = I[:a] + I[a + 1 :], J[:b] + J[b + 1 :]
        block = self._block(inner_rows, inner_cols)
        if block is None:
            raise _inner_singular(a + 1, b + 1, len(inner_rows))
        z, rows = block
        entries = rows.setdefault(i, {})
        value = entries.get(j)
        if value is None:
            value = entries[j] = _schur_entry(e, inner_cols, z, i, j)
        return -value if (len(I) + len(J) - a - b) % 2 else value
