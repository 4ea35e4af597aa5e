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
complement S = x[R, C] - x[R, J'] x[I', J']^{-1} x[I', C] of the inner
block (I', J').  By the quotient property of Schur complements
(Crabtree, Haynsworth, Proc. AMS 22 (1969)) the Schur complement of a
block (P, Q) is one 1x1 pivot step on that of a one-smaller parent
(P - a, Q - b):

    S[r, q] = S_par[r, q] - S_par[r, b] S_par[a, b]^{-1} S_par[a, q],

and the empty block's Schur complement is x itself.  ``matrix._Block`` is
that step, and ``matrix._schur_chain`` runs it from the empty block, one
row at a time, on any rows and columns of x, so no reader copies a box:
``boxed_quasiminor`` reads one entry off the chain on its inner block, a
quasi-Plucker coordinate its numerator and denominator off one chain on
their shared inner block per auxiliary index, and ``sylvester_reduce`` the
whole Schur complement.

Blocks of quasiminors come in chains too: the inner block of the
level-(k+1) quasiminor at (u, v) is the whole level-k block.  So
``MinorCache`` makes each block once, as a pivot step on a parent it
holds (see its docstring for the choice), and computes a Schur entry only
when a member, or the pivot step of a later block, first reads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import IndexOutOfRange, NotGeneric, QBruhatError, ShapeMismatch
from .matrix import Matrix, _Block, _schur_chain, check_index, check_index_set, interval
from .scalars import equal, inv, is_zero
from .weyl import Permutation, left_by_representative, right_by_representative


def _inner_singular(p: int, q: int, size: int) -> NotGeneric:
    return NotGeneric(
        f"quasideterminant |A|_({p},{q}) undefined: inner {size}x{size} submatrix singular",
        witness=("inner", p, q),
    )


def quasideterminant(A: Matrix, p: int, q: int):
    """|A|_pq, exact; NotGeneric when the inner submatrix A^pq is singular.

    The boxed quasiminor of A on all its rows and columns.
    """
    if not A.is_square:
        raise ShapeMismatch(f"quasideterminant needs a square matrix, got {A.shape_str()}")
    A[p, q]  # the mark must be an index pair inside A
    whole = interval(1, A.rows)
    return boxed_quasiminor(A, whole, whole, p, q)


def quasidet_expansion(A: Matrix, p: int, q: int):
    """|A|_pq via the expansion over inverted quasiminors of A^pq; A[p, q] at n = 1.

    Cross-check only: needs every |A^pq|_{p',q'} defined and invertible,
    a much stronger genericity requirement than the definition itself.
    """
    if not A.is_square:
        raise ShapeMismatch(f"quasidet_expansion needs a square matrix, got {A.shape_str()}")
    acc = A[p, q]
    n = A.rows
    rows = tuple(r for r in range(1, n + 1) if r != p)
    cols = tuple(c for c in range(1, n + 1) if c != q)
    for r in rows:
        for c in cols:
            m = boxed_quasiminor(A, rows, cols, r, c)
            if is_zero(m):
                raise NotGeneric(
                    f"expansion term |A^({p}{q})|_({r},{c}) is zero",
                    witness=("expansion", r, c),
                )
            acc = acc - A[p, c] * inv(m) * A[r, q]
    return acc


def boxed_quasiminor(x: Matrix, rows, cols, p: int, q: int):
    """|x_{rows,cols}|_{p,q}, the mark in global coordinates: entry (p, q) of the Schur
    complement of x[rows - p, cols - q]."""
    check_index(p, x.rows)
    check_index(q, x.cols)
    rows = check_index_set(rows, x.rows)
    cols = check_index_set(cols, x.cols)
    try:
        a = rows.index(p)
        b = cols.index(q)
    except ValueError:
        raise IndexOutOfRange(f"mark ({p}, {q}) not inside {rows} x {cols}") from None
    if len(rows) != len(cols):
        raise ShapeMismatch(f"quasideterminant needs a square matrix, got {len(rows)}x{len(cols)}")
    inner_cols = cols[:b] + cols[b + 1 :]
    Q, block = _schur_chain(x._e, rows[:a] + rows[a + 1 :], inner_cols)
    if len(Q) < len(inner_cols):
        raise _inner_singular(a + 1, b + 1, len(inner_cols))
    return block.entry(p, q)


@dataclass(frozen=True)
class MinorSpec:
    """A positioned quasiminor: row set I, column set J, mark (i, j).

    Every index must be an int (``matrix.check_index`` with no bound, since the spec knows no
    matrix): a bool is refused here, as True == 1 would otherwise find the memo of an int key
    in ``MinorCache.spec``; the range is checked against x where the spec is read.
    """

    I: tuple
    J: tuple
    i: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "I", tuple(self.I))
        object.__setattr__(self, "J", tuple(self.J))
        for idx in (*self.I, *self.J, self.i, self.j):
            check_index(idx, None)
        if len(self.I) != len(self.J):
            raise IndexOutOfRange(f"|I| = {len(self.I)} != |J| = {len(self.J)}")
        if self.i not in self.I or self.j not in self.J:
            raise IndexOutOfRange(f"mark ({self.i}, {self.j}) not in {self.I} x {self.J}")


def _signed(value, I, J, a: int, b: int):
    """(-1)^{d_i(I) + d_j(J)} value, for the mark (i, j) = (I[a], J[b])."""
    # I and J increase: a = |{r in I : r < i}|, and d_i(I) = |I| - 1 - a
    return -value if (len(I) + len(J) - a - b) % 2 else value


def positive_quasiminor(x: Matrix, spec: MinorSpec):
    """(-1)^{d_i(I) + d_j(J)} |x_{I,J}|_{i,j}."""
    value = boxed_quasiminor(x, spec.I, spec.J, spec.i, spec.j)
    return _signed(value, spec.I, spec.J, spec.I.index(spec.i), spec.J.index(spec.j))


def principal_quasiminor(x: Matrix, i: int):
    """The principal i x i quasiminor, marked at its lower-right corner."""
    check_index(i, min(x.rows, x.cols))
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
# Typed, so that a bool or float level (True == 1.0 == 1) misses the int key's entry.
@functools.lru_cache(maxsize=5039, typed=True)
def _level_key(images: tuple, k: int) -> tuple:
    """(w[1, k] in increasing order, w(k)) for the permutation with these images."""
    check_index(k, len(images), "level")
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
    if not equal(direct, conj):
        raise QBruhatError(
            f"quasiminor routes disagree at level {spec.k}: {direct!r} vs {conj!r}"
        )
    return direct


def quasi_plucker_left(A: Matrix, i: int, j: int, I):
    """Left quasi-Plucker coordinate q^I_{ij} of a k x n matrix, k < n.

    Ratio of two column-selected quasideterminants sharing the auxiliary
    row s; the value does not depend on s, and this is asserted by
    evaluating at the two smallest usable choices.  Both are entries of the
    Schur complement of A[rows - s, I], the denominator (s, i) and the numerator (s, j).
    """
    k = A.rows
    I = check_index_set(I, A.cols)
    if len(I) != k - 1:
        raise IndexOutOfRange(f"need |I| = {k - 1}, got {len(I)}")
    check_index(i, A.cols)
    check_index(j, A.cols)
    if i in I:
        raise IndexOutOfRange(f"column {i} must avoid I = {I}")
    found = []
    for s in range(1, k + 1):
        Q, block = _schur_chain(A._e, [r for r in range(1, k + 1) if r != s], I)
        if len(Q) < len(I):
            continue
        denom = block.entry(s, i)
        if is_zero(denom):
            continue
        found.append((s, inv(denom) * block.entry(s, j)))
        if len(found) == 2:
            break
    if not found:
        raise NotGeneric(
            f"left quasi-Plucker q^{I}_({i},{j}) undefined for every auxiliary row",
            witness=("plucker-left", I, i, j),
        )
    if len(found) == 2 and not equal(found[0][1], found[1][1]):
        raise QBruhatError(
            f"left quasi-Plucker depends on the auxiliary row: {found!r}"
        )
    return found[0][1]


def quasi_plucker_right(B: Matrix, i: int, j: int, I):
    """Right quasi-Plucker coordinate r^I_{ij} of an n x k matrix, k < n.

    The mirror of the left one, on the Schur complement of B[I, columns - t].
    """
    k = B.cols
    I = check_index_set(I, B.rows)
    if len(I) != k - 1:
        raise IndexOutOfRange(f"need |I| = {k - 1}, got {len(I)}")
    check_index(i, B.rows)
    check_index(j, B.rows)
    if j in I:
        raise IndexOutOfRange(f"row {j} must avoid I = {I}")
    found = []
    for t in range(1, k + 1):
        Q, block = _schur_chain(B._e, I, [c for c in range(1, k + 1) if c != t])
        if len(Q) < len(I):
            continue
        denom = block.entry(j, t)
        if is_zero(denom):
            continue
        found.append((t, block.entry(i, t) * inv(denom)))
        if len(found) == 2:
            break
    if not found:
        raise NotGeneric(
            f"right quasi-Plucker r^{I}_({i},{j}) undefined for every auxiliary column",
            witness=("plucker-right", I, i, j),
        )
    if len(found) == 2 and not equal(found[0][1], found[1][1]):
        raise QBruhatError(
            f"right quasi-Plucker depends on the auxiliary column: {found!r}"
        )
    return found[0][1]


def sylvester_reduce(A: Matrix, I0, J0) -> Matrix:
    """Sylvester reduction of A by the pivot submatrix A_{I0,J0}.

    Returns B indexed by the complements of I0 and J0 in their original
    order, with b_pq the quasideterminant of the bordered pivot block
    marked at (p, q); |A|_st = |B|_st for every surviving position.  B is
    the Schur complement of A_{I0,J0}, read off ``_schur_chain`` on the
    pivot block.  An empty pivot returns a copy of A, the empty block's
    entries; the pivot {2..n-1} is the noncommutative Lewis Carroll setup.
    """
    if not A.is_square:
        raise ShapeMismatch("sylvester_reduce needs a square matrix")
    n = A.rows
    I0 = check_index_set(I0, n)
    J0 = check_index_set(J0, n)
    if len(I0) != len(J0):
        raise IndexOutOfRange(f"|I0| = {len(I0)} != |J0| = {len(J0)}")
    if len(I0) >= n:
        raise IndexOutOfRange("pivot must be a proper submatrix")
    comp_rows = tuple(r for r in range(1, n + 1) if r not in I0)
    comp_cols = tuple(c for c in range(1, n + 1) if c not in J0)
    Q, block = _schur_chain(A._e, I0, J0)
    if len(Q) < len(J0):
        raise NotGeneric(
            f"pivot submatrix A_{I0},{J0} is singular",
            witness=("pivot-block", I0, J0),
        )
    return Matrix([[block.entry(p, q) for q in comp_cols] for p in comp_rows])


# Specs recur on every matrix of one shape, so a valid (I, J) is checked once per shape; a bad
# one raises, is not kept and raises on every read.  Room for every block family spec to n = 11.
@functools.lru_cache(maxsize=4096)
def _checked_sets(I: tuple, J: tuple, rows: int, cols: int) -> None:
    """Check I within [1, rows] and J within [1, cols] by ``check_index_set``, rows first."""
    check_index_set(I, rows)
    check_index_set(J, cols)


def _kept(memo, key, make, args):
    """memo[key], made as make(*args) on a miss; a NotGeneric is kept and raised afresh.

    The entry is ("ok", value) or ("err", copy).  The copy holds the error's message and
    witness and is never raised, so it keeps no reader's frames; each later read of the
    key raises a fresh one, since raising one object again would append each read's
    frames to its traceback.  Any other error propagates and is not kept.
    """
    hit = memo.get(key)
    if hit is None:
        try:
            hit = ("ok", make(*args))
        except NotGeneric as exc:
            memo[key] = ("err", type(exc)(*exc.args, witness=exc.witness))
            raise
        memo[key] = hit
    if hit[0] == "err":
        exc = hit[1]
        raise type(exc)(*exc.args, witness=exc.witness)
    return hit[1]


class MinorCache:
    """Memoizes the positive quasiminors of one fixed matrix x.

    ``_memo`` maps (I, J, i, j) to ("ok", value) or ("err", NotGeneric):
    the identity grids ask for the same quasiminor over and over, and a
    repeated failure costs nothing.  A miss reads entry (i, j) of the Schur
    complement of its inner block (I', J') = (I - {i}, J - {j}) (GGRW 2005,
    Thm 1.5.2, see the module docstring), with the sign
    (-1)^{d_i(I) + d_j(J)}.  ``_blocks`` maps (I', J') to a ``_Block``, or
    to None when x[I', J'] is singular; it starts with the empty block.

    A block is made when it is first needed, never ahead, as one pivot step
    on a one-smaller parent (P - a, Q - b): the first cached nonsingular
    parent in (a, b) scan order, and else, with a the last row of P, each b
    of Q in turn, every such parent resolved the same way.  The block is
    singular when that parent's pivot S_par[a, b] is zero, and when every
    one of those parents is singular: over a division ring the rank of
    x[P, Q] is the parent's rank plus that of the pivot, and an invertible
    x[P, Q] has an invertible (P - a, Q - b) for every row a.  A member
    and the pivot steps of later blocks read the same Schur entries, each
    computed once.  ``_kept`` keeps a failed key's NotGeneric and raises a
    fresh copy, with its message and witness, on every later read.

    A key is validated where it enters, so ``_member`` reads only valid,
    increasing I and J, and a bad key raises ``check_index_set``'s
    IndexOutOfRange on every read and is never memoized.  ``spec`` checks
    I and J on a miss, once per shape of x (``_checked_sets``).  ``uv`` reads its key off
    ``_level_key``, strictly increasing within [1, n] for permutations of
    n, so it checks I and J only when u or v is larger than x.
    """

    def __init__(self, x: Matrix):
        self.x = x
        self._memo = {}
        self._blocks = {((), ()): _Block.empty(x._e)}

    def spec(self, spec: MinorSpec):
        key = (spec.I, spec.J, spec.i, spec.j)
        if key not in self._memo:
            _checked_sets(spec.I, spec.J, self.x.rows, self.x.cols)
        return _kept(self._memo, key, self._member, key)

    def uv(self, u: Permutation, v: Permutation, k: int):
        I, i = _level_key(u.images, k)
        J, j = _level_key(v.images, k)
        x = self.x
        # a level key is strictly increasing within [1, len(images)]
        if len(u.images) > x.rows or len(v.images) > x.cols:
            _checked_sets(I, J, x.rows, x.cols)
        key = (I, J, i, j)
        return _kept(self._memo, key, self._member, key)

    def _block(self, P, Q):
        """The ``_Block`` of x[P, Q], made on first use; None if x[P, Q] is singular."""
        blocks = self._blocks
        if (P, Q) in blocks:
            return blocks[P, Q]
        for s, a in enumerate(P):
            inner_rows = P[:s] + P[s + 1 :]
            for t, b in enumerate(Q):
                parent = blocks.get((inner_rows, Q[:t] + Q[t + 1 :]))
                if parent is not None:
                    return self._pivot(P, Q, parent, a, b)
        inner_rows = P[:-1]
        for t, b in enumerate(Q):
            parent = self._block(inner_rows, Q[:t] + Q[t + 1 :])
            if parent is not None:
                return self._pivot(P, Q, parent, P[-1], b)
        blocks[P, Q] = None
        return None

    def _pivot(self, P, Q, parent, a, b):
        """Record x[P, Q] as the pivot step at (a, b) on its nonsingular parent."""
        pivot = parent.entry(a, b)
        block = None if is_zero(pivot) else _Block(parent, a, b, inv(pivot), {})
        self._blocks[P, Q] = block
        return block

    def _member(self, I, J, i, j):
        a, b = I.index(i), J.index(j)
        inner_rows, inner_cols = I[:a] + I[a + 1 :], J[:b] + J[b + 1 :]
        block = self._block(inner_rows, inner_cols)
        if block is None:
            raise _inner_singular(a + 1, b + 1, len(inner_rows))
        return _signed(block.entry(i, j), I, J, a, b)
