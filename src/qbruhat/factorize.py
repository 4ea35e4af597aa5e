"""Elementary generators, product maps, and the factorization algorithms.

Three families of factorization live here:

* the direct unipotent/upper factorizations driven by boxed quasiminors of
  the input itself (``solve_standard_unipotent``, ``upper_factorize``);
* parameter recovery through the twist: the diagonal part is the torus of
  the twist, the one-parameter factors are quasiminor ratios of y = psi(x)
  indexed by subwords of the double word.
  Each parameter has two stated equal forms per branch; both are evaluated
  and must agree, and the recovered parameters are replayed through the
  product map and must reproduce x exactly;
* the block factorizations of cells against the longest element, each with
  a direct quasiminor route and a twisted route that must agree.  Every
  block parameter is a ratio |den|^{-1} |num| of two positive quasiminors
  from one of four families a, b, c, d, stated once in ``BLOCK_FAMILIES``,
  built once per (family, n, i, j) by ``_family_specs`` and evaluated by
  ``block_ratio``: t_{ij} of ``factor_u_w0`` is b on x and a on the twist
  y = psi(x); tau_{ij} of ``factor_w0_v`` is d on x and c on y, and h_i is
  the numerator of d.  On the maximal cell the forms also swap (a on x =
  b on y, c on x = d on y); ``verify_double_ratios`` checks all four
  transfers.  Both factorizations read v, the opposite datum of x, off
  its record (``cells._point``); ``factor_u_w0`` twists at x's own Bruhat
  pattern, ``factor_w0_v`` runs the gate first, and the residue of its
  blocks inherits the gate's test.
  The negative blocks of ``factor_w0_v`` act on rows: the division of x
  by them and their replay are row operations, and their product is never
  formed.

These four computations, ``recover_params``, ``factor_u_w0``, ``factor_w0_v``
and ``verify_double_ratios``, read the same pure functions of x: its Bruhat
factor, its opposite datum, its twist and the quasiminors of x and of the
twist.  They take them from the cell gate's record of the last matrix seen
(``cells._point``, which ``cells._twist`` reads too), so the four calls on one
point twist x once and compute no quasiminor twice.  Every check of each
function still runs, in the same order; the record keeps a NotGeneric and
raises a fresh copy of it on a repeat, so a retry on the same x meets it again.

Sign conventions follow the closed formulas, with stages defined by
``x(m, k) = x(m, k+1) (1 - t_{m,k} E_k)`` so that the ascending replay
``x(m,k) * prod (1 + t E)`` reconstructs the input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cells import _point, _twist
from .errors import IndexOutOfRange, NotGeneric, QBruhatError, ShapeMismatch, ZeroInverse
from .matrix import Matrix, check_index, interval
from .quasidet import MinorCache, MinorSpec, _checked_sets, boxed_quasiminor
from .scalars import _exact, equal, inv, is_zero
from .weyl import DoubleWord, Permutation, simple_representative


@dataclass(frozen=True)
class Generator:
    """One elementary factor: kind in {x, y, h, xneg, sbar}, index i, parameter t."""

    kind: str
    i: int
    t: object = None


def generator_matrix(gen: Generator, n: int) -> Matrix:
    i, t = check_index(gen.i, n - 1, "generator index"), gen.t
    if gen.kind == "x":
        return Matrix.identity(n) + Matrix.unit(n, i, i + 1, t)
    if gen.kind == "y":
        return Matrix.identity(n) + Matrix.unit(n, i + 1, i, t)
    if gen.kind == "h":
        if is_zero(t):
            raise ZeroInverse(f"h_{i}(t) needs invertible t")
        entries = [1] * n
        entries[i - 1] = t
        entries[i] = inv(t)
        return Matrix.diagonal(entries)
    if gen.kind == "xneg":
        if is_zero(t):
            raise ZeroInverse(f"x_-{i}(t) needs invertible t")
        rows = Matrix.identity(n).to_lists()
        rows[i - 1][i - 1] = inv(t)
        rows[i][i - 1] = 1
        rows[i][i] = t
        return Matrix(rows)
    if gen.kind == "sbar":
        return simple_representative(i, n)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def product_map(word: DoubleWord, params, h=None) -> Matrix:
    """h * x_{i_1}(t_1) * ... * x_{i_m}(t_m) for a double word.

    All parameters must be nonzero exact scalars (a float or complex is a
    TypeError, as for a matrix entry); `h` may be a list of diagonal scalars
    or a diagonal matrix, n x n for a word on GL_n.  A list starts the
    product with zeros of its entries' type, and the default identity with
    zeros and ones of the parameters' type (``_torus``).  Only these two keep
    rationals out of a quaternion product: a list of rationals, or a matrix
    h, puts rationals into it.
    """
    params = [_exact(t) for t in params]
    if len(params) != word.length:
        raise ShapeMismatch(f"{len(params)} parameters for a word of length {word.length}")
    n = word.n
    for pos, t in enumerate(params, start=1):
        if is_zero(t):
            raise ZeroInverse(f"parameter {pos} is zero")
    if isinstance(h, Matrix):
        if not h.is_diagonal():
            raise ShapeMismatch("h must be diagonal")
        acc = h
    else:
        acc = _torus(n, h, params)
    if (acc.rows, acc.cols) != (n, n):
        raise ShapeMismatch(f"a {acc.shape_str()} torus for a word on GL_{n}")
    for letter, t in zip(word.letters, params):
        acc = acc._right_letter(letter, t)
    return acc


def _torus(n: int, h, params) -> Matrix:
    """diag(h), or the n x n identity when h is None, off the diagonal one zero of its type.

    The zero is made once, from the first entry of h or, for the identity, of the
    parameters; the identity's one is that zero plus 1.
    """
    if h is None:
        zero = params[0] - params[0] if params else Fraction(0)
        h = [zero + 1] * n
    else:
        h = [_exact(a) for a in h]
        if not h:
            raise ShapeMismatch(f"an empty torus for a word on GL_{n}")
        zero = h[0] - h[0]
    cols = range(len(h))
    return Matrix._wrap(tuple(tuple(a if i == j else zero for j in cols) for i, a in enumerate(h)))


def commute_neg_pos(j: int, i: int, s, t):
    """Rewrite x_{-j}(s) x_i(t) as x_i(t') x_{-j}(s'); returns (t', s').

    s and t must be exact scalars and s invertible, as for x_{-j}(s) itself,
    in every case.  The same-index case also hits the singular locus
    s + t = 0, where the rewrite does not exist.  j and i must be positive ints.
    """
    if min(check_index(j, None), check_index(i, None)) < 1:
        raise IndexOutOfRange(f"index {min(j, i)} is below 1")
    s, t = _exact(s), _exact(t)
    if is_zero(s):
        raise ZeroInverse(f"x_-{j}(s) needs invertible s")
    if abs(i - j) > 1:
        return t, s
    if i - j == 1:
        return s * t, s
    if i - j == -1:
        return t * s, s
    total = s + t
    if is_zero(total):
        raise ZeroInverse(f"x_-{j}(s) x_{i}(t) with s + t = 0 cannot be rewritten")
    return inv(s) * t * inv(total), total


# -- the standard unipotent factorization --------------------------------------


def standard_word(n: int) -> DoubleWord:
    """(1, ..., n-1; 1, ..., n-2; ...; 1, 2; 1), a reduced word for the longest element."""
    letters = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return DoubleWord(n, tuple(letters))


def standard_position(i: int, j: int, n: int) -> int:
    """1-based position of the parameter t_{ij}, 1 <= i < j <= n, inside the standard word."""
    check_index(j, n)
    check_index(i, j - 1)
    return n * (i - 1) - (i + 1) * i // 2 + j


def solve_standard_unipotent(x: Matrix):
    """Parameters of the standard-word factorization of an upper unitriangular x.

    t_{ij} is a ratio of two boxed quasiminors of trailing-column blocks;
    the returned list is aligned with the letters of ``standard_word``.
    Raises NotGeneric naming the (i, j) whose denominator quasiminor is
    undefined or singular.
    """
    if not x.is_square:
        raise ShapeMismatch("solve_standard_unipotent needs a square matrix")
    if not x.is_unitriangular("upper"):
        raise ShapeMismatch("input must be upper unitriangular")
    n = x.rows
    out = [None] * (n * (n - 1) // 2)
    for i in range(1, n):
        cols = interval(n - i + 1, n)
        for j in range(i + 1, n + 1):
            try:
                num = boxed_quasiminor(x, interval(j - i, j - 1), cols, j - i, n - i + 1)
                den = boxed_quasiminor(x, interval(j - i + 1, j), cols, j - i + 1, n - i + 1)
            except NotGeneric as exc:
                raise NotGeneric(
                    f"standard factorization blocked at (i, j) = ({i}, {j}): {exc}",
                    witness=("standard", i, j),
                ) from exc
            if is_zero(den):
                raise NotGeneric(
                    f"standard factorization denominator at ({i}, {j}) is zero",
                    witness=("standard", i, j),
                )
            out[standard_position(i, j, n) - 1] = num * inv(den)
    return out


# -- the upper factorization ----------------------------------------------------


def upper_pairs(n: int) -> tuple:
    """All (m, k), 1 <= m <= k <= n-1, by rows, k descending; reversed, the block words' order."""
    return tuple((m, k) for m in range(1, n) for k in range(n - 1, m - 1, -1))


@dataclass(frozen=True)
class UpperFactorization:
    source: Matrix
    pairs: tuple
    t: dict
    stages: dict

    def stage(self, m: int, k: int) -> Matrix:
        """Stage (m, k), 1 <= m <= k <= n-1."""
        check_index(k, self.source.rows - 1)
        return self.stages[check_index(m, k), k]

    def final_stage(self) -> Matrix:
        return self.stages[self.pairs[-1]] if self.pairs else self.source

    def replay(self) -> Matrix:
        """final stage times the ascending product of (1 + t E); equals the source."""
        return _replay_upper(self.final_stage(), self.t)


def _replay_upper(acc: Matrix, t: dict) -> Matrix:
    """acc * X^(n-1) ... X^(1) with X^(m) = x_m(t[m,m]) ... x_{n-1}(t[m,n-1])."""
    for m, k in reversed(upper_pairs(acc.rows)):
        acc = acc._right_letter(k, t[(m, k)])
    return acc


def upper_factorize(x: Matrix) -> UpperFactorization:
    """Clear the strict upper part of x column by column from the right.

    Stage (m, k) kills the (m, k+1) entry with a right factor
    (1 - t_{m,k} E_k); the final stage is lower triangular.  A zero pivot
    with a zero target is benign (t = 0); a zero pivot with a nonzero
    target is NotGeneric.
    """
    if not x.is_square:
        raise ShapeMismatch("upper_factorize needs a square matrix")
    n = x.rows
    if n < 2:
        return UpperFactorization(x, (), {}, {})
    y = x
    t, stages = {}, {}
    for m, k in upper_pairs(n):
        den = y[m, k]
        num = y[m, k + 1]
        if is_zero(den):
            if not is_zero(num):
                raise NotGeneric(
                    f"stage ({m}, {k}): pivot ({m}, {k}) vanished but ({m}, {k + 1}) did not",
                    witness=("stage", m, k),
                )
            tv = Fraction(0)
        else:
            tv = inv(den) * num
        t[(m, k)] = tv
        y = y._right_letter(k, -tv)
        stages[(m, k)] = y
    return UpperFactorization(x, upper_pairs(n), t, stages)


def stage_entry_formula(x: Matrix, m: int, k: int, i: int, j: int):
    """Closed form for entry (i, j) of stage (m, k), as a quasiminor of x.

    The entry depends only on how many row passes have already touched
    column j; zero entries are part of the statement.
    """
    n = x.rows
    if j - 1 >= k and j - 1 >= m:
        m_eff = min(j - 1, m)
    else:
        m_eff = min(j - 1, m - 1)
    if m_eff == 0:
        return x[i, j]
    if i <= m_eff:
        return Fraction(0)
    rows = interval(1, m_eff) + (i,)
    cols = interval(j - m_eff, j)
    return boxed_quasiminor(x, rows, cols, i, j)


# -- parameter recovery through the twist ---------------------------------------


@dataclass(frozen=True)
class FactorizationOutput:
    """Recovered diagonal part and one-parameter coefficients of a product."""

    h: tuple
    t: tuple

    def replay(self, word: DoubleWord) -> Matrix:
        return product_map(word, list(self.t), list(self.h))


def _ratio(den, num, label):
    if is_zero(den):
        raise NotGeneric(f"quasiminor denominator vanished at {label}", witness=label)
    return inv(den) * num


def recover_params(x: Matrix, word: DoubleWord) -> FactorizationOutput:
    """Recover (h, t) with x = h * x_{i_1}(t_1) ... x_{i_m}(t_m).

    h is the twist's torus, h_i = [ubar^{-1} x]_0 at u^{-1}(i), which equals
    the level-u^{-1}(i) quasiminor of x at (u, e); each t_k is a quasiminor
    ratio of the twist y, indexed by the subword permutations at position k.
    Both equal forms of the branch are evaluated and must agree; every
    parameter must be nonzero and the replay must reproduce x exactly.
    """
    y, h = _twist(x, word.u(), word.v())
    cache = _point(x).minors(y)
    t = []
    for k in range(1, word.length + 1):
        letter = word.letters[k - 1]
        i = abs(letter)
        u_ge, u_gt, v_le, v_lt = word.subword_perms(k)
        if letter < 0:
            first = _ratio(cache.uv(v_lt, u_gt, i), cache.uv(v_lt, u_ge, i), ("branch-", k))
            second = _ratio(
                cache.uv(v_lt, u_ge, i + 1), cache.uv(v_lt, u_gt, i + 1), ("branch-", k)
            )
        else:
            first = _ratio(cache.uv(v_le, u_gt, i), cache.uv(v_lt, u_gt, i + 1), ("branch+", k))
            second = _ratio(
                cache.uv(v_lt, u_gt, i), cache.uv(v_le, u_gt, i + 1), ("branch+", k)
            )
        if not equal(first, second):
            raise NotGeneric(
                f"the two forms for t_{k} disagree; x is not factorizable along this word",
                witness=("branch-agreement", k),
            )
        t.append(first)
    if any(is_zero(tk) for tk in t):
        raise NotGeneric(
            "a recovered parameter is zero; x is on the boundary of the word's image",
            witness=("zero-parameter",),
        )
    out = FactorizationOutput(h=tuple(h), t=tuple(t))
    if out.replay(word) != x:
        raise NotGeneric(
            "replay of recovered parameters does not reproduce x",
            witness=("replay",),
        )
    return out


# -- the longest-element block families ------------------------------------------


BLOCK_FAMILIES = {
    "a": lambda n, i, j: (
        MinorSpec(interval(1, i) + interval(n + i + 1 - j, n), interval(1, j), i, j),
        MinorSpec(interval(1, i) + interval(n + i - j, n), interval(1, j + 1), i, j + 1),
    ),
    "b": lambda n, i, j: (
        MinorSpec(interval(1, i), interval(j + 1 - i, j), i, j),
        MinorSpec(interval(1, i), interval(j - i + 2, j + 1), i, j + 1),
    ),
    "c": lambda n, i, j: (
        MinorSpec(interval(1, j), interval(1, j + 1 - i) + interval(n + 2 - i, n), j, j + 1 - i),
        MinorSpec(interval(1, j), interval(1, j - i) + interval(n + 1 - i, n), j, n + 1 - i),
    ),
    "d": lambda n, i, j: (
        MinorSpec(interval(i, j), interval(1, j + 1 - i), i, j + 1 - i),
        MinorSpec(interval(i, n), interval(1, n + 1 - i), i, n + 1 - i),
    ),
}
"""Block family name -> (n, i, j) -> (den_spec, num_spec), 1 <= i <= j <= n-1."""


# 2n(n-1) + 1 keys per n (four families on the pairs, and d at (n, n)): every n up to 11
# fits at once, 890 keys.  The specs depend on n alone, never on a matrix.  Typed, so
# that a bool or float i or j (True == 1.0 == 1) misses the int pair's entry.
@functools.lru_cache(maxsize=1024, typed=True)
def _family_specs(family: str, n: int, i: int, j: int) -> tuple:
    """``BLOCK_FAMILIES[family](n, i, j)``, built once; index sets are checked within [1, n].

    i and j must be ints; their range is what the specs' own checks allow.  The check,
    ``MinorCache.spec``'s own (``quasidet._checked_sets``), runs den's rows and columns,
    then num's, as ``spec`` would; a pair that fails it raises and is not kept.
    """
    check_index(i, None)
    check_index(j, None)
    specs = BLOCK_FAMILIES[family](n, i, j)
    for spec in specs:
        _checked_sets(spec.I, spec.J, n, n)
    return specs


def block_ratio(cache: MinorCache, family: str, i: int, j: int, label):
    """|den|^{-1} |num| of `family` at (i, j) on the cache's matrix.

    NotGeneric carries `label` as its witness when the denominator vanishes.
    """
    den, num = _family_specs(family, cache.x.rows, i, j)
    return _ratio(cache.spec(den), cache.spec(num), label)


# -- block factorizations against the longest element ---------------------------


@dataclass(frozen=True)
class UW0Factorization:
    """x = x_minus * X^(n-1) ... X^(1) with X^(m) = prod_k x_k(t[m,k])."""

    t: dict
    x_minus: Matrix
    u: Permutation
    v: Permutation

    def replay(self) -> Matrix:
        return _replay_upper(self.x_minus, self.t)


def factor_u_w0(x: Matrix) -> UW0Factorization:
    """Peel the standard positive blocks off x, leaving a point of G^{u,e}.

    u and v come from one reduction of x per side.  The stage parameters
    are verified against their closed quasiminor forms (family b on x),
    and for v = w0 against the twisted forms (family a on y, the gate's v
    side on the same Bruhat factor); both agreements are exact.
    """
    point = _point(x)
    _, u, _ = point.bruhat_parts()
    v = point.opposite_datum()
    uf = upper_factorize(x)
    x_minus = uf.final_stage()
    if not x_minus.is_lower_triangular():
        raise QBruhatError("upper factorization did not reach a lower triangular stage")
    cache_x = point.minors(x)
    for m, k in uf.pairs:
        try:
            closed = block_ratio(cache_x, "b", m, k, ("upper-t", m, k))
        except NotGeneric:
            continue
        if not equal(closed, uf.t[(m, k)]):
            raise QBruhatError(
                f"stage parameter ({m}, {k}) disagrees with its quasiminor form"
            )
    w0 = Permutation.longest(x.rows)
    if v == w0:
        cache_y = point.minors(_twist(x, u, w0)[0])
        for i, j in sorted(uf.pairs):
            twisted = block_ratio(cache_y, "a", i, j, ("u-w0-twist", i, j))
            if not equal(twisted, uf.t[(i, j)]):
                raise QBruhatError(
                    f"twisted expression for t_({i},{j}) disagrees with the direct one"
                )
    return UW0Factorization(t=dict(uf.t), x_minus=x_minus, u=u, v=v)


def _divide_negative_blocks(h, tau, x: Matrix) -> Matrix:
    """P^{-1} x for P = diag(h) * Xneg^(n-1) ... Xneg^(1), as row operations on x.

    The letters of P are -k for m = n-1, ..., 1 and k = m, ..., n-1, a
    reduced word for the longest element on the negative side.  diag(h)^{-1}
    goes first; then each letter is undone in the word's order:
    x_{-k}(t)^{-1} sets row k to t row k and row k+1 to t^{-1} row k+1 - row k.
    A term with an exact zero entry is skipped: a zero entry is kept with no product
    (``_scaled``), and t^{-1} b - a is t^{-1} b where a is zero and -a where b is.
    """
    rows = list(x._scale_rows([inv(a) for a in h])._e)
    for m, k in upper_pairs(x.rows)[::-1]:
        t = tau[(m, k)]
        above, below = rows[k - 1], _scaled(inv(t), rows[k])
        rows[k - 1] = _scaled(t, above)
        rows[k] = tuple(
            b if is_zero(a) else -a if is_zero(b) else b - a for a, b in zip(above, below)
        )
    return Matrix._wrap(tuple(rows))


def _apply_negative_blocks(h, tau, y: Matrix) -> Matrix:
    """P * y for the P of ``_divide_negative_blocks``, as row operations on y.

    The letters act in reverse order: x_{-k}(t) sets row k to t^{-1} row k and
    row k+1 to row k + t row k+1; diag(h) scales the rows last.  A term with an exact
    zero entry is skipped, as there.
    """
    rows = list(y._e)
    for m, k in upper_pairs(y.rows):
        t = tau[(m, k)]
        above, below = rows[k - 1], _scaled(t, rows[k])
        rows[k - 1] = _scaled(inv(t), above)
        rows[k] = tuple(
            b if is_zero(a) else a if is_zero(b) else a + b for a, b in zip(above, below)
        )
    return Matrix._wrap(tuple(rows))._scale_rows(h)


def _scaled(s, row) -> tuple:
    """s times each entry of row from the left, an exact zero kept as it is, with no product."""
    return tuple(a if is_zero(a) else s * a for a in row)


@dataclass(frozen=True)
class W0VFactorization:
    """x = diag(h) * Xneg^(n-1) ... Xneg^(1) * x_plus with Xneg^(m) = prod_k x_{-k}(tau[m,k]).

    ``replay`` applies the blocks and then diag(h) to the rows of x_plus.
    """

    h: tuple
    tau: dict
    x_plus: Matrix
    v: Permutation

    def replay(self) -> Matrix:
        return _apply_negative_blocks(self.h, self.tau, self.x_plus)


def factor_w0_v(x: Matrix) -> W0VFactorization:
    """Factor a point with longest-element row datum into torus, negative blocks, and x_plus.

    The twist gate runs first, at (w0, v) with v the opposite datum of x,
    so a point with another row datum is WrongCell before any quasiminor
    is computed.  h and tau come from family d on x (h_m is its numerator
    at row m).  x_plus = P^{-1} x for P = diag(h) * Xneg^(n-1) ... Xneg^(1)
    comes from row operations on x, without forming P, and must be upper
    unitriangular.  No zero reaches an inversion: a zero h_m with m < n
    makes tau_(m,m) zero first, and h_n = x[n, 1] is nonzero past the gate.
    x_plus then lies in the reduced cell of (e, v) with no further test:
    P is lower triangular, so [x_plus vbar']_+ = [x vbar']_+, whose
    support the gate has checked.  The twisted forms of tau (family c on
    y = psi(x)) must agree.
    """
    n = x.rows
    point = _point(x)
    v = point.opposite_datum()
    cache_y = point.minors(_twist(x, Permutation.longest(n), v)[0])
    cache_x = point.minors(x)
    h = tuple(cache_x.spec(_family_specs("d", n, m, m)[1]) for m in range(1, n + 1))
    pairs = sorted(upper_pairs(n))
    tau = {}
    for m, k in pairs:
        tau[(m, k)] = block_ratio(cache_x, "d", m, k, ("tau", m, k))
        if is_zero(tau[(m, k)]):
            raise NotGeneric(
                f"tau_({m},{k}) is zero; x is degenerate for the negative blocks",
                witness=("tau-zero", m, k),
            )
    x_plus = _divide_negative_blocks(h, tau, x)
    if not x_plus.is_unitriangular("upper"):
        raise QBruhatError("residual of the negative blocks is not upper unitriangular")
    for i, j in pairs:
        twisted = block_ratio(cache_y, "c", i, j, ("w0-v-twist", i, j))
        if not equal(twisted, tau[(i, j)]):
            raise QBruhatError(
                f"twisted expression for tau_({i},{j}) disagrees with the direct one"
            )
    return W0VFactorization(h=h, tau=tau, x_plus=x_plus, v=v)


# -- the maximal twist identity families -----------------------------------------


def _anti_spec(n: int, i: int) -> MinorSpec:
    return MinorSpec(interval(n + 1 - i, n), interval(1, i), n + 1 - i, i)


# (report family, block family on y, block family on x, witness mark)
_TRANSFERS = (
    ("positive-transfer", "a", "b", ""),
    ("positive-transfer-swapped", "b", "a", "'"),
    ("negative-transfer", "c", "d", ""),
    ("negative-transfer-swapped", "d", "c", "'"),
)
_TELESCOPED = (
    ("corollary-telescoped", "a", "b", "0"),
    ("corollary-telescoped-swapped", "b", "a", "1"),
)


def _telescoped(cache: MinorCache, family: str, i: int, j: int, label):
    """|den(i, i)|^{-1} |den(i, j)| of `family`: the corollary's telescoped product."""
    n = cache.x.rows
    first, last = (_family_specs(family, n, i, k)[0] for k in (i, j))
    return _ratio(cache.spec(first), cache.spec(last), label)


@dataclass
class DoubleRatiosReport:
    n: int
    counts: dict
    failures: list
    extended: bool

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        for name, total in self.counts.items():
            failed = sum(1 for f in self.failures if f["family"] == name)
            status = "ok" if failed == 0 else f"{failed} FAILED"
            lines.append(f"{name}: {total} checks, {status}")
        return "\n".join(lines)


def verify_double_ratios(x: Matrix, include_extended: bool = False) -> DoubleRatiosReport:
    """Check every identity family relating quasiminors of x and its maximal twist.

    Families: anti-diagonal invariance, the two block-parameter transfers,
    and their involution images, plus the product formula of the corollary.
    The two remaining corollary displays carry suspected misprints; their
    best-read interpretations run only under `include_extended` and are
    excluded from acceptance.
    """
    n = x.rows
    w0 = Permutation.longest(n)
    y = _twist(x, w0, w0)[0]
    point = _point(x)
    cx, cy = point.minors(x), point.minors(y)
    counts: dict = {}
    failures: list = []

    def record(family, params, lhs, rhs):
        counts[family] = counts.get(family, 0) + 1
        if not equal(lhs, rhs):
            failures.append({"family": family, "params": params})

    for i in range(1, n + 1):
        record("anti-diagonal", (i,), cy.spec(_anti_spec(n, i)), cx.spec(_anti_spec(n, i)))
    for i, j in sorted(upper_pairs(n)):
        for family, on_y, on_x, mark in _TRANSFERS:
            lhs = block_ratio(cy, on_y, i, j, (on_y + mark, i, j))
            rhs = block_ratio(cx, on_x, i, j, (on_x + mark, i, j))
            record(family, (i, j), lhs, rhs)
        c_den, c_num = _family_specs("c", n, i, j)
        d_den, d_num = _family_specs("d", n, i, j)
        lhs = cy.spec(d_den)
        rhs = cx.spec(d_num) * inv(cx.spec(c_num)) * cx.spec(c_den)
        record("corollary-product", (i, j), lhs, rhs)
        if include_extended:
            for family, on_y, on_x, mark in _TELESCOPED:
                lhs = _telescoped(cy, on_y, i, j, (on_y + mark, i, j))
                rhs = _telescoped(cx, on_x, i, j, (on_x + mark, i, j))
                record(family, (i, j), lhs, rhs)
    return DoubleRatiosReport(n=n, counts=counts, failures=failures, extended=include_extended)
