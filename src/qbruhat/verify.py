"""Named property suites: randomized exact-identity checks with reports.

``SUITES`` maps each suite name to one trial; ``run_suite`` runs it
`trials` >= 1 times off one seeded RNG.  A NotGeneric sample is resampled
within the retry budget, a genuine identity violation is recorded as a
failure carrying a replayable JSON witness (matrix, word, trial, seed).
Reports are deterministic functions of (suite, n, trials, seed, bound).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from math import factorial

from .cells import cross_checked_twist, twist_general, twist_reduced
from .errors import NotGeneric, WrongCell
from .factorize import (
    factor_u_w0,
    factor_w0_v,
    recover_params,
    verify_double_ratios,
)
from .gauss import gauss_parts, ldu, ldu_elimination
from .matrix import Matrix, interval, matrix_to_json
from .quasidet import (
    MinorCache,
    _level_key,
    boxed_quasiminor,
    principal_quasiminor,
    quasi_plucker_left,
    quasi_plucker_right,
    quasideterminant,
    quasidet_expansion,
    sylvester_reduce,
)
from .sampling import (
    cell_point,
    invertible_matrix,
    matrix as sample_matrix,
    maximal_cell_point,
    nonzero_scalar,
    quaternion,
    random_permutation,
    reduced_cell_point,
    upper_unitriangular,
    with_retries,
)
from .scalars import equal, inv, is_zero
from .weyl import Permutation, all_permutations


class CheckFailed(Exception):
    def __init__(self, detail: dict):
        super().__init__(detail.get("check", "check failed"))
        self.detail = detail


@dataclass
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"suite={self.suite} n={self.n} trials={self.trials} seed={self.seed} "
            f"checks={self.checks}: {status}"
        )


def _fail(check: str, x: Matrix, **extra):
    detail = {"check": check, "matrix": matrix_to_json(x)}
    detail.update(extra)
    raise CheckFailed(detail)


# -- single-matrix checks -------------------------------------------------------


def check_elementary_properties(x: Matrix, rng: random.Random) -> int:
    """Row/column permutation, scaling and addition behaviour of |x|_pq."""
    n = x.rows
    p, q = rng.randint(1, n), rng.randint(1, n)
    base = quasideterminant(x, p, q)
    checks = 0

    rows = list(range(1, n + 1))
    cols = list(range(1, n + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    shuffled = x._permute_rows(rows, [1] * n)._permute_cols(cols, [1] * n)
    if not equal(quasideterminant(shuffled, rows.index(p) + 1, cols.index(q) + 1), base):
        _fail("permutation-invariance", x, p=p, q=q, rows=rows, cols=cols)
    checks += 1

    lam = quaternion(rng)
    r = rng.randint(1, n)
    scaled = x._scale_rows([lam if i == r else 1 for i in range(1, n + 1)])
    expect = lam * base if r == p else base
    if not equal(quasideterminant(scaled, p, q), expect):
        _fail("row-scaling", x, p=p, q=q, row=r)
    checks += 1

    mu = quaternion(rng)
    c = rng.randint(1, n)
    scaled = x._scale_cols([mu if j == c else 1 for j in range(1, n + 1)])
    expect = base * mu if c == q else base
    if not equal(quasideterminant(scaled, p, q), expect):
        _fail("column-scaling", x, p=p, q=q, col=c)
    checks += 1

    src = rng.randint(1, n)
    dst = rng.choice([i for i in range(1, n + 1) if i != src])
    bumped = (Matrix.identity(n) + Matrix.unit(n, dst, src, lam)) * x
    if p != src:
        if not equal(quasideterminant(bumped, p, q), base):
            _fail("row-addition-invariance", x, p=p, q=q, src=src, dst=dst)
        checks += 1

    srcc = rng.randint(1, n)
    dstc = rng.choice([j for j in range(1, n + 1) if j != srcc])
    bumped = x * (Matrix.identity(n) + Matrix.unit(n, srcc, dstc, mu))
    if q != srcc:
        if not equal(quasideterminant(bumped, p, q), base):
            _fail("column-addition-invariance", x, p=p, q=q, src=srcc, dst=dstc)
        checks += 1
    return checks


def check_homological(x: Matrix, rng: random.Random) -> int:
    """Row and column homological relations, all free indices for one setup."""
    n = x.rows
    i = rng.randint(1, n)
    j, ell = rng.sample(range(1, n + 1), 2)
    checks = 0
    # others[d] is 1..n without d: the quasiminors below delete one row and one column
    others = {d: tuple(r for r in interval(1, n) if r != d) for d in interval(1, n)}
    a_ij = quasideterminant(x, i, j)
    a_il = quasideterminant(x, i, ell)
    for s in range(1, n + 1):
        if s == i:
            continue
        lhs = -a_ij * inv(boxed_quasiminor(x, others[i], others[ell], s, j))
        rhs = a_il * inv(boxed_quasiminor(x, others[i], others[j], s, ell))
        if not equal(lhs, rhs):
            _fail("homological-row", x, i=i, j=j, ell=ell, s=s)
        checks += 1
    k = rng.choice([r for r in range(1, n + 1) if r != i])
    a_kj = quasideterminant(x, k, j)
    for t in range(1, n + 1):
        if t == j:
            continue
        lhs = -inv(boxed_quasiminor(x, others[k], others[j], i, t)) * a_ij
        rhs = inv(boxed_quasiminor(x, others[i], others[j], k, t)) * a_kj
        if not equal(lhs, rhs):
            _fail("homological-column", x, i=i, j=j, k=k, t=t)
        checks += 1
    return checks


def check_sylvester(x: Matrix, rng: random.Random) -> int:
    """Sylvester reduction with a random pivot and with the Lewis Carroll pivot."""
    n = x.rows
    checks = 0
    setups = []
    k = rng.randint(1, n - 2) if n > 2 else 1
    setups.append(
        (tuple(sorted(rng.sample(range(1, n + 1), k))), tuple(sorted(rng.sample(range(1, n + 1), k))))
    )
    if n > 2:
        setups.append((interval(2, n - 1), interval(2, n - 1)))
    for I0, J0 in setups:
        reduced = sylvester_reduce(x, I0, J0)
        comp_rows = [r for r in range(1, n + 1) if r not in I0]
        comp_cols = [c for c in range(1, n + 1) if c not in J0]
        for s in comp_rows:
            for t in comp_cols:
                lhs = quasideterminant(x, s, t)
                rhs = quasideterminant(reduced, comp_rows.index(s) + 1, comp_cols.index(t) + 1)
                if not equal(lhs, rhs):
                    _fail("sylvester", x, I0=I0, J0=J0, s=s, t=t)
                checks += 1
    return checks


def check_inverse_entries(x: Matrix) -> int:
    """Entries of the inverse against inverted quasideterminants."""
    n = x.rows
    inverse = x.inverse()
    checks = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = inverse[i, j]
            if is_zero(entry):
                continue
            if not equal(inv(entry), quasideterminant(x, j, i)):
                _fail("inverse-entries", x, i=i, j=j)
            checks += 1
    return checks


def check_expansion(x: Matrix, rng: random.Random) -> int:
    p, q = rng.randint(1, x.rows), rng.randint(1, x.rows)
    if not equal(quasidet_expansion(x, p, q), quasideterminant(x, p, q)):
        _fail("expansion", x, p=p, q=q)
    return 1


def _slots(reads, numbered: dict, first_reads: list) -> tuple:
    """The slot of each (u, v, k) in `reads`: one per ``MinorCache`` key, numbered by first read.

    A key is (u[1, k] sorted, u(k), v[1, k] sorted, v(k)) as ``MinorCache.uv``
    reads it, held as its two level keys.  A new key gets the next slot, and
    its (u, v, k) goes to `first_reads`, so slot s is first read as
    ``first_reads[s]``.
    """
    out = []
    for u, v, k in reads:
        key = (_level_key(u.images, k), _level_key(v.images, k))
        if key not in numbered:
            numbered[key] = len(first_reads)
            first_reads.append((u, v, k))
        out.append(numbered[key])
    return tuple(out)


def _groups(keyed) -> list:
    """[first member, count] per distinct key of these (key, member) pairs, in first-seen order."""
    groups = {}
    for key, member in keyed:
        groups.setdefault(key, [member, 0])[1] += 1
    return list(groups.values())


@functools.lru_cache(maxsize=1)
def _dodgson_admissible(n: int) -> tuple:
    """(rows, first_reads): each distinct instance of the admissible triples once, and its slots.

    A triple (u, v, i) with l(u s_i) > l(u) and l(v s_i) > l(v) reads seven
    quasiminors.  Their ``MinorCache`` keys see u only through the level keys
    of u and u s_i at levels i and i + 1 (u[1, i-1] as a set, u(i) and
    u(i+1)), and v likewise, and these eight level keys are read back from the
    seven keys.  Triples that share them are one instance: the same five
    identities on the same values.  So for each i the ascents are grouped
    once by these four level keys, and an instance is a (u group, v group)
    pair.  A row (slots, u, u s_i, v, v s_i, i, m) is an instance at its
    first triple in (i, u, v) order, with the number m = m_u m_v of triples
    it stands for; ``slots`` holds the slots of its seven quasiminors in read
    order d_uv, d_usv, d_uvs, d_usvs, e_uv, e_usv, e_uvs (``_slots``).
    ``first_reads[s]`` is the (u, v, k) that first reads slot s: n = 4 has
    216 rows over 319 slots.  The table depends on n alone: each product
    u s_i is built once per n, and the table of the latest n is kept as
    tuples for every later grid at that n.
    """
    perms = all_permutations(n)
    numbered, first_reads, rows = {}, [], []
    for i in range(1, n):
        s = Permutation.simple(i, n)
        groups = _groups(
            (tuple(_level_key(w.images, k) for w in (u, us) for k in (i, i + 1)), (u, us))
            for u in perms
            if (us := u * s).length() == u.length() + 1
        )
        for (u, us), m_u in groups:
            for (v, vs), m_v in groups:
                reads = (
                    (u, v, i), (us, v, i), (u, vs, i), (us, vs, i),
                    (u, v, i + 1), (us, v, i + 1), (u, vs, i + 1),
                )
                rows.append((_slots(reads, numbered, first_reads), u, us, v, vs, i, m_u * m_v))
    return tuple(rows), tuple(first_reads)


def _product_slots(rows, forms) -> tuple:
    """Per row, the product slot of each two-slot product in `forms`, numbered by first use.

    A form (a, b, left) is the product of the quasiminors at places a and b
    of a row's slots: a^{-1} b when `left` holds, a b^{-1} otherwise.  Rows
    that name the same two slots in the same form share one product slot.
    Slots are numbered in row order, and within a row in the order of
    `forms`, which is the order in which a grid first uses them.
    """
    numbered = {}
    return tuple(
        tuple(
            numbered.setdefault((slots[a], slots[b], left), len(numbered))
            for a, b, left in forms
        )
        for slots, *_ in rows
    )


def _slot_reader(x: Matrix, first_reads):
    """(read, nonzero, inverse, product): x's quasiminors by slot, and the products they share.

    read(slots) gives the quasiminors in these slots; slot s is filled on its
    first read, through ``MinorCache.uv`` at ``first_reads[s]``.  Slots are
    numbered in the order a grid first reads them, so the slot not yet
    filled that a grid reads is always the next one.  nonzero(s, u, v, k)
    tests slot s, already read, as the (u, v) grid quasiminor at level k: a
    zero one makes the sample non-generic, not a counterexample, and raises
    NotGeneric so the harness resamples.  inverse(s, u, v, k) inverts slot s
    after that test, at most once per slot.  product(p, a, b) is a b, made
    once, at the first use of product slot p; product slots are numbered in
    the order a grid first uses them (``_product_slots``), so the one not
    yet made is always the next one.  All of these live for one grid call.
    """
    cache, values, inverses, made = MinorCache(x), [], {}, []

    def read(slots):
        for s in slots:
            if s == len(values):
                values.append(cache.uv(*first_reads[s]))
        return [values[s] for s in slots]

    def nonzero(s, u, v, k):
        if is_zero(values[s]):
            raise NotGeneric(
                f"grid quasiminor at level {k} for ({u!r}, {v!r}) is zero",
                witness=("grid-zero", u.images, v.images, k),
            )

    def inverse(s, u, v, k):
        found = inverses.get(s)
        if found is None:
            nonzero(s, u, v, k)
            found = inverses[s] = inv(values[s])
        return found

    def product(p, a, b):
        if p == len(made):
            made.append(a * b)
        return made[p]

    return read, nonzero, inverse, product


@functools.lru_cache(maxsize=1)
def _dodgson_products(n: int) -> tuple:
    """Per row of ``_dodgson_admissible(n)``, the product slots it uses (``_product_slots``).

    In order of first use: d_usv d_uv^{-1}, d_uv^{-1} d_uvs, e_uv e_usv^{-1}
    and e_uvs^{-1} e_uv.  n = 4 has 150 distinct products of each of the
    four over its 216 rows.  Like the table, it is kept for the latest n.
    """
    return _product_slots(
        _dodgson_admissible(n)[0], ((1, 0, False), (0, 2, True), (4, 5, False), (6, 4, True))
    )


def check_dodgson_grid(x: Matrix) -> int:
    """All five quasiminor exchange identities over every admissible (u, v, i).

    Each distinct instance (``_dodgson_admissible``) is evaluated once, at its
    first triple, and counts 5 checks for each triple it stands for.  A
    failure or a NotGeneric witness is that of the first failing triple: a
    triple fails exactly when its instance does.  Each quasiminor is read
    at most once per grid, by slot, and each instance zero-tests d_uv,
    d_usv, d_uvs, e_usv and e_uvs in that order.  Identity 2,
    d_usv^{-1} e_uv = d_uv^{-1} e_usv, is checked as e_uv = ratio e_usv with
    ratio = d_usv d_uv^{-1}, identity 1's product; identity 3,
    e_uv d_uvs^{-1} = e_uvs d_uv^{-1}, as e_uv = e_uvs back with
    back = d_uv^{-1} d_uvs, identity 5's right side.  Each is the same
    equation times a quasiminor tested nonzero, so only d_uv, e_usv and
    e_uvs are inverted.  The two-slot products ratio, back, e_uv e_usv^{-1}
    and e_uvs^{-1} e_uv are made once per grid, by product slot
    (``_dodgson_products``).
    """
    rows, first_reads = _dodgson_admissible(x.rows)
    read, nonzero, inverse, product = _slot_reader(x, first_reads)
    checks = 0
    for (slots, u, us, v, vs, i, m), (p_ratio, p_back, p_e_usv, p_e_uvs) in zip(
        rows, _dodgson_products(x.rows)
    ):
        d_uv, d_usv, d_uvs, d_usvs, e_uv, e_usv, e_uvs = read(slots)
        inv_d_uv = inverse(slots[0], u, v, i)
        nonzero(slots[1], us, v, i)
        nonzero(slots[2], u, vs, i)
        inv_e_usv = inverse(slots[5], us, v, i + 1)
        inv_e_uvs = inverse(slots[6], u, vs, i + 1)
        params = (u.images, v.images, i)
        ratio = product(p_ratio, d_usv, inv_d_uv)
        if not equal(d_usvs, ratio * d_uvs + e_uv):
            _fail("dodgson-1", x, params=params)
        if not equal(e_uv, ratio * e_usv):
            _fail("dodgson-2", x, params=params)
        back = product(p_back, inv_d_uv, d_uvs)
        if not equal(e_uv, e_uvs * back):
            _fail("dodgson-3", x, params=params)
        if not equal(product(p_e_usv, e_uv, inv_e_usv), ratio):
            _fail("dodgson-4", x, params=params)
        if not equal(product(p_e_uvs, inv_e_uvs, e_uv), back):
            _fail("dodgson-5", x, params=params)
        checks += 5 * m
    return checks


@functools.lru_cache(maxsize=1)
def _plucker_admissible(n: int) -> tuple:
    """(rows, first_reads): each distinct instance of the Plucker checks once, and its slots.

    The checks run over i = 1..n-2, then w with l(w s_i s_{i+1} s_i) = l(w) + 3,
    then every permutation `other`, the u check (u, v) = (w, other) before the
    v check (u, v) = (other, w).  With the family (w, w s_{i+1}, w s_i,
    w s_i s_{i+1}, w s_{i+1} s_i), a check reads five quasiminors, whose
    ``MinorCache`` keys see w only through the level keys of its family (at
    levels i + 1, i + 1, i, i + 1, i) and `other` through its level keys at i
    and i + 1.  Checks of one side that share them are one instance: for each
    i the families and the others are grouped once by these level keys, and
    an instance is a (family group, other group, side).  A row (slots,
    check, u, v, i, pivot, m) is an instance at its first check, with the
    number m = m_w m_other of checks it stands for; ``slots`` holds the slots of
    its five quasiminors (``_slots``) in read order, so that the check is
    slot 0 = slot 1 + slot 2 slot 3^{-1} slot 4, and ``pivot`` is the (u, v)
    of slot 3, the one inverted.  ``first_reads`` is as in
    ``_dodgson_admissible``: n = 4 has 288 rows over 278 slots.  Like it,
    the table depends on n alone and the table of the latest n is kept.
    """
    perms = all_permutations(n)
    numbered, first_reads, rows = {}, [], []
    for i in range(1, n - 1):
        s_i, s_next = Permutation.simple(i, n), Permutation.simple(i + 1, n)
        levels = (i + 1, i + 1, i, i + 1, i)
        families = []
        for w in perms:
            if (w * s_i * s_next * s_i).length() == w.length() + 3:
                w_next, w_i = w * s_next, w * s_i
                family = (w, w_next, w_i, w_i * s_next, w_next * s_i)
                key = tuple(_level_key(f.images, k) for f, k in zip(family, levels))
                families.append((key, family))
        others = _groups(((_level_key(o.images, i), _level_key(o.images, i + 1)), o) for o in perms)
        for (w, w_next, w_i, w_i_next, w_next_i), m_w in _groups(families):
            for o, m_other in others:
                u_reads = (
                    (w_next, o, i + 1), (w_i_next, o, i + 1), (w_next_i, o, i),
                    (w_i, o, i), (w, o, i + 1),
                )
                v_reads = (
                    (o, w_next, i + 1), (o, w_i_next, i + 1), (o, w, i + 1),
                    (o, w_i, i), (o, w_next_i, i),
                )
                for check, u, v, reads in (
                    ("plucker-u", w, o, u_reads), ("plucker-v", o, w, v_reads)
                ):
                    slots = _slots(reads, numbered, first_reads)
                    rows.append((slots, check, u, v, i, reads[3][:2], m_w * m_other))
    return tuple(rows), tuple(first_reads)


@functools.lru_cache(maxsize=1)
def _plucker_products(n: int) -> tuple:
    """Per row of ``_plucker_admissible(n)``, the product slot of its b c^{-1} (``_product_slots``).

    b and c are slots 2 and 3 of the row: n = 4 has 192 distinct b c^{-1}
    over its 288 rows.  Like the table, it is kept for the latest n.
    """
    return _product_slots(_plucker_admissible(n)[0], ((2, 3, False),))


def check_minors_plucker_grid(x: Matrix) -> int:
    """Both generalized exchange identities with a three-step length condition.

    Each distinct instance (``_plucker_admissible``) is evaluated once, at its
    first check, and counts 1 for each check it stands for.  A failure or a
    NotGeneric witness is that of the first failing check: a check fails
    exactly when its instance does.  Each quasiminor is read and inverted at
    most once per grid, by slot; the inverse is taken before the fifth read,
    where the check has always taken it.  The product b c^{-1} is made once
    per grid, by product slot (``_plucker_products``).
    """
    rows, first_reads = _plucker_admissible(x.rows)
    read, _, inverse, product = _slot_reader(x, first_reads)
    checks = 0
    for (slots, check, u, v, i, (pivot_u, pivot_v), m), (p_b_c,) in zip(
        rows, _plucker_products(x.rows)
    ):
        lhs, a, b, c = read(slots[:4])
        inv_c = inverse(slots[3], pivot_u, pivot_v, i)
        (d,) = read(slots[4:])
        if not equal(lhs, a + product(p_b_c, b, inv_c) * d):
            _fail(check, x, params=(u.images, v.images, i))
        checks += m
    return checks


def check_quasi_plucker_coords(rng: random.Random, n: int) -> int:
    """Normalization and one-sided invariance of the quasi-Plucker coordinates."""
    k = 1 if n < 3 else rng.randint(2, n - 1)
    checks = 0
    wide = sample_matrix(rng, k, n, "quat")
    I = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
    outside = [c for c in range(1, n + 1) if c not in I]
    i = rng.choice(outside)
    j = rng.choice(outside)
    if not equal(quasi_plucker_left(wide, i, i, I), 1):
        _fail("plucker-left-unit", wide, I=I, i=i)
    checks += 1
    g = invertible_matrix(rng, k)
    if not equal(quasi_plucker_left(g * wide, i, j, I), quasi_plucker_left(wide, i, j, I)):
        _fail("plucker-left-invariance", wide, I=I, i=i, j=j)
    checks += 1
    tall = sample_matrix(rng, n, k, "quat")
    J = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
    outside = [r for r in range(1, n + 1) if r not in J]
    i = rng.choice(outside)
    j = rng.choice(outside)
    if not equal(quasi_plucker_right(tall, i, i, J), 1):
        _fail("plucker-right-unit", tall, J=J, i=i)
    checks += 1
    g = invertible_matrix(rng, k)
    if not equal(quasi_plucker_right(tall * g, i, j, J), quasi_plucker_right(tall, i, j, J)):
        _fail("plucker-right-invariance", tall, J=J, i=i, j=j)
    checks += 1
    return checks


def check_gauss(x: Matrix, rng: random.Random) -> int:
    """Closed-form LDU against elimination LDU, plus the projection laws."""
    n = x.rows
    closed = ldu(x)
    elim = ldu_elimination(x)
    if closed.lower != elim.lower or closed.diag != elim.diag or closed.upper != elim.upper:
        _fail("ldu-agreement", x)
    if closed.product() != x:
        _fail("ldu-reconstruction", x)
    lower_part, diag, upper = gauss_parts(x)
    if lower_part * upper != x:
        _fail("gauss-parts-product", x)
    if gauss_parts(lower_part)[1] != diag:
        _fail("gauss-parts-diagonal-law", x)
    checks = 4
    for i in range(1, n + 1):
        if not equal(principal_quasiminor(x, i), diag[i, i]):
            _fail("principal-vs-diagonal", x, level=i)
        checks += 1
    x_minus = upper_unitriangular(rng, n).transpose()
    x_plus = upper_unitriangular(rng, n)
    sandwich = x_minus * x * x_plus
    for i in range(1, n + 1):
        if not equal(principal_quasiminor(sandwich, i), principal_quasiminor(x, i)):
            _fail("principal-invariance", x, level=i)
        checks += 1
    return checks


# -- suites ---------------------------------------------------------------------


def _trial_quasidet_identities(rng: random.Random, n: int, bound: int) -> int:
    x = sample_matrix(rng, n, n, "quat", bound)
    checks = check_elementary_properties(x, rng)
    checks += check_homological(x, rng)
    checks += check_sylvester(x, rng)
    checks += check_inverse_entries(x)
    if n <= 3:
        checks += check_expansion(x, rng)
    return checks


def _trial_dodgson(rng: random.Random, n: int, bound: int) -> int:
    return check_dodgson_grid(sample_matrix(rng, n, n, "quat", bound))


def _trial_plucker(rng: random.Random, n: int, bound: int) -> int:
    checks = check_quasi_plucker_coords(rng, n)
    if n >= 3:
        checks += check_minors_plucker_grid(sample_matrix(rng, n, n, "quat", bound))
    return checks


def _trial_gauss(rng: random.Random, n: int, bound: int) -> int:
    return check_gauss(invertible_matrix(rng, n, "quat", bound), rng)


def _trial_twist_involution(rng: random.Random, n: int, bound: int) -> int:
    u = random_permutation(rng, n)
    v = random_permutation(rng, n)
    x, word, params = reduced_cell_point(rng, u, v, bound)
    y = twist_reduced(x, u, v)
    try:
        back = twist_reduced(y, v, u)
    except WrongCell:
        _fail("twist-image-cell", x, u=u.images, v=v.images, word=word.to_text())
    if back != x:
        _fail("twist-involution", x, u=u.images, v=v.images, word=word.to_text())
    h = [nonzero_scalar(rng, "quat", bound) for _ in range(n)]
    g = x._scale_rows(h)
    lhs = cross_checked_twist(g, u, v)
    if lhs != y._scale_rows(h):
        _fail("twist-equivariance", x, u=u.images, v=v.images)
    if u == v:
        if twist_general(lhs, v, u) != g:
            _fail("twist-general-involution", g, u=u.images)
    return 3 if u == v else 2


def _trial_roundtrip(rng: random.Random, n: int, bound: int) -> int:
    u = random_permutation(rng, n)
    v = random_permutation(rng, n)
    x, word, h, params = cell_point(rng, u, v, bound)
    out = recover_params(x, word)
    if list(out.h) != h or list(out.t) != params:
        _fail("roundtrip", x, word=word.to_text())
    return 1 + word.length


def _trial_double_ratios(rng: random.Random, n: int, bound: int, extended: bool = False) -> int:
    w0 = Permutation.longest(n)
    x = maximal_cell_point(rng, n, bound)
    ratios = verify_double_ratios(x, include_extended=extended)
    if not ratios.all_passed:
        _fail("double-ratios", x, failures=ratios.failures)
    checks = sum(ratios.counts.values())
    xu, _, _, _ = cell_point(rng, random_permutation(rng, n), w0, bound)
    if factor_u_w0(xu).replay() != xu:
        _fail("u-w0-replay", xu)
    xv, _, _, _ = cell_point(rng, w0, random_permutation(rng, n), bound)
    if factor_w0_v(xv).replay() != xv:
        _fail("w0-v-replay", xv)
    return checks + 2


SUITES = {
    "quasidet-identities": _trial_quasidet_identities,
    "dodgson": _trial_dodgson,
    "plucker": _trial_plucker,
    "gauss": _trial_gauss,
    "twist-involution": _trial_twist_involution,
    "roundtrip": _trial_roundtrip,
    "double-ratios": _trial_double_ratios,
}
"""Suite name -> one trial: (rng, n, bound, **kwargs) -> number of checks."""


GRID_CHECKS = {
    "dodgson": lambda n: 5 * (n - 1) * (factorial(n) // 2) ** 2,
    "plucker": lambda n: (n - 2) * factorial(n) ** 2 // 3,
}
"""Grid suite -> n -> grid checks in one trial, in closed form.

Dodgson makes 5 checks per admissible (u, v, i): for each of the n - 1
simple reflections s_i, n!/2 permutations u have l(u s_i) > l(u), and as
many v.  Plucker makes 2 checks per (w, other, i), i = 1..n-2, where
l(w s_i s_{i+1} s_i) = l(w) + 3 holds for the n!/6 minimal representatives
w of the cosets of <s_i, s_{i+1}>.  Every admissible triple is counted,
though the grid checks evaluate each distinct instance once: 216 Dodgson
and 288 Plucker instances at n = 4, 2,000 and 4,000 at n = 5.  The
instance tables are built once per n, on the first grid at that n, and
only those of the latest n are kept.
"""

GRID_CHECK_BUDGET = 10_000_000
"""Most grid checks (checks per trial times trials) one suite run may plan."""


def validate_run(name: str, n: int, trials: int, bound: int = 2) -> None:
    """Raise ValueError for a run ``run_suite`` refuses, before any trial starts.

    Besides malformed arguments, a grid suite whose ``GRID_CHECKS`` estimate
    exceeds ``GRID_CHECK_BUDGET`` is refused: it could not finish in reasonable time.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if n < 2:
        # GL_1 has no Weyl letters and no quasiminor identity to check
        raise ValueError(f"suites need n >= 2, got {n}")
    if trials < 1:
        # zero trials would report a PASS that checked nothing
        raise ValueError(f"suites need trials >= 1, got {trials}")
    if bound < 1:
        raise ValueError(f"suites need bound >= 1 to draw nonzero entries, got {bound}")
    estimate = GRID_CHECKS[name](n) * trials if name in GRID_CHECKS else 0
    if estimate > GRID_CHECK_BUDGET:
        raise ValueError(
            f"suite {name!r} at n = {n} with trials = {trials} would make {estimate:,} "
            f"grid checks, over the budget of {GRID_CHECK_BUDGET:,}; lower n or trials"
        )


def run_suite(name: str, n: int, trials: int, seed: int, bound: int = 2, **kwargs) -> SuiteReport:
    """Run `trials` seeded trials of one suite; NotGeneric samples are resampled.

    Raises as ``validate_run`` first.
    """
    validate_run(name, n, trials, bound)
    trial_body = SUITES[name]
    report = SuiteReport(name, n, trials, seed)
    rng = random.Random(seed)
    for trial in range(trials):
        try:
            report.checks += with_retries(lambda: trial_body(rng, n, bound, **kwargs))
        except CheckFailed as exc:
            detail = dict(exc.detail)
            detail["trial"] = trial
            detail["seed"] = seed
            detail["suite"] = name
            report.failures.append(detail)
    return report
