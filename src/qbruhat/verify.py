"""Named property suites: randomized exact-identity checks with reports.

``SUITES`` maps each suite name to one trial; ``run_suite`` runs it
`trials` >= 1 times off one seeded RNG.  A NotGeneric sample is resampled
within the retry budget, a genuine identity violation is recorded as a
failure carrying a replayable JSON witness (matrix, word, trial, seed).
Reports are deterministic functions of (suite, n, trials, seed, bound).
"""

from __future__ import annotations

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
from .scalars import inv, is_zero
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


def _deleted_quasidet(A, drop_row, drop_col, p, q):
    inner = A.delete(drop_row, drop_col)
    pi = p - 1 if p > drop_row else p
    qi = q - 1 if q > drop_col else q
    return quasideterminant(inner, pi, qi)


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
    if not is_zero(quasideterminant(shuffled, rows.index(p) + 1, cols.index(q) + 1) - base):
        _fail("permutation-invariance", x, p=p, q=q, rows=rows, cols=cols)
    checks += 1

    lam = quaternion(rng)
    r = rng.randint(1, n)
    scaled = x._scale_rows([lam if i == r else 1 for i in range(1, n + 1)])
    expect = lam * base if r == p else base
    if not is_zero(quasideterminant(scaled, p, q) - expect):
        _fail("row-scaling", x, p=p, q=q, row=r)
    checks += 1

    mu = quaternion(rng)
    c = rng.randint(1, n)
    scaled = x._scale_cols([mu if j == c else 1 for j in range(1, n + 1)])
    expect = base * mu if c == q else base
    if not is_zero(quasideterminant(scaled, p, q) - expect):
        _fail("column-scaling", x, p=p, q=q, col=c)
    checks += 1

    src = rng.randint(1, n)
    dst = rng.choice([i for i in range(1, n + 1) if i != src])
    bumped = Matrix(
        [
            [x[i, j] + lam * x[src, j] if i == dst else x[i, j] for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )
    if p != src:
        if not is_zero(quasideterminant(bumped, p, q) - base):
            _fail("row-addition-invariance", x, p=p, q=q, src=src, dst=dst)
        checks += 1

    srcc = rng.randint(1, n)
    dstc = rng.choice([j for j in range(1, n + 1) if j != srcc])
    bumped = Matrix(
        [
            [x[i, j] + x[i, srcc] * mu if j == dstc else x[i, j] for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )
    if q != srcc:
        if not is_zero(quasideterminant(bumped, p, q) - base):
            _fail("column-addition-invariance", x, p=p, q=q, src=srcc, dst=dstc)
        checks += 1
    return checks


def check_homological(x: Matrix, rng: random.Random) -> int:
    """Row and column homological relations, all free indices for one setup."""
    n = x.rows
    i = rng.randint(1, n)
    j, ell = rng.sample(range(1, n + 1), 2)
    checks = 0
    a_ij = quasideterminant(x, i, j)
    a_il = quasideterminant(x, i, ell)
    for s in range(1, n + 1):
        if s == i:
            continue
        lhs = -a_ij * inv(_deleted_quasidet(x, i, ell, s, j))
        rhs = a_il * inv(_deleted_quasidet(x, i, j, s, ell))
        if not is_zero(lhs - rhs):
            _fail("homological-row", x, i=i, j=j, ell=ell, s=s)
        checks += 1
    k = rng.choice([r for r in range(1, n + 1) if r != i])
    a_kj = quasideterminant(x, k, j)
    for t in range(1, n + 1):
        if t == j:
            continue
        lhs = -inv(_deleted_quasidet(x, k, j, i, t)) * a_ij
        rhs = inv(_deleted_quasidet(x, i, j, k, t)) * a_kj
        if not is_zero(lhs - rhs):
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
                if not is_zero(lhs - rhs):
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
            if not is_zero(inv(entry) - quasideterminant(x, j, i)):
                _fail("inverse-entries", x, i=i, j=j)
            checks += 1
    return checks


def check_expansion(x: Matrix, rng: random.Random) -> int:
    p, q = rng.randint(1, x.rows), rng.randint(1, x.rows)
    if not is_zero(quasidet_expansion(x, p, q) - quasideterminant(x, p, q)):
        _fail("expansion", x, p=p, q=q)
    return 1


def _dodgson_admissible(n: int):
    """(u, u s_i, v, v s_i, i) for every admissible triple; each product is built once."""
    perms = all_permutations(n)
    out = []
    for i in range(1, n):
        s = Permutation.simple(i, n)
        pairs = [(u, us) for u in perms if (us := u * s).length() == u.length() + 1]
        for u, us in pairs:
            for v, vs in pairs:
                out.append((u, us, v, vs, i))
    return out


def _grid_inv(value, u: Permutation, v: Permutation, k: int, inverses: dict):
    """Inverse of the (u, v) grid quasiminor `value` at level k, kept in the grid's `inverses`.

    A zero quasiminor makes the sample non-generic, not a counterexample: it
    is never stored, and it raises NotGeneric so the harness resamples.
    """
    if value not in inverses:
        if is_zero(value):
            raise NotGeneric(
                f"grid quasiminor at level {k} for ({u!r}, {v!r}) is zero",
                witness=("grid-zero", u.images, v.images, k),
            )
        inverses[value] = inv(value)
    return inverses[value]


def check_dodgson_grid(x: Matrix) -> int:
    """All five quasiminor exchange identities over every admissible (u, v, i)."""
    n = x.rows
    cache, inverses = MinorCache(x), {}
    checks = 0
    for u, us, v, vs, i in _dodgson_admissible(n):
        d_uv = cache.uv(u, v, i)
        d_usv = cache.uv(us, v, i)
        d_uvs = cache.uv(u, vs, i)
        d_usvs = cache.uv(us, vs, i)
        e_uv = cache.uv(u, v, i + 1)
        e_usv = cache.uv(us, v, i + 1)
        e_uvs = cache.uv(u, vs, i + 1)
        inv_d_uv = _grid_inv(d_uv, u, v, i, inverses)
        inv_d_usv = _grid_inv(d_usv, us, v, i, inverses)
        inv_d_uvs = _grid_inv(d_uvs, u, vs, i, inverses)
        inv_e_usv = _grid_inv(e_usv, us, v, i + 1, inverses)
        inv_e_uvs = _grid_inv(e_uvs, u, vs, i + 1, inverses)
        params = (u.images, v.images, i)
        if not is_zero(d_usvs - (d_usv * inv_d_uv * d_uvs + e_uv)):
            _fail("dodgson-1", x, params=params)
        if not is_zero(inv_d_usv * e_uv - inv_d_uv * e_usv):
            _fail("dodgson-2", x, params=params)
        if not is_zero(e_uv * inv_d_uvs - e_uvs * inv_d_uv):
            _fail("dodgson-3", x, params=params)
        if not is_zero(e_uv * inv_e_usv - d_usv * inv_d_uv):
            _fail("dodgson-4", x, params=params)
        if not is_zero(inv_e_uvs * e_uv - inv_d_uv * d_uvs):
            _fail("dodgson-5", x, params=params)
        checks += 5
    return checks


def _plucker_admissible(n: int):
    perms = all_permutations(n)
    out = []
    for i in range(1, n - 1):
        s_i = Permutation.simple(i, n)
        s_next = Permutation.simple(i + 1, n)
        ws = [
            w
            for w in perms
            if (w * s_i * s_next * s_i).length() == w.length() + 3
        ]
        out.append((i, s_i, s_next, ws))
    return out


def check_minors_plucker_grid(x: Matrix) -> int:
    """Both generalized exchange identities with a three-step length condition."""
    n = x.rows
    cache, inverses = MinorCache(x), {}
    checks = 0
    perms = all_permutations(n)
    for i, s_i, s_next, ws in _plucker_admissible(n):
        for w in ws:
            w_next, w_i = w * s_next, w * s_i
            w_i_next, w_next_i = w_i * s_next, w_next * s_i
            for other in perms:
                u, v = w, other
                lhs = cache.uv(w_next, v, i + 1)
                rhs = cache.uv(w_i_next, v, i + 1) + cache.uv(
                    w_next_i, v, i
                ) * _grid_inv(cache.uv(w_i, v, i), w_i, v, i, inverses) * cache.uv(
                    u, v, i + 1
                )
                if not is_zero(lhs - rhs):
                    _fail("plucker-u", x, params=(u.images, v.images, i))
                checks += 1
                u, v = other, w
                lhs = cache.uv(u, w_next, i + 1)
                rhs = cache.uv(u, w_i_next, i + 1) + cache.uv(
                    u, v, i + 1
                ) * _grid_inv(cache.uv(u, w_i, i), u, w_i, i, inverses) * cache.uv(
                    u, w_next_i, i
                )
                if not is_zero(lhs - rhs):
                    _fail("plucker-v", x, params=(u.images, v.images, i))
                checks += 1
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
    if not is_zero(quasi_plucker_left(wide, i, i, I) - 1):
        _fail("plucker-left-unit", wide, I=I, i=i)
    checks += 1
    g = invertible_matrix(rng, k)
    if not is_zero(
        quasi_plucker_left(g * wide, i, j, I) - quasi_plucker_left(wide, i, j, I)
    ):
        _fail("plucker-left-invariance", wide, I=I, i=i, j=j)
    checks += 1
    tall = sample_matrix(rng, n, k, "quat")
    J = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
    outside = [r for r in range(1, n + 1) if r not in J]
    i = rng.choice(outside)
    j = rng.choice(outside)
    if not is_zero(quasi_plucker_right(tall, i, i, J) - 1):
        _fail("plucker-right-unit", tall, J=J, i=i)
    checks += 1
    g = invertible_matrix(rng, k)
    if not is_zero(
        quasi_plucker_right(tall * g, i, j, J) - quasi_plucker_right(tall, i, j, J)
    ):
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
        if not is_zero(principal_quasiminor(x, i) - diag[i, i]):
            _fail("principal-vs-diagonal", x, level=i)
        checks += 1
    x_minus = upper_unitriangular(rng, n).transpose()
    x_plus = upper_unitriangular(rng, n)
    sandwich = x_minus * x * x_plus
    for i in range(1, n + 1):
        if not is_zero(principal_quasiminor(sandwich, i) - principal_quasiminor(x, i)):
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
    factor_u_w0(xu)
    xv, _, _, _ = cell_point(rng, w0, random_permutation(rng, n), bound)
    factor_w0_v(xv)
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
w of the cosets of <s_i, s_{i+1}>.
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
