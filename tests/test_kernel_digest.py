"""A recorded digest of what the exact linear-algebra kernels return.

Seeded small matrices (1x1 to 4x4, some not square) over the rationals
and the rational quaternions, with zeros and forced row and column
dependencies, go through ``rank``, ``Matrix.inverse``, every
``quasideterminant``, ``sylvester_reduce`` at random pivots,
``MinorCache`` reads of every positioned quasiminor in shuffled order,
the Gauss-cell projections (``gauss_parts``, ``ldu_elimination``, and
``lower_solve`` against a second seeded matrix, of the same row count or
not), the Bruhat reduction (``bruhat_factor``,
``bruhat_factor_schubert``, ``classify``), the block factorizations
against the longest element (``factor_u_w0``, ``factor_w0_v``) and the
identity grids (``check_dodgson_grid`` for n >= 2,
``check_minors_plucker_grid`` for n >= 3).  Each outcome is one line: the
value's repr, or the error's type, message and witness.  The sha256
of the lines and the counts of outcomes and errors are recorded in
``tests/data/kernel_digest.txt``, so any change to a kernel must leave
every value, message and witness exactly as it was.

Record the file again (only when outcomes are meant to change) with

    PYTHONPATH=src python tests/test_kernel_digest.py > tests/data/kernel_digest.txt
"""

import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

from qbruhat.cells import bruhat_factor, bruhat_factor_schubert, classify
from qbruhat.errors import QBruhatError
from qbruhat.factorize import factor_u_w0, factor_w0_v
from qbruhat.gauss import gauss_parts, ldu_elimination, lower_solve
from qbruhat.matrix import Matrix, rank
from qbruhat.quasidet import MinorCache, MinorSpec, quasideterminant, sylvester_reduce
from qbruhat.scalars import RationalQuaternion
from qbruhat.verify import check_dodgson_grid, check_minors_plucker_grid

DIGEST = Path(__file__).resolve().parent / "data" / "kernel_digest.txt"
SEED = 20050
MATRICES = 240


def scalar(rng, quaternion):
    # a small alphabet in which zero is common
    if not quaternion:
        return Fraction(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2)))
    if rng.random() < 0.3:
        return RationalQuaternion(0)
    return RationalQuaternion(*(rng.choice((0, 0, 1, -1, 2)) for _ in range(4)))


def sample_matrix(rng, n=None):
    n = n or rng.randint(1, 4)
    m = n if rng.random() < 0.75 else rng.randint(1, 4)
    quaternion = rng.random() < 0.5
    rows = [[scalar(rng, quaternion) for _ in range(m)] for _ in range(n)]
    zero = rows[0][0] - rows[0][0]
    if n > 1 and rng.random() < 0.3:
        # one row a left combination of the others
        dep = rng.randrange(n)
        coeffs = [(scalar(rng, quaternion), r) for r in range(n) if r != dep]
        rows[dep] = [sum((c * rows[r][j] for c, r in coeffs), zero) for j in range(m)]
    if m > 1 and rng.random() < 0.3:
        # one column a right combination of the others
        dep = rng.randrange(m)
        coeffs = [(scalar(rng, quaternion), c) for c in range(m) if c != dep]
        for row in rows:
            row[dep] = sum((row[c] * a for a, c in coeffs), zero)
    return Matrix(rows)


def render(evaluate) -> str:
    try:
        return repr(evaluate())
    except QBruhatError as exc:
        return f"! {type(exc).__name__}: {exc} {getattr(exc, 'witness', None)!r}"


def positioned_specs(rows, cols):
    for k in range(1, min(rows, cols) + 1):
        for I in itertools.combinations(range(1, rows + 1), k):
            for J in itertools.combinations(range(1, cols + 1), k):
                for i in I:
                    for j in J:
                        yield MinorSpec(I, J, i, j)


def outcome_lines(seed=SEED, count=MATRICES):
    rng = random.Random(seed)
    # lower_solve's right-hand sides draw from their own stream, leaving that of x alone
    rhs_rng = random.Random(seed + 1)
    for index in range(count):
        x = sample_matrix(rng)
        n = x.rows
        yield f"# {index} {x!r}"
        yield "rank " + render(lambda: rank(x))
        yield "inverse " + render(x.inverse)
        if x.is_square:
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    yield f"qdet {p} {q} " + render(lambda: quasideterminant(x, p, q))
            for _ in range(3 if n > 1 else 0):
                k = rng.randint(1, n - 1)
                I0 = tuple(sorted(rng.sample(range(1, n + 1), k)))
                J0 = tuple(sorted(rng.sample(range(1, n + 1), k)))
                yield f"sylvester {I0} {J0} " + render(lambda: sylvester_reduce(x, I0, J0))
        specs = list(positioned_specs(x.rows, x.cols))
        rng.shuffle(specs)
        cache = MinorCache(x)
        for spec in specs:
            yield f"minor {spec.I} {spec.J} {spec.i} {spec.j} " + render(
                lambda: cache.spec(spec)
            )
        y = sample_matrix(rhs_rng, n if rhs_rng.random() < 0.8 else None)
        yield f"lower_solve {y!r} " + render(lambda: lower_solve(x, y))
        yield "gauss_parts " + render(lambda: gauss_parts(x))
        yield "ldu_elimination " + render(lambda: ldu_elimination(x))
        yield "bruhat_factor " + render(lambda: bruhat_factor(x))
        yield "bruhat_factor_schubert " + render(lambda: bruhat_factor_schubert(x))
        yield "classify " + render(lambda: classify(x))
        yield "factor_u_w0 " + render(lambda: factor_u_w0(x))
        yield "factor_w0_v " + render(lambda: factor_w0_v(x))
        if x.is_square and n >= 2:
            yield "dodgson_grid " + render(lambda: check_dodgson_grid(x))
        if x.is_square and n >= 3:
            yield "plucker_grid " + render(lambda: check_minors_plucker_grid(x))


def digest(lines) -> str:
    lines = list(lines)
    sha = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    outcomes = [line for line in lines if not line.startswith("# ")]
    errors = sum(1 for line in outcomes if " ! " in line)
    return f"sha256 {sha}\noutcomes {len(outcomes)}\nerrors {errors}\n"


def test_kernel_outcomes_match_recorded_digest():
    assert digest(outcome_lines()) == DIGEST.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(digest(outcome_lines()), end="")
