"""Seeded samplers for the property harness, the CLI and the tests.

Everything is driven by an explicit ``random.Random`` so that reports are
reproducible from (seed, flags) alone.  Genericity failures are expected
with small integer samples; ``with_retries`` resamples a NotGeneric
computation up to a budget and only then gives up.

A ring is named once, as a key of :data:`RINGS`, whose value draws one of its
scalars with integer components in [-bound, bound], possibly zero.  Every
sampler reaches a ring through that table: :func:`scalar` looks the draw up,
and :func:`nonzero_scalar` draws again while :func:`scalars.is_zero` holds.  A
new ring is one entry here, plus a branch for its scalar in ``scalars.is_zero``
and ``scalars.inv`` or their generic fallback.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cells import classify
from .errors import NotGeneric, RetriesExhausted
from .factorize import product_map
from .matrix import Matrix, rank
from .scalars import RationalQuaternion, is_zero
from .weyl import Permutation, random_double_word

DEFAULT_RETRY_BUDGET = 100


def with_retries(fn, budget: int | None = None):
    """Run fn() until it stops raising NotGeneric, within `budget` (None: the default) tries."""
    budget = DEFAULT_RETRY_BUDGET if budget is None else budget
    last = None
    for _ in range(budget):
        try:
            return fn()
        except NotGeneric as exc:
            last = exc
    raise RetriesExhausted(f"still NotGeneric after {budget} attempts: {last}")


def _rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound))


def _quaternion(rng: random.Random, bound: int) -> RationalQuaternion:
    return RationalQuaternion(*[rng.randint(-bound, bound) for _ in range(4)])


# Each ring's draw: one scalar with integer components in [-bound, bound], possibly zero.
RINGS = {"rat": _rational, "quat": _quaternion}


def scalar(rng: random.Random, kind: str, bound: int = 2):
    if kind not in RINGS:
        raise ValueError(f"unknown scalar kind {kind!r}")
    return RINGS[kind](rng, bound)


def nonzero_scalar(rng: random.Random, kind: str, bound: int = 2):
    """A draw of `kind` that is not zero; every draw redraws all components."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    while True:
        value = scalar(rng, kind, bound)
        if not is_zero(value):
            return value


def quaternion(rng: random.Random, bound: int = 2) -> RationalQuaternion:
    return nonzero_scalar(rng, "quat", bound)


def matrix(rng: random.Random, n: int, m: int | None = None, kind: str = "quat", bound: int = 2) -> Matrix:
    m = n if m is None else m
    return Matrix([[scalar(rng, kind, bound) for _ in range(m)] for _ in range(n)])


def invertible_matrix(rng: random.Random, n: int, kind: str = "quat", bound: int = 2) -> Matrix:
    def attempt():
        x = matrix(rng, n, n, kind, bound)
        r = rank(x)
        if r < n:
            raise NotGeneric(f"sampled matrix has rank {r} < {n}", witness=("rank", r))
        return x

    return with_retries(attempt)


def upper_triangular(rng: random.Random, n: int, kind: str = "quat", bound: int = 2) -> Matrix:
    """Random invertible upper triangular matrix."""
    rows = []
    for i in range(n):
        row = [scalar(rng, kind, bound) if j > i else 0 for j in range(n)]
        row[i] = nonzero_scalar(rng, kind, bound)
        rows.append(row)
    return Matrix(rows)


def upper_unitriangular(rng: random.Random, n: int, kind: str = "quat", bound: int = 2) -> Matrix:
    rows = []
    for i in range(n):
        row = [scalar(rng, kind, bound) if j > i else 0 for j in range(n)]
        row[i] = 1
        rows.append(row)
    return Matrix(rows)


def diagonal(rng: random.Random, n: int, kind: str = "quat", bound: int = 2) -> Matrix:
    return Matrix.diagonal([nonzero_scalar(rng, kind, bound) for _ in range(n)])


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def reduced_cell_point(rng: random.Random, u: Permutation, v: Permutation, bound: int = 2):
    """(x, word, t) with x = product over a random double word; x lies in L^{u,v}."""
    word = random_double_word(u, v, rng)
    params = [quaternion(rng, bound) for _ in range(word.length)]
    return product_map(word, params), word, params


def cell_point(rng: random.Random, u: Permutation, v: Permutation, bound: int = 2):
    """(x, word, h, t) with x = diag(h) * product; x lies in G^{u,v}."""
    word = random_double_word(u, v, rng)
    params = [quaternion(rng, bound) for _ in range(word.length)]
    h = [quaternion(rng, bound) for _ in range(u.n)]
    return product_map(word, params, h), word, h, params


def maximal_cell_point(rng: random.Random, n: int, bound: int = 2) -> Matrix:
    """A generic point of the maximal double cell, sampled densely."""
    w0 = Permutation.longest(n)

    def attempt():
        # classify raises NotGeneric on a singular x, so no rank test is needed
        x = matrix(rng, n, n, "quat", bound)
        if classify(x) != (w0, w0):
            raise NotGeneric("sampled matrix missed the maximal cell")
        return x

    return with_retries(attempt)
