"""The seeded samplers: each ring's draw is pinned, and a draw that cannot be made is refused."""

import random
from fractions import Fraction

import pytest

from qbruhat.sampling import (
    RINGS,
    cell_point,
    diagonal,
    nonzero_scalar,
    quaternion,
    scalar,
    upper_triangular,
)
from qbruhat.scalars import RationalQuaternion as Q
from qbruhat.weyl import Permutation


def draws(sample, seed, count):
    rng = random.Random(seed)
    return [sample(rng) for _ in range(count)]


def test_the_seeded_draws_of_each_ring_are_pinned():
    # every seeded report, golden file and benchmark input is made of these draws; a nonzero
    # draw skips the zero (the fourth rational, the fifth quaternion) and redraws it whole
    rational = draws(lambda rng: scalar(rng, "rat", 2), 0, 8)
    assert rational == [1, 1, -2, 0, 2, 1, 1, 0]
    assert all(type(value) is Fraction for value in rational)
    assert draws(lambda rng: nonzero_scalar(rng, "rat", 2), 0, 8) == [1, 1, -2, 2, 1, 1, 1, 2]
    head = [Q(-1, 0, 0, -1), Q(-1, 1, -1, -1), Q(-1, -1, 1, -1), Q(0, 1, -1, 0)]
    assert draws(lambda rng: scalar(rng, "quat", 1), 8, 6) == [
        *head,
        Q(0),
        Q(1, -1, 0, -1),
    ]
    nonzero = [*head, Q(1, -1, 0, -1), Q(0, -1, -1, 1)]
    assert draws(lambda rng: quaternion(rng, 1), 8, 6) == nonzero
    assert draws(lambda rng: nonzero_scalar(rng, "quat", 1), 8, 6) == nonzero
    assert sorted(RINGS) == ["quat", "rat"]


def test_a_draw_that_cannot_be_made_is_refused():
    # with bound 0 every draw is zero, so each nonzero draw looped forever
    w0 = Permutation.longest(3)
    for draw in (
        lambda rng: quaternion(rng, 0),
        lambda rng: nonzero_scalar(rng, "rat", 0),
        lambda rng: nonzero_scalar(rng, "quat", 0),
        lambda rng: diagonal(rng, 3, bound=0),
        lambda rng: upper_triangular(rng, 3, bound=0),
        lambda rng: cell_point(rng, w0, w0, 0),
    ):
        with pytest.raises(ValueError, match=r"^bound must be >= 1$"):
            draw(random.Random(0))
    # a possibly-zero draw at bound 0 is zero in its own ring
    assert scalar(random.Random(0), "rat", 0) == 0 and scalar(random.Random(0), "quat", 0) == Q(0)
    # an unknown ring is refused by both draws: nonzero_scalar answered with a quaternion
    for draw in (scalar, nonzero_scalar):
        with pytest.raises(ValueError, match=r"^unknown scalar kind 'bogus'$"):
            draw(random.Random(0), "bogus")
