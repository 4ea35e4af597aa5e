"""The reduced norm as an oracle: three consequences of Nrd(x)^2 = det(real_form(x)).

Nrd is multiplicative and sees every quaternion product a kernel makes, so each
check below compares a value the package computes with a commutative determinant
that shares no code with it (``oracles.norm_det``).
"""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import norm_det
from qbruhat.factorize import recover_params
from qbruhat.gauss import gauss_parts
from qbruhat.matrix import Matrix
from qbruhat.quasidet import MinorCache, MinorSpec
from qbruhat.sampling import cell_point, invertible_matrix, matrix as sample_matrix
from qbruhat.sampling import random_permutation, with_retries
from qbruhat.scalars import RationalQuaternion as Q
from qbruhat.weyl import random_double_word


def scalar_norm_det(q):
    return norm_det(Matrix([[q]]))


def product(values):
    out = Fraction(1)
    for value in values:
        out *= value
    return out


def test_the_norm_of_a_scalar_is_the_square_of_its_sum_of_squares():
    for q in (Q(1), Q(0, 1), Q(1, -2, 0, 3), Q(Fraction(1, 2), 0, 2, -1)):
        assert scalar_norm_det(q) == sum(c * c for c in q.components()) ** 2
    assert scalar_norm_det(Q(0)) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_the_norm_is_the_product_over_the_gauss_diagonal(n):
    # x = L D U with L and U unitriangular, so Nrd(x) = prod Nrd(d_k)
    rng = random.Random(13 + n)

    def draw():
        x = invertible_matrix(rng, n)
        return x, gauss_parts(x)[1]

    for _ in range(10):
        x, diag = with_retries(draw)
        assert norm_det(x) == product(scalar_norm_det(diag[k, k]) for k in range(1, n + 1))


@pytest.mark.parametrize("n", [3, 4])
def test_the_norm_is_the_product_over_a_recovered_torus(n):
    # every letter x_i(t), x_-i(t) has norm 1, so along any word of (u, v) Nrd(x) = prod Nrd(h_k)
    rng = random.Random(17 + n)

    def recovered():
        u, v = random_permutation(rng, n), random_permutation(rng, n)
        x, _, h, _ = cell_point(rng, u, v)
        return x, h, recover_params(x, random_double_word(u, v, rng)).h

    for _ in range(10):
        x, h, torus = with_retries(recovered)
        assert list(torus) == h
        assert norm_det(x) == product(scalar_norm_det(a) for a in torus)


def test_each_quasiminor_is_a_ratio_of_norms():
    # Nrd(|x_IJ|_ij)^2 det(x[I - i, J - j]) = det(x[I, J]) by the Schur complement, on
    # every (I, J) of a 4x4 matrix (69 of them) with one random mark each
    rng = random.Random(23)
    n = 4
    blocks = [
        (I, J)
        for k in range(1, n + 1)
        for I, J in itertools.product(itertools.combinations(range(1, n + 1), k), repeat=2)
    ]
    for _ in range(5):
        x = sample_matrix(rng, n, n)
        cache = MinorCache(x)
        det = {(I, J): norm_det(x.submatrix(I, J)) for I, J in blocks}
        det[(), ()] = 1
        for I, J in blocks:
            i, j = rng.choice(I), rng.choice(J)
            inner = det[tuple(r for r in I if r != i), tuple(c for c in J if c != j)]
            assert scalar_norm_det(cache.spec(MinorSpec(I, J, i, j))) * inner == det[I, J]
