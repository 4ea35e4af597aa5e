import random

import pytest

from qbruhat.cells import (
    bruhat_factor,
    bruhat_factor_schubert,
    classify,
    cross_checked_twist,
    in_bruhat_cell,
    in_opposite_cell,
    in_reduced_cell,
    schubert_support,
    torus_twist,
    twist_general,
    twist_reduced,
)
from qbruhat.errors import NotGeneric, WrongCell
from qbruhat.matrix import Matrix, iota
from qbruhat.quasidet import quasiminor_uv
from qbruhat.sampling import (
    cell_point,
    diagonal,
    invertible_matrix,
    reduced_cell_point,
    upper_triangular,
    with_retries,
)
from qbruhat.scalars import is_zero
from qbruhat.weyl import Permutation, all_permutations, representative


def test_classify_identity_and_torus_translates():
    rng = random.Random(1)
    assert all(p.is_identity() for p in classify(Matrix.identity(3)))
    for u in all_permutations(3):
        h = diagonal(rng, 3)
        x = representative(u) * h
        assert classify(x) == (u, u)


def test_classify_dense_is_maximal_and_oracle_agrees():
    rng = random.Random(2)
    w0 = Permutation.longest(4)

    def body():
        x = invertible_matrix(rng, 4)
        u, v = classify(x)
        assert in_bruhat_cell(x, u)
        assert in_opposite_cell(x, v)
        return (u, v) == (w0, w0)

    hits = sum(with_retries(body) for _ in range(10))
    assert hits >= 8  # dense samples land in the open cell almost always


def test_classify_matches_rank_oracle_on_every_s3_cell():
    rng = random.Random(3)
    for u in all_permutations(3):
        for v in all_permutations(3):
            x, _, _ = reduced_cell_point(rng, u, v)
            assert classify(x) == (u, v)
            assert in_bruhat_cell(x, u)
            assert in_opposite_cell(x, v)
            for other in all_permutations(3):
                if other != u:
                    assert not in_bruhat_cell(x, other)


def test_classify_singular_raises():
    with pytest.raises(NotGeneric):
        classify(Matrix([[1, 1], [1, 1]]))


def test_bruhat_factor_reconstructs():
    rng = random.Random(4)
    for _ in range(5):
        x = invertible_matrix(rng, 4)
        b1, u, b2 = bruhat_factor(x)
        assert b1.is_upper_triangular() and b2.is_upper_triangular()
        assert b1 * representative(u) * b2 == x


def test_schubert_support():
    w0 = Permutation.longest(3)
    assert schubert_support(w0) == {(1, 2), (1, 3), (2, 3)}
    assert schubert_support(Permutation.identity(3)) == frozenset()
    assert schubert_support(Permutation((2, 1, 3))) == {(1, 2)}


def test_bruhat_factor_schubert_all_s3():
    rng = random.Random(5)
    for u in all_permutations(3):
        support = schubert_support(u)
        for _ in range(3):
            b_left = upper_triangular(rng, 3)
            b_right = upper_triangular(rng, 3)
            x = b_left * representative(u) * b_right
            n_u, b = bruhat_factor_schubert(x, u)
            assert n_u * representative(u) * b == x
            assert b.is_upper_triangular()
            assert n_u.is_unitriangular("upper")
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    if (i, j) not in support:
                        assert is_zero(n_u[i, j])


def test_bruhat_factor_schubert_wrong_claim():
    rng = random.Random(6)
    x = representative(Permutation.longest(3)) * diagonal(rng, 3)
    with pytest.raises(WrongCell):
        bruhat_factor_schubert(x, Permutation.identity(3))


def test_iota_swaps_to_inverse_permutations():
    rng = random.Random(7)
    for u in all_permutations(3):
        for v in all_permutations(3):
            x, _, _ = reduced_cell_point(rng, u, v)
            assert classify(iota(x)) == (u.inverse(), v.inverse())


def test_in_reduced_cell():
    rng = random.Random(8)
    e = Permutation.identity(3)
    assert in_reduced_cell(Matrix.identity(3), e, e)
    u, v = Permutation((3, 1, 2)), Permutation((2, 3, 1))
    x, _, _ = reduced_cell_point(rng, u, v)
    assert in_reduced_cell(x, u, v)
    h = diagonal(rng, 3)
    if h != Matrix.identity(3):
        assert not in_reduced_cell(h * x, u, v)
    with pytest.raises(WrongCell):
        in_reduced_cell(x, v, u) if (u, v) != (v, u) else None


def test_in_reduced_cell_is_quasiminor_normalization():
    rng = random.Random(9)
    u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    x, _, _ = reduced_cell_point(rng, u, v)
    e = Permutation.identity(3)
    for i in (1, 2, 3):
        assert quasiminor_uv(x, u, e, i) == 1


def test_twist_identity_cell():
    e = Permutation.identity(3)
    assert twist_reduced(Matrix.identity(3), e, e) == Matrix.identity(3)


def test_twist_e_v_is_lower_projection_formula():
    from qbruhat.gauss import gauss_parts
    from qbruhat.matrix import iota as iota_m

    rng = random.Random(10)
    e = Permutation.identity(3)
    for v in all_permutations(3):
        x, _, _ = reduced_cell_point(rng, e, v)
        lower, _, _ = gauss_parts(x * representative(v.inverse()))
        assert twist_reduced(x, e, v) == iota_m(lower)


def test_twist_involution_sample():
    rng = random.Random(11)
    for u in all_permutations(3):
        for v in all_permutations(3):
            x, _, _ = reduced_cell_point(rng, u, v)
            y = twist_reduced(x, u, v)
            assert in_reduced_cell(y, v, u)
            assert twist_reduced(y, v, u) == x


def test_twist_wrong_cell():
    rng = random.Random(12)
    u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    x, _, _ = reduced_cell_point(rng, u, v)
    with pytest.raises(WrongCell):
        twist_reduced(x, v, u)
    h = Matrix.diagonal([2, 3, 5])
    with pytest.raises(WrongCell):
        twist_reduced(h * x, u, v)  # right cell, broken normalization


def test_twist_general_equivariance_and_formulas():
    rng = random.Random(13)
    for _ in range(6):
        u = rng.choice(all_permutations(3))
        v = rng.choice(all_permutations(3))
        x, _, _ = reduced_cell_point(rng, u, v)
        h = diagonal(rng, 3)
        y = twist_reduced(x, u, v)
        g = h * x
        assert cross_checked_twist(g, u, v) == h * y


def test_twist_general_involution_on_equal_pair():
    rng = random.Random(14)
    for v in all_permutations(3):
        g, _, _, _ = cell_point(rng, v, v)
        y = twist_general(g, v, v)
        assert twist_general(y, v, v) == g


def test_torus_twist_permutes_diagonal():
    rng = random.Random(15)
    h = diagonal(rng, 4)
    for u in (Permutation((2, 3, 4, 1)), Permutation((4, 3, 2, 1))):
        out = torus_twist(u, h)
        assert out.is_diagonal()
        uinv = u.inverse()
        for i in range(1, 5):
            assert out[i, i] == h[uinv(i), uinv(i)]


def test_twist_projection_failure_is_not_generic():
    # the signed longest representative is outside the Gauss cell, so the
    # lower projection in the twist must fail loudly when checks are off
    w0 = Permutation.longest(3)
    x = representative(w0)
    with pytest.raises(NotGeneric):
        twist_reduced(x, w0, Permutation.identity(3), check=False)
