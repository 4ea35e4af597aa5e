import random

import pytest

from qbruhat import gauss
from qbruhat.cells import bruhat_factor
from qbruhat.errors import NotGeneric, NotInGaussCell, ShapeMismatch
from qbruhat.gauss import GaussTriple, gauss_parts, ldu, ldu_elimination
from qbruhat.matrix import Matrix
from qbruhat.quasidet import principal_quasiminor, quasideterminant
from qbruhat.sampling import (
    diagonal,
    invertible_matrix,
    matrix as sample_matrix,
    upper_unitriangular,
    with_retries,
)
from qbruhat.scalars import RationalQuaternion as Q
from qbruhat.scalars import inv


def test_identity_factors_trivially():
    triple = ldu(Matrix.identity(3))
    assert triple.lower == triple.diag == triple.upper == Matrix.identity(3)


def test_n2_closed_form_over_quaternions():
    rng = random.Random(1)

    def body():
        a = sample_matrix(rng, 2, 2)
        triple = ldu(a)
        assert triple.lower == Matrix([[1, 0], [a[2, 1] * inv(a[1, 1]), 1]])
        assert triple.diag == Matrix.diagonal([a[1, 1], quasideterminant(a, 2, 2)])
        assert triple.upper == Matrix([[1, inv(a[1, 1]) * a[1, 2]], [0, 1]])
        assert triple.product() == a
        return 1

    with_retries(body)


def test_reconstruction_and_agreement_random():
    rng = random.Random(2)
    for n in (3, 4, 5):
        def body():
            a = sample_matrix(rng, n, n)
            closed = ldu(a)
            elim = ldu_elimination(a)
            assert closed.lower == elim.lower
            assert closed.diag == elim.diag
            assert closed.upper == elim.upper
            assert closed.product() == a
            return 1

        with_retries(body)


def test_ldu_elimination_inverts_each_pivot_once(monkeypatch):
    # D^-1 comes from the elimination that found D, as for gauss_parts
    calls = []
    monkeypatch.setattr(gauss, "inv", lambda a: calls.append(a) or inv(a))
    x = Matrix([[4, 1, 2, 0], [2, 3, 1, 1], [0, 1, 5, 2], [1, 0, 2, 6]])
    for decompose in (gauss_parts, ldu_elimination):
        calls.clear()
        decompose(x)
        assert len(calls) == 4


def test_not_generic_names_level():
    bad = Matrix([[0, 1], [1, 0]])
    with pytest.raises(NotGeneric) as info:
        ldu(bad)
    assert info.value.witness == ("principal", 1)
    with pytest.raises(NotGeneric) as info:
        ldu_elimination(bad)
    assert info.value.witness == ("pivot", 1)
    # second pivot failure: leading entry fine, 2x2 quasiminor zero
    bad2 = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    with pytest.raises(NotGeneric) as info:
        ldu(bad2)
    assert info.value.witness == ("principal", 2)


def test_gauss_parts_examples():
    rng = random.Random(3)
    h = diagonal(rng, 3)
    low, mid, up = gauss_parts(h)
    assert low == h and mid == h and up == Matrix.identity(3)
    u = upper_unitriangular(rng, 3)
    low, mid, up = gauss_parts(u)
    assert low == Matrix.identity(3) and mid == Matrix.identity(3) and up == u

    x = invertible_matrix(rng, 4)

    def body():
        low, mid, up = gauss_parts(x)
        assert low * up == x
        assert low.is_lower_triangular()
        assert up.is_unitriangular("upper")
        assert gauss_parts(low)[1] == mid
        return 1

    with_retries(lambda: body() if _in_cell(x) else 1)


def _in_cell(x):
    try:
        gauss_parts(x)
        return True
    except NotInGaussCell:
        return False


def test_cleared_entries_keep_their_own_type():
    # a matrix may mix rationals and quaternions; the zero left where the row reduction
    # clears an entry has that entry's type, not the pivot's
    x = Matrix([[Q(1, 1), 1], [1, Q(2)]])
    plus = "Matrix[2x2](1+0*i+0*j+0*k 1/2-1/2*i+0*j+0*k; 0 1+0*i+0*j+0*k)"
    assert repr(gauss_parts(x)[2]) == plus
    assert repr(gauss.lower_solve(x, Matrix.identity(2))[0]) == plus
    # the Bruhat rule clears the quaternion 1+i by the rational pivot 1 below it
    assert repr(bruhat_factor(x)[2]) == "Matrix[2x2](1 2+0*i+0*j+0*k; 0+0*i+0*j+0*k 1+2*i+0*j+0*k)"
    y = Matrix([[1, Q(1, 1)], [Q(2), 1]])
    assert repr(bruhat_factor(y)[2]) == "Matrix[2x2](2+0*i+0*j+0*k 1; 0 -1/2-1*i+0*j+0*k)"


def test_gauss_parts_outside_cell():
    with pytest.raises(NotInGaussCell):
        gauss_parts(Matrix([[0, 1], [1, 0]]))
    # the refusal names the function that was called
    with pytest.raises(ShapeMismatch, match="^gauss_parts needs a square matrix, got 1x2$"):
        gauss_parts(Matrix([[1, 2]]))
    with pytest.raises(ShapeMismatch, match="^ldu needs a square matrix, got 1x2$"):
        ldu(Matrix([[1, 2]]))


def test_diagonal_part_is_principal_quasiminors():
    rng = random.Random(4)

    def body():
        x = sample_matrix(rng, 4, 4)
        _, mid, _ = gauss_parts(x)
        for i in (1, 2, 3, 4):
            assert principal_quasiminor(x, i) == mid[i, i]
        return 1

    with_retries(body)


def test_principal_quasiminors_invariant_under_unitriangular_sandwich():
    rng = random.Random(5)

    def body():
        x = sample_matrix(rng, 4, 4)
        x_minus = upper_unitriangular(rng, 4).transpose()
        x_plus = upper_unitriangular(rng, 4)
        sandwich = x_minus * x * x_plus
        for i in (1, 2, 3, 4):
            assert principal_quasiminor(sandwich, i) == principal_quasiminor(x, i)
        return 1

    with_retries(body)


def test_triple_shape_validation():
    with pytest.raises(Exception):
        GaussTriple(Matrix([[1, 1], [0, 1]]), Matrix.identity(2), Matrix.identity(2))
