import json
import random
from fractions import Fraction

import pytest
import sympy

from qbruhat.cells import classify
from qbruhat.errors import IndexOutOfRange, NotGeneric, ShapeMismatch
from qbruhat.factorize import solve_standard_unipotent, upper_factorize
from qbruhat.gauss import gauss_parts, ldu
from qbruhat.matrix import (
    Matrix,
    interval,
    iota,
    iota_inverse_free,
    matrix_from_json,
    matrix_to_json,
    rank,
    sigma,
)
from qbruhat.quasidet import (
    boxed_quasiminor,
    quasideterminant,
    quasidet_expansion,
    sylvester_reduce,
)
from qbruhat.sampling import invertible_matrix, matrix as sample_matrix
from qbruhat.scalars import RationalQuaternion as Q, inv


def test_submatrix_examples():
    x = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert x.submatrix((1, 2), (2, 3)) == Matrix([[2, 3], [5, 6]])
    assert x.submatrix(interval(1, 3), interval(1, 3)) == x
    eye4 = Matrix.identity(4)
    assert eye4.submatrix((2,), (3,)) == Matrix([[0]])


def test_submatrix_composes():
    rng = random.Random(2)
    x = sample_matrix(rng, 5, 5)
    outer_rows, outer_cols = (1, 3, 4), (2, 3, 5)
    inner_rows, inner_cols = (1, 3), (2, 3)
    direct = x.submatrix(
        tuple(outer_rows[i - 1] for i in inner_rows),
        tuple(outer_cols[j - 1] for j in inner_cols),
    )
    assert x.submatrix(outer_rows, outer_cols).submatrix(inner_rows, inner_cols) == direct


def test_submatrix_validation():
    x = Matrix([[1, 2], [3, 4]])
    with pytest.raises(IndexOutOfRange):
        x.submatrix((1, 3), (1,))
    with pytest.raises(IndexOutOfRange):
        x.submatrix((2, 1), (1,))
    with pytest.raises(IndexOutOfRange):
        x[3, 1]


def test_matrix_units_multiply():
    e12 = Matrix.unit(3, 1, 2)
    e23 = Matrix.unit(3, 2, 3)
    assert e12 * e23 == Matrix.unit(3, 1, 3)
    assert e23 * e12 == Matrix.zeros(3)
    x = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) * x == x


def test_quaternion_matrices_do_not_commute():
    rng = random.Random(5)
    for _ in range(50):
        x = sample_matrix(rng, 2, 2)
        y = sample_matrix(rng, 2, 2)
        if x * y != y * x:
            return
    pytest.fail("no noncommuting 2x2 pair found")


def test_inverse_examples():
    assert Matrix.identity(3).inverse() == Matrix.identity(3)
    rng = random.Random(7)
    qs = [Q(1, 1), Q(2, 0, 1), Q(0, 0, 0, 3)]
    d = Matrix.diagonal(qs)
    assert d.inverse() == Matrix.diagonal([inv(q) for q in qs])
    x = invertible_matrix(rng, 4)
    assert x.inverse() * x == Matrix.identity(4)
    assert x * x.inverse() == Matrix.identity(4)


def test_inverse_singular_names_pivot():
    singular = Matrix([[1, 2], [2, 4]])
    with pytest.raises(NotGeneric) as info:
        singular.inverse()
    assert info.value.witness == ("pivot", 2)
    with pytest.raises(ShapeMismatch):
        Matrix([[1, 2]]).inverse()


def test_inexact_entries_are_refused():
    # a float or complex entry would make every later result inexact
    for entry in (0.5, 1.0, 1j, True):
        with pytest.raises(TypeError):
            Matrix([[entry, 1], [1, 1]])
    a = sympy.Symbol("a")
    x = Matrix([[sympy.Rational(1, 2), a], [0, 1]])
    assert x.inverse() == Matrix([[2, -2 * a], [0, 1]])


def test_matrices_are_unhashable():
    # equality goes through is_zero(a - b), which no hash of the entries follows
    with pytest.raises(TypeError):
        hash(Matrix.identity(2))


def test_inverse_entries_are_inverted_quasideterminants():
    rng = random.Random(11)
    x = invertible_matrix(rng, 3)
    b = x.inverse()
    for i in range(1, 4):
        for j in range(1, 4):
            entry = b[i, j]
            if entry != Q(0):
                assert inv(entry) == quasideterminant(x, j, i)


def test_sigma():
    rng = random.Random(3)
    x = sample_matrix(rng, 4, 4)
    assert sigma(sigma(x)) == x
    assert sigma(Matrix.identity(4)) == Matrix.identity(4)
    assert sigma(Matrix.unit(3, 1, 2)) == Matrix.unit(3, 3, 2)


def test_iota_on_diagonal_and_generators():
    qs = [Q(1, 1), Q(2, 0, 1), Q(1, 1, 1, 1)]
    h = Matrix.diagonal(qs)
    assert iota(h) == Matrix.diagonal([inv(q) for q in qs])
    t = Q(2, -1, 3)
    x1 = Matrix.identity(3) + Matrix.unit(3, 1, 2, t)
    y2 = Matrix.identity(3) + Matrix.unit(3, 3, 2, t)
    assert iota(x1) == x1
    assert iota(y2) == y2


def test_iota_involution_and_antiautomorphism():
    rng = random.Random(19)
    x = invertible_matrix(rng, 3)
    y = invertible_matrix(rng, 3)
    assert iota(iota(x)) == x
    assert iota(x * y) == iota(y) * iota(x)
    assert iota_inverse_free(x) == iota(x).inverse()


def test_rank():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix([[0, 0], [0, 0]])) == 0
    assert rank(Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2
    rng = random.Random(23)
    tall = sample_matrix(rng, 4, 2)
    assert rank(tall) <= 2


def test_json_round_trip_rational():
    x = Matrix([[Fraction(1, 2), 3], [-4, Fraction(0)]])
    payload = matrix_to_json(x)
    assert payload == {"n": 2, "m": 2, "entries": [["1/2", "3"], ["-4", "0"]]}
    assert matrix_from_json(json.loads(json.dumps(payload))) == x


def test_json_round_trip_quaternion_bit_exact():
    rng = random.Random(31)
    x = sample_matrix(rng, 3, 2)
    payload = matrix_to_json(x)
    again = matrix_from_json(payload)
    assert again == x
    assert matrix_to_json(again) == payload
    assert all(isinstance(e, Q) for row in again.to_lists() for e in row)


def test_json_mixed_entries_promote_to_quaternion():
    payload = {"n": 1, "m": 2, "entries": [["1/2", "1+1*i+0*j+0*k"]]}
    x = matrix_from_json(payload)
    assert isinstance(x[1, 1], Q)
    assert x[1, 1] == Q(Fraction(1, 2))


def test_json_errors():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [["1"]]})
    with pytest.raises(ShapeMismatch):
        matrix_from_json({"n": 2, "m": 1, "entries": [["1"]]})


def test_arithmetic_shape_errors():
    a = Matrix([[1, 2]])
    b = Matrix([[1], [2]])
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        a * a
    assert (a * b)[1, 1] == 5
    assert (-a + a) == Matrix.zeros(1, 2)


def test_a_non_square_matrix_is_a_shape_mismatch_everywhere():
    # quasideterminant and sylvester_reduce raised IndexOutOfRange for it, with these messages
    x = Matrix([[1, 2, 3], [4, 5, 6]])
    y = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    reads = [
        (lambda: quasideterminant(x, 1, 1), "quasideterminant needs a square matrix, got 2x3"),
        # quasidet_expansion returned A[1, 1] for a 1x3 A and named its inner block's shape
        # for a 2x3 A
        (
            lambda: quasidet_expansion(Matrix([[1, 2, 3]]), 1, 1),
            "quasidet_expansion needs a square matrix, got 1x3",
        ),
        (lambda: quasidet_expansion(x, 1, 1), "quasidet_expansion needs a square matrix, got 2x3"),
        # a box of a square matrix is read in place, and must be square itself
        (
            lambda: boxed_quasiminor(y, (1, 2), (1, 2, 3), 1, 1),
            "quasideterminant needs a square matrix, got 2x3",
        ),
        (
            lambda: boxed_quasiminor(y, (1, 2, 3), (1, 2), 3, 2),
            "quasideterminant needs a square matrix, got 3x2",
        ),
        (
            lambda: boxed_quasiminor(y, (2,), (1, 3), 2, 3),
            "quasideterminant needs a square matrix, got 1x2",
        ),
        (lambda: sylvester_reduce(x, (1,), (1,)), "sylvester_reduce needs a square matrix"),
        (lambda: gauss_parts(x), "gauss_parts needs a square matrix, got 2x3"),
        (lambda: ldu(x), "ldu needs a square matrix, got 2x3"),
        (lambda: classify(x), "classification needs a square matrix"),
        (lambda: upper_factorize(x), "upper_factorize needs a square matrix"),
        (lambda: solve_standard_unipotent(x), "solve_standard_unipotent needs a square matrix"),
        (lambda: sigma(x), "sigma needs a square matrix"),
    ]
    for read, message in reads:
        with pytest.raises(ShapeMismatch) as info:
            read()
        assert str(info.value) == message
