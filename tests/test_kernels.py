"""The matrix kernels against the dense routes they replace.

Every structured helper must equal, entry for entry and exactly, the dense
product with the elementary, signed permutation or diagonal matrix built by
the public constructors.  The Gauss-Jordan kernel behind the inverse, rank
and quasideterminants must agree with the textbook definitions, and the
row-only Bruhat reduction must factor x = b1 * ubar * b2.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbruhat.cells import bruhat_factor, classify, torus_twist
from qbruhat.errors import NotGeneric
from qbruhat.factorize import letter_matrix
from qbruhat.gauss import ldu_elimination
from qbruhat.matrix import Matrix, rank
from qbruhat.quasidet import quasideterminant
from qbruhat.scalars import RationalQuaternion as Q
from qbruhat.weyl import (
    Permutation,
    all_permutations,
    left_by_representative,
    reduced_words,
    representative,
    right_by_representative,
    simple_representative,
)

small = st.integers(-3, 3)
quaternions = st.builds(Q, small, small, small, small)
nonzero_quaternions = quaternions.filter(lambda q: not q.is_zero())


@st.composite
def square_matrices(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    return Matrix([[draw(quaternions) for _ in range(n)] for _ in range(n)])


@st.composite
def permutations(draw, n):
    return Permutation(draw(st.permutations(range(1, n + 1))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_letter_action_equals_dense_letter_product(data):
    x = data.draw(square_matrices())
    n = x.rows
    letter = data.draw(st.integers(1, n - 1)) * data.draw(st.sampled_from((1, -1)))
    t = data.draw(nonzero_quaternions)
    assert x._right_letter(letter, t) == x * letter_matrix(letter, t, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signed_permutations_equal_dense_representative_products(data):
    x = data.draw(square_matrices())
    w = data.draw(permutations(x.rows))
    rep = representative(w)
    rep_inv = rep.inverse()
    assert left_by_representative(w, x) == rep * x
    assert left_by_representative(w, x, inverse=True) == rep_inv * x
    assert right_by_representative(x, w) == x * rep
    assert right_by_representative(x, w, inverse=True) == x * rep_inv


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diagonal_scalings_equal_dense_diagonal_products(data):
    x = data.draw(square_matrices())
    d = [data.draw(nonzero_quaternions) for _ in range(x.rows)]
    assert x._scale_rows(d) == Matrix.diagonal(d) * x
    assert x._scale_cols(d) == x * Matrix.diagonal(d)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_torus_twist_equals_dense_conjugation(data):
    n = data.draw(st.integers(2, 6))
    h = Matrix.diagonal([data.draw(nonzero_quaternions) for _ in range(n)])
    u = data.draw(permutations(n))
    ubar = representative(u)
    assert torus_twist(u, h) == ubar * h * ubar.inverse()


@settings(max_examples=40, deadline=None)
@given(square_matrices(max_n=4))
def test_gauss_lower_part_equals_dense_lower_times_diag(x):
    try:
        triple = ldu_elimination(x)
    except NotGeneric:
        return
    assert triple.lower_part() == triple.lower * triple.diag


def test_closed_form_representative_equals_every_reduced_word_product():
    for w in all_permutations(4):
        closed = representative(w)
        support = {(i, j) for i, j in itertools.product(range(1, 5), repeat=2) if closed[i, j] != 0}
        assert support == {(w(j), j) for j in range(1, 5)}
        assert all(closed[w(j), j] in (1, -1) for j in range(1, 5))
        for word in reduced_words(w):
            acc = Matrix.identity(4)
            for i in word:
                acc = acc * simple_representative(i, 4)
            assert acc == closed


def definition_route(A, p, q):
    """a_pq - r_p (A^pq)^{-1} c_q with the dense inverse and dense products."""
    n = A.rows
    if n == 1:
        return A[p, q]
    row = Matrix([[A[p, c] for c in range(1, n + 1) if c != q]])
    col = Matrix([[A[r, q]] for r in range(1, n + 1) if r != p])
    return A[p, q] - (row * A.delete(p, q).inverse() * col)[1, 1]


def marks(data, n):
    return data.draw(st.integers(1, n)), data.draw(st.integers(1, n))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quasideterminant_equals_definition_route(data):
    A = data.draw(square_matrices(min_n=1))
    p, q = marks(data, A.rows)
    try:
        expected = definition_route(A, p, q)
    except NotGeneric:
        with pytest.raises(NotGeneric) as info:
            quasideterminant(A, p, q)
        assert info.value.witness == ("inner", p, q)
        return
    assert quasideterminant(A, p, q) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quasideterminant_with_singular_inner_block(data):
    A = data.draw(square_matrices(min_n=3))
    n = A.rows
    p, q = marks(data, n)
    src, dst = data.draw(st.permutations([r for r in range(1, n + 1) if r != p]))[:2]
    lam = data.draw(nonzero_quaternions)
    rows = A.to_lists()
    rows[dst - 1] = [lam * a for a in rows[src - 1]]
    A = Matrix(rows)
    with pytest.raises(NotGeneric):
        definition_route(A, p, q)
    with pytest.raises(NotGeneric) as info:
        quasideterminant(A, p, q)
    assert info.value.witness == ("inner", p, q)


def column_prefix(x, k):
    return Matrix([row[:k] for row in x.to_lists()])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_deficient_inverse_names_first_column_without_pivot(data):
    x = data.draw(square_matrices())
    n = x.rows
    dep = data.draw(st.integers(1, n))
    coeffs = {r: data.draw(quaternions) for r in range(1, n + 1) if r != dep}
    rows = x.to_lists()
    rows[dep - 1] = [
        sum((coeffs[r] * x[r, c] for r in coeffs), Q(0)) for c in range(1, n + 1)
    ]
    x = Matrix(rows)
    assert rank(x) < n
    # the first column that is a right combination of the columns before it
    k = next(k for k in range(1, n + 1) if rank(column_prefix(x, k)) < k)
    with pytest.raises(NotGeneric) as info:
        x.inverse()
    assert info.value.witness == ("pivot", k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dependent_column_is_the_inverse_witness(data):
    x = data.draw(square_matrices())
    n = x.rows
    k = data.draw(st.integers(1, n))
    assume(k == 1 or rank(column_prefix(x, k - 1)) == k - 1)
    coeffs = [data.draw(quaternions) for _ in range(k - 1)]
    rows = [
        row[: k - 1] + [sum((a * m for a, m in zip(row, coeffs)), Q(0))] + row[k:]
        for row in x.to_lists()
    ]
    with pytest.raises(NotGeneric) as info:
        Matrix(rows).inverse()
    assert info.value.witness == ("pivot", k)


@settings(max_examples=60, deadline=None)
@given(square_matrices(min_n=1))
def test_inverse_is_two_sided(x):
    assume(rank(x) == x.rows)
    y = x.inverse()
    assert (x * y).is_identity()
    assert (y * x).is_identity()


@st.composite
def upper_triangulars(draw, n):
    def entry(i, j):
        return draw(nonzero_quaternions) if i == j else draw(quaternions) if j > i else 0

    return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_bruhat_factor_on_every_cell_of_s4(data):
    for u in all_permutations(4):
        b, b_right = data.draw(upper_triangulars(4)), data.draw(upper_triangulars(4))
        x = b * representative(u) * b_right
        b1, found, b2 = bruhat_factor(x)
        assert b1.is_unitriangular()
        assert b2.is_upper_triangular()
        assert b1 * representative(found) * b2 == x
        assert found == u == classify(x).u
