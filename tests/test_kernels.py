"""The matrix kernels against the dense routes they replace.

Every structured helper must equal, entry for entry and exactly, the dense
product with the elementary, signed permutation or diagonal matrix built by
the public constructors.  The Schur-complement kernel behind the inverse,
rank and quasideterminants must agree with the textbook definitions and
with rank oracles that do not run it (sympy, the real form), the
Gauss-cell elimination behind the projections and the left division by
[a]_- with the closed-form LDU and the dense inverse, the row-only Bruhat
reduction must factor x = b1 * ubar * b2,
the inverse-free twist must agree with the paper's forms, and the one
torus of [ubar^-1 x]_0 must equal the level quasiminors at (u, e).  The
kernels that skip exact-zero terms must equal their dense definitions on
sparse matrices, in value and in each entry's type.
"""

import contextlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import OppositeScalar, counted_products, counted_sums, rational_rank, real_form
from qbruhat import cells, factorize, gauss
from qbruhat.cells import (
    bruhat_factor,
    classify,
    cross_checked_twist,
    in_reduced_cell,
    twist_general,
    twist_reduced,
)
from qbruhat.errors import NotGeneric, NotInGaussCell, WrongCell
from qbruhat.factorize import (
    Generator,
    _apply_negative_blocks,
    _divide_negative_blocks,
    factor_u_w0,
    factor_w0_v,
    generator_matrix,
    product_map,
    recover_params,
    upper_pairs,
)
from qbruhat.gauss import gauss_parts, ldu, ldu_elimination, lower_solve
from qbruhat.matrix import Matrix, _schur_chain, interval, matrix_from_json, rank
from qbruhat.quasidet import (
    MinorCache,
    MinorSpec,
    boxed_quasiminor,
    positive_quasiminor,
    quasideterminant,
    quasiminor_uv,
    sylvester_reduce,
)
from qbruhat.sampling import (
    cell_point,
    matrix as sample_matrix,
    nonzero_scalar,
    reduced_cell_point,
)
from qbruhat.scalars import RationalQuaternion as Q, inv, is_zero
from qbruhat.verify import check_dodgson_grid
from qbruhat.weyl import (
    DoubleWord,
    Permutation,
    all_permutations,
    left_by_representative,
    random_double_word,
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
    kind = "x" if letter > 0 else "xneg"
    assert x._right_letter(letter, t) == x * generator_matrix(Generator(kind, abs(letter), t), n)


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
    assert Matrix.diagonal(cells._torus_entries(u, h)) == ubar * h * ubar.inverse()


@settings(max_examples=40, deadline=None)
@given(square_matrices(max_n=4))
def test_gauss_lower_part_equals_dense_lower_times_diag(x):
    # the closed form reads quasi-Plucker coordinates, not the elimination
    try:
        triple = ldu(x)
    except NotGeneric:
        with pytest.raises(NotInGaussCell):
            gauss_parts(x)
        return
    assert gauss_parts(x)[0] == triple.lower * triple.diag


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


def checked_inverse(x):
    """x.inverse(), first checked to be a two-sided inverse by dense products.

    ``Matrix.inverse`` runs the kernel the quasideterminant oracles check, so
    they rest on the dense products alone.
    """
    y = x.inverse()
    assert (x * y).is_identity() and (y * x).is_identity()
    return y


def definition_route(A, p, q):
    """a_pq - r_p (A^pq)^{-1} c_q with a checked inverse and dense products."""
    n = A.rows
    if n == 1:
        return A[p, q]
    row = Matrix([[A[p, c] for c in range(1, n + 1) if c != q]])
    col = Matrix([[A[r, q]] for r in range(1, n + 1) if r != p])
    return A[p, q] - (row * checked_inverse(A.delete(p, q)) * col)[1, 1]


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


@st.composite
def dependent_matrices(draw, scalars, max_n=5, square=False):
    """An n x m matrix; some rows left, some columns right combinations of earlier ones."""
    n = draw(st.integers(1, max_n))
    m = n if square else draw(st.integers(1, max_n))
    rows = [[draw(scalars) for _ in range(m)] for _ in range(n)]
    zero = rows[0][0] - rows[0][0]
    for r in range(1, n):
        if draw(st.booleans()):
            coeffs = [draw(scalars) for _ in range(r)]
            rows[r] = [sum((c * row[j] for c, row in zip(coeffs, rows)), zero) for j in range(m)]
    for j in range(1, m):
        if draw(st.booleans()):
            coeffs = [draw(scalars) for _ in range(j)]
            for row in rows:
                row[j] = sum((a * c for a, c in zip(row, coeffs)), zero)
    return Matrix(rows)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(dependent_matrices(rationals))
def test_rank_of_rational_matrices_equals_sympy(x):
    assert rank(x) == rational_rank(x.to_lists())


@settings(max_examples=40, deadline=None)
@given(dependent_matrices(quaternions, max_n=4))
def test_quaternion_row_rank_equals_column_rank_and_the_real_form(x):
    r = rank(x)
    # the left row rank of x is the left row rank of its transpose over H^op
    assert r == rank(x.transpose().map(OppositeScalar))
    assert 4 * r == rational_rank(real_form(x))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_witness_is_the_first_column_dependent_in_the_real_form(data):
    x = data.draw(dependent_matrices(quaternions, max_n=4, square=True))
    dependent = (
        k
        for k in range(1, x.rows + 1)
        if rational_rank(real_form(column_prefix(x, k))) < 4 * k
    )
    k = next(dependent, None)
    if k is None:
        assert (x * x.inverse()).is_identity()
    else:
        with pytest.raises(NotGeneric) as info:
            x.inverse()
        assert info.value.witness == ("pivot", k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_schur_chain_pivots_the_rank_profile_and_holds_the_schur_complement(data):
    x = data.draw(dependent_matrices(quaternions))
    # leave a column outside the block when there is one to leave
    k = data.draw(st.integers(1, max(1, min(x.rows, x.cols - 1))))
    I, J = index_sets(data, x.rows, k), index_sets(data, x.cols, k)
    if data.draw(st.booleans()):
        # the block's first row pivots past its first column, the next row on it
        rows = x.to_lists()
        rows[I[0] - 1][J[0] - 1] = Q(0)
        x = Matrix(rows)
    pivots, block = _schur_chain(x._e, I, J)
    # column c of J is in the profile when it raises the rank of the columns before it
    ranks = [0] + [rational_rank(real_form(x.submatrix(I, J[:t]))) // 4 for t in interval(1, k)]
    assert pivots == tuple(c for t, c in enumerate(J) if ranks[t + 1] > ranks[t])
    if len(pivots) < k:
        return
    inner = checked_inverse(x.submatrix(I, J))
    for r in (r for r in interval(1, x.rows) if r not in I):
        for q in (q for q in interval(1, x.cols) if q not in J):
            dense = x.submatrix((r,), J) * inner * x.submatrix(I, (q,))
            assert block.entry(r, q) == x[r, q] - dense[1, 1]


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lower_solve_divides_by_the_lower_gauss_projection(data):
    a = data.draw(square_matrices(min_n=1))
    n = a.rows
    width = data.draw(st.integers(1, 6))
    b = Matrix([[data.draw(quaternions) for _ in range(width)] for _ in range(n)])
    if n > 1 and data.draw(st.booleans()):
        # an invertible a whose leading k x k block is singular: within its
        # first k rows, column k is a right combination of the columns before it
        k = data.draw(st.integers(1, n - 1))
        coeffs = [data.draw(quaternions) for _ in range(k - 1)]
        rows = a.to_lists()
        for row in rows[:k]:
            row[k - 1] = sum((m * c for m, c in zip(row, coeffs)), Q(0))
        a = Matrix(rows)
        assume(rank(a) == n)
    # pivot k is zero exactly when the leading k x k block is the first singular one
    singular = (k for k in range(1, n + 1) if rank(a.submatrix(interval(1, k), interval(1, k))) < k)
    first = next(singular, None)
    if first is None:
        low, _, up = gauss_parts(a)
        plus, solved = lower_solve(a, b)
        assert low * solved == b
        assert plus == up
    else:
        for divide in (gauss_parts, lambda m: lower_solve(m, b)):
            with pytest.raises(NotInGaussCell) as info:
                divide(a)
            assert info.value.witness == ("pivot", first)
    lower = data.draw(upper_triangulars(n)).transpose()
    assert lower_solve(lower, b)[1] == lower.inverse() * b


def negative_prefix(h, tau):
    """diag(h) * Xneg^(n-1) ... Xneg^(1) as the product map of the block word."""
    n = len(h)
    blocks = upper_pairs(n)[::-1]
    word = DoubleWord(n, tuple(-k for _, k in blocks))
    return product_map(word, [tau[block] for block in blocks], h)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_negative_blocks_on_rows_equal_the_dense_prefix(data):
    # quaternion, Fraction or mixed torus, parameters and x; the row operations
    # must equal the division by, and the product with, the block word's product map
    n = data.draw(st.integers(2, 6))
    scalars = data.draw(st.sampled_from([quaternions, rationals, quaternions | rationals]))
    nonzero = scalars.filter(lambda a: not is_zero(a))
    h = [data.draw(nonzero) for _ in range(n)]
    tau = {block: data.draw(nonzero) for block in upper_pairs(n)}
    x = Matrix([[data.draw(scalars) for _ in range(n)] for _ in range(n)])
    prefix = negative_prefix(h, tau)
    divided = _divide_negative_blocks(h, tau, x)
    assert divided == lower_solve(prefix, x)[1]
    assert _apply_negative_blocks(h, tau, x) == prefix * x
    assert _apply_negative_blocks(h, tau, divided) == x


def assert_same(result, expected):
    """Equal in value, and each entry of the type the dense route gives it."""
    assert result == expected
    assert [list(map(type, row)) for row in result._e] == [
        list(map(type, row)) for row in expected._e
    ]


def half_zero(x):
    return 2 * sum(is_zero(a) for row in x._e for a in row) >= x.rows * x.cols


def masked(rng, n, m, lower=False):
    """A bound-2 quaternion n x m matrix, at least half of its entries exact zeros.

    With `lower`, it is lower triangular with a nonzero diagonal, and the zeros
    fall below it as well.
    """
    places = [(i, j) for i in range(n) for j in range(m) if not lower or i > j]
    zeros = set(rng.sample(places, (len(places) + 1) // 2))
    rows = [
        [
            Q(0) if (i, j) in zeros or (lower and j > i) else nonzero_scalar(rng, "quat")
            for j in range(m)
        ]
        for i in range(n)
    ]
    return Matrix(rows)


def sparse_points():
    """Points of the double cells with l(u) + l(v) <= n / 2, and masked matrices, at n = 4..6."""
    rng = random.Random(29)
    for n in (4, 5, 6):
        short = [(w, w.length()) for w in all_permutations(n) if 2 * w.length() <= n]
        pairs = [(u, v) for u, a in short for v, b in short if 2 * (a + b) <= n]
        for u, v in rng.sample(pairs, 6):
            yield cell_point(rng, u, v)[0], (u, v)
        for _ in range(6):
            yield masked(rng, n, n), None


def test_zero_skipping_kernels_equal_their_dense_definitions():
    # the letter actions, the row reduction, the negative-block row operations and the
    # twist skip exact-zero terms; on quaternion matrices with at least half their entries
    # zero, each must equal its dense definition in value and in each entry's type
    rng = random.Random(7)
    points = list(sparse_points())
    assert all(half_zero(x) for x, _ in points)
    for x, pair in points:
        n = x.rows
        for k in range(1, n):
            t = nonzero_scalar(rng, "quat")
            assert_same(x._right_letter(k, t), x * generator_matrix(Generator("x", k, t), n))
            assert_same(x._right_letter(-k, t), x * generator_matrix(Generator("xneg", k, t), n))
        a = masked(rng, n, n, lower=True)
        z = lower_solve(a, x)[1]
        assert a * z == x
        assert_same(z, a.inverse() * x)
        h = [nonzero_scalar(rng, "quat") for _ in range(n)]
        tau = {block: nonzero_scalar(rng, "quat") for block in upper_pairs(n)}
        prefix = negative_prefix(h, tau)
        divided = _divide_negative_blocks(h, tau, x)
        assert_same(divided, prefix.inverse() * x)
        assert_same(_apply_negative_blocks(h, tau, divided), x)
        assert_same(_apply_negative_blocks(h, tau, x), prefix * x)
        if pair is not None:
            psi = twist_general(x, *pair)
            assert_same(psi, cross_checked_twist(x, *pair))
            assert all(type(e) is Q for row in psi._e for e in row)


@st.composite
def cell_pairs(draw):
    n = draw(st.integers(2, 6))
    return draw(permutations(n)), draw(permutations(n)), random.Random(draw(st.integers(0, 2**32)))


@settings(max_examples=30, deadline=None)
@given(cell_pairs())
def test_twist_general_agrees_with_the_paper_forms(pair):
    u, v, rng = pair
    g, _, _, _ = cell_point(rng, u, v)
    try:
        cross_checked_twist(g, u, v)
    except NotGeneric:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(cell_pairs())
def test_twist_reduced_is_twist_general_on_reduced_points(pair):
    u, v, rng = pair
    x, _, _ = reduced_cell_point(rng, u, v)
    try:
        expected = twist_general(x, u, v)
    except NotGeneric:
        assume(False)
    assert twist_reduced(x, u, v) == expected


@settings(max_examples=30, deadline=None)
@given(cell_pairs())
def test_cross_checked_twist_equals_twist_general(pair):
    u, v, rng = pair
    g, _, _, _ = cell_point(rng, u, v)
    try:
        expected = twist_general(g, u, v)
    except NotGeneric:
        assume(False)
    assert cross_checked_twist(g, u, v) == expected


def quaternion_points():
    """(x, word, h, t): cell points of random (u, v) at n = 3..5, then the two data points.

    A data point's h and t are None; maximal4 is recovered along a seeded word of (w0, w0).
    """
    rng = random.Random(21)
    for n in (3, 4, 5):
        perms = all_permutations(n)
        for _ in range(4):
            yield cell_point(rng, rng.choice(perms), rng.choice(perms))
    w0 = Permutation.longest(4)
    for name, word in (
        ("reduced4", DoubleWord(4, (-1, 2, -3, 1, -2, 3, 2))),
        ("maximal4", random_double_word(w0, w0, rng)),
    ):
        data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
        yield matrix_from_json(data), word, None, None


def test_recovery_stays_in_the_quaternions(monkeypatch):
    # the twist, its cross-check, the product map, the replay, the inverse and the Gauss
    # and Bruhat factors keep x's scalar type: no rational zero or one of a torus or of a
    # factor reaches a quaternion operator
    coerce, rationals = Q._coerce, []

    def counted(other):
        if isinstance(other, Fraction):
            rationals.append(other)
        return coerce(other)

    gauss_points = 0
    for x, word, h, t in quaternion_points():
        u, v = word.u(), word.v()
        y = twist_general(x, u, v)
        with monkeypatch.context() as patch:
            patch.setattr(Q, "_coerce", staticmethod(counted))
            out = recover_params(x, word)
            assert y == cross_checked_twist(x, u, v)
            b1, _, b2 = bruhat_factor(x)
            built = [y, out.replay(word), x.inverse(), b1, b2]
            try:
                lower, diag, upper = gauss_parts(x)
                triple = ldu_elimination(x)
            except NotInGaussCell:
                pass
            else:
                gauss_points += 1
                assert lower * upper == x
                built += [lower, diag, upper, triple.lower, triple.diag, triple.upper]
        if h is not None:
            built.append(product_map(word, t, h))
            assert list(out.h) == h and list(out.t) == t
        for m in built:
            assert all(type(a) is Q for row in m.to_lists() for a in row)
    assert rationals == [] and gauss_points > 0


def level_quasiminors(x, u):
    """The level quasiminors of x at (u, e), listed by the row u(k) they are marked at."""
    e, uinv = Permutation.identity(x.rows), u.inverse()
    return [quasiminor_uv(x, u, e, uinv(i)) for i in range(1, x.rows + 1)]


@settings(max_examples=30, deadline=None)
@given(cell_pairs())
def test_recovered_torus_is_the_level_quasiminors(pair):
    u, v, rng = pair
    x, word, h, _ = cell_point(rng, u, v)
    assert list(recover_params(x, word).h) == level_quasiminors(x, u) == h


@settings(max_examples=20, deadline=None)
@given(cell_pairs(), nonzero_quaternions.filter(lambda d: d != 1))
def test_in_reduced_cell_is_every_level_quasiminor_one(pair, d):
    u, v, rng = pair
    x, _, _ = reduced_cell_point(rng, u, v)
    assert in_reduced_cell(x, u, v)
    assert all(q == 1 for q in level_quasiminors(x, u))
    n = x.rows
    for i in range(n):
        scaled = Matrix.diagonal([d if r == i else 1 for r in range(n)]) * x
        assert not in_reduced_cell(scaled, u, v)
        assert not all(q == 1 for q in level_quasiminors(scaled, u))


@settings(max_examples=20, deadline=None)
@given(cell_pairs(), nonzero_quaternions.filter(lambda d: d != 1))
def test_twist_reduced_refuses_a_scaled_reduced_point(pair, d):
    # diag(d) x stays in the double cell but leaves the reduced cell
    u, v, rng = pair
    x, _, _ = reduced_cell_point(rng, u, v)
    n = x.rows
    for i in range(n):
        scaled = x._scale_rows([d if r == i else 1 for r in range(n)])
        with pytest.raises(WrongCell, match="not in its reduced cell"):
            twist_reduced(scaled, u, v)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The pivot rules of the row reductions made ("bruhat" or "gauss"), in order."""
    calls = []
    kernel = gauss._reduce_rows

    def counted(rows, *, bottom):
        calls.append("bruhat" if bottom else "gauss")
        return kernel(rows, bottom=bottom)

    for module in (cells, gauss):
        monkeypatch.setattr(module, "_reduce_rows", counted)
    return calls


def reduced4():
    """The reduced-cell point of ``tests/data/reduced4.json`` and its double word."""
    data = json.loads((Path(__file__).parent / "data" / "reduced4.json").read_text())
    return matrix_from_json(data), DoubleWord(4, (-1, 2, -3, 1, -2, 3, 2))


def test_twist_reduced_decomposes_as_often_as_twist_general(kernel_calls, monkeypatch):
    # from cold, the gate reduces x once per side: one Bruhat reduction, then
    # one Gauss-cell elimination of [x vbar' | b1 ubar]; classify, which
    # would add a Bruhat reduction of the rotation, only refuses.  A warm
    # repeat reads the point's record and reduces nothing
    x, word = reduced4()
    u, v = word.u(), word.v()
    calls = kernel_calls
    gated = (
        lambda: twist_general(x, u, v),
        lambda: twist_reduced(x, u, v),
        lambda: in_reduced_cell(x, u, v),
        lambda: recover_params(x, word),
    )
    for run in gated:
        monkeypatch.setattr(cells, "_last_point", None)
        calls.clear()
        run()
        assert sorted(calls) == ["bruhat", "gauss"]
        calls.clear()
        run()
        assert calls == []


def test_the_gate_functions_on_one_point_share_its_reductions(kernel_calls):
    # the twist reduces x once per side, in_reduced_cell reads that twist and
    # classify adds only the Bruhat reduction of the rotation
    x, word = reduced4()
    u, v = word.u(), word.v()
    twist_general(x, u, v)
    assert in_reduced_cell(x, u, v)
    assert classify(x) == (u, v)
    assert kernel_calls == ["bruhat", "gauss", "bruhat"]


def test_a_refused_recovery_reduces_x_once_per_side(kernel_calls):
    # the gate's Bruhat reduction refuses the (w0, w0) word; the refusal's
    # classify reads that reduction and adds the rotation's
    x, _ = reduced4()
    w0 = Permutation.longest(4)
    with pytest.raises(WrongCell) as info:
        recover_params(x, random_double_word(w0, w0, random.Random(0)))
    assert info.value.actual != (w0, w0)
    assert kernel_calls == ["bruhat", "bruhat"]


def test_a_refused_singular_point_is_reduced_once(kernel_calls):
    # the gate's Bruhat reduction finds column 2 singular and the record keeps that
    # NotGeneric, so the refusal's classify and a repeat reduce nothing more
    x, s1 = Matrix([[1, 2], [2, 4]]), Permutation((2, 1))
    for expected in (["bruhat"], []):
        kernel_calls.clear()
        with pytest.raises(NotGeneric, match="column 2 has no usable pivot"):
            twist_general(x, s1, s1)
        assert kernel_calls == expected


SWAP =Matrix([[0, 1], [1, 0]])
S1, E2 = Permutation((2, 1)), Permutation.identity(2)


@pytest.mark.parametrize(
    "u, v, label",
    [
        # ubar^-1 x = SWAP has no Gauss decomposition, x vbar' does
        (E2, S1, "[ubar^-1 x]"),
        # ubar^-1 x = diag(1, -1) does, x vbar' = SWAP does not
        (S1, E2, "[x vbar']_-"),
        # both fail; [ubar^-1 x] is decomposed first
        (E2, E2, "[ubar^-1 x]"),
    ],
)
def test_twist_projection_witness_labels(u, v, label):
    for twist in (twist_general, twist_reduced):
        with pytest.raises(NotGeneric) as info:
            twist(SWAP, u, v, check=False)
        assert info.value.witness == ("projection", label)


@st.composite
def classified_points(draw):
    """(x, u, v) with (u, v) = classify(x): a dense quaternion matrix or a cell point."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        x = Matrix([[draw(quaternions) for _ in range(n)] for _ in range(n)])
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        x = cell_point(rng, draw(permutations(n)), draw(permutations(n)))[0]
    try:
        u, v = classify(x)
    except NotGeneric:
        assume(False)
    return x, u, v


@settings(max_examples=60, deadline=None)
@given(classified_points(), st.data())
def test_the_gate_refuses_a_wrong_cell_on_either_side(point, data):
    # a dense x usually has x vbar' in the Gauss cell for a wrong v too:
    # then only the support of [x vbar']_+ tells the cells apart
    x, u, v = point
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for claimed, label in (
        ((data.draw(permutations(x.rows).filter(lambda w: w != u)), v), "[ubar^-1 x]"),
        ((u, data.draw(permutations(x.rows).filter(lambda w: w != v))), "[x vbar']_-"),
    ):
        word = random_double_word(*claimed, rng)
        for refuse in (
            twist_general,
            twist_reduced,
            in_reduced_cell,
            lambda y, *_: recover_params(y, word),
        ):
            with pytest.raises(WrongCell) as info:
                refuse(x, *claimed)
            assert info.value.actual == (u, v)
        for twist in (twist_general, twist_reduced):
            with pytest.raises(NotGeneric) as info:
                twist(x, *claimed, check=False)
            assert info.value.witness == ("projection", label)


def test_factor_w0_v_reduces_x_once_per_side_and_forms_no_product(kernel_calls, monkeypatch):
    # the opposite datum and the gate's Bruhat reduction, and the gate's
    # elimination; the negative blocks act on rows, so neither the division
    # of x by them nor the replay builds a matrix to multiply by
    data = json.loads((Path(__file__).parent / "data" / "maximal4.json").read_text())
    x = matrix_from_json(data)
    products = []
    matmul = Matrix.__mul__

    def counted_matmul(a, b):
        products.append("matmul")
        return matmul(a, b)

    def counted_product_map(*args, **kwargs):
        products.append("product_map")
        return product_map(*args, **kwargs)

    monkeypatch.setattr(Matrix, "__mul__", counted_matmul)
    monkeypatch.setattr(factorize, "product_map", counted_product_map)
    fac = factor_w0_v(x)
    assert sorted(kernel_calls) == ["bruhat"] * 2 + ["gauss"]
    assert fac.replay() == x
    assert products == []


@pytest.mark.parametrize(
    "name, expected",
    [("maximal4", ["bruhat"] * 2 + ["gauss"]), ("reduced4", ["bruhat"] * 2)],
)
def test_factor_u_w0_reduces_x_once_per_side(kernel_calls, name, expected):
    # one Bruhat reduction per side; only a longest-element column datum adds
    # the gate's elimination, for the twisted forms
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    factor_u_w0(matrix_from_json(data))
    assert sorted(kernel_calls) == expected


@settings(max_examples=40, deadline=None)
@given(classified_points())
def test_factor_w0_v_refuses_another_row_datum_at_the_gate(point):
    x, u, v = point
    w0 = Permutation.longest(x.rows)
    assume(u != w0)
    with pytest.raises(WrongCell) as info:
        factor_w0_v(x)
    assert info.value.actual == classify(x) == (u, v)
    assert info.value.expected == (w0, v)


def positioned_specs(n):
    """Every positioned quasiminor (I, J, i, j) of an n x n matrix."""
    for k in range(1, n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                for i in I:
                    for j in J:
                        yield MinorSpec(I, J, i, j)


def family(inner_rows, inner_cols, n):
    """Every member |x_{I'+p, J'+q}|_{p,q} of the inner block (I', J')."""
    return [
        MinorSpec(tuple(sorted(inner_rows + (p,))), tuple(sorted(inner_cols + (q,))), p, q)
        for p in range(1, n + 1)
        if p not in inner_rows
        for q in range(1, n + 1)
        if q not in inner_cols
    ]


def outcome(evaluate):
    """The value, or the NotGeneric's type, message and witness."""
    try:
        return ("ok", evaluate())
    except NotGeneric as exc:
        return ("err", type(exc), str(exc), exc.witness)


def index_sets(data, n, k):
    return tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))


@settings(max_examples=15, deadline=None)
@given(square_matrices(max_n=4), st.randoms(use_true_random=False))
def test_minor_cache_equals_positive_quasiminor_on_every_positioned_quasiminor(x, rng):
    n = x.rows
    specs = list(positioned_specs(n))
    expected = {spec: outcome(lambda: positive_quasiminor(x, spec)) for spec in specs}
    rng.shuffle(specs)
    cache = MinorCache(x)
    for spec in specs:
        assert outcome(lambda: cache.spec(spec)) == expected[spec]
    by_levels = MinorCache(x)
    perms = all_permutations(n)
    for u, v in itertools.product(perms, perms):
        for k in range(1, n + 1):
            spec = MinorSpec(
                tuple(sorted(u.images[:k])), tuple(sorted(v.images[:k])), u(k), v(k)
            )
            assert outcome(lambda: by_levels.uv(u, v, k)) == expected[spec]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_minor_cache_on_whole_families_at_n5(data):
    x = data.draw(square_matrices(min_n=5, max_n=5))
    cache = MinorCache(x)
    for _ in range(3):
        k = data.draw(st.integers(0, 4))
        for spec in family(index_sets(data, 5, k), index_sets(data, 5, k), 5):
            assert outcome(lambda: cache.spec(spec)) == outcome(
                lambda: positive_quasiminor(x, spec)
            )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_singular_inner_block_fails_its_whole_family_only(data):
    n = data.draw(st.integers(3, 4))
    x = Matrix([[data.draw(nonzero_quaternions) for _ in range(n)] for _ in range(n)])
    size = data.draw(st.integers(2, n - 1))
    inner_rows, inner_cols = index_sets(data, n, size), index_sets(data, n, size)
    # one row of the inner block a left combination of its other rows
    dep = data.draw(st.sampled_from(inner_rows))
    coeffs = {r: data.draw(nonzero_quaternions) for r in inner_rows if r != dep}
    rows = x.to_lists()
    rows[dep - 1] = [sum((coeffs[r] * x[r, c] for r in coeffs), Q(0)) for c in range(1, n + 1)]
    x = Matrix(rows)
    members = family(inner_rows, inner_cols, n)
    others = [spec for spec in positioned_specs(n) if spec not in members]
    # the other families must evaluate around a block that is already known singular
    order = members[:1] + others + members[1:]
    cache = MinorCache(x)
    results = {spec: outcome(lambda: cache.spec(spec)) for spec in order}
    for spec in members:
        got = results[spec]
        assert got[0] == "err" and got == outcome(lambda: positive_quasiminor(x, spec))
        local = (spec.I.index(spec.i) + 1, spec.J.index(spec.j) + 1)
        assert got[3] == ("inner",) + local
        # the failure is memoized: an equal, fresh exception again, and no new entry
        size_before = len(cache._memo)
        with pytest.raises(NotGeneric) as first:
            cache.spec(spec)
        with pytest.raises(NotGeneric) as second:
            cache.spec(spec)
        assert first.value is not second.value and len(cache._memo) == size_before
        assert (str(second.value), second.value.witness) == (str(first.value), first.value.witness)
    for spec in others:
        assert results[spec] == outcome(lambda: positive_quasiminor(x, spec))
    assume(any(results[spec][0] == "ok" for spec in others if len(spec.I) > 1))


@contextlib.contextmanager
def cold_blocks():
    """The (rows, cols) of every block ``MinorCache`` makes with no cached parent, in order.

    Only that fallback calls ``_block`` again while a ``_block`` call runs.
    """
    blocks, running = [], []
    block = MinorCache._block

    def wrapper(self, P, Q):
        if running and running[-1] not in blocks:
            blocks.append(running[-1])
        running.append((P, Q))
        try:
            return block(self, P, Q)
        finally:
            running.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MinorCache, "_block", wrapper)
        yield blocks


def test_recover_params_borders_every_block_but_the_first_of_each_chain():
    # a (w0, w0) recovery at n = 6 reads 35 blocks; each chain of level
    # blocks starts at a 1x1 block, a pivot step on the empty block, and
    # every later link is one pivot step on a block read before it, so
    # no block is made cold, not even the first of a chain
    w0 = Permutation.longest(6)
    x, word, h, t = cell_point(random.Random(3), w0, w0)
    with cold_blocks() as cold:
        out = recover_params(x, word)
    assert list(out.h) == h and list(out.t) == t
    assert cold == []


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_block_with_only_singular_cached_parents_is_eliminated_cold(data):
    # an invertible block always has some nonsingular one-smaller parent, so
    # here only the parents read before it are singular, and none can pivot to it
    n = data.draw(st.integers(3, 5))
    k = data.draw(st.integers(2, n - 1))
    I0, J0 = index_sets(data, n, k), index_sets(data, n, k)
    rows = [[data.draw(nonzero_quaternions) for _ in range(n)] for _ in range(n)]
    matching = data.draw(st.permutations(range(k)))[: data.draw(st.integers(1, k))]
    parents = []
    for s, t in enumerate(matching):
        a, b = I0[s], J0[t]
        inner_rows, inner_cols = I0[:s] + I0[s + 1 :], J0[:t] + J0[t + 1 :]
        # one row of the parent a left combination of its other rows
        dep = data.draw(st.sampled_from(inner_rows))
        coeffs = {r: data.draw(nonzero_quaternions) for r in inner_rows if r != dep}
        for c in inner_cols:
            rows[dep - 1][c - 1] = sum((coeffs[r] * rows[r - 1][c - 1] for r in coeffs), Q(0))
        parents.append((a, b, inner_rows, inner_cols))
    x = Matrix(rows)
    assume(rank(x.submatrix(I0, J0)) == k)
    assume(all(rank(x.submatrix(p, q)) < k - 1 for _, _, p, q in parents))
    # the member of a parent's family marked at (a, b) is |x_{I0,J0}|_{a,b}
    reads = [MinorSpec(I0, J0, a, b) for a, b, _, _ in parents] + family(I0, J0, n)
    expected = [outcome(lambda: positive_quasiminor(x, spec)) for spec in reads]
    assert all(got[0] == "err" for got in expected[: len(parents)])
    cache = MinorCache(x)
    keys = [(p, q) for _, _, p, q in parents]
    with cold_blocks() as cold:
        got = [outcome(lambda: cache.spec(spec)) for spec in reads[: len(parents)]]
        assert {key: cache._blocks[key] for key in keys} == dict.fromkeys(keys)
        got += [outcome(lambda: cache.spec(spec)) for spec in reads[len(parents) :]]
    assert got == expected
    assert (I0, J0) in cold and cache._blocks[I0, J0] is not None


@st.composite
def rank_deficient_matrices(draw):
    """An n x n quaternion matrix, n in 3..5, with a planted rank defect.

    Either x = A B with A n x r and B r x n, r < n, so every block larger
    than r is singular, or one block x[I0, J0] with a row that is a left
    combination of its other rows (a zero entry when the block is 1x1).
    """
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        r = draw(st.integers(1, n - 1))
        a = Matrix([[draw(quaternions) for _ in range(r)] for _ in range(n)])
        b = Matrix([[draw(quaternions) for _ in range(n)] for _ in range(r)])
        return a * b
    rows = [[draw(quaternions) for _ in range(n)] for _ in range(n)]
    k = draw(st.integers(1, n))
    I0 = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
    J0 = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
    dep = draw(st.sampled_from(I0))
    coeffs = {r: draw(nonzero_quaternions) for r in I0 if r != dep}
    for c in J0:
        rows[dep - 1][c - 1] = sum((coeffs[r] * rows[r - 1][c - 1] for r in coeffs), Q(0))
    return Matrix(rows)


@settings(max_examples=20, deadline=None)
@given(rank_deficient_matrices(), st.randoms(use_true_random=False))
def test_minor_cache_reads_any_order_on_rank_deficient_matrices(x, rng):
    # singular blocks leave later blocks with singular cached parents, so the
    # reads take the parent search by every route a read order can open
    specs = list(positioned_specs(x.rows))
    rng.shuffle(specs)
    cache = MinorCache(x)
    for spec in specs:
        assert outcome(lambda: cache.spec(spec)) == outcome(lambda: positive_quasiminor(x, spec))


def test_maximal_recovery_products_at_n8():
    # quaternion products of a (w0, w0) recovery at n = 8, replay included,
    # median over seeds 0-2: 3,272 when each block kept its solved columns,
    # 2,305 before the kernels skipped exact-zero terms
    w0 = Permutation.longest(8)
    counts = []
    with counted_products() as products:
        for seed in range(3):
            x, word, h, t = cell_point(random.Random(seed), w0, w0)
            products.clear()
            out = recover_params(x, word)
            counts.append(len(products))
            assert list(out.h) == h and list(out.t) == t
    assert sorted(counts)[1] == 2_090


def test_recovery_products_and_sums_over_s4_cells():
    # quaternion products and sums of recover_params, replay included, on one seeded
    # point of each double cell of GL_4; most entries of a short cell's point are exact
    # zeros, so a kernel that stops skipping them raises both totals
    rng = random.Random(0)
    totals = [0, 0]
    with counted_products() as products, counted_sums() as sums:
        for u in all_permutations(4):
            for v in all_permutations(4):
                x, word, h, t = cell_point(rng, u, v)
                products.clear()
                sums.clear()
                out = recover_params(x, word)
                totals[0] += len(products)
                totals[1] += len(sums)
                assert list(out.h) == h and list(out.t) == t
    # 98,669 products and 57,850 sums before the kernels skipped exact-zero terms, and
    # 40,649 sums while each letter's two forms were compared by their difference (one
    # sum per recovered letter, 3,456 = the sum of l(u) + l(v) over S_4 x S_4)
    assert totals == [75_942, 37_193]


def test_quasideterminant_rank_and_sylvester_products():
    # quaternion products per call of quasideterminant(x, 1, n), rank(x) and
    # sylvester_reduce(x, 2..n-1, 2..n-1) on seeded bound-2 quaternion matrices
    expected = {4: (20, 20, 18), 6: (70, 70, 68), 8: (168, 168, 166)}
    with counted_products() as products:
        for n, counts in expected.items():
            middle = interval(2, n - 1)
            for seed in range(3):
                x = sample_matrix(random.Random(seed), n, n)
                calls = (
                    lambda: quasideterminant(x, 1, n),
                    lambda: rank(x),
                    lambda: sylvester_reduce(x, middle, middle),
                )
                seen = []
                for call in calls:
                    products.clear()
                    call()
                    seen.append(len(products))
                assert tuple(seen) == counts


def test_parent_search_stays_small_on_mostly_singular_inputs():
    # a signed permutation matrix and the twist of a point of a random (u, v)
    # cell at n = 8 have mostly singular blocks.  A block whose cached parents
    # are all singular searches its parents, and that search keeps every block
    # it resolves: unkept, it could walk k! parent chains under one singular
    # k x k block.  Kept, 100 pairs' level reads (702 keys each) make 4.5 and
    # 1.8 blocks per key, through 16.1 and 2.9 ``_block`` calls per key.
    rng = random.Random(0)

    def perm():
        return Permutation(rng.sample(range(1, 9), 8))

    signed = representative(perm())
    u, v = perm(), perm()
    y, *_ = cell_point(rng, u, v)
    pairs = [(perm(), perm()) for _ in range(100)]
    calls = []
    block = MinorCache._block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MinorCache, "_block", lambda self, P, Q: calls.append(1) or block(self, P, Q))
        for x in (Matrix([[Q(a) for a in row] for row in signed.to_lists()]), twist_general(y, u, v)):
            cache = MinorCache(x)
            calls.clear()
            for p, q in pairs:
                for k in range(1, 9):
                    outcome(lambda: cache.uv(p, q, k))
            reads = len(cache._memo)
            assert len(cache._blocks) - 1 < 6 * reads and len(calls) < 20 * reads


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_zero_member_is_a_value_and_fails_the_dodgson_grid(data):
    n = data.draw(st.integers(2, 4))
    rows = [[data.draw(nonzero_quaternions) for _ in range(n)] for _ in range(n)]
    # x12 = x11 x21^-1 x22 makes |x_{12,12}|_12 exactly zero
    rows[0][1] = rows[0][0] * inv(rows[1][0]) * rows[1][1]
    x = Matrix(rows)
    s1, e = Permutation.simple(1, n), Permutation.identity(n)
    assert MinorCache(x).uv(s1, e, 2) == 0
    assert MinorCache(x).spec(MinorSpec((1, 2), (1, 2), 1, 2)) == 0
    with pytest.raises(NotGeneric) as info:
        check_dodgson_grid(x)
    assert info.value.witness == ("grid-zero", s1.images, e.images, 2)


def sylvester_by_entries(A, I0, J0):
    """The definition: b_pq is the bordered pivot block's quasiminor marked at (p, q)."""
    n = A.rows
    return Matrix(
        [
            [
                boxed_quasiminor(A, tuple(sorted(I0 + (p,))), tuple(sorted(J0 + (q,))), p, q)
                for q in range(1, n + 1)
                if q not in J0
            ]
            for p in range(1, n + 1)
            if p not in I0
        ]
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sylvester_reduce_equals_the_entrywise_definition(data):
    A = data.draw(square_matrices(max_n=5))
    n = A.rows
    k = data.draw(st.integers(1, n - 1))
    I0, J0 = index_sets(data, n, k), index_sets(data, n, k)
    if data.draw(st.booleans()):
        # a singular pivot: one pivot row a left multiple of another, or zero
        rows = A.to_lists()
        lam = data.draw(quaternions)
        rows[I0[-1] - 1] = [lam * a for a in rows[I0[0] - 1]] if k > 1 else [Q(0)] * n
        A = Matrix(rows)
    try:
        expected = sylvester_by_entries(A, I0, J0)
    except NotGeneric:
        with pytest.raises(NotGeneric) as info:
            sylvester_reduce(A, I0, J0)
        assert info.value.witness == ("pivot-block", I0, J0)
        return
    assert sylvester_reduce(A, I0, J0) == expected
