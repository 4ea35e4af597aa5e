"""The matrix kernels against the dense routes they replace.

Every structured helper must equal, entry for entry and exactly, the dense
product with the elementary, signed permutation or diagonal matrix built by
the public constructors.  The Gauss-Jordan kernel behind the inverse,
rank and quasideterminants must agree with the textbook definitions, the
Gauss-cell elimination behind the projections and the left division by
[a]_- with the closed-form LDU and the dense inverse, the row-only Bruhat
reduction must factor x = b1 * ubar * b2,
the inverse-free twist must agree with the paper's forms, and the one
torus of [ubar^-1 x]_0 must equal the level quasiminors at (u, e).
"""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbruhat import cells, gauss
from qbruhat.cells import (
    bruhat_factor,
    classify,
    cross_checked_twist,
    in_reduced_cell,
    torus_twist,
    twist_general,
    twist_reduced,
)
from qbruhat.errors import NotGeneric, NotInGaussCell, WrongCell
from qbruhat.factorize import letter_matrix, recover_params
from qbruhat.gauss import gauss_parts, ldu, lower_solve
from qbruhat.matrix import Matrix, interval, matrix_from_json, rank
from qbruhat.quasidet import (
    MinorCache,
    MinorSpec,
    boxed_quasiminor,
    positive_quasiminor,
    quasideterminant,
    quasiminor_uv,
    sylvester_reduce,
)
from qbruhat.sampling import cell_point, reduced_cell_point
from qbruhat.scalars import RationalQuaternion as Q, inv
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
    assert x._right_letter(letter, t) == x * letter_matrix(letter, t, n)
    assert x._left_letter(letter, t) == letter_matrix(letter, t, n) * x


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


def test_twist_reduced_decomposes_as_often_as_twist_general(monkeypatch):
    # the gate reduces x once per side: one Bruhat reduction, then one
    # Gauss-cell elimination of [x vbar' | ubar [ubar^-1 x]_-]; classify only refuses
    data = json.loads((Path(__file__).parent / "data" / "reduced4.json").read_text())
    x = matrix_from_json(data)
    word = DoubleWord(4, (-1, 2, -3, 1, -2, 3, 2))
    u, v = word.u(), word.v()
    calls = []

    def counted(module, name):
        kernel = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cells, "_pivot_pattern")
    counted(cells, "classify")
    counted(gauss, "_eliminate")
    gated = (
        lambda: twist_general(x, u, v),
        lambda: twist_reduced(x, u, v),
        lambda: in_reduced_cell(x, u, v),
        lambda: recover_params(x, word),
    )
    for run in gated:
        calls.clear()
        run()
        assert sorted(calls) == ["_eliminate", "_pivot_pattern"]


SWAP = Matrix([[0, 1], [1, 0]])
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
        # the failure is memoized: the same exception again, and no new entry
        size_before = len(cache._memo)
        with pytest.raises(NotGeneric) as first:
            cache.spec(spec)
        with pytest.raises(NotGeneric) as second:
            cache.spec(spec)
        assert first.value is second.value and len(cache._memo) == size_before
    for spec in others:
        assert results[spec] == outcome(lambda: positive_quasiminor(x, spec))
    assume(any(results[spec][0] == "ok" for spec in others if len(spec.I) > 1))


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
