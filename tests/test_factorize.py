import itertools
import random
from fractions import Fraction

import pytest
import sympy

from oracles import OppositeScalar, det_minor
from qbruhat.cells import classify, in_reduced_cell
from qbruhat.errors import IndexOutOfRange, NotGeneric, ShapeMismatch, WrongCell, ZeroInverse
from qbruhat.factorize import (
    BLOCK_FAMILIES,
    FactorizationOutput,
    Generator,
    _family_specs,
    block_ratio,
    commute_neg_pos,
    factor_u_w0,
    factor_w0_v,
    generator_matrix,
    product_map,
    recover_params,
    solve_standard_unipotent,
    standard_position,
    UpperFactorization,
    standard_word,
    stage_entry_formula,
    upper_factorize,
    verify_double_ratios,
)
from qbruhat.gauss import ldu
from qbruhat.matrix import Matrix, interval
from qbruhat.quasidet import MinorCache, boxed_quasiminor, positive_quasiminor
from qbruhat.sampling import (
    cell_point,
    maximal_cell_point,
    matrix as sample_matrix,
    quaternion,
    scalar as sample_scalar,
    upper_triangular,
    with_retries,
)
from qbruhat.scalars import RationalQuaternion as Q, inv, is_zero
from qbruhat.weyl import DoubleWord, Permutation, all_permutations


def rnd():
    return random.Random(20240608)


def nonzero_quat(rng):
    return quaternion(rng, 2)


# -- generators -----------------------------------------------------------------


def test_generator_displays():
    t = Q(2, -1, 0, 3)
    assert generator_matrix(Generator("x", 1, t), 2) == Matrix([[1, t], [0, 1]])
    assert generator_matrix(Generator("xneg", 1, t), 2) == Matrix([[inv(t), 0], [1, t]])
    assert generator_matrix(Generator("y", 1, t), 2) == Matrix([[1, 0], [t, 1]])
    assert generator_matrix(Generator("h", 1, t), 3) == Matrix.diagonal([t, inv(t), 1])
    assert generator_matrix(Generator("sbar", 2, None), 3) == Matrix(
        [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    )


def test_generator_errors():
    with pytest.raises(ZeroInverse):
        generator_matrix(Generator("h", 1, Q(0)), 2)
    with pytest.raises(ZeroInverse):
        generator_matrix(Generator("xneg", 1, Fraction(0)), 2)
    with pytest.raises(Exception):
        generator_matrix(Generator("x", 5, Q(1)), 3)


def test_a_missing_generator_parameter_is_refused_as_a_non_scalar():
    # Generator.t defaults to None; each kind that reads t refuses it where it enters, as a
    # matrix entry refuses any non-scalar (``scalars._exact``), and still takes a foreign ring
    kinds = ("x", "y", "h", "xneg")
    refused = [lambda kind=kind: generator_matrix(Generator(kind, 1), 3) for kind in kinds]
    for call in [*refused, lambda: Matrix([[None]]), lambda: Matrix.diagonal([1, None])]:
        with pytest.raises(TypeError, match=r"^NoneType is not an exact scalar$"):
            call()
    for t in (sympy.Symbol("a"), OppositeScalar(Q(1, 2))):
        assert generator_matrix(Generator("x", 2, t), 3)[2, 3] == t
        assert generator_matrix(Generator("y", 2, t), 3)[3, 2] == t
        h = generator_matrix(Generator("h", 1, t), 3)
        assert (h[1, 1], h[2, 2], h[3, 3]) == (t, inv(t), 1)
        xneg = generator_matrix(Generator("xneg", 1, t), 3)
        assert (xneg[1, 1], xneg[2, 1], xneg[2, 2]) == (inv(t), 1, t)


def test_negative_generator_identities():
    rng = rnd()
    for _ in range(10):
        t = nonzero_quat(rng)
        for i, n in ((1, 3), (2, 3), (2, 4)):
            xneg = generator_matrix(Generator("xneg", i, t), n)
            y = generator_matrix(Generator("y", i, t), n)
            h_inv_t = generator_matrix(Generator("h", i, inv(t)), n)
            y_inv = generator_matrix(Generator("y", i, inv(t)), n)
            assert xneg == y * h_inv_t
            assert xneg == h_inv_t * y_inv


def test_matrix_unit_relations():
    n = 4
    e = [Matrix.unit(n, i, i + 1) for i in range(1, n)]
    zero = Matrix.zeros(n)
    for a in e:
        assert a * a == zero
    assert e[0] * e[2] == e[2] * e[0]
    for i in range(len(e) - 1):
        assert e[i] * e[i + 1] * e[i] == zero
        assert e[i + 1] * e[i] * e[i + 1] == zero


def test_borel_conjugation_relation():
    rng = rnd()
    t = nonzero_quat(rng)
    s = nonzero_quat(rng)
    h = Matrix.diagonal([t, inv(t)])
    lhs = h * generator_matrix(Generator("x", 1, s), 2) * h.inverse()
    assert lhs == generator_matrix(Generator("x", 1, t * s * t), 2)


def test_cartan_relations():
    rng = rnd()
    n = 4
    for _ in range(5):
        s = nonzero_quat(rng)
        t = nonzero_quat(rng)
        for i in range(1, n):
            for j in range(1, n):
                eps = lambda a, b: (1 if a == b else 0) - (1 if a == b - 1 else 0)
                hj = generator_matrix(Generator("h", j, s), n)
                xi = generator_matrix(Generator("x", i, t), n)
                middle = (s if eps(j, i) == 1 else inv(s) if eps(j, i) == -1 else 1) * t
                middle = middle * (s if eps(i, j) == 1 else inv(s) if eps(i, j) == -1 else 1)
                assert hj * xi == generator_matrix(Generator("x", i, middle), n) * hj
                yi = generator_matrix(Generator("y", i, t), n)
                middle_y = (s if eps(i, j) == 1 else inv(s) if eps(i, j) == -1 else 1) * t
                middle_y = middle_y * (s if eps(j, i) == 1 else inv(s) if eps(j, i) == -1 else 1)
                assert yi * hj == hj * generator_matrix(Generator("y", i, middle_y), n)


def test_commutation_lemma_all_parts():
    rng = rnd()
    n = 4
    for _ in range(20):
        s = nonzero_quat(rng)
        t = nonzero_quat(rng)
        for j in range(1, n):
            for i in range(1, n):
                if i == j and is_zero(s + t):
                    with pytest.raises(ZeroInverse):
                        commute_neg_pos(j, i, s, t)
                    continue
                t2, s2 = commute_neg_pos(j, i, s, t)
                lhs = generator_matrix(Generator("xneg", j, s), n) * generator_matrix(
                    Generator("x", i, t), n
                )
                rhs = generator_matrix(Generator("x", i, t2), n) * generator_matrix(
                    Generator("xneg", j, s2), n
                )
                assert lhs == rhs
                if i == j:
                    assert t2 == inv(s) * t * inv(s + t) and s2 == s + t
                elif i - j == 1:
                    assert t2 == s * t and s2 == s
                elif i - j == -1:
                    assert t2 == t * s and s2 == s


def test_commutation_singular_locus():
    s = Q(1, 2, 0, -1)
    with pytest.raises(ZeroInverse):
        commute_neg_pos(2, 2, s, -s)


@pytest.mark.parametrize("j, i", [(1, 3), (1, 2), (2, 1), (2, 2)], ids=["far", "+1", "-1", "=0"])
def test_commutation_checks_its_inputs_in_every_branch(j, i):
    # each branch of i - j takes only exact scalars and an invertible s, as x_-j(s) does
    for s, t in ((0.5, Fraction(1, 4)), (Fraction(1, 2), 0.25), (True, Fraction(1))):
        with pytest.raises(TypeError):
            commute_neg_pos(j, i, s, t)
    for zero in (Fraction(0), Q(0)):
        with pytest.raises(ZeroInverse, match="needs invertible s"):
            commute_neg_pos(j, i, zero, Fraction(3))
    t2, s2 = commute_neg_pos(j, i, 2, 3)
    assert type(t2) is Fraction and type(s2) is Fraction
    lhs = generator_matrix(Generator("xneg", j, Fraction(2)), 4) * generator_matrix(
        Generator("x", i, Fraction(3)), 4
    )
    assert lhs == generator_matrix(Generator("x", i, t2), 4) * generator_matrix(
        Generator("xneg", j, s2), 4
    )


def test_positive_negative_swap_through_representative():
    # x_{-i}(t^-1) = x_i(t) sbar_i x_i(t^-1); the sign of the last factor
    # is fixed by the displayed 2x2 product (t, -1; 1, 0)
    rng = rnd()
    for _ in range(10):
        t = nonzero_quat(rng)
        for i, n in ((1, 2), (1, 3), (2, 3)):
            sbar = generator_matrix(Generator("sbar", i, None), n)
            lhs = generator_matrix(Generator("xneg", i, inv(t)), n)
            halfway = generator_matrix(Generator("x", i, t), n) * sbar
            assert halfway * generator_matrix(Generator("x", i, inv(t)), n) == lhs
            assert halfway * generator_matrix(Generator("x", i, -inv(t)), n) != lhs


# -- product map ----------------------------------------------------------------


def test_product_map_empty_word():
    word = DoubleWord(3, ())
    assert product_map(word, []) == Matrix.identity(3)
    h = [Q(2), Q(1, 1), Q(3)]
    assert product_map(word, [], h) == Matrix.diagonal(h)


def test_product_map_hand_expansion():
    t = [Fraction(2), Fraction(-3), Fraction(5)]
    word = DoubleWord(3, (1, 2, 1))
    expected = Matrix(
        [[1, t[0] + t[2], t[0] * t[1]], [0, 1, t[1]], [0, 0, 1]]
    )
    assert product_map(word, t) == expected


def test_product_map_errors():
    word = DoubleWord(3, (1, 2))
    with pytest.raises(ShapeMismatch):
        product_map(word, [Q(1)])
    with pytest.raises(ZeroInverse):
        product_map(word, [Q(1), Q(0)])
    with pytest.raises(ShapeMismatch):
        product_map(word, [Q(1), Q(1)], Matrix([[1, 1], [0, 1]]))
    # a torus of another size than the word's group
    for h in ([2], [1, 1], [1, 1, 1, 1]):
        for torus in (h, Matrix.diagonal(h)):
            with pytest.raises(ShapeMismatch):
                product_map(word, [Q(1), Q(1)], torus)
        with pytest.raises(ShapeMismatch):
            FactorizationOutput(h=tuple(h), t=(Q(1), Q(1))).replay(word)
    # an empty torus
    with pytest.raises(ShapeMismatch, match="an empty torus for a word on GL_3"):
        product_map(word, [Q(1), Q(1)], [])
    with pytest.raises(ShapeMismatch):
        FactorizationOutput(h=(), t=(Q(1), Q(1))).replay(word)


def test_product_map_refuses_inexact_parameters():
    word = DoubleWord(2, (1, -1))
    for t in (0.5, 2.0, 1j, True):
        with pytest.raises(TypeError):
            product_map(word, [Q(1), t])
        with pytest.raises(TypeError):
            product_map(word, [Q(1), Q(1)], [1, t])
    a = sympy.Symbol("a")
    x = product_map(word, [a, sympy.Rational(1, 2)])
    assert x == Matrix([[a + 2, a / 2], [1, sympy.Rational(1, 2)]])


def test_standard_word_is_reduced_for_longest():
    for n in (2, 3, 4, 5):
        word = standard_word(n)
        assert word.v() == Permutation.longest(n)
        assert word.u().is_identity()
        assert word.length == n * (n - 1) // 2


def test_standard_positions():
    assert standard_position(1, 2, 3) == 1
    assert standard_position(1, 3, 3) == 2
    assert standard_position(2, 3, 3) == 3
    assert [standard_position(i, j, 4) for i in (1, 2, 3) for j in range(i + 1, 5)] == [
        1, 2, 3, 4, 5, 6,
    ]


def test_entry_expansion_formula():
    # entries of the standard-word product are ordered sums over weakly
    # increasing index tuples of the slot parameters
    rng = rnd()
    n = 4
    word = standard_word(n)
    params = [nonzero_quat(rng) for _ in range(word.length)]
    slot = {
        (i, j): params[standard_position(i, j, n) - 1]
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    }
    x = product_map(word, params)
    for i in range(1, n + 1):
        for k in range(0, n + 1 - i):
            if k == 0:
                assert x[i, i] == Q(1)
                continue
            total = Q(0)
            for tup in itertools.product(range(1, n + 2 - i - k), repeat=k):
                if all(tup[a] <= tup[a + 1] for a in range(k - 1)):
                    term = Q(1)
                    for a, idx in enumerate(tup):
                        term = term * slot[(idx, idx + i + a)]
                    total = total + term
            assert x[i, i + k] == total


# -- standard unipotent solve -----------------------------------------------------


def test_solve_standard_roundtrip():
    rng = rnd()
    for n in (3, 4, 5):
        word = standard_word(n)
        params = [nonzero_quat(rng) for _ in range(word.length)]
        x = product_map(word, params)
        assert solve_standard_unipotent(x) == params


def test_solve_standard_last_column_ratios():
    # t_{1,i+1} = x_{i,n} x_{i+1,n}^{-1}, with x_{n,n} = 1 on the diagonal
    rng = rnd()
    n = 4
    word = standard_word(n)
    params = [nonzero_quat(rng) for _ in range(word.length)]
    x = product_map(word, params)
    t = solve_standard_unipotent(x)
    for i in range(1, n):
        expected = x[i, n] * inv(x[i + 1, n])
        assert t[standard_position(1, i + 1, n) - 1] == expected


def test_solve_standard_requires_unitriangular():
    with pytest.raises(ShapeMismatch):
        solve_standard_unipotent(Matrix([[1, 1], [1, 1]]))


def test_solve_standard_not_generic():
    x = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # x_{24} analogue vanishes
    with pytest.raises(NotGeneric):
        solve_standard_unipotent(x)


def test_degenerate_inputs_are_refused_by_the_zero_tests_alone():
    # By heredity (GGRW 2005, Thm 1.5.2) every quasiminor that ldu and
    # solve_standard_unipotent read is defined once the earlier zero tests pass,
    # and h_m of a point of B w0 B is nonzero.  So on zero-heavy input each
    # refusal is a kept zero test, never a read's ("inner", p, q).
    rng = random.Random(39)
    seen = {"ldu": 0, "standard": 0, "w0": 0}
    for n in range(2, 6):
        w0 = Permutation.longest(n)
        for kind in ("rat", "quat"):
            for _ in range(75):
                x = Matrix(
                    [[sample_scalar(rng, kind, 0 if rng.random() < 0.45 else 2) for _ in range(n)]
                     for _ in range(n)]
                )
                try:
                    ldu(x)
                except NotGeneric as exc:
                    seen["ldu"] += 1
                    assert exc.witness[0] == "principal"
                    assert str(exc) == f"principal quasiminor at level {exc.witness[1]} is zero"
                zero = x[1, 1] - x[1, 1]
                unit = Matrix(
                    [[x[i, j] if j > i else zero + 1 if i == j else zero for j in range(1, n + 1)]
                     for i in range(1, n + 1)]
                )
                try:
                    solve_standard_unipotent(unit)
                except NotGeneric as exc:
                    seen["standard"] += 1
                    i, j = exc.witness[1:]
                    assert exc.witness[0] == "standard"
                    assert str(exc) == f"standard factorization denominator at ({i}, {j}) is zero"
                try:
                    in_big_cell = classify(x).u == w0
                except NotGeneric:
                    in_big_cell = False
                if in_big_cell:
                    seen["w0"] += 1
                    for m in range(1, n + 1):
                        h_m = positive_quasiminor(x, BLOCK_FAMILIES["d"](n, m, m)[1])
                        assert not is_zero(h_m), (x, m)
    assert min(seen.values()) > 50, seen


# -- upper factorization ----------------------------------------------------------


def test_upper_factorize_replay_and_pattern():
    rng = rnd()
    for n in (3, 4, 5):
        def body():
            x = sample_matrix(rng, n, n)
            uf = upper_factorize(x)
            assert uf.replay() == x
            assert uf.final_stage().is_lower_triangular()
            for m, k in uf.pairs:
                stage = uf.stage(m, k)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        if i < m or (i == m and j > k):
                            assert is_zero(stage[i, j])
            return 1

        with_retries(body)


def test_upper_factorize_closed_forms():
    rng = rnd()
    n = 4

    def body():
        x = sample_matrix(rng, n, n)
        uf = upper_factorize(x)
        for m, k in uf.pairs:
            assert uf.t[(m, k)] == block_ratio(MinorCache(x), "b", m, k, ("upper-t", m, k))
            stage = uf.stage(m, k)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert stage[i, j] == stage_entry_formula(x, m, k, i, j)
        return 1

    with_retries(body)


def test_upper_factorize_diagonal_is_trivial():
    d = Matrix.diagonal([Q(2), Q(1, 1), Q(0, 0, 3)])
    uf = upper_factorize(d)
    assert all(is_zero(t) for t in uf.t.values())
    for pair in uf.pairs:
        assert uf.stage(*pair) == d
    assert uf.replay() == d
    # at n = 1 the loop over no pair leaves x itself
    one = Matrix([[Q(2, 1)]])
    assert upper_factorize(one) == UpperFactorization(one, (), {}, {})


def test_upper_factorize_not_generic():
    x = Matrix([[0, 1, 1], [1, 1, 1], [1, 0, 1]])
    with pytest.raises(NotGeneric):
        upper_factorize(x)


# -- recovery through the twist ----------------------------------------------------


def test_recover_params_diagonal():
    h = [Q(2), Q(1, 1), Q(1, 0, 1)]
    word = DoubleWord(3, ())
    out = recover_params(Matrix.diagonal(h), word)
    assert list(out.h) == h and out.t == ()


def test_recover_params_roundtrip_s3_sample():
    rng = rnd()
    perms = all_permutations(3)
    for _ in range(8):
        u, v = rng.choice(perms), rng.choice(perms)
        x, word, h, params = cell_point(rng, u, v)
        out = recover_params(x, word)
        assert list(out.h) == h
        assert list(out.t) == params
        assert out.replay(word) == x


def test_recover_params_wrong_cell():
    rng = rnd()
    u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    x, word, h, params = cell_point(rng, u, v)
    other = DoubleWord(3, (-1, 1))
    with pytest.raises(WrongCell):
        recover_params(x, other)


def test_recover_params_gl3_displayed_formulas():
    # the recovered parameters equal the displayed quasiminor expressions
    rng = rnd()
    word = DoubleWord(3, (-2, -1, -2, 2, 1, 2))

    def body():
        x, _, h, params = cell_point(rng, Permutation.longest(3), Permutation.longest(3))
        out = recover_params(x, word)
        assert out.h[2] == x[3, 1]
        assert out.h[1] == -boxed_quasiminor(x, (2, 3), (1, 2), 2, 2)
        assert out.h[0] == boxed_quasiminor(x, interval(1, 3), interval(1, 3), 1, 3)
        big = boxed_quasiminor(x, interval(1, 3), interval(1, 3), 1, 3)
        assert out.t[0] == -inv(x[2, 1]) * boxed_quasiminor(x, (2, 3), (1, 2), 2, 2)
        assert out.t[1] == inv(x[1, 1]) * big
        assert out.t[2] == -inv(boxed_quasiminor(x, (1, 2), (1, 2), 1, 2)) * big
        assert out.t[3] == inv(boxed_quasiminor(x, (1, 2), (1, 2), 2, 2)) * boxed_quasiminor(
            x, (1, 2), (2, 3), 2, 3
        )
        assert out.t[4] == inv(x[1, 1]) * x[1, 2]
        assert out.t[5] == inv(x[1, 2]) * x[1, 3]
        return 1

    with_retries(body)


def test_recover_params_pure_positive_word():
    # every torus coordinate is the matching diagonal entry, which is 1 here
    rng = rnd()
    v = Permutation.longest(3)
    word = DoubleWord(3, (1, 2, 1))
    params = [nonzero_quat(rng) for _ in range(3)]
    x = product_map(word, params)
    out = recover_params(x, word)
    assert all(hi == Q(1) for hi in out.h)
    assert all(x[i, i] == Q(1) for i in (1, 2, 3))
    assert list(out.t) == params


def test_recover_params_pure_negative_word():
    rng = rnd()
    word = DoubleWord(3, (-1, -2, -1))
    params = [nonzero_quat(rng) for _ in range(3)]
    h = [nonzero_quat(rng) for _ in range(3)]
    x = product_map(word, params, h)
    out = recover_params(x, word)
    assert list(out.h) == h and list(out.t) == params


def test_borel_factorization_fixture_numeric():
    rng = rnd()

    def body():
        x = upper_triangular(rng, 3)
        t13 = inv(x[2, 2]) * x[2, 3]
        t12 = inv(x[1, 1]) * x[1, 3] * inv(x[2, 3]) * x[2, 2]
        t23 = inv(x[1, 1]) * boxed_quasiminor(x, (1, 2), (2, 3), 1, 2)
        word = DoubleWord(3, (1, 2, 1))
        rebuilt = product_map(word, [t12, t13, t23], [x[1, 1], x[2, 2], x[3, 3]])
        assert rebuilt == x
        assert t23 == inv(x[1, 1]) * x[1, 2] - t12
        return 1

    with_retries(body)


# -- block factorizations -----------------------------------------------------------


def test_factor_u_w0_roundtrip_and_cell():
    rng = rnd()
    w0 = Permutation.longest(3)
    for u in all_permutations(3):
        def body():
            x, _, _, _ = cell_point(rng, u, w0)
            result = factor_u_w0(x)
            assert result.replay() == x
            assert result.x_minus.is_lower_triangular()
            assert classify(result.x_minus) == (u, Permutation.identity(3))
            return 1

        with_retries(body)


def test_factor_u_w0_trivial_on_lower_triangular():
    rng = rnd()
    x = upper_triangular(rng, 3).transpose()
    result = factor_u_w0(x)
    assert result.x_minus == x
    assert all(is_zero(t) for t in result.t.values())


def test_factor_u_w0_commutative_minor_ratios():
    rng = rnd()

    def body():
        x = sample_matrix(rng, 4, 4, "rat", 4)
        result = factor_u_w0(x)
        for (m, k), value in result.t.items():
            d1 = det_minor(x, interval(1, m), interval(k - m + 1, k))
            d2 = det_minor(x, interval(1, m - 1), interval(k - m + 1, k - 1)) if m > 1 else 1
            d3 = det_minor(x, interval(1, m), interval(k - m + 2, k + 1))
            d4 = det_minor(x, interval(1, m - 1), interval(k - m + 2, k)) if m > 1 else 1
            if 0 in (d1, d4):
                raise NotGeneric("degenerate oracle minor")
            assert value == (d1 / d2) ** -1 * (d3 / d4)
        return 1

    with_retries(body)


def test_factor_w0_v_examples_and_replay():
    rng = rnd()
    w0 = Permutation.longest(3)
    for v in all_permutations(3):
        def body():
            x, _, _, _ = cell_point(rng, w0, v)
            result = factor_w0_v(x)
            assert result.h[2] == x[3, 1]
            assert result.replay() == x
            assert result.x_plus.is_unitriangular("upper")
            assert in_reduced_cell(result.x_plus, Permutation.identity(3), v)
            return 1

        with_retries(body)


def test_factor_w0_v_n3_example_values():
    rng = rnd()
    w0 = Permutation.longest(3)

    def body():
        x, _, _, _ = cell_point(rng, w0, w0)
        result = factor_w0_v(x)
        big = boxed_quasiminor(x, interval(1, 3), interval(1, 3), 1, 3)
        assert result.tau[(1, 1)] == inv(x[1, 1]) * big
        # the (1,2) denominator carries the sign (-1)^{d_1({1,2})} = -1
        assert result.tau[(1, 2)] == inv(-boxed_quasiminor(x, (1, 2), (1, 2), 1, 2)) * big
        assert result.tau[(2, 2)] == inv(x[2, 1]) * (
            -boxed_quasiminor(x, (2, 3), (1, 2), 2, 2)
        )
        return 1

    with_retries(body)


def test_factor_w0_v_wrong_cell():
    rng = rnd()
    x = upper_triangular(rng, 3)
    with pytest.raises(WrongCell):
        factor_w0_v(x)


# column 2 is column 1 times a quaternion from the right, a relation row operations keep
QUAT_SINGULAR = Matrix(
    [
        [a, a * Q(1, -1, 2, 0), b]
        for a, b in (
            (Q(1, 2, 0, -1), Q(0, 1, 1, 1)),
            (Q(-2, 0, 1, 1), Q(3, 0, 0, 1)),
            (Q(1, 1, 1, 1), Q(2, -1, 0, 0)),
        )
    ]
)


@pytest.mark.parametrize("x", (Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), QUAT_SINGULAR))
def test_a_singular_x_is_reported_at_its_own_column_from_either_side(x):
    # the u side reduces columns 1, 2, 3 and stops at 2; the v side reduces
    # sigma(x), i.e. columns 3, 2, 1 of x, and stops at 1, not at sigma's 3
    for factor, j in ((factor_u_w0, 2), (factor_w0_v, 1)):
        with pytest.raises(NotGeneric) as info:
            factor(x)
        assert info.value.witness == ("column", j)
        assert str(info.value) == f"matrix is singular: column {j} has no usable pivot"


# -- block families ---------------------------------------------------------------


def test_family_specs_equal_the_block_families():
    for n in range(2, 8):
        pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
        for family in BLOCK_FAMILIES:
            for i, j in pairs:
                assert _family_specs(family, n, i, j) == BLOCK_FAMILIES[family](n, i, j)
        for m in range(1, n + 1):
            assert _family_specs("d", n, m, m) == BLOCK_FAMILIES["d"](n, m, m)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda x: block_ratio(MinorCache(x), "b", 2, 1, None), "index 0 outside [1, 4]"),
        (
            lambda x: block_ratio(MinorCache(x), "a", 4, 4, None),
            "index set (1, 2, 3, 4, 4) is not strictly increasing",
        ),
        (lambda x: block_ratio(MinorCache(x), "a", 2, 1, None), "|I| = 2 != |J| = 1"),
        (lambda x: block_ratio(MinorCache(x), "b", 0, 2, None), "mark (0, 2) not in () x ()"),
        (lambda x: block_ratio(MinorCache(x), "c", 1, 5, None), "index 5 outside [1, 4]"),
        (lambda x: block_ratio(MinorCache(x), "d", 3, 2, None), "mark (3, 0) not in () x ()"),
    ],
)
def test_a_pair_outside_the_families_raises_and_is_not_kept(read, message):
    x = maximal_cell_point(rnd(), 4)
    before = _family_specs.cache_info().currsize
    with pytest.raises(IndexOutOfRange) as info:
        read(x)
    assert str(info.value) == message
    assert _family_specs.cache_info().currsize == before


def test_c_and_d_at_n_n_are_one():
    x = maximal_cell_point(rnd(), 4)
    for family in ("c", "d"):
        assert block_ratio(MinorCache(x), family, 4, 4, None) == 1


# -- maximal twist report -------------------------------------------------------------


def test_double_ratios_random():
    rng = rnd()
    for n in (3, 4):
        def body():
            x = maximal_cell_point(rng, n)
            report = verify_double_ratios(x, include_extended=True)
            assert report.all_passed, report.failures
            assert report.counts["anti-diagonal"] == n
            return 1

        with_retries(body)


def test_double_ratios_wrong_cell():
    with pytest.raises(WrongCell):
        verify_double_ratios(Matrix.identity(3))


def test_double_ratios_degenerate_antidiagonal():
    x = Matrix([[0, 0, 2], [0, 2, 0], [2, 0, 0]])
    with pytest.raises(NotGeneric):
        verify_double_ratios(x)
