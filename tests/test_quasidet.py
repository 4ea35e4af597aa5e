import random
from fractions import Fraction

import pytest

from oracles import det_minor, det_of, plucker_coordinate, plucker_row_coordinate
from qbruhat.errors import NotGeneric
from qbruhat.matrix import Matrix, interval, iota, sigma
from qbruhat.quasidet import (
    MinorSpec,
    SnMinorSpec,
    boxed_quasiminor,
    positive_quasiminor,
    principal_quasiminor,
    quasi_plucker_left,
    quasi_plucker_right,
    quasideterminant,
    quasidet_expansion,
    quasiminor_indexed,
    quasiminor_uv,
    sylvester_reduce,
)
from qbruhat.sampling import (
    diagonal,
    invertible_matrix,
    matrix as sample_matrix,
    with_retries,
)
from qbruhat.scalars import OppositeScalar, RationalQuaternion as Q, inv
from qbruhat import verify
from qbruhat.verify import (
    GRID_CHECKS,
    _dodgson_admissible,
    _plucker_admissible,
    run_suite,
    validate_run,
)
from qbruhat.weyl import Permutation, all_permutations, representative


def rational_matrix(rng, n):
    return sample_matrix(rng, n, n, "rat", 4)


def test_one_by_one():
    assert quasideterminant(Matrix([[Q(3, 1)]]), 1, 1) == Q(3, 1)


def test_two_by_two_closed_forms():
    rng = random.Random(1)
    x = sample_matrix(rng, 2, 2)
    a, b, c, d = x[1, 1], x[1, 2], x[2, 1], x[2, 2]
    assert quasideterminant(x, 1, 1) == a - b * inv(d) * c
    assert quasideterminant(x, 1, 2) == b - a * inv(c) * d
    assert quasideterminant(x, 2, 1) == c - d * inv(b) * a
    assert quasideterminant(x, 2, 2) == d - c * inv(a) * b


def test_three_by_three_display():
    rng = random.Random(2)
    x = with_retries(lambda: _generic_3x3(rng))
    a = x.to_lists()
    expected = (
        a[0][0]
        - a[0][1] * inv(a[1][1] - a[1][2] * inv(a[2][2]) * a[2][1]) * a[1][0]
        - a[0][1] * inv(a[2][1] - a[2][2] * inv(a[1][2]) * a[1][1]) * a[2][0]
        - a[0][2] * inv(a[1][2] - a[1][1] * inv(a[2][1]) * a[2][2]) * a[1][0]
        - a[0][2] * inv(a[2][2] - a[2][1] * inv(a[1][1]) * a[1][2]) * a[2][0]
    )
    assert quasideterminant(x, 1, 1) == expected


def _generic_3x3(rng):
    x = sample_matrix(rng, 3, 3)
    quasidet_expansion(x, 1, 1)
    return x


def test_commutative_ratio_of_determinants():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            x = rational_matrix(rng, n)
            p, q = rng.randint(1, n), rng.randint(1, n)
            inner = [
                [x[i, j] for j in range(1, n + 1) if j != q]
                for i in range(1, n + 1)
                if i != p
            ]
            from oracles import cofactor_det

            d_inner = cofactor_det(inner)
            if d_inner == 0:
                continue
            expected = (-1) ** (p + q) * det_of(x) / d_inner
            assert quasideterminant(x, p, q) == expected


def test_expansion_cross_check():
    rng = random.Random(4)
    for n in (2, 3):
        for _ in range(10):
            x = sample_matrix(rng, n, n)
            p, q = rng.randint(1, n), rng.randint(1, n)
            try:
                assert quasidet_expansion(x, p, q) == quasideterminant(x, p, q)
            except NotGeneric:
                continue


def test_not_generic_singular_inner():
    x = Matrix([[1, 1], [1, 0]])
    with pytest.raises(NotGeneric):
        quasideterminant(x, 1, 1)
    y = Matrix([[1, 2, 3], [1, 2, 4], [2, 4, 9]])
    with pytest.raises(NotGeneric):
        quasideterminant(y, 1, 3)


def test_principal_quasiminor_is_marked_corner():
    rng = random.Random(5)
    x = sample_matrix(rng, 4, 4)
    for i in (1, 2, 3, 4):
        spec = MinorSpec(interval(1, i), interval(1, i), i, i)
        assert principal_quasiminor(x, i) == positive_quasiminor(x, spec)


def test_positive_quasiminor_sign_example():
    rng = random.Random(6)
    x = sample_matrix(rng, 3, 3)
    spec = MinorSpec((1, 2), (2, 3), 1, 2)
    # one element of I above 1, one element of J above 2: sign (+1)
    assert positive_quasiminor(x, spec) == boxed_quasiminor(x, (1, 2), (2, 3), 1, 2)
    flipped = MinorSpec((1, 2), (2, 3), 1, 3)
    assert positive_quasiminor(x, flipped) == -boxed_quasiminor(x, (1, 2), (2, 3), 1, 3)


def test_positive_quasiminor_commutative_ratio():
    rng = random.Random(7)
    x = rational_matrix(rng, 4)
    spec = MinorSpec((1, 2, 4), (2, 3, 4), 2, 3)
    top = det_minor(x, (1, 2, 4), (2, 3, 4))
    bottom = det_minor(x, (1, 4), (2, 4))
    assert positive_quasiminor(x, spec) == top / bottom


def test_indexed_quasiminor_routes_agree_on_grid():
    rng = random.Random(8)
    x = sample_matrix(rng, 3, 3)
    for u in all_permutations(3):
        for v in all_permutations(3):
            for k in (1, 2, 3):
                try:
                    quasiminor_indexed(x, SnMinorSpec(u, v, k))
                except NotGeneric:
                    pass


def test_indexed_quasiminor_identity_cases():
    rng = random.Random(9)
    x = sample_matrix(rng, 4, 4)
    e = Permutation.identity(4)
    for k in (1, 2, 3, 4):
        assert quasiminor_uv(x, e, e, k) == principal_quasiminor(x, k)
    for u in all_permutations(3):
        ubar = representative(u)
        for i in (1, 2, 3):
            assert quasiminor_uv(ubar, u, Permutation.identity(3), i) == Fraction(1)


def test_sigma_lemma():
    rng = random.Random(10)
    x = sample_matrix(rng, 4, 4)
    w0 = Permutation.longest(4)
    perms = [Permutation((2, 1, 4, 3)), Permutation((3, 1, 2, 4)), Permutation((1, 4, 3, 2))]
    for u in perms:
        for v in perms:
            for i in (1, 2, 3, 4):
                try:
                    lhs = quasiminor_uv(sigma(x), u, v, i)
                    rhs = quasiminor_uv(x, w0 * u, w0 * v, i)
                except NotGeneric:
                    continue
                assert lhs == rhs


def test_transpose_lemma_commutative_and_opposite():
    rng = random.Random(11)
    x = rational_matrix(rng, 4)
    u, v = Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))
    for i in (1, 2, 3, 4):
        assert quasiminor_uv(x, u, v, i) == quasiminor_uv(x.transpose(), v, u, i)
    q = sample_matrix(rng, 3, 3)
    qt_op = q.transpose().map(OppositeScalar)
    for i in (1, 2, 3):
        lhs = quasiminor_uv(q, u := Permutation((2, 1, 3)), Permutation((3, 2, 1)), i)
        rhs = quasiminor_uv(qt_op, Permutation((3, 2, 1)), Permutation((2, 1, 3)), i)
        assert OppositeScalar(lhs) == rhs


def test_cartan_scaling():
    rng = random.Random(12)
    x = sample_matrix(rng, 4, 4)
    h = diagonal(rng, 4)
    hp = diagonal(rng, 4)
    u, v = Permutation((2, 4, 1, 3)), Permutation((4, 1, 3, 2))
    for i in (1, 2, 3, 4):
        lhs = quasiminor_uv(h * x * hp, u, v, i)
        rhs = h[u(i), u(i)] * quasiminor_uv(x, u, v, i) * hp[v(i), v(i)]
        assert lhs == rhs


def test_iota_quasiminor_lemma():
    # The positive inverse swaps a level-i quasiminor for the inverted
    # complementary-level quasiminor at the subscripts (v w0, u w0); the
    # right-multiplied form is forced by the u = v = e, i = n special case.
    rng = random.Random(13)
    x = invertible_matrix(rng, 3)
    w0 = Permutation.longest(3)
    xi = iota(x)
    checked = 0
    for u in all_permutations(3):
        for v in all_permutations(3):
            for i in (1, 2, 3):
                try:
                    lhs = quasiminor_uv(xi, u, v, i)
                    rhs = quasiminor_uv(x, v * w0, u * w0, 4 - i)
                except NotGeneric:
                    continue
                assert lhs == inv(rhs)
                checked += 1
    assert checked > 80


def test_quasi_plucker_left():
    rng = random.Random(14)

    def body():
        a = sample_matrix(rng, 2, 4)
        assert quasi_plucker_left(a, 3, 3, (1,)) == Fraction(1)
        g = invertible_matrix(rng, 2)
        assert quasi_plucker_left(g * a, 3, 4, (1,)) == quasi_plucker_left(a, 3, 4, (1,))
        r = sample_matrix(rng, 2, 4, "rat", 4)
        value = quasi_plucker_left(r, 3, 4, (1,))
        expected = plucker_coordinate(r, (4, 1)) / plucker_coordinate(r, (3, 1))
        assert value == expected
        return 1

    with_retries(body)


def test_quasi_plucker_right():
    rng = random.Random(15)

    def body():
        b = sample_matrix(rng, 4, 2)
        assert quasi_plucker_right(b, 3, 3, (1,)) == Fraction(1)
        g = invertible_matrix(rng, 2)
        assert quasi_plucker_right(b * g, 3, 4, (1,)) == quasi_plucker_right(b, 3, 4, (1,))
        r = sample_matrix(rng, 4, 2, "rat", 4)
        value = quasi_plucker_right(r, 3, 4, (1,))
        expected = plucker_row_coordinate(r, (3, 1)) / plucker_row_coordinate(r, (4, 1))
        assert value == expected
        return 1

    with_retries(body)


def test_quasi_plucker_not_generic():
    zero = Matrix([[0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotGeneric):
        quasi_plucker_left(zero, 1, 2, (3,))
    with pytest.raises(NotGeneric):
        quasi_plucker_right(zero.transpose(), 1, 2, (3,))


def test_sylvester_empty_pivot():
    rng = random.Random(16)
    x = sample_matrix(rng, 3, 3)
    assert sylvester_reduce(x, (), ()) == x


def test_sylvester_example_structure():
    rng = random.Random(17)

    def body():
        x = sample_matrix(rng, 3, 3)
        b = sylvester_reduce(x, (2,), (2,))
        b11 = boxed_quasiminor(x, (1, 2), (1, 2), 1, 1)
        b13 = boxed_quasiminor(x, (1, 2), (2, 3), 1, 3)
        b31 = boxed_quasiminor(x, (2, 3), (1, 2), 3, 1)
        b33 = boxed_quasiminor(x, (2, 3), (2, 3), 3, 3)
        assert b == Matrix([[b11, b13], [b31, b33]])
        assert quasideterminant(x, 1, 1) == b11 - b13 * inv(b33) * b31
        return 1

    with_retries(body)


def test_sylvester_random_and_lewis_carroll():
    rng = random.Random(18)

    def body():
        x = sample_matrix(rng, 5, 5)
        b = sylvester_reduce(x, (2, 4), (1, 3))
        comp_rows, comp_cols = (1, 3, 5), (2, 4, 5)
        for s in comp_rows:
            for t in comp_cols:
                assert quasideterminant(x, s, t) == quasideterminant(
                    b, comp_rows.index(s) + 1, comp_cols.index(t) + 1
                )
        carroll = sylvester_reduce(x, interval(2, 4), interval(2, 4))
        for s in (1, 5):
            for t in (1, 5):
                pos_s, pos_t = (1 if s == 1 else 2), (1 if t == 1 else 2)
                assert quasideterminant(x, s, t) == quasideterminant(carroll, pos_s, pos_t)
        return 1

    with_retries(body)


def test_sylvester_singular_pivot():
    x = Matrix([[1, 2, 3], [2, 4, 5], [3, 3, 3]])
    with pytest.raises(NotGeneric):
        sylvester_reduce(x, (1, 2), (1, 2))


def test_homological_relations_directly():
    rng = random.Random(19)

    def make(n):
        def body():
            x = sample_matrix(rng, n, n)
            i, (j, ell) = 1 + rng.randrange(n), rng.sample(range(1, n + 1), 2)
            a_ij = quasideterminant(x, i, j)
            a_il = quasideterminant(x, i, ell)
            for s in range(1, n + 1):
                if s == i:
                    continue
                lhs = -a_ij * inv(quasideterminant(x.delete(i, ell), s - (s > i), j - (j > ell)))
                rhs = a_il * inv(quasideterminant(x.delete(i, j), s - (s > i), ell - (ell > j)))
                assert lhs == rhs
            return 1

        return body

    for n in (3, 4):
        for _ in range(5):
            with_retries(make(n))


def test_zero_grid_quasiminor_is_resampled_not_raised():
    # seed 274 draws a matrix with an exactly zero grid quasiminor; the grid
    # check reports it as NotGeneric and the harness draws the next sample
    report = run_suite("dodgson", 4, trials=1, seed=274)
    assert report.passed and report.trials == 1 and report.checks > 0


def test_grid_check_counts_are_the_admissible_counts():
    for n in (2, 3, 4, 5):
        assert GRID_CHECKS["dodgson"](n) == 5 * len(_dodgson_admissible(n))
        plucker = sum(2 * len(all_permutations(n)) * len(ws) for *_, ws in _plucker_admissible(n))
        assert GRID_CHECKS["plucker"](n) == plucker


def test_grid_budget_boundary_is_checked_before_any_trial(monkeypatch):
    # every size the golden reports and the benchmark use fits, and so does n = 5
    for n, trials in ((3, 20), (4, 3), (4, 1), (5, 20)):
        for name in ("dodgson", "plucker"):
            validate_run(name, n, trials)
    validate_run("roundtrip", 8, 10**6)  # the polynomial suites are not limited
    per_trial = GRID_CHECKS["dodgson"](6)
    monkeypatch.setattr(verify, "GRID_CHECK_BUDGET", 3 * per_trial)
    validate_run("dodgson", 6, 3)
    with pytest.raises(ValueError, match="budget") as info:
        run_suite("dodgson", 6, trials=4, seed=0)
    assert f"{4 * per_trial:,}" in str(info.value) and "dodgson" in str(info.value)
