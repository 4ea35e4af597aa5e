import random
import traceback
from fractions import Fraction

import pytest

from oracles import (
    OppositeScalar,
    counted_inversions,
    counted_products,
    counted_sums,
    delete,
    det_minor,
    det_of,
    plucker_coordinate,
    plucker_row_coordinate,
)
from qbruhat import quasidet
from qbruhat.cells import in_bruhat_cell
from qbruhat.errors import IndexOutOfRange, NotGeneric
from qbruhat.factorize import (
    Generator,
    _anti_spec,
    block_ratio,
    commute_neg_pos,
    generator_matrix,
    recover_params,
    standard_position,
    upper_factorize,
    verify_double_ratios,
)
from qbruhat.matrix import Matrix, interval, iota, sigma
from qbruhat.quasidet import (
    MinorCache,
    MinorSpec,
    SnMinorSpec,
    _level_key,
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
    cell_point,
    diagonal,
    invertible_matrix,
    matrix as sample_matrix,
    maximal_cell_point,
    with_retries,
)
from qbruhat.scalars import RationalQuaternion as Q, inv, is_zero
from qbruhat import verify
from qbruhat.verify import (
    GRID_CHECKS,
    CheckFailed,
    _dodgson_admissible,
    _plucker_admissible,
    _products,
    _slots,
    check_dodgson_grid,
    check_minors_plucker_grid,
    run_suite,
    validate_run,
)
from qbruhat.weyl import (
    DoubleWord,
    Permutation,
    all_permutations,
    longest_in_range,
    representative,
    simple_representative,
)


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


def test_expansion_refuses_a_zero_term_and_has_no_term_at_n1():
    # |A^11|_22 = a22 - a23 a33^-1 a32 = 2 - 1 * 1 * 2 = 0, so the expansion cannot invert it
    with pytest.raises(NotGeneric, match=r"^expansion term \|A\^\(11\)\|_\(2,2\) is zero$") as info:
        quasidet_expansion(Matrix([[1, 1, 1], [1, 2, 1], [1, 2, 1]]), 1, 1)
    assert info.value.witness == ("expansion", 2, 2)
    for a in (Fraction(5), Q(1, 2, 3, 4)):
        assert quasidet_expansion(Matrix([[a]]), 1, 1) == a


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
    # both chains pivot on row 3, but each denominator, 2 - 2 * 1^-1 * 1, is zero
    with pytest.raises(NotGeneric) as info:
        quasi_plucker_right(Matrix([[1, 2], [2, 2], [1, 1]]), 1, 2, (3,))
    assert info.value.witness == ("plucker-right", (3,), 1, 2)


def test_quasiminors_are_read_where_they_live(monkeypatch):
    # each reader takes its Schur entries off the matrix that holds them, so it returns the
    # same value with every way of making a Matrix refused
    x = sample_matrix(random.Random(19), 4, 4)
    wide, tall = sample_matrix(random.Random(20), 2, 4), sample_matrix(random.Random(21), 4, 2)
    reads = [
        lambda: boxed_quasiminor(x, (1, 3), (2, 4), 3, 2),
        lambda: positive_quasiminor(x, MinorSpec((1, 2, 4), (1, 3, 4), 2, 3)),
        lambda: principal_quasiminor(x, 3),
        lambda: quasideterminant(x, 2, 3),
        lambda: quasidet_expansion(x, 2, 3),
        lambda: quasi_plucker_left(wide, 1, 3, (2,)),
        lambda: quasi_plucker_right(tall, 3, 1, (2,)),
        lambda: in_bruhat_cell(x, Permutation.longest(4)),
    ]
    before = [read() for read in reads]

    def refuse(*args, **kwargs):
        raise AssertionError("a quasiminor read made a matrix")

    for name in ("__init__", "_wrap", "submatrix"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert [read() for read in reads] == before
    assert before[-1] is True


def test_quasi_plucker_runs_one_chain_per_auxiliary_index(monkeypatch):
    # the numerator and the denominator share their inner block: one chain per auxiliary index
    calls = []
    chain = quasidet._schur_chain
    monkeypatch.setattr(quasidet, "_schur_chain", lambda *args: calls.append(args) or chain(*args))
    a = sample_matrix(random.Random(23), 3, 5, "rat", 4)
    value = quasi_plucker_left(a, 1, 2, (3, 5))
    assert value == plucker_coordinate(a, (2, 3, 5)) / plucker_coordinate(a, (1, 3, 5))
    assert len(calls) == 2
    calls.clear()
    value = quasi_plucker_right(a.transpose(), 2, 1, (3, 5))
    assert value == plucker_row_coordinate(a.transpose(), (2, 3, 5)) / plucker_row_coordinate(
        a.transpose(), (1, 3, 5)
    )
    assert len(calls) == 2
    # rows 2 and 3 are proportional on the columns I = (3, 4): the chain for s = 1 is short,
    # so s = 1 is unusable and s = 2, 3 are read
    calls.clear()
    b = Matrix([[1, 2, 3, 4], [5, 7, 1, 2], [6, 1, 2, 4]])
    value = quasi_plucker_left(b, 1, 2, (3, 4))
    assert value == plucker_coordinate(b, (2, 3, 4)) / plucker_coordinate(b, (1, 3, 4))
    assert [len(args[1]) for args in calls] == [2, 2, 2]
    calls.clear()
    assert quasi_plucker_right(b.transpose(), 2, 1, (3, 4)) == value
    assert len(calls) == 3


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
                lhs = -a_ij * inv(quasideterminant(delete(x, i, ell), s - (s > i), j - (j > ell)))
                rhs = a_il * inv(quasideterminant(delete(x, i, j), s - (s > i), ell - (ell > j)))
                assert lhs == rhs
            return 1

        return body

    for n in (3, 4):
        for _ in range(5):
            with_retries(make(n))


def test_homological_and_inverse_entry_checks_invert_only_what_they_must():
    # seeded 4 x 4 matrices: the row and column homological forms invert one
    # quasiminor per free index, not two (45 -> 39), and the inverse entries are
    # compared as entry |x|_ji = 1, with no inversion of the entry (68 -> 52)
    for seed in (0, 1):
        x = sample_matrix(random.Random(seed), 4, 4)
        with counted_inversions() as homological:
            assert verify.check_homological(x, random.Random(seed)) == 6
        with counted_inversions() as entries:
            assert verify.check_inverse_entries(x) == 16
        assert (len(homological), len(entries)) == (39, 52)


@pytest.mark.parametrize("form", ("row", "column"))
@pytest.mark.parametrize("which", (1, 2))
def test_a_zero_homological_quasiminor_is_not_generic(monkeypatch, form, which):
    # each form reads q1 then q2 per free index, n - 1 rows before the columns, and
    # zero-tests both: a zero one names itself as |x^{rc}|_pq, x without row r and
    # column c, and is neither a counterexample nor a ZeroInverse.  q2, which the
    # forms multiply by instead of inverting, escaped as a ZeroInverse before
    n = 4
    x = sample_matrix(random.Random(0), n, n)
    target = which if form == "row" else 2 * (n - 1) + which
    boxed, calls, zeroed = verify.boxed_quasiminor, [], []

    def zeroing(y, rows, cols, p, q):
        value = boxed(y, rows, cols, p, q)
        calls.append(1)
        if len(calls) != target:
            return value
        (r,) = set(interval(1, n)) - set(rows)
        (c,) = set(interval(1, n)) - set(cols)
        zeroed.append(("homological", r, c, p, q))
        return value - value

    monkeypatch.setattr(verify, "boxed_quasiminor", zeroing)
    with pytest.raises(NotGeneric) as info:
        verify.check_homological(x, random.Random(0))
    assert info.value.witness == zeroed[0]


def test_zero_grid_quasiminor_is_resampled_not_raised():
    # seed 274 draws a matrix with an exactly zero grid quasiminor; the grid
    # check reports it as NotGeneric and the harness draws the next sample
    report = run_suite("dodgson", 4, trials=1, seed=274)
    assert report.passed and report.trials == 1 and report.checks > 0


def grid_key(u, v, k):
    """The ``MinorCache`` key that ``MinorCache.uv(u, v, k)`` reads, as two level keys."""
    return _level_key(u.images, k), _level_key(v.images, k)


# the two-slot products each grid shares, as (place a, place b, a inverted) in a row's
# slots: Dodgson's d_usv d_uv^-1, d_uv^-1 d_uvs, e_uv e_usv^-1 and e_uvs^-1 e_uv over
# (d_uv, d_usv, d_uvs, d_usvs, e_uv, e_usv, e_uvs), and Plucker's b c^-1 over
# (lhs, a, b, c, d)
DODGSON_FORMS = ((1, 0, False), (0, 2, True), (4, 5, False), (6, 4, True))
PLUCKER_FORMS = ((2, 3, False),)


def dodgson_pair_walk(n):
    """(``_dodgson_admissible(n)``, m per row) by a walk over every admissible (u, v) pair at each i.

    m is the number of admissible triples the row's instance stands for.
    """
    perms = all_permutations(n)
    instances = {}
    for i in range(1, n):
        s = Permutation.simple(i, n)
        pairs = [
            (u, us, tuple(_level_key(w.images, k) for w in (u, us) for k in (i, i + 1)))
            for u in perms
            if (us := u * s).length() == u.length() + 1
        ]
        for u, us, key_u in pairs:
            for v, vs, key_v in pairs:
                instances.setdefault((key_u, key_v), [u, us, v, vs, i, 0])[-1] += 1
    numbered, products, first_reads, rows = {}, {}, [], []
    for u, us, v, vs, i, _ in instances.values():
        reads = (
            (u, v, i), (us, v, i), (u, vs, i), (us, vs, i),
            (u, v, i + 1), (us, v, i + 1), (u, vs, i + 1),
        )
        slots = _slots(reads, numbered, first_reads)
        rows.append((slots, _products(slots, DODGSON_FORMS, products), u, us, v, vs, i))
    return (tuple(rows), tuple(first_reads)), [m for *_, m in instances.values()]


def plucker_pair_walk(n):
    """(``_plucker_admissible(n)``, m per row) by a walk over every (w, other) pair and side at each i.

    m is the number of checks the row's instance stands for.
    """
    perms = all_permutations(n)
    instances = {}
    for i in range(1, n - 1):
        s_i, s_next = Permutation.simple(i, n), Permutation.simple(i + 1, n)
        levels = (i + 1, i + 1, i, i + 1, i)
        others = [(o, (_level_key(o.images, i), _level_key(o.images, i + 1))) for o in perms]
        for w in perms:
            if (w * s_i * s_next * s_i).length() != w.length() + 3:
                continue
            w_next, w_i = w * s_next, w * s_i
            family = (w, w_next, w_i, w_i * s_next, w_next * s_i)
            key_w = tuple(_level_key(f.images, k) for f, k in zip(family, levels))
            for other, key_o in others:
                for side in ("u", "v"):
                    instances.setdefault((side, key_w, key_o), [side, i, family, other, 0])[-1] += 1
    numbered, products, first_reads, rows = {}, {}, [], []
    for side, i, (w, w_next, w_i, w_i_next, w_next_i), other, _ in instances.values():
        if side == "u":
            u, v, pivot = w, other, (w_i, other)
            reads = (
                (w_next, v, i + 1), (w_i_next, v, i + 1), (w_next_i, v, i),
                (w_i, v, i), (u, v, i + 1),
            )
        else:
            u, v, pivot = other, w, (other, w_i)
            reads = (
                (u, w_next, i + 1), (u, w_i_next, i + 1), (u, v, i + 1),
                (u, w_i, i), (u, w_next_i, i),
            )
        slots = _slots(reads, numbered, first_reads)
        (product,) = _products(slots, PLUCKER_FORMS, products)
        rows.append((slots, product, f"plucker-{side}", u, v, i, pivot))
    return (tuple(rows), tuple(first_reads)), [m for *_, m in instances.values()]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_tables_built_one_side_at_a_time_equal_the_pair_walk(n):
    # same rows in the same order, same representatives, slots and product slots
    assert _dodgson_admissible(n) == dodgson_pair_walk(n)[0]
    assert _plucker_admissible(n) == plucker_pair_walk(n)[0]


def test_grid_check_counts_are_the_admissible_counts():
    # each walked instance stands for m admissible triples (Plucker: m checks)
    for n in (1, 2, 3, 4, 5):
        (_, m_dodgson), (_, m_plucker) = dodgson_pair_walk(n), plucker_pair_walk(n)
        assert GRID_CHECKS["dodgson"](n) == 5 * sum(m_dodgson)
        assert GRID_CHECKS["plucker"](n) == sum(m_plucker)
        # one slot per distinct key, numbered in the order the rows first read them
        for rows, first_reads in (_dodgson_admissible(n), _plucker_admissible(n)):
            assert len({grid_key(*read) for read in first_reads}) == len(first_reads)
            first_seen = list(dict.fromkeys(slot for row in rows for slot in row[0]))
            assert first_seen == list(range(len(first_reads)))
    # below n = 3 the Plucker table is empty, and so is the count its grid returns
    for n in (1, 2):
        x = sample_matrix(random.Random(n), n, n)
        assert check_minors_plucker_grid(x) == GRID_CHECKS["plucker"](n) == 0
        assert check_dodgson_grid(x) == GRID_CHECKS["dodgson"](n) == 5 * (n - 1)


def reference_inv(value, u, v, k, inverses):
    """The inverse of the (u, v) grid quasiminor `value` at level k, kept at its key.

    As in the grids: a zero quasiminor raises NotGeneric and is never kept.
    """
    key = grid_key(u, v, k)
    if key not in inverses:
        if is_zero(value):
            raise NotGeneric(
                f"grid quasiminor at level {k} for ({u!r}, {v!r}) is zero",
                witness=("grid-zero", u.images, v.images, k),
            )
        inverses[key] = inv(value)
    return inverses[key]


def dodgson_reference(x):
    """The Dodgson grid without grouping: all five identities at every admissible triple."""
    n = x.rows
    cache, inverses = MinorCache(x), {}
    checks = 0
    for i in range(1, n):
        s = Permutation.simple(i, n)
        ascents = [u for u in all_permutations(n) if (u * s).length() == u.length() + 1]
        for u in ascents:
            for v in ascents:
                us, vs = u * s, v * s
                d_uv = cache.uv(u, v, i)
                d_usv = cache.uv(us, v, i)
                d_uvs = cache.uv(u, vs, i)
                d_usvs = cache.uv(us, vs, i)
                e_uv = cache.uv(u, v, i + 1)
                e_usv = cache.uv(us, v, i + 1)
                e_uvs = cache.uv(u, vs, i + 1)
                inv_d_uv = reference_inv(d_uv, u, v, i, inverses)
                inv_d_usv = reference_inv(d_usv, us, v, i, inverses)
                inv_d_uvs = reference_inv(d_uvs, u, vs, i, inverses)
                inv_e_usv = reference_inv(e_usv, us, v, i + 1, inverses)
                inv_e_uvs = reference_inv(e_uvs, u, vs, i + 1, inverses)
                params = (u.images, v.images, i)
                if not is_zero(d_usvs - (d_usv * inv_d_uv * d_uvs + e_uv)):
                    raise CheckFailed({"check": "dodgson-1", "params": params})
                if not is_zero(inv_d_usv * e_uv - inv_d_uv * e_usv):
                    raise CheckFailed({"check": "dodgson-2", "params": params})
                if not is_zero(e_uv * inv_d_uvs - e_uvs * inv_d_uv):
                    raise CheckFailed({"check": "dodgson-3", "params": params})
                if not is_zero(e_uv * inv_e_usv - d_usv * inv_d_uv):
                    raise CheckFailed({"check": "dodgson-4", "params": params})
                if not is_zero(inv_e_uvs * e_uv - inv_d_uv * d_uvs):
                    raise CheckFailed({"check": "dodgson-5", "params": params})
                checks += 5
    return checks


def plucker_reference(x):
    """The Plucker grid without grouping: the u and the v check at every (i, w, other)."""
    n = x.rows
    cache, inverses = MinorCache(x), {}
    checks = 0
    for i in range(1, n - 1):
        s_i, s_next = Permutation.simple(i, n), Permutation.simple(i + 1, n)
        for w in all_permutations(n):
            if (w * s_i * s_next * s_i).length() != w.length() + 3:
                continue
            w_next, w_i = w * s_next, w * s_i
            w_i_next, w_next_i = w_i * s_next, w_next * s_i
            for other in all_permutations(n):
                u, v = w, other
                lhs = cache.uv(w_next, v, i + 1)
                rhs = cache.uv(w_i_next, v, i + 1) + cache.uv(w_next_i, v, i) * reference_inv(
                    cache.uv(w_i, v, i), w_i, v, i, inverses
                ) * cache.uv(u, v, i + 1)
                if not is_zero(lhs - rhs):
                    raise CheckFailed({"check": "plucker-u", "params": (u.images, v.images, i)})
                checks += 1
                u, v = other, w
                lhs = cache.uv(u, w_next, i + 1)
                rhs = cache.uv(u, w_i_next, i + 1) + cache.uv(u, v, i + 1) * reference_inv(
                    cache.uv(u, w_i, i), u, w_i, i, inverses
                ) * cache.uv(u, w_next_i, i)
                if not is_zero(lhs - rhs):
                    raise CheckFailed({"check": "plucker-v", "params": (u.images, v.images, i)})
                checks += 1
    return checks


def grid_outcome(grid, x):
    try:
        return ("checks", grid(x))
    except CheckFailed as exc:
        return ("failed", exc.detail["check"], exc.detail["params"])
    except NotGeneric as exc:
        return ("not-generic", exc.witness)


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize(
    "name, grid, reference",
    [
        ("dodgson", check_dodgson_grid, dodgson_reference),
        ("plucker", check_minors_plucker_grid, plucker_reference),
    ],
    ids=("dodgson", "plucker"),
)
def test_grouped_grid_reports_as_every_triple_would(monkeypatch, n, name, grid, reference):
    rng = random.Random(100 + n)

    def generic():
        x = sample_matrix(rng, n, n)
        reference(x)
        return x

    x = with_retries(generic)
    expected = ("checks", GRID_CHECKS[name](n))
    assert grid_outcome(reference, x) == grid_outcome(grid, x) == expected
    member, read = MinorCache._member, []
    monkeypatch.setattr(
        MinorCache, "_member", lambda self, *key: read.append(key) or member(self, *key)
    )
    reference(x)
    # one quasiminor shifted by 1, or set to zero, fails both at the same first triple
    for key in rng.sample(read, 6):
        for shift in (lambda a: a + 1, lambda a: a - a):

            def perturbed(self, *at, key=key, shift=shift):
                value = member(self, *at)
                return shift(value) if at == key else value

            monkeypatch.setattr(MinorCache, "_member", perturbed)
            expected = grid_outcome(reference, x)
            assert expected[0] != "checks"
            assert grid_outcome(grid, x) == expected


def log_slot_reader(monkeypatch, log):
    """Make each grid's slot reader append (kind, slot) to `log` for each of its calls.

    The kinds are "read" (with the slots read), "nonzero", "inverse" and "product".
    """
    slot_reader = verify._slot_reader

    def logged(x, first_reads):
        calls = dict(zip(("read", "nonzero", "inverse", "product"), slot_reader(x, first_reads)))

        def logger(kind):
            def call(slot, *args):
                log.append((kind, slot))
                return calls[kind](slot, *args)

            return call

        return tuple(map(logger, calls))

    monkeypatch.setattr(verify, "_slot_reader", logged)


def test_grid_checks_evaluate_each_distinct_instance_once(monkeypatch):
    # an evaluated Dodgson instance reads once, zero-tests d_usv and d_uvs, asks
    # for three inverses (d_uv, e_usv, e_uvs) and four products; a Plucker one
    # reads twice (before and after its inverse), asks for one inverse and one
    # product.  Before the product forms, Dodgson asked for five inverses
    log = []
    log_slot_reader(monkeypatch, log)
    rng = random.Random(5)
    for n, dodgson, plucker in ((4, 216, 288), (5, 2_000, 4_000)):
        tables = (_dodgson_admissible(n)[0], _plucker_admissible(n)[0])
        assert tuple(map(len, tables)) == (dodgson, plucker)

        def evaluated():
            x = sample_matrix(rng, n, n)
            got = []
            for grid in (check_dodgson_grid, check_minors_plucker_grid):
                log.clear()
                checks = grid(x)
                kinds = [kind for kind, _ in log]
                counts = [kinds.count(k) for k in ("read", "nonzero", "inverse", "product")]
                got.append([checks, *counts])
            return got

        expected = [
            [GRID_CHECKS["dodgson"](n), dodgson, 2 * dodgson, 3 * dodgson, 4 * dodgson],
            [GRID_CHECKS["plucker"](n), 2 * plucker, 0, plucker, plucker],
        ]
        assert with_retries(evaluated) == expected


@pytest.mark.parametrize("n", (3, 4))
def test_one_grid_reads_each_key_once_and_inverts_each_slot_once(monkeypatch, n):
    # the keys reach the cache in slot order, and each slot the table inverts is
    # inverted once; equal values in two slots are two inverses.  Dodgson inverts
    # d_uv, e_usv and e_uvs; it zero-tests d_usv and d_uvs but no longer inverts them
    reads, inversions = [], []
    uv, spec = MinorCache.uv, MinorCache.spec
    monkeypatch.setattr(
        MinorCache, "uv", lambda self, u, v, k: reads.append(grid_key(u, v, k)) or uv(self, u, v, k)
    )
    monkeypatch.setattr(MinorCache, "spec", lambda self, at: reads.append(at) or spec(self, at))
    monkeypatch.setattr(verify, "inv", lambda a: inversions.append(a) or inv(a))
    rng = random.Random(30 + n)
    for name, table, grid, inverted in (
        ("dodgson", _dodgson_admissible, check_dodgson_grid, (0, 5, 6)),
        ("plucker", _plucker_admissible, check_minors_plucker_grid, (3,)),
    ):
        # the slots each row inverts, by their place in the row's read order
        rows, first_reads = table(n)
        asked = [row[0][j] for row in rows for j in inverted]

        def once():
            for log in (reads, inversions):
                log.clear()
            return grid(sample_matrix(rng, n, n))

        assert with_retries(once) == GRID_CHECKS[name](n)
        assert reads == [grid_key(*read) for read in first_reads]
        assert len(inversions) == len(set(asked)) < len(asked)


# each table, the product slots of one of its rows, and the forms they are in
PRODUCT_FORMS = (
    (_dodgson_admissible, lambda row: row[1], DODGSON_FORMS),
    (_plucker_admissible, lambda row: (row[1],), PLUCKER_FORMS),
)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_product_slots_are_distinct_keys_numbered_by_first_use(n):
    # rows share a product slot exactly when they name the same two slots in the same
    # form, and the rows, in order, first use the product slots in slot order
    for table, products_of, forms in PRODUCT_FORMS:
        rows, _ = table(n)
        products = [products_of(row) for row in rows]
        keys = {}
        for (slots, *_), made in zip(rows, products):
            assert len(made) == len(forms)
            for (a, b, left), p in zip(forms, made):
                assert keys.setdefault(p, (slots[a], slots[b], left)) == (slots[a], slots[b], left)
        assert len(set(keys.values())) == len(keys)
        first_seen = list(dict.fromkeys(p for made in products for p in made))
        assert first_seen == list(range(len(keys)))
        if n == 4:
            # 150 distinct products of each Dodgson form over 216 rows, 192 b c^-1 over 288
            per_form = [len({made[f] for made in products}) for f in range(len(forms))]
            assert per_form == ([150] * 4 if len(forms) == 4 else [192])


def test_each_product_slot_is_made_once_per_grid_call(monkeypatch):
    # product(p, a, b) makes one quaternion product at the first use of slot p and none
    # at a later one, and returns a b each time; a second grid call makes them afresh
    x = sample_matrix(random.Random(0), 4, 4)
    calls = []
    slot_reader = verify._slot_reader
    with counted_products() as made:

        def logged(x, first_reads):
            read, nonzero, inverse, product = slot_reader(x, first_reads)

            def logged_product(p, a, b):
                before = len(made)
                value = product(p, a, b)
                calls.append((p, len(made) - before, value == a * b))
                return value

            return read, nonzero, inverse, logged_product

        monkeypatch.setattr(verify, "_slot_reader", logged)
        grids = (check_dodgson_grid, check_minors_plucker_grid)
        for (table, products_of, _), grid in zip(PRODUCT_FORMS, grids):
            slots = max(p for row in table(4)[0] for p in products_of(row)) + 1
            for _ in range(2):
                calls.clear()
                assert grid(x) > 0
                first = {}
                for k, (p, _, _) in enumerate(calls):
                    first.setdefault(p, k)
                assert len(first) == slots
                expected = [int(first[p] == k) for k, (p, _, _) in enumerate(calls)]
                assert [count for _, count, _ in calls] == expected
                assert all(equal for _, _, equal in calls)


@pytest.mark.parametrize("role", (1, 2))
def test_a_zero_d_usv_or_d_uvs_gives_its_witness_without_an_inversion(monkeypatch, role):
    # d_usv (place 1) and d_uvs (place 2) are zero-tested where they were inverted, after
    # d_uv, so a zero one names the same quasiminor as the reference, which inverts all
    # five; only d_uv of the first row has been inverted by then
    x = sample_matrix(random.Random(0), 4, 4)
    rows, first_reads = _dodgson_admissible(4)
    slots, _, u, us, v, vs, i = rows[0]
    target = grid_key(*first_reads[slots[role]])
    uv = MinorCache.uv

    def zeroed(cache, a, b, k):
        value = uv(cache, a, b, k)
        return value - value if grid_key(a, b, k) == target else value

    monkeypatch.setattr(MinorCache, "uv", zeroed)
    inversions = []
    monkeypatch.setattr(verify, "inv", lambda a: inversions.append(a) or inv(a))
    at = (us, v) if role == 1 else (u, vs)
    expected = ("not-generic", ("grid-zero", at[0].images, at[1].images, i))
    assert grid_outcome(check_dodgson_grid, x) == expected
    assert len(inversions) == 1 and not is_zero(inversions[0])
    assert grid_outcome(dodgson_reference, x) == expected


def test_each_shifted_product_slot_fails_under_the_label_of_its_first_use(monkeypatch):
    # a product slot shifted by 1 fails the first check that uses it, in the row that
    # makes it: Dodgson's d_usv d_uv^-1 identity 1, d_uv^-1 d_uvs identity 3,
    # e_uv e_usv^-1 identity 4 and e_uvs^-1 e_uv identity 5; Plucker's b c^-1 fails
    # its row's own side, plucker-u or plucker-v
    x = sample_matrix(random.Random(0), 4, 4)
    slot_reader = verify._slot_reader

    def failure(grid, target):
        def shifted(x, first_reads):
            read, nonzero, inverse, product = slot_reader(x, first_reads)

            def shifted_product(p, a, b):
                value = product(p, a, b)
                return value + 1 if p == target else value

            return read, nonzero, inverse, shifted_product

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_slot_reader", shifted)
            with pytest.raises(CheckFailed) as info:
                grid(x)
        return info.value.detail["check"], info.value.detail["params"]

    _, products, u, _, v, _, i = _dodgson_admissible(4)[0][0]
    labels = ("dodgson-1", "dodgson-3", "dodgson-4", "dodgson-5")
    for p, label in zip(products, labels):
        assert failure(check_dodgson_grid, p) == (label, (u.images, v.images, i))
    first_use = {}
    for row in _plucker_admissible(4)[0]:
        first_use.setdefault(row[1], row)
    sides = {}
    for p, (_, _, check, u, v, i, _) in first_use.items():
        sides.setdefault(check, (p, (u.images, v.images, i)))
    assert sorted(sides) == ["plucker-u", "plucker-v"]
    for check, (p, params) in sides.items():
        assert failure(check_minors_plucker_grid, p) == (check, params)


def test_minor_cache_raises_a_fresh_error_on_every_read_of_a_failed_key():
    # the inner block x[{1, 2}, {1, 2}] is singular; raising the memoized error
    # again grew its traceback by three frames a read
    cache = MinorCache(Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
    errors = []
    for _ in range(4):
        with pytest.raises(NotGeneric) as info:
            cache.spec(MinorSpec((1, 2, 3), (1, 2, 3), 3, 3))
        errors.append(info.value)
    depths = [len(traceback.extract_tb(exc.__traceback__)) for exc in errors]
    assert depths[1] == depths[2] == depths[3] <= depths[0]
    assert len({id(exc) for exc in errors}) == 4 and len(cache._memo) == 1
    # the memo keeps no reader's frames alive
    assert [kept.__traceback__ for _, kept in cache._memo.values()] == [None]
    assert {(type(exc), str(exc), exc.witness) for exc in errors} == {
        (
            NotGeneric,
            "quasideterminant |A|_(3,3) undefined: inner 2x2 submatrix singular",
            ("inner", 3, 3),
        )
    }


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


def test_index_sets_refuse_booleans():
    # True == 1, but a boolean is no index; marks read through x[p, q] are not index sets
    x = sample_matrix(random.Random(11), 3, 3)
    reads = [
        lambda: positive_quasiminor(x, MinorSpec((True, 2), (1, 2), True, 2)),
        lambda: MinorCache(x).spec(MinorSpec((1, 2), (True, 2), 1, True)),
        lambda: sylvester_reduce(x, (True,), (True,)),
        lambda: boxed_quasiminor(x, (1, 2), (False, 1), 1, 1),
        lambda: x.submatrix((1, True), (1, 2)),
    ]
    for read in reads:
        with pytest.raises(IndexOutOfRange, match=r"^index (True|False) is not an integer$"):
            read()


def test_marks_and_levels_refuse_a_non_int():
    # True == 1 and 1.0 == 1, but neither is an index: quasideterminant(x, True, 2) read
    # |x|_12 and principal_quasiminor(x, 2.0) raised a raw TypeError
    x = sample_matrix(random.Random(11), 3, 3)
    reads = [
        (lambda: quasideterminant(x, True, 2), True),
        (lambda: quasideterminant(x, 1.0, 2), 1.0),
        (lambda: quasideterminant(x, 1, Fraction(2)), Fraction(2)),
        (lambda: quasidet_expansion(Matrix([[5]]), True, 1), True),
        (lambda: quasidet_expansion(x, 1.0, 2), 1.0),
        (lambda: boxed_quasiminor(x, (1, 2), (1, 2), 1.0, 2), 1.0),
        (lambda: boxed_quasiminor(x, (1, 2), (1, 2), 1, False), False),
        (lambda: principal_quasiminor(x, 2.0), 2.0),
        (lambda: principal_quasiminor(x, True), True),
        # commute_neg_pos and interval know no bound, yet an index is still an int: a float
        # or a bool was read as the int it equals, and interval(1.0, 3) raised a raw TypeError
        (lambda: commute_neg_pos(1, 1.5, 1, 1), 1.5),
        (lambda: commute_neg_pos(True, 1, 1, 1), True),
        (lambda: commute_neg_pos(2.0, 1, 1, 1), 2.0),
        # nor is an int below 1: no x_0 or x_{-(-1)} exists, yet commute_neg_pos(0, 3, 1, 1)
        # returned (1, 1) and commute_neg_pos(-1, -1, 1, 2) the same-index rewrite (2/3, 3)
        (lambda: commute_neg_pos(0, 3, 1, 1), 0),
        (lambda: commute_neg_pos(-1, -1, 1, 2), -1),
        (lambda: interval(1.0, 3), 1.0),
        (lambda: interval(True, 2), True),
        (lambda: interval(1, Fraction(3)), Fraction(3)),
    ]
    for read, mark in reads:
        with pytest.raises(IndexOutOfRange) as info:
            read()
        if type(mark) is int:
            assert str(info.value) == f"index {mark} is below 1"
        else:
            assert str(info.value) == f"index {mark!r} is not an integer"
    # an int mark keeps its range message
    with pytest.raises(IndexOutOfRange, match=r"^entry \(4, 1\) outside \[1, 3\] x \[1, 3\]$"):
        quasideterminant(x, 4, 1)
    with pytest.raises(IndexOutOfRange, match=r"^index 4 outside \[1, 3\]$"):
        principal_quasiminor(x, 4)
    # every public entry that takes a 1-based index: (site, read of the index, largest valid
    # index); a bool, a float, a Fraction, 0 and the bound + 1 are each IndexOutOfRange, never a
    # raw TypeError or KeyError, and never a value
    y = maximal_cell_point(random.Random(11), 4)
    wide, tall = sample_matrix(random.Random(12), 2, 4), sample_matrix(random.Random(13), 4, 2)
    e4, w = Permutation.identity(4), Permutation((2, 4, 1, 3))
    stages = upper_factorize(y)
    table = [
        ("Matrix[i, 1]", lambda i: y[i, 1], 4),
        ("Matrix[1, j]", lambda j: y[1, j], 4),
        ("Matrix.unit row", lambda i: Matrix.unit(4, i, 1), 4),
        ("Matrix.unit column", lambda j: Matrix.unit(4, 1, j), 4),
        ("Matrix._right_letter", lambda k: y._right_letter(k, Q(1, 1)), 3),
        ("quasideterminant p", lambda p: quasideterminant(y, p, 1), 4),
        ("quasideterminant q", lambda q: quasideterminant(y, 1, q), 4),
        ("quasidet_expansion", lambda p: quasidet_expansion(y, p, 2), 4),
        ("boxed_quasiminor", lambda p: boxed_quasiminor(y, interval(1, 4), (1, 2, 3, 4), p, 1), 4),
        ("principal_quasiminor", lambda i: principal_quasiminor(y, i), 4),
        ("MinorSpec", lambda i: MinorSpec((1, 2), (1, 2), i, 1), 2),
        ("MinorCache.uv", lambda k: MinorCache(y).uv(w, e4, k), 4),
        ("quasi_plucker_left i", lambda i: quasi_plucker_left(wide, i, 3, (2,)), 4),
        ("quasi_plucker_left j", lambda j: quasi_plucker_left(wide, 1, j, (2,)), 4),
        ("quasi_plucker_right i", lambda i: quasi_plucker_right(tall, i, 1, (2,)), 4),
        ("quasi_plucker_right j", lambda j: quasi_plucker_right(tall, 3, j, (2,)), 4),
        ("Permutation.__call__", lambda i: w(i), 4),
        ("Permutation.simple", lambda i: Permutation.simple(i, 4), 3),
        ("simple_representative", lambda i: simple_representative(i, 4), 3),
        ("longest_in_range", lambda i: longest_in_range(i, 4), 4),
        ("DoubleWord.subword_perms", lambda k: DoubleWord(4, (1, -2, 3)).subword_perms(k), 3),
        ("generator_matrix", lambda i: generator_matrix(Generator("x", i, Q(1)), 4), 3),
        ("standard_position i", lambda i: standard_position(i, 4, 4), 3),
        ("standard_position j", lambda j: standard_position(1, j, 4), 4),
        ("UpperFactorization.stage m", lambda m: stages.stage(m, 3), 3),
        ("UpperFactorization.stage k", lambda k: stages.stage(1, k), 3),
        ("block_ratio", lambda j: block_ratio(MinorCache(y), "c", 1, j, None), 4),
    ]
    for site, read, bound in table:
        read(bound)  # the largest index is valid
        for idx in (True, 1.0, Fraction(1), 0, bound + 1):
            with pytest.raises(IndexOutOfRange) as info:
                read(idx)
            if type(idx) is not int:
                assert str(info.value).endswith(f" {idx!r} is not an integer"), site
    # a bool or float key is refused after its int key is kept: True == 1.0 == 1 hash alike
    cache = MinorCache(y)
    cache.uv(w, e4, 1)
    block_ratio(cache, "b", 1, 2, None)
    for read in (
        lambda: cache.uv(w, e4, True),
        lambda: cache.uv(w, e4, 1.0),
        lambda: block_ratio(cache, "b", True, 2, None),
        lambda: block_ratio(cache, "b", 1.0, 2.0, None),
    ):
        with pytest.raises(IndexOutOfRange, match=r" is not an integer$"):
            read()


def test_a_boolean_spec_is_refused_after_its_int_key_is_memoized():
    # (True, 2) == (1, 2) and both hash alike, so a boolean spec would find the memo of
    # the int key; the spec itself refuses it, before any cache is asked
    x = sample_matrix(random.Random(11), 3, 3)
    cache = MinorCache(x)
    value = cache.spec(MinorSpec((1, 2), (1, 2), 1, 2))
    assert value == positive_quasiminor(x, MinorSpec((1, 2), (1, 2), 1, 2))
    builds = [
        lambda: MinorSpec((True, 2), (1, 2), True, 2),
        lambda: MinorSpec((1, 2), (1, 2), True, 2),
        lambda: MinorSpec((1, 2), (1, 2), 1, Fraction(2)),
        lambda: MinorSpec((1, 2), (1.0, 2), 1, 2),
    ]
    for build in builds:
        with pytest.raises(IndexOutOfRange, match=r"^index .+ is not an integer$"):
            cache.spec(build())
    assert len(cache._memo) == 1


def test_minor_cache_refuses_bad_keys_on_every_call():
    # a bad key raises check_index_set's IndexOutOfRange on every read, before and
    # after valid reads, and is never memoized; x is 3 x 4, so rows and columns differ
    x = sample_matrix(random.Random(11), 3, 4)
    e3, e4 = Permutation.identity(3), Permutation.identity(4)
    unsorted = "index set {} is not strictly increasing".format
    bad = [
        (lambda c: c.spec(MinorSpec((1, 4), (1, 2), 1, 1)), "index 4 outside [1, 3]"),
        (lambda c: c.spec(MinorSpec((0, 1), (1, 2), 1, 1)), "index 0 outside [1, 3]"),
        (lambda c: c.spec(MinorSpec((1, 2), (2, 5), 1, 2)), "index 5 outside [1, 4]"),
        (lambda c: c.spec(MinorSpec((2, 1), (1, 2), 1, 1)), unsorted((2, 1))),
        (lambda c: c.spec(MinorSpec((2, 2), (1, 3), 2, 1)), unsorted((2, 2))),
        (lambda c: c.spec(MinorSpec((1, 2), (3, 1), 2, 3)), unsorted((3, 1))),
        (lambda c: c.spec(MinorSpec((1, 3), (4, 4), 1, 4)), unsorted((4, 4))),
        # a permutation larger than x: rows, then columns
        (lambda c: c.uv(Permutation((4, 1, 2, 3)), e4, 2), "index 4 outside [1, 3]"),
        (lambda c: c.uv(e4, e4, 4), "index 4 outside [1, 3]"),
        (lambda c: c.uv(e3, Permutation((5, 1, 2, 3, 4)), 3), "index 5 outside [1, 4]"),
    ]
    valid = [
        lambda c: c.spec(MinorSpec((1, 3), (2, 4), 3, 2)),
        lambda c: c.uv(e3, e4, 3),
        # a larger permutation whose key lies inside x still reads
        lambda c: c.uv(Permutation((2, 1, 4, 3)), Permutation((4, 1, 5, 2, 3)), 2),
    ]
    for read, message in bad:
        cache = MinorCache(x)
        for valid_read in [None] + valid:
            if valid_read is not None:
                valid_read(cache)
            for _ in range(2):
                with pytest.raises(IndexOutOfRange) as info:
                    read(cache)
                assert str(info.value) == message
        assert len(cache._memo) == len(valid)
    assert MinorCache(x).uv(Permutation((2, 1, 4, 3)), Permutation((4, 1, 5, 2, 3)), 2) == (
        MinorCache(x).spec(MinorSpec((1, 2), (1, 4), 1, 1))
    )


def test_grid_tables_are_built_once_per_n(monkeypatch):
    # the tables depend on n alone: the latest n is kept, a new n rebuilds
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    rng = random.Random(8)
    _dodgson_admissible.cache_clear()
    _plucker_admissible.cache_clear()
    for n in (4, 3, 4):
        for table, grid in (
            (_dodgson_admissible, check_dodgson_grid),
            (_plucker_admissible, check_minors_plucker_grid),
        ):
            products.clear()
            first = table(n)
            assert products
            rows, first_reads = first
            assert all(type(t) is tuple for t in (first, rows, first_reads, *rows, *first_reads))
            products.clear()
            assert table(n) is first
            with_retries(lambda: grid(sample_matrix(rng, n, n)))
            assert not products


def test_the_grid_tables_are_the_only_per_n_caches_in_verify():
    # each grid's rows carry their slots and product slots: a second per-n table
    # kept beside a grid's would have to be kept in step with it by hand
    cached = sorted(
        name
        for name, value in vars(verify).items()
        if hasattr(value, "cache_info") and value.__module__ == verify.__name__
    )
    assert cached == ["_dodgson_admissible", "_plucker_admissible"]


def test_dodgson_grid_shares_the_ratio_of_identities_1_and_4():
    # one n = 4 grid: 3,042 scalar products when identities 1 and 4 each built
    # d_usv d_uv^-1, 216 fewer (one per instance) when they share it, 168
    # fewer again since MinorCache computes each Schur entry once, and 276
    # fewer since a block keeps Schur entries, one pivot step on its parent's,
    # instead of solved columns.  Identities 2 and 3 in their product forms
    # (e_uv = ratio e_usv, e_uv = e_uvs back) make 2 fewer per instance, and
    # the four two-slot products, made once per product slot, 4 x (216 - 150)
    # fewer again
    x = sample_matrix(random.Random(0), 4, 4)
    _dodgson_admissible(4)
    with counted_products() as products:
        assert check_dodgson_grid(x) == GRID_CHECKS["dodgson"](4)
    assert len(products) == 3_042 - 216 - 168 - 276 - 2 * 216 - 4 * (216 - 150) == 1_686


def test_a_grid_makes_the_sums_of_its_fill_and_one_per_instance():
    # one seeded n = 4 matrix: a grid's quaternion sums are those of filling its slots
    # through MinorCache.uv, and one per instance, the sum in its identity (Dodgson's
    # d_usv d_uv^-1 d_uvs + e_uv, Plucker's a + b c^-1 d); its comparisons make none.  Made
    # as differences tested for zero, they cost 5 more per Dodgson instance and 1 more
    # per Plucker one
    x = sample_matrix(random.Random(0), 4, 4)
    for table, grid, slots, instances in (
        (_dodgson_admissible, check_dodgson_grid, 319, 216),
        (_plucker_admissible, check_minors_plucker_grid, 278, 288),
    ):
        rows, first_reads = table(4)
        assert (len(first_reads), len(rows)) == (slots, instances)
        with counted_sums() as sums:
            cache = MinorCache(x)
            for read in first_reads:
                cache.uv(*read)
            fill = len(sums)
            sums.clear()
            assert grid(x) > 0
        assert len(sums) == fill + instances


def test_each_identity_reports_a_shifted_quasiminor_under_its_own_label(monkeypatch):
    # one quasiminor read through MinorCache.uv or .spec is shifted by 1, and the check
    # that reads it first must fail under its own label.  Every quasiminor of Dodgson
    # identities 4 and 5 takes part in an earlier identity of the instance; they alone
    # read the inverses of e_usv and e_uvs, so shifting only that inverse reaches them
    def shifted_uv(patch, at, marked=None):
        uv = MinorCache.uv

        def read(cache, u, v, k):
            value = uv(cache, u, v, k)
            if (u.images, v.images, k) != at:
                return value
            if marked is None:
                return value + 1
            marked.append(value)
            return value

        patch.setattr(MinorCache, "uv", read)

    def failure(grid, x):
        with pytest.raises(CheckFailed) as info:
            grid(x)
        return info.value.detail["check"], info.value.detail["params"]

    x = sample_matrix(random.Random(0), 4, 4)
    rows, first_reads = _dodgson_admissible(4)
    slots, _, u, _, v, _, i = rows[0]
    at = {role: first_reads[slots[role]] for role in (3, 5, 6)}  # d_usvs, e_usv, e_uvs
    for role, label, inverse_only in (
        (3, "dodgson-1", False),
        (5, "dodgson-2", False),
        (6, "dodgson-3", False),
        (5, "dodgson-4", True),
        (6, "dodgson-5", True),
    ):
        u_at, v_at, k = at[role]
        with monkeypatch.context() as patch:
            marked = [] if inverse_only else None
            shifted_uv(patch, (u_at.images, v_at.images, k), marked)
            if inverse_only:
                patch.setattr(
                    verify, "inv", lambda a, m=marked: inv(a) + 1 if m and a is m[0] else inv(a)
                )
            assert failure(check_dodgson_grid, x) == (label, (u.images, v.images, i))
    # a Plucker check whose left side no earlier instance reads
    rows, first_reads = _plucker_admissible(4)
    seen = set()
    for slots, _, check, u, v, i, _ in rows[:2]:
        assert slots[0] not in seen
        seen.update(slots)
        u_at, v_at, k = first_reads[slots[0]]
        with monkeypatch.context() as patch:
            shifted_uv(patch, (u_at.images, v_at.images, k))
            assert failure(check_minors_plucker_grid, x) == (check, (u.images, v.images, i))
    assert [row[2] for row in rows[:2]] == ["plucker-u", "plucker-v"]
    # the first letter of a (w0, w0) word: the numerator of its first form
    w0 = Permutation.longest(4)
    point, word, _, _ = cell_point(random.Random(0), w0, w0)
    assert word.letters[0] == -1
    _, u_gt, _, v_lt = word.subword_perms(1)
    with monkeypatch.context() as patch:
        shifted_uv(patch, (v_lt.images, u_gt.images, 1))
        with pytest.raises(NotGeneric) as info:
            recover_params(point, word)
        assert info.value.witness == ("branch-agreement", 1)
    # an anti-diagonal quasiminor of the twist alone; the twist's block families read it too
    point = maximal_cell_point(random.Random(0), 4)
    spec, target = MinorCache.spec, _anti_spec(4, 2)
    with monkeypatch.context() as patch:
        patch.setattr(
            MinorCache,
            "spec",
            lambda cache, at: spec(cache, at) + (cache.x is not point and at == target) * 1,
        )
        assert verify_double_ratios(point).failures == [
            {"family": "anti-diagonal", "params": (2,)},
            {"family": "negative-transfer-swapped", "params": (3, 3)},
        ]
    assert verify_double_ratios(point).all_passed


def test_level_key_table_holds_every_key_of_s6():
    # an n = 6 grid reads all 4,320 (w, k) keys of S_6 on every pass
    keys = [(w.images, k) for w in all_permutations(6) for k in range(1, 7)]
    _level_key.cache_clear()
    for key in keys:
        _level_key(*key)
    misses = _level_key.cache_info().misses
    for key in keys:
        _level_key(*key)
    assert _level_key.cache_info().misses == misses == len(keys)
