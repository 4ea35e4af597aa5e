"""The derived data that the cell gate and the four maximal-cell computations share.

``cells._point`` keeps, for the last matrix it saw, the Bruhat factor, the
opposite datum, the twists and one ``MinorCache`` per matrix; ``classify``,
``bruhat_factor``, the twists, ``in_reduced_cell`` and the four computations
read it.  These tests pin what the sharing saves (one twist, no quasiminor
computed twice), that the record holds one identity-keyed entry, that a
first call, a repeat and a fresh copy give the same result or the same
error, that a kept failure is raised afresh on every read, and that two
threads sharing the record get what a sequential run gets.
"""

import random
import sys
import threading
import traceback
from fractions import Fraction

import pytest

import qbruhat.cells as cells
from qbruhat.cells import (
    bruhat_factor,
    classify,
    in_reduced_cell,
    twist_general,
    twist_reduced,
)
from qbruhat.errors import NotGeneric, QBruhatError, ShapeMismatch, WrongCell
from qbruhat.factorize import (
    factor_u_w0,
    factor_w0_v,
    product_map,
    recover_params,
    verify_double_ratios,
)
from qbruhat.matrix import Matrix, sigma
from qbruhat.quasidet import MinorCache
from qbruhat.sampling import cell_point
from qbruhat.weyl import DoubleWord, Permutation, random_double_word


def maximal_op(x, word):
    """The four computations in the order of the benchmark's maximal op."""
    return (
        recover_params(x, word),
        factor_u_w0(x),
        factor_w0_v(x),
        verify_double_ratios(x),
    )


def w0_point(rng, n, bound=2):
    w0 = Permutation.longest(n)
    x, word, _, _ = cell_point(rng, w0, w0, bound)
    return x, word


def counting(monkeypatch, name):
    """Replace the cells function `name` by one that logs its arguments."""
    log = []
    original = getattr(cells, name)

    def wrapper(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cells, name, wrapper)
    return log


def test_one_twist_and_no_quasiminor_computed_twice(monkeypatch):
    x, word = w0_point(random.Random(11), 5)
    twists = counting(monkeypatch, "_twist_from_factor")
    patterns = counting(monkeypatch, "_pivot_pattern")
    members = []
    member = MinorCache._member

    def logged_member(self, *key):
        members.append((self.x, key))
        return member(self, *key)

    monkeypatch.setattr(MinorCache, "_member", logged_member)
    maximal_op(x, word)

    assert len(twists) == 1
    assert [m == x for (m,) in patterns] == [True, False]
    assert patterns[1][0] == sigma(x)
    # the quasiminors of x and of its twist, each key once per matrix
    assert len({id(m) for m, _ in members}) == 2 and any(m is x for m, _ in members)
    for k, (m, key) in enumerate(members):
        assert not any(key == other and m == prior for prior, other in members[:k]), key


def test_the_record_holds_one_entry_keyed_by_identity(monkeypatch):
    rng = random.Random(12)
    (x1, _), (x2, _) = w0_point(rng, 4), w0_point(rng, 4)
    twists = counting(monkeypatch, "_twist_from_factor")
    first = factor_w0_v(x1)
    assert factor_w0_v(x1) == first and verify_double_ratios(x1).all_passed
    assert len(twists) == 1
    factor_w0_v(x2)
    assert len(twists) == 2
    assert factor_w0_v(x1) == first
    assert len(twists) == 3
    copy = Matrix(x1.to_lists())
    assert factor_w0_v(copy) == first
    assert len(twists) == 4
    assert cells._last_point.x is copy


# -- one outcome, whatever the record holds ---------------------------------------


VALUES = [Fraction(a) for a in (-2, -1, 1, 2, 3)]
BLOCKED = ("factor_u_w0", "factor_w0_v", "verify_double_ratios")


def computations(word):
    return (
        ("recover_params", lambda x: recover_params(x, word)),
        ("factor_u_w0", factor_u_w0),
        ("factor_w0_v", factor_w0_v),
        ("verify_double_ratios", verify_double_ratios),
    )


def gate_functions(word):
    """The gate's entry points, which read the record too, at the word's (u, v); the twists
    with and without `check`."""
    u, v = word.u(), word.v()
    steps = [
        ("classify", classify),
        ("bruhat_factor", bruhat_factor),
        ("in_reduced_cell", lambda x: in_reduced_cell(x, u, v)),
    ]
    for check in (True, False):
        for f in (twist_general, twist_reduced):
            steps.append((f"{f.__name__}-{check}", lambda x, f=f, c=check: f(x, u, v, c)))
    return tuple(steps)


def outcome(f, x):
    """f(x), or the type, message and attributes (witness, or cells) of its error."""
    try:
        return f(x)
    except QBruhatError as exc:
        return type(exc), str(exc), vars(exc)


# (n, seed) of quaternion (w0, w0) points at bound 1.  Some computation is NotGeneric on
# the first four, found by a scan of seeds (397 is the only one below 600 at n = 3);
# seed 0 is generic at both n.
QUATERNION_SEEDS = ((3, 397), (4, 78), (4, 185), (4, 190), (3, 0), (4, 0))


@pytest.fixture(scope="module")
def blocked():
    """Points with each way a block factorization or the double-ratio check is NotGeneric,
    and generic ones: rational (w0, w0) products, two per n and way, and quaternion points
    at bound 1; with the set of (ring, n, computation) that the points block."""
    rng = random.Random(2024)
    points = [w0_point(random.Random(seed), n, bound=1) for n, seed in QUATERNION_SEEDS]
    kept = {}
    for n in (3, 4):
        w0 = Permutation.longest(n)
        for _ in range(200):
            word = random_double_word(w0, w0, rng)
            params = [rng.choice(VALUES) for _ in range(word.length)]
            x = product_map(word, params, [rng.choice(VALUES) for _ in range(n)])
            kinds = [(n,) + kind for kind in blocked_kinds(x, word)] or [(n,)]
            kind = next((k for k in kinds if kept.get(k, 0) < 2), None)
            if kind is not None:
                kept[kind] = kept.get(kind, 0) + 1
                points.append((x, word))
    met = {
        (type(x[1, 1]).__name__, x.rows, name)
        for x, word in points
        for name, _ in blocked_kinds(x, word)
    }
    return points, met


def blocked_kinds(x, word):
    """(computation, witness kind) for each of the three that is NotGeneric on x."""
    kinds = []
    for name, f in computations(word)[1:]:
        try:
            f(x)
        except NotGeneric as exc:
            kinds.append((name, exc.witness[0]))
    return kinds


def special_points():
    """The identity of GL_3, a singular 2 x 2 matrix, a 2 x 3 matrix and a point of
    G^{w0, e} in GL_2, whose twist at (w0, w0) passes the u side and fails the v side;
    each with a word for (w0, w0)."""
    w0 = Permutation.longest(3)
    word3, word2 = random_double_word(w0, w0, random.Random(0)), DoubleWord(2, (-1, 1))
    return [
        (Matrix.identity(3), word3),
        (Matrix([[1, 2], [2, 4]]), word2),
        (Matrix([[1, 2, 3], [4, 5, 6]]), word2),
        (Matrix([[1, 0], [1, 1]]), word2),
    ]


def test_the_points_meet_every_blocked_computation(blocked):
    _, met = blocked
    rings = ("Fraction", "RationalQuaternion")
    assert met >= {(ring, n, name) for ring in rings for n in (3, 4) for name in BLOCKED}


def test_a_first_call_a_repeat_and_a_fresh_copy_agree(blocked):
    points, _ = blocked
    for x, word in points + special_points():
        steps = computations(word) + gate_functions(word)
        cold = {}
        for name, f in steps:
            cells._last_point = None
            cold[name] = outcome(f, Matrix(x.to_lists()))
        # in the maximal op's order, so each call meets what the others left
        for target in (x, x, Matrix(x.to_lists())):
            for name, f in steps:
                assert outcome(f, target) == cold[name], (name, x)
                assert outcome(f, target) == cold[name], (name, x)


def test_the_special_points_fail_as_stated():
    (identity, word3), (singular, _), (wide, word2), (lower, _) = special_points()
    for name, f in computations(word3)[2:]:
        assert outcome(f, identity)[0] is WrongCell, name
    for name, f in computations(word2)[::3]:
        assert outcome(f, lower)[0] is WrongCell, name
    for f, j in ((factor_u_w0, 2), (factor_w0_v, 1)):
        assert outcome(f, singular) == (
            NotGeneric,
            f"matrix is singular: column {j} has no usable pivot",
            {"witness": ("column", j)},
        )
    for name, f in computations(word2):
        assert outcome(f, wide)[0] is ShapeMismatch, name


def test_the_record_raises_a_fresh_error_on_every_read_of_a_kept_failure():
    # as in MinorCache: the record keeps a copy of the Bruhat reduction's NotGeneric
    # that is never raised, so it holds no reader's frames, and every read raises anew
    singular = Matrix([[1, 2], [2, 4]])
    errors = []
    for _ in range(4):
        with pytest.raises(NotGeneric) as info:
            classify(singular)
        errors.append(info.value)
    depths = [len(traceback.extract_tb(exc.__traceback__)) for exc in errors]
    assert depths[1] == depths[2] == depths[3] <= depths[0]
    assert len({id(exc) for exc in errors}) == 4
    assert {(type(exc), str(exc), exc.witness) for exc in errors} == {
        (NotGeneric, "matrix is singular: column 2 has no usable pivot", ("column", 2))
    }
    memo = cells._last_point._memo
    assert list(memo) == ["bruhat"] and memo["bruhat"][0] == "err"
    assert memo["bruhat"][1].__traceback__ is None


# -- two threads ------------------------------------------------------------------


@pytest.mark.parametrize("shared", [False, True], ids=["disjoint", "same-points"])
def test_two_threads_get_what_a_sequential_run_gets(shared):
    """The maximal op in exactly two threads; with `shared` both run one list of points,
    so that they fill and read one record at once."""
    rng = random.Random(13)
    lists = [[w0_point(rng, 4) for _ in range(5)] for _ in range(2)]
    if shared:
        lists[1] = lists[0]
    expected = [[maximal_op(x, word) for x, word in points] for points in lists]
    # fresh matrices, so that no thread meets the point the sequential run left
    lists = [[(Matrix(x.to_lists()), word) for x, word in points] for points in lists]
    if shared:
        lists[1] = lists[0]
    results, errors = [None, None], []

    def run(k):
        try:
            results[k] = [maximal_op(x, word) for x, word in lists[k]]
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the computations
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == expected


@pytest.fixture(autouse=True)
def _forget_the_record(monkeypatch):
    monkeypatch.setattr(cells, "_last_point", None)
