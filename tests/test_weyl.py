import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat.errors import IndexOutOfRange, NotReducedWord
from qbruhat.matrix import Matrix
from qbruhat.weyl import (
    DoubleWord,
    Permutation,
    all_permutations,
    double_reduced_words,
    longest_in_range,
    random_double_word,
    reduced_words,
    representative,
    simple_representative,
)


def test_composition_and_inverse():
    u = Permutation((2, 3, 1))
    v = Permutation((1, 3, 2))
    assert (u * v).images == (2, 1, 3)
    assert (u * u.inverse()).is_identity()
    assert u.inverse().images == (3, 1, 2)
    assert u.matrix() * v.matrix() == (u * v).matrix()


def test_length_and_descents():
    w0 = Permutation.longest(4)
    assert w0.length() == 6
    assert Permutation.identity(4).length() == 0
    assert Permutation((2, 1, 3)).right_descents() == [1]
    assert w0.right_descents() == [1, 2, 3]


def test_reduced_word_replay_all_s4():
    for w in all_permutations(4):
        word = w.reduced_word()
        assert len(word) == w.length()
        acc = Permutation.identity(4)
        for i in word:
            acc = acc * Permutation.simple(i, 4)
        assert acc == w


def test_all_reduced_words_s3():
    w0 = Permutation.longest(3)
    assert sorted(reduced_words(w0)) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_words(Permutation.identity(3)) == [()]


def test_representative_examples():
    assert representative(Permutation.identity(3)) == Matrix.identity(3)
    assert representative(Permutation((2, 1))) == Matrix([[0, -1], [1, 0]])
    m1 = (
        simple_representative(1, 3)
        * simple_representative(2, 3)
        * simple_representative(1, 3)
    )
    m2 = (
        simple_representative(2, 3)
        * simple_representative(1, 3)
        * simple_representative(2, 3)
    )
    assert m1 == m2 == representative(Permutation.longest(3))


def test_representative_braid_invariance_all_s4():
    for w in all_permutations(4):
        target = representative(w)
        for word in reduced_words(w):
            acc = Matrix.identity(4)
            for i in word:
                acc = acc * simple_representative(i, 4)
            assert acc == target


def test_representative_multiplicative_when_lengths_add():
    rng = random.Random(3)
    perms = all_permutations(4)
    found = 0
    for _ in range(200):
        u, v = rng.choice(perms), rng.choice(perms)
        if (u * v).length() == u.length() + v.length():
            found += 1
            assert representative(u * v) == representative(u) * representative(v)
    assert found > 20


def test_longest_in_range():
    assert longest_in_range(1, 4) == Permutation.longest(4)
    assert longest_in_range(4, 4) == Permutation.identity(4)
    assert longest_in_range(2, 4).images == (1, 4, 3, 2)


def test_double_word_components():
    word = DoubleWord(4, (-2, 1, -3, 3, 2, -1, -2, 1, -1))
    s = lambda i: Permutation.simple(i, 4)
    assert word.u() == s(2) * s(3) * s(1) * s(2) * s(1)
    assert word.v() == s(1) * s(3) * s(2) * s(1)
    assert word.length == 9


def test_subword_perms_paper_example():
    word = DoubleWord(4, (-2, 1, -3, 3, 2, -1, -2, 1, -1))
    s = lambda i: Permutation.simple(i, 4)
    u_ge, u_gt, v_le, v_lt = word.subword_perms(7)
    assert u_ge == s(1) * s(2)
    assert v_lt == s(1) * s(3) * s(2)
    # boundary positions contribute empty products
    assert word.subword_perms(1)[3].is_identity()
    assert word.subword_perms(9)[1].is_identity()


def test_double_word_validation():
    with pytest.raises(NotReducedWord):
        DoubleWord(3, (1, 1))
    with pytest.raises(NotReducedWord):
        DoubleWord(3, (-2, -2))
    with pytest.raises(NotReducedWord):
        DoubleWord(3, (3,))
    with pytest.raises(NotReducedWord):
        DoubleWord(3, (0,))
    DoubleWord(3, (1, -1, 2, -2))  # shuffles of distinct letters are fine


def test_a_bool_is_neither_a_letter_nor_an_image():
    # True == 1, so a bool would pass the range tests and print as "True"
    for letters in ((True, 2), (-2, False), (1.0, 2)):
        with pytest.raises(NotReducedWord, match="letter"):
            DoubleWord(3, letters)
    for images in ((True, 2), (2, True), (1.0, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)


def test_double_word_text_round_trip():
    word = DoubleWord(4, (-2, 1, -3, 3, 2, -1, -2, 1, -1))
    assert DoubleWord.from_text(word.to_text(), 4) == word
    assert DoubleWord.from_text("", 3).length == 0


def test_double_reduced_words_enumeration():
    u = Permutation((2, 1, 3))
    v = Permutation((1, 3, 2))
    words = double_reduced_words(u, v)
    assert len(words) == 2  # one letter each, two shuffles
    w0 = Permutation.longest(3)
    full = double_reduced_words(w0, w0)
    assert len(full) == 80  # 2 words x 2 words x C(6,3) shuffles
    assert len(double_reduced_words(w0, w0, limit=5)) == 5
    for word in full[:10]:
        assert word.u() == w0 and word.v() == w0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_double_word_is_valid(seed):
    rng = random.Random(seed)
    perms = all_permutations(4)
    u, v = rng.choice(perms), rng.choice(perms)
    word = random_double_word(u, v, rng)
    assert word.u() == u and word.v() == v
    assert word.length == u.length() + v.length()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_subword_tables_equal_the_written_out_products(n, rng):
    # the definition, multiplied out letter by letter: a letter of the wrong
    # sign contributes the identity, u-side products run last letter first
    perms = all_permutations(n)
    u, v = rng.choice(perms), rng.choice(perms)
    word = random_double_word(u, v, rng)
    letters, m = word.letters, word.length
    e = Permutation.identity(n)

    def u_product(start):
        acc = e
        for pos in range(m, start - 1, -1):
            if letters[pos - 1] < 0:
                acc = acc * Permutation.simple(-letters[pos - 1], n)
        return acc

    def v_product(stop):
        acc = e
        for pos in range(1, stop + 1):
            if letters[pos - 1] > 0:
                acc = acc * Permutation.simple(letters[pos - 1], n)
        return acc

    u_left_to_right = e
    for l in letters:
        if l < 0:
            u_left_to_right = u_left_to_right * Permutation.simple(-l, n)
    assert word.u() == u == u_left_to_right
    assert word.v() == v == v_product(m)
    for k in range(1, m + 1):
        expected = (u_product(k), u_product(k + 1), v_product(k), v_product(k - 1))
        assert word.subword_perms(k) == expected
    for k in (0, m + 1):
        with pytest.raises(IndexOutOfRange):
            word.subword_perms(k)
    # the tables are not fields: equality, hash and repr see (n, letters) only
    twin = DoubleWord(n, list(letters))
    assert twin == word and hash(twin) == hash(word)
    assert repr(word) == f"DoubleWord(n={n}, letters={letters!r})"
