"""Symmetric group combinatorics: permutations, reduced words, double words.

Conventions, fixed once and mirrored by every other module:

* Permutations act on {1, ..., n}; composition is functional,
  ``(u * v)(i) = u(v(i))``.
* The permutation matrix of w has a 1 at (w(j), j), so ``matrix(u * v) =
  matrix(u) * matrix(v)``.
* A reduced word ``(i_1, ..., i_l)`` multiplies left to right:
  ``w = s_{i_1} s_{i_2} ... s_{i_l}``.
* A double word mixes negative letters (a reduced word for u, read left to
  right on absolute values) with positive letters (a reduced word for v).
  Subword permutations use the convention that a letter of the wrong sign
  contributes the identity, and the u-side products run from the end of the
  word backwards.  ``DoubleWord`` builds all of them, the suffix products
  u_{>=k} and the prefix products v_{<=k}, in the one pass that validates
  the word; ``subword_perms``, ``u()`` and ``v()`` only read those tables.

The signed representative of s_i is the 2x2 block [[0, -1], [1, 0]]; signed
representatives multiply along any reduced word to the same matrix, which is
what makes ``representative`` well defined.  That matrix is a signed
permutation matrix, +-1 at (w(j), j), so products with it or with its
inverse (its transpose) are signed row or column permutations:
``left_by_representative`` and ``right_by_representative`` apply them
without a scalar product.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .errors import NotReducedWord
from .matrix import Matrix, check_index
from .scalars import parse_int


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if any(type(a) is not int for a in images) or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        """The simple transposition s_i = (i, i+1)."""
        check_index(i, n - 1, "simple reflection index")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(images)

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        check_index(i, len(self.images))
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({', '.join(map(str, self.images))})"

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.n))

    def length(self) -> int:
        """Number of inversions."""
        return sum(
            1
            for a in range(self.n)
            for b in range(a + 1, self.n)
            if self.images[a] > self.images[b]
        )

    def right_descents(self):
        return [i for i in range(1, self.n) if self.images[i - 1] > self.images[i]]

    def right_multiply_simple(self, i: int) -> "Permutation":
        """w * s_i, swapping the values at positions i, i+1."""
        images = list(self.images)
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(images)

    def reduced_word(self) -> tuple:
        """A deterministic reduced word (always the smallest descent).

        Replaying the word left to right through ``simple`` recovers w.
        """
        return _descent_word(self, min)

    def matrix(self) -> Matrix:
        """The plain (unsigned) permutation matrix, 1 at (w(j), j)."""
        n = self.n
        return Matrix(
            [[1 if i == self.images[j] else 0 for j in range(n)] for i in range(1, n + 1)]
        )


def all_permutations(n: int):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def reduced_words(w: Permutation):
    """All reduced words of w, each multiplying left to right."""
    if w.is_identity():
        return [()]
    out = []
    for i in w.right_descents():
        for word in reduced_words(w.right_multiply_simple(i)):
            out.append(word + (i,))
    return out


def _descent_word(w: Permutation, pick) -> tuple:
    """A reduced word of w: strip the right descent `pick` chooses until none is left."""
    collected = []
    while descents := w.right_descents():
        i = pick(descents)
        collected.append(i)
        w = w.right_multiply_simple(i)
    return tuple(reversed(collected))


def random_reduced_word(w: Permutation, rng: random.Random) -> tuple:
    return _descent_word(w, rng.choice)


def simple_representative(i: int, n: int) -> Matrix:
    """The signed representative of s_i (a 2x2 rotation block)."""
    return representative(Permutation.simple(i, n))


@functools.lru_cache(maxsize=4096)
def _signed_permutation(w: Permutation):
    """(images, signs, inverse images, signs along the inverse) of representative(w).

    representative(w) has signs[j] at (w(j), j).  Right multiplication by
    the representative of s_i swaps columns i, i+1 and negates the new
    column i+1, so the signs follow the reduced word in O(l(w)) steps.
    """
    signs = [1] * w.n
    for i in w.reduced_word():
        signs[i - 1], signs[i] = signs[i], -signs[i - 1]
    inv_images = w.inverse().images
    return w.images, tuple(signs), inv_images, tuple(signs[j - 1] for j in inv_images)


@functools.lru_cache(maxsize=4096)
def representative(w: Permutation) -> Matrix:
    """The signed representative, independent of the reduced word chosen."""
    images, signs, _, _ = _signed_permutation(w)
    entries = [[0] * w.n for _ in range(w.n)]
    for j, (row, sign) in enumerate(zip(images, signs)):
        entries[row - 1][j] = sign
    return Matrix(entries)


def left_by_representative(w: Permutation, x: Matrix, inverse: bool = False) -> Matrix:
    """representative(w) * x, or its inverse times x, as a signed row permutation."""
    images, signs, inv_images, inv_signs = _signed_permutation(w)
    if inverse:
        # the inverse is the transpose: signs[j] at (j, w(j))
        return x._permute_rows(images, signs)
    return x._permute_rows(inv_images, inv_signs)


def right_by_representative(x: Matrix, w: Permutation, inverse: bool = False) -> Matrix:
    """x * representative(w), or x times its inverse, as a signed column permutation."""
    images, signs, inv_images, inv_signs = _signed_permutation(w)
    if inverse:
        return x._permute_cols(inv_images, inv_signs)
    return x._permute_cols(images, signs)


def longest_in_range(i: int, n: int) -> Permutation:
    """The longest element of the parabolic generated by s_i, ..., s_{n-1}.

    Reverses the interval [i, n] and fixes everything before it.
    """
    check_index(i, n)
    return Permutation([j if j < i else n + i - j for j in range(1, n + 1)])


@dataclass(frozen=True)
class DoubleWord:
    """A shuffled double reduced word with signed letters.

    Negative letters spell a reduced word for u (left to right, on absolute
    values), positive letters a reduced word for v.  Validation is eager: a
    non-reduced component raises NotReducedWord.

    The one validating pass stores the subword permutations as two tables,
    plain attributes outside the dataclass fields (equality, hash and repr
    see ``(n, letters)`` only): ``u_from[k]`` = u_{>=k} for k = 1..m+1, built
    from the last letter backwards, and ``v_upto[k]`` = v_{<=k} for
    k = 0..m.  Index 0 of ``u_from`` is unused.
    """

    n: int
    letters: tuple = field()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if type(l) is not int or l == 0 or abs(l) > self.n - 1:
                raise NotReducedWord(
                    f"letter {l!r} outside +-[1, {self.n - 1}] for n = {self.n}"
                )
        n, m, e = self.n, len(self.letters), Permutation.identity(self.n)
        u_from, v_upto = [None] * (m + 1) + [e], [e]
        for k in range(m, 0, -1):
            l = self.letters[k - 1]
            u_from[k] = u_from[k + 1] * Permutation.simple(-l, n) if l < 0 else u_from[k + 1]
        for l in self.letters:
            v_upto.append(v_upto[-1] * Permutation.simple(l, n) if l > 0 else v_upto[-1])
        object.__setattr__(self, "u_from", tuple(u_from))
        object.__setattr__(self, "v_upto", tuple(v_upto))
        # u_{>=1} = u^{-1} has as many inversions as u
        if u_from[1].length() != sum(1 for l in self.letters if l < 0):
            raise NotReducedWord(f"negative letters of {self.letters} are not reduced")
        if v_upto[m].length() != sum(1 for l in self.letters if l > 0):
            raise NotReducedWord(f"positive letters of {self.letters} are not reduced")

    @property
    def length(self) -> int:
        return len(self.letters)

    def u(self) -> Permutation:
        return self.u_from[1].inverse()

    def v(self) -> Permutation:
        return self.v_upto[-1]

    def subword_perms(self, k: int):
        """(u_{>=k}, u_{>k}, v_{<=k}, v_{<k}) for position k in [1, m].

        The u-side products run from the last letter down to k; letters of
        the wrong sign contribute the identity.
        """
        check_index(k, len(self.letters), "position")
        return self.u_from[k], self.u_from[k + 1], self.v_upto[k], self.v_upto[k - 1]

    @classmethod
    def from_text(cls, text: str, n: int) -> "DoubleWord":
        text = text.strip()
        letters = () if not text else tuple(parse_int(p) for p in text.split(","))
        return cls(n, letters)

    def to_text(self) -> str:
        return ",".join(str(l) for l in self.letters)


def shuffles(a: tuple, b: tuple):
    """All interleavings of a and b preserving internal order."""
    m = len(a) + len(b)
    for positions in itertools.combinations(range(m), len(a)):
        out = [None] * m
        it_a = iter(a)
        for p in positions:
            out[p] = next(it_a)
        it_b = iter(b)
        for p in range(m):
            if out[p] is None:
                out[p] = next(it_b)
        yield tuple(out)


def double_reduced_words(u: Permutation, v: Permutation, limit: int | None = None):
    """Double reduced words for (u, v); optionally only the first `limit`."""
    n = u.n
    out = []
    for wu in reduced_words(u):
        for wv in reduced_words(v):
            for mixed in shuffles(tuple(-i for i in wu), wv):
                out.append(DoubleWord(n, mixed))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def random_double_word(u: Permutation, v: Permutation, rng: random.Random) -> DoubleWord:
    wu = tuple(-i for i in random_reduced_word(u, rng))
    wv = random_reduced_word(v, rng)
    letters = []
    a, b = list(wu), list(wv)
    while a or b:
        take_a = a and (not b or rng.random() < len(a) / (len(a) + len(b)))
        letters.append(a.pop(0) if take_a else b.pop(0))
    return DoubleWord(u.n, tuple(letters))
