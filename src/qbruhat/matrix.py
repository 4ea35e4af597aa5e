"""Dense matrices over a division-ring scalar, with 1-based public indexing.

Every formula this package implements is stated with 1-based rows and
columns, so the public surface is 1-based throughout: ``x[i, j]`` addresses
row i, column j with ``1 <= i <= x.rows``.  Off-by-one drift is the main
implementation hazard in this domain and a single convention at the boundary
keeps it contained.

Matrices are immutable; all operations return new matrices and are safe to
share across threads.  Scalar multiplication is never assumed commutative:
row operations multiply on the left, column operations on the right.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexOutOfRange, NotGeneric, ShapeMismatch, ZeroInverse
from .scalars import (
    RationalQuaternion,
    _exact,
    equal,
    format_scalar,
    inv,
    is_zero,
    parse_scalar,
)


def interval(a: int, b: int) -> tuple:
    """The index interval {a, a+1, ..., b}; empty when a > b.  Both ends must be ints."""
    return tuple(range(check_index(a, None), check_index(b, None) + 1))


def check_index(i, bound: int | None, what: str = "index") -> int:
    """The one rule for a 1-based index: an int, not a bool, in [1, bound] unless bound is None."""
    if type(i) is not int:
        raise IndexOutOfRange(f"{what} {i!r} is not an integer")
    if bound is not None and not 1 <= i <= bound:
        raise IndexOutOfRange(f"{what} {i} outside [1, {bound}]")
    return i


def check_index_set(indices, bound: int) -> tuple:
    """Validate a strictly increasing 1-based index set within [1, bound] by ``check_index``."""
    out = tuple(indices)
    for pos, idx in enumerate(out):
        check_index(idx, bound)
        if pos > 0 and out[pos - 1] >= idx:
            raise IndexOutOfRange(f"index set {out} is not strictly increasing")
    return out


class Matrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        data = tuple(tuple(_exact(e) for e in row) for row in entries)
        if not data or not data[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_e", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _wrap(cls, rows: tuple) -> "Matrix":
        """A matrix from a nonempty tuple of equal-length row tuples of scalars.

        Internal: the entries are already scalars (never raw ints), so the
        coercion and shape checks of ``__init__`` are skipped.
        """
        out = object.__new__(cls)
        _set_rows(out, len(rows))
        _set_cols(out, len(rows[0]))
        _set_e(out, rows)
        return out

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return cls([[0] * m for _ in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "Matrix":
        """The matrix unit E_{ij}: `value` at (i, j), zero elsewhere."""
        check_index(i, n)
        check_index(j, n)
        return cls(
            [[value if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]
        )

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        if type(key) is not tuple or len(key) != 2:
            raise IndexOutOfRange(f"entry key {key!r} is not a pair (i, j)")
        i, j = key
        check_index(i, None)
        check_index(j, None)
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRange(
                f"entry ({i}, {j}) outside [1, {self.rows}] x [1, {self.cols}]"
            )
        return self._e[i - 1][j - 1]

    def to_lists(self) -> list:
        """Plain 0-based list-of-lists copy of the entries."""
        return [list(row) for row in self._e]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # entrywise ``scalars.equal``: ``==`` on stored forms, else is_zero(a - b)
        return all(
            equal(a, b) for ra, rb in zip(self._e, other._e) for a, b in zip(ra, rb)
        )

    __hash__ = None  # no hash of the entries follows ``equal``'s fallback to is_zero(a - b)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.shape_str()} + {other.shape_str()}")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.shape_str()} - {other.shape_str()}")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)]
        )

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self._e])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape_str()} * {other.shape_str()}")
        cols = list(zip(*other._e))
        return Matrix._wrap(tuple(tuple(_dot(row, col) for col in cols) for row in self._e))

    # -- structured products --------------------------------------------------
    # Each helper equals the dense product with an elementary, signed
    # permutation or diagonal factor exactly, but does only the scalar work
    # that factor needs: O(rows) for a letter, none for a permutation.

    def _right_letter(self, letter: int, t) -> "Matrix":
        """x * x_i(t) for letter i > 0, x * x_{-i}(t) for letter -i.

        x_i(t) = 1 + t E_{i,i+1} adds column i times t to column i+1;
        x_{-i}(t) has the block [[t^-1, 0], [1, t]] at rows and columns
        i, i+1, so column i becomes col_i t^-1 + col_{i+1} and column i+1
        becomes col_{i+1} t.  A term with an exact zero entry of columns i,
        i+1 is skipped, so a zero makes no product or sum: a row with a zero
        in column i is kept as it is by x_i(t).
        """
        check_index(letter, None, "generator index")
        k = check_index(abs(letter), self.cols - 1, "generator index")
        if letter < 0:
            if is_zero(t):
                raise ZeroInverse(f"x_-{k}(t) needs invertible t")
            t_inv = inv(t)
        rows = []
        for r in self._e:
            a, b = r[k - 1], r[k]
            if letter > 0:
                if not is_zero(a):
                    r = r[:k] + (a * t if is_zero(b) else b + a * t,) + r[k + 1 :]
            elif is_zero(b):
                if not is_zero(a):
                    r = r[: k - 1] + (a * t_inv,) + r[k:]
            elif is_zero(a):
                r = r[: k - 1] + (b, b * t) + r[k + 1 :]
            else:
                r = r[: k - 1] + (a * t_inv + b, b * t) + r[k + 1 :]
            rows.append(r)
        return Matrix._wrap(tuple(rows))

    def _permute_rows(self, src, signs) -> "Matrix":
        """P * x for P with signs[i] (+-1) at (i, src[i]): row i is +-row src[i]."""
        if len(src) != self.rows or len(signs) != self.rows:
            raise ShapeMismatch(f"row permutation of size {len(src)} on {self.shape_str()}")
        e = self._e
        return Matrix._wrap(
            tuple(e[k - 1] if s > 0 else tuple(-a for a in e[k - 1]) for k, s in zip(src, signs))
        )

    def _permute_cols(self, src, signs) -> "Matrix":
        """x * Q for Q with signs[j] (+-1) at (src[j], j): column j is +-column src[j]."""
        if len(src) != self.cols or len(signs) != self.cols:
            raise ShapeMismatch(f"column permutation of size {len(src)} on {self.shape_str()}")
        picks = tuple((k - 1, s > 0) for k, s in zip(src, signs))
        return Matrix._wrap(
            tuple(tuple(r[k] if plus else -r[k] for k, plus in picks) for r in self._e)
        )

    def _scale_rows(self, d) -> "Matrix":
        """diag(d) * x: row i multiplied by d[i] from the left."""
        if len(d) != self.rows:
            raise ShapeMismatch(f"{len(d)} row scales for {self.shape_str()}")
        return Matrix._wrap(tuple(tuple(s * a for a in r) for s, r in zip(d, self._e)))

    def _scale_cols(self, d) -> "Matrix":
        """x * diag(d): column j multiplied by d[j] from the right."""
        if len(d) != self.cols:
            raise ShapeMismatch(f"{len(d)} column scales for {self.shape_str()}")
        return Matrix._wrap(tuple(tuple(a * s for a, s in zip(r, d)) for r in self._e))

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._e)))

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in row] for row in self._e])

    def submatrix(self, I, J) -> "Matrix":
        I = check_index_set(I, self.rows)
        J = check_index_set(J, self.cols)
        if not I or not J:
            raise ShapeMismatch("empty submatrix")
        return Matrix([[self._e[i - 1][j - 1] for j in J] for i in I])

    def inverse(self) -> "Matrix":
        """Exact inverse: minus the Schur complement of x in [[x, 1], [1, 0]].

        ``_schur_chain`` pivots the top n rows of that 2n x 2n matrix, built
        from a - a and a - a + 1 for x's first entry a, and x^-1[i, j] is
        -S[n+i, n+j].  Raises NotGeneric with witness ("pivot", k), k the
        first column of x without a pivot.
        """
        if not self.is_square:
            raise ShapeMismatch(f"cannot invert {self.shape_str()}")
        n = self.rows
        a = self._e[0][0]
        zero = a - a
        one = zero + 1
        units = [tuple(one if c == i else zero for c in range(n)) for i in range(n)]
        e = [row + u for row, u in zip(self._e, units)] + [u + (zero,) * n for u in units]
        Q, block = _schur_chain(e, interval(1, n), interval(1, n))
        if len(Q) < n:
            k = next((i for i, c in enumerate(Q, start=1) if i != c), len(Q) + 1)
            raise NotGeneric(f"matrix is singular: no pivot in column {k}", witness=("pivot", k))
        tail = interval(n + 1, 2 * n)
        return Matrix._wrap(tuple(tuple(-block.entry(i, j) for j in tail) for i in tail))

    # -- shape predicates -----------------------------------------------------

    def is_upper_triangular(self) -> bool:
        return all(
            is_zero(self._e[i][j]) for i in range(self.rows) for j in range(min(i, self.cols))
        )

    def is_lower_triangular(self) -> bool:
        return all(
            is_zero(self._e[i][j])
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_diagonal(self) -> bool:
        return self.is_upper_triangular() and self.is_lower_triangular()

    def is_unitriangular(self, kind: str = "upper") -> bool:
        if not self.is_square:
            return False
        shape_ok = self.is_upper_triangular() if kind == "upper" else self.is_lower_triangular()
        return shape_ok and all(equal(self._e[i][i], 1) for i in range(self.rows))

    def is_identity(self) -> bool:
        return self.is_square and self == Matrix.identity(self.rows)

    # -- io -------------------------------------------------------------------

    def shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    def __repr__(self):
        body = "; ".join(
            " ".join(format_scalar(a) if _formattable(a) else repr(a) for a in row)
            for row in self._e
        )
        return f"Matrix[{self.shape_str()}]({body})"


_set_rows = Matrix.__dict__["rows"].__set__
_set_cols = Matrix.__dict__["cols"].__set__
_set_e = Matrix.__dict__["_e"].__set__


def _dot(row, col):
    it = zip(row, col)
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


class _Block:
    """x[P, Q] as one pivot step on its parent block (P - a, Q - b).

    By the quotient property (Crabtree-Haynsworth 1969) the Schur complement
    of (P, Q) is a 1x1 pivot step on the parent's, with pivot
    s = S_par[a, b]:

        S[r, q] = S_par[r, q] - S_par[r, b] s^{-1} S_par[a, q].

    A block keeps s^{-1}, mu_q = s^{-1} S_par[a, q] for each column asked so
    far, and its Schur entries ``rows[r][q]`` = S_par[r, q] - S_par[r, b] mu_q,
    each computed on its first read; over a skew field the factors keep that
    order.  The empty block has no parent: its entries are x's own, all
    filled at the start.
    """

    __slots__ = ("parent", "a", "b", "pivot_inv", "mu", "rows")

    def __init__(self, parent, a, b, pivot_inv, rows):
        self.parent, self.a, self.b, self.pivot_inv = parent, a, b, pivot_inv
        self.mu, self.rows = {}, rows

    @classmethod
    def empty(cls, e):
        """The empty block of the matrix whose rows are the 0-based tuples `e`."""
        own = {r: dict(enumerate(row, start=1)) for r, row in enumerate(e, start=1)}
        return cls(None, 0, 0, None, own)

    def entry(self, r: int, q: int):
        """S[r, q] for a row r outside P and a column q outside Q, 1-based."""
        row = self.rows.get(r)
        if row is None:
            row = self.rows[r] = {}
        value = row.get(q)
        if value is None:
            parent, mu = self.parent, self.mu.get(q)
            if mu is None:
                mu = self.mu[q] = self.pivot_inv * parent.entry(self.a, q)
            value = row[q] = parent.entry(r, q) - parent.entry(r, self.b) * mu
        return value


def _schur_chain(e, P, J):
    """(Q, block): the block x[P', Q] reached by pivot steps from the empty block.

    `e` holds the rows of x as 0-based tuples; P and J are 1-based.  Each row
    a of P in turn pivots on the first column of J not yet pivoted whose
    Schur entry ``block.entry(a, c)`` is nonzero, and is skipped when it has
    none; P' are the rows that pivot.  So Q, sorted, is the column rank
    profile of x[P, J] (the leading columns of any echelon form) when J
    increases, and ``block`` holds the Schur complement of x[P', Q].
    """
    block, Q = _Block.empty(e), []
    for a in P:
        b = next((c for c in J if c not in Q and not is_zero(block.entry(a, c))), None)
        if b is not None:
            block = _Block(block, a, b, inv(block.entry(a, b)), {})
            Q.append(b)
    return tuple(sorted(Q)), block


def _formattable(a):
    return isinstance(a, (int, Fraction, RationalQuaternion))


def sigma(x: Matrix) -> Matrix:
    """The 180-degree rotation sigma(x)[i, j] = x[n+1-i, n+1-j]; involutive."""
    if not x.is_square:
        raise ShapeMismatch("sigma needs a square matrix")
    return Matrix._wrap(tuple(row[::-1] for row in reversed(x._e)))


def iota(x: Matrix) -> Matrix:
    """The positive inverse J x^{-1} J, an involutive antiautomorphism.

    Fixes the elementary unitriangular generators and inverts diagonal
    matrices entrywise.
    """
    return iota_inverse_free(x.inverse())


def iota_inverse_free(x: Matrix) -> Matrix:
    """(x^iota)^{-1} = J x J: the odd-parity entries flip sign, nothing is inverted."""
    return Matrix._wrap(
        tuple(
            tuple(a if (i + j) % 2 == 0 else -a for j, a in enumerate(row))
            for i, row in enumerate(x._e)
        )
    )


def rank(x: Matrix) -> int:
    """Rank over the scalar's division ring: the number of rows ``_schur_chain`` pivots."""
    return len(_schur_chain(x._e, interval(1, x.rows), interval(1, x.cols))[0])


# -- JSON wire format ---------------------------------------------------------


def matrix_to_json(x: Matrix) -> dict:
    """{"n": rows, "m": cols, "entries": [[scalar strings]]}, bit-exact."""
    return {
        "n": x.rows,
        "m": x.cols,
        "entries": [[format_scalar(a) for a in row] for row in x.to_lists()],
    }


def matrix_from_json(payload: dict) -> Matrix:
    """Parse the wire form; the shape and entry types are checked before parsing.

    Malformed payloads raise ValueError (ShapeMismatch when the entries do
    not match the declared n x m), never a TypeError or AttributeError; n
    and m must be JSON integers, not booleans or floats.
    """
    try:
        n, m, entries = payload["n"], payload["m"], payload["entries"]
    except (TypeError, KeyError) as exc:
        raise ValueError("matrix JSON needs keys n, m, entries") from exc
    if not all(type(d) is int for d in (n, m)):
        raise ValueError("matrix JSON n and m must be integers")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("matrix JSON entries must be a list of rows")
    if not all(isinstance(a, str) for row in entries for a in row):
        raise ValueError("matrix JSON entries must be scalar strings")
    parsed = [[parse_scalar(s) for s in row] for row in entries]
    if len(parsed) != n or any(len(row) != m for row in parsed):
        raise ShapeMismatch(f"entries do not match declared shape {n}x{m}")
    if any(isinstance(a, RationalQuaternion) for row in parsed for a in row):
        parsed = [
            [a if isinstance(a, RationalQuaternion) else RationalQuaternion(a) for a in row]
            for row in parsed
        ]
    return Matrix(parsed)
