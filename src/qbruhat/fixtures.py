"""Worked factorization examples, verified symbolically over commuting symbols.

Each fixture builds its matrices from sympy symbols, pushes them through
the same generic machinery as the exact scalars, and checks the closed
formulas as identities of rational functions (decided exactly by
``cancel``).  The commutative run catches transcription errors in the
index bookkeeping; the noncommutative multiplication order is exercised
by the quaternion twins in the test suite.

Fixtures double as the payload of the CLI ``demo`` subcommand, which
prints the recovered symbolic expressions.  Each function that needs sympy
imports it, so only ``demo`` pays the import, not every CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .factorize import (
    product_map,
    solve_standard_unipotent,
    standard_position,
    standard_word,
    upper_factorize,
)
from .gauss import ldu, lower_solve
from .matrix import Matrix, interval
from .quasidet import MinorSpec, boxed_quasiminor, positive_quasiminor
from .scalars import equal, inv
from .weyl import DoubleWord


@dataclass
class FixtureReport:
    name: str
    checks: list = field(default_factory=list)
    display: dict = field(default_factory=dict)

    def check(self, label: str, lhs, rhs):
        if isinstance(lhs, Matrix):
            ok = lhs == rhs
        else:
            ok = equal(lhs, rhs)
        self.checks.append((label, bool(ok)))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self):
        out = [f"fixture {self.name}:"]
        for key, value in self.display.items():
            out.append(f"  {key} = {value}")
        for label, ok in self.checks:
            out.append(f"  [{'ok' if ok else 'FAIL'}] {label}")
        out.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return out


def _symbol_matrix(n: int, name: str = "x") -> Matrix:
    import sympy as sp
    return Matrix(
        [[sp.Symbol(f"{name}{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def _show(expr) -> str:
    import sympy as sp
    return sp.sstr(sp.cancel(sp.together(expr)))


def fixture_borel3() -> FixtureReport:
    """Factorization of an upper triangular 3x3 into torus times three factors."""
    import sympy as sp
    rep = FixtureReport("borel3")
    d = sp.symbols("d1 d2 d3")
    t12, t13, t23 = sp.symbols("t12 t13 t23")
    word = DoubleWord(3, (1, 2, 1))
    x = product_map(word, [t12, t13, t23], list(d))
    rep.check("product has the stated middle factor", x[1, 2], d[0] * (t12 + t23))
    rep.check("t13 = x22^-1 x23", inv(x[2, 2]) * x[2, 3], t13)
    rep.check("t12 = x11^-1 x13 x23^-1 x22", inv(x[1, 1]) * x[1, 3] * inv(x[2, 3]) * x[2, 2], t12)
    rep.check(
        "t23 = x11^-1 (boxed quasiminor at (1,2) of rows 12, cols 23)",
        inv(x[1, 1]) * boxed_quasiminor(x, (1, 2), (2, 3), 1, 2),
        t23,
    )

    y = Matrix(
        [
            [sp.Symbol("x11"), sp.Symbol("x12"), sp.Symbol("x13")],
            [0, sp.Symbol("x22"), sp.Symbol("x23")],
            [0, 0, sp.Symbol("x33")],
        ]
    )
    s13 = inv(y[2, 2]) * y[2, 3]
    s12 = inv(y[1, 1]) * y[1, 3] * inv(y[2, 3]) * y[2, 2]
    s23 = inv(y[1, 1]) * boxed_quasiminor(y, (1, 2), (2, 3), 1, 2)
    rebuilt = product_map(word, [s12, s13, s23], [y[1, 1], y[2, 2], y[3, 3]])
    rep.check("replay from entry formulas reproduces x", rebuilt, y)
    rep.display["t13"] = _show(s13)
    rep.display["t12"] = _show(s12)
    rep.display["t23"] = _show(s23)
    return rep


def fixture_gl3() -> FixtureReport:
    """Full 3x3 factorization along the word (-2,-1,-2,2,1,2)."""
    import sympy as sp
    rep = FixtureReport("gl3")
    x = _symbol_matrix(3)
    h3 = x[3, 1]
    h2 = -boxed_quasiminor(x, (2, 3), (1, 2), 2, 2)
    h1 = boxed_quasiminor(x, (1, 2, 3), (1, 2, 3), 1, 3)
    t6 = inv(x[1, 2]) * x[1, 3]
    t5 = inv(x[1, 1]) * x[1, 2]
    t4 = inv(boxed_quasiminor(x, (1, 2), (1, 2), 2, 2)) * boxed_quasiminor(
        x, (1, 2), (2, 3), 2, 3
    )
    t1 = -inv(x[2, 1]) * boxed_quasiminor(x, (2, 3), (1, 2), 2, 2)
    t2 = inv(x[1, 1]) * h1
    t3 = -inv(boxed_quasiminor(x, (1, 2), (1, 2), 1, 2)) * h1
    word = DoubleWord(3, (-2, -1, -2, 2, 1, 2))
    rebuilt = product_map(word, [t1, t2, t3, t4, t5, t6], [h1, h2, h3])
    rep.check("replay of the displayed quasiminor formulas reproduces x", rebuilt, x)

    hs = sp.symbols("h1 h2 h3")
    ts = sp.symbols("t1 t2 t3")
    lower = product_map(DoubleWord(3, (-2, -1, -2)), ts, hs)
    stated = Matrix(
        [
            [hs[0] / ts[1], 0, 0],
            [hs[1] / ts[0], hs[1] / ts[0] * ts[1] / ts[2], 0],
            [hs[2], hs[2] * (ts[0] + ts[1] / ts[2]), hs[2] * ts[0] * ts[2]],
        ]
    )
    rep.check("lower part h x_-2 x_-1 x_-2 matches its displayed matrix", lower, stated)
    rep.display["h3"] = _show(h3)
    rep.display["h2"] = _show(h2)
    rep.display["t5"] = _show(t5)
    rep.display["t6"] = _show(t6)
    rep.display["t4"] = _show(t4)
    return rep


def fixture_unipotent4() -> FixtureReport:
    """Unitriangular 4x4 factorization along the standard word."""
    import sympy as sp
    rep = FixtureReport("unipotent4")
    names = {(i, j): sp.Symbol(f"t{i}{j}") for i in range(1, 4) for j in range(i + 1, 5)}
    word = standard_word(4)
    params = [None] * word.length
    for (i, j), symbol in names.items():
        params[standard_position(i, j, 4) - 1] = symbol
    x = product_map(word, params)
    t12, t13, t14 = names[(1, 2)], names[(1, 3)], names[(1, 4)]
    t23, t24, t34 = names[(2, 3)], names[(2, 4)], names[(3, 4)]
    stated = Matrix(
        [
            [1, t12 + t23 + t34, t12 * t13 + t12 * t24 + t23 * t24, t12 * t13 * t14],
            [0, 1, t13 + t24, t13 * t14],
            [0, 0, 1, t14],
            [0, 0, 0, 1],
        ]
    )
    rep.check("the product matrix matches its displayed entries", x, stated)
    recovered = solve_standard_unipotent(x)
    rep.check(
        "solve_standard_unipotent recovers every parameter",
        Matrix([recovered]),
        Matrix([params]),
    )
    rep.check("t14 = x34", x[3, 4], t14)
    rep.check("t13 = x24 x34^-1", x[2, 4] * inv(x[3, 4]), t13)
    rep.check("t12 = x14 x24^-1", x[1, 4] * inv(x[2, 4]), t12)
    rep.check("t24 as a 2x2 boxed quasiminor", boxed_quasiminor(x, (2, 3), (3, 4), 2, 3), t24)
    rep.check(
        "t23 as a ratio of 2x2 boxed quasiminors",
        boxed_quasiminor(x, (1, 2), (3, 4), 1, 3)
        * inv(boxed_quasiminor(x, (2, 3), (3, 4), 2, 3)),
        t23,
    )
    rep.check("t34 as a 3x3 boxed quasiminor", boxed_quasiminor(x, (1, 2, 3), (2, 3, 4), 1, 2), t34)
    rep.display["t14"] = _show(x[3, 4])
    rep.display["t13"] = _show(x[2, 4] * inv(x[3, 4]))
    rep.display["t24"] = _show(boxed_quasiminor(x, (2, 3), (3, 4), 2, 3))
    return rep


def fixture_negative3() -> FixtureReport:
    """Torus times negative blocks times unitriangular residue, n = 3."""
    import sympy as sp
    rep = FixtureReport("negative3")
    x = _symbol_matrix(3)
    h = [
        positive_quasiminor(x, MinorSpec(interval(m, 3), interval(1, 4 - m), m, 4 - m))
        for m in (1, 2, 3)
    ]
    rep.check("h3 = x31", h[2], x[3, 1])
    rep.check("h2 = -(boxed at (2,2) of rows 23, cols 12)", h[1], -boxed_quasiminor(x, (2, 3), (1, 2), 2, 2))
    rep.check("h1 = boxed at (1,3) of the full matrix", h[0], boxed_quasiminor(x, (1, 2, 3), (1, 2, 3), 1, 3))
    big = positive_quasiminor(x, MinorSpec((1, 2, 3), (1, 2, 3), 1, 3))
    tau11 = inv(x[1, 1]) * big
    tau12 = inv(positive_quasiminor(x, MinorSpec((1, 2), (1, 2), 1, 2))) * big
    tau22 = inv(x[2, 1]) * positive_quasiminor(x, MinorSpec((2, 3), (1, 2), 2, 2))
    for (m, k), value in (((1, 1), tau11), ((1, 2), tau12), ((2, 2), tau22)):
        den = positive_quasiminor(
            x, MinorSpec(interval(m, k), interval(1, k + 1 - m), m, k + 1 - m)
        )
        rep.check(f"tau{m}{k} from the general formula", inv(den) * h[m - 1], value)
    prefix = product_map(DoubleWord(3, (-2, -1, -2)), [tau22, tau11, tau12], h)
    residue = lower_solve(prefix, x)[1]
    rep.check("residue is upper unitriangular", residue[2, 1], sp.Integer(0))
    rep.check("residue is upper unitriangular (3,1)", residue[3, 1], sp.Integer(0))
    rep.check("residue is upper unitriangular (3,2)", residue[3, 2], sp.Integer(0))
    for i in (1, 2, 3):
        rep.check(f"residue has unit diagonal ({i},{i})", residue[i, i], sp.Integer(1))
    rep.check("replay reproduces x", prefix * residue, x)
    rep.display["h3"] = _show(h[2])
    rep.display["tau11"] = _show(tau11)
    rep.display["tau22"] = _show(tau22)
    return rep


def fixture_upper3() -> FixtureReport:
    """The n = 3 staged upper factorization with its displayed stage matrices."""
    rep = FixtureReport("upper3")
    x = _symbol_matrix(3)
    uf = upper_factorize(x)
    b23 = boxed_quasiminor(x, (1, 2), (2, 3), 2, 3)
    b33 = boxed_quasiminor(x, (1, 3), (2, 3), 3, 3)
    c22 = boxed_quasiminor(x, (1, 2), (1, 2), 2, 2)
    c32 = boxed_quasiminor(x, (1, 3), (1, 2), 3, 2)
    stage12 = Matrix(
        [[x[1, 1], x[1, 2], 0], [x[2, 1], x[2, 2], b23], [x[3, 1], x[3, 2], b33]]
    )
    stage11 = Matrix(
        [[x[1, 1], 0, 0], [x[2, 1], c22, b23], [x[3, 1], c32, b33]]
    )
    stage22 = Matrix(
        [
            [x[1, 1], 0, 0],
            [x[2, 1], c22, 0],
            [x[3, 1], c32, boxed_quasiminor(x, (1, 2, 3), (1, 2, 3), 3, 3)],
        ]
    )
    rep.check("stage (1,2) matches the displayed matrix", uf.stage(1, 2), stage12)
    rep.check("stage (1,1) matches the displayed matrix", uf.stage(1, 1), stage11)
    rep.check("stage (2,2) matches the displayed matrix", uf.stage(2, 2), stage22)
    rep.check("t_{1,2} is minus the example's value", uf.t[(1, 2)], inv(x[1, 2]) * x[1, 3])
    rep.check("t_{1,1} is minus the example's value", uf.t[(1, 1)], inv(x[1, 1]) * x[1, 2])
    rep.check("t_{2,2} is minus the example's value", uf.t[(2, 2)], inv(c22) * b23)
    rep.check("replay reproduces x", uf.replay(), x)
    rep.display["t11"] = _show(uf.t[(1, 1)])
    rep.display["t22"] = _show(uf.t[(2, 2)])
    return rep


def fixture_symmetric4() -> FixtureReport:
    """Specializing the standard parameters to constants along occurrences.

    With t at the (i, j) slot set to y_j, each entry above the diagonal
    becomes an elementary symmetric sum of y_{i+1}, ..., y_n.
    """
    import itertools

    import sympy as sp
    rep = FixtureReport("symmetric4")
    n = 4
    ys = {j: sp.Symbol(f"y{j}") for j in range(2, n + 1)}
    word = standard_word(n)
    params = [None] * word.length
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            params[standard_position(i, j, n) - 1] = ys[j]
    x = product_map(word, params)
    for i in range(1, n + 1):
        for k in range(0, n + 1 - i):
            expected = sp.Integer(1) if k == 0 else sp.Integer(0)
            if k > 0:
                expected = sum(
                    sp.prod([ys[j] for j in combo])
                    for combo in itertools.combinations(range(i + 1, n + 1), k)
                )
            rep.check(f"entry ({i},{i + k}) is an elementary symmetric sum", x[i, i + k], expected)
    rep.display["x14"] = _show(x[1, 4])
    rep.display["x13"] = _show(x[1, 3])
    return rep


def fixture_ldu2() -> FixtureReport:
    """The closed 2x2 LDU factorization."""
    import sympy as sp
    rep = FixtureReport("ldu2")
    a, b, c, d = sp.symbols("a b c d")
    x = Matrix([[a, b], [c, d]])
    triple = ldu(x)
    rep.check("lower factor", triple.lower, Matrix([[1, 0], [c / a, 1]]))
    rep.check("diagonal factor", triple.diag, Matrix.diagonal([a, d - c / a * b]))
    rep.check("upper factor", triple.upper, Matrix([[1, b / a], [0, 1]]))
    rep.check("product reconstructs", triple.product(), x)
    rep.display["D"] = f"diag({_show(a)}, {_show(d - c/a*b)})"
    return rep


FIXTURES = {
    "borel3": fixture_borel3,
    "gl3": fixture_gl3,
    "unipotent4": fixture_unipotent4,
    "negative3": fixture_negative3,
    "upper3": fixture_upper3,
    "symmetric4": fixture_symmetric4,
    "ldu2": fixture_ldu2,
}


def run_fixture(name: str) -> FixtureReport:
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    return FIXTURES[name]()
