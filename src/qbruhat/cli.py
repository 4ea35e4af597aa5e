"""Command-line driver.

Exit codes: 0 all checks passed, 1 a property failed (a replayable JSON
counterexample is printed), 2 usage or parse error, 3 NotGeneric persisted
past the retry budget.  Reports are byte-identical for identical seeds and
flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cells import classify, twist_general, twist_reduced
from .errors import (
    IndexOutOfRange,
    NotGeneric,
    NotReducedWord,
    QBruhatError,
    RetriesExhausted,
    ShapeMismatch,
)
from .factorize import (
    factor_u_w0,
    factor_w0_v,
    recover_params,
    solve_standard_unipotent,
    upper_factorize,
    verify_double_ratios,
)
from .fixtures import FIXTURES, run_fixture
from .gauss import ldu
from .matrix import matrix_from_json, matrix_to_json
from .quasidet import MinorSpec, positive_quasiminor, quasideterminant
from .scalars import format_scalar, parse_int
from .verify import SUITES, run_suite, validate_run
from .weyl import DoubleWord, Permutation


class UsageError(Exception):
    pass


def _load_matrix(source: str):
    text = source.strip()
    if not text.startswith("{"):
        try:
            with open(text, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read matrix input: {exc}") from exc
    try:
        return matrix_from_json(json.loads(text))
    except (json.JSONDecodeError, ValueError, ShapeMismatch) as exc:
        raise UsageError(f"bad matrix input: {exc}") from exc


def _parse_index_set(text: str):
    try:
        return tuple(parse_int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad index set {text!r}") from exc


def _parse_perm(text: str) -> Permutation:
    try:
        return Permutation(parse_int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad permutation {text!r}") from exc


def _print_matrix(x):
    print(json.dumps(matrix_to_json(x)))


def cmd_quasidet(args):
    x = _load_matrix(args.input)
    print(format_scalar(quasideterminant(x, args.row, args.col)))
    return 0


def cmd_minor(args):
    x = _load_matrix(args.input)
    spec = MinorSpec(_parse_index_set(args.rows), _parse_index_set(args.cols), args.row, args.col)
    print(format_scalar(positive_quasiminor(x, spec)))
    return 0


def cmd_ldu(args):
    x = _load_matrix(args.input)
    triple = ldu(x)
    print(
        json.dumps(
            {
                "lower": matrix_to_json(triple.lower),
                "diag": matrix_to_json(triple.diag),
                "upper": matrix_to_json(triple.upper),
            }
        )
    )
    return 0


def cmd_classify(args):
    x = _load_matrix(args.input)
    u, v = classify(x)
    print(f"u={','.join(map(str, u.images))} v={','.join(map(str, v.images))}")
    return 0


def cmd_twist(args):
    x = _load_matrix(args.input)
    u = _parse_perm(args.u)
    v = _parse_perm(args.v)
    result = twist_general(x, u, v) if args.general else twist_reduced(x, u, v)
    _print_matrix(result)
    return 0


def cmd_factor(args):
    x = _load_matrix(args.input)
    if args.mode == "standard-unipotent":
        params = solve_standard_unipotent(x)
        print("t=" + ",".join(format_scalar(t) for t in params))
    elif args.mode == "upper":
        uf = upper_factorize(x)
        for m, k in uf.pairs:
            print(f"t[{m},{k}]={format_scalar(uf.t[(m, k)])}")
        _print_matrix(uf.final_stage())
    elif args.mode == "u-w0":
        result = factor_u_w0(x)
        for (m, k), value in sorted(result.t.items()):
            print(f"t[{m},{k}]={format_scalar(value)}")
        _print_matrix(result.x_minus)
    else:
        result = factor_w0_v(x)
        print("h=" + ",".join(format_scalar(h) for h in result.h))
        for (m, k), value in sorted(result.tau.items()):
            print(f"tau[{m},{k}]={format_scalar(value)}")
        _print_matrix(result.x_plus)
    return 0


def cmd_recover(args):
    x = _load_matrix(args.input)
    word = DoubleWord.from_text(args.word, x.rows)
    out = recover_params(x, word)
    print("h=" + ",".join(format_scalar(h) for h in out.h))
    print("t=" + ",".join(format_scalar(t) for t in out.t))
    return 0


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        validate_run(name, args.n, args.trials, args.bound)
    worst = 0
    for name in names:
        kwargs = {}
        if name == "double-ratios" and args.extended:
            kwargs["extended"] = True
        report = run_suite(name, args.n, args.trials, args.seed, args.bound, **kwargs)
        print(report.line())
        for failure in report.failures:
            print(json.dumps(failure, sort_keys=True))
        if not report.passed:
            worst = 1
    return worst


def cmd_demo(args):
    names = sorted(FIXTURES) if args.fixture == "all" else [args.fixture]
    worst = 0
    for name in names:
        report = run_fixture(name)
        for line in report.lines():
            print(line)
        if not report.passed:
            worst = 1
    return worst


def cmd_double_ratios(args):
    x = _load_matrix(args.input)
    report = verify_double_ratios(x, include_extended=args.extended)
    print(report.summary())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbruhat",
        description="Exact quasideterminant calculus and double Bruhat cell factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quasidet", help="quasideterminant of a matrix at a marked entry")
    p.add_argument("--input", required=True, help="matrix JSON (inline or a file path)")
    p.add_argument("--row", type=parse_int, required=True)
    p.add_argument("--col", type=parse_int, required=True)
    p.set_defaults(fn=cmd_quasidet)

    p = sub.add_parser("minor", help="positive quasiminor for a row/column selection")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", required=True, help="comma separated row set")
    p.add_argument("--cols", required=True, help="comma separated column set")
    p.add_argument("--row", type=parse_int, required=True, help="marked row")
    p.add_argument("--col", type=parse_int, required=True, help="marked column")
    p.set_defaults(fn=cmd_minor)

    p = sub.add_parser("ldu", help="Gauss LDU decomposition")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_ldu)

    p = sub.add_parser("classify", help="double Bruhat cell of a matrix")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("twist", help="apply the twist map")
    p.add_argument("--input", required=True)
    p.add_argument("--u", required=True, help="permutation images, e.g. 2,1,3")
    p.add_argument("--v", required=True)
    p.add_argument("--general", action="store_true", help="use the H-equivariant twist")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("factor", help="closed-form factorizations")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mode",
        choices=["standard-unipotent", "upper", "u-w0", "w0-v"],
        default="upper",
    )
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("recover", help="factorization parameters along a double word")
    p.add_argument("--input", required=True)
    p.add_argument("--word", required=True, help="signed letters, e.g. -2,1,-3,3")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("double-ratios", help="maximal twist identity families for one matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--extended", action="store_true")
    p.set_defaults(fn=cmd_double_ratios)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    p.add_argument("--n", type=parse_int, default=3)
    p.add_argument("--trials", type=parse_int, default=20)
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--bound", type=parse_int, default=2)
    p.add_argument("--extended", action="store_true", help="include the flagged corollary readings")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("demo", help="replay a worked example symbolically")
    p.add_argument("--fixture", default="all", choices=sorted(FIXTURES) + ["all"])
    p.set_defaults(fn=cmd_demo)

    return parser


# (error classes, exit code, stderr prefix); the first isinstance match wins.
EXIT_CODES = (
    ((UsageError, NotReducedWord, IndexOutOfRange, ShapeMismatch, ValueError), 2, "error: "),
    ((RetriesExhausted,), 3, "error: "),
    ((NotGeneric,), 3, "error: not generic: "),
    ((QBruhatError,), 1, "error: "),
)
_HANDLED = tuple(kind for kinds, _, _ in EXIT_CODES for kind in kinds)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _HANDLED as exc:
        code, prefix = next((c, p) for kinds, c, p in EXIT_CODES if isinstance(exc, kinds))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
