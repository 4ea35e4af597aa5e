import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat import verify
from qbruhat.cli import main
from qbruhat.matrix import Matrix, matrix_from_json, matrix_to_json
from qbruhat.weyl import DoubleWord

EYE2 = json.dumps(matrix_to_json(Matrix.identity(2)))
GENERIC3 = json.dumps(
    {"n": 3, "m": 3, "entries": [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]]}
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quasidet_identity_corner(capsys):
    code, out, _ = run(capsys, "quasidet", "--input", EYE2, "--row", "1", "--col", "1")
    assert code == 0
    assert out.strip() == "1"


def test_minor(capsys):
    code, out, _ = run(
        capsys, "minor", "--input", GENERIC3, "--rows", "1,2", "--cols", "2,3",
        "--row", "1", "--col", "2",
    )
    assert code == 0
    assert out.strip() == "-1/2"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--input", GENERIC3)
    assert code == 0
    assert out.strip() == "u=3,2,1 v=3,2,1"


def test_ldu_round_trip(capsys):
    code, out, _ = run(capsys, "ldu", "--input", GENERIC3)
    assert code == 0
    payload = json.loads(out)
    from qbruhat.matrix import matrix_from_json

    lower = matrix_from_json(payload["lower"])
    diag = matrix_from_json(payload["diag"])
    upper = matrix_from_json(payload["upper"])
    assert lower * diag * upper == matrix_from_json(json.loads(GENERIC3))


def test_recover_and_twist(capsys):
    from qbruhat.factorize import product_map
    from qbruhat.scalars import RationalQuaternion as Q
    from qbruhat.weyl import DoubleWord

    word = DoubleWord(3, (-1, 2, 1))
    params = [Q(1, 1), Q(2), Q(0, 0, 1)]
    h = [Q(1), Q(2), Q(1, 0, 0, 1)]
    x = product_map(word, params, h)
    blob = json.dumps(matrix_to_json(x))
    code, out, _ = run(capsys, "recover", "--input", blob, "--word=-1,2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h=1+0*i+0*j+0*k,2+0*i+0*j+0*k,1+0*i+0*j+1*k"
    assert lines[1] == "t=1+1*i+0*j+0*k,2+0*i+0*j+0*k,0+0*i+1*j+0*k"

    y = product_map(word, params)  # reduced-cell point
    blob = json.dumps(matrix_to_json(y))
    code, out, _ = run(capsys, "twist", "--input", blob, "--u", "2,1,3", "--v", "3,1,2")
    assert code == 0
    json.loads(out)


def test_factor_standard(capsys):
    blob = json.dumps(
        {"n": 3, "m": 3, "entries": [["1", "2", "4"], ["0", "1", "3"], ["0", "0", "1"]]}
    )
    code, out, _ = run(capsys, "factor", "--input", blob, "--mode", "standard-unipotent")
    assert code == 0
    assert out.startswith("t=")


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "roundtrip", "--n", "3", "--trials", "5", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1


def test_verify_reports_all_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--n", "3", "--trials", "1", "--seed", "3"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def _wrong_torus(monkeypatch):
    """Make the roundtrip suite's recover_params return each torus with h_1 + 1."""
    real = verify.recover_params

    def wrong(x, word):
        out = real(x, word)
        return dataclasses.replace(out, h=(out.h[0] + 1, *out.h[1:]))

    monkeypatch.setattr(verify, "recover_params", wrong)
    return real


def test_a_failed_suite_reports_each_trial(monkeypatch):
    _wrong_torus(monkeypatch)
    report = verify.run_suite("roundtrip", 3, 2, 0)
    assert report.line() == "suite=roundtrip n=3 trials=2 seed=0 checks=0: FAIL (2 failures)"
    assert [failure["trial"] for failure in report.failures] == [0, 1]
    for failure in report.failures:
        assert set(failure) == {"check", "matrix", "word", "trial", "seed", "suite"}
        assert failure["check"] == failure["suite"] == "roundtrip" and failure["seed"] == 0


def test_a_failed_verify_exits_1_with_a_replayable_counterexample(monkeypatch, capsys):
    real = _wrong_torus(monkeypatch)
    argv = ("verify", "--suite", "roundtrip", "--n", "3", "--trials", "1", "--seed", "0")
    code, out, _ = run(capsys, *argv)
    line, counterexample = out.splitlines()
    assert code == 1
    assert line == "suite=roundtrip n=3 trials=1 seed=0 checks=0: FAIL (1 failures)"
    failure = json.loads(counterexample)
    x = matrix_from_json(failure["matrix"])
    word = DoubleWord.from_text(failure["word"], 3)
    assert real(x, word).replay(word) == x


def test_verify_runs_the_extended_double_ratio_families(capsys):
    argv = ("verify", "--suite", "double-ratios", "--n", "3", "--trials", "1", "--seed", "0")
    checks = []
    for extra in ((), ("--extended",)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0 and out.endswith(": PASS\n")
        checks.append(int(out.split("checks=")[1].split(":")[0]))
    assert checks[1] > checks[0]


def test_demo(capsys):
    code, out, _ = run(capsys, "demo", "--fixture", "gl3")
    assert code == 0
    assert "h3 = x31" in out
    assert "PASS" in out


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "quasidet", "--input", "nonexistent.json", "--row", "1", "--col", "1")
    assert code == 2
    code, _, _ = run(capsys, "recover", "--input", EYE2, "--word=5,banana")
    assert code == 2
    code, _, _ = run(capsys, "nope")
    assert code == 2


def test_a_non_square_quasideterminant_exits_2(capsys):
    wide = json.dumps(matrix_to_json(Matrix([[1, 2, 3], [4, 5, 6]])))
    code, out, err = run(capsys, "quasidet", "--input", wide, "--row", "1", "--col", "1")
    assert code == 2 and out == ""
    assert err == "error: quasideterminant needs a square matrix, got 2x3\n"


def test_not_generic_exit(capsys):
    singular = json.dumps({"n": 2, "m": 2, "entries": [["1", "1"], ["1", "1"]]})
    code, _, err = run(capsys, "classify", "--input", singular)
    assert code == 3
    assert "not generic" in err


def test_wrong_cell_exit_is_failure(capsys):
    code, _, err = run(capsys, "recover", "--input", GENERIC3, "--word=-1,1")
    assert code == 1


def test_oversized_grid_suite_is_refused_before_any_report_line(capsys):
    # n = 6 dodgson is 3.24M checks a trial; 20 trials of it are over the budget
    for argv in (("--n", "6"), ("--suite", "plucker", "--n", "7", "--trials", "1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "budget" in err


def test_malformed_entries_are_usage_errors(capsys):
    for entries in ([[1]], 5, [["1 2"]], [["1.5 5+i"]], [["2 / 3"]]):
        blob = json.dumps({"n": 1, "m": 1, "entries": entries})
        code, _, err = run(capsys, "classify", "--input", blob)
        assert code == 2
        assert err.startswith("error: bad matrix input") and "Traceback" not in err


def test_shape_fields_must_be_json_integers(capsys):
    # true and 1.0 both equal the row count 1; only the integer 1 is a shape
    for shape in (True, 1.0, "1", None):
        for fields in ({"n": shape, "m": 1}, {"n": 1, "m": shape}):
            blob = json.dumps({**fields, "entries": [["1"]]})
            code, out, err = run(capsys, "classify", "--input", blob)
            assert code == 2 and out == "", blob
            assert err.startswith("error: bad matrix input") and "Traceback" not in err
    blob = json.dumps({"n": 1, "m": 1, "entries": [["1"]]})
    assert run(capsys, "classify", "--input", blob)[0] == 0


def test_zero_denominator_entry_is_a_usage_error(capsys):
    for entry in ("1/0", "1/0*i", "2-1/0*k"):
        blob = json.dumps({"n": 1, "m": 1, "entries": [[entry]]})
        code, _, err = run(capsys, "quasidet", "--input", blob, "--row", "1", "--col", "1")
        assert code == 2, entry
        assert err.startswith("error: bad matrix input") and "Traceback" not in err


# Entries and arguments from small alphabets that mix valid and malformed text.
ENTRIES = ("0", "1", "-1", "2", "1/2", "i", "1+j", "-k")
MALFORMED = ENTRIES + ("1/0", "1/0*i", "x", "", "1//2")
INDEX_SETS = ("1", "2", "1,2", "2,1", "1,3", "0", "a", "1,2,3")
PERMS = ("1", "1,2", "2,1", "1,2,3", "3,2,1", "2,3,1", "1,1", "x")
WORDS = ("1", "-1", "1,-1", "-1,1", "-1,2,1", "2,-1,1", "1,-2,2,-1", "0", "x", "")


@st.composite
def cli_argv(draw):
    n = draw(st.integers(1, 3))
    malformed = draw(st.booleans())
    alphabet = st.sampled_from(MALFORMED if malformed else ENTRIES)
    rows = n + 1 if malformed and draw(st.booleans()) else n
    entries = [[draw(alphabet) for _ in range(n)] for _ in range(rows)]
    blob = json.dumps({"n": n, "m": n, "entries": entries})
    index = st.integers(-1, 4).map(str)
    command = draw(
        st.sampled_from(
            ("quasidet", "minor", "ldu", "classify", "twist", "factor", "recover", "double-ratios")
        )
    )
    argv = [command, "--input", blob]
    if command == "quasidet":
        argv += ["--row", draw(index), "--col", draw(index)]
    elif command == "minor":
        argv += ["--rows", draw(st.sampled_from(INDEX_SETS))]
        argv += ["--cols", draw(st.sampled_from(INDEX_SETS))]
        argv += ["--row", draw(index), "--col", draw(index)]
    elif command == "twist":
        argv += ["--u", draw(st.sampled_from(PERMS)), "--v", draw(st.sampled_from(PERMS))]
        argv += ["--general"] if draw(st.booleans()) else []
    elif command == "factor":
        argv += ["--mode", draw(st.sampled_from(("standard-unipotent", "upper", "u-w0", "w0-v")))]
    elif command == "recover":
        argv += ["--word=" + draw(st.sampled_from(WORDS))]
    elif command == "double-ratios":
        argv += ["--extended"] if draw(st.booleans()) else []
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def test_bad_indices_and_sizes_are_usage_errors(capsys):
    cases = (
        ("quasidet", "--input", EYE2, "--row", "9", "--col", "1"),
        ("verify", "--suite", "gauss", "--n", "0"),
        ("verify", "--suite", "quasidet-identities", "--n", "1"),
        ("verify", "--suite", "gauss", "--n", "2", "--trials", "0"),
        ("verify", "--suite", "gauss", "--n", "2", "--trials", "-1"),
        ("verify", "--suite", "gauss", "--n", "2", "--trials", "1", "--bound", "0"),
        ("verify", "--suite", "gauss", "--n", "2", "--trials", "1", "--bound", "-1"),
        ("twist", "--input", GENERIC3, "--u", "1,2", "--v", "1,2,3"),
        ("twist", "--input", GENERIC3, "--u", "1,2", "--v", "1,2,3", "--general"),
    )
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err


def test_integer_fields_take_ascii_digits_only(capsys):
    # int() alone would read the Arabic-Indic and fullwidth digits and the underscore
    minor = ("minor", "--input", GENERIC3, "--cols", "2,3", "--col", "2")
    cases = (
        (minor + ("--rows", "1,\u0662", "--row", "1"), "\u0662"),
        (minor + ("--rows", "1,2", "--row", "\u0661"), "\u0661"),
        (("recover", "--input", GENERIC3, "--word=-2,1_0"), "1_0"),
        (("recover", "--input", GENERIC3, "--word=-\u0662,1"), "\u0662"),
        (("twist", "--input", GENERIC3, "--u", "3,2,\uff11", "--v", "3,2,1"), "\uff11"),
        (("quasidet", "--input", EYE2, "--row", "\uff11", "--col", "1"), "\uff11"),
        (("verify", "--suite", "gauss", "--n", "\u0662", "--trials", "1"), "\u0662"),
    )
    for argv, bad in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert bad in err and "Traceback" not in err, argv
    # a sign and surrounding spaces stay allowed
    code, out, _ = run(capsys, *minor[:-1], "+2", "--rows", " 1, +2", "--row", " 1 ")
    assert code == 0 and out.strip() == "-1/2"


DATA = Path(__file__).parent / "data"
GOLDEN_COMMANDS = (
    ("verify", "--suite", "all", "--n", "3", "--seed", "0"),
    ("verify", "--suite", "all", "--n", "4", "--seed", "0", "--trials", "3"),
    ("demo",),
)
GOLDEN_REPORTS = DATA / "cli_reports.txt"
# A generic 4x4 quaternion matrix of the (w0, w0) cell; every block
# parameter and both quasiminor forms of it are defined.
MAXIMAL4 = "maximal4.json"
BLOCK_COMMANDS = (
    ("factor", "--mode", "u-w0", "--input", MAXIMAL4),
    ("factor", "--mode", "w0-v", "--input", MAXIMAL4),
    ("double-ratios", "--input", MAXIMAL4),
    ("double-ratios", "--extended", "--input", MAXIMAL4),
)
BLOCK_REPORTS = DATA / "block_reports.txt"
# A reduced-cell 4x4 quaternion point: product_map of the double word
# (-1, 2, -3, 1, -2, 3, 2), so u = (2, 4, 1, 3) and v = (3, 4, 1, 2).
REDUCED4 = "reduced4.json"
TWIST_COMMANDS = (
    ("twist", "--general", "--u", "4,3,2,1", "--v", "4,3,2,1", "--input", MAXIMAL4),
    ("twist", "--u", "2,4,1,3", "--v", "3,4,1,2", "--input", REDUCED4),
)
TWIST_REPORTS = DATA / "twist_reports.txt"
# The polynomial suites at the sizes where quasiminor blocks form the
# longest chains, recorded before blocks were bordered from their parents.
SCALING_COMMANDS = tuple(
    ("verify", "--suite", suite, "--n", str(n), "--trials", "3", "--seed", "0")
    for n in (6, 8)
    for suite in ("roundtrip", "double-ratios", "twist-involution")
)
SCALING_REPORTS = DATA / "scaling_reports.txt"


def render_golden_reports(commands=GOLDEN_COMMANDS) -> str:
    """Each command line, its stdout, then its exit code, in one text block.

    Data file names in the argv are resolved against tests/data but shown
    as written, so the text does not depend on where the tests run.
    """
    blocks = []
    for argv in commands:
        resolved = [str(DATA / a) if a in (MAXIMAL4, REDUCED4) else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(resolved)
        blocks.append(f"$ qbruhat {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(blocks)


def test_reports_match_recorded_golden_output():
    # Seeded reports are byte-stable; the recorded file is the contract.
    assert render_golden_reports() == GOLDEN_REPORTS.read_text(encoding="utf-8")


def test_block_factorization_reports_match_recorded_golden_output():
    # The u-w0 / w0-v block parameters and every double-ratio family on
    # one fixed maximal-cell point, recorded before the family table existed.
    rendered = render_golden_reports(BLOCK_COMMANDS)
    assert rendered == BLOCK_REPORTS.read_text(encoding="utf-8")


def test_twist_reports_match_recorded_golden_output():
    # The general twist of the maximal point and the reduced twist of the
    # reduced-cell point, recorded before the inverse-free twist existed.
    rendered = render_golden_reports(TWIST_COMMANDS)
    assert rendered == TWIST_REPORTS.read_text(encoding="utf-8")


def test_scaling_reports_match_recorded_golden_output():
    rendered = render_golden_reports(SCALING_COMMANDS)
    assert rendered == SCALING_REPORTS.read_text(encoding="utf-8")


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--suite", "gauss", "--n", "2", "--trials", "1", "--seed", "0"]
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "qbruhat", *argv], capture_output=True, text=True, env=env
    )
    code, out, err = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
