"""Golden drift guard: the stdout of the three scripts, the stdout and exit
code of a fixed list of CLI calls in JSON and in text mode, and the exit code,
stdout and stderr of the usage and help cases must stay byte-identical.

Regenerate the files in tests/golden/ (only when an output change is
intended) from the repository root with:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from unittest import mock

import pytest

from orecodes.cli import COMMANDS, main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
SCRIPTS = ["conjugacy_census", "mds_mrd_survey", "nullstellensatz_report"]

# each call runs with --format json from the repository root
CALLS = [
    # the README's ten examples
    'field info "GF(4)"',
    'poly mul --field "GF(4)" --sigma 1 --a "x^2+w*x+w" --b "x+w"',
    'poly factor --field "GF(4)" --sigma 1 --g "x^2+1"',
    'algset minpoly --field "GF(4)" --sigma 1 --points "1,w,w^2"',
    'codes build --field "GF(4)" --sigma 1 --modulus "x^2+1" --divisor "x+1" --emit G,H,dual',
    'evalcodes certify --kind MDS --field "GF(8)" --sigma 1 --support "1,g,g^2" --k 2',
    'linearized dickson --field "GF(4)" --poly "y^2"',
    'spbw divide --presentation presentations/witten.json --f "x^2*y+x*z+y*z" --by "x-1,y+2,z+3"',
    'spbwsets roots --presentation presentations/qplane9.json --f "x*y" --point "0,0"',
    'spbwsets nullstellensatz --presentation presentations/qplane9.json --gens "x^2-1,y" --seed 5',
    # skew polynomials: similarity, bounds, two-sided test, operator evaluation
    'poly similar --field "GF(9)" --sigma 1 --g "x^2+w*x+1" --h "x^2+w^3*x+1"',
    'poly similar --field "GF(27)" --sigma 1 --g "x^2+g*x+g^2" --h "x^2+g^5*x+1"',
    'poly similar --field "GF(16)" --sigma 2 --g "x^3+g*x+1" --h "x^3+g^6*x^2+1"',
    'poly bound --field "GF(9)" --sigma 1 --g "x^2+w*x+1"',
    'poly bound --field "GF(16)" --sigma 2 --g "x^2+g*x+g^3"',
    'poly twosided --field "GF(9)" --sigma 1 --g "w*x^4+w*x^2"',
    'poly twosided --field "GF(9)" --sigma 1 --g "x^2+w*x+1"',
    'poly eval --field "GF(9)" --sigma 1 --g "x^3+w*x^2+w^5*x+2" --at "w^3" --mode operator',
    'poly eval --field "GF(9)" --sigma 1 --delta-w "w" --g "x^3+w*x^2+w^5*x+2" --at "w^3" --mode operator',
    'poly eval --field "GF(27)" --sigma 2 --delta-w "g^5" --g "g*x^4+x^2+g^7" --at "g^11" --mode operator',
    'poly divmod --field "GF(9)" --sigma 1 --a "x^5+w*x+1" --b "x^2+w"',
    'poly divmod --field "GF(9)" --sigma 1 --side left --delta-w w --a "x^5+w*x+1" --b "x^2+w"',
    'poly divmod --field "GF(64)" --sigma 2 --side left --a "x^7+g^5*x^5+g*x^3+g^9*x+1" --b "g^3*x^3+g*x+g^5"',
    'poly divmod --field "GF(27)" --sigma 1 --side left --a "g^2*x^6+x^4+g^7*x^3+g*x+2" --b "g^5*x^2+g^11*x+1"',
    'poly gcrd --field "GF(9)" --sigma 1 --a "x^3+w^7*x^2+w^3" --b "x^4+w*x^3+w^2*x^2+w^6*x+w^5"',
    'poly lclm --field "GF(9)" --sigma 1 --a "x+w" --b "x+1"',
    # skew cyclic codes
    'codes rightmult --field "GF(8)" --sigma 1 --g "x^2+w^3*x+w" --n 3',
    'codes rightmult --field "GF(9)" --sigma 1 --g "x^3+w*x+2" --n 2',
    'codes build --field "GF(8)" --sigma 1 --modulus "x^3-1" --divisor "x^2+w^3*x+w" --emit G,H,dual',
    'codes build --field "GF(9)" --sigma 1 --modulus "x^4-1" --divisor "x^2+w*x+w" --emit G,H',
    'codes build --field "GF(27)" --sigma 1 --delta-w "g" --modulus "x^3+1" --divisor "x^2+g^13*x+1" --emit G,H',
    'codes theta --field "GF(8)" --sigma 1 --g "x^2+w^3*x+w" --n 3',
    'codes theta --field "GF(64)" --sigma 2 --g "g^5*x^4+x^2+g*x+g^7" --n 3',
    'codes theta --field "GF(16)" --sigma 1 --g "g^3*x^5+x^3+g^9*x^2+g*x+g^4" --n 4',
    'codes bezout --field "GF(4)" --sigma 1 --g "x+1" --h "x+w" --n 2',
    'codes idempotent --field "GF(4)" --sigma 1 --e "w*x+w" --n 2',
    # linearized polynomials
    'linearized map --field "GF(8)" --poly "x^2+w*x"',
    'linearized moore --field "GF(8)" --basis "1,g,g^2"',
    'linearized moore --field "GF(9)" --basis "1,g^2"',
    'linearized dickson --field "GF(8)" --poly "y^4+g*y^2+y"',
    'linearized dickson --field "GF(27)" --poly "g^5*y^9+y^3+g*y"',
    'linearized algebra-check --field "GF(8)"',
    'linearized algebra-check --field "GF(9)"',
    'linearized algebra-check --field "GF(16)"',
    'linearized algebra-check --field "GF(25)"',
    'linearized algebra-check --field "GF(27)"',
    'linearized algebra-check --field "GF(64)"',
    # evaluation codes
    'evalcodes build --code operator --field "GF(8)" --sigma 1 --support "1,g,g^2" --k 2',
    'evalcodes build --code operator --field "GF(9)" --sigma 1 --delta-w "w" --support "1,w,w^2" --k 2',
    'evalcodes certify --code operator --kind MRD --field "GF(8)" --sigma 1 --support "1,g,g^2" --k 2',
    'evalcodes distance --code operator --metric rank --field "GF(16)" --sigma 2 --support "1,g,g^2" --k 2',
    'evalcodes distance --code remainder --metric rank --field "GF(27)" --sigma 1 --delta-w "g" --support "1,g,g^2" --k 2',
    'evalcodes certify --code operator --kind MRD --field "GF(16)" --sigma 1 --support "1,g,g^2,g^3" --k 1',
    'evalcodes certify --code operator --kind MRD --field "GF(16)" --sigma 1 --support "1,g,g^2,g^3" --k 3',
    'evalcodes certify --code remainder --kind MDS --field "GF(9)" --sigma 1 --support "1,g,g^2,g^3" --k 3',
    'evalcodes distance --code remainder --metric hamming --field "GF(16)" --sigma 1 --support "1,g,g^2,g^3,g^4" --k 3',
    # algebraic sets
    'algset rank --field "GF(9)" --sigma 1 --delta-w "w" --points "1,w,w^2,w^5"',
    'algset rank --field "GF(16)" --sigma 2 --points "1,g,g^5,g^7"',
    'algset vanish --field "GF(9)" --sigma 1 --g "x^2-1"',
    'algset wpoly --field "GF(9)" --sigma 1 --g "x^2-1"',
    # skew PBW extensions on every shipped presentation
    'spbw mul --presentation presentations/qplane4.json --a "y^2*x+w*y" --b "x*y+1"',
    'spbw mul --presentation presentations/qspace3.json --a "z*y+i*x" --b "y*x-2"',
    'spbw mul --presentation presentations/weyl1z.json --a "y^2*x" --b "x^2*y+z"',
    'spbw mul --presentation presentations/witten.json --a "z*y+x" --b "y*x^2-1/2*z"',
    'spbw divide --presentation presentations/qplane9.json --f "x^3*y+w*x*y^2+y" --by "x*y-1,y^2+w"',
    'spbw reduce --presentation presentations/witten.json --f "z^2*y*x+x^2" --by "x*y-1,z-2"',
    'spbw reduce --presentation presentations/qplane4.json --f "x^3*y^2+w*x*y+1" --by "x^2+w,y^2-x"',
    'spbw reduce --presentation presentations/qspace3.json --f "z^2*y*x+i*x^2" --by "x*y-1,z-i"',
    'spbw groebner --presentation presentations/qplane9.json --gens "x^2*y+y,x*y^2-x"',
    'spbw groebner --presentation presentations/weyl1z.json --gens "x^2*z+y,x*y^2"',
    'spbw groebner --presentation presentations/qspace3.json --gens "x*y+z,y*z"',
    'spbw groebner --presentation presentations/witten.json --gens "x*y-z,y^2"',
    'spbw closure --presentation presentations/qplane4.json --gens "x^3+y"',
    'spbw closure --presentation presentations/qplane4.json --gens "x*y+w*y^2"',
    'spbw closure --presentation presentations/qspace3.json --gens "x*z+y^2"',
    'spbw closure --presentation presentations/witten.json --gens "x"',
    'spbw closure --presentation presentations/weyl1z.json --gens "x^2"',
    'spbwsets variety --presentation presentations/qplane4.json --gens "x*y+w" --domain full',
    'spbwsets variety --presentation presentations/qspace3.json --gens "x*y,z-1" --domain "0,0,1;1,0,1;0,i,1;1,1,0"',
    'spbwsets variety --presentation presentations/witten.json --gens "z-2,x*y" --domain "0,0,2;1,0,2;0,0,1"',
    'spbwsets roots --presentation presentations/qspace3.json --f "x*y+z" --point "0,1,0"',
    'spbwsets roots --presentation presentations/witten.json --f "z-2" --point "0,0,2"',
    'spbwsets roots --presentation presentations/witten.json --f "x+1" --point "0,0,1"',
    'spbwsets roots --presentation presentations/weyl1z.json --f "1" --point "0,0,0"',
    'spbwsets normal --presentation presentations/qplane4.json --f "x*y"',
    'spbwsets normal --presentation presentations/qplane9.json --f "x^2+y^2"',
    'spbwsets normal --presentation presentations/qspace3.json --f "x*y+z"',
    'spbwsets normal --presentation presentations/witten.json --f "x"',
    'spbwsets center --presentation presentations/qplane4.json --degree 3',
    'spbwsets center --presentation presentations/qplane9.json --degree 4',
    'spbwsets center --presentation presentations/weyl1z.json --degree 3',
    'spbwsets nullstellensatz --presentation presentations/qplane4.json --gens "x^3-1,y" --degree 3 --samples 10 --seed 2',
    'spbwsets nullstellensatz --presentation presentations/qplane9.json --gens "x*y-1" --degree 2 --samples 8 --seed 3',
    # the monic search cap: two searches past it, one large field under it, and a
    # dual over GF(256) that needs no search
    'codes build --field "GF(256)" --sigma 1 --modulus "x^8-1" --divisor "x+1" --emit dual',
    'poly factor --field "GF(64)" --sigma 1 --g "x^4+w^18*x^3+w^28*x^2+w^18*x+w^49"',
    'poly factor --field "GF(512)" --sigma 1 --g "x^3+w^278*x^2+w^303*x+w^121"',
    'poly factor --field "GF(128)" --sigma 1 --g "x^2+1"',
    # the Nullstellensatz work budget: a pair past it, and a pair past the old degree cap under it
    'spbwsets nullstellensatz --presentation presentations/qplane9.json --gens "x^2-1,y" --degree 16 --samples 500',
    'spbwsets nullstellensatz --presentation presentations/qplane4.json --gens "x^3-1,y" --degree 16 --seed 5',
]

# usage and help cases, each run with COLUMNS=80 (argparse wraps to the terminal)
USAGE = [
    "",
    "--help",
    "nope",
    "poly",
    "poly nope",
    *(f"{command} --help" for command in COMMANDS),
    "poly mul --help",
    "codes build --help",
    "evalcodes certify --help",
    "spbwsets nullstellensatz --help",
    'poly mul --field "GF(4)" --a x',
    'poly divmod --field "GF(4)" --a x --b x --side up',
    "field info",
]


def _run(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_text(suffix=" --format json"):
    """The golden calls from the repository root: exit code and stdout."""
    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for call in CALLS:
            code, out, _ = _run(shlex.split(call + suffix))
            parts.append(f"$ orecodes {call}{suffix}\nexit {code}\n{out}")
    finally:
        os.chdir(cwd)
    return "".join(parts)


def _usage_text():
    parts = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for call in USAGE:
            code, out, err = _run(shlex.split(call))
            parts.append(f"$ orecodes {call}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


def _script_text(name):
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", f"{name}.py")],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def test_cli_calls_match_golden():
    assert _cli_text() == _read("cli.txt")


def test_cli_calls_in_text_mode_match_golden():
    assert _cli_text("") == _read("cli_text.txt")


def test_usage_and_help_match_golden():
    assert _usage_text() == _read("usage.txt")


def test_cli_calls_match_golden_under_O():
    """python -O drops assert statements; the certificates run all the same,
    and the output is byte-identical."""
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import sys, test_golden; sys.stdout.write(test_golden._cli_text())"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == _read("cli.txt")


def test_every_op_has_a_golden_call():
    ops = {(command, op) for command, (_, _, table) in COMMANDS.items() for op in table}
    assert ops == {tuple(shlex.split(call)[:2]) for call in CALLS}


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_matches_golden(name):
    assert _script_text(name) == _read(f"{name}.out")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    outputs = {
        "cli.txt": _cli_text(),
        "cli_text.txt": _cli_text(""),
        "usage.txt": _usage_text(),
        **{f"{s}.out": _script_text(s) for s in SCRIPTS},
    }
    for fname, text in outputs.items():
        with open(os.path.join(GOLDEN, fname), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
