"""Golden drift guard: the stdout of the three scripts and of a fixed list of
`--format json` CLI calls must stay byte-identical.

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

import pytest

from orecodes.cli import main

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
    # skew cyclic codes
    'codes rightmult --field "GF(8)" --sigma 1 --g "x^2+w^3*x+w" --n 3',
    'codes rightmult --field "GF(9)" --sigma 1 --g "x^3+w*x+2" --n 2',
    'codes build --field "GF(8)" --sigma 1 --modulus "x^3-1" --divisor "x^2+w^3*x+w" --emit G,H,dual',
    'codes build --field "GF(9)" --sigma 1 --modulus "x^4-1" --divisor "x^2+w*x+w" --emit G,H',
    'codes build --field "GF(27)" --sigma 1 --delta-w "g" --modulus "x^3+1" --divisor "x^2+g^13*x+1" --emit G,H',
    # linearized polynomials
    'linearized moore --field "GF(8)" --basis "1,g,g^2"',
    'linearized moore --field "GF(9)" --basis "1,g^2"',
    'linearized dickson --field "GF(8)" --poly "y^4+g*y^2+y"',
    'linearized dickson --field "GF(27)" --poly "g^5*y^9+y^3+g*y"',
    'linearized algebra-check --field "GF(8)"',
    'linearized algebra-check --field "GF(9)"',
    # evaluation codes
    'evalcodes build --code operator --field "GF(8)" --sigma 1 --support "1,g,g^2" --k 2',
    'evalcodes build --code operator --field "GF(9)" --sigma 1 --delta-w "w" --support "1,w,w^2" --k 2',
    'evalcodes certify --code operator --kind MRD --field "GF(8)" --sigma 1 --support "1,g,g^2" --k 2',
    'evalcodes distance --code operator --metric rank --field "GF(16)" --sigma 2 --support "1,g,g^2" --k 2',
    'evalcodes distance --code remainder --metric rank --field "GF(27)" --sigma 1 --delta-w "g" --support "1,g,g^2" --k 2',
    # algebraic sets
    'algset rank --field "GF(9)" --sigma 1 --delta-w "w" --points "1,w,w^2,w^5"',
    'algset rank --field "GF(16)" --sigma 2 --points "1,g,g^5,g^7"',
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
    'spbwsets variety --presentation presentations/qplane4.json --gens "x*y+w" --domain full',
    'spbwsets variety --presentation presentations/qspace3.json --gens "x*y,z-1" --domain "0,0,1;1,0,1;0,i,1;1,1,0"',
    'spbwsets roots --presentation presentations/qspace3.json --f "x*y+z" --point "0,1,0"',
    'spbwsets normal --presentation presentations/qplane4.json --f "x*y"',
    'spbwsets normal --presentation presentations/qplane9.json --f "x^2+y^2"',
    'spbwsets normal --presentation presentations/qspace3.json --f "x*y+z"',
    'spbwsets center --presentation presentations/qplane4.json --degree 3',
    'spbwsets center --presentation presentations/qplane9.json --degree 4',
    'spbwsets nullstellensatz --presentation presentations/qplane4.json --gens "x^3-1,y" --degree 3 --samples 10 --seed 2',
    'spbwsets nullstellensatz --presentation presentations/qplane9.json --gens "x*y-1" --degree 2 --samples 8 --seed 3',
]


def _cli_text():
    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for call in CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(shlex.split(call) + ["--format", "json"])
            parts.append(f"$ orecodes {call} --format json\nexit {code}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
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


def test_cli_calls_match_golden_under_O():
    """python -O drops assert statements; the certificates run all the same,
    and the output is byte-identical."""
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import sys, test_golden; sys.stdout.write(test_golden._cli_text())"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == _read("cli.txt")


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_matches_golden(name):
    assert _script_text(name) == _read(f"{name}.out")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    outputs = {"cli.txt": _cli_text(), **{f"{s}.out": _script_text(s) for s in SCRIPTS}}
    for fname, text in outputs.items():
        with open(os.path.join(GOLDEN, fname), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
