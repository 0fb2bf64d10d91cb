"""The verification policy: every self-check in the package is a certificate
raised through errors.verify as a VerificationError, which the command line
reports as one typed error with exit code 5, with and without python -O; and
the guard policy: every size check refuses through errors.capped."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from orecodes import algset, codes, skewpoly, spbw
from orecodes.cli import main
from orecodes.errors import GuardError, capped

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "orecodes")


def test_package_has_no_assert_and_no_assertion_error():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_capped_returns_the_size_up_to_the_cap_and_refuses_past_it():
    assert capped(0, 64, "degree") == 0
    assert capped(64, 64, "degree") == 64
    with pytest.raises(GuardError) as err:
        capped(65, 64, "polynomial term of degree")
    assert str(err.value) == "polynomial term of degree 65 exceeds the cap 64"


# the refusals that are not a size past a cap: a field literal past the table
# cap (its message is pinned by the benchmark's reference) and a two-sided
# closure whose completion was cut short
GUARD_RAISES = Counter({("errors.py", "capped"): 1, ("gf.py", "__init__"): 1, ("gf.py", "parse_field"): 1,
                        ("spbw.py", "_complete_left_basis"): 1, ("spbw.py", "two_sided_closure"): 1})


def test_guard_errors_are_raised_through_capped():
    found = Counter()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "GuardError"):
                inner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found[name, inner and inner.name] += 1
    assert found == GUARD_RAISES


# -- sabotaged kernels ---------------------------------------------------------------

def sabotage(kind, patch=setattr):
    """Install a wrong kernel through patch(owner, name, value); the certificate
    behind each command of CASES must catch the wrong result."""
    if kind == "skew-mul":  # products off by one in the constant coefficient
        good = skewpoly._mul_i

        def bad(ring, a, b):
            acc = good(ring, a, b)
            if len(acc) > 1:
                acc[0] = ring.field.add_i(acc[0], 1)
            return acc

        patch(skewpoly, "_mul_i", bad)
    elif kind == "not-two-sided":  # the two-sided test refuses x^n - 1 though |sigma| = n
        patch(codes, "two_sided_test", lambda g: skewpoly.TwoSidedWitness(False, None, None, None))
    elif kind == "wrong-kernel":  # every F^sigma-kernel is the first unit vector
        patch(algset, "kernel_i", lambda field, rows, ncols: [[1] + [0] * (ncols - 1)])
    elif kind == "wrong-factor":  # m_X grows by x*m instead of (x - z^c)*m
        patch(algset, "_addmul", lambda field, acc, k, row, off: None)
    else:  # the PBW ring product loses its lowest term
        good = spbw.PBWPresentation.mul_terms

        def bad(self, f, g):
            out = good(self, f, g)
            if len(out) > 1:
                out.pop(min(out, key=spbw._deglex_key))
            return out

        patch(spbw.PBWPresentation, "mul_terms", bad)


GF9 = ["--field", "GF(9)", "--sigma", "1", "--a", "x^3+w*x+1", "--b", "x^2+w^3"]
CASES = {
    "poly-gcrd": ("skew-mul", ["poly", "gcrd"] + GF9),
    "poly-lclm": ("skew-mul", ["poly", "lclm"] + GF9),
    "codes-rightmult": ("not-two-sided", ["codes", "rightmult", "--field", "GF(8)", "--sigma", "1",
                                          "--g", "x^2+w^3*x+w", "--n", "3"]),
    "algset-vanish": ("wrong-kernel", ["algset", "vanish", "--field", "GF(256)", "--sigma", "1", "--g", "x+w"]),
    "algset-minpoly": ("wrong-factor", ["algset", "minpoly", "--field", "GF(4)", "--sigma", "1",
                                        "--points", "1,w,w^2"]),
    "spbw-divide": ("pbw-mul", ["spbw", "divide", "--presentation", "presentations/witten.json",
                                "--f", "x^2*y+x*z+y*z", "--by", "x-1,y+2,z+3"]),
}
JSON = ["--format", "json"]

CHILD = """import sys
sys.path.insert(0, {tests!r})
from test_verification import sabotage
from orecodes.cli import main
sabotage({kind!r})
sys.exit(main({argv!r}))
"""


def _assert_one_verification_error(code, out):
    assert code == 5
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 5
    assert error["message"].startswith("certificate failed: ")


@pytest.mark.parametrize("case", CASES)
def test_sabotaged_kernel_fires_certificate(case, monkeypatch):
    kind, argv = CASES[case]
    monkeypatch.chdir(ROOT)
    sabotage(kind, monkeypatch.setattr)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + JSON)
    _assert_one_verification_error(code, out.getvalue())


@pytest.mark.parametrize("case", CASES)
def test_sabotaged_kernel_fires_certificate_under_O(case):
    kind, argv = CASES[case]
    script = CHILD.format(tests=os.path.dirname(os.path.abspath(__file__)), kind=kind, argv=argv + JSON)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    _assert_one_verification_error(proc.returncode, proc.stdout)
