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

from orecodes import algset, codes, gf, skewpoly, spbw
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
                        ("spbw.py", "two_sided_closure"): 1})


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

def plus_one(rows, row):
    """row + 1, a new row of rows: the row's constant coefficient off by one."""
    return rows.addmul(rows.shift(row, 0), 1, rows.pack([1]))


def sabotage(kind, patch=setattr):
    """Install a wrong kernel through patch(owner, name, value); the certificate
    behind each command of CASES must catch the wrong result."""
    if kind == "skew-mul":  # products off by one in the constant coefficient
        good = skewpoly._mul_i

        def bad(ring, a, b):
            acc, rows = good(ring, a, b), ring.field.rows
            return plus_one(rows, acc) if rows.length(acc) > 1 else acc

        patch(skewpoly, "_mul_i", bad)
    elif kind == "euclid-cofactor":  # the Euclid row loop returns its cofactors off by one in the constant coefficient
        good_euclid = skewpoly._right_euclid

        def bad_euclid(ring, g1, g2):
            r, u, u_next = good_euclid(ring, g1, g2)
            return r, *(plus_one(ring.field.rows, p) for p in (u, u_next))

        patch(skewpoly, "_right_euclid", bad_euclid)
    elif kind == "from-y":  # images in F[y;sigma] map back off by one in the constant coefficient
        good_from_y = skewpoly._from_y_i

        def bad_from_y(ring, h):
            out, rows = good_from_y(ring, h), ring.field.rows
            return plus_one(rows, out) if out else out

        patch(skewpoly, "_from_y_i", bad_from_y)
    elif kind == "not-two-sided":  # the two-sided test refuses x^n - 1 though |sigma| = n
        patch(codes, "two_sided_test", lambda g: skewpoly.TwoSidedWitness(False, None, None, None))
    elif kind == "wrong-kernel":  # every F^sigma-kernel is the first unit vector
        patch(algset, "kernel_i", lambda field, rows, ncols: [[1] + [0] * (ncols - 1)])
    elif kind == "late-relation":  # the bound's central relation is read one row late: h_j from row j + 1
        good_kernel = skewpoly.kernel_i

        def late(field, rows, ncols):
            first = good_kernel(field, rows, ncols)[0]
            return [first[1:] + [0]]

        patch(skewpoly, "kernel_i", late)
    elif kind == "wrong-factor":  # m_X grows by x*m instead of (x - z^c)*m
        for rows in (gf.ByteRows, gf.ZechRows):
            patch(rows, "addmul", lambda self, acc, k, row, off=0: acc)
    else:  # the PBW ring product loses its lowest term
        good = spbw.PBWPresentation.mul_terms

        def bad(self, f, g):
            out = good(self, f, g)
            if len(out) > 1:
                out.pop(min(out, key=spbw._deglex_key))
            return out

        patch(spbw.PBWPresentation, "mul_terms", bad)


# GF(9) keeps the Zech loop and GF(256) packs its rows (gf.ByteRows)
GF9 = ["--field", "GF(9)", "--sigma", "1", "--a", "x^3+w*x+1", "--b", "x^2+w^3"]
GF256 = ["--field", "GF(256)", "--sigma", "1", "--a", "x^3+w*x+1", "--b", "x^2+w^3"]
CASES = {
    "poly-gcrd": ("skew-mul", ["poly", "gcrd"] + GF9),
    "poly-lclm": ("skew-mul", ["poly", "lclm"] + GF9),
    "poly-gcrd-delta": ("from-y", ["poly", "gcrd", "--delta-w", "w"] + GF9),
    "poly-lclm-delta": ("from-y", ["poly", "lclm", "--delta-w", "w"] + GF9),
    "poly-gcrd-gf256": ("skew-mul", ["poly", "gcrd"] + GF256),
    "poly-lclm-gf256": ("skew-mul", ["poly", "lclm"] + GF256),
    "poly-gcrd-delta-gf256": ("from-y", ["poly", "gcrd", "--delta-w", "w"] + GF256),
    "poly-lclm-delta-gf256": ("from-y", ["poly", "lclm", "--delta-w", "w"] + GF256),
    "poly-gcrd-euclid": ("euclid-cofactor", ["poly", "gcrd"] + GF9),
    "poly-lclm-euclid": ("euclid-cofactor", ["poly", "lclm"] + GF9),
    "poly-gcrd-euclid-gf256": ("euclid-cofactor", ["poly", "gcrd"] + GF256),
    "poly-lclm-euclid-gf256": ("euclid-cofactor", ["poly", "lclm"] + GF256),
    "codes-rightmult": ("not-two-sided", ["codes", "rightmult", "--field", "GF(8)", "--sigma", "1",
                                          "--g", "x^2+w^3*x+w", "--n", "3"]),
    "poly-bound": ("late-relation", ["poly", "bound", "--field", "GF(9)", "--sigma", "1", "--g", "x^2+w*x+1"]),
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
