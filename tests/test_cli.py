import argparse
import json
import os
import shlex
import signal
import subprocess
import sys

import pytest

from orecodes import cli
from orecodes.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PRES = os.path.join(os.path.dirname(__file__), "..", "presentations")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_mul_reference_product(capsys):
    code, out, _ = run(
        capsys,
        ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--a", "x^2+w*x+w", "--b", "x+w"],
    )
    assert code == 0
    assert out.strip() == "x^3+w^2*x+w^2"


def test_field_info(capsys):
    code, out, _ = run(capsys, ["field", "info", "GF(2^1)"])
    assert code == 0
    assert "GF(2) = GF(2^1)" in out
    assert "{0, 1}" in out


def test_spbw_divide_witten(capsys):
    code, out, _ = run(
        capsys,
        [
            "spbw",
            "divide",
            "--presentation",
            os.path.join(PRES, "witten.json"),
            "--f",
            "x^2*y+x*z+y*z",
            "--by",
            "x-1,y+2,z+3",
        ],
    )
    assert code == 0
    assert "h = x*z+y*z-1/2" in out
    assert "q1 = 1/2*x*y+1/4*y" in out


def test_json_round_trip_and_agreement(capsys):
    argv = ["algset", "minpoly", "--field", "GF(4)", "--sigma", "1", "--points", "1,w,w^2"]
    code, text_out, _ = run(capsys, argv)
    assert code == 0
    code, json_out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(json_out)
    assert payload["result"]["minimal_polynomial"] == text_out.strip() == "x^2+1"


def test_poly_json_coefficient_form_reparses(capsys):
    from orecodes.gf import GF, parse_element
    from orecodes.skewpoly import OreRing

    argv = [
        "poly", "mul", "--field", "GF(4)", "--sigma", "1",
        "--a", "x^2+w*x+w", "--b", "x+w", "--format", "json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)["result"]["product"]
    assert payload["coeffs"] == ["g^2", "g^2", "0", "1"]  # low degree first
    ring = OreRing(GF(2, 2), 1)
    rebuilt = ring.poly([parse_element(ring.field, c) for c in payload["coeffs"]])
    assert rebuilt == ring.parse(payload["text"])


def test_evalcodes_certify(capsys):
    code, out, _ = run(
        capsys,
        [
            "evalcodes", "certify", "--kind", "MDS", "--field", "GF(8)", "--sigma", "1",
            "--support", "1,g,g^2", "--k", "2", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["kind"] == "MDS"
    assert isinstance(payload["holds"], bool)


def test_codes_build_emits_matrices(capsys):
    code, out, _ = run(
        capsys,
        [
            "codes", "build", "--field", "GF(4)", "--sigma", "1",
            "--modulus", "x^2+1", "--divisor", "x+1",
            "--emit", "G,H,dual", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["G"] == [["1", "1"]]
    assert payload["dim"] == 1
    assert payload["dual_divisor"] == "x+1"


BUILD = ["codes", "build", "--field", "GF(4)", "--sigma", "1", "--modulus", "x^2+1", "--divisor", "x+1"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("emit, bad", [("G,h", "h"), ("junk", "junk"), ("G,,H", ""), ("g", "g")])
def test_codes_build_rejects_unknown_emit_items(capsys, fmt, emit, bad):
    with pytest.raises(SystemExit) as e:
        main(BUILD + ["--emit", emit, "--format", fmt])
    out = capsys.readouterr()
    assert e.value.code == 2
    assert out.out == ""
    assert f"error: argument --emit: invalid choice: {bad!r} (choose from 'G', 'H', 'dual')" in out.err


def test_codes_build_emit_items_are_stripped(capsys):
    spaced = run(capsys, BUILD + ["--emit", " H , dual ", "--format", "json"])
    assert spaced == run(capsys, BUILD + ["--emit", "H,dual", "--format", "json"])
    assert sorted(json.loads(spaced[1])["result"]) == ["H", "dim", "dual_divisor", "n"]
    assert sorted(json.loads(run(capsys, BUILD + ["--format", "json"])[1])["result"]) == ["G", "dim", "n"]


def test_codes_build_refuses_the_dual_of_a_code_of_another_modulus(capsys):
    other = ["codes", "build", "--field", "GF(8)", "--sigma", "1", "--modulus", "x^3+x", "--divisor", "x+1",
             "--format", "json"]
    code, out, _ = run(capsys, other + ["--emit", "dual"])
    assert (code, json.loads(out)) == (3, {"error": {"code": 3, "message": "the code's modulus is not x^3 - 1"}})
    code, out, _ = run(capsys, other + ["--emit", "G,H"])
    assert code == 0 and sorted(json.loads(out)["result"]) == ["G", "H", "dim", "n"]


def test_linearized_dickson(capsys):
    code, out, _ = run(
        capsys,
        ["linearized", "dickson", "--field", "GF(4)", "--poly", "y^2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["dickson"] == [["0", "1"], ["1", "0"]]
    assert payload["conjugation_identity"] is True


def test_spbwsets_roots(capsys):
    code, out, _ = run(
        capsys,
        [
            "spbwsets", "roots",
            "--presentation", os.path.join(PRES, "qplane9.json"),
            "--f", "x*y", "--point", "0,0",
        ],
    )
    assert code == 0
    assert out.strip() == "True"


def test_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        ["poly", "mul", "--field", "GF(6)", "--sigma", "1", "--a", "x", "--b", "x"],
    )
    assert code == 3
    assert "error (3)" in err


def test_domain_error_json_payload(capsys):
    code, out, _ = run(
        capsys,
        [
            "poly", "divmod", "--field", "GF(4)", "--sigma", "1",
            "--a", "x", "--b", "0", "--format", "json",
        ],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["code"] == 3


def test_guard_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        ["poly", "factor", "--field", "GF(4)", "--sigma", "1", "--g", "x^7+x"],
    )
    assert code == 4


def test_guard_error_json_reports_size_and_cap(capsys):
    code, out, _ = run(
        capsys,
        ["poly", "factor", "--field", "GF(4)", "--sigma", "1", "--g", "x^7+x", "--format", "json"],
    )
    assert code == 4
    assert json.loads(out) == {
        "error": {"code": 4, "message": "factorization guard: degree 7 exceeds the cap 6"}
    }


def run_within(capsys, argv, seconds=5):
    """run(), failing if the command is still running after the given seconds."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{argv} was still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        return run(capsys, argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_large_prime_field_literal_is_refused_at_once(capsys):
    """GF(n) above the table cap is refused before n is factored by trial division."""
    code, out, _ = run_within(capsys, ["field", "info", "GF(1000000007)", "--format", "json"])
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": "field size 1000000007 exceeds table cap 65536"}}


def test_huge_characteristic_is_refused_at_once(capsys):
    """GF(q^k) above the table cap is refused before q is tested for primality."""
    code, out, _ = run_within(capsys, ["field", "info", "GF(2305843009213693951^1)", "--format", "json"])
    assert code == 4
    assert json.loads(out) == {
        "error": {"code": 4, "message": "field size 2305843009213693951^1 exceeds table cap 65536"}
    }


def test_delta_ring_product_above_row_cap_is_refused_at_once(capsys):
    argv = ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--delta-w", "w", "--a", "x^20000", "--b", "x^20000"]
    code, out, _ = run_within(capsys, argv + ["--format", "json"])
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": (
        "x^e*d rows in a ring with delta: coefficient count 600050001 exceeds the cap 1048576")}}


def test_delta_ring_left_division_above_conversion_cap_is_refused_at_once(capsys):
    argv = ["poly", "divmod", "--side", "left", "--field", "GF(4)", "--sigma", "1", "--delta-w", "w",
            "--a", "x^20000", "--b", "x^20000"]
    code, out, _ = run_within(capsys, argv + ["--format", "json"])
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": (
        "change of variable y = x + w: step count 200010000 exceeds the cap 1048576")}}


@pytest.mark.parametrize("delta_w", ["", " "])
def test_empty_delta_w_is_refused_not_ignored(capsys, delta_w):
    argv = ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--delta-w", delta_w, "--a", "x", "--b", "w"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 3
    assert json.loads(out) == {"error": {"code": 3, "message": "bad element literal ''"}}
    assert run(capsys, argv) == (3, "", "error (3): bad element literal ''\n")


@pytest.mark.parametrize("literal, degree", [("x^65537", 65537), ("x^40000*x^40000", 80000)])
def test_skew_polynomial_term_above_degree_cap_is_refused_at_once(capsys, literal, degree):
    argv = ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--a", literal, "--b", "x", "--format", "json"]
    code, out, _ = run_within(capsys, argv)
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": (
        f"polynomial term of degree {degree} exceeds the cap 65536")}}


def test_monomial_above_degree_cap_is_refused():
    from orecodes.errors import GuardError
    from orecodes.gf import GF
    from orecodes.skewpoly import OreRing

    with pytest.raises(GuardError, match="monomial of degree 65537 exceeds the cap 65536"):
        OreRing(GF(2, 2), 1).monomial(65537)


@pytest.mark.parametrize("literal, degree", [("x^100000000", 100000000), ("x^40*y^30", 70)])
def test_pbw_term_above_degree_cap_is_refused_at_once(capsys, literal, degree):
    argv = ["spbw", "mul", "--presentation", os.path.join(PRES, "qplane4.json"), "--a", literal, "--b", "1",
            "--format", "json"]
    code, out, _ = run_within(capsys, argv)
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": f"polynomial term of degree {degree} exceeds the cap 64"}}


@pytest.mark.parametrize("op, gens, degree, message", [
    ("center", [], 33, "center degree 33 exceeds the cap 32"),
    ("center", [], 10 ** 9, "center degree 1000000000 exceeds the cap 32"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--samples", "800"], 11,
     "Nullstellensatz work 800 samples x max(degree 11, 1)^2 = 96800 exceeds the cap 80000"),
    ("nullstellensatz", ["--gens", "x^2-1,y"], 10 ** 9,
     f"Nullstellensatz work 50 samples x max(degree 1000000000, 1)^2 = {50 * 10 ** 18} exceeds the cap 80000"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--samples", "0"], 33, "center degree 33 exceeds the cap 32"),
])
def test_spbwsets_degree_above_cap_is_refused_at_once(capsys, op, gens, degree, message):
    argv = ["spbwsets", op, "--presentation", os.path.join(PRES, "qplane9.json"), *gens, "--degree", str(degree),
            "--format", "json"]
    code, out, _ = run_within(capsys, argv)
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": message}}


@pytest.mark.parametrize("op, flags, code, message", [
    ("center", ["--degree", "-3"], 3, "center degree -3 is negative"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--degree", "-2"], 3, "Nullstellensatz degree -2 is negative"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--samples", "-5"], 3, "Nullstellensatz sample budget -5 is negative"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--degree", "10", "--samples", "801"], 4,
     "Nullstellensatz work 801 samples x max(degree 10, 1)^2 = 80100 exceeds the cap 80000"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--samples", str(10 ** 9)], 4,
     "Nullstellensatz work 1000000000 samples x max(degree 4, 1)^2 = 16000000000 exceeds the cap 80000"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--degree", "16", "--samples", "500"], 4,
     "Nullstellensatz work 500 samples x max(degree 16, 1)^2 = 128000 exceeds the cap 80000"),
    ("nullstellensatz", ["--gens", "x^2-1,y", "--degree", "0", "--samples", "80001"], 4,
     "Nullstellensatz work 80001 samples x max(degree 0, 1)^2 = 80001 exceeds the cap 80000"),
])
def test_spbwsets_negative_or_oversized_inputs_are_refused_at_once(capsys, op, flags, code, message):
    argv = ["spbwsets", op, "--presentation", os.path.join(PRES, "qplane9.json"), *flags, "--format", "json"]
    got, out, _ = run_within(capsys, argv)
    assert got == code
    assert json.loads(out) == {"error": {"code": code, "message": message}}


@pytest.mark.parametrize("argv, size", [
    # a cubic with no right root, so the search reaches degree 2
    (["poly", "factor", "--field", "GF(512)", "--sigma", "1", "--g", "x^3+w^278*x^2+w^303*x+w^121"],
     "512^2 = 262144"),
    # an irreducible quartic: no divisor of degree 1 or 2, so the search reaches degree 3
    (["poly", "factor", "--field", "GF(64)", "--sigma", "1", "--g", "x^4+w^18*x^3+w^28*x^2+w^18*x+w^49"],
     "64^3 = 262144"),
])
def test_monic_search_past_the_cap_exits_4_quickly(capsys, argv, size):
    code, out, _ = run_within(capsys, argv + ["--format", "json"])
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": (
        f"monic search space |F|^d = {size} exceeds the cap 65536")}}


@pytest.mark.parametrize("argv, message", [
    (["evalcodes", "distance", "--field", "GF(256)", "--sigma", "1", "--support", "1,g,g^2", "--k", "3"],
     "message space q^k = 16777216 exceeds the cap 1048576"),
    (["linearized", "algebra-check", "--field", "GF(128)"], "matrix algebra check: |F| = 128 exceeds the cap 64"),
    (["poly", "similar", "--field", "GF(32)", "--sigma", "1", "--g", "x^4+g*x+1", "--h", "x^4+g^3*x+1"],
     "similarity search space |F|^m = 32^4 = 1048576 exceeds the cap 65536"),
])
def test_size_guard_past_its_cap_exits_4_quickly(capsys, argv, message):
    """The guards no other test here reaches through the command line."""
    code, out, _ = run_within(capsys, argv + ["--format", "json"])
    assert code == 4
    assert json.loads(out) == {"error": {"code": 4, "message": message}}


def test_spbwsets_center_at_the_degree_cap_runs(capsys):
    argv = ["spbwsets", "center", "--presentation", os.path.join(PRES, "qplane9.json"), "--degree", "32"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.split()[-1] == "x^32"


NON_ASSOCIATIVE = {"schema_version": 1, "vars": ["x", "y", "z"], "field": "Q", "relations": [
    {"i": 1, "j": 2, "a": ["0", "0", "1"]}, {"i": 1, "j": 3, "c": "2"}, {"i": 2, "j": 3}]}


def test_non_associative_presentation_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE))
    argv = ["spbw", "mul", "--presentation", str(path), "--a", "x", "--b", "y", "--format", "json"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {"error": {"code": 3, "message": (
        "the presentation is not associative: (z*y)*x = 2*x*y*z+2*z^2 but z*(y*x) = 2*x*y*z+z^2")}}


# a fresh process per case, since the test session has imported every module
IMPORTS_AFTER = """import json, sys
from orecodes.cli import main
main({argv!r})
print(json.dumps(sorted(sys.modules)))
"""


def _child_stdout(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def _modules_after(argv):
    return set(json.loads(_child_stdout(IMPORTS_AFTER.format(argv=argv)).splitlines()[-1]))


def test_field_info_imports_only_gf():
    loaded = _modules_after(["field", "info", "GF(4)"])
    assert {m for m in loaded if m.split(".")[0] == "orecodes"} == {
        "orecodes", "orecodes.cli", "orecodes.errors", "orecodes.gf"}


def test_poly_mul_imports_no_pbw_modules():
    loaded = _modules_after(["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--a", "x^2+w*x+w", "--b", "x+w"])
    assert "orecodes.skewpoly" in loaded
    assert not loaded & {"orecodes.spbw", "orecodes.spbwsets", "orecodes.scalars", "fractions"}


@pytest.mark.parametrize("name", ["witten", "qspace3"])
def test_spbw_mul_over_q_and_qi_imports_no_fractions(name):
    loaded = _modules_after(["spbw", "mul", "--presentation", os.path.join(PRES, f"{name}.json"),
                             "--a", "(1/2+3)*x", "--b", "y"])
    assert "orecodes.scalars" in loaded
    assert not loaded & {"fractions", "decimal"}


@pytest.mark.parametrize("argv", [
    ["evalcodes", "certify", "--kind", "MDS", "--field", "GF(8)", "--sigma", "1", "--support", "1,g,g^2", "--k", "2"],
    ["spbw", "divide", "--presentation", os.path.join(PRES, "witten.json"), "--f", "x^2*y+x*z+y*z",
     "--by", "x-1,y+2,z+3"],
    ["spbwsets", "roots", "--presentation", os.path.join(PRES, "qplane9.json"), "--f", "x*y", "--point", "0,0"],
])
def test_result_records_import_no_dataclasses(argv):
    bare = set(json.loads(_child_stdout("import json, sys\nprint(json.dumps(sorted(sys.modules)))")))
    assert not (_modules_after(argv) - bare) & {"dataclasses", "inspect"}


def test_package_names_resolve_on_first_use():
    script = ("import orecodes\nfrom orecodes import *\n"
              "print(OreRing is orecodes.OreRing, PBWPresentation.__name__, load_presentation.__name__, GF(2, 2).size)")
    assert _child_stdout(script).split() == ["True", "PBWPresentation", "load_presentation", "4"]


def test_parser_builds_op_parsers_only_for_its_command(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *a, **kw):
        init(self, *a, **kw)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    argv = ["field", "info", "GF(4)"]
    assert cli.build_parser(argv).parse_args(argv).literal == "GF(4)"
    assert [p for p in progs if len(p.split()) > 2] == ["orecodes field info"]
    assert sorted(p.split()[1] for p in progs if len(p.split()) == 2) == sorted(cli.COMMANDS)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["poly", "mul", "--field", "GF(4)"])
    assert e.value.code == 2


def test_byte_identical_reruns(capsys):
    argv = [
        "spbwsets", "nullstellensatz",
        "--presentation", os.path.join(PRES, "qplane9.json"),
        "--gens", "x^2-1,y", "--degree", "4", "--samples", "10",
        "--seed", "5", "--format", "json",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["result"]["holds"] if "result" in json.loads(out1) else True


def test_seed_only_on_nullstellensatz(capsys):
    with pytest.raises(SystemExit) as e:
        main(["poly", "mul", "--field", "GF(4)", "--a", "x", "--b", "x", "--seed", "1"])
    assert e.value.code == 2
    code, out, _ = run(capsys, [
        "spbwsets", "nullstellensatz", "--presentation", os.path.join(PRES, "qplane9.json"),
        "--gens", "x^2-1,y", "--degree", "2", "--samples", "5", "--seed", "1", "--format", "json",
    ])
    assert code == 0 and "result" in json.loads(out)


def _readme_examples():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("orecodes ")]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_example(capsys, monkeypatch, argv):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    if "--format" not in argv:
        argv = argv + ["--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and "result" in json.loads(lines[0])


def test_readme_has_ten_examples():
    assert len(_readme_examples()) == 10
