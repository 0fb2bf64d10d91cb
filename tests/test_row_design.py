"""The row design: gf alone reads the field's tables (the Zech table, the
index <-> code maps and the packed rows' translate tables) and picks each
field's row kind; the modules above it call the operations of
FiniteField.rows and never choose a row path by the field's size or
characteristic; and skewpoly's kernels take and return rows, building no
SkewPoly and calling none of its methods."""

import ast
import os

from orecodes.gf import GF
from orecodes.skewpoly import (OreRing, _from_y_i, _mul_i, _right_divmod_i, _right_euclid, _to_y_i, _x_power_rows,
                               _x_times_i, remove_derivation, residue_rows_i)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "orecodes")
TABLES = {"_zech", "_idx_to_code", "_code_to_idx", "_code_bytes", "_idx_bytes", "_scale_tables", "_frob_tables"}
ROW_KINDS = {"ByteRows", "ZechRows"}
ROW_USERS = ("skewpoly.py", "codes.py", "algset.py", "linalg.py")


def _tree(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), name)


def _attrs(node):
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_only_gf_reads_the_field_tables():
    assert TABLES <= _attrs(_tree("gf.py"))  # the names checked below are the tables gf keeps
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "gf.py":
            found += [f"{name}:{node.lineno}" for node in ast.walk(_tree(name))
                      if isinstance(node, ast.Attribute) and node.attr in TABLES]
    assert found == []


def test_row_users_do_not_branch_on_the_field_size():
    found = []
    for name in ROW_USERS:
        for node in ast.walk(_tree(name)):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                conditions = [node.test]
            elif isinstance(node, ast.comprehension):
                conditions = node.ifs
            else:
                conditions = []
            found += [f"{name}:{node.lineno}" for c in conditions if _attrs(c) & {"size", "q"}]
            if (isinstance(node, ast.Name) and node.id in ROW_KINDS) or (
                    isinstance(node, ast.Attribute) and node.attr in ROW_KINDS):
                found.append(f"{name}:{node.lineno}")
    assert found == []


# the kernels take and return rows of FiniteField.rows; the SkewPoly-level functions below work on
# the rows their polynomials hold
ROW_KERNELS = ("_x_times_i", "_x_power_rows", "_mul_i", "_right_divmod_i", "_right_euclid", "_to_y_i", "_from_y_i",
               "remove_derivation", "residue_rows_i")
ROW_READERS = ("_plus", "two_sided_test", "is_central", "bound_polynomial")


def _skewpoly_functions():
    tree = _tree("skewpoly.py")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    skewpoly_class = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SkewPoly")
    methods = {node.name for node in skewpoly_class.body if isinstance(node, ast.FunctionDef)}
    return functions, methods


def _called(node):
    """Names of the functions called under node, and of the attributes it reads."""
    called = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            called.add(sub.func.attr if isinstance(sub.func, ast.Attribute) else getattr(sub.func, "id", None))
        elif isinstance(sub, ast.Attribute):
            called.add(sub.attr)  # a bound method taken out of the calls
    return called


def test_right_euclid_loop_stays_on_rows():
    """The while loop of skewpoly._right_euclid converts nothing: no pack, unpack or _from_idx
    and no SkewPoly method is called inside it, only row operations."""
    functions, methods = _skewpoly_functions()
    forbidden = {"pack", "unpack", "_from_idx", "_from_row", "SkewPoly"} | methods
    loops = [node for node in ast.walk(functions["_right_euclid"]) if isinstance(node, ast.While)]
    assert len(loops) == 1
    called = _called(loops[0])
    assert "addmul" in called  # the loop's row operations are calls the walk sees
    assert called & forbidden == set()


def test_kernels_take_and_return_rows():
    """No kernel builds a SkewPoly or calls one of its methods, and none returns a row converted
    to indices (unpack or twist_row_i): a kernel may read a row's digits, and residue_rows_i yields
    index rows for the matrices built from them."""
    functions, methods = _skewpoly_functions()
    forbidden = {"_from_idx", "_from_row", "SkewPoly"} | methods
    found = []
    for name in ROW_KERNELS:
        kernel = functions[name]
        found += [f"{name} calls {c}" for c in sorted(_called(kernel) & forbidden)]
        found += [f"{name}:{node.lineno}" for node in ast.walk(kernel)
                  if isinstance(node, ast.Return) and node.value is not None
                  and _called(node.value) & {"unpack", "twist_row_i"}]
    assert found == []


def test_kernels_return_packed_rows_over_gf256():
    """Over GF(2^8) a row is an int (gf.ByteRows), so a kernel that returned an index list
    would return a list here."""
    field = GF(2, 8)
    for ring in (OreRing(field, 1), OreRing(field, 3, field.gen)):
        a, b = ring.parse("x^5+w*x^2+1").row, ring.parse("w^3*x^2+x+w").row
        results = [_x_times_i(ring, a), *(row for _, row in _x_power_rows(ring, a, 3)), _mul_i(ring, a, b),
                   *_right_divmod_i(ring, a, b), *_right_euclid(ring, a, b), _to_y_i(ring, a), _from_y_i(ring, a),
                   remove_derivation(ring, a)[1]]
        assert all(type(row) is int for row in results)
        assert next(residue_rows_i(ring, a, b)) == field.rows.unpack(_right_divmod_i(ring, a, b)[1], 2)


def test_skewpoly_functions_read_the_held_rows():
    """The SkewPoly-level functions that work on rows read their polynomials' rows: they unpack
    nothing and read no idx or coeffs view of a polynomial argument."""
    functions, _ = _skewpoly_functions()
    found = []
    for name in ROW_READERS:
        func = functions[name]
        polys = {a.arg for a in func.args.args
                 if a.arg in ("self", "other") or "SkewPoly" in ast.unparse(a.annotation or ast.Constant(""))}
        assert polys, name
        found += [f"{name}:{node.lineno}" for node in ast.walk(func)
                  if (isinstance(node, ast.Attribute) and node.attr in ("idx", "coeffs")
                      and isinstance(node.value, ast.Name) and node.value.id in polys)
                  or (isinstance(node, ast.Call) and _called(node.func) & {"unpack", "twist_row_i"})]
    assert found == []
