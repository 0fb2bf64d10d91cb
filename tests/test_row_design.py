"""The row design: gf alone reads the field's tables (the Zech table, the
index <-> code maps and the packed rows' translate tables) and picks each
field's row kind; the modules above it call the operations of
FiniteField.rows and never choose a row path by the field's size or
characteristic."""

import ast
import os

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


def test_right_euclid_loop_stays_on_rows():
    """The while loop of skewpoly._right_euclid converts nothing: no pack, unpack or _from_idx
    and no SkewPoly method is called inside it, only row operations."""
    tree = _tree("skewpoly.py")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    skewpoly_class = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SkewPoly")
    forbidden = {"pack", "unpack", "_from_idx", "SkewPoly"} | {
        node.name for node in skewpoly_class.body if isinstance(node, ast.FunctionDef)}
    loops = [node for node in ast.walk(functions["_right_euclid"]) if isinstance(node, ast.While)]
    assert len(loops) == 1
    called = set()
    for node in ast.walk(loops[0]):
        if isinstance(node, ast.Call):
            called.add(node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
        elif isinstance(node, ast.Attribute) and node.attr in forbidden:
            called.add(node.attr)  # a bound method taken out of the loop's calls
    assert "addmul" in called  # the loop's row operations are calls the walk sees
    assert called & forbidden == set()
