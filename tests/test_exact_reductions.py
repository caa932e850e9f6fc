"""No reported float comes from a library-ordered reduction.

numpy sums with an unrolled pairwise order that its documentation leaves
to the platform and the build, and a matrix product's order is the BLAS's.
So ``.sum``, ``.mean``, ``np.add.reduce``, ``@`` and ``dot`` may appear in
``src/continuum_lab`` only where the result cannot depend on that order:
each entry of ``KEEP`` names one such use, by module, enclosing function
and source text, and says why it is exact.  A float mean that must follow
numpy's order is written out instead (``psi._pairwise_sum``).

Nor does one come from a numpy transcendental: ``np.arctan2`` rounds
differently from ``math.atan2`` on 7.8% of inputs, and numpy picks SIMD
code for its elementary functions by build and CPU, so the package calls
:mod:`math` for them (``continua._by_math``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "continuum_lab").glob("*.py"))

KEEP = {
    "psi.PsiModel.strict_order: count.sum(axis=1)":
        "ints: the run lengths of each row of the order",
    "psi.curvature_check: (excess.max(axis=0) > tol).sum()":
        "bools: the count of triples breaking the triangle inequality",
    "psi.level_structure_report: adj.sum(axis=1)":
        "bools: each shell element's neighbour count",
    "realize._grid_tower: (mask & ~prev_closure).sum()":
        "bools: the count of cells outside the previous closure",
    "suite.check_psi_paths.run: per_fiber @ per_fiber":
        "ints: the pieces per fiber, squared and added",
    "whitney.fsum_rows: "
    "(run[:-1] - (run[1:] - part) + (block - part)).sum(axis=0)":
        "Sum2's error sum q: fsum_rows certifies r whatever order q was "
        "added in, and falls back to math.fsum where it cannot",
}


def _uses(path):
    """(enclosing function, source) of each reduction the module makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if _is_reduction(child):
                yield where, ast.unparse(child)
            yield from walk(child, inner)
    yield from walk(tree, "")


def _is_reduction(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr in ("sum", "mean", "dot"):
            return True
        return (func.attr == "reduce" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "add")
    return False


def _found():
    return {f"{path.stem}.{where}: {src}" for path in PACKAGE
            for where, src in _uses(path)}


def test_every_reduction_in_the_package_is_on_the_keep_list():
    assert sorted(_found() - set(KEEP)) == []


def test_every_keep_list_entry_is_still_in_the_package():
    assert sorted(set(KEEP) - _found()) == []


def test_the_guard_sees_each_kind_of_reduction(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b):\n    x = a.sum() + a.mean(axis=0)\n"
                   "    y = np.add.reduce(a) + np.dot(a, b) + a @ b\n"
                   "    a @= b\n    return sum(a)\n")
    assert sorted(src for _, src in _uses(mod)) == [
        "a @ b", "a @= b", "a.mean(axis=0)", "a.sum()", "np.add.reduce(a)",
        "np.dot(a, b)"]


def _choice_calls(path):
    """Source of each ``.choice(...)`` call the module makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"]


def test_no_draw_depends_on_the_choice_algorithm():
    # NEP 19 pins PCG64's raw stream but not the algorithm of
    # Generator.choice; psi._draws reads the raw stream instead
    assert [f"{path.stem}: {src}" for path in PACKAGE
            for src in _choice_calls(path)] == []


# each bit packing routine of numpy, and the one package function that may
# name it: every packed word table is built, and read back, in one place
PACKERS = {"packbits": "continua.packed_rows",
           "unpackbits": "continua.unpacked_rows"}


def _packer_names(path):
    """``(where, name)`` of each packbits or unpackbits the module names, as
    an attribute, a name or an import: ``where`` is the dotted name of the
    innermost function or class around it, or ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if where == "<module>" \
                    else f"{where}.{child.name}"
                visit(child, inner)
                continue
            names = [alias.name for alias in getattr(child, "names", ())
                     if isinstance(alias, ast.alias)]
            names.append(getattr(child, "attr", getattr(child, "id", None)))
            found.extend((where, name) for name in names if name in PACKERS)
            visit(child, where)

    visit(tree, "<module>")
    return found


def _misplaced_packers(paths):
    return sorted(f"{path.stem}.{where}: {name}" for path in paths
                  for where, name in _packer_names(path)
                  if f"{path.stem}.{where}" != PACKERS[name])


def test_bits_are_packed_and_unpacked_in_one_function_each():
    assert _misplaced_packers(PACKAGE) == []
    assert {f"{path.stem}.{where}" for path in PACKAGE
            for where, _ in _packer_names(path)} == set(PACKERS.values())


def test_the_packer_guard_sees_every_way_to_name_a_packer(tmp_path):
    mod = tmp_path / "continua.py"
    mod.write_text("import numpy as np\nfrom numpy import unpackbits\n"
                   "def packed_rows(a):\n    return np.packbits(a)\n"
                   "def unpacked_rows(a):\n    return np.packbits(a)\n"
                   "class C:\n    def f(self, a):\n"
                   "        g = np.unpackbits\n        return g(a)\n"
                   "def h(a):\n    def packed_rows(b):\n"
                   "        return numpy.packbits(b)\n    return a\n")
    assert _misplaced_packers([mod]) == [
        "continua.<module>: unpackbits", "continua.C.f: unpackbits",
        "continua.h.packed_rows: packbits",
        "continua.unpacked_rows: packbits"]


TRANSCENDENTALS = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "hypot",
    "sinh", "cosh", "tanh", "exp", "expm1", "log", "log1p", "log2", "log10",
    "power"}


def _transcendentals(path):
    """Source of each numpy transcendental the module names, called or
    passed on (``np.exp`` or ``numpy.exp``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in TRANSCENDENTALS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_no_float_comes_from_a_numpy_transcendental():
    assert [f"{path.stem}: {src}" for path in PACKAGE
            for src in _transcendentals(path)] == []


def test_the_transcendental_guard_sees_calls_and_references(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport numpy\nimport numpy as np\n"
                   "def f(x, y):\n"
                   "    a = np.arctan2(y, x) + numpy.log1p(x)\n"
                   "    b = _by_math(np.hypot, x, y) + np.power(x, 2)\n"
                   "    return a + b + math.atan2(y, x) + np.sqrt(x)\n")
    assert sorted(_transcendentals(mod)) == [
        "np.arctan2", "np.hypot", "np.power", "numpy.log1p"]
