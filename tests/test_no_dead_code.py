"""Every package definition has a caller, every module-level name and
import a reader, and every stored attribute a reader.

A top-level function or class of ``src/continuum_lab``, or a non-dunder
method of a top-level class, must be named in ``src/``, ``demos/`` or
``perfbench/*.py`` other than by a definition: as a name, an attribute,
an imported name or part of a dotted string (the tracer's targets).
Definitions do not count as names, so two same-named definitions that
nothing calls both fail.  Tests are not callers: library code that only
tests call fails here.  A name that a module-level assignment binds (a
constant, a type alias) must be read in the same files in the same ways;
an assignment target is not a read.  An import must be read by its
module, or re-imported from it by another package module.  An attribute
that a top-level class stores, by ``self.x = ...`` in its methods or as
an annotated class-level field, must be read in the same files as an
attribute (a ``.x`` load) or as part of a dotted string.  No package
module imports another module's underscore name unless a keep-list entry
says why, so a module's private kernels are driven only from inside it.
A defaulted parameter of a package function or method must be set, by
keyword or by position, by some call in the same files (a constructor is
called by its class name; a ``*`` or ``**`` call sets every parameter),
so that no library knob exists only for tests.  Nor may any parameter
be one that every call in the same files passes the same value, when
that value is a module-level constant of the package, a ``math``
constant, or one literal at two calls or more: such a knob is turned
only by tests, and the function should read the value itself.
The working-memory block budget is bound once, in ``errors``: no other
module imports it by name, copies it at import or binds a block size of
its own.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "continuum_lab").glob("*.py"))
CALLERS = (PACKAGE + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# Definitions kept with no caller, each with its reason.
KEEP = {
    # The only reader of a tower's rotation, which with endpoints[0] places
    # the grid in the plane as build_tower(x, y) promises; the frame tests
    # check it.
    "realize.ChainTower.cell_center",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _definitions(tree):
    """(qualified name, name) of the top-level functions and classes and of
    the non-dunder methods of top-level classes."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _names(tree):
    """Every name the tree mentions outside a definition's own name or an
    assignment target."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _dead():
    refs = Counter(name for path in CALLERS for name in _names(_tree(path)))
    return {f"{path.stem}.{qual}" for path in PACKAGE
            for qual, name in _definitions(_tree(path)) if not refs[name]}


def test_every_definition_has_a_caller():
    assert sorted(_dead() - KEEP) == []


def test_the_keep_list_holds_only_definitions_with_no_caller():
    assert _dead() >= KEEP


def _module_names(tree):
    """The names that the module-level assignments of a tree bind."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_every_module_level_name_is_read():
    refs = Counter(name for path in CALLERS for name in _names(_tree(path)))
    unread = sorted(f"{path.stem}.{name}" for path in PACKAGE
                    for name in _module_names(_tree(path)) if not refs[name])
    assert unread == []


def _stored(tree):
    """(qualified name, name) of the attributes each top-level class stores:
    its annotated class-level fields and its ``self.x`` assignments."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {item.target.id for item in cls.body
                 if isinstance(item, ast.AnnAssign)
                 and isinstance(item.target, ast.Name)}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
        for name in names:
            yield f"{cls.name}.{name}", name


def _attribute_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                yield from parts


def test_every_stored_attribute_is_read():
    reads = {name for path in CALLERS for name in _attribute_reads(_tree(path))}
    unread = sorted(f"{path.stem}.{qual}" for path in PACKAGE
                    for qual, name in _stored(_tree(path)) if name not in reads)
    assert unread == []


# Reads are matched by name alone, so a read of one class's attribute also
# passes every other class that stores the same name, even one whose
# attribute only tests read.  Each name that several classes store is
# listed with its classes and, for each, a reader in library code; a newly
# shared name, or a new class storing a listed one, fails until it is
# listed with its reader.
SHARED_STORED = {
    "L": ({"psi.PsiModel", "psi.PlanckReport"},
          "PsiModel.L: planck_report and cli's psi report; "
          "PlanckReport.L: demo 05"),
    "cell_size": ({"chains.Chain", "realize.ChainTower"},
                  "Chain.cell_size: Chain.mesh and chain_point_sets; "
                  "ChainTower.cell_size: cell_center and tower_to_json"),
    "k": ({"psi.PsiModel", "psi.PsiPathspace"},
          "PsiModel.k: id_of and cli's psi report; "
          "PsiPathspace.k: its arc and piece formulas"),
    "l": ({"psi.PsiModel", "psi.PlanckReport", "psi.PsiValues"},
          "PsiModel.l: planck_report; PlanckReport.l: demo 05; "
          "PsiValues.l: level_structure_report and cli's psi levels"),
    "m": ({"psi.PsiModel", "psi.PsiPathspace"},
          "PsiModel.m: id_of and cli's psi report; "
          "PsiPathspace.m: its element formulas"),
    "mesh": ({"chains.ChainReport", "realize.LevelDiagnostics"},
             "ChainReport.mesh: realize._grid_tower; "
             "LevelDiagnostics.mesh: tower_to_json and suite's tower check"),
    "ok": ({"chains.ChainReport", "chains.CrookednessReport",
            "suite.CheckResult"},
           "ChainReport.ok: realize_pattern; CrookednessReport.ok: "
           "cli's chains verify; CheckResult.ok: cli's suite report"),
    "points": ({"metric_core.FinitePointSet", "psi.PsiModel"},
               "FinitePointSet.points: the Hausdorff kernels; "
               "PsiModel.points: svg's psi drawing"),
    "q": ({"psi.PsiModel", "psi.PsiPathspace"},
          "PsiModel.q: id_of and strict_order; "
          "PsiPathspace.q: its arc formulas"),
    "shapes": ({"psi.PsiModel", "psi.PsiPathspace"},
               "PsiModel.shapes: element and strict_order; "
               "PsiPathspace.shapes: join, meet and _geodesic"),
    "v": ({"psi.PsiValues", "psi.PsiPathspace"},
          "PsiValues.v: level_structure_report and cli's psi report; "
          "PsiPathspace.v: join, meet and _geodesic"),
    "weights": ({"psi.Edges", "whitney.WhitneyMap"},
                "Edges.weights: suite's psi path check; "
                "WhitneyMap.weights: WhitneyMap.series"),
}


def test_every_shared_stored_attribute_name_is_listed():
    owners = {}
    for path in PACKAGE:
        for qual, name in _stored(_tree(path)):
            owners.setdefault(name, set()).add(
                f"{path.stem}.{qual.rsplit('.', 1)[0]}")
    shared = {name: cls for name, cls in owners.items() if len(cls) > 1}
    assert shared == {name: cls for name, (cls, _) in SHARED_STORED.items()}


def test_every_import_is_read():
    trees = {path.stem: _tree(path) for path in PACKAGE}
    reimported = {(node.module, alias.name) for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names}
    unread = []
    for stem, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and (stem, alias.name) not in reimported:
                    unread.append(f"{stem}: {alias.name}")
    assert unread == []


def _parameters(tree):
    """(qualified name, called name, positional parameter names, defaulted
    parameter names) of the top-level functions and of the non-dunder
    methods and constructors of top-level classes; a constructor is called
    by its class name, and a method's positions start after ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and (item.name == "__init__"
                             or not item.name.startswith("__")):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" \
                        else item.name
                    yield (f"{node.name}.{item.name}", called,
                           *_signature(item.args, 0 if static else 1))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (node.name, node.name, *_signature(node.args, 0))


def _signature(args, skip):
    """(positional names, defaulted names, keyword-only names)."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional[skip:], defaulted, [a.arg for a in args.kwonlyargs]


def _calls(paths):
    """The calls in ``paths``, by called name."""
    found = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                found.setdefault(name, []).append(node)
    return found


def _starred(call):
    """Whether a call passes ``*`` or ``**`` arguments."""
    return any(isinstance(a, ast.Starred) for a in call.args) or \
        any(k.arg is None for k in call.keywords)


def _settings():
    """For each called name: the keywords its calls set, the most
    positional arguments one passes, and whether one passes ``*`` or
    ``**``."""
    return {name: [{k.arg for c in calls for k in c.keywords},
                   max(len(c.args) for c in calls),
                   any(map(_starred, calls))]
            for name, calls in _calls(CALLERS).items()}


def test_every_defaulted_parameter_is_set_by_a_caller():
    settings = _settings()
    unset = []
    for path in PACKAGE:
        for qual, called, positional, defaulted, _ in _parameters(
                _tree(path)):
            keywords, most, starred = settings.get(called, [set(), 0, False])
            unset += [f"{path.stem}.{qual}({name})" for name in defaulted
                      if not starred and name not in keywords
                      and name not in positional[:most]]
    assert sorted(unset) == []


# Parameters that every program call passes one fixed value, each with its
# reason.
FIXED_KEEP = set()

MATH_CONSTANTS = {"e", "inf", "nan", "pi", "tau"}


def _passed(call, name, position):
    """The expression a call passes to a parameter, None where it passes
    none, or ``...`` where a ``*`` or ``**`` argument may set it."""
    if _starred(call):
        return ...
    if position is not None and position < len(call.args):
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _fixed_kind(value, constants):
    """Why an argument is one fixed value: ``"constant"`` for a
    module-level name of the package, bare or as a module attribute, or a
    ``math`` constant; ``"literal"`` for a literal.  None for anything
    else, a local name among them, whatever its case."""
    if isinstance(value, ast.Name):
        return "constant" if value.id in constants else None
    if isinstance(value, ast.Attribute) and \
            isinstance(value.value, ast.Name):
        named = MATH_CONSTANTS if value.value.id == "math" else constants
        return "constant" if value.attr in named else None
    try:
        ast.literal_eval(value)
    except ValueError:
        return None
    return "literal"


def _fixed_parameters(package, callers):
    """``module.qualname(parameter)`` of each parameter that every call of
    its name in ``callers`` passes the same value: a module-level constant
    of ``package`` or a ``math`` constant at one call or more, or one
    literal at two calls or more."""
    trees = {path: _tree(path) for path in package}
    constants = {name for tree in trees.values()
                 for name in _module_names(tree)}
    calls = _calls(callers)
    fixed = []
    for path, tree in trees.items():
        for qual, called, positional, _, kwonly in _parameters(tree):
            for name in positional + kwonly:
                position = positional.index(name) if name in positional \
                    else None
                values = [_passed(c, name, position)
                          for c in calls.get(called, [])]
                if not values or any(v is None or v is ... for v in values):
                    continue
                if len({ast.dump(v) for v in values}) > 1:
                    continue
                kind = _fixed_kind(values[0], constants)
                if kind == "constant" or \
                        kind == "literal" and len(values) >= 2:
                    fixed.append(f"{path.stem}.{qual}({name})")
    return sorted(fixed)


def test_no_parameter_is_fixed_by_every_caller():
    assert sorted(set(_fixed_parameters(PACKAGE, CALLERS)) - FIXED_KEEP) == []


def test_the_fixed_keep_list_holds_only_fixed_parameters():
    assert set(_fixed_parameters(PACKAGE, CALLERS)) >= FIXED_KEEP


def test_the_fixed_parameter_rule_sees_each_kind_of_value(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import math\nLIMIT = 4\n"
        "def bound(x, n): return x\n"
        "def inf(x, eps): return x\n"
        "def twice(x, k): return x\n"
        "def once(x, k): return x\n"
        "def local(K): return K\n"
        "def varied(x, w): return x\n"
        "def starred(x, y): return x\n"
        "def keyword(x, *, lim): return x\n"
        "def defaulted(x, lim=LIMIT): return x\n"
        "def named(x, lim): return x\n"
        "class C:\n    def m(self, lim): return lim\n"
        "    @staticmethod\n    def s(lim): return lim\n"
        "def caller(a, K, args):\n"
        "    bound(a, LIMIT)\n    inf(a, math.inf)\n    inf(K, math.inf)\n"
        "    twice(a, 3)\n    twice(K, 3)\n    once(a, 3)\n    local(K)\n"
        "    varied(a, 1)\n    varied(a, 2)\n"
        "    starred(1, LIMIT)\n    starred(*args)\n"
        "    defaulted(a)\n    defaulted(K, LIMIT)\n"
        "    named(a, lim=LIMIT)\n    named(K, LIMIT)\n"
        "    C().m(LIMIT)\n    C.s(-1)\n    C.s(-1)\n")
    other = tmp_path / "other.py"
    other.write_text("import mod\nmod.keyword(0, lim=mod.LIMIT)\n")
    assert _fixed_parameters([mod], [mod, other]) == [
        "mod.C.m(lim)", "mod.C.s(lim)", "mod.bound(n)", "mod.inf(eps)",
        "mod.keyword(lim)", "mod.named(lim)", "mod.twice(k)"]


# Underscore names that one package module may import from another, each
# with its reason.
SHARED_PRIVATE = {
    # the element cap, read from CONTINUUM_LAB_MAX_ELEMENTS by every module
    # that refuses an oversized build before building it
    "errors._max_elements",
    # the one working-memory budget: every blocked kernel takes its row
    # blocks here, so one budget, read at each call, bounds them all
    "errors._row_blocks",
    # the one bound-and-settle loop, shared by the exact Hausdorff kernels
    # of metric_core and the exact grid Hausdorff of realize
    "metric_core._settle",
    # the planar distance formula, so that Whitney's size table F and the
    # Hausdorff kernels read bit-equal distances
    "metric_core._pair_distances",
    # math's transcendentals over arrays, so that the suite's check rounds
    # as the interval-disk maps it checks do
    "continua._by_math",
    # the one seeded draw of distinct ids from PCG64's raw stream, so that
    # the suite's geodesic sources and curvature_check's triples depend on
    # no Generator method's algorithm
    "psi._draws",
}


def _private_imports():
    """``module.name`` of each underscore name that a package module
    imports from another package module."""
    return {f"{node.module}.{alias.name}" for path in PACKAGE
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_no_module_imports_another_modules_private_name():
    found = _private_imports()
    assert sorted(found - SHARED_PRIVATE) == []
    assert found >= SHARED_PRIVATE  # the keep-list holds only imports


BUDGET = "SIZE_BLOCK_FLOATS"


def _block_bindings(path):
    """The block sizes a module binds: module-level names with BLOCK or
    CHUNK in them, module-level assignments that read the budget (a copy
    taken at import), and imports of the budget by name."""
    tree = _tree(path)
    for name in _module_names(tree):
        if "BLOCK" in name or "CHUNK" in name:
            yield f"{path.stem}.{name}"
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and \
                BUDGET in _names(node.value):
            yield f"{path.stem}: copies {BUDGET}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == BUDGET:
                    yield f"{path.stem}: imports {BUDGET}"


def test_the_block_budget_is_bound_once():
    found = {b for path in PACKAGE for b in _block_bindings(path)}
    assert sorted(found) == [f"errors.{BUDGET}"]
