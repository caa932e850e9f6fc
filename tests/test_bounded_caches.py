"""Every cache in ``src/continuum_lab`` is bounded.

A process may run many requests, so nothing the package keeps between
calls may grow without limit.  A ``functools.lru_cache`` names a finite
``maxsize``; ``functools.cache``, which never evicts, decorates only
functions of no parameters, whose one entry is their bound; and a
module-level variable that a function of its module writes into (by
item, ``setdefault`` or ``update``) is a store, whose module compares its
``len`` with a limit.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "continuum_lab").glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functools(node):
    """``"lru_cache"`` or ``"cache"`` where the node names that functools
    decorator (``functools.x``, or ``x`` imported by name), else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools":
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in ("lru_cache", "cache") else None


def _finite(call):
    """Whether an ``lru_cache(...)`` call names a maxsize other than None."""
    size = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "maxsize"), None)
    return size is not None and not (isinstance(size, ast.Constant)
                                     and size.value is None)


def _has_parameters(fn):
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs
                or a.kwarg)


def _unbounded_decorators(tree):
    """Source of each unbounded functools cache the module makes."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    decorates = {id(d): fn for fn in ast.walk(tree)
                 if isinstance(fn, _FUNCTIONS) for d in fn.decorator_list}
    out = []
    for node in ast.walk(tree):
        kind = _functools(node)
        if kind == "lru_cache":
            ok = id(node) in calls and _finite(calls[id(node)])
        elif kind == "cache":
            fn = decorates.get(id(node))
            ok = fn is not None and not _has_parameters(fn)
        else:
            continue
        if not ok:
            site = calls.get(id(node), node)
            fn = decorates.get(id(site))
            out.append(ast.unparse(site) + (f" on {fn.name}" if fn else ""))
    return out


def _unbounded_stores(tree):
    """Module-level names that a function writes into and whose ``len``
    the module never compares."""
    module = {t.id for stmt in tree.body
              for t in (stmt.targets if isinstance(stmt, ast.Assign) else
                        [stmt.target] if isinstance(stmt, ast.AnnAssign)
                        else [])
              if isinstance(t, ast.Name)}
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("setdefault", "update"):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module:
                written.add(target.id)
    measured = {side.args[0].id for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                for side in (node.left, *node.comparators)
                if isinstance(side, ast.Call)
                and isinstance(side.func, ast.Name) and side.func.id == "len"
                and len(side.args) == 1 and isinstance(side.args[0], ast.Name)}
    return sorted(written - measured)


def _unbounded(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return _unbounded_decorators(tree) + [
        f"store {name}" for name in _unbounded_stores(tree)]


def test_every_cache_in_the_package_is_bounded():
    assert [f"{path.stem}: {src}" for path in PACKAGE
            for src in _unbounded(path)] == []


def test_the_package_has_caches_for_the_guard_to_check():
    # the kept tower grids, the CLI parser and the kept hyperspaces
    text = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert "@functools.lru_cache(maxsize=GRID_TOWERS)" in text["realize"]
    assert "@functools.cache\ndef _build_parser()" in text["cli"]
    assert "len(_kept) >= KEPT_HYPERSPACES" in text["continua"]


def test_the_guard_sees_each_kind_of_cache(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "LIMIT = 4\nTABLE = {'a': 1}\n_kept = {}\n_memo = {}\n_seen = {}\n"
        "@functools.lru_cache(maxsize=LIMIT)\ndef a(x): return x\n"
        "@lru_cache(8)\ndef b(x): return x\n"
        "@functools.lru_cache\ndef c(x): return x\n"
        "@lru_cache(maxsize=None)\ndef d(x): return x\n"
        "@functools.cache\ndef e(): return 1\n"
        "@cache\ndef f(x): return x\n"
        "g = functools.lru_cache(None)(len)\n"
        "h = cache(len)\n"
        "def keep(k, v):\n"
        "    if len(_kept) >= LIMIT:\n        _kept.clear()\n"
        "    _kept[k] = v\n    return TABLE[k]\n"
        "def memo(k):\n    _memo.setdefault(k, []).append(k)\n"
        "def see(k):\n    _seen.update({k: 1})\n"
        "def local():\n    out = {}\n    out[1] = 2\n    return out\n")
    assert sorted(_unbounded(mod)) == [
        "cache on f", "cache(len)", "functools.lru_cache on c",
        "functools.lru_cache(None)", "lru_cache(maxsize=None) on d",
        "store _memo", "store _seen"]
