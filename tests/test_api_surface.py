"""The public API holds nothing that only tests use.

A default that no caller overrides is a constant with a second name: it
doubles the configurations a reader must consider and never gets a second
value.  The first check lists every parameter with a default of every public
function and method of the imported `elastosim` package, installed or under
`src/`, then looks for a call in the package, `perfbench/` or `demos/` that
passes it, by keyword or by position.  Tests do not count as callers.

A call that only forwards an optional parameter of its enclosing function
(``g(x=x)``) sets it only if that parameter is set in turn.  Calls are
matched by the called name alone, so a same-named function elsewhere can
keep a parameter alive; that errs toward passing, never toward a false
failure.

Its mirror asks the opposite: a default that every call overrides is never
used, so the parameter should be required.  Each optional parameter must be
left unset by at least one call in the package, `perfbench/`, `demos/` or
`tests/`; a splat counts as setting it.

The second check does the same for names: every public function, class,
method and property must be read somewhere in the package outside its own
definition, or in `perfbench/` or `demos/`.  A read is a bare name or an
attribute; an import alone, or a mention in a string, is not one.  Names are
again matched alone, so a same-named attribute of another object counts.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import elastosim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(elastosim.__file__).resolve().parent  # the package the rest of the tests import
CALLER_DIRS = ("perfbench", "demos")  # plus the package itself

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _optional_params(node, bound: bool) -> list[tuple[int | None, str]]:
    """(call position or None, name) of each parameter with a default.

    Positions count from the first argument a call writes, so a method's
    self or cls is skipped; keyword-only parameters have no position.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    offset = 1 if bound else 0
    first_default = len(positional) - len(args.defaults)
    out = [(i - offset, positional[i].arg) for i in range(first_default, len(positional))]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _public_defs(tree: ast.Module, module: str):
    """(qualified name, def node, bound) of each public function and method."""
    for node in tree.body:
        if isinstance(node, FUNCTION) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, FUNCTION) and not item.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{module}.{node.name}.{item.name}", item, not static


def _called_name(node: ast.AST) -> str | None:
    """The bare name a call calls (``f`` of ``f()`` and of ``x.f()``), else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _slots(call: ast.Call):
    """(slot, value) of each argument of a call.

    The slot is a position, a keyword, ``"*"`` for a ``*args`` splat or
    ``"**"`` for a ``**kwargs`` splat; a splat's value is None.
    """
    for i, arg in enumerate(call.args):
        yield ("*", None) if isinstance(arg, ast.Starred) else (i, arg)
    for kw in call.keywords:
        yield ("**", None) if kw.arg is None else (kw.arg, kw.value)


def _arguments(tree: ast.Module, owners: dict, optional: dict):
    """(called name, slot, forwarded parameter) of every call argument in a tree.

    The slot is as `_slots` gives it; a splat fills every slot of its kind.
    The forwarded parameter is (qualified name, parameter) when the argument
    is a bare optional parameter of the enclosing public function, else None.
    """
    out = []

    def visit(node, owner):
        owner = owners.get(id(node), owner)
        if name := _called_name(node):
            own = {p for _, p in optional.get(owner, ())}

            def forwarded(expr):
                return (owner, expr.id) if isinstance(expr, ast.Name) and expr.id in own else None

            out.extend((name, slot, forwarded(value)) for slot, value in _slots(node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


def orphaned_options(package: dict[str, str], callers: list[str]) -> list[str]:
    """Optional parameters of the package that no call sets, as ``module.name(param=...)``.

    Args:
        package: module name -> source of each package module; its calls count too.
        callers: sources of the other calling files.
    """
    trees = {module: ast.parse(src) for module, src in package.items()}
    optional, owners = {}, {}
    for module, tree in trees.items():
        for qualname, node, bound in _public_defs(tree, module):
            owners[id(node)] = qualname
            if params := _optional_params(node, bound):
                optional[qualname] = params
    passed = []
    for tree in list(trees.values()) + [ast.parse(src) for src in callers]:
        passed += _arguments(tree, owners, optional)

    live = set()
    changed = True
    while changed:  # forwarding chains resolve one link per sweep
        changed = False
        for qualname, params in optional.items():
            name = qualname.rsplit(".", 1)[-1]
            for position, param in params:
                if (qualname, param) in live:
                    continue
                if any(called == name
                       and (slot in (param, "*", "**") or (position is not None and slot == position))
                       and (source is None or source in live)
                       for called, slot, source in passed):
                    live.add((qualname, param))
                    changed = True
    return [f"{q}({p}=...)" for q, params in optional.items() for _, p in params
            if (q, p) not in live]


def test_scanner_follows_positions_methods_and_forwarding():
    package = {"m": (
        "def f(a, b=1, c=2):\n"
        "    return g(c=c)\n"
        "def g(c=3, d=4, *, e=5):\n"
        "    return h(**{})\n"
        "def h(z=0):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2):\n"
        "        pass\n"
        "    def _private(self, w=0):\n"
        "        pass\n"
    )}
    callers = ["f(0, 5)\nK().m(2)\ng(e=1)\n"]
    assert orphaned_options(package, callers) == [
        "m.f(c=...)", "m.g(c=...)", "m.g(d=...)", "m.K.m(y=...)",
    ]


def package_sources() -> dict[str, str]:
    """Source text of each module of the imported package, by module name."""
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # An empty scan would pass every check below.
    assert {"meshfree", "solver", "cli"} <= package.keys(), f"no elastosim modules in {PACKAGE}"
    return package


def test_every_optional_parameter_has_a_caller_that_sets_it():
    package = package_sources()
    callers = [p.read_text() for top in CALLER_DIRS for p in sorted((ROOT / top).rglob("*.py"))]
    orphans = orphaned_options(package, callers)
    assert not orphans, (
        "optional parameters that no call in the package, perfbench/ or demos/ sets; "
        "fold each into a constant or pass it from a caller:\n  " + "\n  ".join(orphans)
    )


def unused_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Optional parameters of the package that every call sets, as ``module.name(param=...)``.

    A splat sets every parameter, and a function that nothing calls leaves
    none of its parameters unset.

    Args:
        package: module name -> source of each package module; its calls count too.
        callers: sources of the other calling files.
    """
    trees = {module: ast.parse(src) for module, src in package.items()}
    calls = defaultdict(list)  # called name -> the slots of each call of it
    for tree in list(trees.values()) + [ast.parse(src) for src in callers]:
        for node in ast.walk(tree):
            if name := _called_name(node):
                calls[name].append({slot for slot, _ in _slots(node)})
    return [f"{qualname}({param}=...)"
            for module, tree in trees.items()
            for qualname, node, bound in _public_defs(tree, module)
            for position, param in _optional_params(node, bound)
            if all(slots & {position, param, "*", "**"} for slots in calls[node.name])]


def test_mirror_scanner_counts_splats_positions_and_uncalled_functions():
    package = {"m": (
        "def f(a, b=1, c=2):\n"
        "    return f(a, c=3)\n"
        "def g(x=0):\n"
        "    pass\n"
        "def h(y=0):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, p=1, q=2):\n"
        "        pass\n"
        "    def _private(self, w=0):\n"
        "        pass\n"
    )}
    callers = ["f(0, 5, c=1)\ng(**options)\nK().m(1)\nK().m(q=2)\n"]
    assert unused_defaults(package, callers) == ["m.f(c=...)", "m.g(x=...)", "m.h(y=...)"]


def test_every_optional_parameter_has_a_caller_that_leaves_it_unset():
    package = package_sources()
    callers = [p.read_text() for top in CALLER_DIRS + ("tests",)
               for p in sorted((ROOT / top).rglob("*.py"))]
    unused = unused_defaults(package, callers)
    assert not unused, (
        "defaults that every call in the package, perfbench/, demos/ or tests/ overrides; "
        "make each parameter required:\n  " + "\n  ".join(unused)
    )


def _public_names(tree: ast.Module, module: str):
    """(qualified name, def node) of each public function, class, method and property."""
    for node in tree.body:
        if isinstance(node, FUNCTION + (ast.ClassDef,)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, FUNCTION) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _reads(tree: ast.AST) -> Counter:
    """How often each bare name and attribute name is read in a tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_names(package: dict[str, str], callers: list[str]) -> list[str]:
    """Public names of the package that nothing reads outside their own definition.

    Args:
        package: module name -> source of each package module; its reads count too.
        callers: sources of the other calling files.
    """
    trees = {module: ast.parse(src) for module, src in package.items()}
    reads = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in callers]:
        reads += _reads(tree)
    return [qualname for module, tree in trees.items()
            for qualname, node in _public_names(tree, module)
            if reads[node.name] == _reads(node)[node.name]]


def test_scanner_skips_own_definitions_imports_and_strings():
    package = {"m": (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def imported():\n"
        "    pass\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "    @property\n"
        "    def p(self):\n"
        "        return K\n"
        "    def _private(self):\n"
        "        pass\n"
        "class Alone:\n"
        "    pass\n"
    )}
    callers = ["from m import imported\nused()\nx.p\nLAYER = {'m.Alone': 1}\n"]
    # K is read only inside its own body, by its property.
    assert unreferenced_names(package, callers) == [
        "m.recursive", "m.imported", "m.K", "m.K.m", "m.Alone",
    ]


def test_every_public_name_has_a_reader_outside_the_tests():
    package = package_sources()
    callers = [p.read_text() for top in CALLER_DIRS for p in sorted((ROOT / top).rglob("*.py"))]
    unread = unreferenced_names(package, callers)
    assert not unread, (
        "public names that nothing in the package, perfbench/ or demos/ reads; delete each "
        "or make it private:\n  " + "\n  ".join(unread)
    )
