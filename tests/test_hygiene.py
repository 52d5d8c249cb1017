"""Nothing dead: AST scans of the package, tests, demos and benchmark.

Every name a module imports is used.  ``__init__.py`` is skipped because it
only re-exports.  A name counts as used when it appears as an identifier
anywhere in the module or in its ``__all__``.

Every top-level function and class of the package is referenced by name, as
an identifier or an attribute, somewhere outside its own definition.  An
import or an ``__all__`` string is not a reference, so a wrapper that only
the re-exports still name shows up here.

Every non-dunder method or property of a package class is read as an
attribute outside its own body in the package, the demos, the benchmark or a
test referee (``tests/_*.py``): a member that only ``tests/test_*.py`` read is
not shipped behaviour.  The rule matches by name alone, so a member sharing
its name with a used one (``scale``, ``is_zero``) and a dunder operator are
out of its reach.

No package function takes a ``level`` beside a weight, whether the weight is
an ``AdmissibleWeight`` or its primed ints ``n_primed``/``k_primed``: a weight
carries its level and its box check, and a second level could disagree with it.
Likewise no package function takes a ``prec`` beside a parameter annotated
``ComplexVal``: a ``ComplexVal`` carries the precision it was computed at.

No package function mutates a module-level name, by item assignment or
deletion, a mutating method (argparse's ``add_argument`` and kin among them)
or a ``global`` statement, save the one listed:
state shared by every caller in the process lets one call, or one test,
change the next.  A name the function binds itself, or a parameter, shadows
the module's and is not counted.

Each mutant listed in ``tests/mutants.py`` names a string that occurs exactly
once in the package, in the module the mutant names, so the mutation check
cannot go stale.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/admissible_sl2/*.py"))
FILES = PACKAGE + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
REFERRERS = FILES + sorted(ROOT.glob("perfbench/*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    unused = [
        entry
        for path in FILES
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == []


def _unreferenced(referrers: list[Path], named: frozenset[str] = frozenset()) -> list[str]:
    """Top-level package definitions that no file in ``referrers`` names, bar ``named``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + referrers}
    # sites[name] holds (file, top-level statement) for each reference to name
    sites: dict[str, set] = defaultdict(set)
    for path in referrers:
        for index, stmt in enumerate(trees[path].body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    sites[node.id].add((path, index))
                elif isinstance(node, ast.Attribute):
                    sites[node.attr].add((path, index))
    definitions = [
        (path, index, stmt.name)
        for path in PACKAGE
        for index, stmt in enumerate(trees[path].body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert definitions
    return [
        f"{path.relative_to(ROOT)}: {name}"
        for path, index, name in definitions
        if name not in named and not sites[name] - {(path, index)}
    ]


def test_every_package_definition_is_referenced():
    assert _unreferenced(REFERRERS) == []


def _traced_names() -> frozenset[str]:
    """The names in ``perfbench/tracing.py``'s ``TRACED`` table, which binds by name."""
    tree = ast.parse((ROOT / "perfbench/tracing.py").read_text(encoding="utf-8"))
    (table,) = [
        stmt.value for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["TRACED"]
    ]
    return frozenset(part for _, attr, _ in ast.literal_eval(table) for part in attr.split("."))


def test_no_package_definition_is_named_only_by_tests():
    shipped = PACKAGE + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    assert _unreferenced(shipped, _traced_names()) == []


def _attribute_reads(node: ast.AST) -> Counter[str]:
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_no_package_member_is_named_only_by_tests():
    shipped = PACKAGE + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    shipped += sorted(ROOT.glob("tests/_*.py"))  # the referees
    reads: Counter[str] = Counter()
    for path in shipped:
        reads += _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{path.relative_to(ROOT)}: {cls.name}.{fn.name}"
        for path in PACKAGE
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and reads[fn.name] <= _attribute_reads(fn)[fn.name]
    ]
    assert unread == []


_WEIGHT_PARAMS = {"weight", "w", "w1", "w2", "n_primed", "k_primed"}


def test_no_function_takes_a_level_beside_a_weight():
    doubled = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "level" in names and names & _WEIGHT_PARAMS:
                    doubled.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert doubled == []


def test_no_function_takes_a_prec_beside_a_complex_val():
    doubled = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                annotated = {ast.unparse(a.annotation) for a in params if a.annotation}
                if "prec" in {a.arg for a in params} and "ComplexVal" in annotated:
                    doubled.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert doubled == []


_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "reverse", "setdefault", "sort", "update",
    # argparse's, so that no function reconfigures a parser built at import
    "add_argument", "add_argument_group", "add_mutually_exclusive_group",
    "add_parser", "add_subparsers", "set_defaults",
})
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of ``fn``, its nested functions and classes themselves but not their insides."""
    nodes, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _mutated_globals(tree: ast.Module) -> set[str]:
    """Module-level names of ``tree`` that one of its functions mutates."""
    module = set()
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        module |= {t.id for t in targets if isinstance(t, ast.Name)}
    found: set[str] = set()

    def visit(fn, outer: set[str]) -> None:
        nodes = _own_nodes(fn)
        declared = {name for n in nodes if isinstance(n, ast.Global) for name in n.names}
        args = fn.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        stored = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local = (outer | params | stored) - declared
        found.update(declared)
        for n in nodes:
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                target = n.value
            elif isinstance(n, ast.Call) and getattr(n.func, "attr", None) in _MUTATORS:
                target = n.func.value
            else:
                target = None
            if isinstance(target, ast.Name) and target.id in module and target.id not in local:
                found.add(target.id)
            if isinstance(n, _SCOPES):
                visit(n, local)

    for stmt in tree.body:
        for fn in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            if isinstance(fn, _SCOPES):
                visit(fn, set())
    return found


def test_only_the_listed_module_state_is_mutated():
    mutated = sorted(
        f"{path.name}: {name}"
        for path in PACKAGE
        for name in _mutated_globals(ast.parse(path.read_text(encoding="utf-8")))
    )
    # the PBW generator memo, which a benchmark change is to delete
    assert mutated == ["pbw.py: _GEN_CACHE"]


def test_module_state_rule_catches_a_string_memo():
    source = """
_STRINGS = {}
_LOG = []
_COUNT = 0
_P = object()

def encode(x):
    if x not in _STRINGS:
        _STRINGS[x] = str(x)
    return _STRINGS[x]

def shadowed(x, _LOG):
    _STRINGS = {}
    _STRINGS[x] = _LOG.append(x)

class Tally:
    def bump(self):
        global _COUNT
        _COUNT += 1

def nested():
    return lambda y: _LOG.append(y)

def configure():
    _P.set_defaults(x=1)
"""
    assert _mutated_globals(ast.parse(source)) == {"_STRINGS", "_COUNT", "_LOG", "_P"}
    # the parameter _LOG of shadowed is its own
    without_lambda = source.replace("_LOG.append(y)", "y")
    assert _mutated_globals(ast.parse(without_lambda)) == {"_STRINGS", "_COUNT", "_P"}


def test_each_mutants_old_string_occurs_once_in_the_package(monkeypatch):
    # tests/mutants.py applies each mutant by exact replacement; a string that
    # moved or was reworded would leave its margin undefended unnoticed
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)  # its dataclass looks itself up
    spec.loader.exec_module(mutants)
    texts = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    for mutant in mutants.MUTANTS:
        assert sum(text.count(mutant.old) for text in texts.values()) == 1, mutant.name
        assert texts[mutant.module].count(mutant.old) == 1, mutant.name
        assert mutant.expect in ("killed", "survived") and (mutant.expect == "killed") != bool(mutant.why)
