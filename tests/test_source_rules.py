"""Rules on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pushcrit as pc

SOURCE = Path(pc.__file__).parent


def test_the_library_has_no_assert_statements():
    # python -O strips assert statements, so a check that gates an answer
    # must raise instead (SelfCheckError for the library's own checks)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


# every function in the library that calls itself, by module and
# qualified name, with the bound on its depth: a recursion the default
# limit of 1,000 frames could cut must be listed here, or made iterative
RECURSIVE = {
    "canon.canonical_data.recurse",  # one frame per individualized vertex: <= n
    "enumeration._graphs_on",  # one frame per uncached level: <= n <= 12
    "graph.json_fields",  # one frame per level of nesting: report, record, arcs, arc: <= 4
    "lpq._feasible.dfs",  # one frame per labeled vertex: n + 1
}


def _recursive(node, prefix: str):
    """The qualified names of the functions under ``node`` that call
    themselves, by name or as ``self.``/``cls.`` of it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _recursive(child, f"{prefix}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            calls = [c.func for c in ast.walk(child) if isinstance(c, ast.Call)]
            if any(
                getattr(f, "id", None) == child.name
                or isinstance(f, ast.Attribute)
                and f.attr == child.name
                and getattr(f.value, "id", None) in ("self", "cls")
                for f in calls
            ):
                yield name
            yield from _recursive(child, name)


def test_every_recursive_function_has_a_depth_bound():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= set(_recursive(tree, path.stem))
    assert found == RECURSIVE


# every library class whose to_json_dict does not call graph.json_fields,
# with the reason its JSON is not its fields: any other result writes its
# fields by the one rule, so a hand-copied field list cannot return
OWN_JSON = {
    "crit.CriticalityReport",  # "certificate" holds global_certificate; absent parts are omitted
    "configs.ConfigurationCheck",  # the gadget as "config" and "params"; no method
    "hom.ColoringCertificate",  # the schema's "pushed" and "map"; no target
}


def test_every_to_json_dict_calls_json_fields_or_has_a_listed_reason():
    own = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "to_json_dict":
                    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                    if "json_fields" not in names:
                        own.add(f"{path.stem}.{cls.name}")
    assert own == OWN_JSON


# every name that pushcrit/__init__.py exports but no library module
# loads, with the reason it stays public: any other export must have a
# caller in the library, so a test-only helper cannot enter unnoticed
UNREACHED_EXPORTS = {
    "find_homomorphism",  # perfbench/tracing.py wraps it by name
    "oriented_canonical_form",  # perfbench/tracing.py wraps it by name
    "underlying_cert",  # perfbench/tracing.py wraps it by name
    "path_color_sets",  # acceptance criterion 4; the planned bound.lemmas is to call it
    "is_push_equivalent",  # the paper's push-equivalence relation, in the README's module map
}


def _exports() -> set[str]:
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _loaded_names(paths) -> set[str]:
    """Every name the Python files ``paths`` load, as a bare name or as an
    attribute; docstrings and comments are not code."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_export_has_a_library_caller_or_a_listed_reason():
    modules = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    assert _exports() - _loaded_names(modules) == UNREACHED_EXPORTS


def _module_level_names(tree) -> set[str]:
    """The names a module binds at its top level by assignment or by a
    def or class statement, dunders excepted."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in found if not (name.startswith("__") and name.endswith("__"))}


def test_every_module_level_name_is_loaded_somewhere():
    # a library definition that neither the library, the tests nor
    # perfbench reads is dead code
    root = Path(__file__).resolve().parents[1]
    loaded = _loaded_names(
        path for folder in (SOURCE, root / "tests", root / "perfbench")
        for path in folder.rglob("*.py")
    )
    unread = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unread |= {f"{path.stem}.{name}" for name in _module_level_names(tree) - loaded}
    assert not unread, sorted(unread)


# every call of the raw chains.Kernel constructor outside chains.py, by
# module and qualified name, with the reason its paths need no check:
# ChainGraph trusts the kernel it gets, so any other caller must build it
# with Kernel.of or Kernel.subdivided, and an unchecked kernel cannot
# enter unnoticed
RAW_KERNELS = {
    # generated (lo, hi) edges of a simple graph, every vertex kept: the
    # paths Kernel.of would give, without its walk
    "enumeration._worker",
}


def _callers(node, prefix: str, callee: str):
    """The qualified names of the functions under ``node`` (``prefix`` at
    module level) that call ``callee(...)`` or ``<module>.callee(...)``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                yield prefix
        yield from _callers(child, name, callee)


def _library_callers(callee: str, skip: str = "") -> set[str]:
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != skip:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found |= set(_callers(tree, path.stem, callee))
    return found


def test_every_raw_kernel_is_built_at_a_listed_site():
    assert _library_callers("Kernel", skip="chains.py") == RAW_KERNELS


# every library function that calls int(...), with the reason: int() also
# rounds floats and reads bools and numeric strings, so a caller's vertex
# or count coerced by it gives a wrong answer instead of an error; those
# are checked with type(x) is int, and coercion cannot return unnoticed
INT_CALLS = {
    "graph.parse_graph",  # parses the counts and endpoints of graph text
    "canon._reversed_bits",  # reads back a reversed bit string
    "cli._load_target",  # the k of a "c<k>" target spec
    "verify._run_one_suite",  # elapsed milliseconds
}


def test_every_int_call_is_at_a_listed_site():
    assert _library_callers("int") == INT_CALLS


# every defaulted parameter of a library function that no call in the
# library or in perfbench sets, by keyword or by position, with the
# reason it stays: any other such parameter is a branch that only the
# tests take, so a test-only mode cannot enter unnoticed
TEST_ONLY_PARAMETERS = {
    "configs._sweep_configuration(reduce_rotation)",  # the tests' full-rotation oracle
    "hom.tournaments(up_to)",  # the tests' isomorphism-class oracle; ROADMAP item 18 removes it
}


def _defaulted_parameters(tree, module: str):
    """(qualified name, callee name, position or None, parameter) for each
    defaulted parameter of the functions under ``tree``; a method's
    position leaves out self or cls, and ``__init__`` is called by its
    class's name."""
    for cls in [None, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        body = tree.body if cls is None else cls.body
        for fn in (n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            qual = f"{module}.{fn.name}" if cls is None else f"{module}.{cls.name}.{fn.name}"
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
                positional = positional[1:]
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(fn.args.defaults):
                    yield qual, callee, i, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qual, callee, None, arg.arg


def _set_parameters(paths) -> set[tuple[str, object]]:
    """(callee name, position or keyword) for each argument that a call in
    the Python files ``paths`` passes; a call with * or ** passes all."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                found.add((name, "*"))
            found |= {(name, i) for i in range(len(call.args))}
            found |= {(name, k.arg) for k in call.keywords if k.arg is not None}
    return found


def test_every_defaulted_parameter_is_set_by_a_library_call_or_listed():
    root = Path(__file__).resolve().parents[1]
    set_by = _set_parameters([*SOURCE.glob("*.py"), *(root / "perfbench").rglob("*.py")])
    unset = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qual, callee, i, param in _defaulted_parameters(tree, path.stem):
            if not {(callee, i), (callee, param), (callee, "*")} & set_by:
                unset.add(f"{qual}({param})")
    assert unset == TEST_ONLY_PARAMETERS
