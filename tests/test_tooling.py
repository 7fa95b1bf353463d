"""Repository-level checks on the library source."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3cycles"


def test_no_assert_statements_in_library():
    # Certificates must keep running under `python -O`, which strips asserts.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/k3cycles: {found}"


def test_certificate_tests_pass_under_python_O():
    # The certificates of the root search (unimodular transform, walk radius,
    # block form, walked partials, table keys, joined keys, restricted Gram and
    # its symmetry, shared-coordinate box, join order, local-row support,
    # local constraint rows, zero-path interval, one-sided clip,
    # join prefix width, and the walk radius at the leaf level of a rank-1 walk)
    # raise InternalCheckError, not AssertionError, so they must fire with
    # asserts stripped.
    root = SRC.parent.parent
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_rootenum.py", "-k", "certificate"],
        cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("18 passed"), proc.stdout


def _module_level_containers(tree):
    """(line, name) for each module-level binding whose value holds a dict,
    list or set display or comprehension."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            if any(isinstance(n, containers) for n in ast.walk(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(node.lineno, ast.unparse(t)) for t in targets]
    return found


def test_no_module_level_mutable_containers():
    # The numeric paths keep no global mutable state: a cache lives in the
    # call that fills it (or is an lru_cache of a pure function), so no
    # module binds a dict, list or set at import.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _module_level_containers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"module-level dict, list or set bindings in src/k3cycles: {found}"
    assert _module_level_containers(ast.parse("A = (1,)\nB = tuple([1])\nC: dict = {}\nD = {x: 1 for x in A}")) == [(2, "B"), (3, "C"), (4, "D")]


def _tracing_table(name):
    """A module-level literal of perfbench/tracing.py, read without importing it."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


def test_traced_functions_resolve():
    # The tracer only lists a vanished function under `missing`; a refactor
    # must not drop a traced layer silently.
    named = [(mod, fn) for mod, fns in _tracing_table("SPANNED").items() for fn in fns]
    named += list(_tracing_table("COUNTED").values())
    assert len(named) >= 30
    gone = [f"{mod}.{fn}" for mod, fn in named if not callable(getattr(importlib.import_module(f"k3cycles.{mod}"), fn, None))]
    assert not gone, f"traced functions missing from k3cycles: {gone}"


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_imports():
    # __init__.py re-exports its imports, so it is left out.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused module-level imports in src/k3cycles: {found}"


def _unused_parameters(tree):
    """(line, function, parameter) for each parameter of a function or lambda
    that its body, nested functions included, never reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, p.arg) for p in params if p.arg not in read]
    return found


def test_no_unused_function_parameters():
    # A simplification that stops reading a parameter must drop it too.
    found = [
        f"{path.name}:{line} {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unused_parameters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"function parameters in src/k3cycles that their body never reads: {found}"


def _defined_names(tree):
    """Module-level functions, classes and assigned names, without the click commands."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            commands = [d for d in node.decorator_list if isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"]
            if not commands:
                out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return out


PACKAGE = ("k", "k3cycles")  # the spellings of the package in the test and bench files


def _uses(path, tree, modules):
    """What one file uses of the library's module-level names: a set of
    (module, name) pairs, module None where any module counts, and a set of
    string constants (getattr tables).

    A name is used when the file imports it from its module (or from the
    package, outside __init__.py, whose imports are re-exports), reads it as
    <module>.name, k.name or k.<module>.name, or, in the module that defines
    it, loads it.
    """
    own = path.stem if path.parent == SRC else None
    pairs, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            mod = (node.module or "").rpartition(".")[2]
            if mod in modules or mod in ("", "k3cycles"):
                pairs |= {(mod if mod in modules else None, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                pairs.add((base.id, node.attr))
            elif isinstance(base, ast.Name) and base.id in PACKAGE:
                pairs.add((None, node.attr))
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) and base.value.id in PACKAGE and base.attr in modules:
                pairs.add((base.attr, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own is not None:
            pairs.add((own, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return pairs, strings


def test_every_module_level_name_is_referenced():
    root = SRC.parent.parent
    modules = {p.stem for p in SRC.glob("*.py")}
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]
    pairs, strings = set(), set()
    for p in files:
        file_pairs, file_strings = _uses(p, ast.parse(p.read_text(), filename=str(p)), modules)
        pairs |= file_pairs
        strings |= file_strings
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _defined_names(ast.parse(path.read_text(), filename=str(path)))
        if not ({(path.stem, name), (None, name)} & pairs or name in strings or name == "__version__")
    ]
    assert not dead, f"module-level names in src/k3cycles that nothing references: {dead}"


def test_readme_library_overview_names_resolve():
    # Each backticked name in the README's module table must still exist in
    # that module, so a rename updates the docs too.
    text = (SRC.parent.parent / "README.md").read_text()
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    named = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 2 and cells[1].startswith("`k3cycles."):
            named += [(cells[1].strip("`"), name) for name in re.findall(r"`([^`]+)`", cells[2])]
    assert len(named) >= 31
    gone = [f"{mod}.{name}" for mod, name in named if not hasattr(importlib.import_module(mod), name)]
    assert not gone, f"README library overview names missing from their modules: {gone}"


def test_every_cli_command_is_guarded():
    # `_guarded` turns a domain error into exit 2 and a {code, message} document;
    # innermost, it sees every error the command body raises.
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")

    def registers(d):
        return isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command" and getattr(d.func.value, "id", None) == "main"

    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and any(map(registers, node.decorator_list))]
    assert len(commands) >= 10
    bare = [f.name for f in commands if getattr(f.decorator_list[-1], "id", None) != "_guarded"]
    assert not bare, f"cli commands without @_guarded as innermost decorator: {bare}"


def test_only_quadspace_and_jsonio_read_the_rational_gram():
    # The number type of a form is decided in quadspace: the library pairs
    # over `gram_int` and `den`; the rational `gram` is for the JSON encoder.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("quadspace.py", "jsonio.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "gram" and isinstance(node.ctx, ast.Load)
    ]
    assert not found, f"modules other than quadspace and jsonio read .gram: {found}"


def test_linalg_is_integer_only():
    # linalg eliminates over Z (Bareiss, fraction-free Gauss-Jordan, Euclid);
    # a field division would bring a Fraction path back.
    tree = ast.parse((SRC / "linalg.py").read_text(), filename="linalg.py")
    divisions = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert not divisions, f"true division in linalg.py at lines {divisions}"
    assert "truediv" not in imported


def test_benchmark_smoke_run_passes():
    # Each workload on its first two inputs, every result checked against
    # values computed apart from k3cycles (perfbench/checks.py): the twistor
    # fixtures, the chamber Delta_p point and the domain and reflect samples.
    root = SRC.parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_checker_tests_pass():
    # perfbench/test_checks.py (each checker accepts the program's real result
    # and rejects a corrupted one) lies outside `testpaths`, so run it here.
    root = SRC.parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_checks.py"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
