"""Every public name has a user besides its own tests, every private
constant has one owner, and every job has one entry point.

A name in ``relkura.__all__`` counts as used when it appears as a Python
name in the library or a demo, other than where it is defined or
imported, or when the benchmark's layer trace looks it up by name.  A
second implementation of a concept that only its unit tests reach fails
here.  An UPPER_CASE constant (a numeric threshold, say), public or
private, is read only by the library module that defines it, so one rule
never lives in two.  A public method whose body only hands ``self`` to a
public function is a second entry point to that function and fails here
too.  The benchmark's layer tracer must find, wrap and restore every
binding it names, so a library change cannot break a traced run unseen.
Every error type but the base class is raised somewhere in the library.
"""

import ast
import importlib.util
import io
import re
import tokenize
from pathlib import Path

import relkura
from relkura import errors

ROOT = Path(__file__).resolve().parent.parent


def _used_names(path: Path) -> set[str]:
    """NAME tokens of one file, minus attribute names and defining or import lines.

    Strings, docstrings and ``__all__`` entries are STRING tokens and do
    not count; neither does a name right after a ``.``, the name a
    ``def``/``class`` defines, or any name of an ``import`` statement.
    """
    used = set()
    first = previous = None
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    for tok in tokens:
        if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            first = None
        elif tok.type == tokenize.NAME:
            if first is None:
                first = tok.string
            defined = previous is not None and previous.string in ("def", "class")
            after_dot = previous is not None and previous.string == "."
            if first not in ("import", "from") and not defined and not after_dot:
                used.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok
    return used


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_public_name_has_a_user():
    files = sorted((ROOT / "src" / "relkura").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    traced = {attr for _, attr in _layertrace().FUNCTIONS}
    used = set().union(*(_used_names(path) for path in files)) | traced
    unused = sorted(set(relkura.__all__) - used)
    assert unused == []


def test_benchmark_tracer_wraps_every_binding_it_names_and_restores_them():
    # the benchmark's traced runs patch these bindings from outside the
    # library: a deleted one makes install raise, a missed one shows here
    layertrace = _layertrace()
    modules = {m: importlib.import_module(f"relkura.{m}") for m in layertrace.MODULES}
    targets = [*modules.values(),
               *(getattr(modules[mod], cls) for mod, cls, _ in layertrace.METHODS)]
    before = [dict(vars(target)) for target in targets]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        patched = tracer.patched_bindings()
    finally:
        tracer.uninstall()
    assert {f"relkura.{mod}.{attr}" for mod, attr in layertrace.FUNCTIONS} <= patched
    assert {f"{cls}.{attr}" for _, cls, attr in layertrace.METHODS} <= patched
    for target, bindings in zip(targets, before):
        assert all(vars(target)[key] is value for key, value in bindings.items()), target


LIBRARY = sorted((ROOT / "src" / "relkura").glob("*.py"))
_PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")
_PUBLIC_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _public_constants() -> set[str]:
    """Public UPPER_CASE names that some library module assigns at its top level.

    An enum member or other class attribute (``ModelKind.CLASSICAL``) is
    no module's constant.
    """
    names = set()
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and _PUBLIC_CONSTANT.fullmatch(name.id)}
    return names


def _borrowed_constants(path: Path, is_constant) -> list[str]:
    """Constants (names ``is_constant`` accepts) one library module takes from another.

    Counts the names of a package-relative ``from ... import`` and the
    attributes read off a name it imports (``models._FOO``).
    """
    tree = ast.parse(path.read_text())
    imported, borrowed = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if is_constant(alias.name):
                    borrowed.append(alias.name)
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and is_constant(node.attr)):
            borrowed.append(f"{node.value.id}.{node.attr}")
    return borrowed


def _constant_borrowers(is_constant) -> dict[str, list[str]]:
    return {path.name: names for path in LIBRARY
            if (names := _borrowed_constants(path, is_constant))}


def test_no_module_reads_another_modules_private_constant():
    assert _constant_borrowers(_PRIVATE_CONSTANT.fullmatch) == {}


def test_no_module_reads_another_modules_public_constant():
    assert _constant_borrowers(_public_constants().__contains__) == {}


def _forwarding_methods(path: Path) -> list[str]:
    """Public methods of public classes whose body only passes ``self`` on.

    A forwarder's body, past its docstring, is one call, returned or not,
    of a public function the module defines or imports, with ``self``
    among its arguments: a second entry point to the function it calls.
    """
    tree = ast.parse(path.read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    functions |= {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                continue
            body = method.body[1:] if ast.get_docstring(method) is not None else method.body
            if len(body) != 1 or not isinstance(body[0], (ast.Expr, ast.Return)):
                continue
            call = body[0].value
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in functions and not call.func.id.startswith("_")
                    and any(isinstance(arg, ast.Name) and arg.id == "self"
                            for arg in [*call.args, *(kw.value for kw in call.keywords)])):
                found.append(f"{cls.name}.{method.name}")
    return found


def test_no_public_method_only_forwards_to_a_public_function():
    forwarders = {path.name: names for path in LIBRARY if (names := _forwarding_methods(path))}
    assert forwarders == {}


def _raised_names(path: Path) -> set[str]:
    """Names of the exception types a module's ``raise`` statements raise."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised_by_the_library():
    # a type that nothing raises is a contract no caller can meet
    raised = set().union(*(_raised_names(path) for path in LIBRARY))
    assert sorted(set(errors.__all__) - {"RelkuraError"} - raised) == []
