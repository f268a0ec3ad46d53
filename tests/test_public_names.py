"""Every public name has a user besides its own tests, and every private
constant has one owner.

A name in ``relkura.__all__`` counts as used when it appears as a Python
name in the library or a demo, other than where it is defined or
imported, or when the benchmark's layer trace looks it up by name.  A
second implementation of a concept that only its unit tests reach fails
here.  A private UPPER_CASE constant (a numeric threshold, say) is read
only by the module that defines it, so one rule never lives in two.
"""

import ast
import importlib.util
import io
import re
import tokenize
from pathlib import Path

import relkura

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


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return {attr for _, attr in layertrace.FUNCTIONS}


def test_every_public_name_has_a_user():
    files = sorted((ROOT / "src" / "relkura").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*(_used_names(path) for path in files)) | _traced_names()
    unused = sorted(set(relkura.__all__) - used)
    assert unused == []


_PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def _borrowed_private_constants(path: Path) -> list[str]:
    """Private UPPER_CASE names one library module takes from another.

    Counts the names of a package-relative ``from ... import`` and the
    attributes read off a name it imports (``models._FOO``).
    """
    tree = ast.parse(path.read_text())
    imported, borrowed = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if _PRIVATE_CONSTANT.fullmatch(alias.name):
                    borrowed.append(alias.name)
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _PRIVATE_CONSTANT.fullmatch(node.attr)):
            borrowed.append(f"{node.value.id}.{node.attr}")
    return borrowed


def test_no_module_reads_another_modules_private_constant():
    borrowed = {path.name: names for path in sorted((ROOT / "src" / "relkura").glob("*.py"))
                if (names := _borrowed_private_constants(path))}
    assert borrowed == {}
