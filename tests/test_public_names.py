"""Every public name has a user besides its own tests.

A name in ``relkura.__all__`` counts as used when it appears as a Python
name in the library or a demo, other than where it is defined or
imported, or when the benchmark's layer trace looks it up by name.  A
second implementation of a concept that only its unit tests reach fails
here.
"""

import importlib.util
import io
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
