"""Every module of ``mtkl`` (but ``__init__``, which re-exports) uses each
name it imports at module level, and every ``raise`` in ``mtkl`` names one of
the error types that the CLI maps to an exit code. No linter is assumed: the
checks parse the source with ``ast``."""

import ast
from pathlib import Path

import mtkl

# Imported only so that perfbench/tracer.py can wrap these bindings; ROADMAP
# item 1 (trace from inside the library) deletes them.
TRACER_BINDINGS = {("envsim", "enumerate_candidates"),
                   ("envsim", "fit_candidate"),
                   ("erm", "fit_single_task")}


# The errors cli.main maps to exit codes 2, 3 and 4.
MAPPED_ERRORS = {"InputError", "NumericError", "BudgetError"}


def module_sources():
    """(module name, source) of each module of ``mtkl``."""
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted(Path(mtkl.__file__).parent.glob("*.py"))]


def unused_imports(source):
    """The module-level imported names that ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_its_cases():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from . import _accel\nfrom .errors import InputError, require_int\n"
              "def f():\n    import json\n    return np.ones(1), os.sep\n"
              "x: InputError = 1\n")
    assert unused_imports(source) == ["_accel", "require_int"]


def test_modules_use_every_import():
    unused = set()
    for module, source in module_sources():
        if module != "__init__":
            unused |= {(module, name) for name in unused_imports(source)}
    assert unused == TRACER_BINDINGS


def unmapped_raises(source):
    """The line of each ``raise`` in ``source`` that does not name a type of
    MAPPED_ERRORS: a bare re-raise, or any other exception."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in MAPPED_ERRORS):
                lines.append(node.lineno)
    return sorted(lines)


def test_unmapped_raise_check_sees_its_cases():
    source = ("def f(x):\n"
              "    if x == 1:\n        raise InputError('a')\n"
              "    if x == 2:\n        raise NumericError\n"
              "    if x == 3:\n        raise ValueError('b')\n"
              "    try:\n        g()\n    except OSError as exc:\n"
              "        raise BudgetError('c') from exc\n"
              "    except KeyError:\n        raise\n"
              "    raise errors.InputError('d')\n")
    assert unmapped_raises(source) == [7, 13, 14]


def test_every_raise_maps_to_an_exit_code():
    unmapped = {(module, line) for module, source in module_sources()
                for line in unmapped_raises(source)}
    assert unmapped == set()
