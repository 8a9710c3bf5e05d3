"""Every module of ``mtkl`` (but ``__init__``, which re-exports) uses each
name it imports at module level. No linter is assumed: the check parses the
source with ``ast``."""

import ast
from pathlib import Path

import mtkl

# Imported only so that perfbench/tracer.py can wrap these bindings; ROADMAP
# item 1 (trace from inside the library) deletes them.
TRACER_BINDINGS = {("envsim", "enumerate_candidates"),
                   ("envsim", "fit_candidate"),
                   ("erm", "fit_single_task")}


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
    for path in sorted(Path(mtkl.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            unused |= {(path.stem, name) for name in
                       unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == TRACER_BINDINGS
