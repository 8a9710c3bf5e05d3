"""Error taxonomy shared by all modules.

The CLI maps these onto process exit codes (see ``mtkl.cli``): config or
input problems exit 2, numeric failures exit 3, exhausted search budgets
exit 4.
"""

import json
import numbers


class InputError(ValueError):
    """Caller supplied invalid data (bad labels, malformed config, ...)."""


class NumericError(RuntimeError):
    """A numeric guarantee was violated (e.g. Gram matrix not PSD)."""


class BudgetError(RuntimeError):
    """A search budget was exceeded before the result was certified."""


def require_keys(obj, allowed: set[str], context: str,
                 required: tuple[str, ...] = ()) -> None:
    """Strict-key check for a parsed JSON object: ``obj`` must be a dict
    whose keys all lie in ``allowed`` and that holds every key in
    ``required``; otherwise raise InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"{context} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    for key in required:
        if key not in obj:
            raise InputError(f"{context} requires {key!r}")


def require_int(value, context: str) -> None:
    """Type check for a parsed JSON value that must be an integer: a bool,
    float or string raises InputError naming ``context``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{context} must be an integer, got {value!r}")


def require_number(value, context: str) -> None:
    """Type check for a parsed JSON value that must be a real number: a bool,
    string or None raises InputError naming ``context``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{context} must be a number, got {value!r}")


def read_json(path, what: str):
    """Parse the JSON file at ``path``; an unreadable or malformed file is an
    InputError naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{what} {path}: {exc}") from exc
