"""Error taxonomy shared by all modules, and the type checks of config values.

The CLI maps these onto process exit codes (see ``mtkl.cli``): config or
input problems exit 2, numeric failures exit 3, exhausted search budgets
exit 4.

A config value is checked by the constructor that uses it, with
``require_int``, ``require_number`` or ``number_array``; a JSON reader passes
on what the file holds, so a file and a Python caller get the same error.
"""

import json
import math
import numbers

import numpy as np


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


def require_int(value, context: str, minimum=None) -> None:
    """An integer, at least ``minimum`` when one is given; a bool, float or
    string raises InputError naming ``context``."""
    # builtin types first: an ABC instance check costs ten times as much
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, numbers.Integral)):
        raise InputError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{context} must be >= {minimum}, got {value!r}")


def require_number(value, context: str, positive: bool = False) -> None:
    """A finite real number, positive when ``positive``; a bool, string,
    None, NaN or infinity raises InputError naming ``context``."""
    if isinstance(value, float):
        finite = math.isfinite(value)
    else:
        finite = not isinstance(value, bool) and (
            isinstance(value, int) or
            isinstance(value, numbers.Real) and math.isfinite(value))
    if not finite:
        raise InputError(f"{context} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise InputError(f"{context} must be positive, got {value!r}")


def number_array(value, context: str) -> np.ndarray:
    """A number or rectangular nesting of numbers as a float array, each
    entry checked by ``require_number``.

    Ragged rows leave lists among the object array's entries, so they fail
    the entry check along with bools, strings and None."""
    entries = np.asarray(value, dtype=object)
    for v in entries.flat:
        require_number(v, context)
    return entries.astype(np.float64)


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
