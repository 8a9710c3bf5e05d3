"""Error taxonomy shared by all modules.

The CLI maps these onto process exit codes (see ``mtkl.cli``): config or
input problems exit 2, numeric failures exit 3, exhausted search budgets
exit 4.
"""


class InputError(ValueError):
    """Caller supplied invalid data (bad labels, malformed config, ...)."""


class NumericError(RuntimeError):
    """A numeric guarantee was violated (e.g. Gram matrix not PSD)."""


class BudgetError(RuntimeError):
    """A search budget was exceeded before the result was certified."""


def require_keys(obj, allowed: set[str], context: str) -> None:
    """Strict-key check for a parsed JSON object: ``obj`` must be a dict
    whose keys all lie in ``allowed``; otherwise raise InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"{context} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown key {sorted(unknown)[0]!r} in {context}")
