"""Exception hierarchy shared across the package.

Three families matter to callers: bad input files or flags, violated
mathematical preconditions, and numerical breakdown inside an otherwise
valid computation.  The CLI maps them to exit codes 2, 3 and 4.
"""

import json


class InputError(ValueError):
    """Malformed file, unparseable flag, or unsupported parameter value."""


class DomainError(ValueError):
    """A mathematical precondition on the inputs does not hold."""


class NumericError(RuntimeError):
    """An iteration failed to converge or an internal residual blew up."""


def read_json(path: str, what: str):
    """Parse a JSON file; NaN, infinities and malformed JSON raise
    InputError, naming the file kind `what` in the message."""
    def reject_constant(name: str):
        raise InputError(f"non-finite value {name!r} in {what} file")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {path}: {exc}") from exc
