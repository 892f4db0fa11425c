"""Exception hierarchy shared across the package, and the one JSON codec of
its matrix, polynomial and phase files: read_json, decode_pairs, write_json.

Three families matter to callers: bad input files or flags, violated
mathematical preconditions, and numerical breakdown inside an otherwise
valid computation.  The CLI maps them to exit codes 2, 3 and 4.
"""

import json
import math


class InputError(ValueError):
    """Malformed file, unparseable flag, or unsupported parameter value."""


class DomainError(ValueError):
    """A mathematical precondition on the inputs does not hold."""


class NumericError(RuntimeError):
    """An iteration failed to converge or an internal residual blew up."""


def read_json(path: str, what: str, keys: tuple[str, ...] = ()):
    """Parse a JSON file; NaN, infinities, malformed JSON and a document that
    is not an object holding `keys` raise InputError naming the file kind `what`."""
    def reject_constant(name: str):
        raise InputError(f"non-finite value {name!r} in {what} file")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {path}: {exc}") from exc
    if keys and not (isinstance(doc, dict) and set(keys) <= set(doc)):
        raise InputError(f"{what} file {path} needs keys {', '.join(keys)}")
    return doc


def decode_pairs(items: list, noun: str) -> list[complex]:
    """[re, im] pairs as complex numbers; InputError names a bad `noun` and its index."""
    for k, item in enumerate(items):
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"{noun} {k} is not a [re, im] pair")
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in item):
            raise InputError(f"{noun} {k} holds a non-finite or non-numeric value")
    return [complex(re, im) for re, im in items]


def write_json(path: str, doc) -> None:
    """Write `doc` as one line of JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
