"""Exception hierarchy shared across the package, and the one JSON codec of
its matrix, polynomial and phase files: read_json, decode_pairs, write_json.

Three families matter to callers: bad input files, paths or flags,
violated mathematical preconditions, and numerical breakdown inside an
otherwise valid computation.  The CLI maps them to exit codes 2, 3 and
4; every file it reads or writes is opened by `opened`.
"""

import contextlib
import json
import math


class InputError(ValueError):
    """Malformed file, unparseable flag, or unsupported parameter value."""


class DomainError(ValueError):
    """A mathematical precondition on the inputs does not hold."""


class NumericError(RuntimeError):
    """An iteration failed to converge or an internal residual blew up."""


@contextlib.contextmanager
def opened(path: str, mode: str):
    """open(path, mode) as UTF-8 text; an OSError while it is open raises InputError."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:  # a missing file or directory, no permission, a full disk
        verb = "read" if mode == "r" else "write"
        raise InputError(f"cannot {verb} {path}: {exc.strerror or exc}") from exc


def read_json(path: str, what: str, keys: tuple[str, ...] = ()):
    """Parse a JSON file; NaN, infinities, malformed JSON and a document that
    is not an object holding `keys` raise InputError naming the file kind `what`."""
    def reject_constant(name: str):
        raise InputError(f"non-finite value {name!r} in {what} file")

    with opened(path, "r") as fh:
        try:
            doc = json.load(fh, parse_constant=reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"not valid JSON: {path}: {exc}") from exc
    if keys and not (isinstance(doc, dict) and set(keys) <= set(doc)):
        raise InputError(f"{what} file {path} needs keys {', '.join(keys)}")
    return doc


def decode_pairs(items: list, noun: str) -> list[complex]:
    """[re, im] pairs as complex numbers; InputError names a bad `noun` and its index."""
    for k, item in enumerate(items):
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"{noun} {k} is not a [re, im] pair")
        if not all(type(v) in (int, float) and math.isfinite(v) for v in item):  # no bool
            raise InputError(f"{noun} {k} holds a non-finite or non-numeric value")
    return [complex(re, im) for re, im in items]


def write_json(path: str, doc) -> None:
    """Write `doc` as one line of JSON and a newline."""
    with opened(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
