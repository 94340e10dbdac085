"""Shared report and error types, and the one reader of JSON input files."""

import json
from dataclasses import dataclass
from typing import Optional


class InputError(ValueError):
    """Malformed or inconsistent input data (exit code 2 territory)."""


class BoundError(OverflowError):
    """An exact sparse result could reach the int64 range, found by its bound
    before it is computed: a designed limit, like the mode caps (exit code 2)."""

    def __init__(self):
        super().__init__("exact sparse result could exceed the int64 range")


def read_json(path, what):
    """The JSON document in the file at `path`, or InputError naming `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:    # not text, not JSON, or an int past the digit limit
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def is_int(value):
    """True for an integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    prop: str
    witness: Optional[tuple] = None
    detail: Optional[str] = None

    def __post_init__(self):
        if not self.passed and self.witness is None and self.detail is None:
            raise AssertionError("failed report needs a witness or detail")

    def to_dict(self):
        return {
            "property": self.prop,
            "pass": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


def ok(prop, detail=None):
    return CheckReport(True, prop, None, detail)


def fail(prop, witness=None, detail=None):
    return CheckReport(False, prop, witness, detail)

