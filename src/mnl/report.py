"""Shared report and error types."""

from dataclasses import dataclass
from typing import Optional


class InputError(ValueError):
    """Malformed or inconsistent input data (exit code 2 territory)."""


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

