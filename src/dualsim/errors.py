"""Semantic exception hierarchy for dualsim, and the one rule of each scalar input.

Public functions never raise bare ValueError; they raise one of the types
below so callers (and the CLI exit-code mapping) can tell invalid input
apart from a genuinely infeasible probability model. A public function
given a bad scalar (a bool where a number belongs, NaN, an infinity, an
int past the float range, a float where an integer belongs, a size that
no numpy array holds, a seed outside [0, 2**64), a probability outside
[0, 1], a count below 1) raises ValidationError, never OverflowError,
TypeError or a numpy ValueError: the config loader, each value type (on
its fields, for :func:`check_fields`) and every public function check it
with one of the rules below, each stated once, its range with it. So are
the rules of a language id and of a translation direction, two different
language ids, as every translator, parallel corpus key and report row
holds. An argument of one of the package's types has its type's rule.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import Any, Callable, NamedTuple


class DualSimError(Exception):
    """Base error for this package."""


class ValidationError(DualSimError, ValueError):
    """Inputs violate a contract: bad domain, shape, or unknown field."""


class InfeasibleParamsError(DualSimError, ValueError):
    """Parameters induce a negative probability cell.

    ``cell`` identifies the offending joint-table cell, e.g. ``(1, 0)``,
    and ``value`` carries the (negative) mass it would have received.
    """

    def __init__(self, cell: tuple[int, ...], value: float):
        self.cell = cell
        self.value = value
        bits = ", ".join(str(b) for b in cell)
        super().__init__(f"joint cell ({bits}) would be negative: {value!r}")


class Rule(NamedTuple):
    """What a scalar input must be: its test and its description."""

    ok: Callable[[Any], bool]
    what: str

    def require(self, value: Any, name: str) -> None:
        if not self.ok(value):
            raise ValidationError(f"{name} must be {self.what}, got {value!r}")


def check_fields(obj: Any) -> None:
    """Check each field of the dataclass ``obj`` in order with the rule in its
    metadata, skipping one with none; it reads the field dict, as
    ``dataclasses.fields`` builds a tuple per call, kept on Python's free list."""
    for f in obj.__dataclass_fields__.values():
        if "rule" in f.metadata:
            f.metadata["rule"].require(getattr(obj, f.name), f.name)


# a bool is no number, and float() of an int past the float range overflows
FINITE = Rule(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number")
INTEGER = Rule(lambda v: type(v) is int, "an integer")
# the rule of a config leaf, by the type of its default
SCALAR_RULES = {float: FINITE, int: INTEGER, bool: Rule(lambda v: type(v) is bool, "a boolean"),
                str: Rule(lambda v: type(v) is str, "a string")}
# the most 8-byte entries (float64 weights, int64 ids) that one numpy array holds
MAX_ENTRIES = sys.maxsize // 8
# a count of such entries: a size of a world or of a corpus; a count holds at least one
SIZE = Rule(lambda v: type(v) is int and 0 <= v <= MAX_ENTRIES, f"an integer in [0, {MAX_ENTRIES}]")
COUNT = Rule(lambda v: SIZE.ok(v) and v >= 1, f"an integer in [1, {MAX_ENTRIES}]")
# Monte Carlo hashes a seed's low 64 bits, so -1 would alias the largest seed
SEED = Rule(lambda v: type(v) is int and 0 <= v < 2**64, "a nonnegative integer below 2**64")
# verify's draws test millions of probabilities: a float in range passes on its first test
PROBABILITY = Rule(lambda v: isinstance(v, float) and 0.0 <= v <= 1.0
                   or FINITE.ok(v) and 0 <= v <= 1, "a number in [0, 1]")
POSITIVE = Rule(lambda v: FINITE.ok(v) and v > 0, "a positive finite number")
NONNEGATIVE = Rule(lambda v: FINITE.ok(v) and v >= 0, "a nonnegative finite number")
# a number of steps, and a language id; a translation direction is from one language to another
NATURAL = LANGUAGE = Rule(lambda v: type(v) is int and v >= 0, "a nonnegative integer")
DIRECTION = Rule(lambda v: type(v) is tuple and len(v) == 2 and all(map(LANGUAGE.ok, v))
                 and v[0] != v[1], "a pair of two different nonnegative integers")
# a corpus's data by key, a phase's translators by direction, a record's phases by name
MAPPING = Rule(lambda v: isinstance(v, Mapping), "a mapping")
