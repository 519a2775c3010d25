"""Config knobs declared with their valid ranges.

knob(default, interval) makes a dataclass field whose metadata holds its
interval, written as text such as "(0, 1]" or "[1, inf)". check_knobs(obj)
tests every knob of a dataclass instance, each entry of a tuple-valued one,
with one message format. NaN lies in no interval; None (a schedule left to
its default) is not checked.
"""

from __future__ import annotations

from dataclasses import field, fields

import numpy as np


class Interval:
    """A real interval written as text; `x in interval` tests membership."""

    def __init__(self, text: str):
        self.text, self.lo_closed, self.hi_closed = text, text[0] == "[", text[-1] == "]"
        self.lo, self.hi = (float(bound) for bound in text[1:-1].split(","))

    def __contains__(self, x) -> bool:
        above = self.lo <= x if self.lo_closed else self.lo < x
        return above and (x <= self.hi if self.hi_closed else x < self.hi)

    def __str__(self) -> str:
        return self.text


def knob(default, interval: str):
    return field(default=default, metadata={"interval": Interval(interval)})


def intervals(cls) -> dict[str, Interval]:
    """Field name -> declared interval, for the knobs of dataclass `cls`."""
    return {f.name: f.metadata["interval"] for f in fields(cls) if "interval" in f.metadata}


def check_knobs(obj):
    for name, interval in intervals(type(obj)).items():
        value = getattr(obj, name)
        if value is not None and not all(x in interval for x in np.ravel(value)):
            raise ValueError(f"{name} must be in {interval}, got {value}")
