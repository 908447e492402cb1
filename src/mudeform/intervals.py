"""Bounded Borel sets modeled as finite unions of disjoint closed intervals."""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalSet:
    """Ordered, pairwise-disjoint closed intervals with finite endpoints.

    The empty set (no intervals) is allowed and has measure zero.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if not (lo < hi):
                raise ValueError(f"interval [{lo}, {hi}] needs lo < hi")
            if not (abs(lo) < float("inf") and abs(hi) < float("inf")):
                raise ValueError("endpoints must be finite (bounded set)")
        ivs = tuple(sorted(ivs))
        for (_, hi), (lo2, _) in zip(ivs, ivs[1:]):
            if lo2 <= hi:
                raise ValueError(
                    f"intervals must be pairwise disjoint; {hi} >= {lo2}")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def of(cls, *pairs) -> "IntervalSet":
        return cls(tuple(pairs))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def contains_zero(self) -> bool:
        """True iff 0 lies in the set (endpoints included: closed intervals)."""
        return any(lo <= 0.0 <= hi for lo, hi in self.intervals)

    def __str__(self):
        return format_interval_set(self)


def _fmt(x: float) -> str:
    return str(int(x)) if x == int(x) and abs(x) < 2.0 ** 53 else repr(x)


def format_interval_set(s: IntervalSet) -> str:
    """Textual form "[a,b]+[c,d]", the ASCII form parse_interval_set reads."""
    if s.is_empty:
        return "{}"
    return "+".join(f"[{_fmt(lo)},{_fmt(hi)}]" for lo, hi in s.intervals)


# The interval-set grammar: "{}", blank, or "[a,b]" terms joined by "+",
# "∪", "u" or "U".  Whitespace may follow any token, and no two \s* meet.
_NUMBER = r"[+-]? (?: \d+ (?:\.\d*)? | \.\d+ ) (?: [eE][+-]?\d+ )?"
_INTERVAL = rf"\[\s* ({_NUMBER}) \s* ,\s* ({_NUMBER}) \s* \]\s*"
_INTERVAL_SET = (rf"(?x) \s* (?: \{{\}}\s*"
                 rf" | {_INTERVAL} (?: [+∪uU]\s* {_INTERVAL} )* )?")


def parse_interval_set(text: str) -> IntervalSet:
    """Parse "[a,b]∪[c,d]" (ASCII alternative "[a,b]+[c,d]")."""
    if re.fullmatch(_INTERVAL_SET, text) is None:
        raise ValueError(f"cannot parse interval set {text!r}")
    return IntervalSet(tuple((float(lo), float(hi)) for lo, hi
                             in re.findall(f"(?x){_INTERVAL}", text)))
