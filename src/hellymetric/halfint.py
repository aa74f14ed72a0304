"""Exact half-integer arithmetic.

All hyperbolicity-style quantities in this package are either integers or
half-integers.  Floats would silently lose exactness, so values are stored as
``doubled`` (twice the represented value, always an int) and only ever
converted to text for display.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Union

Number = Union["HalfInt", int]


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """An exact multiple of 1/2, stored as twice its value."""

    doubled: int

    def __post_init__(self) -> None:
        if not isinstance(self.doubled, int):
            raise TypeError(f"doubled must be int, got {type(self.doubled).__name__}")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_int(cls, value: int) -> "HalfInt":
        return cls(2 * value)

    @staticmethod
    def coerce(value: Number) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    # -- predicates / conversions -------------------------------------
    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.doubled // 2

    def floor(self) -> int:
        return self.doubled // 2

    # -- comparisons (total_ordering fills in the rest) ----------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (HalfInt, int)):
            return self.doubled == HalfInt.coerce(other).doubled
        return NotImplemented

    def __lt__(self, other: Number) -> bool:
        return self.doubled < HalfInt.coerce(other).doubled

    def __hash__(self) -> int:
        return hash(("HalfInt", self.doubled))

    # -- display --------------------------------------------------------
    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"
