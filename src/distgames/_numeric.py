"""Shared numeric helpers: the exact/float dual backend.

Values are plain Python numbers.  int and Fraction are the exact backend;
float is the approximate one.  An operation is exact when every input is
exact, and comparisons then use true equality.  As soon as a float is
involved, comparisons fall back to the absolute tolerance DEFAULT_TOL
(1e-9), which is set here and nowhere else.  Structural checks (B = -A,
weights summing to 1) share one closeness rule, close_to: true equality
for exact values, MASS_SUM_TOL otherwise.  Numbers leave the library
through one rule: to_json for JSON documents, csv_cell for CSV cells.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, List, Sequence, Tuple, Union

Number = Union[int, Fraction, float]

DEFAULT_TOL = 1e-9
MASS_SUM_TOL = 1e-12


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(xs: Sequence[Number]) -> bool:
    return all(is_exact(x) for x in xs)


def scale_to_integers(rows: Sequence[Sequence[Number]]
                      ) -> Tuple[List[List[int]], int]:
    """Integer rows and the least common denominator d of all entries,
    rows[i][j] = ints[i][j] / d.  Floats count as their binary rationals.
    """
    fs = [[Fraction(x) for x in row] for row in rows]
    d = lcm(*(f.denominator for row in fs for f in row))
    return [[f.numerator * (d // f.denominator) for f in row] for row in fs], d


def cmp(a: Number, b: Number) -> int:
    """Three-way compare. Returns -1, 0 or 1.

    Exact inputs compare exactly; otherwise equality means
    |a - b| <= DEFAULT_TOL.
    """
    if is_exact(a) and is_exact(b):
        if a == b:
            return 0
        return -1 if a < b else 1
    d = float(a) - float(b)
    if abs(d) <= DEFAULT_TOL:
        return 0
    return -1 if d < 0 else 1


def close_to(a: Number, b: Number) -> bool:
    """Equality for exact values, |a - b| <= MASS_SUM_TOL as soon as a
    float is in."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= MASS_SUM_TOL


def sums_to_one(ws: Sequence[Number]) -> bool:
    """Weights sum to 1: exactly for an exact sum, within MASS_SUM_TOL
    otherwise."""
    return close_to(sum(ws), 1)


def reject_non_finite(values: Iterable[Number]) -> None:
    """Raise ValueError on the first NaN or infinite float in values."""
    for v in values:
        if isinstance(v, float) and not isfinite(v):
            raise ValueError(f"non-finite number {v!r}")


def parse_number(obj) -> Number:
    """Read a number from a JSON value.

    Strings are exact rationals in "p/q" (or plain "p") form; ints stay
    ints, finite floats stay floats.  NaN, infinities and a zero
    denominator raise ValueError.
    """
    if isinstance(obj, str):
        try:
            f = Fraction(obj)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {obj!r}") from None
        return int(f) if f.denominator == 1 else f
    if isinstance(obj, bool):
        raise TypeError("boolean is not a number")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        reject_non_finite((obj,))
        return obj
    raise TypeError(f"cannot interpret {obj!r} as a number")


def to_json(x):
    """JSON-ready copy of x, the inverse of parse_number on numbers.

    A whole Fraction becomes an int and any other Fraction a "p/q"
    string, so exact values round-trip.  Tuples and lists become lists
    and dicts are copied.  Everything else passes through: ints, bools,
    None and strings as they are, and floats too, since json writes a
    float as its repr, which round-trips every double.  Types are matched
    exactly, not with isinstance: an isinstance test against Fraction on
    every int would cost more than the rest of the walk.
    """
    t = type(x)
    if t is Fraction:
        if x.denominator == 1:
            return x.numerator
        return f"{x.numerator}/{x.denominator}"
    if t is tuple or t is list:
        return [to_json(v) for v in x]
    if t is dict:
        return {k: to_json(v) for k, v in x.items()}
    return x


def csv_cell(x) -> str:
    """CSV text of one value: empty for None, true/false for a bool,
    decimal for an int, format_float for any other number."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format_float(x)


def format_float(x: Number) -> str:
    """A number as a float with 17 significant digits, enough to
    round-trip a double."""
    return f"{float(x):.17g}"
