"""Coordinate charts and exact rational points."""

import re
from fractions import Fraction
from itertools import combinations

from .errors import IndexOutOfRange, PoisgeoError

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


class Chart:
    """An ordered tuple of coordinate names; everything lives over one of these.

    A chart is immutable and compares (and hashes) by its names.  It also
    holds the constants that every field and tensor on it shares:
    ``zero_field`` and ``one_field``, the constant-1 polynomial
    ``one_poly``, and per degree k in 0..dim + 1 the increasing index tuples
    ``increasing[k]`` together with their set ``increasing_set[k]``.
    """

    __slots__ = (
        "names", "dim", "_hash", "one_poly", "zero_field", "one_field",
        "increasing", "increasing_set",
    )

    def __init__(self, names):
        from .scalar import _field  # scalar imports this module

        names = tuple(names)
        if not names:
            raise PoisgeoError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise PoisgeoError(f"duplicate coordinate names in {names}")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise PoisgeoError(f"bad coordinate name {nm!r}")
        n = len(names)
        one = {(0,) * n: 1}
        increasing, increasing_set = increasing_tuples(n)
        init = object.__setattr__
        init(self, "names", names)
        init(self, "dim", n)
        init(self, "_hash", hash((names,)))
        init(self, "one_poly", one)
        init(self, "zero_field", _field(self, {}, one))
        init(self, "one_field", _field(self, one, one))
        init(self, "increasing", increasing)
        init(self, "increasing_set", increasing_set)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Chart")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Chart")

    def __reduce__(self):
        return Chart, (self.names,)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Chart:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return self._hash

    def check_index(self, i):
        """Raise IndexOutOfRange unless 0 <= i < dim: the one range rule of
        every coordinate-index entry point."""
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"coordinate index {i} outside 0..{self.dim - 1}")

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise PoisgeoError(f"{name!r} is not a coordinate of {self}") from None

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


def increasing_tuples(k):
    """Per degree p in 0..k + 1, the increasing p-tuples of range(k), and
    their sets: the index tuples of alternating tensors on a frame of size k."""
    increasing = tuple(tuple(combinations(range(k), p)) for p in range(k + 2))
    return increasing, tuple(frozenset(t) for t in increasing)


def as_point(chart, coords):
    """Normalize a point to a tuple of Fractions of the chart dimension.

    Accepts ints, Fractions, and 'p/q' strings.
    """
    pt = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    if len(pt) != chart.dim:
        raise PoisgeoError(
            f"point has {len(pt)} coordinates, chart {chart} has {chart.dim}"
        )
    return pt
