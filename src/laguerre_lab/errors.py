"""Exception types shared across the package.

Degenerate inputs (parallel points where non-parallel is required, points
on circles where off-circle is required) raise rather than returning a
false-ish value, so search code can never silently skip a configuration.
"""

from __future__ import annotations

import functools


class LaguerreError(Exception):
    """Base class for all domain errors."""


class ParallelPoints(LaguerreError):
    """Two of the given points lie on a common generator."""


class PointOnCircle(LaguerreError):
    """A point that must avoid a circle lies on it."""


class PointNotOnCircle(LaguerreError):
    """A point that must lie on a circle does not."""


class TangentPair(LaguerreError):
    """The operation requires a non-tangent circle pair."""


class NotALaguerrePlane(LaguerreError):
    """A candidate structure failed the plane axioms, refused at the first
    failing stage of the validator, whose kind the message names.  `report`,
    the full report with witnesses, is built from the structure when read."""

    def __init__(self, message: str, structure):
        super().__init__(message)
        self._structure = structure

    @functools.cached_property
    def report(self):
        from .plane import _validate   # plane imports this module
        return _validate(self._structure)


class NotUnique(LaguerreError):
    """A pencil holds 0 or >=2 circles tangent to the second circle.

    Expected on planes of characteristic 2, where the unique-tangent
    axiom fails.
    """

    def __init__(self, count: int, message: str = ""):
        super().__init__(message or f"expected exactly one tangent pencil member, found {count}")
        self.count = count


class WellDefinednessFailure(LaguerreError):
    """Two admissible auxiliary points gave different symmetry images."""

    def __init__(self, x: int, y1: int, y2: int):
        super().__init__(f"images of point {x} differ for auxiliary points {y1} and {y2}")
        self.x = x
        self.y1 = y1
        self.y2 = y2


class NotFixedPointFree(LaguerreError):
    """The automorphism fixes a point but a fixed-point-free one is required."""
