"""Planar geometry for the simulator.

Points, directional transmission sectors, the cell grid that schedules
reservation-period slots, and distance helpers. Angles are radians,
distances are meters, and every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Bearings exactly half a beam width off axis count as inside the sector.
ANGLE_TOL = 1e-9


class DegenerateLineError(ValueError):
    """Raised when a line is requested through two coincident points."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(b.x - a.x, b.y - a.y)


def bearing(a: Point, b: Point) -> float:
    """Direction of the vector a->b, wrapped to [0, 2*pi)."""
    return math.atan2(b.y - a.y, b.x - a.x) % TWO_PI


def normalize_angle(theta: float) -> float:
    """Wrap any angle to [0, 2*pi)."""
    return theta % TWO_PI


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b, in (-pi, pi]."""
    d = (a - b) % TWO_PI
    if d > math.pi:
        d -= TWO_PI
    return d


@dataclass(frozen=True)
class Sector:
    """Directional transmission cone.

    apex: transmitter position
    theta: orientation of the beam axis, normalized to [0, 2*pi)
    alpha: full beam width in (0, 2*pi]; 2*pi means omnidirectional
    range: maximum reach, > 0
    """

    apex: Point
    theta: float
    alpha: float
    range: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= TWO_PI:
            raise ValueError(f"beam width must be in (0, 2*pi], got {self.alpha}")
        if not (math.isfinite(self.range) and self.range > 0.0):
            raise ValueError(f"range must be positive and finite, got {self.range}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def sector_contains(s: Sector, p: Point) -> bool:
    """True iff p lies within the sector's range and angular span.

    The apex itself is inside by convention. Boundary bearings (exactly
    alpha/2 off axis) are inside, with ANGLE_TOL slack for float error.
    """
    d = distance(s.apex, p)
    if d > s.range:
        return False
    if d == 0.0:
        return True
    return abs(angle_diff(bearing(s.apex, p), s.theta)) <= s.alpha / 2.0 + ANGLE_TOL


def point_to_line_distance(p: Point, a: Point, b: Point) -> float:
    """Perpendicular distance from p to the infinite line through a and b."""
    if a.x == b.x and a.y == b.y:
        raise DegenerateLineError(f"line through coincident points ({a.x}, {a.y})")
    ab_x = b.x - a.x
    ab_y = b.y - a.y
    ap_x = p.x - a.x
    ap_y = p.y - a.y
    return abs(ab_x * ap_y - ab_y * ap_x) / math.hypot(ab_x, ab_y)


@dataclass(frozen=True)
class GridCell:
    gx: int
    gy: int


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned cell grid used to derive reservation-period slots.

    The slot formula needs at least 11 slots to give every pair of distinct
    cells in any 3x3 window a distinct slot, so rp_modulus is floored there.
    """

    cell_width: float = 100.0
    cell_height: float = 100.0
    origin: Point = Point(0.0, 0.0)
    rp_modulus: int = 11

    def __post_init__(self):
        if self.cell_width <= 0.0 or self.cell_height <= 0.0:
            raise ValueError("cell dimensions must be positive")
        if self.rp_modulus < 11:
            raise ValueError(f"rp_modulus must be >= 11, got {self.rp_modulus}")


def grid_of(p: Point, spec: GridSpec) -> GridCell:
    """Cell containing p. Floor semantics: points left of / below the origin
    land in negative cell indices."""
    return GridCell(
        gx=math.floor((p.x - spec.origin.x) / spec.cell_width),
        gy=math.floor((p.y - spec.origin.y) / spec.cell_height),
    )


def rp_slot_of(cell: GridCell, spec: GridSpec) -> int:
    """Reservation-period slot index assigned to a grid cell.

    Affine index 3*gx + 2*gy + 5 reduced modulo the slot count. With a
    modulus >= 11 the offset difference 3*dx + 2*dy stays in [-10, 10] and
    is zero only at dx == dy == 0, so any two distinct cells of a 3x3
    window are assigned different slots.
    """
    return (3 * cell.gx + 2 * cell.gy + 5) % spec.rp_modulus
