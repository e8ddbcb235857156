"""3-component vector math (OpenSteer's ``Vec3``).

A POD in the paper's sense: identical layout on host and device, no
pointers, no virtual functions — so it crosses the kernel boundary with
the default byte-wise copy.  The steering behaviors (listings 5.1-5.5)
are written against exactly this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Vec3:
    """An immutable 3-vector of floats."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    # -- metrics ---------------------------------------------------------
    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def length_squared(self) -> float:
        return self.dot(self)

    def length(self) -> float:
        return math.sqrt(self.length_squared())

    def distance(self, other: "Vec3") -> float:
        return (self - other).length()

    def distance_squared(self, other: "Vec3") -> float:
        return (self - other).length_squared()

    # -- direction helpers -----------------------------------------------
    def normalize(self) -> "Vec3":
        """Unit vector; the zero vector normalizes to itself (the listing
        5.1 behaviors rely on this when an agent has no neighbors).

        Pre-scales by the largest component so squaring cannot underflow
        or overflow — tiny (subnormal-range) vectors normalize exactly as
        accurately as ordinary ones.
        """
        m = max(abs(self.x), abs(self.y), abs(self.z))
        if m == 0.0:
            return Vec3()
        scaled = Vec3(self.x / m, self.y / m, self.z / m)
        inv = 1.0 / math.sqrt(scaled.length_squared())
        return Vec3(scaled.x * inv, scaled.y * inv, scaled.z * inv)

    def truncate_length(self, max_length: float) -> "Vec3":
        """Clamp the vector's length (OpenSteer's ``truncateLength`` —
        applies max force / max speed in the vehicle model)."""
        d2 = self.length_squared()
        if d2 <= max_length * max_length:
            return self
        return self * (max_length / math.sqrt(d2))

    def parallel_component(self, unit_basis: "Vec3") -> "Vec3":
        """Projection onto a unit basis vector."""
        return unit_basis * self.dot(unit_basis)

    def perpendicular_component(self, unit_basis: "Vec3") -> "Vec3":
        """Component orthogonal to a unit basis vector."""
        return self - self.parallel_component(unit_basis)

    # -- conversions -------------------------------------------------------
    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def from_tuple(t: "tuple[float, float, float]") -> "Vec3":
        return Vec3(float(t[0]), float(t[1]), float(t[2]))


ZERO = Vec3()
UNIT_X = Vec3(1.0, 0.0, 0.0)
UNIT_Y = Vec3(0.0, 1.0, 0.0)
UNIT_Z = Vec3(0.0, 0.0, 1.0)
