"""CIF call transforms: translation, mirroring, and 90-degree rotation.

CIF's ``C`` (call) command takes a list of ``T dx dy``, ``M X``, ``M Y``,
and ``R a b`` operations applied left to right.  ACE only needs the
manhattan subgroup -- rotations by multiples of 90 degrees -- because all
geometry is fractured to axis-aligned boxes before extraction; arbitrary
``R a b`` directions are snapped to the nearest axis with a warning by the
parser.

A transform is represented by the matrix

    [a  b  0]
    [c  d  0]
    [dx dy 1]

with ``(a, b, c, d)`` one of the eight signed permutation matrices (the
dihedral group of the square).
"""

from __future__ import annotations

from dataclasses import dataclass

from .box import Box

#: The eight manhattan orientations as (a, b, c, d) row-vector matrices.
_ORIENTATIONS = {
    (1, 0, 0, 1),
    (0, 1, -1, 0),
    (-1, 0, 0, -1),
    (0, -1, 1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
}


@dataclass(frozen=True, slots=True)
class Transform:
    """An element of the manhattan affine group over the integer grid."""

    a: int = 1
    b: int = 0
    c: int = 0
    d: int = 1
    dx: int = 0
    dy: int = 0

    def __post_init__(self) -> None:
        if (self.a, self.b, self.c, self.d) not in _ORIENTATIONS:
            raise ValueError(
                f"non-manhattan orientation matrix "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls) -> "Transform":
        return cls()

    @classmethod
    def translation(cls, dx: int, dy: int) -> "Transform":
        return cls(dx=dx, dy=dy)

    @classmethod
    def mirror_x(cls) -> "Transform":
        """CIF ``M X``: negate x coordinates."""
        return cls(a=-1, d=1)

    @classmethod
    def mirror_y(cls) -> "Transform":
        """CIF ``M Y``: negate y coordinates."""
        return cls(a=1, d=-1)

    @classmethod
    def rotation(cls, rx: int, ry: int) -> "Transform":
        """CIF ``R a b``: rotate so the +x axis points along (rx, ry).

        Only the four axis directions are supported; the CIF parser snaps
        other directions before reaching here.
        """
        if rx > 0 and ry == 0:
            return cls()
        if rx == 0 and ry > 0:
            return cls(a=0, b=1, c=-1, d=0)
        if rx < 0 and ry == 0:
            return cls(a=-1, b=0, c=0, d=-1)
        if rx == 0 and ry < 0:
            return cls(a=0, b=-1, c=1, d=0)
        raise ValueError(f"rotation direction ({rx}, {ry}) is not axis-aligned")

    # -- group operations -------------------------------------------------

    def then(self, other: "Transform") -> "Transform":
        """The transform equal to applying ``self`` first, then ``other``."""
        return Transform(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
            dx=self.dx * other.a + self.dy * other.c + other.dx,
            dy=self.dx * other.b + self.dy * other.d + other.dy,
        )

    def inverse(self) -> "Transform":
        # The orientation part is orthogonal with determinant +-1, so its
        # inverse is its transpose divided by the determinant.
        det = self.a * self.d - self.b * self.c
        ia, ib = self.d // det, -self.b // det
        ic, id_ = -self.c // det, self.a // det
        return Transform(
            a=ia,
            b=ib,
            c=ic,
            d=id_,
            dx=-(self.dx * ia + self.dy * ic),
            dy=-(self.dx * ib + self.dy * id_),
        )

    @property
    def orientation(self) -> tuple[int, int, int, int]:
        """The rotation/mirror part, used as a window-memo key component."""
        return (self.a, self.b, self.c, self.d)

    @property
    def is_identity(self) -> bool:
        return (
            self.a == 1
            and self.d == 1
            and self.b == 0
            and self.c == 0
            and self.dx == 0
            and self.dy == 0
        )

    # -- application ------------------------------------------------------

    def apply_point(self, x: int, y: int) -> tuple[int, int]:
        return (
            x * self.a + y * self.c + self.dx,
            x * self.b + y * self.d + self.dy,
        )

    def apply_box(self, box: Box) -> Box:
        x1, y1 = self.apply_point(box.xmin, box.ymin)
        x2, y2 = self.apply_point(box.xmax, box.ymax)
        return Box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
