"""Continuous value maps that a family config can name.

These are the maps available to the pushforward machinery and, through
``map_from_config``, to the CLI's family configs; the library API
additionally accepts arbitrary callables wherever a value map is expected.
All maps here act on vector values coordinate-wise or linearly and are
continuous on their domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cadlag import Value, ValueSpaceMismatch


def _require_vector(v: Value) -> tuple[float, ...]:
    if isinstance(v, str):
        raise ValueSpaceMismatch("value map needs a vector value, got a label")
    return v


@dataclass(frozen=True)
class Identity:
    def __call__(self, v: Value) -> Value:
        return v


@dataclass(frozen=True)
class Project:
    """Keep the listed coordinates (1-based), in the listed order."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(k) for k in self.coords))
        if not self.coords or min(self.coords) < 1:
            raise ValueError("coordinates are 1-based and at least one is required")

    def __call__(self, v: Value) -> Value:
        vec = _require_vector(v)
        if max(self.coords) > len(vec):
            raise ValueSpaceMismatch(
                f"projection onto coordinate {max(self.coords)} of a "
                f"{len(vec)}-dimensional value"
            )
        return tuple(vec[k - 1] for k in self.coords)


@dataclass(frozen=True)
class SquareCoords:
    """v -> (v_1^2, ..., v_d^2)."""

    def __call__(self, v: Value) -> Value:
        return tuple(c * c for c in _require_vector(v))


@dataclass(frozen=True)
class Clamp:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty clamp range [{self.lo}, {self.hi}]")

    def __call__(self, v: Value) -> Value:
        return tuple(min(max(c, self.lo), self.hi) for c in _require_vector(v))


@dataclass(frozen=True)
class AffineMap:
    """v -> M v + c, with M given row-major."""

    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]

    def __post_init__(self):
        m = tuple(tuple(float(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", tuple(float(x) for x in self.offset))
        if not m or len({len(row) for row in m}) != 1:
            raise ValueError("matrix rows must be nonempty and of equal length")
        if len(m) != len(self.offset):
            raise ValueError("offset length must match the number of rows")

    def __call__(self, v: Value) -> Value:
        vec = _require_vector(v)
        if len(vec) != len(self.matrix[0]):
            raise ValueSpaceMismatch(
                f"affine map expects dimension {len(self.matrix[0])}, got {len(vec)}"
            )
        return tuple(
            sum(r * c for r, c in zip(row, vec)) + off
            for row, off in zip(self.matrix, self.offset)
        )


def map_from_config(obj: dict):
    """Build a registered value map from its JSON form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad value-map config: {obj!r}")
    kind = obj["kind"]
    if kind == "identity":
        return Identity()
    if kind == "project":
        return Project(tuple(obj["coords"]))
    if kind == "square":
        return SquareCoords()
    if kind == "clamp":
        return Clamp(float(obj["lo"]), float(obj["hi"]))
    if kind == "affine":
        return AffineMap(
            tuple(tuple(row) for row in obj["matrix"]), tuple(obj["offset"])
        )
    raise ValueError(f"unknown value-map kind {kind!r}")
