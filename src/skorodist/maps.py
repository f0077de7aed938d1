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


def _check_index(k, what):
    """A 1-based index is an int, not a bool, and at least 1."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"{what} must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"{what} is 1-based, got {k}")


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
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise ValueError("a projection needs at least one coordinate")
        for k in self.coords:
            _check_index(k, "projection coordinate")

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


def _config_number(value, what):
    """A JSON number of a config, as a float; a bool or string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _config_array(value, what, item):
    """A JSON array of a config, each element read by item."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array, got {value!r}")
    return tuple(item(v, what) for v in value)


def _config_numbers(value, what):
    return _config_array(value, what, _config_number)


def map_from_config(obj: dict):
    """Build a registered value map from its JSON form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad value-map config: {obj!r}")
    kind = obj["kind"]
    if kind == "identity":
        return Identity()
    if kind == "project":
        return Project(obj["coords"])  # rejects all but an array of integers
    if kind == "square":
        return SquareCoords()
    if kind == "clamp":
        return Clamp(
            _config_number(obj["lo"], "clamp lo"), _config_number(obj["hi"], "clamp hi")
        )
    if kind == "affine":
        return AffineMap(
            _config_array(obj["matrix"], "affine matrix", _config_numbers),
            _config_numbers(obj["offset"], "affine offset"),
        )
    raise ValueError(f"unknown value-map kind {kind!r}")
