"""Step functions on [0, 1]: construction, evaluation and left limits.

A step function is stored as jump times ``t_0 = 0 < t_1 < ... < t_{n-1} < 1``
together with one value per piece: piece ``k`` holds ``values[k]`` on
``[t_k, t_{k+1})``, and the final piece is closed at 1; adjacent pieces hold
different values.  Right-continuity and existence of left limits hold by
construction, so evaluation, left limits and the range closure are exact
finite computations rather than limit procedures.

Values are either real vectors of a fixed dimension (float tuples) or labels
from a finite alphabet (strings); a single function never mixes the two.
Scalars are stored as 1-vectors.

The split interval consists of the symbols ``t+`` (``t`` in [0, 1]) and ``t-``
(``t`` in (0, 1]); there is no ``0-``.  A step function ``f`` extends to it
continuously by ``t+`` -> ``f(t)`` and ``t-`` -> ``f.left_limit(t)``.  At
``t = 0``, outside the split interval, ``left_limit`` applies the convention
f(0-) = f(0).
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .distance import TimeChange

Value = tuple[float, ...] | str


class TraceParseError(ValueError):
    """Malformed step-function document or raw value."""


class ValueSpaceMismatch(ValueError):
    """Two values (or functions) do not live in the same value space."""


def coerce_value(raw) -> Value:
    """Normalize a raw value: numbers become 1-vectors, sequences become float
    tuples, strings are labels.  Non-finite coordinates are rejected."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, bool):
        raise TraceParseError("boolean is not a valid value")
    if isinstance(raw, (int, float)):
        raw = (raw,)
    try:
        coords = tuple(float(c) for c in raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceParseError(f"cannot interpret value {raw!r}") from exc
    if not coords:
        raise TraceParseError("empty coordinate vector")
    for c in coords:
        if not math.isfinite(c):
            raise TraceParseError(f"non-finite coordinate in {raw!r}")
    return coords


def space_of(value: Value) -> tuple:
    """Value-space descriptor: ``("vector", dim)`` or ``("label",)``."""
    if isinstance(value, str):
        return ("label",)
    return ("vector", len(value))


def require_same_space(a: Value, b: Value) -> None:
    sa, sb = space_of(a), space_of(b)
    if sa != sb:
        raise ValueSpaceMismatch(f"value spaces differ: {sa} vs {sb}")


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant cadlag function on [0, 1].

    Construct through :func:`make_step`, which validates the representation.
    Adjacent pieces with equal values merge on construction, keeping the first
    value of each run; equality is ``==`` per coordinate, so 0.0 and -0.0
    merge.  A jump that changes no value would need a float knot of its own
    in every certificate.  Instances are immutable; all methods are pure.
    """

    times: tuple[float, ...]
    values: tuple[Value, ...]

    def __post_init__(self):
        vs = self.values
        if any(map(operator.eq, vs, vs[1:])):
            keep = [k for k, v in enumerate(vs) if not k or v != vs[k - 1]]
            object.__setattr__(self, "times", tuple(self.times[k] for k in keep))
            object.__setattr__(self, "values", tuple(vs[k] for k in keep))

    def __call__(self, t: float) -> Value:
        """Value at ``t``: right-continuous, last piece closed at 1."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
        return self.values[bisect_right(self.times, t) - 1]

    def left_limit(self, t: float) -> Value:
        """Left limit at ``t``, with the convention f(0-) = f(0)."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
        k = bisect_right(self.times, t) - 1
        if k >= 1 and self.times[k] == t:
            return self.values[k - 1]
        return self.values[k]

    def range_closure(self) -> set:
        """All values attained on the split interval.

        For a step function this is just the set of piece values; it contains
        every evaluation and every left limit, and being finite it is compact
        in any topology on the value space.
        """
        return set(self.values)

    def interior_jumps(self) -> tuple[float, ...]:
        """Jump times in (0, 1); excludes the leading 0."""
        return self.times[1:]

    def space(self) -> tuple:
        return space_of(self.values[0])

    def to_json_obj(self) -> dict:
        vals = [v if isinstance(v, str) else list(v) for v in self.values]
        return {"times": list(self.times), "values": vals}


def make_step(times: Iterable[float], values: Iterable) -> StepFunction:
    """Validated constructor.

    Requires equal lengths, ``times[0] == 0``, strictly increasing times in
    [0, 1), and values from a single value space.  Equal adjacent values
    merge, as in every :class:`StepFunction`.
    """
    try:
        ts = tuple(float(t) for t in times)
    except OverflowError as exc:
        raise ValueError(f"jump time out of float range: {exc}") from exc
    vs = tuple(coerce_value(v) for v in values)
    if not ts:
        raise ValueError("a step function needs at least one piece")
    if len(ts) != len(vs):
        raise ValueError(f"{len(ts)} times vs {len(vs)} values")
    if ts[0] != 0.0:
        raise ValueError(f"first jump time must be 0, got {ts[0]}")
    for prev, cur in zip(ts, ts[1:]):
        if not cur > prev:
            raise ValueError(f"jump times not strictly increasing at {cur}")
    if ts[-1] >= 1.0 or not math.isfinite(ts[-1]):
        raise ValueError(f"jump times must lie in [0, 1), got {ts[-1]}")
    space = space_of(vs[0])
    for v in vs[1:]:
        if space_of(v) != space:
            raise ValueSpaceMismatch("mixed value spaces within one function")
    return StepFunction(ts, vs)


def compose_time_change(f: StepFunction, lam: "TimeChange") -> StepFunction:
    """The step function ``t -> f(lam(t))``.

    Composing with a time change moves each interior jump time ``t_k`` of
    ``f`` to ``lam^{-1}(t_k)`` and leaves the piece values untouched, in
    order, so the result has no equal adjacent values either.
    """
    new_times = [0.0]
    for t in f.times[1:]:
        new_times.append(lam.inverse_at(t))
    for prev, cur in zip(new_times, new_times[1:]):
        if not cur > prev:
            raise ValueError("time change collapsed two jump times")
    return StepFunction(tuple(new_times), f.values)


def step_from_json(text: str) -> StepFunction:
    """Parse the JSON form ``{"times": [...], "values": [...]}``, read by
    :func:`strict_json`.  Values must be arrays (vectors) or strings (labels).
    """
    obj = strict_json(text, TraceParseError)
    if not isinstance(obj, dict) or "times" not in obj or "values" not in obj:
        raise TraceParseError('expected an object with "times" and "values"')
    times, values = obj["times"], obj["values"]
    if not isinstance(times, list) or not isinstance(values, list):
        raise TraceParseError('"times" and "values" must be arrays')
    for t in times:
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise TraceParseError(f"bad time entry {t!r}")
    try:
        return make_step(times, values)
    except ValueSpaceMismatch:
        raise
    except ValueError as exc:
        raise TraceParseError(str(exc)) from exc


def strict_json(text: str, error: type[Exception]):
    """Decode JSON text, raising ``error`` on malformed JSON, on NaN and
    Infinity tokens, and on float literals beyond the float range, such as
    1e400.  An integer literal beyond the float range still decodes."""

    def reject(token):
        raise error(f"non-finite token {token!r} in input")

    def finite(token):
        value = float(token)
        return value if math.isfinite(value) else reject(token)

    try:
        return json.loads(text, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc
