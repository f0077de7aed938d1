"""Pseudometric families on a value space.

A family is a finite list of generator pseudometrics, max-closed by
construction: every nonempty subset of generator positions is an index, and
the index metric is the pointwise maximum of the chosen generators.  With
subset indices the domination axiom holds definitionally (the index ``i | j``
dominates ``max(d_i, d_j)`` with equality), and a subset ball is a finite
intersection of generator balls, so the enlarged family generates the same
topology as the generators alone.

Point separation is a property of the generators and the value space and is
checked on demand (:meth:`PseudometricFamily.separates_points`), not assumed.
For the full coordinate family on a d-dimensional vector space it holds
analytically: distinct vectors differ in some coordinate k, and the k-th
coordinate metric is positive on that pair.

Only max-closed families are ever exposed, so the distinction between the
generator balls forming a base versus merely a subbase of the topology never
arises at runtime.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, repeat

from .cadlag import Value, ValueSpaceMismatch
from .maps import _check_index, _config_number, map_from_config

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


class Pseudometric:
    """Base class; concrete kinds are frozen dataclasses implementing __call__.

    A distance solve evaluates the metric through ``_piece_values``, and
    ``_coords`` is its only hook into a kind.
    """

    def __call__(self, a: Value, b: Value) -> float:
        raise NotImplementedError

    def _coords(self, dim):
        """The 0-based k with self(a, b) = max_k |a[k] - b[k]| on vectors of
        dimension dim, or None."""
        return None


def _piece_values(d, xs, ys, dim):
    """``(dist, value, matches)``, the one evaluator of d in a distance solve.

    ``xs`` and ``ys`` are the values of two ``make_step`` functions of one
    space of dimension ``dim``, None for labels.  ``dist(i, lo, hi)`` is
    ``[d(xs[i], y) for y in ys[lo:hi + 1]]`` bit for bit, raising what the
    first bad pair raises, ``value(i, j)`` is ``d(xs[i], ys[j])``, and
    ``matches(i, lo, hi, eps)`` is the bitset of the j = lo..hi with
    ``d(xs[i], ys[j]) <= eps``.  A row is batched where ``_rows`` can batch
    it, and goes pair by pair otherwise.  It grows at either end as windows
    reach past it, so each pair is evaluated once; the windows of a row must
    share a y-piece, as a solve's bands of row i share its band at eps = 0.
    An interval metric (``_coords``) gets its bitsets from ``_ball_masks``,
    and its ``value`` folds abs(a[k] - b[k]) over its k, reading no row.  Any
    other d compares its rows with eps, and its ``value`` reads the row,
    which the ``matches`` of a window around j has filled.
    """
    ks = d._coords(dim) if isinstance(d, Pseudometric) else None
    fresh = _rows(d, dim, ks)
    if fresh is None:

        def fresh(a, part):
            return [d(a, b) for b in part]

    # rows[i][k] = d(xs[i], ys[starts[i] + k])
    rows, starts = [[] for _ in xs], [0] * len(xs)

    def dist(i, lo, hi):
        row, start = rows[i], starts[i]
        if not row:
            start = starts[i] = lo
        end = start + len(row)
        if lo < start:
            row[:0] = fresh(xs[i], ys[lo:start])
            start = starts[i] = lo
        if hi >= end:
            row.extend(fresh(xs[i], ys[end : hi + 1]))
        return row[lo - start : hi - start + 1]

    if ks is not None:
        mask = _ball_masks(xs, ys, ks)

        def value(i, j):
            a, b = xs[i], ys[j]
            return max([abs(a[k] - b[k]) for k in ks])

        def matches(i, lo, hi, eps):
            return mask(i, eps) & (2 << hi) - (1 << lo)

    else:

        def value(i, j):
            return dist(i, j, j)[0]

        def matches(i, lo, hi, eps):
            dists = dist(i, lo, hi)[::-1]
            try:
                flags = bytes(map(operator.le, dists, repeat(eps)))
            except TypeError:  # a comparison that gives no bool, e.g. numpy's
                flags = bytes(map(bool, map(operator.le, dists, repeat(eps))))
            return int(flags.translate(_BINARY_DIGITS), 2) << lo

    return dist, value, matches


def _rows(d, dim, ks):
    """``fresh`` with ``fresh(a, part) == [d(a, b) for b in part]`` bit for
    bit on values of dimension ``dim``, or None where d needs the pairwise
    calls; ``ks`` is ``d._coords(dim)``.  An interval metric folds
    abs(a[k] - b[k]) over its k, ``Euclidean`` makes ``math.dist`` batches,
    and a ``MaxOf`` whose parts all batch folds their rows.  None of these
    can fail on such values, and ``max(max(u, v), w)`` picks what
    ``max(u, v, w)`` picks, so each fold is the pairwise maximum bit for
    bit."""
    if ks is not None:

        def fresh(a, part):
            out = None
            for k in ks:
                ak = a[k]
                col = [abs(ak - b[k]) for b in part]
                out = col if out is None else list(map(max, out, col))
            return out

    elif isinstance(d, Euclidean) and dim is not None:

        def fresh(a, part):
            return list(map(math.dist, repeat(a), part))

    elif isinstance(d, MaxOf):
        parts = []
        for p in d.parts:
            row = _rows(p, dim, p._coords(dim)) if isinstance(p, Pseudometric) else None
            if row is None:
                return None
            parts.append(row)

        def fresh(a, part):
            out = parts[0](a, part)
            for row in parts[1:]:
                out = list(map(max, out, row(a, part)))
            return out

    else:
        return None
    return fresh


def _ball_masks(xs, ys, ks):
    """``mask`` with ``mask(i, eps)`` the int bitset of the j with
    ``max(abs(xs[i][k] - ys[j][k]) for k in ks) <= eps``, for vectors of
    finite floats.

    Rounding is monotone, so fl(|a_k - v|) is monotone in v on each side of
    a_k, and the j with |a_k - ys[j][k]| <= eps are one run of ys sorted by
    coordinate k.  Bisects at a_k - eps and a_k + eps find the run up to
    their own rounding, and the exact predicate settles each end, a run of
    equal values at a time.  With P[r] the bits of the first r sorted
    positions, the run's mask is P[hi] ^ P[lo], and the maximum's is the AND
    over ks.
    """
    n, columns = len(ys), []
    for k in set(ks):
        vs = [b[k] for b in ys]
        prefix = [acc := 0]
        for j in sorted(range(n), key=vs.__getitem__):
            prefix.append(acc := acc | 1 << j)
        columns.append((k, sorted(vs), prefix))

    def mask(i, eps):
        if not eps >= 0.0:
            return 0
        out = -1
        for k, vals, prefix in columns:
            a = xs[i][k]
            # lo and hi bracket the position of a in vals, so each end is on
            # its own monotone side: below lo, abs(a - v) is a - v, and from
            # hi on it is v - a
            lo = bisect_left(vals, a - eps)
            hi = bisect_right(vals, a + eps)
            while lo and a - vals[lo - 1] <= eps:
                lo = bisect_left(vals, vals[lo - 1], 0, lo - 1)
            while lo < hi and abs(a - vals[lo]) > eps:
                lo = bisect_right(vals, vals[lo], lo, hi)
            while hi < n and vals[hi] - a <= eps:
                hi = bisect_right(vals, vals[hi], hi + 1)
            while hi > lo and abs(a - vals[hi - 1]) > eps:
                hi = bisect_left(vals, vals[hi - 1], lo, hi - 1)
            out &= prefix[hi] ^ prefix[lo]
        return out

    return mask


def _vector_pair(a: Value, b: Value):
    if isinstance(a, str) or isinstance(b, str):
        raise ValueSpaceMismatch("vector pseudometric applied to a label value")
    if len(a) != len(b):
        raise ValueSpaceMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return a, b


@dataclass(frozen=True)
class Coordinate(Pseudometric):
    """|a_k - b_k| for a fixed 1-based coordinate k."""

    k: int

    def __post_init__(self):
        _check_index(self.k, "coordinate index")

    def __call__(self, a, b):
        a, b = _vector_pair(a, b)
        if self.k > len(a):
            raise ValueSpaceMismatch(
                f"coordinate {self.k} on a {len(a)}-dimensional value"
            )
        return abs(a[self.k - 1] - b[self.k - 1])

    def _coords(self, dim):
        return None if dim is None or self.k > dim else [self.k - 1]


@dataclass(frozen=True)
class Euclidean(Pseudometric):
    def __call__(self, a, b):
        a, b = _vector_pair(a, b)
        return math.dist(a, b)

    def _coords(self, dim):
        return [0] if dim == 1 else None  # math.dist of 1-vectors is abs(a - b)


@dataclass(frozen=True)
class Discrete(Pseudometric):
    """0/1 metric; works on vectors and labels alike."""

    def __call__(self, a, b):
        if isinstance(a, str) != isinstance(b, str):
            raise ValueSpaceMismatch("label value compared with a vector value")
        if not isinstance(a, str):
            _vector_pair(a, b)
        return 0.0 if a == b else 1.0


@dataclass(frozen=True)
class Scaled(Pseudometric):
    """factor * inner.  A pseudometric only for 0 <= factor < inf.  Other
    factors are accepted here so that axiom checking has something to catch,
    but ``metric_from_config`` rejects them: a config is outside input."""

    factor: float
    inner: Pseudometric

    def __call__(self, a, b):
        return self.factor * self.inner(a, b)


@dataclass(frozen=True)
class PulledBack(Pseudometric):
    """zeta(psi(a), psi(b)) for a value map psi; a pseudometric whenever zeta is."""

    value_map: object
    inner: Pseudometric

    def __call__(self, a, b):
        return self.inner(self.value_map(a), self.value_map(b))


@dataclass(frozen=True)
class MaxOf(Pseudometric):
    parts: tuple[Pseudometric, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty maximum")

    def __call__(self, a, b):
        return max(p(a, b) for p in self.parts)

    def _coords(self, dim):
        out = []
        for p in self.parts:
            # a plain callable part has no coords
            ks = p._coords(dim) if isinstance(p, Pseudometric) else None
            if ks is None:
                return None
            out += ks
        return out


def metric_from_config(obj: dict) -> Pseudometric:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad pseudometric config: {obj!r}")
    kind = obj["kind"]
    if kind == "coordinate":
        return Coordinate(obj["k"])
    if kind == "euclidean":
        return Euclidean()
    if kind == "discrete":
        return Discrete()
    if kind == "scaled":
        factor = _config_number(obj["factor"], "scaled factor") + 0.0  # -0.0 to 0.0
        if not 0.0 <= factor < math.inf:
            raise ValueError(f"scaled factor must be finite and >= 0, got {factor}")
        return Scaled(factor, metric_from_config(obj["inner"]))
    if kind == "pulled_back":
        return PulledBack(map_from_config(obj["map"]), metric_from_config(obj["inner"]))
    if kind == "max_of":
        return MaxOf(tuple(metric_from_config(p) for p in obj["parts"]))
    raise ValueError(f"unknown pseudometric kind {kind!r}")


def check_axioms(d, samples) -> list:
    """Check d(a, a) = 0, nonnegativity, symmetry, and the triangle inequality
    on explicit sample triples.  Returns the violations as ``(kind, points,
    detail)`` tuples, kind one of "identity", "negativity", "symmetry" and
    "triangle"; an empty list means d passed.

    Identity, nonnegativity and symmetry are exact; the triangle inequality
    allows a roundoff guard of 1e-12, far below any distance scale used here.
    """
    violations = []
    for a, b, c in samples:
        for point in (a, b, c):
            v = d(point, point)
            if v != 0.0:
                violations.append(("identity", (point,), v))
        for u, w in ((a, b), (a, c), (b, c)):
            duw = d(u, w)
            dwu = d(w, u)
            if duw < 0.0 or dwu < 0.0:
                violations.append(("negativity", (u, w), min(duw, dwu)))
            if duw != dwu:
                violations.append(("symmetry", (u, w), abs(duw - dwu)))
        excess = d(a, c) - (d(a, b) + d(b, c))
        if excess > 1e-12:
            violations.append(("triangle", (a, b, c), excess))
    return violations


@dataclass(frozen=True)
class PseudometricFamily:
    """Finitely generated, max-closed pseudometric family.

    Indices are nonempty frozensets of 1-based generator positions; the index
    metric is the pointwise maximum over the chosen generators, so index
    monotonicity and the domination axiom hold by construction.
    """

    generators: tuple[Pseudometric, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a family needs at least one generator")

    def positions(self) -> range:
        return range(1, len(self.generators) + 1)

    def indices(self) -> list[frozenset]:
        """All nonempty generator subsets, smallest first, deterministic order."""
        pos = list(self.positions())
        out = []
        for r in range(1, len(pos) + 1):
            out.extend(frozenset(c) for c in combinations(pos, r))
        return out

    def full_index(self) -> frozenset:
        return frozenset(self.positions())

    def metric(self, index) -> Pseudometric:
        idx = frozenset(index)
        if not idx or not idx <= frozenset(self.positions()):
            raise ValueError(f"invalid family index {sorted(idx)}")
        chosen = tuple(self.generators[i - 1] for i in sorted(idx))
        if len(chosen) == 1:
            return chosen[0]
        return MaxOf(chosen)

    def separates_points(self, a: Value, b: Value):
        """An index whose metric is positive on (a, b), or None.

        A ``None`` for ``a != b`` witnesses that the generators fail to
        separate points, i.e. the family does not define a Hausdorff topology.
        """
        for i in self.positions():
            if self.generators[i - 1](a, b) > 0.0:
                return frozenset({i})
        return None


def family_from_config(obj: dict) -> PseudometricFamily:
    """Parse ``{"space": {...}, "generators": [...]}``; "space" is optional
    metadata and is not interpreted.  Raises ``ValueError`` on any malformed
    config, including a missing key or a value of the wrong type."""
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError('family config needs a "generators" array')
    gens = obj["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValueError("family config needs at least one generator")
    try:
        return PseudometricFamily(tuple(metric_from_config(g) for g in gens))
    except KeyError as exc:
        raise ValueError(f"generator config lacks the key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad generator config: {exc}") from exc


def coordinate_family(dim: int) -> PseudometricFamily:
    """Max-closure of the d coordinate pseudometrics on R^d."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return PseudometricFamily(tuple(Coordinate(k) for k in range(1, dim + 1)))


def euclidean_family() -> PseudometricFamily:
    return PseudometricFamily((Euclidean(),))
