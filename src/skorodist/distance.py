"""Exact Skorohod distance between step functions.

The distance between x and y under a value pseudometric d is the infimum over
strictly increasing continuous bijections lam of [0, 1] of

    max( sup_t |lam(t) - t| ,  sup_t d(x(lam(t)), y(t)) ).

For step functions this is computed exactly.  Composing x with lam only moves
x's interior jump times: writing a_1 < ... < a_m for x's jumps and
u_i = lam^{-1}(a_i), the composed function has jump times u and the same piece
values, and the piecewise-linear lam through the knots (u_i, a_i) attains time
deviation max_i |u_i - a_i|.  A candidate alignment is therefore an ordered
placement of the u_i against y's fixed jump times b_1 < ... < b_p.

The infimum need not be attained, so ``feasible`` decides the *closed*
relaxation of "distance <= eps": placements may tie (u_i = u_{i+1}) and touch
the endpoints, and a piece collapsed to a single point still has to match the
y-piece it would dwell against in nearby strict time changes -- at a y-jump it
may match either neighbouring piece, subject to the ordering of the collapsed
run.  Closed feasibility at eps coincides with strict feasibility at every
eps' > eps, so the decided predicate is exactly "infimum <= eps".

Feasibility is monotone in eps and can change truth value only where a value
constraint or a window/order/endpoint constraint activates; all such
thresholds lie in the finite candidate set of ``candidate_thresholds``, so the
distance is its smallest feasible element.  ``skorohod_distance`` finds that
element without building the whole set: the value checks at t = 0 and t = 1
bound it from below, a galloping search from there brackets it, and only the
candidates inside the bracket that can bind are binary-searched (so where two
thresholds lie within the feasibility tolerance of each other, the returned
one can be the larger, by less than 2 * FEAS_TOL).  Each probe runs the
feasibility DP on the band of piece pairs that can meet within eps, so its
cost follows the band around the answer rather than all m * p pairs.  Plain
bisection is kept (``bisect_distance``) as a cross-check, and
``oracle_distance`` recomputes everything by brute force over weak orderings,
independent of the dynamic program.

Certificates witness the value only up to ``CERT_TOL`` (the infimum may be
unattained); they are concrete time changes whose recomputed time and value
suprema are reported alongside the distance.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cadlag import StepFunction, compose_time_change, require_same_space

FEAS_TOL = 1e-12
CERT_TOL = 1e-9


class CertificateError(ValueError):
    """Malformed time-change certificate (bad endpoints or non-monotone knots)."""


class OracleTooLarge(ValueError):
    """Instance exceeds the brute-force oracle's size bound."""


def _interp(xs, ys, x):
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"{x} outside [{xs[0]}, {xs[-1]}]")
    k = bisect_right(xs, x) - 1
    if k == len(xs) - 1:
        return ys[-1]
    if xs[k] == x:
        return ys[k]
    t0, t1 = xs[k], xs[k + 1]
    return ys[k] + (ys[k + 1] - ys[k]) * ((x - t0) / (t1 - t0))


@dataclass(frozen=True)
class TimeChange:
    """Piecewise-linear strictly increasing bijection of [0, 1].

    Stored as knots (t, lam(t)) running from (0, 0) to (1, 1), strictly
    increasing in both coordinates.  Since lam(t) - t is linear between
    knots, the warp deviation sup |lam(t) - t| is attained at a knot.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            ks = tuple((float(t), float(lt)) for t, lt in self.knots)
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"bad knots: {exc}") from exc
        object.__setattr__(self, "knots", ks)
        if len(ks) < 2 or ks[0] != (0.0, 0.0) or ks[-1] != (1.0, 1.0):
            raise CertificateError("knots must run from (0,0) to (1,1)")
        for (t0, l0), (t1, l1) in zip(ks, ks[1:]):
            if not (t1 > t0 and l1 > l0):
                raise CertificateError(
                    "knots must be strictly increasing in both coordinates"
                )
        object.__setattr__(self, "_ts", tuple(t for t, _ in ks))
        object.__setattr__(self, "_ls", tuple(lt for _, lt in ks))

    @classmethod
    def identity(cls) -> "TimeChange":
        return cls(((0.0, 0.0), (1.0, 1.0)))

    def __call__(self, t: float) -> float:
        return _interp(self._ts, self._ls, t)

    def inverse_at(self, s: float) -> float:
        return _interp(self._ls, self._ts, s)

    def inverse(self) -> "TimeChange":
        return TimeChange(tuple((lt, t) for t, lt in self.knots))

    def compose(self, other: "TimeChange") -> "TimeChange":
        """self after other: t -> self(other(t))."""
        grid = {t for t, _ in other.knots}
        grid.update(other.inverse_at(t) for t, _ in self.knots)
        return TimeChange(tuple((t, self(other(t))) for t in sorted(grid)))

    def warp_deviation(self) -> float:
        """sup_t |lam(t) - t|, attained at a knot."""
        return max(abs(lt - t) for t, lt in self.knots)

    def to_json_obj(self) -> dict:
        return {"knots": [[t, lt] for t, lt in self.knots]}

    @classmethod
    def from_json_obj(cls, obj) -> "TimeChange":
        if not isinstance(obj, dict) or "knots" not in obj:
            raise CertificateError('expected an object with "knots"')
        knots = obj["knots"]
        if not isinstance(knots, list):
            raise CertificateError('"knots" must be an array of [t, lam_t] pairs')
        try:
            pairs = tuple((float(t), float(lt)) for t, lt in knots)
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"bad knot entry: {exc}") from exc
        return cls(pairs)


def warp_deviation(lam: TimeChange) -> float:
    return lam.warp_deviation()


@dataclass(frozen=True)
class DistanceResult:
    """Distance value with a witnessing time change.

    ``time_sup`` and ``value_sup`` are recomputed from the certificate; the
    certificate witnesses the infimum only up to ``CERT_TOL``, so
    ``max(time_sup, value_sup) <= value + CERT_TOL``.
    """

    value: float
    certificate: TimeChange
    time_sup: float
    value_sup: float

    def to_json_obj(self) -> dict:
        return {
            "distance": self.value,
            "time_sup": self.time_sup,
            "value_sup": self.value_sup,
            "certificate": self.certificate.to_json_obj(),
        }


def uniform_distance(x: StepFunction, y: StepFunction, d) -> float:
    """sup_t d(x(t), y(t)), i.e. the identity-time-change bound.

    Exact over the merged jump partition; always an upper bound for the
    Skorohod distance.
    """
    require_same_space(x.values[0], y.values[0])
    cuts = sorted(set(x.times) | set(y.times) | {1.0})
    return max(d(x(t), y(t)) for t in cuts)


# ---------------------------------------------------------------------------
# Feasibility dynamic program
# ---------------------------------------------------------------------------
#
# States (i, j) mean "x-piece i currently dwells against y-piece j"; the DP
# stores the earliest time at which the state can be entered.  Transitions:
# place the next warped x-jump inside its window (advance i), advance y past
# its next jump at that fixed time (advance j), or both simultaneously when
# the window admits the y-jump time (the diagonal, which is what lets a jump
# of x land exactly on a jump of y without matching the corner pieces).
# Every state entered carries the value constraint of its piece pair --
# including zero-width dwells, which is exactly the closed-relaxation rule.
#
# Only a band of states can lie on a path to (m, p).  Write x-piece i as
# [s_i, s_{i+1}) and y-piece j as [r_j, r_{j+1}), with s_0 = r_0 = 0 and
# s_{m+1} = r_{p+1} = 1.  The entry time of (i, j) is at least r_j and at least
# s_i - eps - tol.  Leaving column j < p needs an entry time of at most
# r_{j+1} + tol, and leaving row i < m needs x-jump s_{i+1} placed by
# s_{i+1} + eps + tol.  So a state with r_{j+1} < s_i - eps - 2 tol or
# r_j > s_{i+1} + eps + 2 tol never reaches (m, p), and every state it can
# enter is of the same kind.  Leaving such states out changes no other entry
# time and no step of the path back from (m, p).  Row i therefore spans the
# y-pieces found by bisecting r at s_i - eps - 2 tol and s_{i+1} + eps + 2 tol,
# about (m + p)(1 + eps * jump density) states in all.


class _BandedDP:
    """Feasibility probes at any eps for one (x, y, d).

    Each probe fills the banded earliest-entry-time table at its eps.  The
    piece distances are evaluated lazily, once per solve, for the states that
    some probe's band reaches.
    """

    __slots__ = ("xv", "yv", "d", "a", "b", "edges", "tol", "dist", "dist_lo")

    def __init__(self, x: StepFunction, y: StepFunction, d, tol: float = FEAS_TOL):
        self.xv, self.yv, self.d = x.values, y.values, d
        self.a, self.b = x.interior_jumps(), y.interior_jumps()
        self.edges = (0.0, *self.a, 1.0)  # x-piece i is [edges[i], edges[i + 1])
        self.tol = tol
        # dist[i][k] = d(x-piece i, y-piece dist_lo[i] + k)
        self.dist = [[] for _ in self.xv]
        self.dist_lo = [0] * len(self.xv)

    def distances(self, i, lo, hi):
        """[d(x-piece i, y-piece j) for j = lo..hi]."""
        row, start = self.dist[i], self.dist_lo[i]
        if not row:
            start = self.dist_lo[i] = lo
        end = start + len(row)
        if lo < start or hi >= end:
            d, xi, yv = self.d, self.xv[i], self.yv
            if lo < start:
                row[:0] = [d(xi, yv[j]) for j in range(lo, start)]
                start = self.dist_lo[i] = lo
            if hi >= end:
                row.extend([d(xi, yv[j]) for j in range(end, hi + 1)])
        return row[lo - start : hi - start + 1]

    def band(self, eps, start=0):
        """(i, lo, hi) for rows i = start..m: row i spans y-pieces lo..hi at
        eps."""
        b, edges, margin = self.b, self.edges, eps + 2.0 * self.tol
        lo = hi = 0
        for i in range(start, len(edges) - 1):
            lo = bisect_left(b, edges[i] - margin, lo)
            hi = bisect_right(b, edges[i + 1] + margin, hi)
            yield i, lo, hi

    def largest_distance(self):
        """The largest piece distance; feasible together with eps >= 1."""
        p = len(self.b)
        return max(max(self.distances(i, 0, p)) for i in range(len(self.xv)))

    def probe(self, eps):
        """Rows (lo, times, moves) of the table at eps, or None if (m, p)
        cannot be entered.  Slot k of a row is state (i, lo - 1 + k); slot 0
        stands for the state left of the band and is always None."""
        b, tol, edges, distances = self.b, self.tol, self.edges, self.distances
        limit = eps + tol
        rows = []
        above, above_lo = [None], 0
        for i, lo, hi in self.band(eps):
            # entry times of (i - 1, lo - 1) and of (i - 1, j) for j = lo..hi
            k = lo - above_lo
            tdiag = above[k] if k < len(above) else None
            up = above[k + 1 : hi - above_lo + 2]
            up += [None] * (hi - lo + 1 - len(up))
            aa = edges[i]
            low = aa - eps
            cap = min(aa + eps, 1.0) + tol
            times = [None]
            moves = [None]
            left = None
            # earliest entry time; diagonal preferred on ties so that aligned
            # jumps give clean certificates (x vs x yields the identity)
            for j, dv, tup in zip(range(lo, hi + 1), distances(i, lo, hi), up):
                best = move = None
                if dv <= limit:
                    if j:
                        bb = b[j - 1]
                        pin = bb + tol
                        if tdiag is not None and tdiag <= pin and abs(bb - aa) <= limit:
                            best, move = bb, "xy"
                        if best is None and left is not None and left <= pin:
                            best, move = bb, "y"
                    elif not i:
                        best = 0.0  # the start state (0, 0)
                    if tup is not None and tup <= cap:
                        u = min(max(tup, low, 0.0), 1.0)
                        if best is None or u < best:
                            best, move = u, "x"
                times.append(best)
                moves.append(move)
                left, tdiag = best, tup
            if times.count(None) == len(times):
                return None
            rows.append((lo, times, moves))
            above, above_lo = times, lo
        return rows if rows[-1][1][-1] is not None else None

    def events(self, rows):
        """Path events of a feasible probe in forward order:
        ("x"|"y"|"xy", time, warped x-jump)."""
        a, b = self.a, self.b
        out = []
        i, j = len(a), len(b)
        while i or j:
            lo, times, moves = rows[i]
            k = j - lo + 1
            move = moves[k]
            if move == "x":
                out.append(["x", times[k], a[i - 1]])
                i -= 1
            elif move == "y":
                out.append(["y", b[j - 1], None])
                j -= 1
            else:
                out.append(["xy", b[j - 1], a[i - 1]])
                i -= 1
                j -= 1
        out.reverse()
        # Comparison tolerance lets a placement overshoot the next pinned
        # y-jump by roundoff; snap such times down onto the pin so the event
        # sequence is exactly nondecreasing (pins themselves never move).
        for k in range(len(out) - 2, -1, -1):
            if out[k][1] > out[k + 1][1]:
                out[k][1] = out[k + 1][1]
        return out

    def thresholds(self, lo, top):
        """Sorted elements of ``candidate_thresholds`` in [lo, top] that can
        bind: a piece distance v counts only if its state lies in the band at
        eps = v.  Outside the band the state is never on a path to (m, p), so
        its value check cannot switch feasibility."""
        out = {0.0} if lo <= 0.0 else set()
        band = self.band
        for i, jlo, jhi in band(top):
            for j, v in enumerate(self.distances(i, jlo, jhi), jlo):
                if lo <= v <= top:
                    _, vlo, vhi = next(band(v, i))
                    if vlo <= j <= vhi:
                        out.add(v)
        b, reach = self.b, top + self.tol
        for ai in self.a:
            for v in (ai, 1.0 - ai):
                if lo <= v <= top:
                    out.add(v)
            for bj in b[bisect_left(b, ai - reach) : bisect_right(b, ai + reach)]:
                v = abs(ai - bj)
                if lo <= v <= top:
                    out.add(v)
        return sorted(out)

    def least_feasible(self):
        """Smallest feasible candidate threshold and the rows of its probe.

        Every eps below L - 2 tol, L = max(d(x(0), y(0)), d(x(1), y(1))),
        fails the value check of state (0, 0) or (m, p).  Probe L, gallop
        upward by doubling steps until a probe succeeds at some hi, then
        binary-search the candidates in [last failure, hi + 2 tol]: the
        predicate switches within 2 tol below a candidate, so the least
        feasible candidate that can bind lies in that range.  From eps = 1 on
        every window is open and only piece distances can bind, so the gallop
        jumps from there to the largest piece distance, which is feasible.

        A piece distance whose state lies outside the band is skipped even
        when it sits within FEAS_TOL below the binding threshold and would
        pass the tolerant probe, so the result can exceed the smallest
        feasible element of ``candidate_thresholds`` by less than 2 tol.
        """
        m, p, tol = len(self.a), len(self.b), self.tol
        lower = max(self.distances(0, 0, 0)[0], self.distances(m, p, p)[0])
        lo, hi, step = lower - 2.0 * tol, lower, 1.0 / (m + p + 2)
        at_hi = self.probe(hi)
        while at_hi is None:
            lo = hi
            if hi < 1.0:
                hi, step = hi + step, 2.0 * step
            else:
                hi = self.largest_distance()
            if not lo < hi < math.inf:
                raise ValueError(f"value metric gave a non-finite distance ({hi})")
            at_hi = self.probe(hi)

        def probe(eps):
            return at_hi if eps == hi else self.probe(eps)

        cands = self.thresholds(lo, hi + 2.0 * tol)
        k, top, rows = 0, len(cands) - 1, None
        while k < top:
            mid = (k + top) // 2
            probed = probe(cands[mid])
            if probed is None:
                k = mid + 1
            else:
                top, rows = mid, probed
        if rows is None:
            rows = probe(cands[top])
            if rows is None:
                raise RuntimeError("internal: largest bracketed threshold infeasible")
        return cands[top], rows


def _strictify(events, cert_tol=CERT_TOL, merge_tol=1e-11):
    """Make event times strictly increasing inside (0, 1).

    Times within ``merge_tol`` of each other (comparison-tolerance drift of
    window bounds around a pinned y-jump) are first merged onto a canonical
    time -- the pin's when present.  Runs of equal times are then spread by
    less than half the smallest gap (and less than cert_tol): movable
    placements left of a pinned y-jump shift left, the ones after it shift
    right, ties at the endpoints move inward.  This realises the dwell
    structure of the closed solution with a strict time change, so the value
    supremum is unchanged.
    """
    if not events:
        return
    idx = 0
    while idx < len(events):
        end = idx
        while end + 1 < len(events) and events[end + 1][1] - events[end][1] <= merge_tol:
            end += 1
        if end > idx:
            pins = [k for k in range(idx, end + 1) if events[k][0] != "x"]
            if len(pins) > 1:
                raise RuntimeError(
                    "internal: two y-jumps closer than the merge tolerance"
                )
            canon = events[pins[0]][1] if pins else events[idx][1]
            for k in range(idx, end + 1):
                events[k][1] = canon
        idx = end + 1
    marks = sorted({0.0, 1.0, *(e[1] for e in events)})
    min_gap = min(t1 - t0 for t0, t1 in zip(marks, marks[1:]))
    base = min(cert_tol, min_gap) / 2.0
    idx = 0
    while idx < len(events):
        end = idx
        while end + 1 < len(events) and events[end + 1][1] == events[idx][1]:
            end += 1
        size = end - idx + 1
        tstar = events[idx][1]
        h = base / (size + 1)
        pinned = [k for k in range(idx, end + 1) if events[k][0] != "x"]
        if tstar == 0.0:
            for off, k in enumerate(range(idx, end + 1), start=1):
                events[k][1] = off * h
        elif tstar == 1.0:
            for off, k in enumerate(range(idx, end + 1), start=1):
                events[k][1] = 1.0 - (size - off + 1) * h
        elif pinned:
            q = pinned[0]
            for k in range(idx, q):
                events[k][1] = tstar - (q - k) * h
            for k in range(q + 1, end + 1):
                events[k][1] = tstar + (k - q) * h
        elif size > 1:
            center = (size - 1) / 2.0
            for rel, k in enumerate(range(idx, end + 1)):
                events[k][1] = tstar + (rel - center) * h
        idx = end + 1
    prev = 0.0
    for _, t, _ in events:
        if not prev < t < 1.0:
            raise RuntimeError("internal: event times not strictly inside (0, 1)")
        prev = t


def _certificate_from_events(events) -> TimeChange:
    knots = [(0.0, 0.0)]
    for kind, t, ajump in events:
        if kind != "y":
            knots.append((t, ajump))
    knots.append((1.0, 1.0))
    return TimeChange(tuple(knots))


def _dmat(x: StepFunction, y: StepFunction, d):
    return [[d(xv, yv) for yv in y.values] for xv in x.values]


def feasible(x: StepFunction, y: StepFunction, eps: float, d, tol: float = FEAS_TOL):
    """Decide "Skorohod distance <= eps" (closed relaxation), with witness.

    Returns ``(True, lam)`` where ``lam`` is a strict time change realising
    time deviation <= eps + CERT_TOL and value supremum <= eps + tol, or
    ``(False, None)``.  Feasibility is monotone in eps, and closed feasibility
    at eps equals strict feasibility at every eps' > eps, so the predicate is
    exactly "infimum <= eps".
    """
    require_same_space(x.values[0], y.values[0])
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    dp = _BandedDP(x, y, d, tol)
    rows = dp.probe(eps)
    if rows is None:
        return False, None
    events = dp.events(rows)
    _strictify(events)
    return True, _certificate_from_events(events)


def candidate_thresholds(x: StepFunction, y: StepFunction, d) -> list[float]:
    """Finite set containing every eps at which feasibility can change.

    Value constraints activate at the pairwise piece distances; window, order
    and endpoint constraints activate at |a_i - b_j|, a_i and 1 - a_i.  In
    between these points the feasibility predicate is constant, so the
    distance is the smallest feasible element of this set.  This is the full
    O(mp) reference set; ``skorohod_distance`` searches only the part of it
    inside a bracket around the answer.
    """
    a, b = x.interior_jumps(), y.interior_jumps()
    out = {0.0}
    for xv in x.values:
        for yv in y.values:
            out.add(d(xv, yv))
    for ai in a:
        out.add(ai)
        out.add(1.0 - ai)
        for bj in b:
            out.add(abs(ai - bj))
    return sorted(out)


def skorohod_distance(x: StepFunction, y: StepFunction, d) -> DistanceResult:
    """Exact Skorohod distance with a witnessing time change.

    The value is the smallest feasible candidate threshold.  The search
    brackets it from L = max(d(x(0), y(0)), d(x(1), y(1))) upward and
    binary-searches only the candidates inside the bracket, each probe
    filling the banded feasibility DP.  The certificate's recomputed time and
    value suprema satisfy ``max(time_sup, value_sup) <= value + CERT_TOL``.
    """
    require_same_space(x.values[0], y.values[0])
    dp = _BandedDP(x, y, d)
    value, rows = dp.least_feasible()
    events = dp.events(rows)
    _strictify(events)
    cert = _certificate_from_events(events)
    time_sup = cert.warp_deviation()
    value_sup = uniform_distance(compose_time_change(x, cert), y, d)
    if max(time_sup, value_sup) > value + CERT_TOL:
        raise RuntimeError("internal: certificate fails its own bound")
    return DistanceResult(value, cert, time_sup, value_sup)


def bisect_distance(x: StepFunction, y: StepFunction, d, tol: float = 1e-12) -> float:
    """Distance by plain bisection on feasibility; cross-check for the
    candidate-set computation."""
    dp = _BandedDP(x, y, d)

    def feas(eps):
        return dp.probe(eps) is not None

    lo = 0.0
    if feas(lo):
        return 0.0
    # every window is open from eps = 1, so only a non-finite (inf or NaN)
    # piece distance keeps hi from being a finite feasible bracket top
    hi = max(1.0, dp.largest_distance())
    if not (hi < math.inf and feas(hi)):
        raise ValueError("value metric gave a non-finite distance")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feas(mid):
            hi = mid
        else:
            lo = mid
    return hi


def check_certificate(
    x: StepFunction,
    y: StepFunction,
    d,
    claimed: float,
    cert: TimeChange,
    tol: float = CERT_TOL,
):
    """Recompute the certified bound max(warp deviation, value supremum).

    Returns ``(ok, bound)`` with ``ok`` true iff ``bound <= claimed + tol``.
    The value supremum is recomputed from scratch via composition with the
    certificate, so this audits the certificate without trusting the distance
    computation.
    """
    bound = max(
        cert.warp_deviation(), uniform_distance(compose_time_change(x, cert), y, d)
    )
    return bound <= claimed + tol, bound


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
#
# Enumerates every weak ordering of the warped x-jumps u_1 <= ... <= u_m
# against y's jump times: each u is assigned a zone (pinned at 0, inside an
# open span between consecutive y-jumps, pinned at a y-jump, or pinned at 1),
# assignments are nondecreasing, and a run of pieces collapsed onto a y-jump
# additionally chooses where it splits between the left and right neighbouring
# y-pieces.  Per ordering the minimal feasible eps is found by bisection over
# the ordering's window/order constraints plus its per-cell value constraints.
# None of this shares code with the dynamic program above.

_PIN, _OPEN = 0, 1


class OracleInstance:
    """Reusable brute-force reference for one (x, y, d) instance."""

    def __init__(self, x: StepFunction, y: StepFunction, d, tol: float = FEAS_TOL):
        require_same_space(x.values[0], y.values[0])
        a, b = x.interior_jumps(), y.interior_jumps()
        if len(a) + len(b) > 10:
            raise OracleTooLarge(
                f"{len(a)} + {len(b)} interior jumps exceeds the oracle bound of 10"
            )
        self.a, self.b = a, b
        self.tol = tol
        self.dmat = _dmat(x, y, d)
        self.zones = self._build_zones(b)
        self.assignments = self._build_assignments()
        self.assignments.sort(key=lambda asg: asg[0])

    @staticmethod
    def _build_zones(b):
        # (kind, lo, hi, left piece, right piece); open zones dwell in piece
        # "right", pins at an interior b_j separate pieces j-1 and j.
        p = len(b)
        zones = [(_PIN, 0.0, 0.0, None, 0)]
        for j in range(p + 1):
            lo = b[j - 1] if j else 0.0
            hi = b[j] if j < p else 1.0
            zones.append((_OPEN, lo, hi, j, j))
            if j < p:
                zones.append((_PIN, b[j], b[j], j, j + 1))
        zones.append((_PIN, 1.0, 1.0, p, None))
        return zones

    def _piece_costs(self, combo):
        """Value requirement of one zone assignment: the fixed part plus the
        best split choice for every run of pieces collapsed onto a y-jump."""
        a, dmat, zones = self.a, self.dmat, self.zones
        m = len(a)
        p = len(self.b)
        ev_zone = [0, *combo, len(zones) - 1]
        vfixed = 0.0
        runs = []  # [zone id, left y-piece, right y-piece, [piece indices]]
        for piece in range(m + 1):
            zl, zr = ev_zone[piece], ev_zone[piece + 1]
            if zl == zr:
                kind, _lo, _hi, left, right = zones[zl]
                if kind == _OPEN:
                    vfixed = max(vfixed, dmat[piece][right])
                elif right is None:  # collapsed at 1: only the last y-piece
                    vfixed = max(vfixed, dmat[piece][p])
                elif left is None:  # collapsed at 0: only the first y-piece
                    vfixed = max(vfixed, dmat[piece][0])
                else:  # collapsed onto an interior y-jump: side chosen per run
                    if runs and runs[-1][0] == zl and runs[-1][3][-1] == piece - 1:
                        runs[-1][3].append(piece)
                    else:
                        runs.append([zl, left, right, [piece]])
            else:
                # positive extent: meets every y-piece from just right of its
                # left boundary to just left of its right boundary
                start = zones[zl][4]
                end = zones[zr][3]
                for jj in range(start, end + 1):
                    vfixed = max(vfixed, dmat[piece][jj])
        vruns = 0.0
        for _z, left, right, pieces in runs:
            lcost = [dmat[i][left] for i in pieces]
            rcost = [dmat[i][right] for i in pieces]
            best = min(
                max(max(lcost[:s], default=0.0), max(rcost[s:], default=0.0))
                for s in range(len(pieces) + 1)
            )
            vruns = max(vruns, best)
        return max(vfixed, vruns)

    def _build_assignments(self):
        a, zones = self.a, self.zones
        m = len(a)
        out = []
        for combo in combinations_with_replacement(range(len(zones)), m):
            pin_need = 0.0
            plan = []
            for i, z in enumerate(combo):
                kind, lo, hi, _, _ = zones[z]
                if kind == _PIN:
                    pin_need = max(pin_need, abs(a[i] - lo))
                plan.append((kind, lo, hi, a[i]))
            vmin = self._piece_costs(combo)
            lower = max(vmin, pin_need)
            out.append((lower, tuple(plan)))
        return out

    def _windows_sat(self, plan, eps):
        tol = self.tol
        prev = 0.0
        for kind, lo, hi, aa in plan:
            if kind == _PIN:
                if abs(aa - lo) > eps + tol or lo < prev - tol:
                    return False
                if lo > prev:
                    prev = lo
            else:
                u = max(prev, aa - eps, lo)
                if u > min(aa + eps, hi) + tol:
                    return False
                prev = u
        return True

    def feasible_at(self, eps: float) -> bool:
        tol = self.tol
        for lower, plan in self.assignments:
            if lower > eps + tol:
                return False  # assignments are sorted by their lower bound
            if self._windows_sat(plan, eps):
                return True
        return False

    def _min_eps(self, lower, plan):
        if self._windows_sat(plan, lower):
            return lower
        lo, hi = lower, max(lower, 1.0) + 1.0
        if not self._windows_sat(plan, hi):
            return float("inf")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self._windows_sat(plan, mid):
                hi = mid
            else:
                lo = mid
        return hi

    def distance(self) -> float:
        best = float("inf")
        for lower, plan in self.assignments:
            if lower >= best:
                break  # sorted by lower bound: nothing better remains
            best = min(best, self._min_eps(lower, plan))
        return best


def oracle_distance(x: StepFunction, y: StepFunction, d) -> float:
    """Brute-force Skorohod distance; requires at most 10 interior jumps in
    total.  Independent of the dynamic-programming code path."""
    return OracleInstance(x, y, d).distance()


def oracle_feasible(x: StepFunction, y: StepFunction, eps: float, d) -> bool:
    """Brute-force counterpart of :func:`feasible` (no witness)."""
    return OracleInstance(x, y, d).feasible_at(eps)


def result_from_json(text: str):
    """Parse a distance result document: {"distance": v, "certificate": {...}}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "certificate" not in obj or "distance" not in obj:
        raise CertificateError('expected {"distance": ..., "certificate": ...}')
    claimed = obj["distance"]
    if isinstance(claimed, bool) or not isinstance(claimed, (int, float)):
        raise CertificateError(f"bad distance value {claimed!r}")
    return float(claimed), TimeChange.from_json_obj(obj["certificate"])
