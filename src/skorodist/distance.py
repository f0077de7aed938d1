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

The decision is exact: times are dyadic rationals, which the DP holds as
scaled integers.  Over float eps, feasibility is monotone and switches only
at a piece distance or at the least float at or above a time threshold
|a_i - b_j|, a_i or 1 - a_i.  These form the finite set of
``candidate_thresholds``, and the distance is its smallest feasible element:
the least float at or above the infimum.  ``skorohod_distance`` finds that
element without building the whole set: the value checks at t = 0 and t = 1
bound it from below, a galloping search from there brackets it, bisection on
floats narrows the bracket to the width of the gallop's first step, and only
the candidates inside the bracket are binary-searched: the window gaps there,
and the piece distances in it of the band at the bracket's top.  Each probe
decides reachability, one integer bitset per row, on the band of piece pairs
that can meet within eps, so its cost follows the band around the answer.
A row's value check is the bitset of the y-pieces within eps of its x-piece,
and a row's pairs in the bracket [lo, top] are those within top and not
within the float under lo.  The bitsets and the piece distances come from
``pseudometric._piece_values``, the one place that evaluates d in a solve,
and only for the pairs that some probe's band reaches.  Under an interval
metric the bitset needs no piece distance, so a solve evaluates d only on
the two endpoint cells of L and on the pairs in its final bracket.
A caller that needs only the verdict "distance <= eps" gets it from one probe
(``_within``), with no search and no certificate, as the transfer checks do.
Plain bisection down to adjacent floats (``bisect_distance``) is kept as a
cross-check that returns the same float, and ``oracle_distance`` recomputes
everything by brute force over weak orderings, independent of the dynamic
program.

Certificates witness the value only up to ``CERT_TOL`` (the infimum may be
unattained); they are concrete time changes whose recomputed time and value
suprema are reported alongside the distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cadlag import StepFunction, compose_time_change, require_same_space, strict_json
from .pseudometric import _piece_values

CERT_TOL = 1e-9


class CertificateError(ValueError):
    """Malformed time-change certificate (bad endpoints or non-monotone knots)."""


class NonFiniteDistance(ValueError):
    """The value metric gave an infinite or NaN piece distance."""


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
        except (TypeError, ValueError, OverflowError) as exc:
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

    def __call__(self, t: float) -> float:
        return _interp(self._ts, self._ls, t)

    def inverse_at(self, s: float) -> float:
        return _interp(self._ls, self._ts, s)

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
        return cls(knots)


@dataclass(frozen=True)
class DistanceResult:
    """Distance value with a witnessing time change.

    ``value`` is the least float at or above the infimum.  ``time_sup`` and
    ``value_sup`` are recomputed from the certificate; the certificate
    witnesses the infimum only up to ``CERT_TOL``, so
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
# States (i, j) mean "x-piece i currently dwells against y-piece j".  Moves:
# place the next warped x-jump inside its window (advance i), advance y past
# its next jump at that fixed time (advance j), or both at once when the
# window admits the y-jump time (the diagonal, which lets a jump of x land
# exactly on a jump of y without matching the corner pieces).  Every state
# entered carries the value constraint of its piece pair, zero-width dwells
# included: that is the closed-relaxation rule.
#
# Times are scaled by the least power of two S that makes every jump time an
# integer, and eps enters as e = floor(min(eps, 1) * S): for integers t and a,
# t <= a + eps * S iff t <= a + e and t >= a - eps * S iff t >= a - e.  Write
# x-piece i as [s_i, s_{i+1}) and y-piece j as [r_j, r_{j+1}), scaled, with
# s_0 = r_0 = 0.  Lemma: a reachable state is entered at max(r_j, s_i - e),
# as y- and xy-moves enter at r_j and an x-move at the later of s_i - e and,
# by induction, max(r_j, s_{i-1} - e).  So a move into (i, j) holds by (i, j)
# and eps alone: y iff s_i - e <= r_j, x iff r_j <= s_i + e, xy iff
# |r_j - s_i| <= e, each with d(x_i, y_j) <= eps.  A probe therefore decides
# reachability of (m, p) with one integer R_i per row, bit j set iff (i, j) is
# reachable: the bit-vector technique of Allison & Dix (1986), Myers (1999)
# and Hyyro (2004).  With V, X and Y the j where the value, x and y conditions
# hold, S = (R_{i-1} | (R_{i-1} << 1) & Y) & X & V are the states entered from
# row i - 1, and the y-moves carry each along its run of M = V & Y | S:
# R_i = M & ((S + M ^ M) | S).  The path back from (m, p) takes the first
# reachable predecessor in the order xy, y, x, which keeps aligned jumps on
# the diagonal (x against x gives the identity).
#
# A state with r_{j+1} < s_i - eps or r_j > s_{i+1} + eps never reaches
# (m, p): it is entered at r_j or later and at s_i - eps or later, column j is
# left by r_{j+1} and row i by s_{i+1} + eps, and every state it enters is of
# the same kind.  So row i spans only the y-pieces lo..hi found by bisecting r
# at s_i - e and s_{i+1} + e, about (m + p)(1 + eps * jump density) states in
# all, and the same bisects give Y = {j >= lo + 1}, X = {j <= hi of row i - 1}.


def _up_gap(s: float, t: float) -> float:
    """The least float at or above the real |s - t|, for s, t >= 0: the
    rounded difference, raised by one ulp if its Fast2Sum error is positive."""
    hi, lo = (s, t) if s >= t else (t, s)
    gap = hi - lo
    return math.nextafter(gap, math.inf) if (gap - hi) + lo < 0.0 else gap


class _BandedDP:
    """Feasibility probes at any eps for one (x, y, d).

    Each probe computes the reachable states of the band at its eps, one
    bitset per row.  The one ``_piece_values`` of the solve gives a row's
    value check, ``matches``, which also picks the pairs of ``thresholds``,
    their piece distances, ``value``, and the rows of ``largest_distance``
    and of the endpoint cells, ``distances``.  Construction checks that x
    and y share a value space, for every entry point that builds one, and
    hands the evaluator that space without scanning the values:
    ``make_step`` has checked them.
    """

    __slots__ = ("xv", "distances", "value", "matches", "a", "b", "one", "edges", "bs")

    def __init__(self, x: StepFunction, y: StepFunction, d):
        require_same_space(x.values[0], y.values[0])
        self.xv, yv = x.values, y.values
        dim = None if isinstance(yv[0], str) else len(yv[0])
        self.distances, self.value, self.matches = _piece_values(d, self.xv, yv, dim)
        self.a, self.b = x.interior_jumps(), y.interior_jumps()
        ratios = [t.as_integer_ratio() for t in (*self.a, *self.b)]
        one = max([den for _, den in ratios], default=1)
        scaled = [num * (one // den) for num, den in ratios]
        m, self.one = len(self.a), one
        # x-piece i is [edges[i], edges[i + 1]); bs are the scaled y-jumps
        self.edges, self.bs = (0, *scaled[:m], one), scaled[m:]

    def scaled(self, eps):
        """floor(min(eps, 1) * S), the eps of a time comparison."""
        if eps >= 1.0:
            return self.one
        num, den = eps.as_integer_ratio()
        return num * self.one // den

    def band(self, e):
        """(i, lo, hi) for rows i = 0..m: row i spans y-pieces lo..hi at the
        scaled eps ``e``."""
        bs, edges = self.bs, self.edges
        lo = hi = 0
        for i in range(len(edges) - 1):
            lo = bisect_left(bs, edges[i] - e, lo)
            hi = bisect_right(bs, edges[i + 1] + e, hi)
            yield i, lo, hi

    def largest_distance(self):
        """The largest piece distance; feasible together with eps >= 1."""
        p = len(self.b)
        return max(max(self.distances(i, 0, p)) for i in range(len(self.xv)))

    def probe(self, eps):
        """(e, rows) at eps, or None if (m, p) cannot be reached: e is the
        scaled eps, and bit j of rows[i] says that state (i, j) is
        reachable."""
        e = self.scaled(eps)
        rows = []
        reach, above_hi = 1, 0  # a virtual state above the start state (0, 0)
        matches = self.matches
        for i, lo, hi in self.band(e):
            allowed = matches(i, lo, hi, eps)
            xmask = (2 << above_hi) - 1  # r_j <= s_i + e
            ymask = -2 << lo  # s_i - e <= r_j
            seeds = (reach | (reach << 1) & ymask) & xmask & allowed
            run = allowed & ymask | seeds
            reach = run & ((seeds + run ^ run) | seeds)
            if not reach:
                return None
            rows.append(reach)
            above_hi = hi
        return (e, rows) if reach >> len(self.b) & 1 else None

    def events(self, probed):
        """Path events of a feasible probe in forward order:
        ["x"|"y"|"xy", time, warped x-jump], with float times.  Rounding the
        nondecreasing scaled times keeps them nondecreasing."""
        e, rows = probed
        a, b, bs, edges = self.a, self.b, self.bs, self.edges
        out = []
        i, j = len(a), len(b)
        while i or j:
            s, r = edges[i], bs[j - 1] if j else 0
            if i and j and rows[i - 1] >> (j - 1) & 1 and abs(r - s) <= e:
                out.append(["xy", b[j - 1], a[i - 1]])
                i, j = i - 1, j - 1
            elif j and rows[i] >> (j - 1) & 1 and s - e <= r:
                out.append(["y", b[j - 1], None])
                j -= 1
            else:
                out.append(["x", max(r, s - e) / self.one, a[i - 1]])
                i -= 1
        out.reverse()
        return out

    def thresholds(self, lo, top):
        """Sorted elements of ``candidate_thresholds`` in [lo, top], with the
        piece distances of the states in the band at eps = top only.  A state
        outside that band is on no path to (m, p) at any eps <= top, so its
        value check cannot switch feasibility in [lo, top].

        A row's pairs with lo <= d <= top are the ones within top and not
        within the float under lo: two ``matches`` bitsets, so d is
        evaluated only on the pairs in the bracket."""
        out = {0.0} if lo <= 0.0 else set()
        b, bs, edges, scaled = self.b, self.bs, self.edges, self.scaled
        value, matches = self.value, self.matches
        reach = scaled(top)
        under = math.nextafter(lo, -math.inf)
        for i, jlo, jhi in self.band(reach):
            bits = matches(i, jlo, jhi, top) & ~matches(i, jlo, jhi, under)
            while bits:
                low = bits & -bits
                out.add(value(i, low.bit_length() - 1))
                bits ^= low
        # The window gap g = |a_i - b_j| enters as the least float at or above
        # it, which is at most top iff g * S <= reach and at least lo iff g
        # exceeds the float under lo, that is iff g * S > below.
        below = scaled(under) if lo > 0.0 else -1
        for ai, aa in zip(self.a, edges[1:]):
            for v in (ai, _up_gap(1.0, ai)):
                if lo <= v <= top:
                    out.add(v)
            left = bisect_left(bs, aa - below)
            right = max(left, bisect_right(bs, aa + below))
            for bj in b[bisect_left(bs, aa - reach) : left]:
                out.add(_up_gap(ai, bj))
            for bj in b[right : bisect_right(bs, aa + reach)]:
                out.add(_up_gap(ai, bj))
        return sorted(out)

    def least_feasible(self):
        """Smallest feasible candidate threshold and its probe.

        Every eps below L = max(d(x(0), y(0)), d(x(1), y(1))) fails the value
        check of state (0, 0) or (m, p).  Probe L, gallop upward by doubling
        steps until a probe succeeds at some hi, and keep lo at L, or at the
        float above the last failure once a probe has failed.  Then bisect
        [lo, hi] on floats until it is no wider than the gallop's first step,
        and binary-search the ``thresholds`` in it: they hold every float in
        the bracket where feasibility can switch, so the least feasible one
        is the distance.  Feasibility is constant from the last of them up to
        hi, so hi joins them when they end below it, and the search starts
        from its probe.  A bracket of one float, such as L when its probe
        succeeds, is the distance itself.  From eps = 1 on every window is
        open and only piece distances can bind, so the gallop jumps from
        there to the largest piece distance, which is feasible.  That bracket
        is not bisected: it can span hundreds of binary exponents, and only
        the piece distances above 1 lie in it.
        """
        m, p = len(self.a), len(self.b)
        lo = hi = max(self.distances(0, 0, 0)[0], self.distances(m, p, p)[0])
        width = step = 1.0 / (m + p + 2)
        while True:
            if not lo <= hi < math.inf:
                raise NonFiniteDistance(f"value metric gave a non-finite distance ({hi})")
            at_hi = self.probe(hi)
            if at_hi is not None:
                break
            lo = math.nextafter(hi, math.inf)  # hi failed
            if hi < 1.0:
                hi, step = hi + step, 2.0 * step
            else:
                hi = self.largest_distance()

        # lo > 1 only after the jump, as lo = L > 1 would have jumped at once
        while lo <= 1.0 and hi - lo > width:
            mid = lo + 0.5 * (hi - lo)
            probed = self.probe(mid)
            if probed is None:
                lo = math.nextafter(mid, math.inf)
            else:
                hi, at_hi = mid, probed
        if lo == hi:
            return hi + 0.0, at_hi  # -0.0 to 0.0, as thresholds() would give
        cands = self.thresholds(lo, hi)
        if cands[-1] < hi:
            cands.append(hi)
        k, top, found = 0, len(cands) - 1, at_hi
        while k < top:
            mid = (k + top) // 2
            probed = self.probe(cands[mid])
            if probed is None:
                k = mid + 1
            else:
                top, found = mid, probed
        return cands[top], found


def _certificate(events) -> TimeChange:
    """The time change through the x-events' knots (t, warped x-jump), after
    making the knot times strictly increasing inside (0, 1) in event order.

    A forward pass lifts each movable time to the next float above the knot
    before it, a backward pass lowers it to the next float below the knot
    after it, and neither moves it across a pinned y-jump.  A movable time
    may so land on the y-jump next to it in the event order: the x-jump then
    coincides with that y-jump, which meets a subset of the piece pairs of
    the closed solution.  The value supremum is unchanged, and times move by
    a few floats, far less than CERT_TOL.
    """
    bound = math.nextafter(0.0, 1.0)
    for event in events:
        kind, t, _ = event
        if kind == "x":
            t = event[1] = max(t, bound)
        bound = max(bound, t) if kind == "y" else math.nextafter(t, 2.0)
    bound = math.nextafter(1.0, 0.0)
    for event in reversed(events):
        kind, t, _ = event
        if kind == "x":
            t = event[1] = min(t, bound)
        bound = min(bound, t) if kind == "y" else math.nextafter(t, -1.0)
    knots = [(0.0, 0.0)]
    last = 0.0
    for kind, t, ajump in events:
        if t < last or kind != "y" and not knots[-1][0] < t < 1.0:
            raise RuntimeError("internal: event order has no float time change")
        last = t
        if kind != "y":
            knots.append((t, ajump))
    knots.append((1.0, 1.0))
    return TimeChange(tuple(knots))


def feasible(x: StepFunction, y: StepFunction, eps: float, d):
    """Decide "Skorohod distance <= eps" (closed relaxation), with witness.

    Returns ``(True, lam)`` where ``lam`` is a strict time change realising
    time deviation <= eps + CERT_TOL and value supremum <= eps, or
    ``(False, None)``.  Feasibility is monotone in eps, and closed feasibility
    at eps equals strict feasibility at every eps' > eps, so the predicate is
    exactly "infimum <= eps", decided without tolerance: the distance is the
    least float eps at which it holds.
    """
    dp = _BandedDP(x, y, d)  # checks the space before eps
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    probed = dp.probe(eps)
    if probed is None:
        return False, None
    return True, _certificate(dp.events(probed))


def _within(x: StepFunction, y: StepFunction, eps: float, d) -> bool:
    """Decide "Skorohod distance <= eps" without a certificate.

    The distance is the least float at which this holds, so for a float
    bound, ``distance < bound`` iff ``_within`` at the float below bound, and
    ``distance > eps`` iff not ``_within`` at eps.  A NaN or infinite piece
    distance fails its value check here rather than raising.
    """
    return _BandedDP(x, y, d).probe(eps) is not None


def candidate_thresholds(x: StepFunction, y: StepFunction, d) -> list[float]:
    """Finite set containing every float eps at which feasibility can change.

    Value constraints activate at the pairwise piece distances; window, order
    and endpoint constraints activate at |a_i - b_j|, a_i and 1 - a_i, which
    enter as the least floats at or above them.  Between consecutive elements
    the feasibility predicate is constant on floats, so the distance is the
    smallest feasible element of this set.  This is the full O(mp) reference
    set; ``skorohod_distance`` searches only the part of it inside a bracket
    around the answer.
    """
    a, b = x.interior_jumps(), y.interior_jumps()
    out = {0.0}
    for xv in x.values:
        for yv in y.values:
            out.add(d(xv, yv))
    for ai in a:
        out.add(ai)
        out.add(_up_gap(1.0, ai))
        for bj in b:
            out.add(_up_gap(ai, bj))
    return sorted(out)


def skorohod_distance(x: StepFunction, y: StepFunction, d) -> DistanceResult:
    """Exact Skorohod distance with a witnessing time change.

    The value is the smallest feasible candidate threshold.  The search
    brackets it from L = max(d(x(0), y(0)), d(x(1), y(1))) upward, narrows
    the bracket by bisection and binary-searches only the candidates inside
    it, each probe filling the banded feasibility DP.  The certificate's
    recomputed time and value suprema satisfy
    ``max(time_sup, value_sup) <= value + CERT_TOL``.
    """
    dp = _BandedDP(x, y, d)
    value, probed = dp.least_feasible()
    cert = _certificate(dp.events(probed))
    time_sup = cert.warp_deviation()
    value_sup = uniform_distance(compose_time_change(x, cert), y, d)
    if max(time_sup, value_sup) > value + CERT_TOL:
        raise RuntimeError("internal: certificate fails its own bound")
    return DistanceResult(value, cert, time_sup, value_sup)


def bisect_distance(x: StepFunction, y: StepFunction, d) -> float:
    """Distance by plain bisection on feasibility, down to adjacent floats:
    the least feasible float, so it equals ``skorohod_distance(...).value``.
    A cross-check for the candidate-set computation."""
    dp = _BandedDP(x, y, d)
    lo = 0.0
    if dp.probe(lo) is not None:
        return 0.0
    # every window is open from eps = 1, so only a non-finite (inf or NaN)
    # piece distance keeps hi from being a finite feasible bracket top
    hi = max(1.0, dp.largest_distance())
    if not (hi < math.inf and dp.probe(hi) is not None):
        raise NonFiniteDistance("value metric gave a non-finite distance")
    # lo fails and hi holds; hi - lo cannot overflow, unlike lo + hi
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if dp.probe(mid) is not None:
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
):
    """Recompute the certified bound max(warp deviation, value supremum).

    Returns ``(ok, bound)`` with ``ok`` true iff ``bound <= claimed + CERT_TOL``.
    The value supremum is recomputed from scratch via composition of x with
    the certificate, so this audits the certificate without trusting the
    distance computation.  A certificate that merges two jump times of x is
    invalid.
    """
    try:
        warped = compose_time_change(x, cert)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
    bound = max(cert.warp_deviation(), uniform_distance(warped, y, d))
    return bound <= claimed + CERT_TOL, bound


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
#
# Enumerates every weak ordering of the warped x-jumps u_1 <= ... <= u_m
# against y's jump times: each u is assigned a zone (pinned at 0, inside an
# open span between consecutive y-jumps, pinned at a y-jump, or pinned at 1),
# assignments are nondecreasing, and a run of pieces collapsed onto a y-jump
# additionally chooses where it splits between the left and right neighbouring
# y-pieces.  Per ordering the least feasible eps is found by bisection over
# the ordering's window/order constraints plus its per-cell value constraints.
# None of this shares code with the dynamic program above.
#
# The window and pin checks are exact in their own fixed point: every float is
# an integer multiple of 2**-1074, so times and eps scaled by 2**1074 are
# integers.  Bisection runs down to adjacent floats, so the distance is the
# least float eps at which some ordering is feasible.

_PIN, _OPEN = 0, 1
_FIXED_BITS = 1074


def _fixed(t: float) -> int:
    """t * 2**1074 as an exact integer."""
    num, den = t.as_integer_ratio()
    return num << (_FIXED_BITS + 1 - den.bit_length())


class OracleInstance:
    """Reusable brute-force reference for one (x, y, d) instance."""

    def __init__(self, x: StepFunction, y: StepFunction, d):
        require_same_space(x.values[0], y.values[0])
        a, b = x.interior_jumps(), y.interior_jumps()
        if len(a) + len(b) > 10:
            raise OracleTooLarge(
                f"{len(a)} + {len(b)} interior jumps exceeds the oracle bound of 10"
            )
        self.a, self.b = a, b
        self.dmat = [[d(xv, yv) for yv in y.values] for xv in x.values]
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
        """(lower, plan) per zone assignment.  ``lower`` is the value need
        joined with the pin distances rounded to nearest, so it never exceeds
        the least float eps at which the plan is feasible; ``plan`` holds the
        fixed-point times."""
        a, zones = self.a, self.zones
        fixed_a = [_fixed(t) for t in a]
        fixed_zones = [(kind, _fixed(lo), _fixed(hi)) for kind, lo, hi, _, _ in zones]
        m = len(a)
        out = []
        for combo in combinations_with_replacement(range(len(zones)), m):
            pin_need = 0.0
            plan = []
            for i, z in enumerate(combo):
                kind, lo, _, _, _ = zones[z]
                if kind == _PIN:
                    pin_need = max(pin_need, abs(a[i] - lo))
                plan.append((*fixed_zones[z], fixed_a[i]))
            vmin = self._piece_costs(combo)
            lower = max(vmin, pin_need)
            out.append((lower, tuple(plan)))
        return out

    @staticmethod
    def _windows_sat(plan, e):
        """Window and pin checks of one plan at the fixed-point eps ``e``."""
        prev = 0
        for kind, lo, hi, aa in plan:
            if kind == _PIN:
                if abs(aa - lo) > e or lo < prev:
                    return False
                prev = lo
            else:
                u = max(prev, aa - e, lo)
                if u > min(aa + e, hi):
                    return False
                prev = u
        return True

    def feasible_at(self, eps: float) -> bool:
        e = _fixed(eps)
        for lower, plan in self.assignments:
            if lower > eps:
                return False  # assignments are sorted by their lower bound
            if self._windows_sat(plan, e):
                return True
        return False

    def _min_eps(self, lower, plan):
        """The least float eps >= lower at which the plan's windows hold:
        bisection until the bracket is two adjacent floats."""
        sat = self._windows_sat
        if sat(plan, _fixed(lower)):
            return lower
        lo, hi = lower, max(lower, 1.0)  # every window holds from eps = 1
        if not sat(plan, _fixed(hi)):
            return math.inf
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if sat(plan, _fixed(mid)):
                hi = mid
            else:
                lo = mid
        return hi

    def distance(self) -> float:
        best = math.inf
        for lower, plan in self.assignments:
            if lower >= best:
                break  # sorted by lower bound: nothing better remains
            best = min(best, self._min_eps(lower, plan))
        return best


def oracle_distance(x: StepFunction, y: StepFunction, d) -> float:
    """Brute-force Skorohod distance; requires at most 10 interior jumps in
    total.  Independent of the dynamic-programming code path."""
    return OracleInstance(x, y, d).distance()


def result_from_json(text: str):
    """Parse a distance result document: {"distance": v, "certificate": {...}}.
    The text is read by ``strict_json``, so NaN/Infinity tokens and numbers
    outside the float range are rejected, all as ``CertificateError``."""
    obj = strict_json(text, CertificateError)
    if not isinstance(obj, dict) or "certificate" not in obj or "distance" not in obj:
        raise CertificateError('expected {"distance": ..., "certificate": ...}')
    claimed = obj["distance"]
    if isinstance(claimed, bool) or not isinstance(claimed, (int, float)):
        raise CertificateError(f"bad distance value {claimed!r}")
    try:
        claimed = float(claimed)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise CertificateError("distance out of float range") from exc
    return claimed, TimeChange.from_json_obj(obj["certificate"])
