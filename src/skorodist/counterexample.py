"""The K-topology counterexample, executed with exact arithmetic.

Refine the real line by deleting arbitrary subsets of K = {1/n : n in N}
from open sets.  The result is Hausdorff (finer than the standard topology)
but not regular: K is closed, 0 is not in K, yet 0 and K admit no disjoint
open neighbourhoods.  On this space the staircase function

    f(t) = (t + 1/n) / 2   on [1/(n+1), 1/n),      f(0) = f(1) = 0

is cadlag -- its values avoid K entirely, so even right-continuity at 0
survives the refinement -- but its left limits at the points of K are
f(1/n-) = 1/n, which land exactly on K.  The deleted neighbourhood R \\ K of
0 therefore contains f(0) but no f(1/n-): the split-interval extension of f
is discontinuous, and the closure of the range contains the closed, discrete,
infinite (hence non-compact) set K.  Everything checkable about this is
checked below on exact rationals; set membership in K would be meaningless in
floating point.

Convergence in the refined topology is decided symbolically on a closed class
of tail forms (eventually constant, or eventually q/n): a finite number of
terms can never decide it.  For q/n tails converging to 0, the terms hit K
precisely when n is a multiple of a'/gcd(a', b') for q = a/b, which happens
infinitely often whenever q > 0 -- this is the whole counterexample in one
line.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import cadlag

EXCLUDE_NONE = "none"
EXCLUDE_ALL = "all"
EXCLUDE_ALL_BUT_CENTER = "all_but_center"


def as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a number")
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to an exact rational")


def in_k(x) -> bool:
    """Exact membership in K = {1/n : n in N}."""
    q = as_fraction(x)
    return q > 0 and q.numerator == 1


def piece_index(t) -> int:
    """The n with t in [1/(n+1), 1/n); requires 0 < t < 1."""
    q = as_fraction(t)
    if not 0 < q < 1:
        raise ValueError(f"piece index needs t in (0, 1), got {q}")
    return math.ceil(1 / q) - 1


def f_example(t) -> Fraction:
    """The staircase (t + 1/n)/2 on [1/(n+1), 1/n), with f(0) = f(1) = 0."""
    q = as_fraction(t)
    if not 0 <= q <= 1:
        raise ValueError(f"t={q} outside [0, 1]")
    if q == 0 or q == 1:
        return Fraction(0)
    n = piece_index(q)
    return (q + Fraction(1, n)) / 2


def f_left_limit(t) -> Fraction:
    """Left limit of the staircase: 1/n at the points of K, f(t) elsewhere."""
    q = as_fraction(t)
    if not 0 < q <= 1:
        raise ValueError(f"left limit needs t in (0, 1], got {q}")
    if in_k(q):
        return q
    return f_example(q)


@dataclass(frozen=True)
class TauKNeighborhood:
    """Basic open set (center - radius, center + radius) minus a subset of K.

    ``radius=None`` means the whole line.  The excluded part is nothing, all
    of K, or K minus the center; the center itself is never excluded, which
    is validated on construction.
    """

    center: Fraction
    radius: Fraction | None
    excluded: str = EXCLUDE_NONE

    def __post_init__(self):
        object.__setattr__(self, "center", as_fraction(self.center))
        if self.radius is not None:
            r = as_fraction(self.radius)
            if not r > 0:
                raise ValueError("radius must be positive")
            object.__setattr__(self, "radius", r)
        if self.excluded not in (EXCLUDE_NONE, EXCLUDE_ALL, EXCLUDE_ALL_BUT_CENTER):
            raise ValueError(f"bad exclusion {self.excluded!r}")
        if self.excluded == EXCLUDE_ALL and in_k(self.center):
            raise ValueError("the excluded set may not contain the center")

    def contains(self, p) -> bool:
        q = as_fraction(p)
        if self.radius is not None and not abs(q - self.center) < self.radius:
            return False
        if self.excluded == EXCLUDE_NONE or not in_k(q):
            return True
        if self.excluded == EXCLUDE_ALL:
            return False
        return q == self.center

    def describe(self) -> str:
        span = (
            "R"
            if self.radius is None
            else f"({self.center - self.radius}, {self.center + self.radius})"
        )
        if self.excluded == EXCLUDE_NONE:
            return span
        if self.excluded == EXCLUDE_ALL:
            return f"{span} \\ K"
        return f"{span} \\ (K minus {{{self.center}}})"


@dataclass(frozen=True)
class TailSequence:
    """Sequence with an eventually-exact closed form: eventually the constant
    ``coefficient`` or ``coefficient / n``.  Finitely many leading terms never
    matter for convergence, so they are not stored.
    """

    kind: str  # "constant" | "reciprocal"
    coefficient: Fraction

    def __post_init__(self):
        if self.kind not in ("constant", "reciprocal"):
            raise ValueError(f"unsupported tail form {self.kind!r}")
        object.__setattr__(self, "coefficient", as_fraction(self.coefficient))


def reciprocal_tail(q=1) -> TailSequence:
    """The sequence q/n (eventually)."""
    return TailSequence("reciprocal", q)


def staircase_left_limits() -> TailSequence:
    """n -> f(1/n -), which equals 1/n exactly."""
    return reciprocal_tail(1)


def converges(s: TailSequence, limit, topology: str = "tauk") -> bool:
    """Exact convergence decision for a tail sequence.

    Standard convergence is read off the closed form.  The refined topology
    agrees with the standard one away from 0 (K clusters only at 0, and no
    basic neighbourhood excludes its own center), so the extra requirement
    bites exactly at limit 0: the terms must eventually avoid K.  A tail q/n
    with q = a/b > 0 lands in K whenever a/gcd(a, b) divides n, i.e.
    infinitely often, so only q <= 0 survives.
    """
    lim = as_fraction(limit)
    std = s.coefficient if s.kind == "constant" else Fraction(0)
    if topology == "tau0":
        return std == lim
    if topology != "tauk":
        raise ValueError(f"unknown topology {topology!r}")
    if std != lim:
        return False  # the refinement is finer than the standard topology
    if s.kind == "constant":
        return True  # the constant lies in every neighbourhood of itself
    if lim != 0:
        return True  # reciprocal tails only reach 0; unreachable given std == lim
    return s.coefficient <= 0


def k_isolation_witness(count: int) -> list[TauKNeighborhood]:
    """Basic neighbourhoods isolating 1/1, ..., 1/count inside K.

    Element n is (1/n - r, 1/n + r) minus K\\{1/n} with r half the gap to
    1/(n+1).  Each element contains exactly one point of K (post-verified up
    to the doubled horizon), so this family covers any truncation of K one
    point per member: no finite subfamily covers the infinite K, which is the
    truncation-level witness of K's non-compactness.  The untruncated
    statement is a documented fact, not a runtime check.
    """
    if count < 2:
        raise ValueError("need count >= 2")
    out = []
    for n in range(1, count + 1):
        r = (Fraction(1, n) - Fraction(1, n + 1)) / 2
        nbhd = TauKNeighborhood(Fraction(1, n), r, EXCLUDE_ALL_BUT_CENTER)
        hits = [m for m in range(1, 2 * count + 1) if nbhd.contains(Fraction(1, m))]
        if hits != [n]:
            raise RuntimeError(f"isolation witness failed at n={n}: hits {hits}")
        out.append(nbhd)
    return out


@dataclass
class DiscontinuityReport:
    """Exact verdicts for the staircase function's split-interval behaviour."""

    truncation: int
    piece_horizon: int
    grid: int
    cadlag_tau0: bool
    f_avoids_k: bool
    right_continuous_at_zero: bool
    left_limits_on_k: bool
    discontinuity_witnessed: bool
    tail_diverges_tauk: bool
    tail_converges_tau0: bool
    witness: str

    @property
    def passed(self) -> bool:
        return (
            self.cadlag_tau0
            and self.f_avoids_k
            and self.right_continuous_at_zero
            and self.left_limits_on_k
            and self.discontinuity_witnessed
            and self.tail_diverges_tauk
            and self.tail_converges_tau0
        )

    def to_json_obj(self) -> dict:
        return {"pass": self.passed, **asdict(self)}


def _check_cadlag_tau0(truncation: int) -> bool:
    """Boundary behaviour of f on [1/(truncation+1), 1], exactly, plus a
    cross-check of the piece skeleton against the step-function machinery.

    f is piecewise linear, not piecewise constant, so the step-function
    module cannot represent f itself; what it can represent is f's piece
    skeleton (the map t -> n of its finitely many pieces on the truncation),
    rescaled to [0, 1].  The skeleton must agree with the arithmetic piece
    index everywhere, and f must be right-continuous with the advertised left
    limits at every interior boundary.
    """
    for n in range(2, truncation + 1):
        t = Fraction(1, n)
        # right-continuity: the value at 1/n comes from the piece [1/n, 1/(n-1))
        if f_example(t) != (t + Fraction(1, n - 1)) / 2:
            return False
        # the left limit comes from the piece below and lands on K
        if f_left_limit(t) != t:
            return False
    lo = Fraction(1, truncation + 1)
    span = 1 - lo

    def rescale(q):
        return float((q - lo) / span)

    ks = list(range(truncation + 1, 1, -1))  # pieces [1/k, 1/(k-1)), n = k-1
    skeleton = cadlag.make_step(
        [rescale(Fraction(1, k)) for k in ks], [float(k - 1) for k in ks]
    )
    for j in range(400):
        t = lo + (1 - lo) * Fraction(j, 400)
        if t >= 1:
            break
        if skeleton(rescale(t)) != (float(piece_index(t)),):
            return False
    for k in range(2, truncation + 1):
        s = rescale(Fraction(1, k))
        if skeleton(s) != (float(k - 1),) or skeleton.left_limit(s) != (float(k),):
            return False
    return True


def _check_f_avoids_k(piece_horizon: int, grid: int) -> bool:
    """f(t) is never in K: exactly on the grid {j/grid}, and per piece by
    exact interval arithmetic.  On piece n the range is
    [(1/(n+1) + 1/n)/2, 1/n), and a point 1/m in it would need
    n < m <= 2n(n+1)/(2n+1) < n + 1: no integer qualifies."""
    for j in range(grid + 1):
        if in_k(f_example(Fraction(j, grid))):
            return False
    for n in range(1, piece_horizon + 1):
        low = (Fraction(1, n + 1) + Fraction(1, n)) / 2
        m_max = math.floor(1 / low)  # largest m with 1/m >= low
        if any(low <= Fraction(1, m) < Fraction(1, n) for m in range(n + 1, m_max + 1)):
            return False
    return True


def _check_right_continuity_at_zero() -> bool:
    """f([0, delta]) lies in the deleted neighbourhood (-2*delta, 2*delta) \\ K
    for every sampled delta: on [0, delta] the staircase is bounded by
    3*delta/2 and avoids K, so even the refined neighbourhood base at 0 is
    eventually entered."""
    for k in range(1, 13):
        delta = Fraction(1, 2**k)
        nbhd = TauKNeighborhood(0, 2 * delta, EXCLUDE_ALL)
        for j in range(201):
            if not nbhd.contains(f_example(delta * Fraction(j, 200))):
                return False
    return True


def split_extension_discontinuity_report(
    truncation: int = 50, piece_horizon: int = 100, grid: int = 10_000
) -> DiscontinuityReport:
    """Run every exact check about the staircase function and its failure to
    extend continuously to the split interval.

    The discontinuity witness is the deleted neighbourhood R \\ K of 0: it
    contains f(0) = 0 but no f(1/n-) = 1/n, even though the points 1/n-
    converge to 0+ in the split interval (every basic neighbourhood
    [0+, u+) of 0+ eventually contains them).  The separation failure of the
    refined topology itself (0 versus K) is a cited fact about all open sets
    and is not runtime-checkable.
    """
    deleted = TauKNeighborhood(0, None, EXCLUDE_ALL)
    witnessed = deleted.contains(f_example(0)) and all(
        not deleted.contains(f_left_limit(Fraction(1, n)))
        for n in range(1, piece_horizon + 1)
    )
    left_limits_ok = all(
        f_left_limit(Fraction(1, n)) == Fraction(1, n)
        for n in range(1, piece_horizon + 1)
    )
    tail = staircase_left_limits()
    return DiscontinuityReport(
        truncation=truncation,
        piece_horizon=piece_horizon,
        grid=grid,
        cadlag_tau0=_check_cadlag_tau0(truncation),
        f_avoids_k=_check_f_avoids_k(piece_horizon, grid),
        right_continuous_at_zero=_check_right_continuity_at_zero(),
        left_limits_on_k=left_limits_ok,
        discontinuity_witnessed=witnessed,
        tail_diverges_tauk=not converges(tail, 0, "tauk"),
        tail_converges_tau0=converges(tail, 0, "tau0"),
        witness=deleted.describe(),
    )
