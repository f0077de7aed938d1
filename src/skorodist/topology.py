"""Checkable forms of the topology-independence machinery.

Three procedures, all operating on finite data:

* ``uniform_modulus`` -- given a max-closed family, a finite value set K, a
  target pseudometric rho and eps > 0, produce an index i and delta > 0 such
  that family-distance below delta from a point of K forces rho below eps.
  A modulus is returned only with a proof.  Two fast paths cover rho equal to
  an index metric (delta = eps/2) and Euclidean rho under a full coordinate
  family (delta = eps/(2*sqrt(dim)), since the Euclidean norm is at most
  sqrt(dim) times the coordinate maximum).  Otherwise, on vectors, a
  structural Lipschitz constant L with rho <= L * d_full is read off the two
  metrics:

  - L = 1 for rho equal to d or to one of its parts, and for a
    ``Coordinate`` under ``Euclidean``;
  - L = sqrt(dim) for ``Euclidean`` under the full coordinate maximum;
  - L = c * L(r) for ``Scaled(c, r)`` with c >= 0;
  - the maximum of the parts' L for a ``MaxOf`` target;
  - tried last, L(rho, r) / c for a ``Scaled(c, r)`` part of d with c > 0,
    the least such bound.

  The covering construction asks per point z for a radius delta_z with the
  d ball of radius 2 * delta_z inside {rho < eps/2}; under rho <= L * d the
  geometric search eps/2, eps/4, ... stops at the first delta_z with
  2 * L * delta_z <= eps/2 (eps/4 for L = 1), the same for every z.  For
  step functions the compact sets that occur are finite ranges, so the
  covering argument degenerates to iteration over K, and the returned index
  is the full index.  A label K is covered exactly: its balls are the label
  points of K.  A vector target that no rule bounds -- ``PulledBack``, a
  plain callable, or a rho the family does not dominate -- raises
  :class:`ModulusValidationError`.

* ``t1_transfer_check`` -- the transfer mechanism behind topology
  independence, run empirically: with (j, delta) from ``uniform_modulus``
  applied to the fine family and the coarse index metric on K = range of x,
  every sampled y whose fine Skorohod distance to x is below min(delta, eps)
  must have coarse Skorohod distance at most eps.  Both conditions are
  decided exactly by one feasibility probe each, with no threshold search or
  certificate; only a violation's report computes the two distances.

* ``pushforward`` / ``t2_continuity_check`` -- composition with a continuous
  value map psi, and the exact identity between the Skorohod distance of the
  pushed-forward pair under zeta and the Skorohod distance of the original
  pair under the pulled-back pseudometric zeta(psi(.), psi(.)).  The identity
  is an equality of two instances of the same infimum, not an approximation,
  and both sides are exact, so it is asserted with ``==``.  A row of the check
  holds just these two sides: two distance solves per element x_n.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .cadlag import StepFunction, make_step
from .distance import _within, skorohod_distance
from .pseudometric import (
    Coordinate,
    Euclidean,
    MaxOf,
    PseudometricFamily,
    PulledBack,
    Scaled,
)


# The largest eps that uniform_modulus accepts.  The modulus needs only eps/2
# finite; below float max / 8 the transfer sampler's proposal widths, at most
# 2 * 0.8 * 1.3 * eps/2 (``sampling.conditioned_perturbation_sampler`` at
# bound <= delta <= eps/2), stay finite with room to spare.
MAX_EPS = sys.float_info.max / 8
# The smallest: a normal float, so that eps / 2**_MAX_DEPTH and
# eps / (2 * sqrt(dim)) are still positive floats.
MIN_EPS = sys.float_info.min

# The radius search halves at most this many times before giving up.
_MAX_DEPTH = 40
# t1_transfer_check draws at most this many proposals per requested trial.
_MAX_ATTEMPTS_FACTOR = 200


class ModulusValidationError(RuntimeError):
    """No modulus could be proved: no structural rule bounds rho by the
    family on these vectors, or no radius down to eps / 2**40 is small
    enough."""


class SamplerStarvation(RuntimeError):
    """The conditioned sampler could not hit the required ball often enough."""


@dataclass(frozen=True)
class Modulus:
    """A family index and radius transferring closeness into rho-closeness."""

    index: frozenset
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")


def uniform_modulus(
    family: PseudometricFamily,
    K,
    rho,
    eps: float,
) -> Modulus:
    """Find (index, delta) with: z in K and family_index(z, y) < delta imply
    rho(z, y) < eps.

    K must be a nonempty finite value set (ranges of step functions are),
    and eps must lie in [``MIN_EPS``, ``MAX_EPS``].  The modulus is proved,
    never sampled: eps/2 when rho is an index metric, eps/(2*sqrt(dim)) for
    Euclidean rho under a full coordinate family, and else, on vectors, the
    largest eps/2**k, 1 <= k <= ``_MAX_DEPTH``, with 2 * L * delta <= eps/2
    for a Lipschitz constant L of rho over the full index metric d, by the
    structural rules of the module docstring.  Label balls are computed
    exactly over the label points of K.

    Raises :class:`ModulusValidationError` when no rule bounds a vector rho
    by the family, or when the bound is too large for any radius.  That is
    no evidence that rho is discontinuous for the family's topology:
    ``PulledBack`` and plain-callable vector targets raise even where they
    are continuous.
    """
    points = sorted(K, key=repr)
    if not points:
        raise ValueError("K must be nonempty")
    if not MIN_EPS <= eps <= MAX_EPS:
        raise ValueError(f"eps must lie in [{MIN_EPS}, {MAX_EPS}], got {eps}")

    # Fast path: rho is itself one of the family's index metrics, so the ball
    # of radius eps/2 around any point is contained in {rho < eps}.
    idx = _index_of(family, rho)
    if idx is not None:
        return _in_space(family, points, rho, Modulus(idx, eps / 2.0))

    labels = isinstance(points[0], str)
    dim = None if labels else max(map(len, points))
    # Fast path: Euclidean target under a full coordinate family; the
    # Euclidean norm is at most sqrt(dim) times the coordinate maximum.
    if isinstance(rho, Euclidean) and not labels:
        by_coord = {
            g.k: pos
            for pos, g in enumerate(family.generators, start=1)
            if isinstance(g, Coordinate)
        }
        if all(k in by_coord for k in range(1, dim + 1)):
            idx = frozenset(by_coord[k] for k in range(1, dim + 1))
            mod = Modulus(idx, eps / (2.0 * math.sqrt(dim)))
            return _in_space(family, points, rho, mod)

    # General path, following the covering construction: for every z find
    # delta_z with ball(d_index, z, 2*delta_z) inside {rho(., z) < eps/2} by
    # geometric search, then combine with the union index and the minimum
    # radius.
    idx = family.full_index()
    d_index = family.metric(idx)
    if labels:
        # exact: the balls are sets of label points of K
        def ball_ok(z, dz):
            hits = [y for y in points if d_index(z, y) < 2.0 * dz]
            return all(rho(z, y) < eps / 2.0 for y in hits)

        return Modulus(idx, min(_radius(eps, z, ball_ok) for z in points))
    lip = _lipschitz(rho, d_index, dim)
    if lip is None:
        raise ModulusValidationError(
            f"no structural rule bounds rho = {rho!r} by the family metric "
            f"{d_index!r} on {dim}-dimensional vectors"
        )
    dz = _radius(eps, points[0], lambda z, dz: 2.0 * lip * dz <= eps / 2.0)
    return _in_space(family, points, rho, Modulus(idx, dz))


def _index_of(family, rho):
    """The first index in ``family.indices()`` order whose metric equals rho,
    or None, found without enumerating the 2**n - 1 indices: a generator
    equal to rho, else the leftmost positions whose generators equal the
    parts of a ``MaxOf`` rho in order.  Every index whose metric equals a
    ``MaxOf`` rho has ``len(rho.parts)`` positions, and ``indices()`` lists
    the indices of one size in lexicographic order, in which the leftmost
    match comes first."""
    gens = family.generators
    if rho in gens:
        return frozenset({gens.index(rho) + 1})
    if not isinstance(rho, MaxOf) or len(rho.parts) < 2:
        return None  # a one-position index metric is its generator
    positions = enumerate(gens, start=1)  # shared: each match lies right of the last
    chosen = [next((p for p, g in positions if g == part), None) for part in rho.parts]
    return None if None in chosen else frozenset(chosen)


def _radius(eps, z, ok):
    """The first of eps/2, eps/4, ..., eps/2**_MAX_DEPTH at which ``ok(z,
    radius)`` holds; raises ModulusValidationError naming z when none does."""
    dz = eps / 2.0
    for _ in range(_MAX_DEPTH):
        if ok(z, dz):
            return dz
        dz /= 2.0
    raise ModulusValidationError(
        f"no radius down to {dz} validated around {z!r}; "
        "rho is not controlled by the family there"
    )


def _lipschitz(rho, d, dim):
    """An L with rho <= L * d on dim-dimensional vectors, by the structural
    rules of the module docstring, or None when they do not apply."""
    parts = d.parts if isinstance(d, MaxOf) else (d,)
    if rho == d or rho in parts:
        return 1.0
    if isinstance(rho, Scaled):
        inner = _lipschitz(rho.inner, d, dim)
        # a negative or NaN factor is no pseudometric
        return None if inner is None or not rho.factor >= 0 else rho.factor * inner
    if isinstance(rho, MaxOf):
        bounds = [_lipschitz(p, d, dim) for p in rho.parts]
        return None if None in bounds else max(bounds)
    if isinstance(rho, Coordinate) and Euclidean() in parts:
        return 1.0
    if isinstance(rho, Euclidean) and all(
        Coordinate(k) in parts for k in range(1, dim + 1)
    ):
        return math.sqrt(dim)
    # rho <= L(rho, r) * r = L(rho, r) / c * (c * r) for a part c * r of d
    bounds = [
        lip / p.factor
        for p in parts
        if isinstance(p, Scaled) and p.factor > 0
        for lip in [_lipschitz(rho, p.inner, dim)]
        if lip is not None
    ]
    return min(bounds, default=None)


def _in_space(family, points, rho, mod):
    """mod, once rho and the index metric have been evaluated at (z, z) for
    every z in K: a value outside their space raises ValueSpaceMismatch here,
    as it does in a distance solve."""
    d = family.metric(mod.index)
    for z in points:
        d(z, z)
        rho(z, z)
    return mod


@dataclass
class TransferReport:
    """Outcome of one transfer check: conditioned trials and any violations."""

    trials: int
    violations: list
    modulus: Modulus


def t1_transfer_check(
    x: StepFunction,
    coarse: PseudometricFamily,
    fine: PseudometricFamily,
    index,
    eps: float,
    sampler,
    trials: int,
    rng=None,
) -> TransferReport:
    """Empirical transfer check for one coarse index.

    Computes (j, delta) = ``uniform_modulus(fine, range of x, coarse index
    metric, eps)``, then draws step functions from ``sampler`` conditioned by
    rejection on fine-Skorohod distance below min(delta, eps) and records
    every accepted y whose coarse-Skorohod distance to x exceeds eps.

    ``sampler`` is called as ``sampler(rng, bound)`` with the conditioning
    radius, so proposals can be scaled sensibly; acceptance is still decided
    here, by one feasibility probe.  As the distance is the least float at
    which the probe succeeds, y is accepted iff the fine probe succeeds at
    the float below ``bound``, and is a violation iff the coarse probe fails
    at eps exactly; only a violation's report computes the two distances.  A
    NaN or infinite piece distance fails its probe's value check instead of
    raising ``NonFiniteDistance``, which only a violation's report can raise.
    """
    rng = rng if rng is not None else random.Random(0)
    rho = coarse.metric(index)
    points = x.range_closure()
    mod = uniform_modulus(fine, points, rho, eps)
    zeta = fine.metric(mod.index)
    bound = min(mod.delta, eps)
    below = math.nextafter(bound, -1.0)  # distance < bound iff <= below
    accepted = 0
    attempts = 0
    violations = []
    max_attempts = trials * _MAX_ATTEMPTS_FACTOR
    while accepted < trials:
        if attempts >= max_attempts:
            raise SamplerStarvation(
                f"only {accepted}/{trials} samples hit the fine ball of radius "
                f"{bound} after {attempts} attempts"
            )
        attempts += 1
        y = sampler(rng, bound)
        if not _within(x, y, below, zeta):
            continue
        accepted += 1
        if not _within(x, y, eps, rho):
            zeta_val = skorohod_distance(x, y, zeta).value
            violations.append((y, zeta_val, skorohod_distance(x, y, rho).value))
    return TransferReport(trials=accepted, violations=violations, modulus=mod)


def pushforward(value_map, x: StepFunction) -> StepFunction:
    """Compose a value map with a step function: t -> psi(x(t)).

    Applies psi to each piece value.  Pieces that psi makes equal merge, so a
    projection can erase a jump entirely.
    """
    return make_step(x.times, [value_map(v) for v in x.values])


@dataclass(frozen=True)
class T2Row:
    n: int
    pulled_back_distance: float
    pushed_distance: float


@dataclass
class T2Report:
    """Per-step comparison of the pushforward identity along a sequence.

    ``identity_ok`` asserts the exact identity (pushed distance under zeta
    equals the distance under the pulled-back pseudometric) on every row.
    """

    rows: list
    identity_ok: bool


def t2_continuity_check(
    value_map,
    x: StepFunction,
    sequence,
    fam_image: PseudometricFamily,
    index,
) -> T2Report:
    """Track a shrinking sequence x_n -> x through a pushforward.

    Per row: the distance of (x_n, x) under the pulled-back pseudometric, and
    the distance of the pushed-forward pair under the image index metric.
    They are the same infimum written two ways, each computed exactly, so
    they must be equal as floats.
    """
    zeta = fam_image.metric(index)
    pulled = PulledBack(value_map, zeta)
    pushed_x = pushforward(value_map, x)
    rows = []
    for n, xn in enumerate(sequence, start=1):
        pb = skorohod_distance(xn, x, pulled).value
        pf = skorohod_distance(pushforward(value_map, xn), pushed_x, zeta).value
        rows.append(T2Row(n, pb, pf))
    identity_ok = all(r.pushed_distance == r.pulled_back_distance for r in rows)
    return T2Report(rows, identity_ok)
