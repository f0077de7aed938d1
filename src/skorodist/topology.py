"""Checkable forms of the topology-independence machinery.

Three procedures, all operating on finite data:

* ``uniform_modulus`` -- given a max-closed family, a finite value set K, a
  target pseudometric rho and eps > 0, produce an index i and delta > 0 such
  that family-distance below delta from a point of K forces rho below eps.
  For step functions the compact sets that occur are exactly finite ranges,
  so the covering argument degenerates to iteration over K: per point z a
  radius delta_z is found by decreasing geometric search, validated by
  rejection sampling of the scaled ball (the underlying argument is
  non-constructive in delta_z; sampling is what makes it checkable), and the
  returned index is the union of the per-point indices with
  delta = min delta_z.  Analytic fast paths cover rho equal to an index
  metric (delta = eps/2) and Euclidean rho under a full coordinate family
  (delta = eps/(2*sqrt(dim)), since the Euclidean norm is at most sqrt(dim)
  times the coordinate maximum).  Every returned modulus, fast path or not,
  is post-validated by the same sampling.  A ball is evaluated in batches:
  ``d_index.row(z, candidates)`` over the whole candidate list, then
  ``rho.row(z, hits)`` over the hits only, so the value space is checked
  once per candidate list rather than once per sample; the values, the
  verdicts and the RNG draws are those of the pairwise evaluation.

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
  so it is asserted to 1e-9.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .cadlag import StepFunction, make_step
from .distance import _within, skorohod_distance
from .pseudometric import Coordinate, Euclidean, PseudometricFamily, PulledBack


# The largest eps that uniform_modulus accepts.  Its sampling radii reach
# delta + 2 * eps <= 2.5 * eps and the widths drawn over are twice that, so
# below float max / 8 every radius and width stays finite.
MAX_EPS = sys.float_info.max / 8


class ModulusValidationError(RuntimeError):
    """No radius validated: rho is not controlled by the family on this set,
    or the sampler cannot populate the candidate balls."""


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

    def to_json_obj(self) -> dict:
        return {"index": sorted(self.index), "delta": self.delta}


def _candidates_near(z, r_tight, r_wide, rng, n, alphabet):
    """Candidates around z: labels enumerate the alphabet; vectors draw each
    coordinate from the tight or the wide radius independently.  The mixed
    radii keep slab-shaped balls populated at any tight radius while still
    probing directions the tight scale would hide."""
    if isinstance(z, str):
        if alphabet is None:
            raise ModulusValidationError(
                "label values need an explicit alphabet to sample from"
            )
        return list(alphabet)
    # rng.uniform(-r, r) written out as CPython computes it, -r + (r - -r) *
    # random(), so that every coordinate and the RNG stream are unchanged.
    draw = rng.random
    tight = (-r_tight, r_tight - -r_tight)
    wide = (-r_wide, r_wide - -r_wide)
    out = []
    for _ in range(n):
        coords = []
        for c in z:
            low, width = tight if draw() < 0.5 else wide
            coords.append(c + (low + width * draw()))
        out.append(tuple(coords))
    return out


def _ball_ok(d_index, z, ball_radius, rho, bound, rng, samples, min_hits, alphabet):
    """Sample the ball {d_index(z, .) < ball_radius} and test rho < bound on
    every hit.  The wide radius reaches rho ~ bound, so a direction the family
    does not see shows up as a violation instead of being missed."""
    cands = _candidates_near(
        z, ball_radius, ball_radius + 2.0 * bound, rng, samples, alphabet
    )
    hits = _hits(d_index, z, cands, ball_radius)
    # A label ball is computed exactly over the alphabet: no minimum count.
    if len(hits) < min_hits and not isinstance(z, str):
        return False
    return all(r < bound for r in rho.row(z, hits))


def _hits(d_index, z, cands, radius):
    """The candidates inside the open d_index ball of ``radius`` around z."""
    return [y for y, d in zip(cands, d_index.row(z, cands)) if d < radius]


def uniform_modulus(
    family: PseudometricFamily,
    K,
    rho,
    eps: float,
    rng=None,
    samples: int = 2000,
    min_hits: int = 20,
    max_depth: int = 40,
    alphabet=None,
) -> Modulus:
    """Find (index, delta) with: z in K and family_index(z, y) < delta imply
    rho(z, y) < eps.

    K must be a nonempty finite value set (ranges of step functions are),
    and eps must lie in (0, ``MAX_EPS``], so that every sampling radius is
    finite.  Raises :class:`ModulusValidationError` when no radius
    validates, which is the observable signature of rho not being continuous
    for the family's topology (e.g. a family missing a coordinate that rho
    sees).
    """
    points = sorted(K, key=repr)
    if not points:
        raise ValueError("K must be nonempty")
    if not 0 < eps <= MAX_EPS:
        raise ValueError(f"eps must lie in (0, {MAX_EPS}], got {eps}")
    rng = rng if rng is not None else random.Random(0)
    if alphabet is None and isinstance(points[0], str):
        # candidate pool for label spaces; balls are then computed exactly
        alphabet = points

    # Fast path: rho is itself one of the family's index metrics, so the ball
    # of radius eps/2 around any point is contained in {rho < eps}.
    for idx in family.indices():
        if family.metric(idx) == rho:
            mod = Modulus(idx, eps / 2.0)
            _post_validate(family, points, rho, eps, mod, rng, samples, alphabet)
            return mod

    # Fast path: Euclidean target under a full coordinate family; the
    # Euclidean norm is at most sqrt(dim) times the coordinate maximum.
    if isinstance(rho, Euclidean) and not isinstance(points[0], str):
        dim = len(points[0])
        by_coord = {
            g.k: pos
            for pos, g in enumerate(family.generators, start=1)
            if isinstance(g, Coordinate)
        }
        if all(k in by_coord for k in range(1, dim + 1)):
            idx = frozenset(by_coord[k] for k in range(1, dim + 1))
            mod = Modulus(idx, eps / (2.0 * math.sqrt(dim)))
            _post_validate(family, points, rho, eps, mod, rng, samples, alphabet)
            return mod

    # General path, following the covering construction: for every z find
    # delta_z with ball(d_index, z, 2*delta_z) inside {rho(., z) < eps/2} by
    # geometric search, then combine with the union index and the minimum
    # radius.
    idx = family.full_index()
    d_index = family.metric(idx)
    delta = None
    for z in points:
        dz = eps / 2.0
        for _ in range(max_depth):
            if _ball_ok(
                d_index, z, 2.0 * dz, rho, eps / 2.0, rng, samples, min_hits, alphabet
            ):
                break
            dz /= 2.0
        else:
            raise ModulusValidationError(
                f"no radius down to {dz} validated around {z!r}; "
                "rho is not controlled by the family there"
            )
        delta = dz if delta is None else min(delta, dz)
    mod = Modulus(idx, delta)
    _post_validate(family, points, rho, eps, mod, rng, samples, alphabet)
    return mod


def _post_validate(family, points, rho, eps, mod, rng, samples, alphabet):
    d_index = family.metric(mod.index)
    for z in points:
        cands = _candidates_near(
            z, mod.delta, mod.delta + 2.0 * eps, rng, samples, alphabet
        )
        hits = _hits(d_index, z, cands, mod.delta)
        for y, r in zip(hits, rho.row(z, hits)):
            if not r < eps:
                raise ModulusValidationError(
                    f"modulus {mod} failed post-validation at z={z!r}, y={y!r}"
                )


@dataclass
class TransferReport:
    """Outcome of one transfer check: conditioned trials and any violations."""

    trials: int
    violations: list
    modulus: Modulus

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "pass": self.passed,
            "trials": self.trials,
            "modulus": self.modulus.to_json_obj(),
            "violations": [
                {
                    "y": y.to_json_obj(),
                    "fine_distance": zeta_val,
                    "coarse_distance": d_val,
                }
                for y, zeta_val, d_val in self.violations
            ],
        }


def t1_transfer_check(
    x: StepFunction,
    coarse: PseudometricFamily,
    fine: PseudometricFamily,
    index,
    eps: float,
    sampler,
    trials: int,
    rng=None,
    tol: float = 1e-9,
    max_attempts_factor: int = 200,
    modulus_samples: int = 2000,
) -> TransferReport:
    """Empirical transfer check for one coarse index.

    Computes (j, delta) = ``uniform_modulus(fine, range of x, coarse index
    metric, eps)``, then draws step functions from ``sampler`` conditioned by
    rejection on fine-Skorohod distance below min(delta, eps) and records
    every accepted y whose coarse-Skorohod distance to x exceeds eps + tol.

    ``sampler`` is called as ``sampler(rng, bound)`` with the conditioning
    radius, so proposals can be scaled sensibly; acceptance is still decided
    here, by one feasibility probe.  As the distance is the least float at
    which the probe succeeds, y is accepted iff the fine probe succeeds at
    the float below ``bound``, and is a violation iff the coarse probe fails
    at eps + tol; only a violation's report computes the two distances.  A
    NaN or infinite piece distance fails its probe's value check instead of
    raising ``NonFiniteDistance``, which only a violation's report can raise.
    """
    rng = rng if rng is not None else random.Random(0)
    rho = coarse.metric(index)
    points = x.range_closure()
    mod = uniform_modulus(fine, points, rho, eps, rng=rng, samples=modulus_samples)
    zeta = fine.metric(mod.index)
    bound = min(mod.delta, eps)
    below = math.nextafter(bound, -1.0)  # distance < bound iff <= below
    accepted = 0
    attempts = 0
    violations = []
    max_attempts = trials * max_attempts_factor
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
        if not _within(x, y, eps + tol, rho):
            zeta_val = skorohod_distance(x, y, zeta).value
            violations.append((y, zeta_val, skorohod_distance(x, y, rho).value))
    return TransferReport(trials=accepted, violations=violations, modulus=mod)


def pushforward(value_map, x: StepFunction) -> StepFunction:
    """Compose a value map with a step function: t -> psi(x(t)).

    Applies psi to each piece value and normalizes, since psi may merge
    adjacent values (a projection can erase a jump entirely).
    """
    mapped = make_step(x.times, [value_map(v) for v in x.values])
    return mapped.normalize()


@dataclass(frozen=True)
class T2Row:
    n: int
    base_distance: float  # max over the domain family's indices
    pulled_back_distance: float
    pushed_distance: float

    @property
    def identity_gap(self) -> float:
        return abs(self.pushed_distance - self.pulled_back_distance)


@dataclass
class T2Report:
    """Per-step comparison of the pushforward identity along a sequence.

    ``identity_ok`` asserts the exact identity (pushed distance under zeta
    equals the distance under the pulled-back pseudometric) on every row;
    ``thresholds_met`` records, per decade 10^-k, the first row from which
    the pushed distance stays below it (None if never, which for short
    sequences is expected at the finer decades).
    """

    rows: list
    identity_ok: bool
    thresholds_met: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.thresholds_met.get(2) is not None

    def to_json_obj(self) -> dict:
        return {
            "pass": self.passed,
            "identity_ok": self.identity_ok,
            "thresholds_met": {str(k): v for k, v in self.thresholds_met.items()},
            "rows": [
                {
                    "n": r.n,
                    "base_distance": r.base_distance,
                    "pulled_back_distance": r.pulled_back_distance,
                    "pushed_distance": r.pushed_distance,
                    "identity_gap": r.identity_gap,
                }
                for r in self.rows
            ],
        }


def t2_continuity_check(
    value_map,
    x: StepFunction,
    sequence,
    fam_domain: PseudometricFamily,
    fam_image: PseudometricFamily,
    index,
    tol: float = 1e-9,
) -> T2Report:
    """Track a shrinking sequence x_n -> x through a pushforward.

    Per row: the domain-family distance max over all indices, the distance of
    (x_n, x) under the pulled-back pseudometric, and the distance of the
    pushed-forward pair under the image index metric.  The last two are the
    same infimum written two ways and must agree to ``tol``.
    """
    zeta = fam_image.metric(index)
    pulled = PulledBack(value_map, zeta)
    pushed_x = pushforward(value_map, x)
    rows = []
    for n, xn in enumerate(sequence, start=1):
        base = max(
            skorohod_distance(xn, x, fam_domain.metric(i)).value
            for i in fam_domain.indices()
        )
        pb = skorohod_distance(xn, x, pulled).value
        pf = skorohod_distance(pushforward(value_map, xn), pushed_x, zeta).value
        rows.append(T2Row(n, base, pb, pf))
    identity_ok = all(r.identity_gap <= tol for r in rows)
    thresholds = {}
    for k in (1, 2, 3):
        level = 10.0 ** (-k) + tol
        first = None
        for r in reversed(rows):
            if r.pushed_distance <= level:
                first = r.n
            else:
                break
        thresholds[k] = first
    return T2Report(rows, identity_ok, thresholds, tol)
