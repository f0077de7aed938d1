"""Seeded random generators for step functions, values, and time changes."""

from __future__ import annotations

from .cadlag import StepFunction, make_step
from .distance import TimeChange

GRID_20 = tuple(k / 20 for k in range(1, 20))
SCALAR_LEVELS = (0.0, 0.3, 1.0)


def scalar_level_value(rng):
    return (rng.choice(SCALAR_LEVELS),)


def unit_square_value(rng):
    return (rng.random(), rng.random())


def box_value(rng, lo=-2.0, hi=2.0, dim=2):
    return tuple(rng.uniform(lo, hi) for _ in range(dim))


def random_times(rng, max_jumps, grid=GRID_20):
    m = rng.randint(0, min(max_jumps, len(grid)))
    return (0.0, *sorted(rng.sample(grid, m)))


def random_step_function(rng, max_jumps, value_sampler, grid=GRID_20) -> StepFunction:
    times = random_times(rng, max_jumps, grid)
    return make_step(times, [value_sampler(rng) for _ in times])


def random_time_change(rng, max_interior_knots=3) -> TimeChange:
    while True:
        k = rng.randint(0, max_interior_knots)
        ts = sorted(rng.uniform(0.05, 0.95) for _ in range(k))
        ls = sorted(rng.uniform(0.05, 0.95) for _ in range(k))
        knots = ((0.0, 0.0), *zip(ts, ls), (1.0, 1.0))
        if all(t1 > t0 and l1 > l0 for (t0, l0), (t1, l1) in zip(knots, knots[1:])):
            return TimeChange(knots)


def _ordered_times(jumps) -> list[float]:
    """0 followed by the moved jump times, kept strictly ordered inside (0, 1).

    Each time is pushed at least 1e-9 past its predecessor and at most to
    1 - 1e-9.  Times pushed past 1 pile up at the top; the pile is then laid
    back below 1, 1e-9 apart, keeping the times before it.
    """
    times = [0.0]
    prev = 0.0
    for nt in jumps:
        nt = min(max(nt, prev + 1e-9), 1.0 - 1e-9)
        if nt <= prev:
            nt = prev + 1e-9
        times.append(nt)
        prev = nt
    if times[-1] >= 1.0:
        cap = 1.0 - 1e-9
        for k in range(len(times) - 1, 0, -1):
            if times[k] < cap:
                break
            times[k] = cap
            cap -= 1e-9
    return times


def perturb(x: StepFunction, rng, time_scale: float, value_scale: float) -> StepFunction:
    """Jitter jump times (kept strictly ordered inside (0, 1)) and piece
    values coordinate-wise; vector-valued x only."""
    jumps = (t + rng.uniform(-time_scale, time_scale) for t in x.times[1:])
    times = _ordered_times(jumps)
    values = [
        tuple(c + rng.uniform(-value_scale, value_scale) for c in v) for v in x.values
    ]
    return make_step(times, values)


def conditioned_perturbation_sampler(x: StepFunction):
    """Sampler for transfer checks: called as sample(rng, bound).

    Proposal scales track the conditioning radius with a random overshoot
    factor, so most draws land inside the target ball but rejection still has
    work to do."""

    def sample(rng, bound: float) -> StepFunction:
        w = rng.uniform(0.0, 1.3)
        return perturb(x, rng, 0.8 * bound * w, 0.5 * bound * w)

    return sample


def shifted_sequence(x: StepFunction, depth: int, rng) -> list[StepFunction]:
    """x_n = x with jump times shifted by up to 1/(10n) and values shifted by
    1/(10n) in a random fixed direction per piece; converges to x."""
    directions_t = [rng.choice((-1.0, 1.0)) for _ in x.times[1:]]
    directions_v = [
        tuple(rng.choice((-1.0, 1.0)) for _ in v) for v in x.values
    ]
    out = []
    for n in range(1, depth + 1):
        shift = 1.0 / (10.0 * n)
        jumps = (t + sgn * shift for t, sgn in zip(x.times[1:], directions_t))
        times = _ordered_times(jumps)
        values = [
            tuple(c + sgn * shift for c, sgn in zip(v, sgns))
            for v, sgns in zip(x.values, directions_v)
        ]
        out.append(make_step(times, values))
    return out
