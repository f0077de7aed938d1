"""Seeded inputs, the timed operation and the per-op correctness gate of each
workload.

Nothing here imports skorodist: ``run.py`` imports the package itself (several
times, to time set-up) and passes it in as ``lib``.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

# Slack on the reference comparison and on the [lower, uniform] bounds check:
# the library's certificate tolerance.
TOL = 1e-9

TRANSFER_TRIALS = 100


def _jump_times(rng, m, margin=0.0):
    """0 followed by m distinct off-grid jump times in (margin, 1 - margin)."""
    ts = set()
    while len(ts) < m:
        t = margin + (1.0 - 2.0 * margin) * rng.random()
        if t > margin:
            ts.add(t)
    return (0.0, *sorted(ts))


def audit(lib, api, x, y, d, result, probe):
    """Check one distance result from outside: its certificate, and its value
    against [max(d(x(0), y(0)), d(x(1), y(1))), uniform distance]."""
    if probe:
        api.feasible(x, y, result.value, d)
    ok, bound = api.check_certificate(x, y, d, result.value, result.certificate)
    if not ok:
        return f"certificate bound {bound} exceeds {result.value}"
    lower = max(d(x(0.0), y(0.0)), d(x(1.0), y(1.0)))
    upper = lib.uniform_distance(x, y, d)
    if not lower - TOL <= result.value <= upper + TOL:
        return f"value {result.value} outside [{lower}, {upper}]"
    return None


class PairWorkload:
    """One op is one ``skorohod_distance`` call on a seeded pair."""

    op_span = "distance.skorohod_distance"

    def __init__(self, pairs, jumps, make_pair, metric):
        self.pairs = pairs
        self.jumps = jumps
        self._make_pair = make_pair
        self._metric = metric

    def setup(self, lib, seed):
        rng = random.Random(seed)
        d = self._metric(lib)
        return [
            SimpleNamespace(d=d, pair=self._make_pair(lib, rng, self.jumps))
            for _ in range(self.pairs)
        ]

    @staticmethod
    def run(api, op):
        x, y = op.pair
        return api.skorohod_distance(x, y, op.d)

    @staticmethod
    def check(lib, api, op, result, ref, probe):
        """Reason the op failed, or None.  With ``probe`` (traced runs) it also
        makes one feasibility probe at the returned value."""
        x, y = op.pair
        reason = audit(lib, api, x, y, op.d, result, probe)
        if reason is None and ref is not None and abs(result.value - ref) > TOL:
            reason = f"value {result.value} differs from reference {ref}"
        return reason

    @staticmethod
    def accepted(result):
        return 0

    @staticmethod
    def reference_of(result):
        return result.value


def _near_pair(lib, rng, m):
    # Time jitter below the mean jump spacing, value jitter 0.01: the distance
    # is about 0.01 while the uniform distance is close to 1.  The margin keeps
    # jittered jumps inside (0, 1); perturb emits a jump at 1.0 when two
    # jumps are pushed past 1.
    jitter = 0.5 / (m + 1)
    times = _jump_times(rng, m, jitter)
    x = lib.make_step(times, [(rng.random(),) for _ in times])
    y = lib.sampling.perturb(x, rng, jitter, 0.01)
    return x, y


def _far_pair(lib, rng, m):
    def one():
        times = _jump_times(rng, m)
        return lib.make_step(times, [(rng.random(), rng.random()) for _ in times])

    return one(), one()


def _max_coordinate(lib):
    family = lib.coordinate_family(2)
    return family.metric(family.full_index())


class TransferWorkload:
    """One op is the four ``t1_transfer_check`` calls of acceptance criterion 5
    on one step function: eps in {0.2, 0.05}, both directions between the
    Euclidean and the coordinate family, 100 accepted trials each.

    The op is the function, not a single check, because the two directions
    cost very different amounts (the Euclidean-to-coordinates direction has
    an analytic modulus, the other direction searches for one), so single
    checks have a two-cluster time whose median jumps between the clusters.
    """

    op_span = "topology.transfer_checks"
    functions = 50
    eps_values = (0.2, 0.05)

    def setup(self, lib, seed):
        rng = random.Random(seed)
        euclid, coords = lib.euclidean_family(), lib.coordinate_family(2)
        directions = (
            (euclid, coords, frozenset({1})),
            (coords, euclid, coords.full_index()),
        )
        ops = []
        for k in range(self.functions):
            # Jump counts cycle through 0..4 rather than being drawn: the cost
            # of an op grows with them, and a drawn mix would move the median
            # from seed to seed.
            times = (0.0, *sorted(rng.sample(lib.sampling.GRID_20, k % 5)))
            x = lib.make_step(times, [lib.sampling.box_value(rng) for _ in times])
            checks = [
                SimpleNamespace(coarse=coarse, fine=fine, index=index, eps=eps)
                for eps in self.eps_values
                for coarse, fine, index in directions
            ]
            sampler = lib.sampling.conditioned_perturbation_sampler(x)
            ops.append(SimpleNamespace(
                x=x, checks=checks, sampler=sampler, seed=seed * 1000 + k
            ))
        return ops

    @staticmethod
    def run(api, op):
        # A fresh generator per op, so that rerunning an op repeats it exactly.
        rng = random.Random(op.seed)
        sampler = api.sampler(op.sampler)
        return [
            api.t1_transfer_check(
                op.x, c.coarse, c.fine, c.index, c.eps, sampler, TRANSFER_TRIALS,
                rng=rng,
            )
            for c in op.checks
        ]

    @staticmethod
    def check(lib, api, op, result, ref, probe):
        for k, (c, report) in enumerate(zip(op.checks, result)):
            if report.violations:
                return f"{len(report.violations)} transfer violations"
            if report.trials < TRANSFER_TRIALS:
                return f"only {report.trials} trials"
            delta = report.modulus.delta
            if ref is not None and abs(delta - ref[k]) > TOL:
                return f"modulus delta {delta} differs from reference {ref[k]}"
            # A report carries no distance result, so audit one fine-distance
            # solve of the check's own shape: x against a draw of its sampler.
            d = c.fine.metric(report.modulus.index)
            y = op.sampler(random.Random(op.seed + k), min(delta, c.eps))
            reason = audit(lib, api, op.x, y, d, lib.skorohod_distance(op.x, y, d), probe)
            if reason is not None:
                return reason
        return None

    @staticmethod
    def accepted(result):
        return sum(report.trials for report in result)

    @staticmethod
    def reference_of(result):
        return [report.modulus.delta for report in result]


WORKLOADS = {
    "near": PairWorkload(72, 256, _near_pair, lambda lib: lib.Euclidean()),
    "far": PairWorkload(200, 128, _far_pair, _max_coordinate),
    "transfer": TransferWorkload(),
}
