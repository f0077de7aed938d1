"""Named verification suites, shared by the CLI and the acceptance tests.

Every runner is deterministic given its seed and returns a plain dict with a
"pass" verdict plus enough detail to see what ran.  The acceptance tests call
the same runners with their pinned parameters.
"""

from __future__ import annotations

import inspect
import random

from .cadlag import compose_time_change
from .counterexample import k_isolation_witness, split_extension_discontinuity_report
from .distance import (
    OracleInstance,
    bisect_distance,
    candidate_thresholds,
    check_certificate,
    feasible,
    skorohod_distance,
    uniform_distance,
)
from .maps import Identity, Project, SquareCoords
from .pseudometric import (
    Discrete,
    Euclidean,
    check_axioms,
    coordinate_family,
    euclidean_family,
)
from .sampling import (
    box_value,
    conditioned_perturbation_sampler,
    random_step_function,
    random_time_change,
    scalar_level_value,
    shifted_sequence,
    unit_square_value,
)
from .topology import t1_transfer_check, t2_continuity_check

ABS = Euclidean()  # |a - b| on scalars stored as 1-vectors
MAXCOORD_2D = coordinate_family(2).metric(frozenset({1, 2}))
# Slack for bounds that compare distances of different pairs, or a distance
# with a float time change's deviation: a float sum or a rounded inverse may
# land a few ulps past the real bound.
_TOL = 1e-9


def _pair_sampler(rng, case: int, max_jumps: int):
    """Alternate scalar level-valued and planar uniform-valued pairs."""
    if case % 2 == 0:
        vs = scalar_level_value
        metric = ABS
    else:
        vs = unit_square_value
        metric = MAXCOORD_2D
    x = random_step_function(rng, max_jumps, vs)
    y = random_step_function(rng, max_jumps, vs)
    return x, y, metric


def run_axioms(seed: int = 0, trials: int = 200) -> dict:
    """Pseudometric axioms of the Skorohod distance on random triples, plus
    pointwise axiom checks of the value metrics themselves."""
    rng = random.Random(seed)
    failures = []
    for case in range(trials):
        if case % 2 == 0:
            vs, metric = scalar_level_value, ABS
        else:
            vs, metric = unit_square_value, MAXCOORD_2D
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        z = random_step_function(rng, 4, vs)
        dxx = skorohod_distance(x, x, metric).value
        dxy = skorohod_distance(x, y, metric).value
        dyx = skorohod_distance(y, x, metric).value
        dxz = skorohod_distance(x, z, metric).value
        dyz = skorohod_distance(y, z, metric).value
        if dxx != 0.0:
            failures.append({"case": case, "kind": "identity", "value": dxx})
        if dxy != dyx:
            failures.append({"case": case, "kind": "symmetry", "value": abs(dxy - dyx)})
        if dxz > dxy + dyz + _TOL:
            failures.append(
                {"case": case, "kind": "triangle", "value": dxz - dxy - dyz}
            )
    value_triples = [
        (unit_square_value(rng), unit_square_value(rng), unit_square_value(rng))
        for _ in range(100)
    ]
    for metric in (Euclidean(), Discrete(), MAXCOORD_2D):
        if check_axioms(metric, value_triples):
            failures.append({"kind": "value_metric", "metric": str(metric)})
    return {
        "name": "axioms",
        "seed": seed,
        "cases": trials,
        "failures": failures,
        "pass": not failures,
    }


def run_oracle(seed: int = 0, trials: int = 500) -> dict:
    """Dynamic program against the brute-force oracle: distances are equal,
    and feasibility agrees at every candidate threshold.  Bisection comes
    along as a second cross-check and gives the same float."""
    rng = random.Random(seed)
    failures = []
    worst = 0.0
    for case in range(trials):
        x, y, metric = _pair_sampler(rng, case, 4)
        got = skorohod_distance(x, y, metric).value
        oracle = OracleInstance(x, y, metric)
        want = oracle.distance()
        worst = max(worst, abs(got - want))
        if got != want:
            failures.append({"case": case, "kind": "distance", "got": got, "want": want})
            continue
        for eps in candidate_thresholds(x, y, metric):
            if feasible(x, y, eps, metric)[0] != oracle.feasible_at(eps):
                failures.append({"case": case, "kind": "feasibility", "eps": eps})
                break
        via_bisect = bisect_distance(x, y, metric)
        if via_bisect != got:
            failures.append(
                {"case": case, "kind": "bisect", "got": got, "bisect": via_bisect}
            )
    return {
        "name": "oracle",
        "seed": seed,
        "cases": trials,
        "worst_gap": worst,
        "failures": failures,
        "pass": not failures,
    }


def run_certificates(seed: int = 0, trials: int = 100) -> dict:
    """Certificate soundness plus the bound chain: the certified bound holds,
    the distance never exceeds the uniform distance, and composing with a
    random time change moves a function by at most the warp deviation."""
    rng = random.Random(seed)
    failures = []
    for case in range(trials):
        x, y, metric = _pair_sampler(rng, case, 4)
        res = skorohod_distance(x, y, metric)
        ok, bound = check_certificate(x, y, metric, res.value, res.certificate)
        if not ok:
            failures.append({"case": case, "kind": "certificate", "bound": bound})
        if res.value > uniform_distance(x, y, metric):
            failures.append({"case": case, "kind": "uniform_bound"})
        lam = random_time_change(rng)
        warped = compose_time_change(x, lam)
        if skorohod_distance(warped, x, metric).value > lam.warp_deviation() + _TOL:
            failures.append({"case": case, "kind": "warp_bound"})
    return {
        "name": "certificates",
        "seed": seed,
        "cases": trials,
        "failures": failures,
        "pass": not failures,
    }


def run_transfer(
    seed: int = 0, x_count: int = 5, trials: int = 20, eps: float = 0.2
) -> dict:
    """Transfer check between the Euclidean family and the coordinate
    max-closure on the plane, in both directions."""
    rng = random.Random(seed)
    coords = coordinate_family(2)
    euclid = euclidean_family()
    total = 0
    violations = 0
    for case in range(x_count):
        x = random_step_function(rng, 4, lambda r: box_value(r))
        sampler = conditioned_perturbation_sampler(x)
        for coarse, fine, index in (
            (euclid, coords, frozenset({1})),
            (coords, euclid, coords.full_index()),
        ):
            report = t1_transfer_check(
                x, coarse, fine, index, eps, sampler, trials, rng=rng
            )
            total += report.trials
            violations += len(report.violations)
    return {
        "name": "transfer",
        "seed": seed,
        "eps": eps,
        "cases": total,
        "violations": violations,
        "pass": violations == 0,
    }


def run_pushforward(seed: int = 0, base_count: int = 5, depth: int = 20) -> dict:
    """Pushforward identity along shrinking sequences for the registered maps."""
    rng = random.Random(seed)
    coords2 = coordinate_family(2)
    coords1 = coordinate_family(1)
    failures = []
    cases = 0
    for case in range(base_count):
        x = random_step_function(rng, 4, lambda r: box_value(r, -0.8, 0.8))
        sequence = shifted_sequence(x, depth, rng)
        for value_map, fam_image, index in (
            (Identity(), coords2, coords2.full_index()),
            (Project((1,)), coords1, frozenset({1})),
            (SquareCoords(), coords2, coords2.full_index()),
        ):
            cases += 1
            report = t2_continuity_check(value_map, x, sequence, fam_image, index)
            if not report.identity_ok:
                failures.append({"case": case, "map": type(value_map).__name__})
            if report.rows[-1].pushed_distance > 1e-2 + _TOL:
                failures.append(
                    {
                        "case": case,
                        "map": type(value_map).__name__,
                        "kind": "no_convergence",
                        "final": report.rows[-1].pushed_distance,
                    }
                )
    return {
        "name": "pushforward",
        "seed": seed,
        "cases": cases,
        "failures": failures,
        "pass": not failures,
    }


def run_example_k() -> dict:
    """All exact checks of the K-topology counterexample."""
    report = split_extension_discontinuity_report()
    return {
        "name": "example-k",
        "report": report.to_json_obj(),
        "isolation_witnesses": len(k_isolation_witness(report.truncation)),
        "tail_diverges_tauk": report.tail_diverges_tauk,
        "tail_converges_tau0": report.tail_converges_tau0,
        "pass": report.passed,
    }


SUITES = {
    "axioms": run_axioms,
    "oracle": run_oracle,
    "certificates": run_certificates,
    "transfer": run_transfer,
    "pushforward": run_pushforward,
    "example-k": run_example_k,
}


def run_suites(names, seed: int = 0, trials: int | None = None, eps: float | None = None):
    """Run the named suites with a shared seed; returns the summary dict.

    Each runner gets ``seed``, and ``trials`` and ``eps`` when given, if its
    signature has a parameter of that name."""
    given = {"seed": seed, "trials": trials, "eps": eps}
    results = []
    for name in names:
        runner = SUITES[name]
        params = inspect.signature(runner).parameters
        kwargs = {k: v for k, v in given.items() if v is not None and k in params}
        results.append(runner(**kwargs))
    return {
        "seed": seed,
        "suites": results,
        "pass": all(r["pass"] for r in results),
    }
