"""Acceptance suite: one test per criterion, pinned tolerances, seeded runs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from skorodist.cadlag import compose_time_change, make_step
from skorodist.cli import main as cli_main
from skorodist.counterexample import (
    EXCLUDE_ALL,
    TauKNeighborhood,
    converges,
    f_example,
    f_left_limit,
    in_k,
    k_isolation_witness,
    reciprocal_tail,
    split_extension_discontinuity_report,
)
from skorodist.distance import oracle_distance, skorohod_distance, uniform_distance
from skorodist.pseudometric import Euclidean, coordinate_family, euclidean_family
from skorodist.sampling import (
    box_value,
    random_step_function,
    random_time_change,
    scalar_level_value,
    unit_square_value,
)
from skorodist.suites import (
    _pair_sampler,
    run_axioms,
    run_oracle,
    run_pushforward,
    run_transfer,
)
from skorodist.topology import uniform_modulus

TOL = 1e-9
SEED = 20260809

ABS = Euclidean()
COORDS = coordinate_family(2)
MAXC = COORDS.metric({1, 2})
# The README's family.json: the coordinate family of the plane.
FAMILY_JSON = """{"space": {"dim": 2},
 "generators": [{"kind": "coordinate", "k": 1}, {"kind": "coordinate", "k": 2}]}
"""
EUCLID = euclidean_family()


@pytest.fixture(scope="module")
def c1_results():
    """The 500 seeded pairs of criterion 1: m, p <= 4, jump times on {k/20},
    values alternating between the scalar levels {0, 0.3, 1} and uniform
    [0, 1]^2."""
    rng = random.Random(SEED)
    pairs = [_pair_sampler(rng, case, 4) for case in range(500)]
    return [(x, y, d, skorohod_distance(x, y, d)) for x, y, d in pairs]


def test_criterion_1_oracle_equivalence():
    # run_oracle draws the same 500 pairs as c1_results and asserts equal
    # distances, agreement at every candidate threshold, and bisection
    start = time.time()
    assert run_oracle(seed=SEED, trials=500)["pass"]
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[acceptance] criterion 1 (oracle equivalence, 500 pairs, "
          f"{elapsed:.1f}s): PASS")


def indicator(a):
    return make_step([0.0, a], [0.0, 1.0])


def test_criterion_2_indicator_shift_law():
    # the law itself is validated by the oracle at spot points first
    spots = [(0.1, 0.2), (0.3, 0.9), (0.5, 0.5), (0.8, 0.1), (0.4, 0.6)]
    for a, b in spots:
        want = min(abs(a - b), 1.0)
        assert abs(oracle_distance(indicator(a), indicator(b), ABS) - want) <= TOL
    grid = [k / 10 for k in range(1, 10)]
    for a in grid:
        for b in grid:
            got = skorohod_distance(indicator(a), indicator(b), ABS).value
            assert abs(got - min(abs(a - b), 1.0)) <= TOL
    print("\n[acceptance] criterion 2 (indicator-shift law, 81 pairs): PASS")


def test_criterion_3_pseudometric_axioms():
    assert run_axioms(seed=SEED + 3, trials=200)["pass"]
    print("\n[acceptance] criterion 3 (pseudometric axioms, 200 triples): PASS")


def test_criterion_4_certificate_soundness(c1_results, tmp_path):
    def audit(x, y, res, use_family):
        xp = tmp_path / "x.json"
        yp = tmp_path / "y.json"
        rp = tmp_path / "res.json"
        xp.write_text(json.dumps(x.to_json_obj()))
        yp.write_text(json.dumps(y.to_json_obj()))
        rp.write_text(json.dumps(res.to_json_obj()))
        argv = [
            "certificate-check", str(xp), str(yp), str(rp),
            "--out", str(tmp_path / "audit.json"),
        ]
        if use_family:
            fam = tmp_path / "family.json"
            fam.write_text(FAMILY_JSON)
            argv += ["--family", str(fam), "--metric", "1,2"]
        assert cli_main(argv) == 0

    for x, y, d, res in c1_results:
        audit(x, y, res, use_family=d == MAXC)
    grid = [k / 10 for k in range(1, 10)]
    count = len(c1_results)
    for a in grid:
        for b in grid:
            x, y = indicator(a), indicator(b)
            audit(x, y, skorohod_distance(x, y, ABS), use_family=False)
            count += 1
    print(f"\n[acceptance] criterion 4 (certificate soundness, {count} "
          f"certificates): PASS")


def test_criterion_5_transfer():
    # 50 functions with <= 5 pieces, 100 conditioned trials per check, both
    # directions (coarse euclidean under fine coordinates, and swapped)
    checked = 0
    for eps in (0.2, 0.05):
        result = run_transfer(seed=SEED + 5, x_count=50, trials=100, eps=eps)
        assert result["cases"] == 10_000
        assert result["pass"]
        checked += result["cases"]
    print(f"\n[acceptance] criterion 5 (transfer, {checked} conditioned "
          f"samples, zero violations): PASS")


def test_criterion_6_pushforward_continuity():
    # pushforward identity within 1e-9 for all n <= 20, and final distance
    # <= 1e-2 + 1e-9
    assert run_pushforward(seed=SEED + 6, base_count=20, depth=20)["pass"]
    print("\n[acceptance] criterion 6 (pushforward identity + convergence, "
          "20 seeds x 3 maps): PASS")


def test_criterion_7_counterexample_exact():
    assert f_example(0) == 0 and f_example(1) == 0
    assert f_example(Fraction(1, 3)) == Fraction(5, 12)
    assert f_example(Fraction(9, 10)) == Fraction(19, 20)
    for n in range(1, 101):
        assert f_left_limit(Fraction(1, n)) == Fraction(1, n)
    for j in range(10_001):
        assert not in_k(f_example(Fraction(j, 10_000)))
    report = split_extension_discontinuity_report(
        truncation=50, piece_horizon=100, grid=10_000
    )
    assert report.passed
    assert converges(reciprocal_tail(1), 0, "tauk") is False
    witness = TauKNeighborhood(0, None, EXCLUDE_ALL)
    assert witness.contains(f_example(0))
    assert all(
        not witness.contains(f_left_limit(Fraction(1, n))) for n in range(1, 101)
    )
    for n, nbhd in enumerate(k_isolation_witness(50), start=1):
        hits = [m for m in range(1, 101) if nbhd.contains(Fraction(1, m))]
        assert hits == [n]
    print("\n[acceptance] criterion 7 (counterexample, exact arithmetic): PASS")


def test_criterion_8_time_change_bound(c1_results):
    rng = random.Random(SEED + 8)
    for case in range(100):
        vs = scalar_level_value if case % 2 == 0 else unit_square_value
        d = ABS if case % 2 == 0 else MAXC
        x = random_step_function(rng, 4, vs)
        lam = random_time_change(rng)
        warped = compose_time_change(x, lam)
        assert skorohod_distance(warped, x, d).value <= lam.warp_deviation() + TOL
    for x, y, d, res in c1_results:
        assert res.value <= uniform_distance(x, y, d)
    print("\n[acceptance] criterion 8 (time-change bound + uniform bound): PASS")


def test_criterion_5_modulus_succeeds_standalone():
    # explicit: uniform_modulus succeeds in both directions of criterion 5
    rng = random.Random(SEED + 55)
    for _ in range(10):
        x = random_step_function(rng, 4, lambda r: box_value(r))
        K = x.range_closure()
        for eps in (0.2, 0.05):
            m1 = uniform_modulus(COORDS, K, ABS, eps)
            assert m1.delta > 0
            m2 = uniform_modulus(EUCLID, K, MAXC, eps)
            assert m2.delta > 0
    print("\n[acceptance] criterion 5 addendum (uniform_modulus succeeds): PASS")
