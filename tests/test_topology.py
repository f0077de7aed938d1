import math
import random

import pytest

from skorodist.cadlag import ValueSpaceMismatch, compose_time_change, make_step
from skorodist.distance import skorohod_distance
from skorodist.maps import (
    AffineMap,
    Clamp,
    Identity,
    Project,
    SquareCoords,
    map_from_config,
)
from skorodist.pseudometric import (
    Coordinate,
    Discrete,
    Euclidean,
    PseudometricFamily,
    PulledBack,
    Scaled,
    coordinate_family,
    euclidean_family,
)
from skorodist.sampling import (
    box_value,
    conditioned_perturbation_sampler,
    perturb,
    random_step_function,
    random_time_change,
    shifted_sequence,
)
from skorodist.topology import (
    MAX_EPS,
    Modulus,
    ModulusValidationError,
    SamplerStarvation,
    _candidates_near,
    _post_validate,
    pushforward,
    t1_transfer_check,
    t2_continuity_check,
    uniform_modulus,
)

COORDS = coordinate_family(2)
EUCLID = euclidean_family()
K_PAIR = {(0.0, 0.0), (3.0, 4.0)}


# --- uniform modulus ---------------------------------------------------------


def test_modulus_identity_case():
    mod = uniform_modulus(EUCLID, K_PAIR, Euclidean(), 0.1, rng=random.Random(0))
    assert mod.index == frozenset({1})
    assert mod.delta == 0.05  # eps / 2


def test_modulus_coordinate_fast_path():
    mod = uniform_modulus(COORDS, K_PAIR, Euclidean(), 0.1, rng=random.Random(0))
    assert mod.index == frozenset({1, 2})
    assert mod.delta == pytest.approx(0.1 / (2 * math.sqrt(2)), abs=1e-15)


def test_modulus_coordinate_fast_path_rejection_validated():
    # the analytic radius survives dense rejection sampling around each point
    rng = random.Random(1)
    eps = 0.1
    delta = eps / (2 * math.sqrt(2))
    d_index = COORDS.metric({1, 2})
    for z in sorted(K_PAIR):
        hits = 0
        for _ in range(10_000):
            y = tuple(c + rng.uniform(-2 * delta, 2 * delta) for c in z)
            if d_index(z, y) < delta:
                hits += 1
                assert Euclidean()(z, y) < eps
        assert hits > 1000


def test_modulus_general_path():
    mod = uniform_modulus(
        EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1, rng=random.Random(2)
    )
    assert mod.index == frozenset({1})
    assert 0 < mod.delta <= 0.05


def test_modulus_soundness_sampled():
    rng = random.Random(3)
    mod = uniform_modulus(EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1, rng=rng)
    d_index = EUCLID.metric(mod.index)
    rho = COORDS.metric({1, 2})
    for z in sorted(K_PAIR):
        for _ in range(10_000):
            y = tuple(c + rng.uniform(-0.3, 0.3) for c in z)
            if d_index(z, y) < mod.delta:
                assert rho(z, y) < 0.1


def test_modulus_degenerate_family_fails():
    degenerate = PseudometricFamily([Coordinate(1)])
    with pytest.raises(ModulusValidationError):
        uniform_modulus(degenerate, K_PAIR, Euclidean(), 0.1, rng=random.Random(4))


def test_modulus_rejects_bad_inputs():
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, set(), Euclidean(), 0.1)
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, K_PAIR, Euclidean(), 0.0)
    # above MAX_EPS a sampling radius would overflow: rejected before any draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, K_PAIR, Euclidean(), math.nextafter(MAX_EPS, math.inf), rng=rng)
    assert rng.getstate() == state
    assert uniform_modulus(EUCLID, K_PAIR, Euclidean(), MAX_EPS, rng=rng).delta == MAX_EPS / 2


def test_modulus_on_label_space():
    from skorodist.pseudometric import Discrete, Scaled

    fam = PseudometricFamily([Discrete()])
    labels = {"idle", "busy", "halt"}
    # identity case
    mod = uniform_modulus(fam, labels, Discrete(), 0.4, rng=random.Random(0))
    assert mod.index == frozenset({1}) and mod.delta == 0.2
    # general path: balls over a finite alphabet are computed exactly
    mod2 = uniform_modulus(fam, labels, Scaled(0.5, Discrete()), 0.4, rng=random.Random(0))
    assert mod2.delta > 0


# Moduli and the next RNG draw after each call, recorded with the pairwise
# metric evaluation that ``Pseudometric.row`` replaced: batching the balls must
# change neither the radii nor the number or order of draws.
@pytest.mark.parametrize(
    "family, K, rho, eps, seed, index, delta, next_draw",
    [
        # fast path: rho is an index metric
        (EUCLID, K_PAIR, Euclidean(), 0.1, 0, {1}, 0.05, 0.6758287159496347),
        # fast path: Euclidean rho under the full coordinate family
        (COORDS, K_PAIR, Euclidean(), 0.1, 0, {1, 2}, 0.035355339059327376,
         0.6758287159496347),
        # general path on vectors
        (EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1, 2, {1}, 0.025,
         0.15930584948911575),
        # general path on labels: the alphabet is enumerated, nothing is drawn
        (PseudometricFamily([Discrete()]), {"idle", "busy", "halt"}, Scaled(0.5, Discrete()),
         0.4, 0, {1}, 0.2, 0.8444218515250481),
        # the first ball radius, 1.0, equals the distance between two labels:
        # balls are open, so only z is a hit and that radius validates
        (PseudometricFamily([Discrete()]), {"idle", "busy", "halt"}, Scaled(0.5, Discrete()),
         1.0, 0, {1}, 0.5, 0.8444218515250481),
    ],
)
def test_modulus_and_rng_stream_are_pinned(family, K, rho, eps, seed, index, delta,
                                           next_draw):
    rng = random.Random(seed)
    mod = uniform_modulus(family, K, rho, eps, rng=rng)
    assert mod.index == frozenset(index)
    assert mod.delta == delta
    assert rng.random() == next_draw


def test_candidates_and_post_validation_failure_are_pinned():
    assert _candidates_near((0.5, -1.0), 0.01, 0.3, random.Random(3), 3, None) == [
        (0.500884584505919, -0.9979215992280761),
        (0.23931731554388785, -0.9932506183580708),
        (0.49468661922093393, -1.0178418954865314),
    ]
    # a modulus that ignores the second coordinate fails at the first such y
    rng = random.Random(0)
    wrong = Modulus(frozenset({1}), 0.05)
    with pytest.raises(ModulusValidationError) as exc:
        _post_validate(COORDS, sorted(K_PAIR), Euclidean(), 0.1, wrong, rng, 2000, None)
    assert str(exc.value) == (
        f"modulus {wrong} failed post-validation at z=(0.0, 0.0), "
        "y=(-0.047532931274792856, -0.09834363696053627)"
    )
    assert rng.random() == 0.05729901434552842


def test_modulus_failure_and_rng_stream_are_pinned():
    rng = random.Random(4)
    with pytest.raises(ModulusValidationError) as exc:
        uniform_modulus(PseudometricFamily([Coordinate(1)]), K_PAIR, Euclidean(), 0.1, rng=rng)
    assert str(exc.value) == (
        "no radius down to 4.5474735088646414e-14 validated around (0.0, 0.0); "
        "rho is not controlled by the family there"
    )
    assert rng.random() == 0.0007246860484697581


# --- transfer check ----------------------------------------------------------


def test_transfer_same_family_trivial():
    rng = random.Random(5)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x,
        EUCLID,
        EUCLID,
        frozenset({1}),
        0.2,
        conditioned_perturbation_sampler(x),
        20,
        rng=rng,
    )
    assert report.passed
    assert report.modulus.delta == 0.1  # identity case: eps / 2
    assert report.trials == 20


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_transfer_euclid_vs_coordinates(eps):
    rng = random.Random(6)
    for _ in range(5):
        x = random_step_function(rng, 4, lambda r: box_value(r))
        sampler = conditioned_perturbation_sampler(x)
        fwd = t1_transfer_check(
            x, EUCLID, COORDS, frozenset({1}), eps, sampler, 25, rng=rng
        )
        assert fwd.passed and not fwd.violations
        swapped = t1_transfer_check(
            x, COORDS, EUCLID, COORDS.full_index(), eps, sampler, 25, rng=rng
        )
        assert swapped.passed and not swapped.violations


def test_transfer_report_and_rng_stream_are_pinned():
    rng = random.Random(7)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, COORDS, EUCLID, COORDS.full_index(), 0.05,
        conditioned_perturbation_sampler(x), 10, rng=rng,
    )
    assert report.to_json_obj() == {
        "modulus": {"delta": 0.0125, "index": [1]},
        "pass": True,
        "trials": 10,
        "violations": [],
    }
    assert rng.random() == 0.5097794002618546


def test_transfer_violations_report_exact_distances(monkeypatch):
    # A modulus radius sqrt(8) times too large for the Euclidean target: the
    # fine ball of max-coordinate radius eps reaches Euclidean distance
    # sqrt(2) * eps, so some accepted draws must break the transfer.
    eps, tol = 0.2, 1e-9

    def too_large(family, K, rho, eps, rng=None, samples=2000):
        return Modulus(family.full_index(), eps)

    def diagonal(rng, bound):
        # jittered jumps, and every value moved by s in both coordinates
        y, s = perturb(x, rng, 0.3 * bound, 0.0), bound * rng.random()
        return make_step(y.times, [(a + s, b + s) for a, b in y.values])

    monkeypatch.setattr("skorodist.topology.uniform_modulus", too_large)
    rng = random.Random(9)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, EUCLID, COORDS, frozenset({1}), eps, diagonal, 40, rng=rng, tol=tol
    )
    assert report.trials == 40
    assert len(report.violations) == 6
    bound = min(report.modulus.delta, eps)
    fine, coarse = COORDS.metric(report.modulus.index), Euclidean()
    for y, fine_distance, coarse_distance in report.violations:
        assert fine_distance < bound and coarse_distance > eps + tol
        assert fine_distance == skorohod_distance(x, y, fine).value
        assert coarse_distance == skorohod_distance(x, y, coarse).value
    assert rng.random() == 0.30901799675437147


def test_transfer_acceptance_is_strict_at_the_bound():
    # eps = 0.2 under one Euclidean family: delta = eps / 2 = 0.1 = bound.
    # A draw at distance exactly 0.1 is outside the open fine ball.
    x = make_step([0.0], [(0.0, 0.0)])

    def moved_by(shift):
        return lambda rng, bound: make_step([0.0], [(shift, 0.0)])

    with pytest.raises(SamplerStarvation):
        t1_transfer_check(
            x, EUCLID, EUCLID, frozenset({1}), 0.2, moved_by(0.1), 3,
            rng=random.Random(0), max_attempts_factor=2, modulus_samples=50,
        )
    report = t1_transfer_check(
        x, EUCLID, EUCLID, frozenset({1}), 0.2, moved_by(math.nextafter(0.1, 0.0)),
        3, rng=random.Random(0), max_attempts_factor=2, modulus_samples=50,
    )
    assert report.modulus.delta == 0.1
    assert report.trials == 3 and report.passed


def test_transfer_report_json_shape():
    rng = random.Random(7)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, EUCLID, COORDS, frozenset({1}), 0.2,
        conditioned_perturbation_sampler(x), 5, rng=rng,
    )
    obj = report.to_json_obj()
    assert obj["pass"] is True
    assert obj["trials"] == 5
    assert obj["violations"] == []


def test_transfer_degenerate_fine_family_signals():
    rng = random.Random(8)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    with pytest.raises(ModulusValidationError):
        t1_transfer_check(
            x,
            EUCLID,
            PseudometricFamily([Coordinate(1)]),
            frozenset({1}),
            0.2,
            conditioned_perturbation_sampler(x),
            5,
            rng=rng,
        )


# --- pushforward -------------------------------------------------------------


def test_pushforward_identity_normalizes():
    x = make_step([0.0, 0.5], [[1.0], [1.0]])
    assert pushforward(Identity(), x) == x.normalize()


def test_pushforward_projection_merges():
    x = make_step([0.0, 0.5], [[1.0, 2.0], [1.0, 7.0]])
    assert pushforward(Project((1,)), x) == make_step([0.0], [[1.0]])


def test_pushforward_square_indicator():
    x = make_step([0.0, 0.5], [0.0, 1.0])
    assert pushforward(SquareCoords(), x) == x


def test_pushforward_dimension_mismatch():
    x = make_step([0.0], [[1.0]])
    with pytest.raises(ValueSpaceMismatch):
        pushforward(Project((2,)), x)


def test_pushforward_commutes_with_time_change():
    rng = random.Random(9)
    for _ in range(20):
        x = random_step_function(rng, 4, lambda r: box_value(r))
        lam = random_time_change(rng)
        left = pushforward(SquareCoords(), compose_time_change(x, lam)).normalize()
        right = compose_time_change(pushforward(SquareCoords(), x), lam).normalize()
        assert left.values == right.values
        assert left.times == pytest.approx(right.times, abs=1e-12)


def test_map_registry_round_trip():
    maps = (
        Identity(),
        Project((2, 1)),
        SquareCoords(),
        Clamp(-1.0, 1.0),
        AffineMap(((1.0, 0.5), (0.0, 2.0)), (0.1, -0.2)),
    )
    for m in maps:
        assert map_from_config(m.to_config()) == m


def test_affine_map_applies():
    m = AffineMap(((1.0, 0.5), (0.0, 2.0)), (0.1, -0.2))
    assert m((2.0, 4.0)) == (2.0 + 2.0 + 0.1, 8.0 - 0.2)
    with pytest.raises(ValueSpaceMismatch):
        m((1.0,))


# --- pushforward continuity --------------------------------------------------


def test_t2_identity_map_is_exact():
    rng = random.Random(10)
    x = random_step_function(rng, 4, lambda r: box_value(r, -0.8, 0.8))
    seq = shifted_sequence(x, 10, rng)
    report = t2_continuity_check(
        Identity(), x, seq, COORDS, COORDS, COORDS.full_index()
    )
    assert report.identity_ok
    for row, xn in zip(report.rows, seq):
        want = skorohod_distance(xn, x, COORDS.metric(COORDS.full_index())).value
        assert row.pushed_distance == pytest.approx(want, abs=1e-12)


def test_t2_constant_sequence_is_zero():
    rng = random.Random(11)
    x = random_step_function(rng, 4, lambda r: box_value(r, -0.8, 0.8))
    report = t2_continuity_check(
        SquareCoords(), x, [x] * 5, COORDS, COORDS, COORDS.full_index()
    )
    assert report.identity_ok
    assert all(r.pushed_distance == 0.0 for r in report.rows)
    assert all(r.base_distance == 0.0 for r in report.rows)


@pytest.mark.parametrize(
    "value_map, image_family, index",
    [
        (Identity(), COORDS, frozenset({1, 2})),
        (Project((1,)), coordinate_family(1), frozenset({1})),
        (SquareCoords(), COORDS, frozenset({1, 2})),
    ],
)
def test_t2_shrinking_sequences(value_map, image_family, index):
    rng = random.Random(12)
    for _ in range(4):
        x = random_step_function(rng, 4, lambda r: box_value(r, -0.8, 0.8))
        seq = shifted_sequence(x, 20, rng)
        report = t2_continuity_check(value_map, x, seq, COORDS, image_family, index)
        assert report.identity_ok  # the pushforward identity, within 1e-9 per row
        assert report.rows[-1].pushed_distance <= 1e-2 + 1e-9
        assert report.passed
        # the pulled-back column is literally the same infimum
        zeta = image_family.metric(index)
        pulled = PulledBack(value_map, zeta)
        row = report.rows[-1]
        assert row.pulled_back_distance == pytest.approx(
            skorohod_distance(seq[-1], x, pulled).value, abs=1e-12
        )
