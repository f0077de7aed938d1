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
    MaxOf,
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
    MIN_EPS,
    Modulus,
    ModulusValidationError,
    SamplerStarvation,
    pushforward,
    t1_transfer_check,
    t2_continuity_check,
    uniform_modulus,
)

COORDS = coordinate_family(2)
EUCLID = euclidean_family()
MAXC = COORDS.metric({1, 2})
K_PAIR = {(0.0, 0.0), (3.0, 4.0)}
LABELS = {"idle", "busy", "halt"}
DISCRETE = PseudometricFamily([Discrete()])

# One (family, K, rho) per rule of the analytic modulus.
BUILT_IN_RULES = [
    (EUCLID, K_PAIR, Euclidean()),  # rho is an index metric
    (COORDS, K_PAIR, Euclidean()),  # Euclidean under the coordinates
    (PseudometricFamily([MAXC]), K_PAIR, Euclidean()),  # ... under their maximum
    (EUCLID, K_PAIR, MAXC),  # the coordinate maximum under Euclidean
    (PseudometricFamily([MAXC]), K_PAIR, Coordinate(2)),  # under a MaxOf
    (EUCLID, K_PAIR, Scaled(0.0, Coordinate(1))),
    (EUCLID, K_PAIR, Scaled(0.5, Coordinate(1))),
    (COORDS, K_PAIR, Scaled(3.0, Euclidean())),
    (COORDS, K_PAIR, MaxOf((Coordinate(1), Scaled(3.0, Coordinate(2))))),
    (DISCRETE, LABELS, Discrete()),  # labels
    (DISCRETE, LABELS, Scaled(0.5, Discrete())),
    (PseudometricFamily([Scaled(2.0, Euclidean())]), K_PAIR, Euclidean()),  # scaled d
    (PseudometricFamily([Scaled(0.5, Euclidean())]), K_PAIR, Euclidean()),
]


def _candidates_near(z, r_tight, r_wide, rng, n):
    """n candidates around the vector z, each coordinate drawn from the tight
    or the wide radius independently: the balls the modulus search drew when
    it sampled, kept here to check the proved moduli against."""
    out = []
    for _ in range(n):
        coords = []
        for c in z:
            r = r_tight if rng.random() < 0.5 else r_wide
            coords.append(c + rng.uniform(-r, r))
        out.append(tuple(coords))
    return out


def _forbid_draws(monkeypatch):
    def drawn(self):
        raise AssertionError("a modulus drew a random number")

    monkeypatch.setattr(random.Random, "random", drawn)


# --- uniform modulus ---------------------------------------------------------


def test_modulus_identity_case():
    mod = uniform_modulus(EUCLID, K_PAIR, Euclidean(), 0.1)
    assert mod.index == frozenset({1})
    assert mod.delta == 0.05  # eps / 2


def test_modulus_coordinate_fast_path():
    mod = uniform_modulus(COORDS, K_PAIR, Euclidean(), 0.1)
    assert mod.index == frozenset({1, 2})
    assert mod.delta == 0.1 / (2 * math.sqrt(2))


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
    mod = uniform_modulus(EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1)
    assert mod.index == frozenset({1})
    assert 0 < mod.delta <= 0.05


def test_modulus_soundness_sampled():
    rng = random.Random(3)
    mod = uniform_modulus(EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1)
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
        uniform_modulus(degenerate, K_PAIR, Euclidean(), 0.1)


def test_modulus_gives_up_unbounded_targets():
    # A pulled-back or plain-callable vector target has no structural bound,
    # even where it is continuous for the family: it gets no modulus.
    for rho in (PulledBack(SquareCoords(), Euclidean()), lambda a, b: Euclidean()(a, b)):
        with pytest.raises(ModulusValidationError, match="no structural rule"):
            uniform_modulus(COORDS, K_PAIR, rho, 0.1)


def test_plain_callables_on_labels_get_the_exact_modulus():
    # the label balls are enumerated by plain calls of the target and of a
    # callable generator
    half = lambda a, b: 0.5 * Discrete()(a, b)  # noqa: E731
    assert uniform_modulus(DISCRETE, LABELS, half, 0.4) == Modulus(frozenset({1}), 0.2)
    family = PseudometricFamily([half])
    # the generator puts the other labels at 0.5, inside the ball of radius
    # 2 * 0.5 and outside the one of radius 2 * 0.25
    assert uniform_modulus(family, LABELS, Discrete(), 1.0) == Modulus(frozenset({1}), 0.25)
    assert uniform_modulus(family, LABELS, half, 0.4) == Modulus(frozenset({1}), 0.2)


def test_index_metric_is_found_without_enumerating_indices(monkeypatch):
    def enumerated(self):
        raise AssertionError("enumerated all 2**n - 1 indices")

    monkeypatch.setattr(PseudometricFamily, "indices", enumerated)
    moduli = [uniform_modulus(family, K, rho, 0.1) for family, K, rho in BUILT_IN_RULES]
    assert [(sorted(m.index), m.delta) for m in moduli] == [
        ([1], 0.05), ([1, 2], 0.035355339059327376), ([1], 0.0125), ([1], 0.025),
        ([1], 0.025), ([1], 0.05), ([1], 0.05), ([1, 2], 0.003125), ([1, 2], 0.00625),
        ([1], 0.05), ([1], 0.05), ([1], 0.05), ([1], 0.0125),
    ]
    # the first match in indices() order: {1, 2}, not {1, 4}, {3, 2} or {3, 4}
    c1, c2 = Coordinate(1), Coordinate(2)
    duplicated = PseudometricFamily([c1, c2, c1, c2])
    mod = uniform_modulus(duplicated, K_PAIR, MaxOf((c1, c2)), 0.1)
    assert mod == Modulus(frozenset({1, 2}), 0.05)
    # 2**20 - 1 indices would take seconds to enumerate
    wide, z = coordinate_family(20), {tuple(float(k) for k in range(20))}
    assert uniform_modulus(wide, z, Euclidean(), 0.1) == Modulus(
        wide.full_index(), 0.011180339887498949
    )
    mod = uniform_modulus(wide, z, MaxOf((Coordinate(3), Coordinate(7))), 0.1)
    assert mod == Modulus(frozenset({3, 7}), 0.05)


def test_modulus_rejects_bad_inputs():
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, set(), Euclidean(), 0.1)
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, K_PAIR, Euclidean(), 0.0)
    with pytest.raises(ValueError):
        uniform_modulus(EUCLID, K_PAIR, Euclidean(), math.nextafter(MAX_EPS, math.inf))
    assert uniform_modulus(EUCLID, K_PAIR, Euclidean(), MAX_EPS).delta == MAX_EPS / 2


def test_modulus_rejects_eps_below_the_smallest_normal_float():
    # eps / (2 sqrt(2)) of a subnormal eps can round to 0: rejected, like an
    # eps above MAX_EPS
    for eps in (5e-324, math.nextafter(MIN_EPS, 0.0)):
        with pytest.raises(ValueError, match="eps must lie in"):
            uniform_modulus(COORDS, K_PAIR, Euclidean(), eps)
    assert uniform_modulus(COORDS, K_PAIR, Euclidean(), MIN_EPS).delta > 0
    # the deepest radius, eps / 2**40, is still positive at MIN_EPS
    deepest = uniform_modulus(EUCLID, K_PAIR, Scaled(2.0**38, Coordinate(1)), MIN_EPS)
    assert deepest.delta == MIN_EPS / 2.0**40 > 0


def test_built_in_moduli_survive_the_sampled_balls():
    # The balls the modulus search used to draw: around every point of K,
    # candidates at the tight radius delta and the wide radius delta + 2 eps.
    # Every candidate inside the index ball of radius delta has rho < eps.
    rng = random.Random(13)
    for family, K, rho in BUILT_IN_RULES:
        for eps in (0.2, 0.05):
            mod = uniform_modulus(family, K, rho, eps)
            d_index = family.metric(mod.index)
            for z in sorted(K, key=repr):
                if isinstance(z, str):
                    cands = sorted(K)
                else:
                    cands = _candidates_near(z, mod.delta, mod.delta + 2 * eps, rng, 2000)
                hits = [y for y in cands if d_index(z, y) < mod.delta]
                assert isinstance(z, str) or len(hits) >= 20
                assert all(rho(z, y) < eps for y in hits), (rho, z)


def test_built_in_moduli_and_transfer_checks_never_sample(monkeypatch):
    rng = random.Random(14)
    x = random_step_function(rng, 4, lambda r: box_value(r))
    with monkeypatch.context() as patched:
        _forbid_draws(patched)
        for family, K, rho in BUILT_IN_RULES:
            uniform_modulus(family, K, rho, 0.1)
    # both directions of the transfer suite and benchmark
    sampler = conditioned_perturbation_sampler(x)
    for coarse, fine, index in ((EUCLID, COORDS, {1}), (COORDS, EUCLID, {1, 2})):
        report = t1_transfer_check(x, coarse, fine, index, 0.05, sampler, 5, rng=rng)
        assert report.violations == []


def test_structural_modulus_is_the_sampled_one():
    # The radii the covering search converged to when it sampled its balls:
    # eps / 4 for the coordinate maximum under Euclidean, eps / 8 for
    # Euclidean under the coordinate maximum.  K is K_PAIR and the ranges of
    # the 10 functions of acceptance criterion 5's standalone modulus check.
    rng = random.Random(20260809 + 55)
    sets = [K_PAIR]
    sets += [random_step_function(rng, 4, lambda r: box_value(r)).range_closure()
             for _ in range(10)]
    for K in sets:
        for eps in (0.2, 0.05):
            assert uniform_modulus(EUCLID, K, MAXC, eps) == Modulus(frozenset({1}), eps / 4)
            assert uniform_modulus(PseudometricFamily([MAXC]), K, Euclidean(), eps) == (
                Modulus(frozenset({1}), eps / 8)
            )


def test_undominated_scale_fails_without_drawing():
    # L = 2**45 needs a radius below eps / 2**40, the last one the search tries
    with pytest.raises(ModulusValidationError) as exc:
        uniform_modulus(EUCLID, K_PAIR, Scaled(2.0**45, Coordinate(1)), 0.1)
    assert str(exc.value) == (
        "no radius down to 4.5474735088646414e-14 validated around (0.0, 0.0); "
        "rho is not controlled by the family there"
    )


def test_analytic_modulus_checks_the_value_space():
    # as a sampled ball does: K outside the space of rho or of the family
    with pytest.raises(ValueSpaceMismatch):
        uniform_modulus(EUCLID, LABELS, Euclidean(), 0.1)
    with pytest.raises(ValueSpaceMismatch):
        uniform_modulus(EUCLID, K_PAIR, Coordinate(3), 0.1)
    with pytest.raises(ValueSpaceMismatch):
        uniform_modulus(coordinate_family(3), K_PAIR, Scaled(2.0, Coordinate(3)), 0.1)
    # a 3-D point that the two coordinates do not see is not covered
    with pytest.raises(ModulusValidationError):
        uniform_modulus(COORDS, {(0.0, 0.0), (0.0, 0.0, 5.0)}, Euclidean(), 0.1)


def test_modulus_on_label_space():
    from skorodist.pseudometric import Discrete, Scaled

    fam = PseudometricFamily([Discrete()])
    labels = {"idle", "busy", "halt"}
    # identity case
    mod = uniform_modulus(fam, labels, Discrete(), 0.4)
    assert mod.index == frozenset({1}) and mod.delta == 0.2
    # general path: balls over a finite alphabet are computed exactly
    mod2 = uniform_modulus(fam, labels, Scaled(0.5, Discrete()), 0.4)
    assert mod2.delta > 0


# The moduli of the two fast paths, of the structural rules and of label
# enumeration.  The vector rows are those the sampled search and its
# post-validation returned when moduli were sampled.
@pytest.mark.parametrize(
    "family, K, rho, eps, index, delta",
    [
        # fast path: rho is an index metric
        (EUCLID, K_PAIR, Euclidean(), 0.1, {1}, 0.05),
        # fast path: Euclidean rho under the full coordinate family
        (COORDS, K_PAIR, Euclidean(), 0.1, {1, 2}, 0.035355339059327376),
        # general path on vectors: max-coordinate under Euclidean, L = 1
        (EUCLID, K_PAIR, COORDS.metric({1, 2}), 0.1, {1}, 0.025),
        # general path on labels: the alphabet is enumerated
        (PseudometricFamily([Discrete()]), {"idle", "busy", "halt"}, Scaled(0.5, Discrete()),
         0.4, {1}, 0.2),
        # the first ball radius, 1.0, equals the distance between two labels:
        # balls are open, so only z is a hit and that radius validates
        (PseudometricFamily([Discrete()]), {"idle", "busy", "halt"}, Scaled(0.5, Discrete()),
         1.0, {1}, 0.5),
        # a scaled generator: L = 1 / 2 and L = 1 / 0.5
        (PseudometricFamily([Scaled(2.0, Euclidean())]), K_PAIR, Euclidean(), 0.1, {1}, 0.05),
        (PseudometricFamily([Scaled(0.5, Euclidean())]), K_PAIR, Euclidean(), 0.1, {1}, 0.0125),
    ],
)
def test_modulus_is_pinned(family, K, rho, eps, index, delta):
    mod = uniform_modulus(family, K, rho, eps)
    assert mod.index == frozenset(index)
    assert mod.delta == delta


def test_modulus_failure_and_rng_stream_are_pinned(monkeypatch):
    # no rule bounds the Euclidean metric by the first coordinate alone, and
    # the failure draws nothing
    _forbid_draws(monkeypatch)
    with pytest.raises(ModulusValidationError) as exc:
        uniform_modulus(PseudometricFamily([Coordinate(1)]), K_PAIR, Euclidean(), 0.1)
    assert str(exc.value) == (
        "no structural rule bounds rho = Euclidean() by the family metric "
        "Coordinate(k=1) on 2-dimensional vectors"
    )


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
    assert report.violations == []
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
        assert not fwd.violations
        swapped = t1_transfer_check(
            x, COORDS, EUCLID, COORDS.full_index(), eps, sampler, 25, rng=rng
        )
        assert not swapped.violations


def test_transfer_report_and_rng_stream_are_pinned():
    rng = random.Random(7)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, COORDS, EUCLID, COORDS.full_index(), 0.05,
        conditioned_perturbation_sampler(x), 10, rng=rng,
    )
    assert report.modulus == Modulus(frozenset({1}), 0.0125)
    assert report.trials == 10
    assert report.violations == []
    assert rng.random() == 0.9577312039639913


def test_transfer_violations_report_exact_distances(monkeypatch):
    # A modulus radius sqrt(8) times too large for the Euclidean target: the
    # fine ball of max-coordinate radius eps reaches Euclidean distance
    # sqrt(2) * eps, so some accepted draws must break the transfer.
    eps = 0.2

    def too_large(family, K, rho, eps):
        return Modulus(family.full_index(), eps)

    def diagonal(rng, bound):
        # jittered jumps, and every value moved by s in both coordinates
        y, s = perturb(x, rng, 0.3 * bound, 0.0), bound * rng.random()
        return make_step(y.times, [(a + s, b + s) for a, b in y.values])

    monkeypatch.setattr("skorodist.topology.uniform_modulus", too_large)
    rng = random.Random(9)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, EUCLID, COORDS, frozenset({1}), eps, diagonal, 40, rng=rng
    )
    assert report.trials == 40
    assert len(report.violations) == 6
    bound = min(report.modulus.delta, eps)
    fine, coarse = COORDS.metric(report.modulus.index), Euclidean()
    for y, fine_distance, coarse_distance in report.violations:
        assert fine_distance < bound and coarse_distance > eps
        assert fine_distance == skorohod_distance(x, y, fine).value
        assert coarse_distance == skorohod_distance(x, y, coarse).value
    assert rng.random() == 0.30901799675437147


def test_transfer_acceptance_is_strict_at_the_bound(monkeypatch):
    # eps = 0.2 under one Euclidean family: delta = eps / 2 = 0.1 = bound.
    # A draw at distance exactly 0.1 is outside the open fine ball.
    monkeypatch.setattr("skorodist.topology._MAX_ATTEMPTS_FACTOR", 2)
    x = make_step([0.0], [(0.0, 0.0)])

    def moved_by(shift):
        return lambda rng, bound: make_step([0.0], [(shift, 0.0)])

    with pytest.raises(SamplerStarvation):
        t1_transfer_check(
            x, EUCLID, EUCLID, frozenset({1}), 0.2, moved_by(0.1), 3,
            rng=random.Random(0),
        )
    report = t1_transfer_check(
        x, EUCLID, EUCLID, frozenset({1}), 0.2, moved_by(math.nextafter(0.1, 0.0)),
        3, rng=random.Random(0),
    )
    assert report.modulus.delta == 0.1
    assert report.trials == 3 and report.violations == []


def test_transfer_report_json_shape():
    rng = random.Random(7)
    x = random_step_function(rng, 3, lambda r: box_value(r))
    report = t1_transfer_check(
        x, EUCLID, COORDS, frozenset({1}), 0.2,
        conditioned_perturbation_sampler(x), 5, rng=rng,
    )
    # the Euclidean fast path: eps / (2 sqrt(2)) over both coordinates
    assert report.modulus == Modulus(frozenset({1, 2}), 0.2 / (2.0 * math.sqrt(2)))
    assert report.trials == 5
    assert report.violations == []


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
    # x's equal pieces merged when it was made, and the identity keeps x
    x = make_step([0.0, 0.5], [[1.0], [1.0]])
    assert x.times == (0.0,)
    assert repr(pushforward(Identity(), x)) == repr(x)


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
        left = pushforward(SquareCoords(), compose_time_change(x, lam))
        right = compose_time_change(pushforward(SquareCoords(), x), lam)
        assert left.values == right.values
        assert left.times == right.times


def test_map_registry_round_trip():
    maps = [
        ({"kind": "identity"}, Identity()),
        ({"kind": "project", "coords": [2, 1]}, Project((2, 1))),
        ({"kind": "square"}, SquareCoords()),
        ({"kind": "clamp", "lo": -1.0, "hi": 1.0}, Clamp(-1.0, 1.0)),
        (
            {"kind": "affine", "matrix": [[1.0, 0.5], [0.0, 2.0]], "offset": [0.1, -0.2]},
            AffineMap(((1.0, 0.5), (0.0, 2.0)), (0.1, -0.2)),
        ),
    ]
    for cfg, m in maps:
        assert map_from_config(cfg) == m


def test_clamp_applies():
    m = Clamp(-1.0, 1.0)
    assert m((-2.0, 0.5, 3.0)) == (-1.0, 0.5, 1.0)
    with pytest.raises(ValueSpaceMismatch):
        m("idle")


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
        Identity(), x, seq, COORDS, COORDS.full_index()
    )
    assert report.identity_ok
    for row, xn in zip(report.rows, seq):
        want = skorohod_distance(xn, x, COORDS.metric(COORDS.full_index())).value
        assert row.pushed_distance == want


def test_t2_constant_sequence_is_zero():
    rng = random.Random(11)
    x = random_step_function(rng, 4, lambda r: box_value(r, -0.8, 0.8))
    report = t2_continuity_check(
        SquareCoords(), x, [x] * 5, COORDS, COORDS.full_index()
    )
    assert report.identity_ok
    assert all(r.pushed_distance == 0.0 for r in report.rows)
    assert all(r.pulled_back_distance == 0.0 for r in report.rows)


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
        report = t2_continuity_check(value_map, x, seq, image_family, index)
        assert report.identity_ok  # the pushforward identity, exact per row
        assert report.rows[-1].pushed_distance <= 1e-2 + 1e-9
        # the pulled-back column is literally the same infimum
        zeta = image_family.metric(index)
        pulled = PulledBack(value_map, zeta)
        row = report.rows[-1]
        want = skorohod_distance(seq[-1], x, pulled).value
        assert row.pulled_back_distance == want
