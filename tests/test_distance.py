import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skorodist.cadlag import ValueSpaceMismatch, compose_time_change, make_step
from skorodist.distance import (
    FEAS_TOL,
    CertificateError,
    _BandedDP,
    OracleInstance,
    OracleTooLarge,
    TimeChange,
    bisect_distance,
    candidate_thresholds,
    check_certificate,
    feasible,
    oracle_distance,
    oracle_feasible,
    skorohod_distance,
    uniform_distance,
)
from skorodist.pseudometric import Discrete, Euclidean, Scaled, coordinate_family
from skorodist.sampling import (
    GRID_20,
    random_step_function,
    random_time_change,
    scalar_level_value,
    unit_square_value,
)

ABS = Euclidean()  # |a - b| on scalars
MAXC = coordinate_family(2).metric({1, 2})

IND_05 = make_step([0.0, 0.5], [0.0, 1.0])
IND_06 = make_step([0.0, 0.6], [0.0, 1.0])
ZERO = make_step([0.0], [0.0])
ONE = make_step([0.0], [1.0])


def sampler_for(case):
    return (scalar_level_value, ABS) if case % 2 == 0 else (unit_square_value, MAXC)


# --- TimeChange -------------------------------------------------------------


def test_warp_deviation_examples():
    assert TimeChange.identity().warp_deviation() == 0.0
    lam = TimeChange(((0.0, 0.0), (0.6, 0.5), (1.0, 1.0)))
    assert lam.warp_deviation() == pytest.approx(0.1, abs=1e-12)
    lam2 = TimeChange(((0.0, 0.0), (0.25, 0.5), (1.0, 1.0)))
    assert lam2.warp_deviation() == 0.25


def test_time_change_validation():
    with pytest.raises(CertificateError):
        TimeChange(((0.0, 0.0), (0.5, 0.5)))  # does not end at (1,1)
    with pytest.raises(CertificateError):
        TimeChange(((0.0, 0.0), (0.6, 0.5), (0.4, 0.7), (1.0, 1.0)))
    with pytest.raises(CertificateError):
        TimeChange(((0.0, 0.0), (0.5, 0.5), (0.5, 0.6), (1.0, 1.0)))


def test_time_change_inverse_and_compose():
    rng = random.Random(0)
    for _ in range(20):
        lam = random_time_change(rng)
        inv = lam.inverse()
        for t in (0.0, 0.2, 0.5, 0.83, 1.0):
            assert inv(lam(t)) == pytest.approx(t, abs=1e-12)
            assert lam.inverse_at(lam(t)) == pytest.approx(t, abs=1e-12)
        other = random_time_change(rng)
        comp = lam.compose(other)
        for t in (0.0, 0.31, 0.77, 1.0):
            assert comp(t) == pytest.approx(lam(other(t)), abs=1e-12)


# --- feasibility ------------------------------------------------------------


def test_feasible_trivial_identity():
    ok, cert = feasible(IND_05, IND_05, 0.0, ABS)
    assert ok
    assert cert.warp_deviation() <= 1e-9


def test_feasible_indicator_threshold():
    # independent confirmation by the brute-force oracle first
    assert oracle_feasible(IND_05, IND_06, 0.09, ABS) is False
    assert oracle_feasible(IND_05, IND_06, 0.1, ABS) is True
    ok, _ = feasible(IND_05, IND_06, 0.09, ABS)
    assert not ok
    ok, cert = feasible(IND_05, IND_06, 0.1, ABS)
    assert ok
    assert cert.warp_deviation() <= 0.1 + 1e-9


def test_feasible_constants_are_lambda_invariant():
    ok, _ = feasible(ZERO, ONE, 0.5, ABS)
    assert not ok
    ok, _ = feasible(ZERO, ONE, 1.0, ABS)
    assert ok


def test_feasible_monotone_in_eps():
    rng = random.Random(1)
    for case in range(30):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        # the bracketed search also probes between candidates
        cands = candidate_thresholds(x, y, d)
        probes = sorted({e for c in cands for e in (c - 1e-12, c, c + 1e-12)})
        prev = False
        for eps in probes:
            if eps < 0:
                continue
            now, _ = feasible(x, y, eps, d)
            assert now or not prev  # once true, stays true
            prev = prev or now


class _FullTable(_BandedDP):
    """The same DP over every state, with no band."""

    __slots__ = ()

    def band(self, eps):
        for i in range(len(self.xv)):
            yield i, 0, len(self.b)


def test_band_leaves_feasibility_and_path_unchanged():
    rng = random.Random(10)
    for case in range(40):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 12, vs)
        y = random_step_function(rng, 12, vs)
        banded, full = _BandedDP(x, y, d), _FullTable(x, y, d)
        for c in candidate_thresholds(x, y, d):
            for eps in (c - 1e-12, c, c + 1e-12):
                rows, ref = banded.probe(eps), full.probe(eps)
                assert (rows is None) == (ref is None)
                if rows is not None:
                    assert banded.events(rows) == full.events(ref)


def test_feasible_rejects_mismatched_spaces():
    with pytest.raises(ValueSpaceMismatch):
        feasible(ZERO, make_step([0.0], [[1.0, 2.0]]), 0.1, ABS)
    with pytest.raises(ValueError):
        feasible(ZERO, ONE, -0.1, ABS)


# --- skorohod_distance ------------------------------------------------------


def test_distance_to_self_is_zero_with_identity_certificate():
    rng = random.Random(2)
    for case in range(20):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        res = skorohod_distance(x, x, d)
        assert res.value == 0.0
        assert res.time_sup == 0.0
        assert res.value_sup == 0.0


def test_distance_indicator_shift_example():
    res = skorohod_distance(IND_05, IND_06, ABS)
    assert res.value == pytest.approx(0.1, abs=1e-9)
    assert res.certificate.knots == ((0.0, 0.0), (0.6, 0.5), (1.0, 1.0))
    assert res.time_sup == pytest.approx(0.1, abs=1e-9)
    assert res.value_sup == 0.0
    # independently by the oracle
    assert oracle_distance(IND_05, IND_06, ABS) == pytest.approx(0.1, abs=1e-9)


def test_distance_equal_jump_different_heights():
    x = make_step([0.0, 0.5], [0.0, 1.0])
    y = make_step([0.0, 0.5], [0.0, 0.8])
    res = skorohod_distance(x, y, ABS)
    assert res.value == abs(1.0 - 0.8)
    assert res.time_sup == 0.0  # identity alignment
    assert oracle_distance(x, y, ABS) == pytest.approx(res.value, abs=1e-9)


def test_distance_can_sit_within_tolerance_below_endpoint_bound():
    # L = |0.5 - 0.3| = 0.2 at t = 0, but the candidate 1 - 0.8 =
    # 0.19999999999999996 already passes the value check within FEAS_TOL.
    x = make_step([0.0, 0.8], [0.5, 0.3])
    y = make_step([0.0], [0.3])
    assert skorohod_distance(x, y, ABS).value == 1.0 - 0.8


def test_out_of_band_value_candidate_is_skipped():
    # |0.4 - 0.1| = 0.30000000000000004 binds.  The candidate 0.3 passes the
    # tolerant probe too, but it is only the distance of pieces 0.35 apart in
    # time: their state lies in the band at the gallop's bracket top 0.5 but
    # not at eps = 0.3, so the search skips it and returns the binding
    # threshold.
    x = make_step([0.0, 0.1, 0.75], [0.0, 1.0, 0.3])
    y = make_step([0.0, 0.4, 0.75], [0.0, 1.0, 0.3])
    res = skorohod_distance(x, y, ABS)
    assert res.value == 0.4 - 0.1
    assert 0.3 in candidate_thresholds(x, y, ABS)
    assert feasible(x, y, 0.3, ABS)[0]
    assert res.value - 0.3 < 2 * FEAS_TOL
    assert oracle_distance(x, y, ABS) == pytest.approx(res.value, abs=1e-9)


def test_distance_constants():
    assert skorohod_distance(ZERO, ONE, ABS).value == 1.0
    assert oracle_distance(ZERO, ONE, ABS) == pytest.approx(1.0, abs=1e-12)


class _CountingDP(_BandedDP):
    __slots__ = ("probes",)

    def probe(self, eps):
        self.probes = getattr(self, "probes", 0) + 1
        return super().probe(eps)


def test_distance_far_above_one():
    # Past eps = 1 every window is open; the search jumps to the largest
    # piece distance instead of galloping through the decades.
    x = make_step([0.0, 0.3, 0.6], [0.0, 1e300, 0.0])
    dp = _CountingDP(x, ZERO, ABS)
    assert dp.least_feasible()[0] == 1e300
    assert dp.probes <= 5
    y = make_step([0.0, 0.3, 0.6], [0.0, 1e6, 0.0])
    assert skorohod_distance(y, ZERO, ABS).value == oracle_distance(y, ZERO, ABS) == 1e6


def test_distance_rejects_non_finite_metric():
    with pytest.raises(ValueError, match="non-finite"):
        skorohod_distance(IND_05, IND_06, Scaled(float("inf"), ABS))
    with pytest.raises(ValueError, match="non-finite"):
        bisect_distance(IND_05, IND_06, Scaled(float("inf"), ABS))
    with pytest.raises(ValueError, match="non-finite"):
        bisect_distance(IND_05, ZERO, lambda v, w: 0.0 if v == w else float("inf"))


def test_oracle_identical_inputs():
    assert oracle_distance(IND_05, IND_05, ABS) == 0.0
    assert oracle_distance(ZERO, ZERO, ABS) == 0.0


def test_uniform_distance_examples():
    assert uniform_distance(IND_05, IND_05, ABS) == 0.0
    assert uniform_distance(IND_05, IND_06, ABS) == 1.0  # they disagree on [0.5, 0.6)
    assert uniform_distance(ZERO, ONE, ABS) == 1.0


def test_oracle_guard():
    x = make_step([0.0] + [k / 20 for k in range(1, 7)], list(range(7)))
    y = make_step([0.0] + [k / 21 for k in range(1, 6)], list(range(6)))
    with pytest.raises(OracleTooLarge):
        oracle_distance(x, y, ABS)


# --- randomized properties --------------------------------------------------


def test_oracle_equivalence_and_candidate_agreement():
    rng = random.Random(3)
    for case in range(80):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 3, vs)
        y = random_step_function(rng, 3, vs)
        res = skorohod_distance(x, y, d)
        oracle = OracleInstance(x, y, d)
        assert abs(res.value - oracle.distance()) <= 1e-9
        for eps in candidate_thresholds(x, y, d):
            assert feasible(x, y, eps, d)[0] == oracle.feasible_at(eps)


def test_bisection_cross_check():
    rng = random.Random(4)
    for case in range(40):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        assert abs(bisect_distance(x, y, d) - skorohod_distance(x, y, d).value) <= 1e-9


def test_pseudometric_axioms_of_the_distance():
    rng = random.Random(5)
    for case in range(40):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        z = random_step_function(rng, 4, vs)
        assert skorohod_distance(x, x, d).value == 0.0
        dxy = skorohod_distance(x, y, d).value
        dyx = skorohod_distance(y, x, d).value
        assert abs(dxy - dyx) <= 1e-9
        dxz = skorohod_distance(x, z, d).value
        dyz = skorohod_distance(y, z, d).value
        assert dxz <= dxy + dyz + 1e-9


def test_certificate_soundness_random():
    rng = random.Random(6)
    for case in range(60):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 5, vs)
        y = random_step_function(rng, 5, vs)
        res = skorohod_distance(x, y, d)
        assert max(res.time_sup, res.value_sup) <= res.value + 1e-9
        ok, bound = check_certificate(x, y, d, res.value, res.certificate)
        assert ok and bound <= res.value + 1e-9


def test_bound_chain():
    rng = random.Random(7)
    for case in range(40):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        assert skorohod_distance(x, y, d).value <= uniform_distance(x, y, d) + 1e-12
        lam = random_time_change(rng)
        warped = compose_time_change(x, lam)
        assert (
            skorohod_distance(warped, x, d).value <= lam.warp_deviation() + 1e-9
        )


def test_max_family_coherence():
    # larger index metric never shrinks the distance
    rng = random.Random(8)
    fam = coordinate_family(2)
    for _ in range(25):
        x = random_step_function(rng, 4, unit_square_value)
        y = random_step_function(rng, 4, unit_square_value)
        dists = {i: skorohod_distance(x, y, fam.metric(i)).value for i in fam.indices()}
        for i in fam.indices():
            for j in fam.indices():
                if i <= j:
                    assert dists[i] <= dists[j] + 1e-12


def test_representation_independence():
    # a redundant jump (equal adjacent values) does not change the distance
    rng = random.Random(9)
    for _ in range(25):
        x = random_step_function(rng, 3, scalar_level_value)
        y = random_step_function(rng, 3, scalar_level_value)
        padded_times = sorted(set(x.times) | {0.41})
        x_padded = make_step(padded_times, [x(t) for t in padded_times])
        a = skorohod_distance(x, y, ABS).value
        b = skorohod_distance(x_padded, y, ABS).value
        assert abs(a - b) <= 1e-9


# --- property: the bracketed search returns the least feasible candidate ---

GAP = 1e-6  # jumps stay this far apart and from 0 and 1
LEVELS = (0.0, 0.1, 0.3, 0.4, 0.7, 1.0)


@st.composite
def jump_times(draw, max_jumps=40):
    """0 then up to max_jumps jumps: on the 1/20 grid, off it, or in clusters
    of near-coincident jumps."""
    kind = draw(st.sampled_from(("grid", "off", "close")))
    n = draw(st.integers(0, max_jumps))
    inside = st.floats(GAP, 1.0 - GAP)
    if kind == "grid":
        raw = draw(st.lists(st.sampled_from(GRID_20), min_size=n, max_size=n))
    elif kind == "off":
        raw = draw(st.lists(inside, min_size=n, max_size=n))
    else:
        gap = draw(st.floats(GAP, 10 * GAP))
        centres = draw(st.lists(inside, min_size=n // 2, max_size=n // 2))
        raw = [c + k * gap for c in centres for k in range(draw(st.integers(1, 3)))]
    times = [0.0]
    for t in sorted(raw):
        if times[-1] + GAP <= t <= 1.0 - GAP and len(times) <= max_jumps:
            times.append(t)
    return times


@st.composite
def instances(draw):
    tx, ty = draw(jump_times()), draw(jump_times())
    if draw(st.booleans()):
        value = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0))
        d = ABS
    else:
        value = st.sampled_from("abc")
        d = Discrete()
    x = make_step(tx, [draw(value) for _ in tx])
    y = make_step(ty, [draw(value) for _ in ty])
    return x, y, d


def _can_bind(x, y, d):
    """candidate_thresholds without the piece distances v of pieces lying
    more than v + 2 FEAS_TOL apart in time, written from the piece intervals
    [s_i, s_{i+1}) and [r_j, r_{j+1})."""
    s, r = (*x.times, 1.0), (*y.times, 1.0)
    a, b = x.interior_jumps(), y.interior_jumps()
    out = {0.0, *a, *(1.0 - t for t in a), *(abs(t - u) for t in a for u in b)}
    for i, xv in enumerate(x.values):
        for j, yv in enumerate(y.values):
            v = d(xv, yv)
            margin = v + 2 * FEAS_TOL
            if r[j + 1] >= s[i] - margin and r[j] <= s[i + 1] + margin:
                out.add(v)
    return sorted(out)


def _least_feasible(x, y, d, cands):
    return next(c for c in cands if feasible(x, y, c, d)[0])


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=instances(), data=st.data())
def test_distance_is_least_feasible_candidate(inst, data):
    x, y, d = inst
    res = skorohod_distance(x, y, d)
    cands = candidate_thresholds(x, y, d)
    least = _least_feasible(x, y, d, cands)
    assert res.value in cands
    assert least <= res.value < least + 2 * FEAS_TOL
    other = data.draw(st.sampled_from(cands))
    assert feasible(x, y, other, d)[0] == (other >= least)
    assert res.value == _least_feasible(x, y, d, _can_bind(x, y, d))
    ok, bound = check_certificate(x, y, d, res.value, res.certificate)
    assert ok, bound
