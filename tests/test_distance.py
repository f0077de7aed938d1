import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skorodist import distance
from skorodist.cadlag import ValueSpaceMismatch, compose_time_change, make_step
from skorodist.distance import (
    CertificateError,
    _BandedDP,
    _up_gap,
    _within,
    OracleInstance,
    OracleTooLarge,
    TimeChange,
    bisect_distance,
    candidate_thresholds,
    check_certificate,
    feasible,
    oracle_distance,
    result_from_json,
    skorohod_distance,
    uniform_distance,
)
from skorodist.pseudometric import (
    Coordinate,
    Discrete,
    Euclidean,
    MaxOf,
    PseudometricFamily,
    Scaled,
    coordinate_family,
)
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
    assert TimeChange(((0.0, 0.0), (1.0, 1.0))).warp_deviation() == 0.0
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
        inv = TimeChange(tuple((lt, t) for t, lt in lam.knots))
        for t in (0.0, 0.2, 0.5, 0.83, 1.0):
            assert inv(lam(t)) == pytest.approx(t, abs=1e-12)
            assert lam(inv(t)) == pytest.approx(t, abs=1e-12)
            assert lam.inverse_at(lam(t)) == pytest.approx(t, abs=1e-12)
        # composing a step function with lam and then with its inverse moves
        # every jump back
        x = random_step_function(rng, 4, scalar_level_value)
        back = compose_time_change(compose_time_change(x, lam), inv)
        assert back.values == x.values
        assert back.times == pytest.approx(x.times, abs=1e-12)


# --- feasibility ------------------------------------------------------------


def test_feasible_trivial_identity():
    ok, cert = feasible(IND_05, IND_05, 0.0, ABS)
    assert ok
    assert cert.warp_deviation() <= 1e-9


def test_feasible_indicator_threshold():
    # independent confirmation by the brute-force oracle first
    oracle = OracleInstance(IND_05, IND_06, ABS)
    assert oracle.feasible_at(0.09) is False
    assert oracle.feasible_at(0.1) is True
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
    """The same DP over every state, with no band: each row admits every
    y-piece within eps in value, and only the move masks, which are the move
    conditions, come from the band's bisects."""

    __slots__ = ()

    def __init__(self, x, y, d):
        super().__init__(x, y, d)
        matches, p = self.matches, len(self.b)
        self.matches = lambda i, lo, hi, eps: matches(i, 0, p, eps)


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


def test_every_entry_point_checks_the_value_space():
    # A metric that reads only the first coordinate would put these at 0.
    x, y = make_step([0.0], [[0.0]]), make_step([0.0], [[0.0, 1.0]])
    first = lambda a, b: abs(a[0] - b[0])  # noqa: E731
    for run in (
        skorohod_distance,
        bisect_distance,
        lambda x, y, d: _within(x, y, 0.0, d),
        lambda x, y, d: feasible(x, y, -0.1, d),  # the space before eps
    ):
        with pytest.raises(ValueSpaceMismatch):
            run(x, y, first)


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
    assert res.value == 0.6 - 0.5
    assert res.certificate.knots == ((0.0, 0.0), (0.6, 0.5), (1.0, 1.0))
    assert res.time_sup == 0.6 - 0.5
    assert res.value_sup == 0.0
    # independently by the oracle
    assert oracle_distance(IND_05, IND_06, ABS) == 0.6 - 0.5


def test_distance_equal_jump_different_heights():
    x = make_step([0.0, 0.5], [0.0, 1.0])
    y = make_step([0.0, 0.5], [0.0, 0.8])
    res = skorohod_distance(x, y, ABS)
    assert res.value == abs(1.0 - 0.8)
    assert res.time_sup == 0.0  # identity alignment
    assert oracle_distance(x, y, ABS) == res.value


def test_distance_is_endpoint_bound_above_window_candidate():
    # L = |0.5 - 0.3| = 0.2 at t = 0 binds.  The window candidate 1 - 0.8 =
    # 0.19999999999999996 lies just below it and fails the value check at
    # t = 0 exactly.
    x = make_step([0.0, 0.8], [0.5, 0.3])
    y = make_step([0.0], [0.3])
    assert 1.0 - 0.8 in candidate_thresholds(x, y, ABS)
    assert not feasible(x, y, 1.0 - 0.8, ABS)[0]
    assert skorohod_distance(x, y, ABS).value == 0.5 - 0.3
    assert oracle_distance(x, y, ABS) == 0.5 - 0.3


def test_out_of_band_value_candidate_does_not_bind():
    # |0.4 - 0.1| = 0.30000000000000004 binds; it is also the least float
    # above the real gap.  The candidate 0.3 is only the distance of pieces
    # 0.35 apart in time: their state lies in the band at the gallop's
    # bracket top 0.5 but not at eps = 0.3.  The search probes it, and as
    # feasibility is decided exactly, 0.3 fails.
    x = make_step([0.0, 0.1, 0.75], [0.0, 1.0, 0.3])
    y = make_step([0.0, 0.4, 0.75], [0.0, 1.0, 0.3])
    res = skorohod_distance(x, y, ABS)
    assert res.value == 0.4 - 0.1
    assert 0.3 in candidate_thresholds(x, y, ABS)
    assert 0.3 in _BandedDP(x, y, ABS).thresholds(0.0, 0.5)
    assert not feasible(x, y, 0.3, ABS)[0]
    assert oracle_distance(x, y, ABS) == res.value


def test_value_candidate_on_the_band_edge_is_kept():
    # Jumps at 0.25 and 0.75 scale by S = 4, and eps = 0.6 by floor(0.6 S) = 2:
    # the piece pair at distance 0.6 sits on the edge of its row's band at
    # 0.6, which is closed, and no other constraint gives 0.6.
    for x, y in (
        (make_step([0.0, 0.75], [0.0, 0.6]), make_step([0.0, 0.25], [0.0, 1.0])),
        (make_step([0.0, 0.25], [0.6, 0.0]), make_step([0.0, 0.75], [1.0, 0.0])),
    ):
        assert 0.6 in _BandedDP(x, y, ABS).thresholds(0.0, 1.0)


X_JUMP_AT_TINY = make_step([0.0, 1e-13], [0.0, 1.0])


@pytest.mark.parametrize(
    "x, y, want",
    [
        # constants 1e-14 apart: the distance is positive
        (ZERO, make_step([0.0], [1e-14]), 1e-14),
        # one jump shifted by 1e-13: the least float above the real gap
        (IND_05, make_step([0.0, 0.5 + 1e-13], [0.0, 1.0]), 1.000310945187266e-13),
        # indicator pair 0.5 / 0.6 with heights 1e-13: the heights bind
        (
            make_step([0.0, 0.5], [0.0, 1e-13]),
            make_step([0.0, 0.6], [0.0, 1e-13]),
            1e-13,
        ),
        # x(0) = 0 against y = 1: lam(0) = 0 forces the full gap
        (X_JUMP_AT_TINY, ONE, 1.0),
        # y-jumps 5e-12 apart
        (IND_05, make_step([0.0, 0.5, 0.5 + 5e-12], [0.0, 1.0, 2.0]), 1.0),
    ],
    ids=["constants", "shifted_jump", "small_heights", "fixed_start", "close_y_jumps"],
)
def test_tiny_scales_are_exact(x, y, want):
    res = skorohod_distance(x, y, ABS)
    assert res.value == want == oracle_distance(x, y, ABS)
    assert not feasible(x, y, math.nextafter(want, 0.0), ABS)[0]
    claimed, cert = result_from_json(json.dumps(res.to_json_obj()))
    assert check_certificate(x, y, ABS, claimed, cert)[0]


def test_distance_constants():
    assert skorohod_distance(ZERO, ONE, ABS).value == 1.0
    assert oracle_distance(ZERO, ONE, ABS) == 1.0


def test_unnormalized_input_gets_a_certificate():
    # x's last jump changes no value, so make_step merges it away.  Kept, the
    # search's path would put it between y's jump at 1 - 2**-53 and 1, where
    # no float lies.
    x = make_step(
        [0.0, 0.23295774902070854, 0.945734342008963, 0.9457343420089905],
        [1e5, 0.0, 1e5, 1e5],
    )
    y = make_step([0.0, 0.5119210591086867, 0.9999999999999999], [1e4, 0.0, 3e4])
    assert x.times == (0.0, 0.23295774902070854, 0.945734342008963)
    res = skorohod_distance(x, y, ABS)
    assert res.value == 90000.0 == oracle_distance(x, y, ABS)
    assert check_certificate(x, y, ABS, res.value, res.certificate) == (True, 90000.0)
    assert feasible(x, y, res.value, ABS)[0]


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
    # bisection stops at adjacent floats, however far apart they lie
    assert bisect_distance(y, ZERO, ABS) == 1e6


def test_bisection_midpoint_does_not_overflow():
    # lo + hi overflows near the float maximum; the bracket top is 1.6e308
    x = make_step([0.0, 0.5], [0.0, 1.6e308])
    y = make_step([0.0, 0.5], [0.0, 0.6e308])
    assert skorohod_distance(x, y, ABS).value == oracle_distance(x, y, ABS) == 1e308
    assert bisect_distance(x, y, ABS) == 1e308


def test_search_does_not_reprobe_a_failed_threshold():
    # L = 0 fails and the gallop probe 0.25 succeeds.  Only the candidate
    # 0.4 - 0.5 rounded up is left above 0, so one more probe settles it.
    x = make_step([0.0, 0.4], [0.0, 1.0])
    y = make_step([0.0, 0.5], [0.0, 1.0])
    dp = _CountingDP(x, y, ABS)
    assert dp.least_feasible()[0] == _up_gap(0.4, 0.5) == oracle_distance(x, y, ABS)
    assert dp.probes == 3


def test_search_stops_at_the_lower_bound(monkeypatch):
    # When the first probe, at L = max(d(x(0), y(0)), d(x(1), y(1))),
    # succeeds, L is the distance: no thresholds are enumerated.
    def enumerated(self, lo, top):
        raise AssertionError("enumerated the thresholds of a one-float bracket")

    monkeypatch.setattr(_BandedDP, "thresholds", enumerated)
    x = make_step([0.0, 0.4, 0.7], [0.0, 1.0, 3.0])
    y = make_step([0.0, 0.4, 0.7], [0.25, 1.0, 3.0])  # differs on its first piece
    for a, b, want in ((x, x, 0.0), (x, y, 0.25)):
        res = skorohod_distance(a, b, ABS)
        assert res.value == want == oracle_distance(a, b, ABS)
        assert check_certificate(a, b, ABS, res.value, res.certificate)[0]
    # a zero distance of negative sign still comes out as 0.0
    res = skorohod_distance(x, x, Scaled(-0.0, ABS))
    assert math.copysign(1.0, res.value) == 1.0


def _mask_pair(rng, m, plane):
    """x with m jumps, and y independent of x or a small perturbation of
    it; coordinates are drawn from a few levels (ties) or uniformly."""
    levels = [0.0, 0.25, 0.5, 1.0]

    def coord():
        return rng.choice(levels) if rng.random() < 0.5 else rng.random()

    def value():
        return (coord(), coord()) if plane else (coord(),)

    def times():
        return [0.0, *sorted(rng.sample(range(1, 1 << 20), m))]

    tx = [t / (1 << 20) for t in times()]
    x = make_step(tx, [value() for _ in tx])
    if rng.random() < 0.5:
        ty = [t / (1 << 20) for t in times()]
        return x, make_step(ty, [value() for _ in ty])
    ty = sorted({0.0, *(min(max(t + rng.uniform(-0.01, 0.01), 0.0), 0.999) for t in tx[1:])})
    vy = [tuple(c + rng.choice((0.0, 0.01)) for c in x(t)) for t in ty]
    return x, make_step(ty, vy)


def test_mask_metrics_solve_as_the_table_does():
    # A plain callable has no masks, so the DP evaluates it through the
    # table and compares each piece distance with eps.
    rng = random.Random(21)
    for case in range(40):
        plane = case % 2 == 1
        d = MAXC if plane else ABS
        x, y = _mask_pair(rng, rng.choice((0, 1, 3, 16, 64)), plane)
        got = skorohod_distance(x, y, d)
        want = skorohod_distance(x, y, lambda a, b: d(a, b))
        assert got.value.hex() == want.value.hex()
        assert got.certificate == want.certificate
        assert (got.time_sup, got.value_sup) == (want.time_sup, want.value_sup)


def _half_dist(a, b):
    return 0.5 * math.dist(a, b)


def test_a_plain_callable_part_solves_as_the_plain_maximum():
    # A part that is not a Pseudometric has no coords, so the maximum is
    # evaluated pair by pair, as the one plain callable that computes it.
    def plain(a, b):
        return max(_half_dist(a, b), abs(a[0] - b[0]))

    rng = random.Random(22)
    for d in (
        MaxOf((_half_dist, Coordinate(1))),
        PseudometricFamily((_half_dist, Coordinate(1))).metric({1, 2}),
    ):
        for _ in range(10):
            x = random_step_function(rng, 6, unit_square_value)
            y = random_step_function(rng, 6, unit_square_value)
            got, want = skorohod_distance(x, y, d), skorohod_distance(x, y, plain)
            assert got.value.hex() == want.value.hex()
            assert got.certificate == want.certificate
            assert check_certificate(x, y, d, got.value, got.certificate)[0]


@pytest.mark.parametrize("d", [MAXC, ABS], ids=["max-coordinate", "euclidean-1d"])
def test_first_probe_solve_reads_only_the_endpoint_cells(d, monkeypatch):
    # Without masks, the probe at L would evaluate the band's piece
    # distances, nearly all m * p of them at this L.
    cells = []
    evaluator = distance._piece_values

    def counting(*args):
        dist, value, matches = evaluator(*args)

        def counted(i, lo, hi):
            cells.append(hi - lo + 1)
            return dist(i, lo, hi)

        return counted, value, matches

    monkeypatch.setattr(distance, "_piece_values", counting)
    rng = random.Random(3)
    x, _ = _mask_pair(rng, 64, d is MAXC)
    # y differs from x only on its first piece, by about 0.9, which binds
    first = tuple(c + 0.9 for c in x.values[0])
    y = make_step(x.times, [first, *x.values[1:]])
    low = d(x.values[0], first)
    assert _within(x, y, low, d) and not _within(x, y, math.nextafter(low, 0.0), d)
    assert cells == []
    assert skorohod_distance(x, y, d).value == low
    assert cells == [1, 1]


@pytest.mark.parametrize("d", [MAXC, ABS], ids=["max-coordinate", "euclidean-1d"])
def test_search_reads_only_the_endpoint_cells_and_the_bracketed_pairs(d, monkeypatch):
    # Past the endpoint cells of L, a searching solve evaluates d only on the
    # pairs of the band at the bracket's top whose value is in the bracket.
    cells, pairs, brackets = [], [], []
    evaluator, thresholds = distance._piece_values, _BandedDP.thresholds

    def counting(*args):
        dist, value, matches = evaluator(*args)

        def counted(i, lo, hi):
            cells.append(hi - lo + 1)
            return dist(i, lo, hi)

        def valued(i, j):
            pairs.append((i, j))
            return value(i, j)

        return counted, valued, matches

    def logged(self, lo, top):
        brackets.append((lo, top))
        return thresholds(self, lo, top)

    monkeypatch.setattr(distance, "_piece_values", counting)
    monkeypatch.setattr(_BandedDP, "thresholds", logged)
    rng, searched = random.Random(4), 0
    for _ in range(12):
        x, y = _mask_pair(rng, 64, d is MAXC)
        for log in (cells, pairs, brackets):
            log.clear()
        skorohod_distance(x, y, d)
        assert cells == [1, 1]
        if not brackets:  # settled without enumerating
            continue
        searched += 1
        ((lo, top),) = brackets
        s = [Fraction(t) for t in (*x.times, 1.0)]
        r = [Fraction(t) for t in (*y.times, 1.0)]
        w = Fraction(top)
        want = [
            (i, j)
            for i, xv in enumerate(x.values)
            for j, yv in enumerate(y.values)
            if r[j + 1] >= s[i] - w and r[j] <= s[i + 1] + w and lo <= d(xv, yv) <= top
        ]
        assert sorted(pairs) == want
    assert searched >= 3


def test_distance_rejects_non_finite_metric():
    with pytest.raises(ValueError, match="non-finite"):
        skorohod_distance(IND_05, IND_06, Scaled(float("inf"), ABS))
    with pytest.raises(ValueError, match="non-finite"):
        bisect_distance(IND_05, IND_06, Scaled(float("inf"), ABS))
    with pytest.raises(ValueError, match="non-finite"):
        bisect_distance(IND_05, ZERO, lambda v, w: 0.0 if v == w else float("inf"))
    # through the batched rows of Euclidean and MaxOf: finite values whose
    # distance overflows, at an endpoint or inside, and a NaN from 0 * inf
    huge = make_step([0.0, 0.3, 0.6], [0.0, 1e308, 0.0])
    for x, y, d in (
        (make_step([0.0], [1e308]), make_step([0.0], [-1e308]), ABS),
        (huge, make_step([0.0], [-1e308]), ABS),
        (huge, make_step([0.0], [-1e308]), MaxOf((ABS, Scaled(0.5, ABS)))),
        (
            make_step([0.0, 0.5], [[0.0, 1e308], [0.0, 0.0]]),
            make_step([0.0], [[0.0, -1e308]]),
            MAXC,
        ),
        (IND_05, IND_06, MaxOf((Scaled(float("inf"), ABS), ABS))),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            skorohod_distance(x, y, d)
        with pytest.raises(ValueError, match="non-finite"):
            bisect_distance(x, y, d)


def test_metric_whose_comparisons_give_no_bool():
    # numpy's float64 compares to a numpy bool, which is no int
    np = pytest.importorskip("numpy")

    def d(v, w):
        return np.float64(abs(v[0] - w[0]))

    rng = random.Random(11)
    for _ in range(10):
        x = random_step_function(rng, 4, scalar_level_value)
        y = random_step_function(rng, 4, scalar_level_value)
        want = skorohod_distance(x, y, ABS)
        got = skorohod_distance(x, y, d)
        assert (got.value, got.certificate) == (want.value, want.certificate)


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
        assert res.value == oracle.distance()
        for eps in candidate_thresholds(x, y, d):
            assert feasible(x, y, eps, d)[0] == oracle.feasible_at(eps)


def test_bisection_cross_check():
    rng = random.Random(4)
    for case in range(40):
        vs, d = sampler_for(case)
        x = random_step_function(rng, 4, vs)
        y = random_step_function(rng, 4, vs)
        assert bisect_distance(x, y, d) == skorohod_distance(x, y, d).value


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
        assert dxy == dyx
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
        assert skorohod_distance(x, y, d).value <= uniform_distance(x, y, d)
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
                    assert dists[i] <= dists[j]


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
        assert a == b


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


def _round_up(q):
    """The least float at or above the rational q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _can_bind(x, y, d, top=None):
    """candidate_thresholds without the piece distances v of pieces lying
    more than v apart in time, or more than ``top`` apart when it is given,
    written from the piece intervals [s_i, s_{i+1}) and [r_j, r_{j+1}) in
    exact rationals."""
    s = [Fraction(t) for t in (*x.times, 1.0)]
    r = [Fraction(t) for t in (*y.times, 1.0)]
    a, b = s[1:-1], r[1:-1]
    out = {0.0, *x.interior_jumps(), *(_round_up(1 - t) for t in a)}
    out.update(_round_up(abs(t - u)) for t in a for u in b)
    for i, xv in enumerate(x.values):
        for j, yv in enumerate(y.values):
            v = d(xv, yv)
            w = Fraction(v if top is None else top)
            if r[j + 1] >= s[i] - w and r[j] <= s[i + 1] + w:
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
    assert res.value == least
    other = data.draw(st.sampled_from(cands))
    assert feasible(x, y, other, d)[0] == (other >= least)
    assert res.value == _least_feasible(x, y, d, _can_bind(x, y, d))
    ok, bound = check_certificate(x, y, d, res.value, res.certificate)
    assert ok, bound


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=instances(), data=st.data())
def test_thresholds_are_the_bracketed_part_of_the_binding_set(inst, data):
    _check_bracketed_thresholds(inst, data)


@st.composite
def plane_instances(draw):
    """2-D values under the maximum of the coordinates, whose ``matches``
    are ball masks, or under the maximum of ``Euclidean`` and a coordinate,
    whose ``matches`` compare rows."""
    tx, ty = draw(jump_times()), draw(jump_times())
    level = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0))
    value = st.tuples(level, level)
    d = draw(st.sampled_from((MAXC, MaxOf((Euclidean(), Coordinate(1))))))
    x = make_step(tx, [draw(value) for _ in tx])
    y = make_step(ty, [draw(value) for _ in ty])
    return x, y, d


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=plane_instances(), data=st.data())
def test_thresholds_are_the_bracketed_part_of_the_binding_set_in_the_plane(inst, data):
    _check_bracketed_thresholds(inst, data)


def _check_bracketed_thresholds(inst, data):
    """``thresholds(lo, top)`` is the part in [lo, top] of the binding set at
    top, for a drawn lo and top."""
    x, y, d = inst
    cands = _can_bind(x, y, d)
    dp = _BandedDP(x, y, d)
    a, b = x.interior_jumps(), y.interior_jumps()
    gaps = [(ai, bj) for ai in a for bj in b]
    # lo where a floor(lo * S) off by one drops or adds a window gap
    edge = [0.0]
    if gaps:
        ai, bj = data.draw(st.sampled_from(gaps))
        v = _up_gap(ai, bj)
        edge += [abs(ai - bj), v, math.nextafter(v, 1.0)]
    lo = data.draw(
        st.one_of(
            st.sampled_from(edge),
            st.sampled_from(cands),
            st.sampled_from(cands).map(lambda c: math.nextafter(c, -1.0)),
            st.floats(0.0, 1.0),
        )
    )
    top = data.draw(st.one_of(st.sampled_from([*cands, 1.0]), st.floats(0.0, 2.0)))
    top = max(lo, top)
    binding = _can_bind(x, y, d, top)
    assert dp.thresholds(lo, top) == [c for c in binding if lo <= c <= top]


class _SearchLog(_BandedDP):
    """Logs the search in order: ("probe", eps, feasible) per probe and
    ("thresholds", lo, top) per enumeration."""

    __slots__ = ("log",)

    def __init__(self, x, y, d):
        super().__init__(x, y, d)
        self.log = []

    def probe(self, eps):
        probed = super().probe(eps)
        self.log.append(("probe", eps, probed is not None))
        return probed

    def thresholds(self, lo, top):
        self.log.append(("thresholds", lo, top))
        return super().thresholds(lo, top)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=st.one_of(instances(), plane_instances()))
def test_bisection_narrows_the_gallop_bracket(inst):
    # The gallop ends at its first feasible probe.  Bisection takes no more
    # probes than the gallop did, and below 1 it leaves thresholds a bracket
    # no wider than the gallop's first step.
    x, y, d = inst
    dp = _SearchLog(x, y, d)
    dp.least_feasible()
    log = dp.log
    gallop = 1 + next(k for k, (_, _, ok) in enumerate(log) if ok)
    end = next((k for k, entry in enumerate(log) if entry[0] == "thresholds"), len(log))
    assert end - gallop <= gallop
    if log[gallop - 1][1] <= 1.0 and end < len(log):
        _, lo, top = log[end]
        assert top - lo <= 1.0 / (len(dp.a) + len(dp.b) + 2)


# --- property: exact on adversarial inputs ---------------------------------

NEAR = 1e-12  # clustered jumps lie within this of each other, or of 0 or 1
TINY = 1e-15  # and at least this far apart, so a float time change fits


@st.composite
def adversarial_times(draw, max_jumps=4):
    """0 then up to max_jumps off-grid jumps, clustered within NEAR of each
    other, of 0 or of 1."""
    offset = st.floats(TINY, NEAR)
    raw = []
    for _ in range(draw(st.integers(0, max_jumps))):
        where = draw(st.sampled_from(("off", "zero", "one")))
        if where == "zero":
            t = draw(offset)
        elif where == "one":
            t = 1.0 - draw(offset)
        else:
            t = draw(st.floats(NEAR, 1.0 - NEAR))
        raw.append(t)
        if draw(st.booleans()):
            raw.append(t + draw(offset))
    times = [0.0]
    for t in sorted(raw):
        if times[-1] + TINY <= t <= 1.0 - TINY and len(times) <= max_jumps:
            times.append(t)
    return times


@st.composite
def adversarial_instances(draw):
    tx, ty = draw(adversarial_times()), draw(adversarial_times())
    scale = 10.0 ** draw(st.integers(-14, 14))
    value = st.sampled_from(LEVELS).map(lambda v: scale * v)
    x = make_step(tx, [draw(value) for _ in tx])
    y = make_step(ty, [draw(value) for _ in ty])
    return x, y


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=adversarial_instances())
def test_distance_is_exact_on_adversarial_inputs(inst):
    x, y = inst
    res = skorohod_distance(x, y, ABS)
    value, oracle = res.value, oracle_distance(x, y, ABS)
    assert feasible(x, y, value, ABS)[0]
    assert value == 0.0 or not feasible(x, y, math.nextafter(value, 0.0), ABS)[0]
    assert value == oracle
    ok, bound = check_certificate(x, y, ABS, value, res.certificate)
    assert ok, bound


@st.composite
def within_instances(draw):
    """Grid, off-grid or clustered jump times, with scalar values under |a - b|
    or 2-D values under the maximum of the coordinates."""
    tx, ty = draw(jump_times(12)), draw(jump_times(12))
    if draw(st.booleans()):
        value, d = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0)), ABS
    else:
        level = st.one_of(st.sampled_from(LEVELS), st.floats(-1.0, 1.0))
        value, d = st.tuples(level, level), MAXC
    x = make_step(tx, [draw(value) for _ in tx])
    y = make_step(ty, [draw(value) for _ in ty])
    return x, y, d


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=within_instances())
def test_within_decides_the_distance(inst):
    x, y, d = inst
    value = skorohod_distance(x, y, d).value
    assert _within(x, y, value, d)
    assert value == 0.0 or not _within(x, y, math.nextafter(value, -math.inf), d)


# --- property: the bitset probe is the earliest-entry-time DP --------------


class _EntryTimeDP(_BandedDP):
    """The banded DP in its earliest-entry-time form, the reference of the
    bitset probe: each band state carries the time at which it is first
    entered and the move that enters it then.  ``table`` keeps the rows of
    the last probe, infeasible ones included."""

    __slots__ = ("table",)

    def probe(self, eps):
        """Rows (lo, times, moves), or None if (m, p) cannot be entered.
        Slot k of a row is state (i, lo - 1 + k); slot 0 stands for the state
        left of the band and is always None.  Times are scaled integers."""
        bs, edges, distances = self.bs, self.edges, self.distances
        e = self.scaled(eps)
        rows = self.table = []
        above, above_lo = [None], 0
        for i, lo, hi in self.band(e):
            # entry times of (i - 1, lo - 1) and of (i - 1, j) for j = lo..hi
            k = lo - above_lo
            tdiag = above[k] if k < len(above) else None
            up = above[k + 1 : hi - above_lo + 2]
            up += [None] * (hi - lo + 1 - len(up))
            aa = edges[i]
            low, cap = aa - e, aa + e
            times = [None]
            moves = [None]
            left = None
            for j, dv, tup in zip(range(lo, hi + 1), distances(i, lo, hi), up):
                best = move = None
                if dv <= eps:
                    if j:
                        bb = bs[j - 1]
                        if tdiag is not None and tdiag <= bb and abs(bb - aa) <= e:
                            best, move = bb, "xy"
                        if best is None and left is not None and left <= bb:
                            best, move = bb, "y"
                    elif not i:
                        best = 0  # the start state (0, 0)
                    if tup is not None and tup <= cap:
                        u = max(tup, low)
                        if best is None or u < best:
                            best, move = u, "x"
                times.append(best)
                moves.append(move)
                left, tdiag = best, tup
            rows.append((lo, times, moves))
            if times.count(None) == len(times):
                return None
            above, above_lo = times, lo
        return rows if rows[-1][1][-1] is not None else None

    def events(self, rows):
        a, b, one = self.a, self.b, self.one
        out = []
        i, j = len(a), len(b)
        while i or j:
            lo, times, moves = rows[i]
            k = j - lo + 1
            move = moves[k]
            if move == "x":
                out.append(["x", times[k] / one, a[i - 1]])
                i -= 1
            elif move == "y":
                out.append(["y", b[j - 1], None])
                j -= 1
            else:
                out.append(["xy", b[j - 1], a[i - 1]])
                i -= 1
                j -= 1
        out.reverse()
        return out


@st.composite
def lemma_instances(draw):
    """Adversarial jump times with scaled scalars, 2-D values under the
    maximum of the coordinates, labels, or a plain callable metric."""
    tx, ty = draw(adversarial_times(6)), draw(adversarial_times(6))
    kind = draw(st.sampled_from(("scalar", "plane", "label", "callable")))
    if kind == "scalar":
        scale = 10.0 ** draw(st.integers(-14, 14))
        value, d = st.sampled_from(LEVELS).map(lambda v: scale * v), ABS
    elif kind == "plane":
        level = st.sampled_from(LEVELS)
        value, d = st.tuples(level, level), MAXC
    elif kind == "label":
        value, d = st.sampled_from("abc"), Discrete()
    else:
        value = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0))

        def d(v, w):
            return abs(v[0] - w[0]) ** 0.5

    x = make_step(tx, [draw(value) for _ in tx])
    y = make_step(ty, [draw(value) for _ in ty])
    return x, y, d


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(inst=lemma_instances(), data=st.data())
def test_bitset_probe_matches_entry_time_dp(inst, data):
    x, y, d = inst
    dp, ref = _BandedDP(x, y, d), _EntryTimeDP(x, y, d)
    probes = {data.draw(st.floats(0.0, 2.0))}
    for c in candidate_thresholds(x, y, d):
        probes.update((math.nextafter(c, -1.0), c, math.nextafter(c, 2.0)))
    for eps in sorted(p for p in probes if p >= 0.0):
        got, want = dp.probe(eps), ref.probe(eps)
        assert (got is None) == (want is None)
        e, s = dp.scaled(eps), dp.edges
        for i, (lo, times, _) in enumerate(ref.table):
            reached = {lo - 1 + k: t for k, t in enumerate(times) if t is not None}
            # the lemma: every reached state is entered at max(r_j, s_i - e)
            for j, t in reached.items():
                assert t == max(dp.bs[j - 1] if j else 0, s[i] - e)
            if got is not None:
                bits = got[1][i]
                assert {j for j in range(bits.bit_length()) if bits >> j & 1} == set(
                    reached
                )
        if got is not None:
            assert got[0] == e
            assert dp.events(got) == ref.events(want)
