import json
import math
import operator
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorodist.cadlag import (
    StepFunction,
    TraceParseError,
    ValueSpaceMismatch,
    coerce_value,
    compose_time_change,
    make_step,
    step_from_json,
)
from skorodist.distance import (
    TimeChange,
    bisect_distance,
    check_certificate,
    oracle_distance,
    skorohod_distance,
    uniform_distance,
)
from skorodist.pseudometric import Discrete, Euclidean
from skorodist.sampling import (
    GRID_20,
    random_step_function,
    random_time_change,
    random_times,
    scalar_level_value,
)

CONST5 = make_step([0.0], [5.0])
IND_HALF = make_step([0.0, 0.5], [0.0, 1.0])


def test_make_step_basic():
    assert CONST5.times == (0.0,)
    assert CONST5.values == ((5.0,),)
    assert IND_HALF.values == ((0.0,), (1.0,))


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.1, 0.5], [1, 2]),  # first time not 0
        ([0.0, 0.5, 0.5], [1, 2, 3]),  # not strictly increasing
        ([0.0, 1.0], [1, 2]),  # jump at 1
        ([0.0, 0.5], [1]),  # length mismatch
        ([], []),  # empty
        ([0.0], [float("nan")]),  # non-finite value
        ([0.0], [float("inf")]),
    ],
)
def test_make_step_rejects(times, values):
    with pytest.raises((ValueError, TraceParseError)):
        make_step(times, values)


def test_make_step_rejects_mixed_spaces():
    with pytest.raises(ValueSpaceMismatch):
        make_step([0.0, 0.5], [[1.0, 2.0], "label"])


def test_eval_right_continuous():
    assert IND_HALF(0.5) == (1.0,)  # jump point takes the right value
    assert IND_HALF(0.49) == (0.0,)
    assert CONST5(1.0) == (5.0,)
    with pytest.raises(ValueError):
        IND_HALF(1.5)
    with pytest.raises(ValueError):
        IND_HALF(-0.1)


def test_left_limit():
    assert IND_HALF.left_limit(0.5) == (0.0,)
    assert IND_HALF.left_limit(0.0) == (0.0,)  # convention f(0-) = f(0)
    assert IND_HALF.left_limit(0.7) == (1.0,)
    assert IND_HALF.left_limit(1.0) == (1.0,)
    assert CONST5.left_limit(1.0) == (5.0,)
    with pytest.raises(ValueError):
        IND_HALF.left_limit(1.2)


def test_split_interval_sequential_continuity():
    # strictly increasing s_k -> t gives eventually the left limit; strictly
    # decreasing s_k -> t gives eventually the value at t
    rng = random.Random(2)
    for _ in range(20):
        f = random_step_function(rng, 5, scalar_level_value)
        for t in [*f.times[1:], 0.35, 1.0]:
            below = [t - 2.0**-k for k in range(20, 40) if t - 2.0**-k > 0]
            tail = [f(s) for s in below[-5:]]
            assert all(v == f.left_limit(t) for v in tail)
            if t < 1.0:
                above = [t + 2.0**-k for k in range(20, 40) if t + 2.0**-k < 1]
                tail = [f(s) for s in above[-5:]]
                assert all(v == f(t) for v in tail)


def test_range_closure():
    assert CONST5.range_closure() == {(5.0,)}
    assert IND_HALF.range_closure() == {(0.0,), (1.0,)}
    f = make_step([0.0, 0.3, 0.6], [2, 7, 2])
    assert f.range_closure() == {(2.0,), (7.0,)}


def test_range_closure_contains_all_evaluations():
    rng = random.Random(3)
    for _ in range(25):
        f = random_step_function(rng, 6, scalar_level_value)
        rc = f.range_closure()
        assert len(rc) <= len(f.values)
        for t in [0.0, 0.1, 0.5, 0.99, 1.0, *f.times]:
            assert f(t) in rc
            assert f.left_limit(t) in rc


def test_compose_identity():
    rng = random.Random(4)
    for _ in range(10):
        f = random_step_function(rng, 5, scalar_level_value)
        assert compose_time_change(f, TimeChange(((0.0, 0.0), (1.0, 1.0)))) == f


def test_compose_moves_jump():
    lam = TimeChange(((0.0, 0.0), (0.6, 0.5), (1.0, 1.0)))
    g = compose_time_change(IND_HALF, lam)
    assert g.times == (0.0, 0.6)
    assert g.values == IND_HALF.values


def test_compose_constant_invariant():
    lam = TimeChange(((0.0, 0.0), (0.3, 0.7), (1.0, 1.0)))
    assert compose_time_change(CONST5, lam) == CONST5


def _after(lam1, lam2):
    """The time change lam1 after lam2, t -> lam1(lam2(t)), on the knots of
    both: it is linear between them."""
    grid = {t for t, _ in lam2.knots}
    grid.update(lam2.inverse_at(t) for t, _ in lam1.knots)
    return TimeChange(tuple((t, lam1(lam2(t))) for t in sorted(grid)))


def test_compose_associative_up_to_normalize():
    rng = random.Random(5)
    for _ in range(25):
        f = random_step_function(rng, 5, scalar_level_value)
        lam1 = random_time_change(rng)
        lam2 = random_time_change(rng)
        left = compose_time_change(f, _after(lam1, lam2))
        right = compose_time_change(compose_time_change(f, lam1), lam2)
        assert left.values == right.values
        assert left.times == pytest.approx(right.times, abs=1e-9)


def _merged(times, values):
    """The raw pieces with each run of equal adjacent values cut down to its
    first piece."""
    keep = [k for k, v in enumerate(values) if k == 0 or v != values[k - 1]]
    return [times[k] for k in keep], [values[k] for k in keep]


def _raw_at(times, values, t, left=False):
    """The raw piecewise definition at t, or its left limit (f(0-) = f(0))."""
    k = bisect_right(times, t) - 1
    if left and k and times[k] == t:
        k -= 1
    return coerce_value(values[k])


def test_normalize():
    # equal adjacent pieces merge on construction, keeping the first value
    f = make_step([0.0, 0.3, 0.6], [2, 2, 5])
    assert f.times == (0.0, 0.6)
    assert f.values == ((2.0,), (5.0,))
    assert make_step([0.0, 0.5], [3, 3]) == make_step([0.0], [3])
    assert StepFunction((0.0, 0.5), ((3.0,), (3.0,))) == make_step([0.0], [3])
    assert repr(make_step([0.0, 0.5], [0.0, -0.0]).values) == "((0.0,),)"
    assert repr(make_step([0.0, 0.5], [-0.0, 0.0]).values) == "((-0.0,),)"
    assert make_step([0.0, 0.5], ["a", "a"]).times == (0.0,)
    assert IND_HALF.times == (0.0, 0.5)  # already minimal


def test_normalize_preserves_eval():
    # a merged function evaluates as its raw pieces do
    rng = random.Random(6)
    for _ in range(25):
        times = random_times(rng, 6)
        values = [scalar_level_value(rng) for _ in times]
        f = make_step(times, values)
        for t in [0.0, 0.2, 0.5, 0.77, 1.0, *times]:
            assert f(t) == _raw_at(times, values, t)
            assert f.left_limit(t) == _raw_at(times, values, t, left=True)


def test_json_round_trip():
    f = make_step([0.0, 0.5], [[0.0, 2.0], [1.0, 3.0]])
    assert step_from_json(json.dumps(f.to_json_obj())) == f
    g = make_step([0.0, 0.25], ["idle", "busy"])
    assert step_from_json(json.dumps(g.to_json_obj())) == g


def test_json_form_is_as_documented():
    f = make_step([0.0, 0.5], [0, 1])
    assert f.to_json_obj() == {"times": [0.0, 0.5], "values": [[0.0], [1.0]]}


@pytest.mark.parametrize(
    "text",
    [
        '{"times":[0],"values":[NaN]}',
        '{"times":[0],"values":[[Infinity]]}',
        '{"times":[0]}',
        '{"times":"x","values":[1]}',
        '{"times":[0,"a"],"values":[[1],[2]]}',
        "[]",
        "not json",
        '{"times":[0.1],"values":[[1]]}',
        '{"times":[0],"values":[true]}',
        '{"times":[0],"values":[[]]}',
    ],
)
def test_json_rejects(text):
    with pytest.raises(TraceParseError):
        step_from_json(text)


def test_values_are_immutable_tuples():
    f = make_step([0.0], [[1, 2]])
    assert isinstance(f.values[0], tuple)
    assert all(isinstance(c, float) for c in f.values[0])
    assert math.isfinite(f.values[0][0])


# --- property: a step function has one representation ----------------------


# 0 then up to 5 jumps, so that a pair stays within the oracle's bound
RAW_TIMES = st.lists(
    st.sampled_from(GRID_20) | st.floats(1e-6, 1.0 - 1e-6), max_size=5, unique=True
).map(lambda ts: [0.0, *sorted(ts)])


@st.composite
def raw_pairs(draw):
    """Raw (times, values) of two functions of one value space, with many
    equal adjacent values: scalar levels with both zeros, or labels."""
    if draw(st.booleans()):
        value, d = st.sampled_from((0.0, -0.0, 0.5, 1.0)), Euclidean()
    else:
        value, d = st.sampled_from("ab"), Discrete()
    raws = []
    for times in (draw(RAW_TIMES), draw(RAW_TIMES)):
        raws.append((times, [draw(value) for _ in times]))
    return raws, d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inst=raw_pairs())
def test_every_step_function_is_minimal(inst):
    raws, d = inst
    pairs = []
    for times, values in raws:
        f = make_step(times, values)
        built = StepFunction(tuple(times), tuple(map(coerce_value, values)))
        assert repr(built) == repr(f)
        assert not any(map(operator.eq, f.values, f.values[1:]))
        premerged = make_step(*_merged(times, values))
        assert repr(f) == repr(premerged)  # the first value of a run is kept
        mids = [(s + t) / 2 for s, t in zip(times, [*times[1:], 1.0])]
        for t in [*times, *mids, 1.0]:
            assert f(t) == _raw_at(times, values, t)
            assert f.left_limit(t) == _raw_at(times, values, t, left=True)
        pairs.append((f, premerged))
    (x, x_premerged), (y, y_premerged) = pairs
    res = skorohod_distance(x, y, d)
    assert repr(res) == repr(skorohod_distance(x_premerged, y_premerged, d))
    assert bisect_distance(x, y, d) == bisect_distance(x_premerged, y_premerged, d)
    assert bisect_distance(x, y, d) == res.value
    assert oracle_distance(x, y, d) == oracle_distance(x_premerged, y_premerged, d)
    assert oracle_distance(x, y, d) == res.value
    # the certificate is a time change of x itself
    assert uniform_distance(compose_time_change(x, res.certificate), y, d) == res.value_sup
    assert check_certificate(x, y, d, res.value, res.certificate)[0]
