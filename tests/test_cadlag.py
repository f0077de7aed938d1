import json
import math
import random

import pytest

from skorodist.cadlag import (
    SplitPoint,
    TraceParseError,
    ValueSpaceMismatch,
    compose_time_change,
    make_step,
    minus,
    plus,
    step_from_json,
)
from skorodist.distance import TimeChange
from skorodist.sampling import random_step_function, random_time_change, scalar_level_value

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
    assert CONST5.left_limit(1.0) == (5.0,)


def test_split_points():
    assert IND_HALF.at_split(minus(0.5)) == (0.0,)
    assert IND_HALF.at_split(plus(0.5)) == (1.0,)
    assert IND_HALF.at_split(minus(1.0)) == (1.0,)
    with pytest.raises(ValueError):
        minus(0.0)  # 0- is not a split-interval point
    with pytest.raises(ValueError):
        SplitPoint(1.2, "+")
    with pytest.raises(ValueError):
        SplitPoint(0.5, "?")


def test_split_extension_agrees_with_eval_everywhere():
    rng = random.Random(1)
    for _ in range(25):
        f = random_step_function(rng, 5, scalar_level_value)
        for t in [0.0, 0.25, 0.5, 1.0, *f.times]:
            assert f.at_split(plus(t)) == f(t)


def test_split_interval_sequential_continuity():
    # strictly increasing s_k -> t gives eventually the left limit; strictly
    # decreasing s_k -> t gives eventually the value at t
    rng = random.Random(2)
    for _ in range(20):
        f = random_step_function(rng, 5, scalar_level_value)
        for t in [*f.times[1:], 0.35, 1.0]:
            below = [t - 2.0**-k for k in range(20, 40) if t - 2.0**-k > 0]
            tail = [f(s) for s in below[-5:]]
            assert all(v == f.at_split(minus(t)) for v in tail)
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
        left = compose_time_change(f, _after(lam1, lam2)).normalize()
        right = compose_time_change(compose_time_change(f, lam1), lam2).normalize()
        assert left.values == right.values
        assert left.times == pytest.approx(right.times, abs=1e-9)


def test_normalize():
    f = make_step([0.0, 0.3, 0.6], [2, 2, 5])
    g = f.normalize()
    assert g.times == (0.0, 0.6)
    assert g.values == ((2.0,), (5.0,))
    assert g.normalize() is g  # idempotent, and a minimal function is kept
    assert make_step([0.0, 0.5], [3, 3]).normalize() == make_step([0.0], [3])
    assert IND_HALF.normalize() == IND_HALF  # already minimal


def test_normalize_preserves_eval():
    rng = random.Random(6)
    for _ in range(25):
        f = random_step_function(rng, 6, scalar_level_value)
        g = f.normalize()
        for t in [0.0, 0.2, 0.5, 0.77, 1.0, *f.times]:
            assert g(t) == f(t)


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
