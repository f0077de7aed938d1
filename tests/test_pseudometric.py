import math
import random
from dataclasses import dataclass
from itertools import repeat

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skorodist.cadlag import ValueSpaceMismatch
from skorodist.maps import Identity, Project, SquareCoords
from skorodist.pseudometric import (
    Coordinate,
    Discrete,
    Euclidean,
    MaxOf,
    PseudometricFamily,
    PulledBack,
    Scaled,
    _piece_values,
    check_axioms,
    coordinate_family,
    family_from_config,
    metric_from_config,
)


def rand_pairs(rng, n, dim=2):
    return [tuple(rng.uniform(-3, 3) for _ in range(dim)) for _ in range(n)]


def test_evaluate_examples():
    assert Coordinate(1)((0.0, 3.0), (4.0, 3.0)) == 4.0
    assert Euclidean()((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert Discrete()((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert Discrete()("a", "a") == 0.0
    assert Discrete()("a", "b") == 1.0


def test_evaluate_space_mismatch():
    with pytest.raises(ValueSpaceMismatch):
        Euclidean()((0.0,), (0.0, 1.0))
    with pytest.raises(ValueSpaceMismatch):
        Coordinate(3)((0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueSpaceMismatch):
        Euclidean()("a", "b")
    with pytest.raises(ValueSpaceMismatch):
        Discrete()("a", (0.0,))


def test_max_close_indices():
    fam = PseudometricFamily([Coordinate(1)])
    assert fam.indices() == [frozenset({1})]
    fam2 = coordinate_family(2)
    assert fam2.indices() == [frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_max_close_index_metric_is_exact_max():
    rng = random.Random(0)
    fam = coordinate_family(3)
    pts = rand_pairs(rng, 40, dim=3)
    for a in pts[:10]:
        for b in pts[10:20]:
            for idx in fam.indices():
                want = max(fam.generators[i - 1](a, b) for i in idx)
                assert fam.metric(idx)(a, b) == want  # bit-exact, no tolerance


def test_domination_axiom_holds_with_equality():
    rng = random.Random(1)
    fam = coordinate_family(2)
    pts = rand_pairs(rng, 30)
    i, j = frozenset({1}), frozenset({2})
    for a, b in zip(pts[:15], pts[15:]):
        lhs = max(fam.metric(i)(a, b), fam.metric(j)(a, b))
        assert lhs == fam.metric(i | j)(a, b)


def test_index_monotonicity():
    rng = random.Random(2)
    fam = coordinate_family(3)
    pts = rand_pairs(rng, 20, dim=3)
    for a, b in zip(pts[:10], pts[10:]):
        for i in fam.indices():
            for j in fam.indices():
                if i <= j:
                    assert fam.metric(i)(a, b) <= fam.metric(j)(a, b)


def test_max_dominates_parts():
    rng = random.Random(3)
    fam = coordinate_family(2)
    pts = rand_pairs(rng, 20)
    for a, b in zip(pts[:10], pts[10:]):
        assert fam.metric({1, 2})(a, b) >= fam.metric({1})(a, b)


def test_check_axioms_clean_metrics():
    rng = random.Random(4)
    triples = [tuple(rand_pairs(rng, 3)) for _ in range(100)]
    for metric in (Euclidean(), Discrete(), coordinate_family(2).metric({1, 2})):
        assert check_axioms(metric, triples) == []


def test_check_axioms_catches_negativity():
    rng = random.Random(5)
    triples = [tuple(rand_pairs(rng, 3)) for _ in range(20)]
    violations = check_axioms(Scaled(-1.0, Euclidean()), triples)
    assert any(kind == "negativity" for kind, _, _ in violations)


def test_pulled_back_is_a_pseudometric():
    rng = random.Random(6)
    triples = [tuple(rand_pairs(rng, 3)) for _ in range(60)]
    pulled = PulledBack(SquareCoords(), Euclidean())
    assert check_axioms(pulled, triples) == []


def test_separates_points():
    fam = coordinate_family(2)
    assert fam.separates_points((0.0, 0.0), (0.0, 1.0)) == frozenset({2})
    assert fam.separates_points((1.0, 0.0), (0.0, 0.0)) == frozenset({1})
    degenerate = PseudometricFamily([Coordinate(1)])
    assert degenerate.separates_points((0.0, 0.0), (0.0, 1.0)) is None
    assert PseudometricFamily([Euclidean()]).separates_points((0.0, 0.0), (0.0, 1.0)) == frozenset({1})


# Each config kind the CLI reads, next to the object it must read as.
METRIC_CONFIGS = [
    ({"kind": "coordinate", "k": 2}, Coordinate(2)),
    ({"kind": "euclidean"}, Euclidean()),
    ({"kind": "discrete"}, Discrete()),
    (
        {"kind": "scaled", "factor": 2.0, "inner": {"kind": "euclidean"}},
        Scaled(2.0, Euclidean()),
    ),
    (
        {"kind": "max_of", "parts": [{"kind": "coordinate", "k": 1}, {"kind": "euclidean"}]},
        MaxOf((Coordinate(1), Euclidean())),
    ),
    (
        {"kind": "pulled_back", "map": {"kind": "square"}, "inner": {"kind": "euclidean"}},
        PulledBack(SquareCoords(), Euclidean()),
    ),
    (
        {"kind": "pulled_back", "map": {"kind": "project", "coords": [2, 1]},
         "inner": {"kind": "coordinate", "k": 1}},
        PulledBack(Project((2, 1)), Coordinate(1)),
    ),
]


def test_family_config_round_trip():
    config = {"space": {"dim": 2}, "generators": [cfg for cfg, _ in METRIC_CONFIGS]}
    assert family_from_config(config) == PseudometricFamily(tuple(m for _, m in METRIC_CONFIGS))


def test_metric_config_round_trip():
    for cfg, m in METRIC_CONFIGS:
        assert metric_from_config(cfg) == m


def test_invalid_configs():
    with pytest.raises(ValueError):
        family_from_config({"generators": []})
    with pytest.raises(ValueError):
        metric_from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        PseudometricFamily([])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Coordinate(0), ValueError),
        (lambda: Coordinate(1.7), TypeError),
        (lambda: Coordinate(True), TypeError),
        (lambda: Coordinate("1"), TypeError),
        (lambda: Project(()), ValueError),
        (lambda: Project((1.5,)), TypeError),
        (lambda: Project((1, True)), TypeError),
        (lambda: Project((2, 0)), ValueError),
    ],
    ids=["coordinate-0", "coordinate-float", "coordinate-bool", "coordinate-str",
         "project-empty", "project-float", "project-bool", "project-0"],
)
def test_index_constructors_reject_non_indices(build, error):
    # an index is an int, not a bool, and at least 1
    with pytest.raises(error):
        build()


def test_invalid_index():
    fam = coordinate_family(2)
    with pytest.raises(ValueError):
        fam.metric(frozenset())
    with pytest.raises(ValueError):
        fam.metric({1, 5})


# --- one-to-many evaluation --------------------------------------------------

DIM = 2
_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_vector = st.tuples(*[_coord] * DIM)
# Under SquareCoords and Identity every metric keeps the value space, and on
# 2-D vectors the metrics of _metrics(_KEEP_SPACE) never fail.
_KEEP_SPACE = [SquareCoords(), Identity()]


@dataclass(frozen=True)
class _FailsBelowZero:
    """A user value map that fails on some vectors of a space only: those
    whose coordinate k (1-based) is negative.  Other values pass through."""

    k: int

    def __call__(self, v):
        if not isinstance(v, str) and len(v) >= self.k and v[self.k - 1] < 0.0:
            raise ValueSpaceMismatch(f"negative coordinate {self.k}: {v[self.k - 1]}")
        return v


# Metrics that need not fit the space of the values: a coordinate past its
# dimension, a vector metric on labels, a projection past the dimension, or a
# user map that fails on some values.
_ANY_MAPS = [
    *_KEEP_SPACE, Project((1,)), Project((3,)), _FailsBelowZero(1), _FailsBelowZero(2)
]


def _metrics(value_maps, dim=DIM):
    return st.recursive(
        st.one_of(
            st.builds(Coordinate, st.integers(1, dim)),
            st.just(Euclidean()),
            st.just(Discrete()),
        ),
        lambda inner: st.one_of(
            st.builds(Scaled, st.floats(0.0, 10.0), inner),
            st.builds(PulledBack, st.sampled_from(value_maps), inner),
            st.lists(inner, min_size=1, max_size=3).map(lambda ps: MaxOf(tuple(ps))),
        ),
        max_leaves=4,
    )


_any_metric = _metrics(_ANY_MAPS, dim=3)
# The values of one make_step space: 1-, 2- or 3-D vectors, or labels
_SPACES = [st.tuples(*[_coord] * dim) for dim in (1, 2, 3)] + [
    st.sampled_from(["idle", "busy", "ab"])
]
_ROW_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _dim(value):
    """The dim a solve passes to ``_piece_values`` for this value."""
    return None if isinstance(value, str) else len(value)


def _row(d, a, bs):
    """d at (a, b) for every b in bs, as one row of ``_piece_values``."""
    dist, _, _ = _piece_values(d, (a,), bs, _dim(a))
    return dist(0, 0, len(bs) - 1)


def _bits(values):
    return [v.hex() for v in values]


def _outcome(evaluate):
    try:
        return _bits(evaluate())
    except ValueSpaceMismatch as exc:
        return f"raises {exc}"


@_ROW_SETTINGS
@given(d=_metrics(_KEEP_SPACE), a=_vector, bs=st.lists(_vector, max_size=20))
def test_row_is_bit_identical_to_pairwise_calls(d, a, bs):
    assert _bits(_row(d, a, bs)) == _bits([d(a, b) for b in bs])
    assert _row(d, a, []) == []


# Parts that fail on some 2-D vectors, on all of them, or on none
_PARTS = [
    PulledBack(_FailsBelowZero(1), Euclidean()),
    PulledBack(_FailsBelowZero(2), Coordinate(1)),
    Coordinate(3),
    PulledBack(Project((3,)), Euclidean()),
    Coordinate(1),
    Euclidean(),
]


@_ROW_SETTINGS
@given(
    parts=st.lists(st.sampled_from(_PARTS), min_size=1, max_size=3),
    a=_vector,
    bs=st.lists(_vector, min_size=1, max_size=20),
)
def test_row_raises_what_the_first_bad_pair_raises(parts, a, bs):
    d = MaxOf(tuple(parts))
    try:
        [d(a, b) for b in bs]
    except ValueSpaceMismatch as exc:
        pairwise = exc
    else:
        assume(False)
    with pytest.raises(ValueSpaceMismatch) as batched:
        _row(d, a, bs)
    assert str(batched.value) == str(pairwise)


@_ROW_SETTINGS
@given(d=_any_metric, space=st.sampled_from(_SPACES), data=st.data())
def test_row_fails_where_and_as_pairwise_calls_fail(d, space, data):
    a = data.draw(space)
    bs = data.draw(st.lists(space, max_size=10))
    assert _outcome(lambda: _row(d, a, bs)) == _outcome(lambda: [d(a, b) for b in bs])


def test_row_edge_cases():
    # a coordinate past the dimension of the point fails on every pair
    with pytest.raises(ValueSpaceMismatch, match="coordinate 3"):
        _row(Coordinate(3), (0.0, 1.0), [(1.0, 1.0)])
    with pytest.raises(ValueSpaceMismatch, match="label"):
        _row(Euclidean(), "idle", ["busy"])
    # no pair, no check: as the pairwise loop
    assert _row(Coordinate(3), (0.0, 1.0), []) == []
    assert _row(Euclidean(), "idle", []) == []
    assert _row(MaxOf((Coordinate(1),)), (0.0, 1.0), [(2.0, 5.0)]) == [2.0]
    assert _row(Discrete(), "idle", ["idle", "busy"]) == [0.0, 1.0]
    # The first part fails on the second pair only; the pairwise loop reaches
    # the first pair under the second part first.
    mixed = MaxOf((
        PulledBack(_FailsBelowZero(1), Euclidean()),
        PulledBack(_FailsBelowZero(2), Euclidean()),
    ))
    with pytest.raises(ValueSpaceMismatch, match="negative coordinate 2: -1.0"):
        _row(mixed, (1.0, 1.0), [(1.0, -1.0), (-2.0, 1.0)])


# --- many-to-many evaluation -------------------------------------------------


def _plain(a, b):
    """A plain callable, as the distance functions accept."""
    return 0.5 * Euclidean()(a, b)


def test_table_edge_cases():
    # no pair in a window, no check: as the pairwise loop
    assert _piece_values(Euclidean(), ["idle"], ["busy"], None)[0](0, 1, 0) == []
    assert _piece_values(Coordinate(3), [(0.0, 1.0)], [], 2)[0](0, 0, -1) == []
    dist, _, _ = _piece_values(
        MaxOf((Coordinate(1), Coordinate(2))),
        [(0.0, 0.0), (1.0, 3.0)], [(2.0, 5.0), (1.0, 1.0), (0.0, 0.5)], 2,
    )
    assert dist(0, 0, 2) == [5.0, 1.0, 0.5]
    assert dist(1, 1, 2) == [2.0, 2.5]
    # a value that a user map rejects fails only in its own row
    dist, _, _ = _piece_values(
        MaxOf((Coordinate(1), PulledBack(_FailsBelowZero(1), Euclidean()))),
        [(0.0,), (-1.0,)], [(3.0,), (4.0,)], 1,
    )
    assert dist(0, 0, 1) == [3.0, 4.0]
    with pytest.raises(ValueSpaceMismatch, match="negative"):
        dist(1, 1, 1)


@st.composite
def _windows(draw, n, p):
    """Up to 8 windows (i, lo, hi) with i < n and lo <= hi < p; the windows
    of one row share a y-piece, as a solve's bands of the row do."""
    core, out = {}, []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, n - 1))
        c = core.setdefault(i, draw(st.integers(0, p - 1)))
        out.append((i, draw(st.integers(0, c)), draw(st.integers(c, p - 1))))
    return out


@_ROW_SETTINGS
@given(
    d=st.one_of(_metrics(_KEEP_SPACE), st.just(_plain)),
    xs=st.lists(_vector, min_size=1, max_size=6),
    ys=st.lists(_vector, min_size=1, max_size=12),
    data=st.data(),
)
def test_table_rows_are_bit_identical_to_pairwise_calls(d, xs, ys, data):
    dist, _, _ = _piece_values(d, xs, ys, DIM)
    for i, lo, hi in data.draw(_windows(len(xs), len(ys))):
        assert _bits(dist(i, lo, hi)) == _bits([d(xs[i], y) for y in ys[lo : hi + 1]])


@_ROW_SETTINGS
@given(
    d=st.one_of(_any_metric, st.just(_plain)),
    space=st.sampled_from(_SPACES),
    data=st.data(),
)
def test_table_fails_where_and_as_pairwise_calls_fail(d, space, data):
    xs = data.draw(st.lists(space, min_size=1, max_size=6))
    ys = data.draw(st.lists(space, min_size=1, max_size=10))
    dist, _, _ = _piece_values(d, xs, ys, _dim(xs[0]))
    for i, lo, hi in data.draw(_windows(len(xs), len(ys))):
        want = _outcome(lambda: [d(xs[i], y) for y in ys[lo : hi + 1]])
        assert _outcome(lambda: dist(i, lo, hi)) == want


# Ties, differences that overflow to inf, the least subnormal, and adjacent
# floats (an ulp is 2 at 1e16), where a - eps and a + eps round.
_EDGE = [
    0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324,
    -5e-324, 1e16, 1e16 + 2, 1e16 + 4, 3.0, 2.9999999999999996,
]
_edge = st.one_of(st.sampled_from(_EDGE), st.floats(allow_nan=False, allow_infinity=False))
# Interval metrics, which get ball masks on the vectors they fit
_INTERVAL = [
    Coordinate(1),
    Coordinate(2),
    Euclidean(),
    MaxOf((Coordinate(1), Coordinate(2))),
    MaxOf((Coordinate(2), Coordinate(2), Coordinate(1))),
    MaxOf((MaxOf((Coordinate(2),)), Coordinate(1))),
    MaxOf((Euclidean(), Coordinate(1))),
]
_EVERY_KIND = st.one_of(
    st.sampled_from([*_INTERVAL, _plain, MaxOf((_plain, Coordinate(1)))]),
    _any_metric,
    st.lists(st.sampled_from(_PARTS), min_size=1, max_size=3).map(lambda ps: MaxOf(tuple(ps))),
)
_EDGE_SPACES = [st.tuples(*[_edge] * dim) for dim in (1, 2, 3)] + _SPACES[-1:]


def _direct_mask(d, a, ys, lo, hi, eps):
    return sum(1 << j for j in range(lo, hi + 1) if d(a, ys[j]) <= eps)


def _check_masks(d, xs, ys, extra_eps):
    """``matches`` over each full row is the direct comparison at the edge
    eps values, for an interval metric on the vectors it fits."""
    assert d._coords(_dim(xs[0])) is not None
    _, _, matches = _piece_values(d, xs, ys, _dim(xs[0]))
    hi = len(ys) - 1
    for i, a in enumerate(xs):
        eps_values = {0.0, -0.0, -1.0, math.inf, math.nan, *extra_eps}
        for b in ys:
            v = d(a, b)
            eps_values.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
        for eps in eps_values:
            assert matches(i, 0, hi, eps) == _direct_mask(d, a, ys, 0, hi, eps), (i, eps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([d for d in _INTERVAL if d._coords(2) is not None]),
    xs=st.lists(st.tuples(_edge, _edge), min_size=1, max_size=6),
    ys=st.lists(st.tuples(_edge, _edge), min_size=1, max_size=10),
    eps=st.floats(0.0, 2.0),
)
def test_ball_masks_are_the_direct_comparison(d, xs, ys, eps):
    _check_masks(d, xs, ys, [eps])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([Euclidean(), Coordinate(1), MaxOf((Euclidean(), Coordinate(1)))]),
    xs=st.lists(_edge.map(lambda v: (v,)), min_size=1, max_size=6),
    ys=st.lists(_edge.map(lambda v: (v,)), min_size=1, max_size=10),
    eps=st.floats(0.0, 2.0),
)
def test_ball_masks_on_scalars(d, xs, ys, eps):
    _check_masks(d, xs, ys, [eps])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(d=_EVERY_KIND, space=st.sampled_from(_EDGE_SPACES), data=st.data())
def test_piece_values_are_the_pairwise_evaluation(d, space, data):
    xs = data.draw(st.lists(space, min_size=1, max_size=6))
    ys = data.draw(st.lists(space, min_size=1, max_size=10))
    dist, value, matches = _piece_values(d, xs, ys, _dim(xs[0]))
    extra_eps = data.draw(st.floats(0.0, 2.0))

    def check(i, lo, hi):
        a, part = xs[i], ys[lo : hi + 1]
        want = _outcome(lambda: [d(a, b) for b in part])
        assert _outcome(lambda: dist(i, lo, hi)) == want
        assert _outcome(lambda: [value(i, j) for j in range(lo, hi + 1)]) == want
        if isinstance(want, str):  # raises
            assert _outcome(lambda: [matches(i, lo, hi, 0.0)]) == want
            return
        eps_values = {0.0, -0.0, -1.0, math.inf, math.nan, extra_eps}
        for v in map(d, repeat(a), part):
            eps_values.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
        for eps in eps_values:
            assert matches(i, lo, hi, eps) == _direct_mask(d, a, ys, lo, hi, eps), (i, eps)

    # Windows in a random order, so that a row's cache grows at both ends.
    # The windows of one row share a y-piece, as a solve's bands of the row
    # share the band at eps = 0.
    core, p = {}, len(ys)
    for _ in range(data.draw(st.integers(1, 8))):
        i = data.draw(st.integers(0, len(xs) - 1))
        c = core.setdefault(i, data.draw(st.integers(0, p - 1)))
        check(i, data.draw(st.integers(0, c)), data.draw(st.integers(c, p - 1)))
    for i in range(len(xs)):
        check(i, 0, p - 1)


@pytest.mark.parametrize(
    "d, xs, ys",
    [
        # vector metrics on labels
        (Coordinate(1), ["idle", "busy"], ["idle"]),
        (Euclidean(), ["idle", "busy"], ["idle"]),
        (MaxOf((Coordinate(1), Euclidean())), ["idle"], ["busy", "idle"]),
        # a projection past the dimension
        (PulledBack(Project((3,)), Coordinate(1)), [(0.0,)], [(1.0,), (2.0,)]),
        (PulledBack(Project((3,)), Euclidean()), [(0.0, 1.0)], [(1.0, 2.0)]),
        (MaxOf((Coordinate(1), PulledBack(Project((3,)), Euclidean()))), [(0.0, 1.0)], [(1.0, 1.0)]),
        # a coordinate past the dimension
        (Coordinate(3), [(0.0, 1.0)], [(1.0, 1.0)]),
        (MaxOf((Coordinate(1), Coordinate(3))), [(0.0, 1.0)], [(1.0, 1.0)]),
    ],
)
def test_bad_values_give_no_masks_and_the_table_raises(d, xs, ys):
    dim = _dim(xs[0])
    assert d._coords(dim) is None
    dist, value, matches = _piece_values(d, xs, ys, dim)
    for i, a in enumerate(xs):
        want = _outcome(lambda: [d(a, b) for b in ys])
        assert want.startswith("raises ")
        assert _outcome(lambda: dist(i, 0, len(ys) - 1)) == want
        assert _outcome(lambda: [value(i, j) for j in range(len(ys))]) == want
        assert _outcome(lambda: [matches(i, 0, len(ys) - 1, 1.0)]) == want


def test_kinds_without_masks():
    for d, dim in (
        (Euclidean(), 2),
        (Discrete(), 1),
        (Scaled(2.0, Coordinate(1)), 1),
        (PulledBack(Identity(), Coordinate(1)), 1),
        (MaxOf((Coordinate(1), Scaled(1.0, Coordinate(2)))), 2),
    ):
        assert d._coords(dim) is None, d


@pytest.mark.parametrize(
    "d",
    [
        MaxOf((Euclidean(), Coordinate(1))),
        MaxOf((Coordinate(2), MaxOf((Euclidean(), Coordinate(1))))),
        MaxOf((Euclidean(), Euclidean(), Coordinate(2))),
    ],
)
def test_max_of_parts_that_batch_is_batched(d, monkeypatch):
    # On 2-D vectors coordinates and Euclidean batch, so their maximum folds
    # the parts' rows with no pairwise call, bit for bit as the pairwise calls.
    rng = random.Random(6)
    edge = [(u, v) for u in (0.0, -0.0, 1e300, -1.7e308, 5e-324) for v in (1.0, 1e16, 1.7e308)]
    xs, ys = [*rand_pairs(rng, 4), *edge], [*edge, *rand_pairs(rng, 8)]
    want = [_bits([d(a, b) for b in ys]) for a in xs]

    def pairwise(self, a, b):
        raise AssertionError(f"{self} evaluated pair by pair")

    for kind in (Coordinate, Euclidean, MaxOf):
        monkeypatch.setattr(kind, "__call__", pairwise)
    dist, value, _ = _piece_values(d, xs, ys, 2)
    for i in range(len(xs)):
        assert _bits(dist(i, 0, len(ys) - 1)) == want[i]
        assert _bits([value(i, j) for j in range(len(ys))]) == want[i]
