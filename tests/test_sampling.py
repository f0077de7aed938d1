import random

from skorodist import make_step
from skorodist.sampling import perturb, shifted_sequence

NEAR_ONE = make_step([0.0, 0.95, 0.96, 0.97, 0.98], [(k,) for k in range(5)])


def _jumps_inside(f):
    jumps = f.interior_jumps()
    return all(0.0 < t < 1.0 for t in jumps) and list(jumps) == sorted(set(jumps))


def test_perturb_keeps_piled_up_jumps_below_one():
    # Both jumps are pushed past 1; this used to raise "jump times must lie
    # in [0, 1), got 1.0".
    x = make_step([0.0, 0.97, 0.98], [(0,), (1,), (2,)])
    y = perturb(x, random.Random(0), 0.2, 0.0)
    assert y.times == (0.0, 1.0 - 1e-9 - 1e-9, 1.0 - 1e-9)
    assert y.values == x.values
    for seed in range(50):
        assert _jumps_inside(perturb(NEAR_ONE, random.Random(seed), 0.3, 0.1))


def test_shifted_sequence_keeps_piled_up_jumps_below_one():
    for seed in range(50):
        seq = shifted_sequence(NEAR_ONE, 3, random.Random(seed))
        assert len(seq) == 3
        assert all(_jumps_inside(f) for f in seq)


def test_samplers_unchanged_where_they_succeeded():
    # Outputs and generator state of the original samplers on inputs they
    # accepted, including a jump clamped at 1 - 1e-9.
    x = make_step([0.0, 0.3, 0.9], [(0.0,), (1.0,), (0.5,)])
    rng = random.Random(1)
    y = perturb(x, rng, 0.2, 0.1)
    assert y.times == (0.0, 0.15374569764496046, 0.999999999)
    assert y.values == (
        (0.05275492379532282,), (0.9510138051478844,), (0.4990870174183882,)
    )
    assert rng.random() == 0.4494910647887381
    rng = random.Random(3)
    seq = shifted_sequence(x, 2, rng)
    assert [f.times for f in seq] == [
        (0.0, 0.19999999999999998, 0.8), (0.0, 0.25, 0.85)
    ]
    assert [f.values for f in seq] == [
        ((0.1,), (1.1,), (0.4,)), ((0.05,), (1.05,), (0.45,))
    ]
    assert rng.random() == 0.6055995301393269
