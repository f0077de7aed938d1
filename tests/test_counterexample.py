import math
from fractions import Fraction

import pytest

from skorodist.counterexample import (
    EXCLUDE_ALL,
    EXCLUDE_ALL_BUT_CENTER,
    TailSequence,
    TauKNeighborhood,
    converges,
    f_example,
    f_left_limit,
    in_k,
    k_isolation_witness,
    piece_index,
    reciprocal_tail,
    split_extension_discontinuity_report,
    staircase_left_limits,
)


def test_k_membership_is_exact():
    assert in_k(Fraction(1, 7))
    assert in_k(1)
    assert not in_k(Fraction(2, 7))
    assert not in_k(0)
    assert not in_k(Fraction(-1, 3))
    assert in_k(0.5)  # exact binary rational
    assert not in_k(1 / 3)  # the float is not exactly 1/3


def test_piece_index():
    assert piece_index(Fraction(1, 3)) == 2  # 1/3 belongs to [1/3, 1/2)
    assert piece_index(Fraction(2, 5)) == 2
    assert piece_index(Fraction(9, 10)) == 1
    assert piece_index(Fraction(1, 100)) == 99


def test_f_values():
    assert f_example(0) == 0
    assert f_example(1) == 0
    assert f_example(Fraction(1, 3)) == Fraction(5, 12)
    assert f_example(Fraction(9, 10)) == Fraction(19, 20)  # one half of 0.9 + 1
    with pytest.raises(ValueError):
        f_example(Fraction(3, 2))


def test_f_left_limits():
    assert f_left_limit(Fraction(1, 2)) == Fraction(1, 2)
    assert f_left_limit(Fraction(1, 5)) == Fraction(1, 5)
    assert f_left_limit(Fraction(2, 5)) == Fraction(9, 20)  # 0.4 is not in K
    assert f_left_limit(1) == 1
    with pytest.raises(ValueError):
        f_left_limit(0)


def test_f_left_limits_on_k_exact():
    for n in range(1, 101):
        assert f_left_limit(Fraction(1, n)) == Fraction(1, n)


def test_results_are_fractions():
    assert isinstance(f_example(Fraction(1, 3)), Fraction)
    assert isinstance(f_left_limit(Fraction(1, 3)), Fraction)


def test_neighbourhood_membership():
    nbhd = TauKNeighborhood(0, Fraction(1, 2), EXCLUDE_ALL)
    assert not nbhd.contains(Fraction(1, 4))  # 1/4 is a deleted point of K
    assert nbhd.contains(Fraction(-1, 4))  # negative reals are never in K
    assert nbhd.contains(0)
    assert not nbhd.contains(Fraction(3, 4))  # outside the radius
    whole = TauKNeighborhood(0, None, EXCLUDE_ALL)
    assert whole.contains(100)
    assert not whole.contains(Fraction(1, 100))


def test_neighbourhood_validation():
    with pytest.raises(ValueError):
        TauKNeighborhood(Fraction(1, 2), Fraction(1, 10), EXCLUDE_ALL)  # center in K
    with pytest.raises(ValueError):
        TauKNeighborhood(0, Fraction(-1, 2), EXCLUDE_ALL)
    with pytest.raises(ValueError):
        TauKNeighborhood(0, Fraction(1, 2), "some")


def test_convergence_decisions():
    assert converges(staircase_left_limits(), 0, "tauk") is False
    assert converges(reciprocal_tail(-1), 0, "tauk") is True
    assert converges(reciprocal_tail(1), 0, "tau0") is True
    assert converges(reciprocal_tail(1), Fraction(1, 2), "tau0") is False
    assert converges(TailSequence("constant", Fraction(1, 2)), Fraction(1, 2), "tauk") is True
    assert converges(TailSequence("constant", 0), 0, "tauk") is True
    # q/n with positive q keeps landing on K: 2/(3n) = 1/m whenever n is even
    assert converges(reciprocal_tail(Fraction(2, 3)), 0, "tauk") is False
    assert converges(reciprocal_tail(Fraction(2, 3)), 0, "tau0") is True
    with pytest.raises(ValueError):
        converges(reciprocal_tail(1), 0, "other")


def test_convergence_finer_than_standard():
    # tau_K convergence implies standard convergence
    tails = [
        (reciprocal_tail(Fraction(q, 3)), Fraction(0)) for q in range(-3, 4)
    ] + [(TailSequence("constant", Fraction(c, 2)), Fraction(c, 2)) for c in range(-2, 3)]
    for s, lim in tails:
        if converges(s, lim, "tauk"):
            assert converges(s, lim, "tau0")


def test_isolation_witness():
    witnesses = k_isolation_witness(3)
    assert len(witnesses) == 3
    n2 = witnesses[1]
    assert n2.center == Fraction(1, 2)
    assert n2.excluded == EXCLUDE_ALL_BUT_CENTER
    assert n2.contains(Fraction(1, 2))
    assert not n2.contains(Fraction(1, 3))
    # each element holds exactly one K-point; the family covers the truncation
    for n, nbhd in enumerate(witnesses, start=1):
        hits = [m for m in range(1, 7) if nbhd.contains(Fraction(1, m))]
        assert hits == [n]
    with pytest.raises(ValueError):
        k_isolation_witness(1)


def test_f_avoids_k_per_piece_exactly():
    # range of piece n is [(1/(n+1) + 1/n)/2, 1/n); no 1/m can be inside
    for n in range(1, 101):
        low = (Fraction(1, n + 1) + Fraction(1, n)) / 2
        m_max = math.floor(1 / low)
        assert m_max == n  # so the integer range (n, m_max] is empty


def test_report_passes():
    report = split_extension_discontinuity_report(truncation=20, piece_horizon=30, grid=500)
    assert report.passed
    obj = report.to_json_obj()
    assert obj["pass"] is True
    assert obj["cadlag_tau0"] is True
    assert obj["f_avoids_k"] is True
    assert obj["right_continuous_at_zero"] is True
    assert obj["discontinuity_witnessed"] is True
    assert obj["witness"] == "R \\ K"


def test_discontinuity_witness_directly():
    # the deleted neighbourhood of 0 contains f(0) but no left limit at K
    deleted = TauKNeighborhood(0, None, EXCLUDE_ALL)
    assert deleted.contains(f_example(0))
    for n in range(1, 101):
        assert not deleted.contains(f_left_limit(Fraction(1, n)))
