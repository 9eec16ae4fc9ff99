import math

import pytest

from lqgduet.detmodel import (BitWord, DetParams, converse_allows,
                              det_radner, det_step, det_witsen, run_det,
                              steady_level)


def test_params_validation():
    with pytest.raises(ValueError):
        DetParams(a_prime=0)
    # any shift >= 1: the tracked window follows a_prime
    DetParams(a_prime=7)


def test_bitword_xor_involution():
    w = BitWord()
    prov = frozenset({("w", 0, -1), ("v", 1, 0)})
    w.xor(3, prov)
    assert w[3] == prov
    w.xor(3, prov)
    assert 3 not in w
    assert w.upper_level == -math.inf


def test_bitword_upper_level():
    w = BitWord()
    w.xor(-2, frozenset({("w", 0, -2)}))
    assert w.upper_level == -1
    w.xor(4, frozenset({("w", 0, 4)}))
    assert w.upper_level == 5


def test_first_step_level_zero():
    p = DetParams()
    state = det_step(p, "Optimal", BitWord(), 0)
    assert state.upper_level == 0
    state = det_step(p, "LinearShift", BitWord(), 0)
    assert state.upper_level == 0


def test_optimal_steady_level_two():
    assert run_det(DetParams(), "Optimal", 8) == [0, 2, 2, 2, 2, 2, 2, 2]
    assert steady_level(run_det(DetParams(), "Optimal", 12)) == 2


def test_linear_shift_steady_level_three():
    assert run_det(DetParams(), "LinearShift", 8) \
        == [0, 2, 3, 3, 3, 3, 3, 3]
    assert steady_level(run_det(DetParams(), "LinearShift", 12)) == 3


def test_steady_level_needs_two_equal_last_levels():
    assert steady_level([0, 2, 3, 3]) == 3
    assert steady_level([0, 2]) is None
    assert steady_level([0]) is None
    # runs too short to settle
    assert steady_level(run_det(DetParams(), "LinearShift", 2)) is None
    assert steady_level(run_det(DetParams(), "Optimal", 1)) is None


def test_optimal_steady_state_is_periodic_word():
    p = DetParams()
    state = BitWord()
    words = []
    for n in range(8):
        state = det_step(p, "Optimal", state, n)
        words.append({lvl: len(prov) for lvl, prov in state.items()})
    # identical occupied-level structure from step 2 onward
    assert words[2] == words[5] == words[7]


#: steady upper levels at a' = 1..6 per (sigma_v2_level, p1_level), recorded
#: with a fixed window at level -8; a window at -a' - 2 gives the same
#: 14-step levels
_STEADY_LEVELS = {
    ((1, 1), "Optimal"): [0, 2, 3, 4, 5, 6],
    ((1, 1), "LinearShift"): [0, 3, 4, 5, 6, 7],
    ((5, -2), "Optimal"): [6, 7, 8, 9, 10, 11],
    ((5, -2), "LinearShift"): [6, 7, 8, 9, 10, 11],
    ((-3, 4), "Optimal"): [0, 0, 0, 0, 0, 0],
    ((-3, 4), "LinearShift"): [4, 4, 4, 4, 4, 4],
    ((3, 3), "Optimal"): [0, 0, 0, 4, 5, 6],
    ((3, 3), "LinearShift"): [4, 5, 0, 7, 8, 9],
    ((7, 7), "Optimal"): [0, 0, 0, 0, 0, 0],
    ((7, 7), "LinearShift"): [8, 9, 10, 11, 12, 13],
}


def test_steady_levels_match_the_recorded_table():
    for ((sv2_level, p1_level), strategy), table in _STEADY_LEVELS.items():
        for a_prime, want in enumerate(table, start=1):
            p = DetParams(a_prime, sv2_level, p1_level)
            assert steady_level(run_det(p, strategy, 14)) == want, p


@pytest.mark.parametrize("strategy, sv2_level, steady", [
    ("Optimal", 1, 7),
    ("LinearShift", 3, 10),
])
def test_shift_beyond_six_runs(strategy, sv2_level, steady):
    # before, a' >= 7 was rejected: the window was fixed at level -8
    levels = run_det(DetParams(7, sv2_level, 1), strategy, 12)
    assert levels[:2] == [0, 7] and steady_level(levels) == steady


def test_converse_levels_cannot_be_cancelled():
    # for the shift-2 instance, levels 1 and 2 of the next state are out of
    # reach of the first controller and noisy for the second
    p = DetParams()
    assert not converse_allows(p, 1)
    assert not converse_allows(p, 2)
    assert converse_allows(p, 0)
    assert converse_allows(p, 3)


def test_optimal_cancels_exactly_what_the_converse_allows(monkeypatch):
    # det_step's Optimal branch states no rule of its own: with the converse
    # admitting nothing, nothing is cancelled and the top climbs a' a step
    from lqgduet import detmodel
    monkeypatch.setattr(detmodel, "converse_allows", lambda p, lvl: False)
    assert run_det(DetParams(), "Optimal", 5) == [0, 2, 4, 6, 8]


def test_two_stage_cancellation():
    assert det_witsen() == -math.inf


def test_two_stage_without_first_controller():
    assert det_witsen(force_u1_zero=True) == 1


def test_one_stage_simultaneous_overoptimism():
    assert det_radner() == -math.inf


def test_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        det_step(DetParams(), "Quadratic", BitWord(), 0)
