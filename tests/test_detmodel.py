import math

import pytest

from lqgduet.detmodel import (BitWord, DetParams, converse_allows,
                              det_radner, det_step, det_witsen, run_det,
                              steady_level)


def test_params_validation():
    with pytest.raises(ValueError):
        DetParams(a_prime=0)
    with pytest.raises(ValueError):
        DetParams(a_prime=2, window_lo=-3)  # not deep enough
    DetParams(a_prime=2, window_lo=-4)


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


def test_upper_level_invariant_to_window_depth():
    for strategy in ("Optimal", "LinearShift"):
        shallow = run_det(DetParams(window_lo=-4), strategy, 10)
        deep = run_det(DetParams(window_lo=-16), strategy, 10)
        assert shallow == deep


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
