import math

import numpy as np
import pytest

from lqgduet import simulator
from lqgduet.core import ProblemParams
from lqgduet.simulator import (SimConfig, counter_normals, run, tradeoff)
from lqgduet.strategies import StrategySpec


def test_counter_normals_reproducible_and_chunk_invariant():
    a = counter_normals(42, 8, 0, 100, 0)
    b = counter_normals(42, 8, 0, 100, 0)
    assert np.array_equal(a, b)
    # generating in two chunks gives the same stream
    c = np.vstack([counter_normals(42, 8, 0, 60, 0),
                   counter_normals(42, 8, 60, 100, 0)])
    assert np.array_equal(a, c)


def test_counter_normals_channels_and_seeds_differ():
    a = counter_normals(1, 4, 0, 50, 0)
    assert not np.array_equal(a, counter_normals(1, 4, 0, 50, 1))
    assert not np.array_equal(a, counter_normals(2, 4, 0, 50, 0))


def test_counter_normals_moments():
    x = counter_normals(7, 64, 0, 4000, 2).ravel()
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01
    assert abs(np.mean(x ** 3)) < 0.05


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=10, burn_in=10)
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    # the trial index has 20 bits in the noise counter; trial 2^20 would
    # replay trial 0's stream one step later
    with pytest.raises(ValueError):
        SimConfig(trials=2 ** 20)
    assert SimConfig(trials=2 ** 20 - 1).trials == 2 ** 20 - 1


def test_run_reproducible():
    p = ProblemParams(a=2.0, sigmav1_sq=1.0, sigmav2_sq=1.0)
    cfg = SimConfig(horizon=5000, burn_in=100, trials=4, seed=3)
    spec = StrategySpec("linbb", controller=1)
    r1 = run(p, spec, cfg)
    r2 = run(p, spec, cfg)
    assert r1 == r2


def test_zero_input_diverges_and_flags_unstable():
    p = ProblemParams(a=2.0, q=1.0)
    res = run(p, StrategySpec("zero"), SimConfig(horizon=5000, burn_in=100,
                                                 trials=2, seed=0))
    assert res.unstable
    assert math.isinf(res.weighted_cost)
    assert res.unstable_step is not None


def test_nan_state_flags_unstable(monkeypatch):
    class NanInputs:
        def reset(self, trials):
            pass

        def step(self, y1, y2):
            u = np.full_like(y1, np.nan)
            return u, u

    monkeypatch.setattr(simulator, "make_strategy",
                        lambda spec, p: NanInputs())
    res = run(ProblemParams(a=2.0, q=1.0), StrategySpec("zero"),
              SimConfig(horizon=200, burn_in=10, trials=2, seed=0))
    assert res.unstable
    assert res.unstable_step == 0
    assert math.isinf(res.weighted_cost)


def test_linbb_matches_closed_form():
    # stationary closed form: D = a^2 sv^2 + 1, P = a^4 sv^2 + a^2 sv^2 + a^2
    p = ProblemParams(a=2.0, q=1.0, r1=1.0, sigmav1_sq=0.5, sigmav2_sq=0.5)
    res = run(p, StrategySpec("linbb", controller=1),
              SimConfig(horizon=60_000, burn_in=1000, trials=8, seed=1))
    assert res.avg_state_cost == pytest.approx(2.0 * 0.5 * 4 / 2 + 1,
                                               rel=0.05)
    assert res.avg_state_cost == pytest.approx(3.0, rel=0.05)
    assert res.avg_u1_power == pytest.approx(16 * 0.5 + 4 * 0.5 + 4,
                                             rel=0.05)
    assert res.avg_u2_power == 0.0


def test_weighted_cost_combination():
    p = ProblemParams(a=2.0, q=2.0, r1=3.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=0.0)
    res = run(p, StrategySpec("linbb", controller=1),
              SimConfig(horizon=3000, burn_in=100, trials=2, seed=5))
    assert res.weighted_cost == pytest.approx(
        2.0 * res.avg_state_cost + 3.0 * res.avg_u1_power)


def test_tradeoff_helper():
    p = ProblemParams(a=2.0, sigmav1_sq=0.0, sigmav2_sq=0.0)
    cfg = SimConfig(horizon=3000, burn_in=100, trials=2, seed=5)
    pt = tradeoff(p, StrategySpec("linbb", controller=1), cfg)
    res = run(p, StrategySpec("linbb", controller=1), cfg)
    assert pt == res.tradeoff()


def test_standard_errors_shrink_with_trials():
    p = ProblemParams(a=2.0, sigmav1_sq=1.0, sigmav2_sq=1.0)
    spec = StrategySpec("linbb", controller=1)
    few = run(p, spec, SimConfig(horizon=4000, burn_in=200, trials=4,
                                 seed=9))
    many = run(p, spec, SimConfig(horizon=4000, burn_in=200, trials=32,
                                  seed=9))
    assert many.se_state < few.se_state * 1.5
