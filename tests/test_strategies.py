import json
import math

import numpy as np
import pytest

from lqgduet import strategies
from lqgduet.core import ProblemParams
from lqgduet.lattice import quantize
from lqgduet.strategies import (LinBB, LinKal, Sig, StrategySpec, ZeroInput,
                                lqr_gain, make_strategy, parse_strategy)

#: a trial count on each side of the float/array kernel threshold
_KERNEL_TRIALS = [6, strategies._FLOAT_MAX_TRIALS + 1]


def test_parse_shorthand():
    assert parse_strategy("zero").variant == "zero"
    assert parse_strategy("linbb1") == StrategySpec("linbb", controller=1)
    assert parse_strategy("linbb2") == StrategySpec("linbb", controller=2)
    with pytest.raises(ValueError):
        parse_strategy("linbb3")


def test_parse_json_roundtrip():
    spec = StrategySpec("sig", s=2, d=0.5)
    again = parse_strategy(json.dumps(spec.to_json()))
    assert again == spec
    spec = StrategySpec("linkal", controller=2, k=1.25)
    assert parse_strategy(spec.to_json()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        StrategySpec("sig", s=0, d=1.0)
    with pytest.raises(ValueError):
        StrategySpec("sig", s=1, d=-1.0)
    with pytest.raises(ValueError):
        StrategySpec("linbb", controller=3)
    with pytest.raises(ValueError):
        StrategySpec("linkal", controller=1)


@pytest.mark.parametrize("fields", [
    {"variant": "sig", "s": 1.5, "d": 1.0},
    {"variant": "sig", "s": True, "d": 1.0},
    {"variant": "sig", "s": 1, "d": math.nan},
    {"variant": "sig", "s": 1, "d": math.inf},
    {"variant": "linbb", "controller": True},
    {"variant": "linkal", "controller": 1.0, "k": 1.0},
    # before, a bool k or d passed as the number 1 and the CSV printed True
    {"variant": "linkal", "controller": 1, "k": True},
    {"variant": "sig", "s": 1, "d": True},
    # before, a k or d that is no number raised TypeError
    {"variant": "linkal", "controller": 1, "k": "3"},
    {"variant": "sig", "s": 1, "d": [1]},
    {"variant": "sig", "s": 1, "d": "1"},
])
def test_spec_rejects_non_integer_counts_and_non_finite_steps(fields):
    with pytest.raises(ValueError):
        StrategySpec(**fields)


@pytest.mark.parametrize("obj, message", [
    ({"type": "linbb", "controller": 1, "gain": 3},
     "linbb takes no field gain"),
    ({"type": "sig", "s": 1, "d": 1.0, "w1": 2.0, "x": 0},
     "sig takes no field w1, x"),
])
def test_parse_rejects_keys_that_are_no_field(obj, message):
    # before, StrategySpec.__init__'s TypeError for the unexpected keyword
    with pytest.raises(ValueError, match=message):
        parse_strategy(obj)
    with pytest.raises(ValueError, match=message):
        parse_strategy(json.dumps(obj))


@pytest.mark.parametrize("fields, message", [
    ({"variant": "zero", "s": 2, "d": 1.0}, "zero takes no field s, d"),
    ({"variant": "zero", "controller": 1}, "zero takes no field controller"),
    ({"variant": "linbb", "controller": 1, "k": 3},
     "linbb takes no field k"),
    ({"variant": "linbb", "controller": 1, "s": 1, "d": 1.0},
     "linbb takes no field s, d"),
    ({"variant": "linkal", "controller": 1, "k": 1.0, "d": 1.0},
     "linkal takes no field d"),
    ({"variant": "sig", "s": 1, "d": 1.0, "controller": 2},
     "sig takes no field controller"),
    ({"variant": "sig", "s": 1, "d": 1.0, "k": 0.5}, "sig takes no field k"),
])
def test_spec_rejects_fields_outside_its_variant(fields, message):
    # before, linbb kept k = 3 and zero kept s and d, which the CSV then
    # printed
    with pytest.raises(ValueError, match=message):
        StrategySpec(**fields)


def test_spec_accepts_numpy_integers():
    assert StrategySpec("sig", s=np.int64(2), d=1.0).label == "sig2"


@pytest.mark.parametrize("obj", [{"s": 1}, [1], 3])
def test_parse_rejects_specs_without_a_type(obj):
    with pytest.raises(ValueError, match="type"):
        parse_strategy(obj)


def test_labels():
    assert StrategySpec("zero").label == "zero"
    assert StrategySpec("linbb", controller=2).label == "linbb2"
    assert StrategySpec("sig", s=3, d=1.0).label == "sig3"


def test_lqr_gain_scalar_oracle():
    # scalar Riccati: X = q + a^2 X r / (X + r); k = a X / (X + r)
    a, q, r = 2.0, 1.0, 1.0
    X = None
    x = 1.0
    for _ in range(10_000):
        x = q + a * a * x * r / (x + r)
    X = x
    k_ref = a * X / (X + r)
    assert lqr_gain(a, q, r) == pytest.approx(k_ref, rel=1e-9)


@pytest.mark.parametrize("a,sv", [(2.0, 1.0), (3.0, 0.5), (1.5, 4.0),
                                  (-2.5, 10.0), (0.5, 2.0)])
def test_linkal_filter_reaches_its_riccati_fixed_point(a, sv):
    # the posterior variance obeys p <- sv (a^2 p + 1) / (a^2 p + 1 + sv);
    # its fixed point is the positive root of
    # a^2 p^2 + (1 + sv - a^2 sv) p - sv = 0
    b = 1 + sv - a * a * sv
    p_star = (-b + math.sqrt(b * b + 4 * a * a * sv)) / (2 * a * a)
    k = LinKal(a, 2, 0.5, sv)
    y = np.zeros(3)
    for _ in range(200):
        k.step(y, y)
    assert k.p == pytest.approx(p_star, rel=1e-12)
    p_minus = a * a * p_star + 1
    assert k.p == pytest.approx(sv * p_minus / (p_minus + sv), rel=1e-12)


def test_linkal_noiseless_observation_has_zero_variance():
    k = LinKal(2.0, 1, 0.5, 0.0)
    k.step(np.ones(2), np.ones(2))
    assert k.p == 0.0


def test_zero_input():
    z = ZeroInput()
    u1, u2 = z.step(np.ones(3), np.ones(3))
    assert np.all(u1 == 0) and np.all(u2 == 0)
    assert u1.shape == (3,) and not u1.flags.writeable


def test_linbb_active_side():
    s = LinBB(2.0, 1)
    u1, u2 = s.step(np.array([1.0, -2.0]), np.array([5.0, 5.0]))
    assert np.allclose(u1, [-2.0, 4.0]) and np.all(u2 == 0)
    s = LinBB(2.0, 2)
    u1, u2 = s.step(np.array([5.0]), np.array([1.0]))
    assert np.all(u1 == 0) and np.allclose(u2, [-2.0])


def test_linkal_noiseless_tracks_state_exactly():
    # with zero observation noise the filter gain is 1 and u = -k y
    s = LinKal(2.0, 1, 1.5, 0.0)
    s.reset(2)
    y = np.array([3.0, -1.0])
    u1, _ = s.step(y, y)
    assert np.allclose(u1, -1.5 * y)
    # next step: prediction compensated by the previous input
    y2 = 2.0 * y + u1 + 0.7
    u1b, _ = s.step(y2, y2)
    assert np.allclose(u1b, -1.5 * y2)


def test_sig_first_controller_cancels_fine_residue():
    s = Sig(2.0, 1, 1.0)
    s.reset(1)
    u1, _ = s.step(np.array([0.3]), np.array([0.0]))
    assert u1[0] == pytest.approx(-2.0 * 0.3)
    # residue of 0.75 on the unit lattice is -0.25
    s.reset(1)
    u1, _ = s.step(np.array([0.75]), np.array([0.0]))
    assert u1[0] == pytest.approx(-2.0 * -0.25)


def test_sig_second_controller_snaps_to_coarse_lattice():
    a, d = 2.0, 1.0
    s = Sig(a, 1, d)
    s.reset(1)
    _, u2 = s.step(np.array([0.0]), np.array([1.2]))
    # coarse step is |a| d = 2; Q_2(1.2) = 2
    assert u2[0] == pytest.approx(-a * 2.0)
    # next step the compensation removes the coarse residue of a*u2[n-1]
    m = u2[0] - 2.0 * round(u2[0] / 2.0)
    _, u2b = s.step(np.array([0.0]), np.array([0.0]))
    exp = -a * (2.0 * math.floor((0.0 - m) / 2.0 + 0.5) + m)
    assert u2b[0] == pytest.approx(exp)


def test_sig_history_depth_matches_stage_count():
    s = Sig(2.0, 3, 0.5)
    s.reset(4)
    assert s.hist.shape == (3, 4)
    # zero-padded history: no compensation before any input, so the first
    # u2 is -a Q_{|a|^s d}(y2)
    y2 = np.array([0.3, -1.7, 2.0, 9.1])
    _, u2 = s.step(np.zeros(4), y2)
    assert np.array_equal(u2, -2.0 * quantize(s.big_step, y2))
    assert s.hist.shape == (3, 4) and np.array_equal(s.hist[0], u2)


def test_make_strategy_dispatch():
    p = ProblemParams(a=2.0, sigmav1_sq=1.0, sigmav2_sq=2.0)
    assert isinstance(make_strategy(StrategySpec("zero"), p), ZeroInput)
    assert isinstance(make_strategy(StrategySpec("linbb", controller=1), p),
                      LinBB)
    k = make_strategy(StrategySpec("linkal", controller=2, k=1.0), p)
    assert isinstance(k, LinKal) and k.sigmav_sq == 2.0
    assert isinstance(make_strategy(StrategySpec("sig", s=1, d=1.0), p), Sig)


# -- in-place steps against the allocating steps they replaced -------------

class _RefLinKal:
    """LinKal.step before the in-place rewrite."""

    def __init__(self, a, controller, k, sigmav_sq, n):
        self.a, self.controller, self.k, self.sv = a, controller, k, sigmav_sq
        self.xhat, self.u_prev, self.p = np.zeros(n), np.zeros(n), 0.0

    def step(self, y1, y2):
        y = y1 if self.controller == 1 else y2
        xhat_minus = self.a * self.xhat + self.u_prev
        p_minus = self.a * self.a * self.p + 1.0
        g = p_minus / (p_minus + self.sv)
        self.xhat = xhat_minus + g * (y - xhat_minus)
        self.p = (1.0 - g) * p_minus
        u = -self.k * self.xhat
        self.u_prev = u
        z = np.zeros_like(u)
        return (u, z) if self.controller == 1 else (z, u)


class _RefSig:
    """Sig.step before the in-place rewrite, through the validated
    quantize on every call (remainders as y - quantize(step, y))."""

    def __init__(self, a, s, d, n):
        self.a, self.s, self.d = a, s, d
        self.big_step = abs(a) ** s * d
        self.weights = a ** np.arange(s)
        self.hist, self.pos = np.zeros((s, n)), 0

    def step(self, y1, y2):
        u1 = -self.a * (y1 - quantize(self.d, y1))
        acc = np.zeros(self.hist.shape[1])
        for i in range(1, self.s + 1):
            acc += self.weights[i - 1] * self.hist[(self.pos - i) % self.s]
        m = acc - quantize(self.big_step, acc)
        u2 = -self.a * (quantize(self.big_step, y2 - m) + m)
        self.hist[self.pos % self.s] = u2
        self.pos += 1
        return u1, u2


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("make", [
    lambda n: (LinBB(-2.5, 1), None),
    lambda n: (LinBB(2.5, 2), None),
    lambda n: (LinKal(2.5, 1, 1.7, 0.3), _RefLinKal(2.5, 1, 1.7, 0.3, n)),
    lambda n: (LinKal(-2.5, 2, 1.2, 4.0), _RefLinKal(-2.5, 2, 1.2, 4.0, n)),
    lambda n: (Sig(3.0, 1, 0.7), _RefSig(3.0, 1, 0.7, n)),
    lambda n: (Sig(-3.0, 2, 0.3), _RefSig(-3.0, 2, 0.3, n)),
    lambda n: (Sig(2.5, 3, 0.05), _RefSig(2.5, 3, 0.05, n)),
])
def test_steps_bit_identical_to_allocating_reference(make):
    # both kernels: a trial count on each side of the threshold
    for n in _KERNEL_TRIALS:
        strat, ref = make(n)
        strat.reset(n)
        rng = np.random.default_rng(0)
        for t in range(60):
            # exact zeros and lattice ties exercise signed zeros and rounding
            y1 = rng.normal(0, 3.0, n)
            y2 = rng.normal(0, 30.0, n)
            y1[0], y2[0] = 0.0, 0.0
            y1[1] = 0.35 * (t % 5)
            if ref is None:
                u = -strat.a * (y1 if strat.controller == 1 else y2)
                z = np.zeros(n)
                want = (u, z) if strat.controller == 1 else (z, u)
            else:
                want = ref.step(y1, y2)
            got = strat.step(y1, y2)
            for g, w in zip(got, want):
                assert g.shape == (n,)
                assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("strat", [LinBB(2.0, 1), LinBB(2.0, 2),
                                   LinKal(2.0, 1, 1.5, 0.5),
                                   LinKal(2.0, 2, 1.5, 0.5)])
def test_silent_controller_input_is_one_read_only_zero(strat):
    strat.reset(3)
    first = strat.step(np.ones(3), np.ones(3))
    second = strat.step(np.ones(3), np.ones(3))
    silent = 1 if strat.controller == 1 else 0
    assert second[silent] is first[silent]
    assert np.all(first[silent] == 0)
    with pytest.raises(ValueError):
        first[silent] += 1.0


def test_sig_scalar_inputs_are_one_trial():
    # a 0-d observation is one trial; the second call used to raise
    # IndexError from the history's shape check
    s = Sig(2.0, 1, 1.0)
    ref = Sig(2.0, 1, 1.0)
    ref.reset(1)
    for y1, y2 in [(0.3, 0.1), (0.3, 0.1), (-0.8, 2.4)]:
        got = s.step(y1, y2)
        want = ref.step(np.array([y1]), np.array([y2]))
        for g, w in zip(got, want):
            assert g.shape == (1,)
            assert np.array_equal(g, w)


@pytest.mark.parametrize("make", [ZeroInput, lambda: LinBB(2.0, 1),
                                  lambda: LinKal(2.0, 1, 1.5, 0.5),
                                  lambda: Sig(2.0, 1, 1.0)])
def test_trial_count_mismatch_is_rejected(make):
    # after reset(2), a 1-trial step used to broadcast (LinKal) or silently
    # reset and drop the history (Sig)
    strat = make()
    strat.reset(2)
    strat.step(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        strat.step(np.zeros(1), np.zeros(1))
    # a strategy that was not reset is sized by its first step
    strat = make()
    strat.step(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        strat.step(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        strat.step(np.zeros((3, 1)), np.zeros((3, 1)))


@pytest.mark.parametrize("a, s, d", [
    (1e200, 2, 1.0),        # |a|^s overflows (used to raise OverflowError)
    (1e100, 2, 1e200),      # |a|^s d overflows
    (2.0, 1, math.inf), (2.0, 1, math.nan), (2.0, 1, 0.0), (2.0, 1, -1.0),
    (0.0, 1, 1.0),          # coarse step 0
    (1e-200, 2, 1e-300),    # coarse step underflows to 0
    (2.0, 0, 1.0),
])
def test_sig_rejects_steps_that_are_not_finite_and_positive(a, s, d):
    with pytest.raises(ValueError):
        Sig(a, s, d)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("make", [
    ZeroInput,
    lambda: LinBB(-2.5, 1),
    lambda: LinBB(-2.5, 2),
    lambda: LinKal(-2.5, 1, -1.7, 0.3),
    lambda: LinKal(-2.5, 2, -1.2, 0.0),
    lambda: Sig(-2.5, 1, 0.7),
    lambda: Sig(-2.5, 3, 0.05),
])
def test_step_is_a_one_row_kernel_call(make, rows):
    # a chunk of the kernel against a twin strategy stepped row by row:
    # the same inputs and next states to the last bit, signed zeros
    # included, with the strategy state carried across three chunks; both
    # kernels, at a trial count on each side of the threshold
    a = -2.5
    for n in _KERNEL_TRIALS:
        chunked, stepped = make(), make()
        chunked.reset(n)
        stepped.reset(n)
        rng = np.random.default_rng(3)
        for _ in range(3):
            X = np.empty((rows + 1, n))
            X[0] = rng.normal(0.0, 3.0, n)
            X[0, :3] = -0.0, 0.0, -0.0
            V1, V2, W = rng.normal(0.0, 3.0, (3, rows, n))
            V1[:, :3] = 0.0, -0.0, -0.0
            V2[:, :3] = -0.0, -0.0, 0.0
            U1, U2 = np.zeros((2, rows, n))
            chunked.run_chunk(a, X, V1, V2, W, U1, U2)
            x = X[0].copy()
            for j in range(rows):
                u1, u2 = stepped.step(x + V1[j], x + V2[j])
                assert np.array_equal(_bits(u1), _bits(U1[j]))
                assert np.array_equal(_bits(u2), _bits(U2[j]))
                x = a * x + u1 + u2 + W[j]
                assert np.array_equal(_bits(x), _bits(X[j + 1]))


def _state(strat):
    """The strategy state a chunk carries to the next one."""
    if isinstance(strat, LinKal):
        return [strat.xhat, strat.u_prev, np.array(strat.p)]
    return [strat.hist]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda: Sig(2.5, 1, 0.7),
    lambda: Sig(-2.5, 3, 0.05),
    lambda: LinKal(2.5, 1, 1.7, 0.3),
    lambda: LinKal(-2.5, 2, 1.2, 0.0),
])
def test_float_kernel_steps_non_finite_observations_like_arrays(make, bad):
    # math.floor raises on NaN and inf where np.floor returns them: the
    # float kernel must give the array kernel's inputs and state, to the
    # last bit, for observations and histories that are not finite
    n = 5
    assert n <= strategies._FLOAT_MAX_TRIALS
    on_floats, on_arrays = make(), make()
    on_arrays._float_chunk = on_arrays._array_chunk
    rng = np.random.default_rng(5)
    # the array kernel warns on inf - inf
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(8):
            y1, y2 = rng.normal(0.0, 3.0, (2, n))
            if t in (2, 5):
                y1[t % n] = bad
                y2[(t + 1) % n] = bad
            got = on_floats.step(y1, y2)
            want = on_arrays.step(y1, y2)
            for g, w in zip(got + tuple(_state(on_floats)),
                            want + tuple(_state(on_arrays))):
                assert np.array_equal(_bits(g), _bits(w)), t
