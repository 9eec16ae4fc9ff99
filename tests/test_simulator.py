import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from lqgduet import simulator, strategies
from lqgduet.core import ProblemParams
from lqgduet.simulator import SimConfig, counter_normals, run
from lqgduet.strategies import StrategySpec
from test_strategies import _RefLinKal, _RefSig


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


_REF_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _ref_mix(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _ref_uniform(counters, seed_hash):
    with np.errstate(over="ignore"):
        h = _ref_mix(seed_hash ^ (counters * _REF_GOLD))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _ref_counter_normals(seed, trials, step_lo, step_hi, channel):
    """The stream's definition, counter by counter with fresh arrays: OR
    the bit fields, multiply each counter by G, hash, convert from
    uint64."""
    steps = np.arange(step_lo, step_hi, dtype=np.uint64)[:, None]
    trial = np.arange(trials, dtype=np.uint64)[None, :]
    base = (steps << np.uint64(24)) | (trial << np.uint64(4)) \
        | np.uint64(channel << 1)
    seed_hash = _ref_mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    u0 = _ref_uniform(base, seed_hash)
    u1 = _ref_uniform(base | np.uint64(1), seed_hash)
    return np.sqrt(-2.0 * np.log(u0)) * np.cos(2.0 * math.pi * u1)


@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 63, 2 ** 64 - 1])
def test_counter_normals_equal_the_reference_stream(seed):
    """The in-place blocks give the reference's bits: the sum of the
    per-step and per-trial products equals the OR'd counter times G mod
    2^64 (also where step << 24 wraps), and the int64 view converts like
    the uint64 array.  The last cases cross block boundaries."""
    cases = [(trials, lo, hi)
             for trials in (1, 7, 1024)
             for lo, hi in ((0, 5), (2 ** 40 - 2, 2 ** 40 + 3))]
    cases += [(7, 0, 2400), (1024, 3, 43), (2 ** 14 + 3, 0, 2)]
    for trials, lo, hi in cases:
        for channel in range(4):
            got = counter_normals(seed, trials, lo, hi, channel)
            want = _ref_counter_normals(seed, trials, lo, hi, channel)
            assert got.shape == want.shape == (hi - lo, trials)
            assert got.tobytes() == want.tobytes(), (trials, lo, channel)


def test_counter_normals_reject_counters_outside_their_bit_fields():
    # channel << 1 has three bits, trial << 4 twenty
    for channel in (-1, 8):
        with pytest.raises(ValueError, match="channel"):
            counter_normals(0, 4, 0, 2, channel)
    with pytest.raises(ValueError, match="trials"):
        counter_normals(0, simulator.MAX_TRIALS + 1, 0, 1, 0)
    assert counter_normals(0, 4, 0, 2, 7).shape == (2, 4)


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
        silent = ()

        def reset(self, trials):
            pass

        def run_chunk(self, a, X, V1, V2, W, U1, U2):
            U1[:] = U2[:] = X[1:] = np.nan

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


def test_standard_errors_shrink_with_trials():
    p = ProblemParams(a=2.0, sigmav1_sq=1.0, sigmav2_sq=1.0)
    spec = StrategySpec("linbb", controller=1)
    few = run(p, spec, SimConfig(horizon=4000, burn_in=200, trials=4,
                                 seed=9))
    many = run(p, spec, SimConfig(horizon=4000, burn_in=200, trials=32,
                                  seed=9))
    assert many.se_state < few.se_state * 1.5


# -- the chunk-buffered loop against the step-by-step loop it replaced -----

class _RefLinBB:
    """u = -a y on the active side and an allocated zero on the other (the
    zero strategy when controller is None)."""

    def __init__(self, a, controller):
        self.a, self.controller = a, controller

    def step(self, y1, y2):
        z = np.zeros_like(y1)
        if self.controller is None:
            return z, z
        u = -self.a * (y1 if self.controller == 1 else y2)
        return (u, z) if self.controller == 1 else (z, u)


def _reference_strategy(spec, p, n_tr):
    """The allocating per-step control laws the strategies' kernels
    replaced, so that the reference shares no code with run_chunk."""
    if spec.variant == "sig":
        return _RefSig(p.a, spec.s, spec.d, n_tr)
    if spec.variant == "linkal":
        sv = p.sigmav1_sq if spec.controller == 1 else p.sigmav2_sq
        return _RefLinKal(p.a, spec.controller, spec.k, sv, n_tr)
    return _RefLinBB(p.a, spec.controller)


def _reference_run(p, spec, cfg):
    """The per-step loop of run() before chunk buffering, kept as its
    reference: one allocating control-law step (adding a silent
    controller's zero input), one running sum and one divergence check per
    simulated step."""
    n_tr = cfg.trials
    strat = _reference_strategy(spec, p, n_tr)
    sv1 = math.sqrt(p.sigmav1_sq)
    sv2 = math.sqrt(p.sigmav2_sq)
    x = math.sqrt(p.sigma0_sq) * counter_normals(cfg.seed, n_tr, 0, 1,
                                                 simulator._CH_X0)[0]
    sx, su1, su2 = np.zeros(n_tr), np.zeros(n_tr), np.zeros(n_tr)
    chunk = 4096
    for lo in range(0, cfg.horizon, chunk):
        hi = min(lo + chunk, cfg.horizon)
        wc = counter_normals(cfg.seed, n_tr, lo, hi, simulator._CH_W)
        v1c = sv1 * counter_normals(cfg.seed, n_tr, lo, hi, simulator._CH_V1) \
            if sv1 else np.zeros((hi - lo, n_tr))
        v2c = sv2 * counter_normals(cfg.seed, n_tr, lo, hi, simulator._CH_V2) \
            if sv2 else np.zeros((hi - lo, n_tr))
        for j in range(hi - lo):
            n = lo + j
            u1, u2 = strat.step(x + v1c[j], x + v2c[j])
            if n >= cfg.burn_in:
                sx += x * x
                su1 += u1 * u1
                su2 += u2 * u2
            x = p.a * x + u1 + u2 + wc[j]
            if not np.max(np.abs(x)) <= simulator.DIVERGENCE_THRESHOLD:
                return simulator.SimResult(
                    math.inf, math.inf, math.inf, math.inf, math.nan,
                    math.nan, math.nan, unstable=True, unstable_step=n)
    m = cfg.horizon - cfg.burn_in
    sx /= m
    su1 /= m
    su2 /= m

    def se(v):
        if n_tr < 2:
            return math.nan
        return float(np.std(v, ddof=1) / math.sqrt(n_tr))

    D, P1, P2 = float(sx.mean()), float(su1.mean()), float(su2.mean())
    return simulator.SimResult(D, P1, P2, p.q * D + p.r1 * P1 + p.r2 * P2,
                               se(sx), se(su1), se(su2))


def _assert_same(got, ref):
    """Every SimResult field equal (NaN standard errors match NaN)."""
    for f in dataclasses.fields(simulator.SimResult):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert a == b or (a != a and b != b), (f.name, a, b)


def _instance(s, a=3.0, sv1=0.5):
    """A stage-s strongly degraded instance and its signaling design."""
    sv2 = abs(a) ** (2 * s - 1) * max(1.0, a * a * sv1)
    p = ProblemParams(a=a, q=1.0, r1=0.1, r2=0.01, sigma0_sq=1.0,
                      sigmav1_sq=sv1, sigmav2_sq=sv2)
    return p, StrategySpec("sig", s=s, d=2.0 * math.sqrt(sv2) / abs(a) ** s)


_P2, _SIG2 = _instance(2)
_NEG2, _NEG_SIG2 = _instance(2, a=-3.3)
# noiseless observations: both noise rows come from the np.zeros branch
_EXACT = ProblemParams(a=3.0, q=1.0, r1=0.1, r2=0.01, sigma0_sq=1.0,
                       sigmav1_sq=0.0, sigmav2_sq=0.0)
_VARIANTS = {
    "zero": (_P2, StrategySpec("zero")),
    "linbb1": (_P2, StrategySpec("linbb", controller=1)),
    "linbb2": (_P2, StrategySpec("linbb", controller=2)),
    "linkal1": (_P2, StrategySpec("linkal", controller=1, k=2.5)),
    "linkal2": (_P2, StrategySpec("linkal", controller=2, k=2.5)),
    "sig1": _instance(1),
    "sig2": (_P2, _SIG2),
    "sig3": _instance(3),
    # the sv1 = 0 stage-1 instance of the benchmark's narrow workload
    "sig1_sv1_0": _instance(1, a=3.7, sv1=0.0),
    "linbb2_exact": (_EXACT, StrategySpec("linbb", controller=2)),
    "linkal1_exact": (_EXACT, StrategySpec("linkal", controller=1, k=2.5)),
    "linkal2_exact": (_EXACT, StrategySpec("linkal", controller=2, k=2.5)),
    "linbb1_neg_a": (_NEG2, StrategySpec("linbb", controller=1)),
    "linkal2_neg_a": (_NEG2, StrategySpec("linkal", controller=2, k=-2.5)),
    "sig2_neg_a": (_NEG2, _NEG_SIG2),
}


#: trial counts on each side of both the float kernel's and the fold's
#: threshold
_TRIALS = [1, 2, 9, 2048]


def test_trial_counts_cover_both_sides_of_each_threshold():
    for threshold in (strategies._FLOAT_MAX_TRIALS,
                      simulator._ACCUMULATE_MAX_TRIALS):
        assert min(_TRIALS) <= threshold < max(_TRIALS)


@pytest.mark.parametrize("trials", _TRIALS)
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_run_matches_step_by_step_reference(variant, trials):
    # 2048 trials: 32-step chunks, so burn-in 45 lies inside the second
    # chunk and the horizon of 100 ends on a partial chunk
    p, spec = _VARIANTS[variant]
    cfg = SimConfig(horizon=100, burn_in=45, trials=trials, seed=11)
    _assert_same(run(p, spec, cfg), _reference_run(p, spec, cfg))


@pytest.mark.parametrize("burn_in", [0, 31, 32, 64, 99])
@pytest.mark.parametrize("variant", ["linkal1", "sig2"])
def test_run_matches_reference_at_chunk_edges(variant, burn_in):
    p, spec = _VARIANTS[variant]
    cfg = SimConfig(horizon=100, burn_in=burn_in, trials=2048, seed=4)
    assert simulator._CHUNK_ELEMS // cfg.trials == 32
    _assert_same(run(p, spec, cfg), _reference_run(p, spec, cfg))


@pytest.mark.parametrize("burn_in", [0, 14, 20])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_run_matches_reference_with_small_chunks(monkeypatch, variant,
                                                 burn_in):
    # 7-step chunks at 9 trials: many chunk edges, burn-in on one (14) and
    # inside one (20), a horizon of 50 that is not a multiple of 7
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 9 * 7)
    p, spec = _VARIANTS[variant]
    cfg = SimConfig(horizon=50, burn_in=burn_in, trials=9, seed=2)
    _assert_same(run(p, spec, cfg), _reference_run(p, spec, cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_in_second_chunk_matches_reference():
    # |x| grows about 2000-fold per step and passes 1e150 near step 45,
    # inside the second 32-step chunk at 2048 trials
    p = ProblemParams(a=2000.0)
    cfg = SimConfig(horizon=200, burn_in=10, trials=2048, seed=0)
    res = run(p, StrategySpec("zero"), cfg)
    assert res.unstable and 32 <= res.unstable_step < 64
    _assert_same(res, _reference_run(p, StrategySpec("zero"), cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("trials", [1, 9])
def test_divergence_that_overflows_within_its_chunk(monkeypatch, trials,
                                                    rows):
    # a destabilising gain: the state passes 1e150 at step 1 (in the second
    # chunk when chunks are one step long); with 8-step chunks the rest of
    # the chunk overflows to inf and then NaN (inf - inf in the filter),
    # and no warning may escape.  Burn-in lies past the divergence, so the
    # reference squares nothing that overflows.
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", trials * rows)
    p = ProblemParams(a=2.0, sigma0_sq=1.0, sigmav1_sq=0.5, sigmav2_sq=0.5)
    spec = StrategySpec("linkal", controller=1, k=-1e100)
    cfg = SimConfig(horizon=40, burn_in=30, trials=trials, seed=5)
    res = run(p, spec, cfg)
    assert res.unstable and res.unstable_step == 1
    _assert_same(res, _reference_run(p, spec, cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e300])
@pytest.mark.parametrize("variant", ["sig1", "sig3", "sig2_neg_a",
                                     "linkal1"])
def test_float_kernel_diverges_like_the_array_kernel(monkeypatch, variant,
                                                     bad):
    # one noise value in trial 3 of 8 at step 37 sends that trial's state
    # to inf or NaN, on which math.floor raises where np.floor does not, or
    # (1e300) past the divergence threshold, where math.floor returns huge
    # ints: the run must report the array kernel's result, with no warning
    # and no error
    draw = simulator.counter_normals

    def injected(seed, trials, step_lo, step_hi, channel):
        out = draw(seed, trials, step_lo, step_hi, channel)
        if channel == simulator._CH_W and step_lo <= 37 < step_hi:
            out[37 - step_lo, 3] = bad
        return out

    monkeypatch.setattr(simulator, "counter_normals", injected)
    p, spec = _VARIANTS[variant]
    cfg = SimConfig(horizon=100, burn_in=10, trials=8, seed=6)
    assert cfg.trials <= strategies._FLOAT_MAX_TRIALS
    got = run(p, spec, cfg)
    assert got.unstable and got.unstable_step == 37
    monkeypatch.setattr(strategies, "_FLOAT_MAX_TRIALS", 0)
    _assert_same(got, run(p, spec, cfg))


@pytest.mark.parametrize("variant, channels", [
    ("zero", ()),
    ("linbb1", (simulator._CH_V1,)),
    ("linkal2", (simulator._CH_V2,)),
    ("sig2", (simulator._CH_V1, simulator._CH_V2)),
])
def test_only_read_observation_channels_are_drawn(monkeypatch, variant,
                                                  channels):
    # a silent controller's observation is never read, so run draws its
    # noise channel in no chunk (4 chunks of 32 steps at 2048 trials); the
    # reference draws every channel and still agrees bit for bit
    calls = Counter()
    draw = simulator.counter_normals

    def counting(seed, trials, step_lo, step_hi, channel):
        calls[channel] += 1
        return draw(seed, trials, step_lo, step_hi, channel)

    p, spec = _VARIANTS[variant]
    cfg = SimConfig(horizon=100, burn_in=45, trials=2048, seed=11)
    ref = _reference_run(p, spec, cfg)
    monkeypatch.setattr(simulator, "counter_normals", counting)
    _assert_same(run(p, spec, cfg), ref)
    assert calls == Counter({simulator._CH_X0: 1, simulator._CH_W: 4,
                             **{ch: 4 for ch in channels}})
