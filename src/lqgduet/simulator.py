"""Monte Carlo engine for the closed-loop scalar system

    x[n+1] = a x[n] + u1[n] + u2[n] + w[n],   y_i[n] = x[n] + v_i[n].

Noise is drawn from a counter-based generator keyed by
(seed, trial, step, channel) so that results are bit-reproducible under any
scheduling of the independent trials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ProblemParams
from .strategies import StrategySpec, make_strategy

DIVERGENCE_THRESHOLD = 1e150

#: element budget of each per-chunk buffer of run() (states, inputs, noise):
#: 512 KB of float64, so a chunk's noise and squares stay in cache
_CHUNK_ELEMS = 2 ** 16

#: counter_normals packs the trial index into 20 bits; beyond that the
#: streams of different trials and steps would coincide
MAX_TRIALS = 2 ** 20

_CH_W = 0
_CH_V1 = 1
_CH_V2 = 2
_CH_X0 = 3

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (64-bit avalanche bijection; the multiplies
    wrap mod 2^64 by design)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _uniform(counters: np.ndarray, seed_hash: np.uint64) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = _mix(seed_hash ^ (counters * _GOLD))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def counter_normals(seed: int, trials: int, step_lo: int, step_hi: int,
                    channel: int) -> np.ndarray:
    """Standard normals of shape (step_hi - step_lo, trials), a pure function
    of (seed, trial index, step index, channel)."""
    steps = np.arange(step_lo, step_hi, dtype=np.uint64)[:, None]
    trial = np.arange(trials, dtype=np.uint64)[None, :]
    base = (steps << np.uint64(24)) | (trial << np.uint64(4)) \
        | np.uint64(channel << 1)
    seed_hash = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    u0 = _uniform(base, seed_hash)
    u1 = _uniform(base | np.uint64(1), seed_hash)
    return np.sqrt(-2.0 * np.log(u0)) * np.cos(2.0 * math.pi * u1)


@dataclass(frozen=True)
class SimConfig:
    horizon: int = 200_000
    burn_in: int = 1_000
    trials: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (self.horizon > self.burn_in >= 0):
            raise ValueError("require horizon > burn_in >= 0")
        if not 1 <= self.trials < MAX_TRIALS:
            raise ValueError(f"trials must be in [1, {MAX_TRIALS})")


@dataclass(frozen=True)
class SimResult:
    avg_state_cost: float
    avg_u1_power: float
    avg_u2_power: float
    weighted_cost: float
    se_state: float
    se_u1: float
    se_u2: float
    unstable: bool = False
    unstable_step: Optional[int] = None


def _fold_squares(total: np.ndarray, rows: np.ndarray,
                  buf: np.ndarray) -> None:
    """total += r * r for each row r of rows, in row order.

    add.accumulate is sequential by definition, so the result is the same
    as a per-step running sum; sum would add pairwise."""
    m = rows.shape[0]
    acc = buf[:m + 1]
    acc[0] = total
    np.multiply(rows, rows, out=acc[1:])
    np.add.accumulate(acc, axis=0, out=acc)
    total[:] = acc[m]


def run(p: ProblemParams, spec: StrategySpec, cfg: SimConfig) -> SimResult:
    """Simulate the closed loop and return time-and-trial averages over the
    steps >= burn_in.  Divergence (|x| > 1e150, or a non-finite state in any
    trial) is reported as unstable with weighted cost +inf.

    The horizon runs in chunks of about _CHUNK_ELEMS / trials steps.  Each
    chunk draws its noise at once, and one call of the strategy's
    ``run_chunk`` runs the closed loop over it, writing the states into a
    (steps + 1, trials) buffer and the inputs into (steps, trials) buffers.
    run() then checks the whole chunk for divergence (reporting the first
    step whose next state diverged) and folds the post-burn-in squares into
    the per-trial sums with one sequential add.accumulate per quantity.
    Results are bit-identical to a step-by-step loop, for any chunk size."""
    n_tr = cfg.trials
    strat = make_strategy(spec, p)
    strat.reset(n_tr)

    sigma0 = math.sqrt(p.sigma0_sq)
    sv1 = math.sqrt(p.sigmav1_sq)
    sv2 = math.sqrt(p.sigmav2_sq)

    rows = max(1, _CHUNK_ELEMS // n_tr)
    X = np.empty((rows + 1, n_tr))
    # a silent controller's rows are never written and stay zero
    U1 = np.zeros((rows, n_tr))
    U2 = np.zeros((rows, n_tr))
    buf = np.empty((rows + 1, n_tr))
    X[0] = sigma0 * counter_normals(cfg.seed, n_tr, 0, 1, _CH_X0)[0]

    sx = np.zeros(n_tr)
    su1 = np.zeros(n_tr)
    su2 = np.zeros(n_tr)

    for lo in range(0, cfg.horizon, rows):
        k = min(rows, cfg.horizon - lo)
        hi = lo + k
        wc = counter_normals(cfg.seed, n_tr, lo, hi, _CH_W)
        v1c = sv1 * counter_normals(cfg.seed, n_tr, lo, hi, _CH_V1) \
            if sv1 else np.zeros((k, n_tr))
        v2c = sv2 * counter_normals(cfg.seed, n_tr, lo, hi, _CH_V2) \
            if sv2 else np.zeros((k, n_tr))
        Xk = X[1:k + 1]
        # a diverged trial runs on to the end of the chunk as inf/NaN
        with np.errstate(over="ignore", invalid="ignore"):
            strat.run_chunk(p.a, X[:k + 1], v1c, v2c, wc, U1[:k], U2[:k])
            if not np.max(np.abs(Xk)) <= DIVERGENCE_THRESHOLD:
                bad = ~(np.abs(Xk) <= DIVERGENCE_THRESHOLD)
                n = lo + int(np.argmax(bad.any(axis=1)))
                return SimResult(math.inf, math.inf, math.inf, math.inf,
                                 math.nan, math.nan, math.nan,
                                 unstable=True, unstable_step=n)
        j0 = max(0, cfg.burn_in - lo)
        if j0 < k:
            _fold_squares(sx, X[j0:k], buf)
            _fold_squares(su1, U1[j0:k], buf)
            _fold_squares(su2, U2[j0:k], buf)
        X[0] = X[k]

    m = cfg.horizon - cfg.burn_in
    sx /= m
    su1 /= m
    su2 /= m

    def se(v):
        if n_tr < 2:
            return math.nan
        return float(np.std(v, ddof=1) / math.sqrt(n_tr))

    D, P1, P2 = float(sx.mean()), float(su1.mean()), float(su2.mean())
    return SimResult(D, P1, P2, p.q * D + p.r1 * P1 + p.r2 * P2,
                     se(sx), se(su1), se(su2))

