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

from .core import ProblemParams, TradeoffPoint
from .strategies import StrategySpec, make_strategy

DIVERGENCE_THRESHOLD = 1e150

#: element budget of each per-chunk buffer of run() (states, inputs, noise):
#: 512 KB of float64, so a chunk's noise and squares stay in cache
_CHUNK_ELEMS = 2 ** 16

#: _fold_squares folds chunks of at most this many trials with one
#: add.accumulate, wider ones row by row: the crossover measured at
#: simulator.run's chunk sizes (CHANGES.md has the table)
_ACCUMULATE_MAX_TRIALS = 384

#: counter_normals packs the trial index into 20 bits; beyond that the
#: streams of different trials and steps would coincide
MAX_TRIALS = 2 ** 20

_CH_W = 0
_CH_V1 = 1
_CH_V2 = 2
_CH_X0 = 3

_MASK64 = 2 ** 64 - 1
_GOLD = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

#: counter_normals packs the channel into bits 1-3 of the counter
_N_CHANNELS = 8

#: counter_normals hashes the counters of about this many normals at a
#: time, so that its two scratch arrays (256 KB each) stay in cache
_BLOCK_ELEMS = 2 ** 14


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer (64-bit avalanche bijection) in place on z, with
    tmp as scratch of z's shape.  The multiplies wrap mod 2^64 by design."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_M1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_M2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _mix_int(z: int) -> int:
    """The splitmix64 finalizer of _mix on one Python int in [0, 2^64)."""
    z ^= z >> 30
    z = z * _M1 & _MASK64
    z ^= z >> 27
    z = z * _M2 & _MASK64
    return z ^ (z >> 31)


def counter_normals(seed: int, trials: int, step_lo: int, step_hi: int,
                    channel: int) -> np.ndarray:
    """Standard normals of shape (step_hi - step_lo, trials), a pure function
    of (seed, trial index, step index, channel).

    The normal at (step, trial) is sqrt(-2 log u0) * cos(2 pi u1).  The
    uniform uj is ((h >> 11) + 0.5) 2^-53 for the hash
    h = mix(mix(seed) ^ c G) of the counter
    c = (step << 24) | (trial << 4) | (channel << 1) | j, with G the
    golden-ratio constant and all integer arithmetic mod 2^64.  The bit
    fields of c are disjoint, so c G = (step << 24) G + (2 channel + j) G
    + (trial << 4) G: a per-step column plus a per-trial row that carries
    the channel term.  The seed's hash and the channel terms are Python
    ints; each block of rows is hashed, converted and transformed in
    place."""
    if not 0 <= channel < _N_CHANNELS:
        raise ValueError(f"channel must be in [0, {_N_CHANNELS})")
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [0, {MAX_TRIALS}]")
    seed_hash = np.uint64(_mix_int(seed & _MASK64))
    # (steps, 1) and (2, 1, trials)
    step_g = np.arange(step_lo, step_hi, dtype=np.uint64)[:, None]
    step_g <<= np.uint64(24)
    step_g *= np.uint64(_GOLD)
    trial_g = np.arange(trials, dtype=np.uint64)
    trial_g <<= np.uint64(4)
    trial_g *= np.uint64(_GOLD)
    trial_g = trial_g + np.array(
        [[[(2 * channel + j) * _GOLD & _MASK64]] for j in (0, 1)],
        dtype=np.uint64)

    m = len(step_g)
    out = np.empty((m, trials))
    rows = max(1, _BLOCK_ELEMS // max(trials, 1))
    h = np.empty((2, min(rows, m), trials), dtype=np.uint64)
    tmp = np.empty_like(h)
    for lo in range(0, m, rows):
        k = min(rows, m - lo)
        hk, tk = h[:, :k], tmp[:, :k]
        np.add(step_g[lo:lo + k], trial_g, out=hk)
        hk ^= seed_hash
        _mix(hk, tk)
        # h >> 11 is below 2^53: its int64 view converts to float64
        # exactly, and faster than the uint64 array
        hk >>= np.uint64(11)
        u = tk.view(np.float64)
        np.copyto(u, hk.view(np.int64))
        u += 0.5
        u *= 2.0 ** -53
        u0, u1 = u
        np.log(u0, out=u0)
        u0 *= -2.0
        np.sqrt(u0, out=u0)
        u1 *= 2.0 * math.pi
        np.cos(u1, out=u1)
        np.multiply(u0, u1, out=out[lo:lo + k])
    return out


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

    Up to _ACCUMULATE_MAX_TRIALS trials one add.accumulate folds the chunk;
    wider chunks fold row by row, which costs two NumPy calls per row but
    adds each element once.  add.accumulate is sequential by definition, so
    both give the bits of a per-step running sum; sum would add pairwise."""
    if rows.shape[1] > _ACCUMULATE_MAX_TRIALS:
        square = buf[0]
        for r in rows:
            np.multiply(r, r, out=square)
            total += square
        return
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
    the per-trial sums in row order (``_fold_squares``).
    A silent controller's observation noise is not drawn (its V rows are
    None) and its all-zero inputs are not folded: the noise streams are
    keyed by channel, and a sum of 0 * 0 stays 0.0.  Results are
    bit-identical to a step-by-step loop, for any chunk size."""
    n_tr = cfg.trials
    strat = make_strategy(spec, p)
    strat.reset(n_tr)

    sigma0 = math.sqrt(p.sigma0_sq)
    sv1 = math.sqrt(p.sigmav1_sq)
    sv2 = math.sqrt(p.sigmav2_sq)

    def observation_noise(i, sv, channel, lo, hi):
        if i in strat.silent:
            return None
        if not sv:
            return np.zeros((hi - lo, n_tr))
        v = counter_normals(cfg.seed, n_tr, lo, hi, channel)
        v *= sv
        return v

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
    # the input rows that are folded: a silent controller's stay zero
    folded = [(su, U) for i, su, U in ((1, su1, U1), (2, su2, U2))
              if i not in strat.silent]

    for lo in range(0, cfg.horizon, rows):
        k = min(rows, cfg.horizon - lo)
        hi = lo + k
        wc = counter_normals(cfg.seed, n_tr, lo, hi, _CH_W)
        v1c = observation_noise(1, sv1, _CH_V1, lo, hi)
        v2c = observation_noise(2, sv2, _CH_V2, lo, hi)
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
            for su, U in folded:
                _fold_squares(su, U[j0:k], buf)
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
    return SimResult(D, P1, P2, p.weighted(TradeoffPoint(D, P1, P2)),
                     se(sx), se(su1), se(su2))

