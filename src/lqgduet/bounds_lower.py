"""Converse machinery: information-limited MMSE, the four lower-bound
families D_L1..D_L4, the region partition of the power plane with its
closed-form disturbance floors, and the weighted-cost lower bound.

All families are nonincreasing in the power arguments, which the weighted
optimizer exploits: on each grid cell the objective q D + r1 P1 + r2 P2 is
lower-bounded by q D(upper corner) + r (lower corner), so the reported value
is a valid lower bound on the minimum over the whole quadrant, not just on
the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import A_MIN_CERTIFIED, ProblemParams, check_certified, \
    check_weightings, classify, noise_floor

#: geometric slicing ratio used by the converse bounds
RCONST = 2.5
_BETA = 1.0 / RCONST


class _PowerOverflow(ValueError):
    """A power of a that the converse needs overflows a float."""


def _power(x: float, n) -> float:
    """x ** n, for a power of |a| or of a^2 that the converse needs; raises
    _PowerOverflow, a ValueError naming the power, where it overflows a
    float."""
    try:
        return x ** n
    except OverflowError:
        raise _PowerOverflow(f"the converse is defined while the powers of a "
                             f"it needs are floats; {x:g}^{n:g} overflows") \
            from None


def _or_divided_first(value: float, divided_first: float) -> float:
    """value, a quantity computed as a product over its divisor, or, where
    that product overflows a float, divided_first: the same quantity with
    the division done before the product.  A value whose product is a
    float keeps its bits."""
    return value if value < math.inf else divided_first


def info_mmse(a: float, sigmav1_sq: float, sigmav2_sq: float,
              k1: int, k: int) -> float:
    """Residual variance of a^{k-1} w[0] after k1 rounds of two-channel
    observation (0, its limit, when the denominator overflows):

        a^{2(k-1)} sv1^2 /
        ((1 + sv1^2/sv2^2) a^{2(k1-1)} (1 - a^{-2k1})/(1 - a^{-2}) + sv1^2)

    Defined while the powers of a it needs are floats; raises
    _PowerOverflow where one of them overflows.  Where a^{2(k-1)} sv1^2
    overflows, sv1^2 is divided by the denominator first.
    """
    if k1 < 1 or k < 1:
        raise ValueError("k1, k must be >= 1")
    if sigmav1_sq == 0 or sigmav2_sq == 0:
        return 0.0
    A = abs(a)
    ratio = sigmav1_sq / sigmav2_sq
    geo = _power(A, 2 * (k1 - 1)) * (1 - A ** (-2 * k1)) / (1 - A ** -2)
    denom = (1 + ratio) * geo + sigmav1_sq
    if not math.isfinite(denom):
        return 0.0
    grow = _power(A, 2 * (k - 1))
    return _or_divided_first(grow * sigmav1_sq / denom,
                             grow * (sigmav1_sq / denom))


def mmse_floor(a: float, sigmav1_sq: float, sigmav2_sq: float,
               k1: int) -> float:
    """Residual variance of a^{k1-1} w[0] given observations up to k1 - 1
    (info_mmse over k1 - 1 rounds); equals 1 for k1 = 1 (no informative
    rounds).  This is also the cap on the slicing parameter Sigma."""
    if k1 == 1:
        return 1.0
    return info_mmse(a, sigmav1_sq, sigmav2_sq, k1 - 1, k1)


@dataclass(frozen=True)
class SliceParams:
    """Free parameters of the first lower-bound family."""

    k1: int
    k2: int
    k: int
    sigmav2p_sq: float
    alpha: float
    Sigma: float

    def check(self, p: ProblemParams) -> None:
        if self.k1 < 1 or self.k2 - self.k1 - 1 < 0 or self.k < self.k2:
            raise ValueError("require k1 >= 1, k2 >= k1 + 1, k >= k2")
        if self.sigmav2p_sq < 0:
            raise ValueError("sigmav2p_sq must be >= 0")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        _check_sigma(p, self.k1, self.Sigma)


def _check_sigma(p: ProblemParams, k1: int, Sigma: float) -> None:
    """Sigma must lie in [0, mmse_floor(k1)] (up to a relative 1e-12)."""
    cap = mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1)
    if not 0 <= Sigma <= cap * (1 + 1e-12):
        raise ValueError(f"Sigma outside [0, {cap}]")


def _geo(a: float, k_exp: int, count: int):
    """a^{2 k_exp} (1 - (2.5 a^{-2})^count) / (1 - 2.5 a^{-2});
    zero for count <= 0."""
    if count <= 0:
        return 0.0
    A2 = a * a
    r = RCONST / A2
    return _power(A2, float(k_exp)) * (1 - r ** count) / (1 - r)


# The families broadcast over a leading candidate axis: each candidate's
# coefficients are Python scalars, computed and grouped as in the scalar
# formula, stacked into (F, 1, ..., 1) columns; only the power-array work
# runs over (F, ...).  Elementwise IEEE arithmetic does not depend on the
# batch, so row f equals the one-candidate call bit for bit.

def _power_axes(P1t, P2t):
    """P1t and P2t as float arrays with a leading unit candidate axis, and
    the shape of their broadcast."""
    P1 = np.asarray(P1t, dtype=float)
    P2 = np.asarray(P2t, dtype=float)
    shape = np.broadcast_shapes(P1.shape, P2.shape)
    nd = len(shape)
    return (P1.reshape((1,) * (nd + 1 - P1.ndim) + P1.shape),
            P2.reshape((1,) * (nd + 1 - P2.ndim) + P2.shape), shape)


def _columns(rows, width: int, nd: int) -> np.ndarray:
    """Per-candidate rows of width scalars as width columns of shape
    (F, 1, ..., 1) with nd unit power axes."""
    cols = np.array(rows, dtype=float).reshape(len(rows), width)
    return cols.T.reshape((width, len(rows)) + (1,) * nd)


def _result(out: np.ndarray, single: bool):
    """The stacked result, or the one candidate's row (a float for scalar
    powers)."""
    if not single:
        return out
    return float(out[0]) if out.ndim == 1 else out[0]


def dl1(p: ProblemParams, sp, P1t, P2t, out=None):
    """First lower-bound family (signaling converse), evaluated exactly as
    the two (.)_+^2 branches weighted by alpha, plus 1.  Broadcasts over
    power arrays.  sp is one SliceParams, or a sequence of them evaluated
    in one broadcast over a leading candidate axis (written into out when
    given)."""
    single = isinstance(sp, SliceParams)
    sps = [sp] if single else list(sp)
    for s in sps:
        s.check(p)
    check_certified(p)
    if p.sigmav2_sq == 0:
        raise ValueError("requires sigmav2_sq > 0")
    P1, P2, shape = _power_axes(P1t, P2t)
    A = abs(p.a)
    sv2_sq = p.sigmav2_sq
    sv2 = math.sqrt(sv2_sq)
    log2A = math.log2(A)
    d = (1 - RCONST / A ** 2) * (1 - _BETA)
    rows = []
    for s in sps:
        k1, k2, k = s.k1, s.k2, s.k
        Sig, sv2p_sq = s.Sigma, s.sigmav2p_sq
        sv2p = math.sqrt(sv2p_sq)
        m = k2 - k1 - 1
        same = sv2p == sv2
        c = 1.0 if same else (2 * sv2p / (math.sqrt(2 * math.pi) * sv2)
                              * math.exp(-sv2p_sq / (2 * sv2_sq)))
        g4 = _geo(A, k - k2 - 1, k - k2)
        rows.append((
            # I2 = m/2 log2(1 + (i2s + i2p P1/d)/(m sv2^2)), 0 for m = 0
            m > 0, m / 2.0, 1.0 / (m * sv2_sq) if m > 0 else 0.0,
            2.0 * _power(A, 2 * (k2 - 2 - k1)) / (1 - A ** -2) * Sig
            if m > 0 else 0.0,
            2.0 * _power(A, 2 * (k2 - 3 - k1)) / (1 - A ** -2) * RCONST
            if m > 0 else 0.0,
            # I1 = I2 + 1/2 log2(1 + (i1s + i1p P1/d)/sv2p^2), inf at
            # sv2p = 0, plus the entropy gap when sv2p != sv2
            sv2p_sq > 0, 1.0 / sv2p_sq if sv2p_sq > 0 else 0.0,
            2.0 * _power(A, 2 * (k2 - 1 - k1)) * Sig if sv2p_sq > 0 else 0.0,
            2.0 * _power(A, 2 * (k2 - 2 - k1)) if sv2p_sq > 0 else 0.0,
            same,
            # radicands of branch1 and branch2
            c * Sig, 2 * (k - k1) * log2A, c * _geo(A, k - k1 - 1, k2 - k1),
            g4 * RCONST ** (k2 - k1), g4,
            Sig, 2 * (k - k1 - 1) * log2A,
            _geo(A, k - k1 - 2, k - k1 - 1) * RCONST,
            s.alpha, 1 - s.alpha))
    (m_pos, i2m, i2c, i2s, i2p, p_pos, i1c, i1s, i1p, same, r1c, r1e, r2c,
     r3c, r4c, b1c, b1e, b2c, alpha, beta) = _columns(rows, 20, len(shape))
    if out is None:
        out = np.empty((len(sps),) + shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        I2 = np.multiply(i2p, P1)
        np.divide(I2, d, out=I2)
        np.add(i2s, I2, out=I2)
        np.multiply(i2c, I2, out=I2)
        np.add(1.0, I2, out=I2)
        np.log2(I2, out=I2)
        np.multiply(i2m, I2, out=I2)
        np.copyto(I2, 0.0, where=m_pos == 0)

        I1 = np.multiply(i1p, P1)
        np.divide(I1, d, out=I1)
        np.add(i1s, I1, out=I1)
        np.multiply(i1c, I1, out=I1)
        np.add(1.0, I1, out=I1)
        np.log2(I1, out=I1)
        np.multiply(0.5, I1, out=I1)
        np.add(I2, I1, out=I1)
        np.copyto(I1, np.inf, where=p_pos == 0)
        np.add(I1, 0.5 * math.log2(2 * math.pi * math.e / 4), out=I1,
               where=same == 0)

        def radical(coef, P):
            r = np.multiply(coef, P)
            np.divide(r, 1 - _BETA, out=r)
            return np.sqrt(r, out=r)

        def decayed(coef, expo, I):
            """sqrt(coef 2^(expo - 2 I)), written over I."""
            np.multiply(2, I, out=I)
            np.subtract(expo, I, out=I)
            np.exp2(I, out=I)
            np.multiply(coef, I, out=I)
            return np.sqrt(I, out=I)

        rad4 = radical(r4c, P2)
        rad1 = decayed(r1c, r1e, I1)
        np.subtract(rad1, radical(r2c, P1), out=rad1)
        np.subtract(rad1, radical(r3c, P1), out=rad1)
        np.subtract(rad1, rad4, out=out)
        np.fmax(out, 0.0, out=out)
        np.square(out, out=out)

        rb1 = decayed(b1c, b1e, I2)
        np.subtract(rb1, radical(b2c, P1), out=rb1)
        branch2 = np.subtract(rb1, rad4)
        np.fmax(branch2, 0.0, out=branch2)
        np.square(branch2, out=branch2)

        # alpha branch1 + (1 - alpha) branch2 + 1: 0 inf is NaN, which
        # slicing_bound's fmin skips
        np.multiply(alpha, out, out=out)
        np.multiply(beta, branch2, out=branch2)
        np.add(out, branch2, out=out)
        np.add(out, 1.0, out=out)
    return _result(out, single)


#: one-time downward rounding of the closed-form dl2 inner minimum: its
#: float evaluation can land 1-3 ULP above the exact minimum, and a lower
#: bound must not be rounded up (8 eps leaves a margin over that)
_DL2_ROUND_DOWN = 1.0 - 8.0 * np.finfo(float).eps
#: below the normal range float rounding is absolute and the round-down
#: above does not reach it: a subnormal inner minimum steps down by 8
#: subnormal steps (its evaluation lands at most 5 above the exact one)
_DL2_SUBNORMAL_DOWN = 8 * 2.0 ** -1074


def _dl2_inner(A: float, Sigma, sv1_sq: float, sv2_sq: float, C1, C2):
    """Exact minimum of the convex quadratic
    f(c1, c2) = (A - c1 - c2)^2 Sigma + c1^2 sv1^2 + c2^2 sv2^2 over the box
    |c_i| <= C_i (KKT): the unconstrained minimiser where it lies in the
    box, else the best clamped 1-D minimum on the four edges.  Broadcasts
    over Sigma, C1 and C2."""
    Sigma = np.asarray(Sigma, dtype=float)
    tiny = np.finfo(float).tiny
    best = np.full(np.broadcast_shapes(np.shape(Sigma), np.shape(C1),
                                       np.shape(C2)), np.inf)

    def f(c1, c2):
        return (A - c1 - c2) ** 2 * Sigma + c1 ** 2 * sv1_sq + c2 ** 2 * sv2_sq

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # fmin skips the NaN an infinite box edge evaluates to
        for e in (C1, -C1):
            np.fmin(best, f(e, np.clip(Sigma * (A - e) / (Sigma + sv2_sq),
                                       -C2, C2)), out=best)
        for e in (C2, -C2):
            np.fmin(best, f(np.clip(Sigma * (A - e) / (Sigma + sv1_sq),
                                    -C1, C1), e), out=best)
        den = sv1_sq * sv2_sq + Sigma * (sv1_sq + sv2_sq)
        inside = (den > 0) & (A * Sigma * sv2_sq / den <= C1) \
            & (A * Sigma * sv1_sq / den <= C2)
        # the interior minimum A^2 Sigma sv1^2 sv2^2 / den; where a partial
        # product or den is subnormal it drops bits, and the same value is
        # A^2 lo / (1 + lo/mid + lo/hi) over the sorted Sigma, sv1^2, sv2^2
        AAS = A * A * Sigma
        num = AAS * sv1_sq * sv2_sq
        interior = num / den
        lossy = (AAS < tiny) | (AAS * sv1_sq < tiny) | (num < tiny) \
            | (den < tiny)
        if lossy.any():
            lo, mid, hi = np.sort(np.broadcast_arrays(Sigma, sv1_sq, sv2_sq),
                                  axis=0)
            interior = np.where(lossy, A * A * lo / (1 + lo / mid + lo / hi),
                                interior)
        np.fmin(best, interior, out=best, where=inside)
    np.multiply(best, _DL2_ROUND_DOWN, out=best)
    np.copyto(best, np.fmax(best - _DL2_SUBNORMAL_DOWN, 0.0),
              where=best < tiny)
    np.copyto(best, 0.0, where=np.equal(Sigma, 0))
    return best


def dl2(p: ProblemParams, k1, k, Sigma, P1t, P2t, out=None):
    """Second family (simultaneous-action converse): the clamped-radical
    form built on the constrained two-sensor estimation game.  k1, k and
    Sigma are scalars, or equal-length sequences evaluated in one
    broadcast over a leading candidate axis (written into out when
    given)."""
    single = np.ndim(k1) == 0
    cands = [(k1, k, Sigma)] if single else list(zip(k1, k, Sigma))
    for k1c, kc, Sig in cands:
        if kc < k1c + 1:
            raise ValueError("require k >= k1 + 1")
        _check_sigma(p, k1c, Sig)
    check_certified(p)
    P1, P2, shape = _power_axes(P1t, P2t)
    A = abs(p.a)
    sv1_sq, sv2_sq = p.sigmav1_sq, p.sigmav2_sq
    rows = [(Sig, (1 - _BETA) * (Sig + sv1_sq), (1 - _BETA) * (Sig + sv2_sq),
             _power(A, 2 * (kc - k1c - 1)),
             _geo(A, kc - k1c - 2, kc - k1c - 1) / ((1 - _BETA) * _BETA))
            for k1c, kc, Sig in cands]
    Sig, den1, den2, grow, gterm = _columns(rows, 5, len(shape))
    if out is None:
        out = np.empty((len(cands),) + shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        C1 = np.sqrt(np.divide(P1, den1))
        np.copyto(C1, np.inf, where=~(Sig + sv1_sq > 0))
        C2 = np.sqrt(np.divide(P2, den2))
        np.copyto(C2, np.inf, where=~(Sig + sv2_sq > 0))
        np.multiply(grow, _dl2_inner(A, Sig, sv1_sq, sv2_sq, C1, C2),
                    out=out)
        np.sqrt(out, out=out)
        np.subtract(out, np.sqrt(np.multiply(gterm, P1)), out=out)
        np.subtract(out, np.sqrt(np.multiply(gterm, P2)), out=out)
        np.fmax(out, 0.0, out=out)
        np.square(out, out=out)
        np.add(out, 1.0, out=out)
    return _result(out, single)


def dl3(p: ProblemParams, k1: int) -> float:
    """Third family: the power-independent information floor
    max(residual variance of a^{k1-1} w[0], 1)."""
    if k1 < 1:
        raise ValueError("k1 must be >= 1")
    return max(mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1), 1.0)


def dl4(p: ProblemParams, k, P1t, P2t, out=None):
    """Fourth family: the direct disturbance-vs-power race

        ( a^{k-1} - sqrt(a^{2(k-2)}/(1 - 2.5 a^{-2}) P1/(1 - 2.5^{-1}))
                  - sqrt(... P2 ...) )_+^2.

    k is one race length, or a sequence of them evaluated in one broadcast
    over a leading candidate axis (written into out when given).
    """
    single = np.ndim(k) == 0
    ks = [k] if single else list(k)
    if any(kk < 2 for kk in ks):
        raise ValueError("k must be >= 2")
    check_certified(p)
    P1, P2, shape = _power_axes(P1t, P2t)
    A = abs(p.a)
    rows = [(_power(A, kk - 1),
             _power(A, 2 * (kk - 2)) / (1 - RCONST / A ** 2) / (1 - _BETA))
            for kk in ks]
    head, g = _columns(rows, 2, len(shape))
    if out is None:
        out = np.empty((len(ks),) + shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        race = np.sqrt(np.multiply(g, P1))
        np.subtract(head, race, out=race)
        np.subtract(race, np.sqrt(np.multiply(g, P2)), out=out)
        np.fmax(out, 0.0, out=out)
        np.square(out, out=out)
    return _result(out, single)


# ---------------------------------------------------------------------------
# region partition of the power plane
# ---------------------------------------------------------------------------

#: every region's disturbance floor is at least FLOOR_COEF max(1, a^2 sv1^2)
FLOOR_COEF = 0.295
#: weak-regime thresholds T1 = a^2 m / 400, T2 = a^2 max(1, a^2 sv2^2) / 400
#: (RegionPartition stores them as t1 and t2a)
WEAK_T_DIV = 400.0
#: strong-regime thresholds t1 = sv2^2 / (70 a^{2(s-1)}),
#: t1hi = max(a^2, a^4 sv1^2) / 20000 and t2a = a^4 sv2^2 / 28000
STRONG_T1_DIV = 70.0
STRONG_T1HI_DIV = 20000.0
STRONG_T2A_DIV = 28000.0
#: region-ii floor coefficients c in c a^2 sv2^2 + 1 (weak, strong)
WEAK_II_COEF = 0.176
STRONG_II_COEF = 0.008
#: decay coefficient of the signaling factor P1 e^{-50 a^{2(s-1)} P1 / sv2^2}
SIG_DECAY_COEF = 50.0
#: signaling and noise-floor coefficients of the strong-iv floor and of t2c
IV_SIG_COEF = 0.2541
IV_M_COEF = 0.066
T2C_SIG_COEF = 0.0457
T2C_M_COEF = 0.0113


class RegionPartition:
    """Partition of the power plane (P1, P2) into the regime's regions,
    with the closed-form disturbance floor of each region.
    Weight-independent; built once per parameter set (requires |a| > 1).

    Both regimes share one shape, written with the strong regime's
    thresholds: for P1 <= t1, region i (P2 <= t2a) or ii; inside the
    signaling bracket t1 < P1 <= t1hi, region iii (P2 <= t2c(P1)) or iv;
    region v for P1 > v_edge = max(t1, t1hi).  labels names the five
    regions.  The weak regime's thresholds T1 = a^2 m / 400 and
    T2 = a^2 max(1, a^2 sv2^2) / 400 are stored as t1 and t2a, and its
    signaling bracket is empty (t1hi = t1): weak-i, weak-ii and weak-iii
    are regions i, ii and v, and iii and iv have no label.
    """

    def __init__(self, p: ProblemParams):
        self.p = p
        A = abs(p.a)
        sv2 = p.sigmav2_sq
        self.regime = regime = classify(p)
        self.m = m = noise_floor(p)
        if regime.kind == "weak":
            self.labels = ("weak-i", "weak-ii", None, None, "weak-iii")
            t1 = t1hi = _or_divided_first(A ** 2 * m / WEAK_T_DIV,
                                          A ** 2 * (m / WEAK_T_DIV))
            t2a = _or_divided_first(
                A ** 2 * max(1.0, A ** 2 * sv2) / WEAK_T_DIV,
                A ** 2 * max(1.0 / WEAK_T_DIV, A ** 2 * (sv2 / WEAK_T_DIV)))
            ii_coef = WEAK_II_COEF
        else:
            self.labels = ("strong-i", "strong-ii", "strong-iii",
                           "strong-iv", "strong-v")
            t1 = sv2 / (STRONG_T1_DIV * A ** (2 * (regime.s - 1)))
            A4 = _power(A, 4)
            sv1 = p.sigmav1_sq
            t1hi = _or_divided_first(
                max(A ** 2, A4 * sv1) / STRONG_T1HI_DIV,
                max(A ** 2 / STRONG_T1HI_DIV, A4 * (sv1 / STRONG_T1HI_DIV)))
            t2a = _or_divided_first(A4 * sv2 / STRONG_T2A_DIV,
                                    A4 * (sv2 / STRONG_T2A_DIV))
            ii_coef = STRONG_II_COEF
        self.t1, self.t1hi, self.t2a = t1, t1hi, t2a
        self.v_edge = max(t1, t1hi)
        #: disturbance floor of region ii
        self.d_ii = max(ii_coef * A ** 2 * sv2 + 1.0, FLOOR_COEF * m)
        self._check_finite("t1", "t1hi", "t2a", "d_ii")
        #: strong-iv bracket cells (empty when the bracket is): lower P1
        #: edge, and the disturbance floor and stabilization threshold at
        #: the cell's smallest signaling factor
        self.iv_p1 = self.iv_floor = self.iv_t2c = np.empty(0)
        if t1 < t1hi:
            # cell-wise 1-D minimization over the bracket; the unimodal
            # signaling factor attains its cell minimum at an endpoint
            edges = np.geomspace(t1, t1hi, 201)
            f = self._sig(edges)
            f_min = np.minimum(f[:-1], f[1:])
            self.iv_p1 = edges[:-1]
            with np.errstate(over="ignore"):
                self.iv_floor = self._iv_floor(f_min)
                self.iv_t2c = self._t2c_of(f_min)
            self._check_finite("iv_floor", "iv_t2c")

    def _check_finite(self, *names: str) -> None:
        """Raise ValueError unless the named thresholds and floors are
        finite: the partition is defined while they are floats."""
        for name in names:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"the region partition's {name} overflows "
                                 f"a float at |a| = {abs(self.p.a):g}")

    def _sig(self, P1):
        """Signaling factor P1 e^{-50 a^{2(s-1)} P1 / sv2^2}."""
        decay_c = SIG_DECAY_COEF * abs(self.p.a) ** (2 * (self.regime.s - 1)) \
            / self.p.sigmav2_sq
        return P1 * np.exp(-decay_c * P1)

    def _iv_floor(self, f):
        A2s = _power(abs(self.p.a), 2 * self.regime.s)
        return np.maximum(IV_SIG_COEF * A2s * f + IV_M_COEF * A2s * self.m
                          + 1.0, FLOOR_COEF * self.m)

    def _t2c_of(self, f):
        A = abs(self.p.a)
        A2s = _power(A, 2 * self.regime.s)
        return T2C_SIG_COEF * A ** 2 * A2s * f \
            + T2C_M_COEF * A ** 2 * A2s * self.m

    def t2c(self, P1):
        """Second-controller stabilization threshold in the signaling
        bracket: 0.0457 a^{2(s+1)} P1 e^{-50 a^{2(s-1)} P1 / sv2^2}
        + 0.0113 a^{2(s+1)} m.  Broadcasts over P1."""
        return self._t2c_of(self._sig(P1))

    def _region(self, P1: float, P2: float) -> int:
        """Index in labels of the region the point (P1, P2) falls in."""
        if P1 <= self.t1:
            return 0 if P2 <= self.t2a else 1
        if P1 <= self.t1hi:
            return 2 if P2 <= self.t2c(P1) else 3
        return 4

    def label(self, P1: float, P2: float) -> str:
        """The region the point (P1, P2) falls in."""
        return self.labels[self._region(P1, P2)]

    def floor(self, P1: float, P2: float) -> float:
        """Closed-form disturbance floor at (P1, P2); +inf on regions i and
        iii, where no strategy stabilizes the loop."""
        region = self._region(P1, P2)
        if region in (0, 2):
            return math.inf
        if region == 1:
            return self.d_ii
        if region == 3:
            return float(self._iv_floor(self._sig(P1)))
        return FLOOR_COEF * self.m

    def corollary(self, q: float, r1: float,
                  r2: float) -> Tuple[float, str]:
        """Lower bound on min q D + r1 P1 + r2 P2 from the region floors,
        with the label of the region where the minimum lands."""
        if q == 0:
            return 0.0, self.labels[0]
        options = [(q * self.d_ii + r2 * self.t2a, self.labels[1])]
        if self.iv_p1.size:
            # a weight near the float limit overflows a cell's cost to
            # +inf, its value there
            with np.errstate(over="ignore"):
                vals = q * self.iv_floor + r1 * self.iv_p1 + r2 * self.iv_t2c
            options.append((float(vals.min()), self.labels[3]))
        options.append((q * FLOOR_COEF * self.m + r1 * self.v_edge,
                        self.labels[4]))
        return min(options, key=lambda x: x[0])


# ---------------------------------------------------------------------------
# weighted-cost lower bound
# ---------------------------------------------------------------------------

def _slicing_candidates(p: ProblemParams, part: RegionPartition
                        ) -> Tuple[List[SliceParams],
                                   List[Tuple[int, int, float]], List[str]]:
    """Parameter recipes (with perturbations) for the dl1 and dl2 families,
    and why each k1 left out of them was left out: a k1 whose Sigma cap
    needs a power of a that overflows a float offers no candidate.

    Two slices of the recipe are left out because they never bind:

    - dl1's sv2p^2 = (100/70) sv2^2 option.  Its row is <= the
      sv2p^2 = sv2^2 row with the same (k1, k2, k, Sigma) on every cell.
      Its branch-1 head radicand c Sigma a^{2(k-k1)} 2^{-2 I1} is at most
      c (4 / 2 pi e)(100/70) <= 0.156 of that row's (the entropy gap, and
      1 + x/sv2p^2 >= (sv2^2/sv2p^2)(1 + x/sv2^2) in I1), so the head
      shrinks by at least sqrt(0.156) ~ 0.395, while the r2c subtraction
      shrinks only by sqrt(c) ~ 0.683, and the other radicals are the
      same: (h' - 0.683 r - t)_+ <= (h - r - t)_+ for every r, t >= 0
      whenever h' <= 0.395 h.  Branch 2 does not depend on sv2p.
    - dl2's Sigma < cap slices.  dl2 is nondecreasing in Sigma: the
      objective (a - c1 - c2)^2 Sigma + ... grows with Sigma and the box
      |c_i| <= C_i ~ (Sigma + sv_i^2)^{-1/2} shrinks, so its minimum does
      not fall, and the rest of the row does not depend on Sigma.
    """
    a2sv1 = p.a * p.a * p.sigmav1_sq
    A = abs(p.a)
    m = part.m
    # k1 recipe: a^{2(k1-2)} <= a^2 sv1^2 < a^{2(k1-1)}, else k1 = 1
    if a2sv1 < 1:
        k1_base = 1
    else:
        k1_base = 2 + int(math.floor(math.log(a2sv1) / (2 * math.log(A))))
    s = part.regime.s if part.regime.kind == "strong" else 1

    dl1_cands: List[SliceParams] = []
    dl2_cands: List[Tuple[int, int, float]] = []
    left_out: List[str] = []
    sv2p_options = []
    if p.sigmav2_sq > 0:
        # large-deviation variance inflation near the signaling power scale
        base_P = p.sigmav2_sq / (STRONG_T1_DIV * A ** (2 * (s - 1)))
        sv2p_options = [p.sigmav2_sq,
                        100.0 * A ** (2 * (s - 1)) * base_P * 16.0]
    for k1 in sorted({max(1, k1_base + off) for off in (-1, 0, 1)}):
        try:
            cap = mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1)
        except _PowerOverflow as err:
            left_out.append(str(err))
            continue
        for Sigma in sorted({min(cap, FLOOR_COEF * m), cap * 0.5, cap}):
            for k2 in (k1 + s + 1, k1 + s + 2):
                for k in (k2, k2 + 2):
                    dl1_cands += [SliceParams(k1, k2, k, sv2p_sq, 1.0, Sigma)
                                  for sv2p_sq in sv2p_options]
        dl2_cands += [(k1, k1 + k_off, cap) for k_off in (1, 2, 4)]
    return dl1_cands, dl2_cands, left_out


#: race lengths k of the dl4 candidates: dl4(k) = a^{2(k-2)} (a - sqrt(c P1)
#: - sqrt(c P2))_+^2 is nondecreasing in k for |a| > 1 and every dl4 tail
#: is 0, so a shorter race never binds where k = 8 is offered
_DL4_KS = (8,)


def _undominated(D: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Indices, in increasing order, of the family rows that no other row
    dominates.  Row g dominates row f when D[g] >= D[f] on every cell and
    tail[g] >= tail[f]; of equal rows the first walked is kept.  A NaN cell
    compares False both ways, so a row with one is always kept and never
    drops another.

    The rows are walked by decreasing sum of cells plus tail (a stable
    sort).  A row still alive when walked is kept and drops every row it
    dominates, in one vectorised comparison against all of them.  So every
    dropped row is dominated by a kept one.  A dominator's sum is at least
    its dominated row's, so it is walked first, and by transitivity the
    kept rows are the undominated ones (a dominated row is kept only when
    its sum ties its dominator's and the stable sort walks it first)."""
    cells = D.reshape(len(D), math.prod(D.shape[1:]))
    # a sum that overflows is +inf, which keeps the walk order's premise
    with np.errstate(over="ignore"):
        order = np.argsort(-(cells.sum(axis=1) + tail), kind="stable")
    alive = np.ones(len(D), dtype=bool)
    kept = []
    for g in order:
        if alive[g]:
            kept.append(g)
            alive &= ~(np.all(cells[g] >= cells, axis=1) & (tail[g] >= tail))
    return np.sort(np.array(kept, dtype=np.intp))


class LowerBoundEvaluator:
    """Precomputes, for one set of system parameters, the D values of every
    candidate converse family on the power grid, so the weighted bound can
    be evaluated quickly for many (q, r1, r2) weightings.

    D_hi[f, i, j] is family f at the upper corner (grid[i+1], grid[j+1]) of
    cell [grid[i], grid[i+1]] x [grid[j], grid[j+1]] (the grid includes 0);
    tail[f] lower-bounds family f beyond the grid.  Each family is built by
    one stacked call over all of its recipe's candidates, in candidate
    order; the recipe builds them inside their family's domain, so a
    candidate that fails the family's checks is a recipe bug and raises
    ValueError.  A candidate whose coefficients need a power of a that
    overflows a float is left out instead: its D_hi row is NaN, which
    slicing_bound skips, and left_out keeps its message; so does a k1 of
    the recipe whose Sigma cap overflows, which offers no candidate.  The
    max over the remaining candidates is still a lower bound.

    D_hi and tail keep every candidate row.  The constructor also keeps a
    private copy of the undominated rows only (a few percent of them on
    the grid), and slicing_bound answers every query from those: a
    dominated row never sets the max, so each answer is bit-identical to
    the full reduction.
    """

    def __init__(self, p: ProblemParams):
        self.p = p
        # power grid: 0, then two points per decade from 1e-6 to 1e12
        self.grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e12, 37)))
        n = self.grid.size - 1
        self.D_hi = np.empty((0, n, n))
        self.tail = np.empty(0)
        self.dl3_best = 1.0
        #: why each left-out recipe k1 and candidate was left out, in
        #: recipe order
        self.left_out: List[str] = []
        self.certified = abs(p.a) >= A_MIN_CERTIFIED
        self.partition: Optional[RegionPartition] = None
        if self.certified:
            self.partition = RegionPartition(p)
            # the k1 scan ends at 39, or before where mmse_floor needs a
            # power of a that overflows
            for k1 in range(1, 40):
                try:
                    self.dl3_best = max(self.dl3_best, dl3(p, k1))
                except _PowerOverflow:
                    break
            dl1_cands, dl2_cands, self.left_out = _slicing_candidates(
                p, self.partition)
            n1 = len(dl1_cands)
            n2 = n1 + len(dl2_cands)
            self.D_hi = np.empty((n2 + len(_DL4_KS), n, n))
            # beyond the grid dl1 and dl2 are at least 1, dl4 at least 0
            self.tail = np.repeat([1.0, 1.0, 0.0],
                                  [n1, n2 - n1, len(_DL4_KS)])
            # one stacked call per family
            self._fill(partial(dl1, p), dl1_cands, self.D_hi[:n1])
            self._fill(lambda c, P1, P2, out: dl2(p, *zip(*c), P1, P2,
                                                  out=out),
                       dl2_cands, self.D_hi[n1:n2])
            self._fill(partial(dl4, p), _DL4_KS, self.D_hi[n2:])
        # the rows slicing_bound reduces
        keep = _undominated(self.D_hi, self.tail)
        self._D, self._tail = self.D_hi[keep], self.tail[keep]

    def _fill(self, family, cands, out: np.ndarray) -> None:
        """Write the rows of cands at the grid's upper corners into out
        by one stacked call family(cands, P1, P2, out=out).  Where a
        candidate's power of a overflows, one call per candidate instead:
        each candidate that overflows gets a NaN row and a left_out
        message, and every other row is the stacked call's.  No cands
        (dl1 offers none when sigmav2_sq = 0, which it rejects) writes
        nothing."""
        if not cands:
            return
        hi1 = self.grid[1:, None]
        hi2 = self.grid[None, 1:]
        try:
            family(cands, hi1, hi2, out=out)
        except _PowerOverflow:
            for f in range(len(cands)):
                try:
                    family(cands[f:f + 1], hi1, hi2, out=out[f:f + 1])
                except _PowerOverflow as err:
                    out[f] = np.nan
                    self.left_out.append(str(err))

    def slicing_bound(self, q: float, r1: float, r2: float) -> float:
        """slicing_bound_many at the one weighting (q, r1, r2)."""
        return self.slicing_bound_many([(q, r1, r2)])[0]

    def slicing_bound_many(self, weights: Sequence[Tuple[float, float,
                                                          float]]
                           ) -> List[float]:
        """For each weighting (q, r1, r2), the largest family bound on
        min_{P1,P2 >= 0} q D + r1 P1 + r2 P2 (at least q times the dl3
        floor): per cell, (q D + r1 P1) + r2 P2 with D at its upper corner
        and the powers at its lower corner (D is nonincreasing), and the
        tail beyond the grid; all-NaN families are skipped.

        For q > 0 and r1, r2 >= 0 every step (q D, + r lo, fmin over the
        cells, the tail terms, np.minimum) is monotone in IEEE arithmetic,
        so a dominated row's family value never exceeds its dominator's
        and reducing only the undominated rows leaves the fmax
        bit-identical.

        The cell minimum is taken in two steps: over P1 of q D + r1 P1,
        once per distinct (q, r1), then over P2 after adding r2 P2 to
        each column's minimum.  Rounding is monotone, so x + r2 P2 is
        nondecreasing in x: a column's minimum plus r2 P2 is the minimum
        of the column's sums, with a NaN cell skipped either way, and each
        bound is the cell-by-cell bound bit for bit.  A negative or
        non-finite weight raises ValueError before any weighting is
        answered."""
        weights = list(weights)
        check_weightings(weights)
        w = np.array(weights, dtype=float).reshape(len(weights), 3)
        D, tail = self._D, self._tail
        lo = self.grid[:-1]
        g_hi = self.grid[-1]
        # each distinct (q, r1), told apart by its bits, numbered in the
        # order first seen, and each weighting's number
        seen: Dict[bytes, int] = {}
        pair = [seen.setdefault(qr1.tobytes(), len(seen))
                for qr1 in w[:, :2]]
        cols = np.empty((len(seen), len(D), lo.size))
        work = np.empty(D.shape)
        q, r1, r2 = w[:, 0, None], w[:, 1, None], w[:, 2, None]
        # a weight near the float limit overflows a term to +inf, which is
        # the bound's value there
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (qk, r1k) in enumerate(
                    np.frombuffer(b"".join(seen)).reshape(len(seen), 2)):
                np.multiply(D, qk, out=work)
                work += r1k * lo[:, None]
                np.fmin.reduce(work, axis=1, out=cols[k])
            cols = cols[pair]
            cols += (r2 * lo)[:, None, :]
            cell = np.fmin.reduce(cols, axis=2)
            fam = np.minimum(cell, np.minimum(q * tail + r1 * g_hi,
                                              q * tail + r2 * g_hi))
            # the dl3 floor first, as fmax.reduce's initial value
            fam = np.concatenate((q * self.dl3_best, fam), axis=1)
        return np.fmax.reduce(fam, axis=1).tolist()

    def weighted(self, q: float, r1: float, r2: float,
                 with_label: bool = False):
        """weighted_many at the one weighting (q, r1, r2)."""
        return self.weighted_many([(q, r1, r2)], with_label)[0]

    def weighted_many(self, weights: Sequence[Tuple[float, float, float]],
                      with_label: bool = False) -> list:
        """For each weighting (q, r1, r2), a valid lower bound on the
        infimum weighted average cost.

        Combines the universal disturbance floor (E[x^2] >= 1), the
        region-wise corollary floors, and the slicing families (cell-wise
        minimized so the result bounds the continuum minimum; one
        slicing_bound_many call for all weightings).  Outside |a| >= 2.5
        only the universal floor is used.  With with_label, each bound
        comes with its binding route: 'floor', 'slicing', a region label,
        or 'degenerate' for q = 0.  A negative or non-finite weight raises
        ValueError before any weighting is answered.
        """
        weights = list(weights)
        check_weightings(weights)
        slicing = self.slicing_bound_many(weights) if self.certified \
            else None
        out = []
        for k, (q, r1, r2) in enumerate(weights):
            if q == 0:
                best, label = 0.0, "degenerate"
            else:
                best, label = q * 1.0, "floor"
                if self.certified:
                    val, lab = self.partition.corollary(q, r1, r2)
                    if val > best:
                        best, label = val, lab
                    if slicing[k] > best:
                        best, label = slicing[k], "slicing"
            out.append((best, label) if with_label else best)
        return out


def lower_weighted_cost(p: ProblemParams, with_label: bool = False):
    """Valid lower bound on the infimum weighted average cost at p's own
    weights (see LowerBoundEvaluator.weighted)."""
    return LowerBoundEvaluator(p).weighted(p.q, p.r1, p.r2, with_label)
