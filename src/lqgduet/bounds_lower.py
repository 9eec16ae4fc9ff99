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
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .core import A_MIN_CERTIFIED, ProblemParams, Regime, classify, \
    noise_floor

#: geometric slicing ratio used by the converse bounds
RCONST = 2.5
_BETA = 1.0 / RCONST


def info_mmse(a: float, sigmav1_sq: float, sigmav2_sq: float,
              k1: int, k: int) -> float:
    """Residual variance of a^{k-1} w[0] after k1 rounds of two-channel
    observation (0, its limit, when the denominator overflows):

        a^{2(k-1)} sv1^2 /
        ((1 + sv1^2/sv2^2) a^{2(k1-1)} (1 - a^{-2k1})/(1 - a^{-2}) + sv1^2)

    Defined while the powers of a it needs are floats; raises ValueError
    where one of them overflows.
    """
    if k1 < 1 or k < 1:
        raise ValueError("k1, k must be >= 1")
    if sigmav1_sq == 0 or sigmav2_sq == 0:
        return 0.0
    A = abs(a)
    ratio = sigmav1_sq / sigmav2_sq
    try:
        geo = A ** (2 * (k1 - 1)) * (1 - A ** (-2 * k1)) / (1 - A ** -2)
        denom = (1 + ratio) * geo + sigmav1_sq
        if not math.isfinite(denom):
            return 0.0
        return A ** (2 * (k - 1)) * sigmav1_sq / denom
    except OverflowError:
        raise ValueError(f"info_mmse is defined where a^(2(k1-1)) and "
                         f"a^(2(k-1)) are floats; |a| = {A:g}, k1 = {k1}, "
                         f"k = {k} overflows") from None


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


def _check_certified(p: ProblemParams) -> None:
    if abs(p.a) < A_MIN_CERTIFIED:
        raise ValueError("requires |a| >= 2.5")


def _geo(a: float, k_exp: int, count: int):
    """a^{2 k_exp} (1 - (2.5 a^{-2})^count) / (1 - 2.5 a^{-2});
    zero for count <= 0."""
    if count <= 0:
        return 0.0
    A2 = a * a
    r = RCONST / A2
    return A2 ** float(k_exp) * (1 - r ** count) / (1 - r)


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
    _check_certified(p)
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
            2.0 * A ** (2 * (k2 - 2 - k1)) / (1 - A ** -2) * Sig
            if m > 0 else 0.0,
            2.0 * A ** (2 * (k2 - 3 - k1)) / (1 - A ** -2) * RCONST
            if m > 0 else 0.0,
            # I1 = I2 + 1/2 log2(1 + (i1s + i1p P1/d)/sv2p^2), inf at
            # sv2p = 0, plus the entropy gap when sv2p != sv2
            sv2p_sq > 0, 1.0 / sv2p_sq if sv2p_sq > 0 else 0.0,
            2.0 * A ** (2 * (k2 - 1 - k1)) * Sig if sv2p_sq > 0 else 0.0,
            2.0 * A ** (2 * (k2 - 2 - k1)) if sv2p_sq > 0 else 0.0,
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


def _dl2_inner(A: float, Sigma, sv1_sq: float, sv2_sq: float, C1, C2):
    """Exact minimum of the convex quadratic
    f(c1, c2) = (A - c1 - c2)^2 Sigma + c1^2 sv1^2 + c2^2 sv2^2 over the box
    |c_i| <= C_i (KKT): the unconstrained minimiser where it lies in the
    box, else the best clamped 1-D minimum on the four edges.  Broadcasts
    over Sigma, C1 and C2."""
    Sigma = np.asarray(Sigma, dtype=float)
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
        np.fmin(best, A * A * Sigma * sv1_sq * sv2_sq / den, out=best,
                where=inside)
    np.multiply(best, _DL2_ROUND_DOWN, out=best)
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
    _check_certified(p)
    P1, P2, shape = _power_axes(P1t, P2t)
    A = abs(p.a)
    sv1_sq, sv2_sq = p.sigmav1_sq, p.sigmav2_sq
    rows = [(Sig, (1 - _BETA) * (Sig + sv1_sq), (1 - _BETA) * (Sig + sv2_sq),
             A ** (2 * (kc - k1c - 1)),
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
    _check_certified(p)
    P1, P2, shape = _power_axes(P1t, P2t)
    A = abs(p.a)
    rows = [(A ** (kk - 1),
             A ** (2 * (kk - 2)) / (1 - RCONST / A ** 2) / (1 - _BETA))
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

#: regions where no strategy stabilizes the loop (disturbance floor +inf)
_UNSTABLE = ("weak-i", "strong-i", "strong-iii")


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Regime-wise partition of the power plane (P1, P2) with the
    closed-form disturbance floor of each region.  Weight-independent; built
    once per parameter set (requires |a| > 1).

    Weak regime: weak-i (P1 <= T1, P2 <= T2), weak-ii (P1 <= T1, P2 > T2),
    weak-iii (P1 > T1).  Strong regime at stage s: for P1 <= t1, strong-i
    (P2 <= t2a) or strong-ii; inside the signaling bracket t1 < P1 <= t1hi,
    strong-iii (P2 <= t2c(P1)) or strong-iv; strong-v for
    P1 > v_edge = max(t1, t1hi).  The other regime's thresholds are None.
    """

    p: ProblemParams
    regime: Regime = field(init=False)
    m: float = field(init=False)
    #: disturbance floor of region ii
    d_ii: float = field(init=False)
    T1: Optional[float] = field(init=False, default=None)
    T2: Optional[float] = field(init=False, default=None)
    t1: Optional[float] = field(init=False, default=None)
    t1hi: Optional[float] = field(init=False, default=None)
    t2a: Optional[float] = field(init=False, default=None)
    v_edge: Optional[float] = field(init=False, default=None)
    #: strong-iv bracket cells (empty when the bracket is): lower P1 edge,
    #: and the disturbance floor and stabilization threshold at the cell's
    #: smallest signaling factor
    iv_p1: np.ndarray = field(init=False, repr=False,
                                default_factory=partial(np.empty, 0))
    iv_floor: np.ndarray = field(init=False, repr=False,
                                   default_factory=partial(np.empty, 0))
    iv_t2c: np.ndarray = field(init=False, repr=False,
                                 default_factory=partial(np.empty, 0))

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        p = self.p
        A = abs(p.a)
        sv2 = p.sigmav2_sq
        regime = classify(p)
        m = noise_floor(p)
        put("regime", regime)
        put("m", m)
        if regime.kind == "weak":
            put("T1", A ** 2 * m / WEAK_T_DIV)
            put("T2", A ** 2 * max(1.0, A ** 2 * sv2) / WEAK_T_DIV)
            put("d_ii", max(WEAK_II_COEF * A ** 2 * sv2 + 1.0,
                            FLOOR_COEF * m))
            return
        t1 = sv2 / (STRONG_T1_DIV * A ** (2 * (regime.s - 1)))
        t1hi = max(A ** 2, A ** 4 * p.sigmav1_sq) / STRONG_T1HI_DIV
        put("t1", t1)
        put("t1hi", t1hi)
        put("t2a", A ** 4 * sv2 / STRONG_T2A_DIV)
        put("v_edge", max(t1, t1hi))
        put("d_ii", max(STRONG_II_COEF * A ** 2 * sv2 + 1.0,
                        FLOOR_COEF * m))
        if t1 < t1hi:
            # cell-wise 1-D minimization over the bracket; the unimodal
            # signaling factor attains its cell minimum at an endpoint
            edges = np.geomspace(t1, t1hi, 201)
            f = self._sig(edges)
            f_min = np.minimum(f[:-1], f[1:])
            put("iv_p1", edges[:-1])
            put("iv_floor", self._iv_floor(f_min))
            put("iv_t2c", self._t2c_of(f_min))

    def _sig(self, P1):
        """Signaling factor P1 e^{-50 a^{2(s-1)} P1 / sv2^2}."""
        decay_c = SIG_DECAY_COEF * abs(self.p.a) ** (2 * (self.regime.s - 1)) \
            / self.p.sigmav2_sq
        return P1 * np.exp(-decay_c * P1)

    def _iv_floor(self, f):
        A2s = abs(self.p.a) ** (2 * self.regime.s)
        return np.maximum(IV_SIG_COEF * A2s * f + IV_M_COEF * A2s * self.m
                          + 1.0, FLOOR_COEF * self.m)

    def _t2c_of(self, f):
        A = abs(self.p.a)
        A2s = A ** (2 * self.regime.s)
        return T2C_SIG_COEF * A ** 2 * A2s * f \
            + T2C_M_COEF * A ** 2 * A2s * self.m

    def t2c(self, P1):
        """Second-controller stabilization threshold in the signaling
        bracket: 0.0457 a^{2(s+1)} P1 e^{-50 a^{2(s-1)} P1 / sv2^2}
        + 0.0113 a^{2(s+1)} m.  Broadcasts over P1."""
        return self._t2c_of(self._sig(P1))

    def label(self, P1: float, P2: float) -> str:
        """The region the point (P1, P2) falls in."""
        if self.regime.kind == "weak":
            if P1 <= self.T1:
                return "weak-i" if P2 <= self.T2 else "weak-ii"
            return "weak-iii"
        if P1 <= self.t1:
            return "strong-i" if P2 <= self.t2a else "strong-ii"
        if P1 <= self.t1hi:
            return "strong-iii" if P2 <= self.t2c(P1) else "strong-iv"
        return "strong-v"

    def floor(self, P1: float, P2: float) -> float:
        """Closed-form disturbance floor at (P1, P2); +inf on the regions
        where no strategy stabilizes the loop."""
        label = self.label(P1, P2)
        if label in _UNSTABLE:
            return math.inf
        if label.endswith("-ii"):
            return self.d_ii
        if label == "strong-iv":
            return float(self._iv_floor(self._sig(P1)))
        return FLOOR_COEF * self.m

    def corollary(self, q: float, r1: float,
                  r2: float) -> Tuple[float, str]:
        """Lower bound on min q D + r1 P1 + r2 P2 from the region floors,
        with the label of the region where the minimum lands."""
        weak = self.regime.kind == "weak"
        if q == 0:
            return 0.0, "weak-i" if weak else "strong-i"
        if weak:
            options = [(q * self.d_ii + r2 * self.T2, "weak-ii"),
                       (q * FLOOR_COEF * self.m + r1 * self.T1, "weak-iii")]
        else:
            options = [(q * self.d_ii + r2 * self.t2a, "strong-ii")]
            if self.iv_p1.size:
                vals = q * self.iv_floor + r1 * self.iv_p1 \
                    + r2 * self.iv_t2c
                options.append((float(vals.min()), "strong-iv"))
            options.append((q * FLOOR_COEF * self.m + r1 * self.v_edge,
                            "strong-v"))
        return min(options, key=lambda x: x[0])


# ---------------------------------------------------------------------------
# weighted-cost lower bound
# ---------------------------------------------------------------------------

def _slicing_candidates(p: ProblemParams, part: RegionPartition
                        ) -> Tuple[List[SliceParams],
                                   List[Tuple[int, int, float]]]:
    """Parameter recipes (with perturbations) for the dl1 and dl2 families."""
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
    sv2p_options = []
    if p.sigmav2_sq > 0:
        # large-deviation variance inflation near the signaling power scale
        base_P = p.sigmav2_sq / (STRONG_T1_DIV * A ** (2 * (s - 1)))
        sv2p_options = [p.sigmav2_sq] + [
            100.0 * A ** (2 * (s - 1)) * base_P * f for f in (1.0, 16.0)]
    for k1 in sorted({max(1, k1_base + off) for off in (-1, 0, 1)}):
        cap = mmse_floor(p.a, p.sigmav1_sq, p.sigmav2_sq, k1)
        for Sigma in sorted({min(cap, FLOOR_COEF * m), cap * 0.5, cap}):
            for k2 in (k1 + s + 1, k1 + s + 2):
                for k in (k2, k2 + 2):
                    dl1_cands += [SliceParams(k1, k2, k, sv2p_sq, 1.0, Sigma)
                                  for sv2p_sq in sv2p_options]
            for k_off in (1, 2, 4):
                dl2_cands.append((k1, k1 + k_off, Sigma))
    return dl1_cands, dl2_cands


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
    ValueError.

    D_hi and tail keep every candidate row.  At its second slicing_bound
    query the evaluator keeps a private copy of the undominated rows only
    (usually a few percent) and answers every later query from them: a
    dominated row never sets the max, so each answer is bit-identical to
    the full reduction.  A single query does not pay for the pruning.
    """

    def __init__(self, p: ProblemParams):
        self.p = p
        # power grid: 0, then two points per decade from 1e-6 to 1e12
        self.grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e12, 37)))
        n = self.grid.size - 1
        self.D_hi = np.empty((0, n, n))
        self.tail = np.empty(0)
        self.dl3_best = 1.0
        self.certified = abs(p.a) >= A_MIN_CERTIFIED
        self.partition: Optional[RegionPartition] = None
        # slicing_bound's query count, and from its second query on the
        # undominated rows (D, tail) it reduces instead of all of them
        self._queries = 0
        self._kept: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if not self.certified:
            return
        self.partition = RegionPartition(p)
        # the k1 scan ends where info_mmse leaves its domain (a^{2(k1-1)}
        # overflows); mmse_floor has reached its limit long before
        for k1 in range(1, 40):
            try:
                self.dl3_best = max(self.dl3_best, dl3(p, k1))
            except ValueError:
                break
        hi1 = self.grid[1:, None]
        hi2 = self.grid[None, 1:]
        dl1_cands, dl2_cands = _slicing_candidates(p, self.partition)
        n1 = len(dl1_cands)
        n2 = n1 + len(dl2_cands)
        self.D_hi = np.empty((n2 + len(_DL4_KS), n, n))
        # beyond the grid dl1 and dl2 are at least 1, dl4 at least 0
        self.tail = np.repeat([1.0, 1.0, 0.0],
                              [n1, n2 - n1, len(_DL4_KS)])
        # one stacked call per family; no dl1 candidates when
        # sigmav2_sq = 0, which dl1 rejects
        if dl1_cands:
            dl1(p, dl1_cands, hi1, hi2, out=self.D_hi[:n1])
        dl2(p, *zip(*dl2_cands), hi1, hi2, out=self.D_hi[n1:n2])
        dl4(p, _DL4_KS, hi1, hi2, out=self.D_hi[n2:])

    def slicing_bound(self, q: float, r1: float, r2: float) -> float:
        """Largest family bound on min_{P1,P2 >= 0} q D + r1 P1 + r2 P2 (at
        least q times the dl3 floor): per cell, q D at its upper corner plus
        the powers at its lower corner (D is nonincreasing), and the tail
        beyond the grid; all-NaN families are skipped.

        For q > 0 and r1, r2 >= 0 every step (q D, + r lo, fmin over the
        cells, the tail terms, np.minimum) is monotone in IEEE arithmetic,
        so a dominated row's family value never exceeds its dominator's
        and dropping it leaves the fmax bit-identical.  The second query
        prunes the rows to the undominated ones, once."""
        self._queries += 1
        if self._queries == 2:
            keep = _undominated(self.D_hi, self.tail)
            self._kept = self.D_hi[keep], self.tail[keep]
        D, tail = self._kept or (self.D_hi, self.tail)
        lo = self.grid[:-1]
        g_hi = self.grid[-1]
        # a weight near the float limit overflows a term to +inf, which is
        # the bound's value there
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.multiply(D, q)
            vals += r1 * lo[:, None]
            vals += r2 * lo[None, :]
            cell = np.fmin.reduce(vals, axis=(1, 2))
            fam = np.minimum(cell, np.minimum(q * tail + r1 * g_hi,
                                              q * tail + r2 * g_hi))
        return float(np.fmax.reduce(fam, initial=q * self.dl3_best))

    def weighted(self, q: float, r1: float, r2: float,
                 with_label: bool = False):
        """Valid lower bound on the infimum weighted average cost.

        Combines the universal disturbance floor (E[x^2] >= 1), the
        region-wise corollary floors, and the slicing families (cell-wise
        minimized so the result bounds the continuum minimum).  Outside
        |a| >= 2.5 only the universal floor is used.  With with_label, also
        returns the binding route: 'floor', 'slicing', a region label, or
        'degenerate' for q = 0.
        """
        if q == 0:
            return (0.0, "degenerate") if with_label else 0.0
        best, label = q * 1.0, "floor"
        if self.certified:
            val, lab = self.partition.corollary(q, r1, r2)
            if val > best:
                best, label = val, lab
            val = self.slicing_bound(q, r1, r2)
            if val > best:
                best, label = val, "slicing"
        if with_label:
            return best, label
        return best


def lower_weighted_cost(p: ProblemParams, with_label: bool = False):
    """Valid lower bound on the infimum weighted average cost at p's own
    weights (see LowerBoundEvaluator.weighted)."""
    return LowerBoundEvaluator(p).weighted(p.q, p.r1, p.r2, with_label)
