"""Problem parameter types, normalization to the canonical form, and regime
classification for the scalar two-controller decentralized LQG problem.

Canonical system (unit disturbance variance):

    x[n+1] = a x[n] + u1[n] + u2[n] + w[n],   w ~ N(0, 1)
    y_i[n] = x[n] + v_i[n],                   v_i ~ N(0, sigmavi_sq)

with cost  q E[x^2] + r1 E[u1^2] + r2 E[u2^2]  averaged over time, and the
labeling convention sigmav1_sq <= sigmav2_sq.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

#: Threshold on |a| below which the converse machinery is not certified:
#: the value the closed-form constants were derived for.  A constant of the
#: derivation, not a setting; changing it does not re-derive the constants.
A_MIN_CERTIFIED = 2.5


def _check_finite(params) -> None:
    """Raise ValueError unless every field of the dataclass params is
    finite: NaN passes every comparison check and inf has no meaning."""
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


def check_certified(p: ProblemParams) -> None:
    """Raise ValueError unless |a| >= A_MIN_CERTIFIED, the domain of the
    converse machinery and of certification."""
    if abs(p.a) < A_MIN_CERTIFIED:
        raise ValueError(f"requires |a| >= {A_MIN_CERTIFIED}")


def check_weights(q: float, r1: float, r2: float) -> None:
    """Raise ValueError unless the cost weights q, r1, r2 are finite and
    >= 0, the domain every weighted cost and bound is defined on."""
    for name, w in (("q", q), ("r1", r1), ("r2", r2)):
        if not math.isfinite(w):
            raise ValueError(f"{name} must be finite")
        if w < 0:
            raise ValueError(f"{name} must be >= 0")


def check_weightings(weights) -> None:
    """check_weights on every weighting (q, r1, r2) of weights, so that a
    bad one raises before any is answered."""
    for q, r1, r2 in weights:
        check_weights(q, r1, r2)


class TradeoffPoint(NamedTuple):
    """A power-disturbance triple (D, P1, P2) on the extended reals."""

    D: float
    P1: float
    P2: float

    def weighted(self, q: float, r1: float, r2: float) -> float:
        """Weighted cost (q*D + r1*P1) + r2*P2 with +inf propagation (a
        zero weight drops its term).  Elementwise when the fields are
        arrays; the explicit order gives a scalar point and an array of
        points the same bits (sum() compensates from Python 3.12 on)."""
        return ((q * self.D if q > 0 else 0.0)
                + (r1 * self.P1 if r1 > 0 else 0.0)) \
            + (r2 * self.P2 if r2 > 0 else 0.0)


@dataclass(frozen=True)
class RawParams:
    """General (un-normalized) problem: x[n+1] = a x + b1 u1 + b2 u2 + w."""

    a: float
    b1: float = 1.0
    b2: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    q: float = 1.0
    r1: float = 0.0
    r2: float = 0.0
    sigma0_sq: float = 0.0
    sigmaw_sq: float = 1.0
    sigmav1_sq: float = 0.0
    sigmav2_sq: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        for name in ("sigma0_sq", "sigmaw_sq", "sigmav1_sq", "sigmav2_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sigmaw_sq == 0:
            raise ValueError("sigmaw_sq must be > 0")
        for name in ("b1", "b2", "c1", "c2"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")
        check_weights(self.q, self.r1, self.r2)


@dataclass(frozen=True, slots=True)
class ProblemParams:
    """Canonical problem parameters (sigmaw_sq = 1 implicit)."""

    a: float
    q: float = 1.0
    r1: float = 0.0
    r2: float = 0.0
    sigma0_sq: float = 0.0
    sigmav1_sq: float = 0.0
    sigmav2_sq: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        for name in ("sigma0_sq", "sigmav1_sq", "sigmav2_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        check_weights(self.q, self.r1, self.r2)
        if self.sigmav1_sq > self.sigmav2_sq:
            raise ValueError("labeling convention requires "
                             "sigmav1_sq <= sigmav2_sq")

    def weighted(self, point: TradeoffPoint) -> float:
        return point.weighted(self.q, self.r1, self.r2)


@dataclass(frozen=True)
class Regime:
    """Observation-degradation regime.

    kind is 'weak' or 'strong'; s is the signaling stage count (None in the
    weak regime).  'strong' with stage s means

        a^{2(s-1)} max(1, a^2 sv1^2) < sv2^2 <= a^{2s} max(1, a^2 sv1^2).
    """

    kind: str
    s: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("weak", "strong"):
            raise ValueError("kind must be 'weak' or 'strong'")
        if self.kind == "strong" and (self.s is None or self.s < 1):
            raise ValueError("strong regime requires s >= 1")


def normalize(raw: RawParams) -> ProblemParams:
    """Rescale inputs by b_i, observations by c_i, the system by 1/sigma_w,
    then swap controller labels so that sigmav1_sq <= sigmav2_sq.

    The weighted cost of any strategy is preserved under the induced
    strategy bijection.
    """
    sw = raw.sigmaw_sq
    q = raw.q * sw
    r1 = raw.r1 * sw / raw.b1 ** 2
    r2 = raw.r2 * sw / raw.b2 ** 2
    sv1 = raw.sigmav1_sq / (raw.c1 ** 2 * sw)
    sv2 = raw.sigmav2_sq / (raw.c2 ** 2 * sw)
    s0 = raw.sigma0_sq / sw
    if sv1 > sv2:
        sv1, sv2 = sv2, sv1
        r1, r2 = r2, r1
    return ProblemParams(a=raw.a, q=q, r1=r1, r2=r2, sigma0_sq=s0,
                         sigmav1_sq=sv1, sigmav2_sq=sv2)


def _power_or_inf(a: float, n: int) -> float:
    """a ** n, read as +inf where it overflows a float."""
    try:
        return a ** n
    except OverflowError:
        return math.inf


def noise_floor(p: ProblemParams) -> float:
    """max(1, a^2 sv1^2): the better observer's effective noise scale.
    Raises ValueError where a^2 or a^2 sv1^2 is not a finite float, outside
    the domain every regime and bound is defined on."""
    a2sv1 = _power_or_inf(p.a, 2) * p.sigmav1_sq
    if not a2sv1 < math.inf:
        raise ValueError(f"a^2 and a^2 sigmav1_sq must be finite floats "
                         f"(a = {p.a:g}, sigmav1_sq = {p.sigmav1_sq:g})")
    return max(1.0, a2sv1)


def classify(p: ProblemParams) -> Regime:
    """Classify the observation-degradation regime.

    Requires |a| > 1.  The boundary sigmav2_sq == max(1, a^2 sigmav1_sq) is
    assigned to the weak regime.
    """
    a = abs(p.a)
    if a <= 1:
        raise ValueError("classification requires |a| > 1")
    m = noise_floor(p)
    sv2 = p.sigmav2_sq
    if sv2 <= m:
        return Regime("weak")
    s = math.ceil((math.log(sv2) - math.log(m)) / (2 * math.log(a)))
    # Guard against floating-point edge effects on the bracketing
    #   a^{2(s-1)} m < sv2 <= a^{2s} m,
    # where a power of a that overflows a float is +inf.
    while s > 1 and sv2 <= _power_or_inf(a, 2 * (s - 1)) * m:
        s -= 1
    while sv2 > _power_or_inf(a, 2 * s) * m:
        s += 1
    return Regime("strong", s=max(s, 1))
