"""Controller families: zero input, linear bang-bang, Kalman-based linear
control, and the s-stage quantization signaling pair.

Each runtime strategy exposes ``reset(n_trials)`` and
``step(y1, y2) -> (u1, u2)``, operating elementwise on trial vectors.  A
strategy runs one trial count, set by ``reset`` or by its first step (a 0-d
observation is one trial); a step with another count raises ValueError.
The input of a silent controller is one shared read-only zero vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import linalg as la

from .core import ProblemParams, classify
# quantize is the validated public form of the kernel; it stays importable
# from this module
from .lattice import _quantize_unchecked, quantize  # noqa: F401


@dataclass(frozen=True)
class StrategySpec:
    """Tagged union over the strategy families.

    variant: 'zero' | 'linbb' | 'linkal' | 'sig'
      - linbb / linkal carry ``controller`` in {1, 2}
      - linkal carries the feedback gain ``k``
      - sig carries the stage count ``s`` >= 1 and lattice step ``d`` > 0
    """

    variant: str
    controller: Optional[int] = None
    k: Optional[float] = None
    s: Optional[int] = None
    d: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("zero", "linbb", "linkal", "sig"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in ("linbb", "linkal"):
            if self.controller not in (1, 2):
                raise ValueError("controller must be 1 or 2")
        if self.variant == "linkal":
            if self.k is None or not math.isfinite(self.k):
                raise ValueError("linkal requires a finite gain k")
        if self.variant == "sig":
            if self.s is None or self.s < 1:
                raise ValueError("sig requires s >= 1")
            if self.d is None or self.d <= 0:
                raise ValueError("sig requires d > 0")

    @property
    def label(self) -> str:
        if self.variant == "zero":
            return "zero"
        if self.variant == "linbb":
            return f"linbb{self.controller}"
        if self.variant == "linkal":
            return f"linkal{self.controller}"
        return f"sig{self.s}"

    def to_json(self) -> dict:
        out = {"type": self.variant}
        if self.controller is not None:
            out["controller"] = self.controller
        if self.k is not None:
            out["k"] = self.k
        if self.s is not None:
            out["s"] = self.s
        if self.d is not None:
            out["d"] = self.d
        return out


def parse_strategy(text: Union[str, dict]) -> StrategySpec:
    """Parse a strategy from a shorthand string ('zero', 'linbb1', 'linbb2')
    or a JSON object/string like {"type": "sig", "s": 1, "d": 0.5}."""
    if isinstance(text, str):
        t = text.strip()
        if t.startswith("{"):
            obj = json.loads(t)
        elif t == "zero":
            return StrategySpec("zero")
        elif t in ("linbb1", "linbb2"):
            return StrategySpec("linbb", controller=int(t[-1]))
        else:
            raise ValueError(f"unknown strategy shorthand {text!r}")
    else:
        obj = dict(text)
    variant = obj.pop("type")
    return StrategySpec(variant, **obj)


def lqr_gain(a: float, q: float, r: float) -> float:
    """LQR-optimal scalar feedback gain k for x[n+1] = a x + u, unit input
    gain, stage cost q x^2 + r u^2 (helper for the Kalman-based strategy)."""
    A = np.array([[a]])
    B = np.array([[1.0]])
    X = la.solve_discrete_are(A, B, np.array([[q]]), np.array([[r]]))
    return float(la.solve(B.T @ X @ B + r, B.T @ X @ A)[0, 0])


def stationary_prior_variance(a: float, sigmav_sq: float) -> float:
    """Fixed point p of p = sigmav^2 (a^2 p + 1) / (a^2 p + 1 + sigmav^2):
    the stationary one-step-prediction error variance of the scalar filter.

    Returned as the *prior* (pre-update) variance a^2 p + 1 would be derived
    from; here p is the posterior variance fixed point.
    """
    if sigmav_sq == 0:
        return 0.0
    # p solves a^2 p^2 + (1 + sigmav_sq - a^2 sigmav_sq) p - sigmav_sq = 0
    b = 1 + sigmav_sq - a * a * sigmav_sq
    disc = b * b + 4 * a * a * sigmav_sq
    return (-b + math.sqrt(disc)) / (2 * a * a)


class _Base:
    #: trials per step, fixed by ``reset`` or by the first ``step``
    n_trials: Optional[int] = None

    def reset(self, n_trials: int) -> None:
        self.n_trials = n_trials
        # the silent controller's input, shared by every step
        self._zero = np.zeros(n_trials)
        self._zero.flags.writeable = False

    def _trials(self, y) -> np.ndarray:
        """``y`` as a float vector with one entry per trial (a 0-d input is
        one trial).  The first step of a strategy that was not reset sizes
        it; any other trial count afterwards is rejected."""
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            if y.ndim:
                raise ValueError("observations must be a vector of trials")
            y = y.reshape(1)
        if y.shape[0] != self.n_trials:
            if self.n_trials is not None:
                raise ValueError(f"strategy runs {self.n_trials} trials, "
                                 f"got {y.shape[0]}")
            self.reset(y.shape[0])
        return y


class ZeroInput(_Base):
    def step(self, y1, y2):
        self._trials(y1)
        return self._zero, self._zero


class LinBB(_Base):
    """Active controller applies u = -a y; the other stays silent."""

    def __init__(self, a: float, controller: int):
        self.a = a
        self.controller = controller

    def step(self, y1, y2):
        if self.controller == 1:
            return -self.a * self._trials(y1), self._zero
        u2 = -self.a * self._trials(y2)
        return self._zero, u2


class LinKal(_Base):
    """u = -k * E[x | own observations, own past inputs], with the estimate
    from a scalar predict/correct filter that compensates past inputs."""

    def __init__(self, a: float, controller: int, k: float, sigmav_sq: float):
        self.a = a
        self.controller = controller
        self.k = k
        self.sigmav_sq = sigmav_sq
        self.xhat = None
        self.p = 0.0
        self.u_prev = None

    def reset(self, n_trials: int) -> None:
        super().reset(n_trials)
        self.xhat = np.zeros(n_trials)
        self.u_prev = np.zeros(n_trials)
        self.p = 0.0

    def step(self, y1, y2):
        y = self._trials(y1 if self.controller == 1 else y2)
        # predict in place: xhat^- = a xhat + u_prev
        xhat_minus = self.xhat
        xhat_minus *= self.a
        xhat_minus += self.u_prev
        p_minus = self.a * self.a * self.p + 1.0
        g = p_minus / (p_minus + self.sigmav_sq)
        # correct: xhat = xhat^- + g (y - xhat^-)
        xhat = y - xhat_minus
        xhat *= g
        xhat += xhat_minus
        self.xhat = xhat
        self.p = (1.0 - g) * p_minus
        u = -self.k * xhat
        self.u_prev = u
        if self.controller == 1:
            return u, self._zero
        return self._zero, u


class Sig(_Base):
    """s-stage signaling pair.

    Controller 1 cancels the sub-lattice residue: u1 = -a R_d(y1).
    Controller 2 compensates its own last s inputs,
        m = R_{|a|^s d}( sum_{i=1..s} a^{i-1} u2[n-i] ),
    and snaps the compensated observation to the coarse lattice:
        u2 = -a ( Q_{|a|^s d}(y2 - m) + m ).
    The u2 history is zero-padded (u2[n] = 0 for n < 0).
    """

    def __init__(self, a: float, s: int, d: float):
        try:
            big_step = abs(a) ** s * d
        except OverflowError:
            big_step = math.inf
        if not (s >= 1 and 0 < d < math.inf and 0 < big_step < math.inf):
            raise ValueError(f"sig needs s >= 1 and finite positive lattice "
                             f"steps d = {d!r} and |a|^s d = {big_step!r}")
        self.a = a
        self.s = s
        self.d = d
        self.big_step = big_step
        # a^{i-1} weights for i = 1..s, applied to u2[n-i]
        self.weights = a ** np.arange(s)
        self.hist = None
        self.pos = 0

    def reset(self, n_trials: int) -> None:
        super().reset(n_trials)
        self.hist = np.zeros((self.s, n_trials))
        self.pos = 0

    def compensation(self):
        """m[n]: the coarse-lattice residue of the weighted u2 history."""
        # hist[pos - i] holds u2[n-i]; roll the weights accordingly
        acc = np.zeros(self.hist.shape[1])
        for i in range(1, self.s + 1):
            acc += self.weights[i - 1] * self.hist[(self.pos - i) % self.s]
        acc -= _quantize_unchecked(self.big_step, acc)
        return acc

    def step(self, y1, y2):
        y1 = self._trials(y1)
        y2 = self._trials(y2)
        neg_a = -self.a
        # u1 = -a (y1 - Q_d(y1))
        u1 = _quantize_unchecked(self.d, y1, np.empty(self.n_trials))
        np.subtract(y1, u1, out=u1)
        u1 *= neg_a
        # u2 = -a (Q_{|a|^s d}(y2 - m) + m)
        m = self.compensation()
        u2 = np.subtract(y2, m)
        _quantize_unchecked(self.big_step, u2, u2)
        u2 += m
        u2 *= neg_a
        self.hist[self.pos % self.s] = u2
        self.pos += 1
        return u1, u2


def make_strategy(spec: StrategySpec, p: ProblemParams) -> _Base:
    """Instantiate a runtime strategy for the given problem."""
    if spec.variant == "zero":
        return ZeroInput()
    if spec.variant == "linbb":
        return LinBB(p.a, spec.controller)
    if spec.variant == "linkal":
        sv = p.sigmav1_sq if spec.controller == 1 else p.sigmav2_sq
        return LinKal(p.a, spec.controller, spec.k, sv)
    return Sig(p.a, spec.s, spec.d)


def select_stage(p: ProblemParams) -> int:
    """Stage count s for the signaling strategy; rejects the weak regime."""
    regime = classify(p)
    if regime.kind != "strong":
        raise ValueError("stage selection requires the strongly degraded "
                         "regime")
    return regime.s
