"""Controller families: zero input, linear bang-bang, Kalman-based linear
control, and the s-stage quantization signaling pair.

Each runtime strategy exposes ``reset(n_trials)``, ``run_chunk``, the
closed loop that the simulator calls once per chunk of time steps, and
``step(y1, y2) -> (u1, u2)``, the validating one-row wrapper of
``run_chunk``.  Each active control law has two kernels behind
``run_chunk``: an array kernel, whose NumPy calls each run one time step
over all trials in place, and a float kernel, which runs the chunk trial by
trial on Python floats and is faster while the trials are few (the small
NumPy calls cost more than the float operations they replace).  Both do the
same IEEE operations in the same order, so they agree to the last bit, and
both are pinned to the same allocating references in the tests.  A
strategy runs one trial count, set by ``reset`` or by its first step (a 0-d
observation is one trial); a step with another count raises ValueError.
The input of a silent controller is one shared read-only zero vector.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import ProblemParams
# quantize is the validated public form of the kernel; it stays importable
# from this module
from .lattice import _quantize_unchecked, quantize  # noqa: F401

#: run_chunk runs chunks of at most this many trials on the float kernel and
#: wider chunks on the array kernel: the crossover measured per strategy
#: (CHANGES.md has the table)
_FLOAT_MAX_TRIALS = 20


@dataclass(frozen=True)
class StrategySpec:
    """Tagged union over the strategy families.

    variant: 'zero' | 'linbb' | 'linkal' | 'sig'
      - linbb / linkal carry ``controller`` in {1, 2}
      - linkal carries the feedback gain ``k``
      - sig carries the stage count ``s`` >= 1 and lattice step ``d`` > 0
    A field the variant does not carry must be None, and ``k`` and ``d``
    must be real numbers, not bools.
    """

    variant: str
    controller: Optional[int] = None
    k: Optional[float] = None
    s: Optional[int] = None
    d: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("zero", "linbb", "linkal", "sig"):
            raise ValueError(f"unknown variant {self.variant!r}")
        own = {"zero": (), "linbb": ("controller",),
               "linkal": ("controller", "k"), "sig": ("s", "d")}[self.variant]
        extra = [name for name in ("controller", "k", "s", "d")
                 if name not in own and getattr(self, name) is not None]
        if extra:
            raise ValueError(f"{self.variant} takes no field "
                             + ", ".join(extra))
        if self.variant in ("linbb", "linkal"):
            if not _is_int(self.controller) or self.controller not in (1, 2):
                raise ValueError("controller must be the integer 1 or 2")
        if self.variant == "linkal":
            if not _is_real(self.k) or not math.isfinite(self.k):
                raise ValueError("linkal requires a finite gain k")
        if self.variant == "sig":
            if not _is_int(self.s) or self.s < 1:
                raise ValueError("sig requires an integer s >= 1")
            if not _is_real(self.d) or not 0 < self.d < math.inf:
                raise ValueError("sig requires a finite d > 0")

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


def _is_int(x) -> bool:
    """Whether x is an integer and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether x is a real number and not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) \
        and not isinstance(x, bool)


def parse_strategy(text: Union[str, dict]) -> StrategySpec:
    """Parse a strategy from a shorthand string ('zero', 'linbb1', 'linbb2')
    or a JSON object/string like {"type": "sig", "s": 1, "d": 0.5}.  Raises
    ValueError on a spec that is not an object, has no "type" or has a key
    that is no field of a strategy."""
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
        obj = text
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError('a strategy spec must be an object with a "type"')
    obj = dict(obj)
    variant = obj.pop("type")
    extra = [str(key) for key in obj
             if key not in ("controller", "k", "s", "d")]
    if extra:
        raise ValueError(f"{variant} takes no field " + ", ".join(extra))
    return StrategySpec(variant, **obj)


def _columns(A: np.ndarray):
    """The trial columns of a (rows, trials) array, each a memoryview that
    yields its entries as Python floats when iterated."""
    return map(memoryview, np.ascontiguousarray(A.T))


def _vector(values: list) -> np.ndarray:
    """A list of Python floats as a float vector (through array('d'), which
    converts them faster than NumPy's type discovery)."""
    return np.frombuffer(array("d", values))


def lqr_gain(a: float, q: float, r: float) -> float:
    """LQR-optimal scalar feedback gain k for x[n+1] = a x + u, unit input
    gain, stage cost q x^2 + r u^2 (helper for the Kalman-based strategy)."""
    # imported here: only perfbench's linkal specs and the tests call
    # lqr_gain, so importing lqgduet need not load scipy.linalg
    from scipy import linalg as la
    A = np.array([[a]])
    B = np.array([[1.0]])
    X = la.solve_discrete_are(A, B, np.array([[q]]), np.array([[r]]))
    return float(la.solve(B.T @ X @ B + r, B.T @ X @ A)[0, 0])


class _Base:
    #: trials per step, fixed by ``reset`` or by the first ``step``
    n_trials: Optional[int] = None
    #: the controllers (1, 2) whose input is always zero
    silent: tuple = ()

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

    def run_chunk(self, a, X, V1, V2, W, U1, U2) -> None:
        """Run the closed loop over the k = len(W) rows of a chunk.

        For each row n it observes y_i = X[n] + V_i[n], writes the inputs
        into U1[n] and U2[n], and writes the next state
        X[n+1] = a X[n] + u1 + u2 + W[n] (in that order) into X.  A silent
        controller's V rows are never read (run passes None), its U rows
        are never written, and its zero input is not added to the state:
        that could change only the sign of an exactly zero sum, which the
        nonzero W[n] then absorbs.

        Chunks of at most _FLOAT_MAX_TRIALS trials run on the float kernel,
        wider ones on the array kernel; the two give the same bits."""
        kernel = (self._float_chunk if X.shape[1] <= _FLOAT_MAX_TRIALS
                  else self._array_chunk)
        kernel(a, X, V1, V2, W, U1, U2)

    def _array_chunk(self, a, X, V1, V2, W, U1, U2) -> None:
        """run_chunk one time step at a time, each NumPy call over all
        trials, in place."""
        raise NotImplementedError

    def _float_chunk(self, a, X, V1, V2, W, U1, U2) -> None:
        """run_chunk one trial at a time on Python floats: each column is
        read once and written back by one assignment, and the strategy
        state is updated only after the whole chunk has run.  An input that
        is a function of the row alone is computed again on arrays after
        the loop, by the same operations, instead of being collected."""
        raise NotImplementedError

    def step(self, y1, y2):
        """(u1, u2) for the observations y1, y2: one row of ``run_chunk``
        from the state -0.0, since -0.0 + v == v bit for bit.  The next
        state it computes is discarded; the plant gain NaN keeps it from
        raising floating-point warnings.  Each strategy class binds this
        function under its own name, so that per-class tracing (perfbench)
        can patch ``LinBB.step`` without touching the other classes."""
        y1 = self._trials(y1)
        y2 = self._trials(y2)
        X = np.full((2, self.n_trials), -0.0)
        U1, U2 = np.empty((2, 1, self.n_trials))
        self.run_chunk(math.nan, X, y1[None], y2[None],
                       np.zeros((1, self.n_trials)), U1, U2)
        return (self._zero if 1 in self.silent else U1[0],
                self._zero if 2 in self.silent else U2[0])


class ZeroInput(_Base):
    silent = (1, 2)
    step = _Base.step

    def run_chunk(self, a, X, V1, V2, W, U1, U2):
        # the array kernel alone: the open loop computes no input
        a = np.asarray(a)
        for x, x_next, w in zip(X, X[1:], W):
            np.multiply(a, x, out=x_next)
            x_next += w


class LinBB(_Base):
    """Active controller applies u = -a y; the other stays silent."""

    def __init__(self, a: float, controller: int):
        self.a = a
        self.controller = controller
        self.silent = (3 - controller,)

    step = _Base.step

    def _array_chunk(self, a, X, V1, V2, W, U1, U2):
        a = np.asarray(a)
        neg_a = np.asarray(-self.a)
        V, U = (V1, U1) if self.controller == 1 else (V2, U2)
        for x, x_next, v, w, u in zip(X, X[1:], V, W, U):
            np.add(x, v, out=u)
            u *= neg_a
            np.multiply(a, x, out=x_next)
            x_next += u
            x_next += w

    def _float_chunk(self, a, X, V1, V2, W, U1, U2):
        a, neg_a = float(a), -self.a
        V, U = (V1, U1) if self.controller == 1 else (V2, U2)
        for j, (x, vs, ws) in enumerate(zip(X[0].tolist(), _columns(V),
                                            _columns(W))):
            # x_next = a x + u + w with u = (x + v)(-a)
            X[1:, j] = _vector([x := a * x + (x + v) * neg_a + w
                                for v, w in zip(vs, ws)])
        # the inputs again, from the states and by the same operations
        np.add(X[:-1], V, out=U)
        U *= neg_a


class LinKal(_Base):
    """u = -k * E[x | own observations, own past inputs], with the estimate
    from a scalar predict/correct filter that compensates past inputs."""

    def __init__(self, a: float, controller: int, k: float, sigmav_sq: float):
        self.a = a
        self.controller = controller
        self.silent = (3 - controller,)
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
        self._xhat_minus = np.empty(n_trials)

    step = _Base.step

    def _gains(self, k: int):
        """The filter gains of the next k steps and the posterior variance
        after them: the Riccati recursion does not depend on the data."""
        a2, sv, p = self.a * self.a, self.sigmav_sq, self.p
        gains = []
        for _ in range(k):
            p_minus = a2 * p + 1.0
            g = p_minus / (p_minus + sv)
            gains.append(g)
            p = (1.0 - g) * p_minus
        return gains, p

    def _array_chunk(self, a, X, V1, V2, W, U1, U2):
        a = np.asarray(a)
        model_a = np.asarray(self.a)
        neg_k = np.asarray(-self.k)
        gains, p = self._gains(len(W))
        xhat, xhat_minus, u_prev = self.xhat, self._xhat_minus, self.u_prev
        V, U = (V1, U1) if self.controller == 1 else (V2, U2)
        for x, x_next, v, w, u, g in zip(X, X[1:], V, W, U, gains):
            # predict: xhat^- = a xhat + u_prev
            np.multiply(xhat, model_a, out=xhat_minus)
            xhat_minus += u_prev
            # correct: xhat = xhat^- + g (y - xhat^-)
            np.add(x, v, out=xhat)
            xhat -= xhat_minus
            xhat *= g
            xhat += xhat_minus
            np.multiply(xhat, neg_k, out=u)
            u_prev = u
            np.multiply(a, x, out=x_next)
            x_next += u
            x_next += w
        self.p = p
        # u_prev is a row of the caller's buffer, which the next chunk
        # overwrites
        self.u_prev[:] = u_prev

    def _float_chunk(self, a, X, V1, V2, W, U1, U2):
        a, model_a, neg_k = float(a), self.a, -self.k
        gains, p = self._gains(len(W))
        V, U = (V1, U1) if self.controller == 1 else (V2, U2)
        xhats, u_prevs = [], []
        for j, (x, xh, up, vs, ws) in enumerate(zip(
                X[0].tolist(), self.xhat.tolist(), self.u_prev.tolist(),
                _columns(V), _columns(W))):
            xcol, ucol = [], []
            x_out, u_out = xcol.append, ucol.append
            for v, w, g in zip(vs, ws, gains):
                xm = xh * model_a + up
                xh = ((x + v) - xm) * g + xm
                up = xh * neg_k
                x = a * x + up + w
                u_out(up)
                x_out(x)
            X[1:, j] = _vector(xcol)
            U[:, j] = _vector(ucol)
            xhats.append(xh)
            u_prevs.append(up)
        self.xhat[:] = xhats
        self.u_prev[:] = u_prevs
        self.p = p


class Sig(_Base):
    """s-stage signaling pair.

    Controller 1 cancels the sub-lattice residue: u1 = -a R_d(y1).
    Controller 2 compensates its own last s inputs,
        m = R_{|a|^s d}( sum_{i=1..s} a^{i-1} u2[n-i] ),
    and snaps the compensated observation to the coarse lattice:
        u2 = -a ( Q_{|a|^s d}(y2 - m) + m ).
    The u2 history is zero-padded (u2[n] = 0 for n < 0); ``hist[i - 1]``
    holds u2[n-i].
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

    def reset(self, n_trials: int) -> None:
        super().reset(n_trials)
        self.hist = np.zeros((self.s, n_trials))
        self._pair = np.empty((2, n_trials))
        self._lattice = np.empty((2, n_trials))
        self._term = np.empty(n_trials)

    step = _Base.step

    def _array_chunk(self, a, X, V1, V2, W, U1, U2):
        a = np.asarray(a)
        neg_a = np.asarray(-self.a)
        big = np.asarray(self.big_step)
        # the fine and the coarse lattice step, one per row of pair
        steps = np.array([[self.d], [self.big_step]])
        weights = [np.asarray(c) for c in self.weights]
        pair, lattice, term = self._pair, self._lattice, self._term
        fine, m = pair
        past = list(self.hist)  # past[i - 1] is u2[n-i]
        for x, x_next, v1, v2, w, u1, u2 in zip(X, X[1:], V1, V2, W, U1, U2):
            # pair = (y1, sum a^{i-1} u2[n-i]), then its residues
            # (R_d(y1), m), both in one pass.  The sum starts at its first
            # term, not at +0.0: that can change only the sign of an exactly
            # zero m, which u2 below cannot see (Q never returns -0.0)
            np.add(x, v1, out=fine)
            np.multiply(weights[0], past[0], out=m)
            for c, h in zip(weights[1:], past[1:]):
                np.multiply(c, h, out=term)
                m += term
            np.subtract(pair, _quantize_unchecked(steps, pair, lattice),
                        out=pair)
            # u1 = -a R_d(y1)
            np.multiply(fine, neg_a, out=u1)
            # u2 = -a (Q_{|a|^s d}(y2 - m) + m)
            np.add(x, v2, out=u2)
            u2 -= m
            _quantize_unchecked(big, u2, u2)
            u2 += m
            u2 *= neg_a
            past = [u2] + past[:-1]
            np.multiply(a, x, out=x_next)
            x_next += u1
            x_next += u2
            x_next += w
        # the rows of past belong to the caller's buffer and to hist
        self.hist = np.stack(past)

    def _float_chunk(self, a, X, V1, V2, W, U1, U2):
        a, neg_a = float(a), -self.a
        d, big, s = self.d, self.big_step, self.s
        # m = sum a^{i-1} u2[n-i]: its first weight is a^0 = 1.0, and
        # 1.0 * u2 is u2 bit for bit; the others are (a^{i-1}, -i) pairs
        # indexing u2col below
        terms = [(c, -i) for i, c in enumerate(self.weights.tolist()[1:], 2)]
        floor = math.floor
        hists = []
        try:
            for j, (x, past, v1s, v2s, ws) in enumerate(zip(
                    X[0].tolist(), self.hist.T.tolist(), _columns(V1),
                    _columns(V2), _columns(W))):
                # u2[n-s], ..., u2[n-1], then the chunk's inputs
                u2col = past[::-1]
                xcol = []
                x_out, u2_out = xcol.append, u2col.append
                u2 = u2col[-1]
                for v1, v2, w in zip(v1s, v2s, ws):
                    # the array kernel's operations, in its order
                    m = u2
                    for c, i in terms:
                        m += c * u2col[i]
                    m -= floor(m / big + 0.5) * big
                    y1 = x + v1
                    u2 = (floor(((x + v2) - m) / big + 0.5) * big + m) \
                        * neg_a
                    x = a * x + (y1 - floor(y1 / d + 0.5) * d) * neg_a \
                        + u2 + w
                    x_out(x)
                    u2_out(u2)
                X[1:, j] = _vector(xcol)
                U2[:, j] = _vector(u2col[s:])
                hists.append(u2col[:-s - 1:-1])
        except (ValueError, OverflowError):
            # math.floor raises on NaN and inf, where np.floor returns them:
            # the array kernel reruns the chunk from the state it started
            # from, and rewrites every row written so far
            self._array_chunk(a, X, V1, V2, W, U1, U2)
            return
        self.hist = np.array(hists).T.copy()
        # u1 = -a R_d(y1) again, from the states and by the same operations
        np.add(X[:-1], V1, out=U1)
        U1 -= _quantize_unchecked(d, U1, np.empty_like(U1))
        U1 *= neg_a


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

