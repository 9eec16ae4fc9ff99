"""Binary deterministic toy models with symbolic bit-provenance.

State, inputs, and noise are binary expansions; each bit level carries the
set of source bits (disturbance or observation-noise atoms) whose XOR
determines it.  Cancellation is exact set cancellation, so the distortion
level claims are decided with no sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

Atom = Tuple
Provenance = FrozenSet[Atom]

_EMPTY: Provenance = frozenset()


class BitWord(dict):
    """Map from bit-level index to a nonempty provenance set.

    Missing levels are deterministically zero.  upper_level is one plus the
    highest occupied level (-inf when empty).
    """

    def xor(self, level: int, prov: Provenance) -> None:
        cur = self.get(level, _EMPTY) ^ prov
        if cur:
            self[level] = cur
        else:
            self.pop(level, None)

    @property
    def upper_level(self) -> float:
        if not self:
            return -math.inf
        return 1 + max(self)

    def top(self) -> float:
        return max(self) if self else -math.inf


@dataclass(frozen=True)
class DetParams:
    """Shift-register model parameters.

    a_prime: upward shift per step; sigma_v2_level: levels below this of the
    second observation are noisy; p1_level: first controller may act only on
    levels below this.
    """

    a_prime: int = 2
    sigma_v2_level: int = 1
    p1_level: int = 1

    def __post_init__(self):
        if self.a_prime < 1:
            raise ValueError("a_prime must be >= 1")


def _pull(state: BitWord, level: int, window_lo: int, n: int,
          deep: Dict[int, Provenance]) -> Provenance:
    """Provenance of the state bit at ``level``; bits below the tracked
    window are represented by per-(step, level) placeholder atoms so that
    exact copies of them still cancel."""
    if level >= window_lo:
        return state.get(level, _EMPTY)
    if level not in deep:
        deep[level] = frozenset({("deep", n, level)})
    return deep[level]


def det_step(p: DetParams, strategy: str, state: BitWord, n: int) -> BitWord:
    """One step of the shift-register model:

        x[n+1]_i = x[n]_{i - a'} ^ u1_i ^ u2_i ^ w_i   (fresh w at i < 0).

    Optimal: u1 and u2 exactly cancel every level converse_allows admits
    (u1 the levels < p1_level, u2 those whose content came from a
    noise-free level of the second observation).

    LinearShift: u1 adds one shifted copy of the state with its top bit at
    level p1_level - 1; u2, once the state top reaches the noise level, adds
    the full shifted copy of the second observation, which cancels the state
    content everywhere but injects observation-noise provenance at the noisy
    levels.
    """
    if strategy not in ("Optimal", "LinearShift"):
        raise ValueError(f"unknown strategy {strategy!r}")
    a = p.a_prime
    # the lowest tracked level: deep enough that dropped bits are masked
    # before they matter (the upper levels are the same for any deeper one)
    window_lo = -a - 2
    deep: Dict[int, Provenance] = {}
    out = BitWord()
    hi = (state.top() if state else -1) + a
    for i in range(window_lo, int(max(hi, 0)) + 1):
        prov = _pull(state, i - a, window_lo, n, deep)
        if prov:
            out.xor(i, prov)

    if strategy == "Optimal":
        # u1 and u2 cancel exactly the levels the converse says they can
        for i in [lvl for lvl in out if converse_allows(p, lvl)]:
            del out[i]
    else:
        if state:
            # u1: one shifted copy of y1 = x[n], top bit at p1_level - 1
            t1 = (p.p1_level - 1) - int(state.top())
            lo_src = min(min(state), window_lo)
            for j in range(lo_src, int(state.top()) + 1):
                i = j + t1
                if i < window_lo:
                    continue
                prov = _pull(state, j, window_lo, n, deep)
                if prov:
                    out.xor(i, prov)
        if state and state.top() >= p.sigma_v2_level:
            # u2: full shifted copy of y2; the state part cancels the shift,
            # the noisy levels contribute v-provenance
            for i in range(window_lo, int(max(hi, 0)) + 1):
                j = i - a
                prov = _pull(state, j, window_lo, n, deep)
                if prov:
                    out.xor(i, prov)
                if j < p.sigma_v2_level:
                    out.xor(i, frozenset({("v", n, j)}))

    # fresh disturbance, not cancellable at this step
    for i in range(window_lo, 0):
        out.xor(i, frozenset({("w", n, i)}))
    return out


def run_det(p: DetParams, strategy: str, steps: int) -> list:
    """Upper level of the state after each of ``steps`` steps, starting from
    the zero state."""
    state = BitWord()
    out = []
    for n in range(steps):
        state = det_step(p, strategy, state, n)
        out.append(state.upper_level)
    return out


def steady_level(levels: list) -> Optional[float]:
    """The last of a run's levels when the last two are equal (the run has
    settled), else None."""
    if len(levels) >= 2 and levels[-1] == levels[-2]:
        return levels[-1]
    return None


def converse_allows(p: DetParams, level: int) -> bool:
    """Whether any admissible one-step action can empty the given level of
    x[n+1] when the pre-shift state occupies all levels below its top.

    The first controller reaches only levels < p1_level; the second can
    exactly cancel a level only if its content came from a noise-free
    observation level (i - a' >= sigma_v2_level); on noisy levels any copy
    leaves observation-noise provenance behind.
    """
    if level < p.p1_level:
        return True
    return level - p.a_prime >= p.sigma_v2_level


# ---------------------------------------------------------------------------
# one- and two-stage models (sequential and simultaneous variants)
# ---------------------------------------------------------------------------

def _initial_word() -> BitWord:
    w = BitWord()
    for i in range(-6, 2):
        w.xor(i, frozenset({("x0", i)}))
    return w


def det_witsen(force_u1_zero: bool = False) -> float:
    """Two-stage model: the first controller acts on a perfect observation,
    then the second acts on the updated state through noise at levels < 1.

    The bit strategy (u1 copies y1 below level 1, u2 copies y2 at levels
    >= 1) cancels all provenance, giving upper level -inf.  With u1 forced
    to zero, only level 1 is cancelled and the final upper level is 1.
    """
    x0 = _initial_word()
    x1 = BitWord(x0)
    if not force_u1_zero:
        # u1_i = y1_i for i < 1 (power constraint), perfect observation
        for i in [lvl for lvl in x1 if lvl < 1]:
            del x1[i]
    # y2 = x1 ^ v with v at levels < 1; u2_i = y2_i for i >= 1 is an exact
    # cancellation there
    x2 = BitWord(x1)
    for i in [lvl for lvl in x2 if lvl >= 1]:
        del x2[i]
    return x2.upper_level


def det_radner() -> float:
    """One-stage simultaneous model: both controllers act on the initial
    state at once (u1 from the perfect observation below level 1, u2 from
    the noisy observation at levels >= 1).  The same bit strategy cancels
    everything, the over-optimistic -inf."""
    x0 = _initial_word()
    x1 = BitWord(x0)
    for i in [lvl for lvl in x1 if lvl < 1]:
        del x1[i]
    for i in [lvl for lvl in x1 if lvl >= 1]:
        del x1[i]
    return x1.upper_level
