"""Numerical laboratory for the scalar two-controller infinite-horizon
decentralized LQG problem: strategies, Monte Carlo simulation, analytic
achievability and converse bounds, constant-ratio certification, and the
binary deterministic toy models.
"""
from .core import (A_MIN_CERTIFIED, ProblemParams, RawParams, Regime,
                   TradeoffPoint, classify, noise_floor, normalize)
from .strategies import StrategySpec, parse_strategy
from .simulator import SimConfig, SimResult, run
from .bounds_upper import (SigDesign, UpperResult, du1, linbb_bound,
                           optimize_upper, sweep_labels)
from .bounds_lower import (SliceParams, dl1, dl2, dl3, dl4, info_mmse,
                           lower_weighted_cost)
from .certifier import (CertReport, certify_grid, certify_point,
                        prop1_divergence)
from .detmodel import DetParams, det_radner, det_witsen, run_det

__version__ = "0.1.0"

__all__ = [
    "A_MIN_CERTIFIED", "ProblemParams", "RawParams", "Regime",
    "TradeoffPoint", "classify", "noise_floor", "normalize",
    "StrategySpec", "parse_strategy",
    "SimConfig", "SimResult", "run",
    "SigDesign", "UpperResult", "du1", "linbb_bound", "optimize_upper",
    "sweep_labels",
    "SliceParams", "dl1", "dl2", "dl3", "dl4", "info_mmse",
    "lower_weighted_cost",
    "CertReport", "certify_grid", "certify_point", "prop1_divergence",
    "DetParams", "det_radner", "det_witsen", "run_det",
    "__version__",
]
