"""Numerical rank analysis of constant-coefficient differential operators.

The package classifies operators A = sum_{|alpha|=k} A_alpha d^alpha by the
rank of their symbol on the unit sphere (Elliptic / ConstantRank /
NonConstantRank) and measures the derivative recovery ratio

    ||D^k(phi - P_A phi)||_p / ||A phi||_p

on the periodic domain: bounded over random band-limited fields at constant
rank, unbounded along single-mode witness families near rank drops.
"""

from .experiments import (build_frequency_ladder, estimate_ratio, l2_minimality_check,
                          ratio_sweep, witness_family)
from .operators import (Operator, OperatorSpecError, parse_operator, serialize_operator, symbol,
                        symbol_stack)
from .pinv import DEFAULT_TOL
from .rank import (RankProfile, Verdict, daggerbound_check, find_rank_drop_witness, rank_profile,
                   sphere_samples)
from .spectral import (Grid, GridField, FrequencyField, apply_A, apply_Dk, apply_PA,
                       apply_multiplier, forward_transform, inverse_transform, lp_norm,
                       random_band_limited)
from .zoo import UnknownOperatorError, zoo_get, zoo_list

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "FrequencyField", "Grid", "GridField", "Operator", "OperatorSpecError",
    "RankProfile", "UnknownOperatorError", "Verdict", "apply_A", "apply_Dk", "apply_PA",
    "apply_multiplier", "build_frequency_ladder", "daggerbound_check", "estimate_ratio",
    "find_rank_drop_witness", "forward_transform", "inverse_transform", "l2_minimality_check",
    "lp_norm", "parse_operator", "random_band_limited", "rank_profile", "ratio_sweep",
    "serialize_operator", "sphere_samples", "symbol", "symbol_stack", "witness_family",
    "zoo_get", "zoo_list",
]
