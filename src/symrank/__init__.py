"""Numerical rank analysis of constant-coefficient differential operators.

The package classifies operators A = sum_{|alpha|=k} A_alpha d^alpha by the
rank of their symbol on the unit sphere (Elliptic / ConstantRank /
NonConstantRank) and measures the derivative recovery ratio

    ||D^k(phi - P_A phi)||_p / ||A phi||_p

on the periodic domain: bounded over random band-limited fields at constant
rank, unbounded along single-mode witness families near rank drops.
"""

from .experiments import (KernelInputError, build_frequency_ladder, estimate_ratio,
                          l2_minimality_check, ratio_sweep, witness_family)
from .operators import (Operator, OperatorSpecError, multi_indices, multinomial_weight,
                        operator_from_document, parse_operator, serialize_operator, symbol,
                        symbol_stack)
from .pinv import DEFAULT_TOL, kernel_projector, numerical_rank, pinv_svd
from .rank import (DaggerBound, RankDropWitness, RankProfile, Verdict, daggerbound_check,
                   find_rank_drop_witness, rank_profile, sphere_samples)
from .spectral import (Grid, GridField, FrequencyField, apply_A, apply_Dk,
                       apply_PA, apply_multiplier, forward_transform, inverse_transform,
                       lp_norm, periodic_bump, random_band_limited)
from .zoo import UnknownOperatorError, ZooEntry, zoo_get, zoo_list

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "DaggerBound", "FrequencyField", "Grid", "GridField", "KernelInputError",
    "Operator", "OperatorSpecError", "RankDropWitness", "RankProfile", "UnknownOperatorError",
    "Verdict", "ZooEntry", "apply_A", "apply_Dk", "apply_PA", "apply_multiplier",
    "build_frequency_ladder", "daggerbound_check", "estimate_ratio", "find_rank_drop_witness",
    "forward_transform", "inverse_transform", "kernel_projector", "l2_minimality_check",
    "lp_norm", "multi_indices", "multinomial_weight", "numerical_rank",
    "operator_from_document", "parse_operator", "periodic_bump", "pinv_svd",
    "random_band_limited", "rank_profile", "ratio_sweep", "serialize_operator",
    "sphere_samples", "symbol", "symbol_stack", "witness_family", "zoo_get", "zoo_list",
]
