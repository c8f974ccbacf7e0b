"""qcomb: exact q-analogues of Stirling, Bell and Lah numbers, the
generalized Stirling numbers unifying them, and a verification harness that
checks every identity between them against brute-force enumeration.
"""

from .polyring import (ALPHA, BETA, MPoly, QPoly, R, X, binom, binom_gen,
                       elementary_symmetric, q_binomial, q_integer, q_rising,
                       rising_int, shifted_factorial)
from .structures import (CellCapError, CyclePerm, ExtLahDist, LahDist,
                         SetPartition, StructureError, enum_cycle_perms,
                         enum_extended_lah, enum_lah, enum_partitions,
                         special_elements)
from .stats import (ExtStats, ext_stats, inversions, stat_inv_c, stat_inv_rho,
                    stat_w, weight)
from .families import (bell_q, gen_bell, hsu_shiue, lah_q, stirling1_q,
                       stirling2_q, stirling_neg1)
from .oracles import oracle, oracle_table
from .bijection import SplitParts, join_lah, split_lah
from .identities import IdentityReport, check, identity_names, indicator_pair

__all__ = [
    "ALPHA", "BETA", "R", "X", "MPoly", "QPoly",
    "binom", "binom_gen", "elementary_symmetric", "q_binomial", "q_integer",
    "q_rising", "rising_int", "shifted_factorial",
    "CellCapError", "CyclePerm", "ExtLahDist", "LahDist", "SetPartition",
    "StructureError", "enum_cycle_perms", "enum_extended_lah", "enum_lah",
    "enum_partitions", "special_elements",
    "ExtStats", "ext_stats", "inversions", "stat_inv_c", "stat_inv_rho",
    "stat_w", "weight",
    "bell_q", "gen_bell", "hsu_shiue", "lah_q", "stirling1_q", "stirling2_q",
    "stirling_neg1",
    "oracle", "oracle_table",
    "SplitParts", "join_lah", "split_lah",
    "IdentityReport", "check", "identity_names",
    "indicator_pair",
]

__version__ = "0.1.0"
