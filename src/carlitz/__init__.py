"""Exact arithmetic for Carlitz-module cyclotomy over F_q[T]: torsion
fields and their Galois action, Coleman norm operators, Coates-Wiles
derivations, Bernoulli-Carlitz numbers, Stickelberger-type group-ring
elements, and Carlitz-Goss zeta special values."""

from .cmod import (
    BCValue, SkewPoly, bernoulli_carlitz, bernoulli_carlitz_table, bracket,
    carlitz_exp, carlitz_factorial, carlitz_log, carlitz_phi, d_sequence,
    l_sequence, omega_minpoly, torsion_poly,
)
from .coleman import (
    ColemanSeries, coleman_norm, cyclotomic_unit_series, eval_at_omega,
    phi_poly, star_action, x_field,
)
from .cw import (
    CWReport, CWRow, coates_wiles, cw_verify, dlog, dlog_exp_series,
    ht_derivative, lucas_binom,
)
from .cyclo import (
    CycloField, cyclotomic_unit, field_norm, galois_act, upsilon,
    valuation_at_p,
)
from .errors import (
    CarlitzError, CharacterError, InvariantError, ParseError, PrecisionError,
    TailError,
)
from .fq import Fq, FqElem
from .groupring import (
    CharSpec, GroupRing, GroupRingElem, character_table, cyclotomic_poly,
)
from .lfun import (
    OkadaReport, ThetaPoly, okada_report, power_sum, power_sum_enum,
    stickelberger_coefficient, stickelberger_coefficient_enum,
    stickelberger_series, zeta_neg, zeta_pos_trunc, zeta_v_adic_neg,
    zeta_v_adic_neg_enum,
)
from .poly import (
    Poly, PolyRing, ZZ, is_irreducible, monic_enumerate, poly_parse,
    poly_to_str,
)
from .quotient import QuotientRing, quotient_norm
from .ratfun import FracField, RatFun, base_field
from .series import TruncSeries

__version__ = "0.1.0"

__all__ = [
    "BCValue", "CWReport", "CWRow", "CarlitzError", "CharSpec",
    "CharacterError", "ColemanSeries", "CycloField", "FqElem", "Fq",
    "FracField", "GroupRing", "GroupRingElem", "InvariantError", "OkadaReport",
    "ParseError", "Poly", "PolyRing", "PrecisionError", "QuotientRing",
    "RatFun", "SkewPoly", "TailError", "ThetaPoly",
    "TruncSeries", "ZZ", "base_field",
    "bernoulli_carlitz", "bernoulli_carlitz_table", "bracket", "carlitz_exp",
    "carlitz_factorial", "carlitz_log", "carlitz_phi", "character_table",
    "coates_wiles", "coleman_norm", "cw_verify", "cyclotomic_poly",
    "cyclotomic_unit", "cyclotomic_unit_series", "d_sequence",
    "dlog", "dlog_exp_series", "eval_at_omega",
    "field_norm", "galois_act", "ht_derivative", "is_irreducible",
    "l_sequence", "lucas_binom", "monic_enumerate", "okada_report",
    "omega_minpoly", "phi_poly", "poly_parse", "poly_to_str", "power_sum",
    "power_sum_enum", "quotient_norm", "star_action",
    "stickelberger_coefficient", "stickelberger_coefficient_enum",
    "stickelberger_series", "torsion_poly",
    "upsilon", "valuation_at_p", "x_field", "zeta_neg", "zeta_pos_trunc",
    "zeta_v_adic_neg", "zeta_v_adic_neg_enum",
]
