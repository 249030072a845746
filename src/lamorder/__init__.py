"""Term orders for lambda terms: KBO and LPO over eta-long De Bruijn spines,
with symbolic ordinal-weight polynomials and a first-order encoding oracle."""

from .cmp import Cmp, G, GE, E, LE, L, U, flip
from .ordinal import Ord, ZERO, ONE, OMEGA, from_int, omega_pow, parse_ord, format_ord
from .term import (ARROW, Db, Lam, Preterm, Signature, Substitution, Sym,
                   TyCon, TyVar, Type, TypeDecl, Var, app, apply_subst, arrow,
                   arrows, normalize, shift, size, strip_lams, truncating_apply,
                   type_of)
from .poly import HInd, Indet, KInd, Poly, WInd, analyze_weight_diff, const_poly
from .lambda_order import (ALGOS, DepthError, KBO, LPO, OrderError, OrderParams, compare,
                           norm_key, weight_diff, weight_poly)
from .gen import TermGen
from .oracle import (encode_ground, oracle_compare, assignment_from_grounding,
                     poly_subst_from_monomorphizing)
from .parse import parse_signature, parse_signature_file, parse_term, parse_term_file

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
