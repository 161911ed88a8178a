"""falin: torus actions on the free associative algebra, linearized exactly.

The package represents actions of the algebraic n-torus on the free
algebra K<z1..zn> with exact rational arithmetic, verifies the action
axioms symbolically, and for effective actions computes the polynomial
automorphism beta conjugating the action to its diagonal linear form,
together with beta's inverse and a symbolic verification of the
conjugation identity.
"""

from .coefficients import LaurentPoly
from .corpusgen import CorpusSpec, GroundTruth, conjugated_action, gen_action, gen_elementary
from .endo import (PolyMap, compose, conjugate_by_linear, conjugate_by_translation,
                   constant_part, identity_map, invert, linear_part)
from .errors import (AxiomsFail, DegreeBlowupExceeded, FalinError,
                     FixedPointNotFound, InternalInvariant, NotDiagonalizable,
                     NotEffective, NotPolynomialInverseWithinBound, ParseError,
                     RankMismatch, SingularMatrix, ZeroTorusPoint)
from .freealg import (FreePoly, Word, abelianize, abelianized_representative,
                      f_mul, f_substitute)
from .linearize import (LinearizationReport, build_tau, extract_beta, linearize,
                        verify_conjugation)
from .textio import (ActionDocument, emit_report, laurent_str, map_document,
                     parse, poly_str, render)
from .torus import (AxiomVerdict, TorusAction, check_axioms, fixed_point,
                    is_effective, specialize, weight_decomposition)

__version__ = "0.1.0"

__all__ = [
    "ActionDocument", "AxiomVerdict", "AxiomsFail", "CorpusSpec",
    "DegreeBlowupExceeded", "FalinError", "FixedPointNotFound", "FreePoly",
    "GroundTruth", "InternalInvariant", "LaurentPoly", "LinearizationReport",
    "NotDiagonalizable", "NotEffective", "NotPolynomialInverseWithinBound",
    "ParseError", "PolyMap", "RankMismatch", "SingularMatrix", "TorusAction",
    "Word", "ZeroTorusPoint", "abelianize", "abelianized_representative",
    "build_tau", "check_axioms", "compose", "conjugate_by_linear",
    "conjugate_by_translation", "conjugated_action", "constant_part",
    "emit_report", "extract_beta", "f_mul", "f_substitute", "fixed_point",
    "gen_action", "gen_elementary", "identity_map", "invert", "is_effective",
    "laurent_str", "linear_part", "linearize", "map_document", "parse",
    "poly_str", "render", "specialize", "verify_conjugation",
    "weight_decomposition",
]
