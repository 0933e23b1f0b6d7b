"""Exact and floating-point verification of tangent and root-of-unity product
identities over m-th power residue classes modulo primes.

The exact layer decides the identities in Z[zeta_4p] by certificates modulo
split primes and is the ground truth.  The numeric layer evaluates the same
products in sign and log2-magnitude form as an independent sanity check.
The harness sweeps prime ranges and writes deterministic JSONL/CSV reports.
"""

from .arith import PrimeContext, is_prime, jacobi, mod_pow, sqrt_mod
from .cyclotomic import verify_gi, verify_gi_plus, verify_tan_cross
from .errors import (BranchViolation, HypothesisViolation, NonRealSymbol,
                     NotRepresentable, PoleProximity, ResitanError)
from .harness import (CHECK_NAMES, ScanConfig, emit_report, parse_report,
                      scan, verify_cor11, verify_cor12)
from .numeric import (SignedMagnitude, pmd_lemma_identity,
                      pmd_theorem14_numeric, tan_product,
                      verify_theorem_main_numeric)
from .quadforms import (Representation, check_lemma31, cornacchia,
                        two_residue_criterion)
from .records import VerificationRecord
from .residues import (ResidueSet, SignSymbol, is_mth_residue, residue_set,
                       residue_sum_check, symbol_sign)

__version__ = "0.1.0"

__all__ = [
    "PrimeContext", "is_prime", "jacobi", "mod_pow", "sqrt_mod",
    "ResidueSet", "SignSymbol", "is_mth_residue", "residue_set",
    "residue_sum_check", "symbol_sign",
    "verify_gi", "verify_gi_plus", "verify_tan_cross",
    "Representation", "cornacchia", "check_lemma31", "two_residue_criterion",
    "SignedMagnitude", "tan_product", "verify_theorem_main_numeric",
    "pmd_lemma_identity", "pmd_theorem14_numeric",
    "VerificationRecord", "ScanConfig", "scan", "emit_report", "parse_report",
    "verify_cor11", "verify_cor12", "CHECK_NAMES",
    "ResitanError", "HypothesisViolation", "NonRealSymbol", "NotRepresentable",
    "BranchViolation", "PoleProximity",
]

