"""Exact and floating-point verification of tangent and root-of-unity product
identities over m-th power residue classes modulo primes.

The exact layer decides the identities in Z[zeta_4p] by certificates modulo
split primes and is the ground truth.  The numeric layer evaluates the same
products in sign and log2-magnitude form as an independent sanity check.
The harness sweeps prime ranges and writes deterministic JSONL/CSV reports.

The names below are imported from their modules on first use (PEP 562), so
importing the package loads none of its modules, and importing one loads
only what that one imports: the sweep engine in harness is loaded only
where a scan runs.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "arith": ("PrimeContext", "is_prime", "jacobi", "mod_pow", "sqrt_mod"),
    "residues": ("ResidueSet", "SignSymbol", "is_mth_residue", "residue_set",
                 "residue_sum_check", "symbol_sign"),
    "cyclotomic": ("verify_gi", "verify_gi_plus", "verify_tan_cross"),
    "quadforms": ("Representation", "cornacchia", "check_lemma31",
                  "two_residue_criterion"),
    "numeric": ("SignedMagnitude", "tan_product", "verify_theorem_main_numeric",
                "pmd_lemma_identity", "pmd_theorem14_numeric"),
    "records": ("VerificationRecord",),
    "harness": ("ScanConfig", "scan", "emit_report", "parse_report"),
    "checks": ("verify_cor11", "verify_cor12", "CHECK_NAMES"),
    "errors": ("ResitanError", "HypothesisViolation", "NonRealSymbol",
               "NotRepresentable", "BranchViolation", "PoleProximity"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(
        import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
