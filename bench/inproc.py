"""Run one pass of a workload inside a fresh interpreter, optionally traced.

    python bench/inproc.py --workload W --seed N [--size full|tiny]
        (--setup-only | --summary FILE [--out REPORT] [--trace 0|1] [--spans FILE])

--setup-only imports resitan, builds the workload's inputs and validates them
with resitan's own types, then exits: its wall time is the set-up cost.
Otherwise every `resitan` command line of one pass runs through
`resitan.cli.main` in this process, and a JSON summary is written.  With
--trace 1 the public functions of each layer are wrapped from here, so the
program itself carries no instrumentation; the wrappers record spans and the
computed counts (COMPUTED below), which are derived from the call's
arguments and result rather than timed.  Run it with RESITAN_THREADS=1: spans
recorded in pool workers would be lost.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time

import workloads
from spans import Spans

LAYERS = ("arith", "residues", "cyclotomic", "numeric", "quadforms", "harness",
          "cli")

# (module, function, span name).  The leaf helpers as_prime, mod_pow and
# jacobi run inside inner loops and are left unwrapped: their time counts
# toward the wrapped caller.
TRACED = (
    ("arith", "is_prime", "arith.is_prime"),
    ("arith", "sqrt_mod", "arith.sqrt_mod"),
    ("residues", "residue_set", "residues.residue_set"),
    ("residues", "symbol_sign", "residues.symbol_sign"),
    ("residues", "is_mth_residue", "residues.is_mth_residue"),
    ("residues", "residue_sum_check", "residues.residue_sum_check"),
    ("cyclotomic", "cyclotomic_poly", "cyclotomic.cyclotomic_poly"),
    ("cyclotomic", "get_ring", "cyclotomic.get_ring"),
    ("cyclotomic", "binomial_product", "cyclotomic.binomial_product"),
    ("cyclotomic", "verify_gi", "cyclotomic.verify_gi"),
    ("cyclotomic", "verify_gi_plus", "cyclotomic.verify_gi_plus"),
    ("cyclotomic", "verify_tan_cross", "cyclotomic.verify_tan_cross"),
    ("numeric", "tan_product", "numeric.tan_product"),
    ("numeric", "verify_theorem_main_numeric", "numeric.verify_theorem_main_numeric"),
    ("numeric", "pmd_lemma_identity", "numeric.pmd_lemma"),
    ("numeric", "pmd_theorem14_numeric", "numeric.pmd_thm14"),
    ("quadforms", "cornacchia", "quadforms.cornacchia"),
    ("quadforms", "check_lemma31", "quadforms.check_lemma31"),
    ("quadforms", "two_residue_criterion", "quadforms.two_residue_criterion"),
    ("harness", "scan", "harness.scan"),
    ("harness", "run_guarded", "harness.run_guarded"),
    ("harness", "emit_report", "harness.emit_report"),
    ("harness", "verify_cor11", "harness.verify_cor11"),
    ("harness", "verify_cor12", "harness.verify_cor12"),
)
EXACT_CHECKS = ("verify_gi", "verify_gi_plus", "verify_tan_cross")
# Metrics derived from call arguments and results, not timed: they repeat
# exactly for the same inputs, so a later change can cite them as counts.
COMPUTED = ("cyclotomic.binomial_product.coeff_ops",
            "cyclotomic.binomial_product.peak_coeff_bits",
            "numeric.tan_product.tan_evals", "numeric.pmd_lemma.fraction_ops",
            "residues.residue_set.distinct_ratio",
            "cyclotomic.galois_distinct_ratio", "harness.report_bytes")


def _prime(p) -> int:
    return int(getattr(p, "p", p))


class Tracer:
    """Wraps resitan's public functions with spans and computed counts."""

    def __init__(self):
        self.spans = Spans()
        self.coeff_ops = 0          # computed: sum of n * (number of factors)
        self.peak_coeff_bits = 0    # computed: widest coefficient of a product
        self.tan_evals = 0          # computed: sum of |R_m(p)| = (p-1)/m
        self.fraction_ops = 0       # computed: 3 Fraction ops per residue r
        self.log2_residual_max = 0.0
        self.residue_keys = set()   # distinct (p, m) given to residue_set
        self.exact_keys = set()     # distinct (p, m, check) of exact checks

    def _before(self, span_name, args):
        if span_name == "residues.residue_set":
            self.residue_keys.add((_prime(args[0]), args[1]))
        elif span_name.startswith("cyclotomic.verify_"):
            self.exact_keys.add((_prime(args[0]), args[1], span_name))
        elif span_name == "numeric.pmd_lemma":
            self.fraction_ops += 3 * args[0]

    def _after(self, span_name, args, result):
        if span_name == "cyclotomic.binomial_product":
            self.coeff_ops += args[0].n * len(args[1])
            bits = max(abs(c).bit_length() for c in result.coeffs)
            self.peak_coeff_bits = max(self.peak_coeff_bits, bits)
        elif span_name == "numeric.tan_product":
            p, m = _prime(args[0]), args[1]
            self.tan_evals += (p - 1) // m
            self.log2_residual_max = max(
                self.log2_residual_max, abs(result.log2_mag - (p - 1) / (2 * m)))

    def wrap(self, fn, span_name, new_item=False):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span_name == "cyclotomic.binomial_product":
                args = (args[0], list(args[1])) + args[2:]
            self._before(span_name, args)
            with spans.span(span_name, new_item):
                result = fn(*args, **kwargs)
            self._after(span_name, args, result)
            return result
        return traced

    def install(self) -> None:
        import resitan.cli
        import resitan.cyclotomic
        modules = [m for name, m in sys.modules.items()
                   if name == "resitan" or name.startswith("resitan.")]
        for mod_name, fn_name, span_name in TRACED:
            fn = getattr(sys.modules[f"resitan.{mod_name}"], fn_name, None)
            if fn is None:  # a layer that lost a function reads 0 for it
                continue
            _replace(modules, fn, self.wrap(fn, span_name,
                                             new_item=fn_name == "run_guarded"))
        elem = getattr(resitan.cyclotomic, "CycloElement", None)
        if hasattr(elem, "canonical"):
            elem.canonical = self.wrap(elem.canonical, "cyclotomic.canonical")

        main = resitan.cli.main
        spans = self.spans

        @functools.wraps(main)
        def traced_main(argv=None):
            with spans.span(f"cli.{argv[0]}", new_item=True):
                return main(argv)
        _replace(modules, main, traced_main)

    def layer_metrics(self) -> dict:
        t = self.spans.totals()

        def get(name, key):
            return t.get(name, {}).get(key, 0)

        exact_calls = sum(get(f"cyclotomic.{c}", "calls") for c in EXACT_CHECKS)
        rs_calls = get("residues.residue_set", "calls")
        out = {
            "arith.is_prime.calls": get("arith.is_prime", "calls"),
            "arith.is_prime.busy_s": get("arith.is_prime", "busy_s"),
            "residues.residue_set.calls": rs_calls,
            "residues.residue_set.busy_s": get("residues.residue_set", "busy_s"),
            "residues.residue_set.distinct_ratio":
                len(self.residue_keys) / rs_calls if rs_calls else 0.0,
            "residues.symbol_sign.busy_s": get("residues.symbol_sign", "busy_s"),
            "cyclotomic.binomial_product.calls":
                get("cyclotomic.binomial_product", "calls"),
            "cyclotomic.binomial_product.busy_s":
                get("cyclotomic.binomial_product", "busy_s"),
            "cyclotomic.binomial_product.coeff_ops": self.coeff_ops,
            "cyclotomic.binomial_product.peak_coeff_bits": self.peak_coeff_bits,
            "cyclotomic.get_ring.busy_s": get("cyclotomic.get_ring", "busy_s"),
            "cyclotomic.canonical.busy_s": get("cyclotomic.canonical", "busy_s"),
            "cyclotomic.verify_gi.busy_s": get("cyclotomic.verify_gi", "busy_s"),
            "cyclotomic.verify_gi_plus.busy_s":
                get("cyclotomic.verify_gi_plus", "busy_s"),
            "cyclotomic.verify_tan_cross.busy_s":
                get("cyclotomic.verify_tan_cross", "busy_s"),
            "cyclotomic.galois_distinct_ratio":
                len(self.exact_keys) / exact_calls if exact_calls else 0.0,
            "numeric.tan_product.calls": get("numeric.tan_product", "calls"),
            "numeric.tan_product.busy_s": get("numeric.tan_product", "busy_s"),
            "numeric.tan_product.tan_evals": self.tan_evals,
            "numeric.pmd_thm14.busy_s": get("numeric.pmd_thm14", "busy_s"),
            "numeric.log2_residual_max": self.log2_residual_max,
            "numeric.pmd_lemma.busy_s": get("numeric.pmd_lemma", "busy_s"),
            "numeric.pmd_lemma.fraction_ops": self.fraction_ops,
            "quadforms.cornacchia.calls": get("quadforms.cornacchia", "calls"),
            "quadforms.cornacchia.busy_s": get("quadforms.cornacchia", "busy_s"),
            "harness.emit_report.busy_s": get("harness.emit_report", "busy_s"),
            "cli.verify.busy_s": get("cli.verify", "busy_s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in t.items()
                                         if name.split(".")[0] == layer)
        return out


def _replace(modules, old, new) -> None:
    """Point every module global and dict-table entry that is `old` at `new`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def validate_inputs(work) -> None:
    """Build the inputs with resitan's own types, as a caller would."""
    from resitan import PrimeContext, ScanConfig
    if work.kind == "scan":
        ScanConfig(p_min=work.scan["pmin"], p_max=work.scan["pmax"],
                   checks=work.scan["checks"])
    else:
        for p, _, _ in work.cases:
            PrimeContext(p)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--summary")
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans")
    args = ap.parse_args()

    import resitan.cli
    work = workloads.build(args.workload, args.seed, args.size)
    validate_inputs(work)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    calls = []
    t0 = time.perf_counter()
    for argv in work.argvs(args.out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = resitan.cli.main(argv)
        calls.append({"code": code, "stdout": buf.getvalue()})
    wall = time.perf_counter() - t0

    summary = {"wall_s": wall, "calls": calls}
    if tracer:
        summary["busy_s"] = tracer.spans.root_time()
        summary["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.spans.dump(args.spans)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
