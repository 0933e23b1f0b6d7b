"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated tolerance is pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import admissible_m, odd_primes_up_to
from reference_ring import cyclotomic_poly
from resitan import (ScanConfig, check_lemma31, cornacchia, is_mth_residue,
                     mod_pow, pmd_lemma_identity, pmd_theorem14_numeric,
                     residue_set, residue_sum_check, scan,
                     two_residue_criterion, verify_cor11, verify_cor12,
                     verify_gi, verify_gi_plus, verify_tan_cross,
                     verify_theorem_main_numeric)

PMD_GRID = [j / 20 for j in range(1, 10)]  # the 0.05*j grid, j = 1..9


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def theorem_triples(p_limit, a_policy):
    """(p, m, a) with p prime below p_limit, 2m | p-1, 2 in R_m(p)."""
    for p in odd_primes_up_to(p_limit - 1):
        for m in admissible_m(p):
            if not is_mth_residue(2, p, m):
                continue
            for a in a_policy(p):
                yield p, m, a


def full_a_policy(p):
    return sorted(set(range(1, min(5, p - 1) + 1)) | {p - 1})


def test_exact_theorem12_sweep():
    t0 = time.time()
    n = bad = 0
    for p, m, a in theorem_triples(500, full_a_policy):
        for fn in (verify_gi, verify_gi_plus):
            rec = fn(p, m, a)
            n += 1
            if rec.status != "pass":
                bad += 1
    elapsed = time.time() - t0
    report("exact Theorem 1.2 sweep (gi + gi_plus, p < 500)",
           bad == 0 and elapsed < 300,
           f"{n} checks, {bad} failures, {elapsed:.1f}s")


def test_exact_theorem11_sweep():
    t0 = time.time()
    n = bad = 0
    for p, m, a in theorem_triples(500, full_a_policy):
        rec = verify_tan_cross(p, m, a)
        n += 1
        if rec.status != "pass":
            bad += 1
    report("exact Theorem 1.1 sweep (thm_main_exact, p < 500)", bad == 0,
           f"{n} checks, {bad} failures, {time.time() - t0:.1f}s")


def test_numeric_theorem11():
    t0 = time.time()
    n = bad = 0
    for p, m, a in theorem_triples(2000, lambda p: (1, p - 1)):
        rec = verify_theorem_main_numeric(p, m, a, rel_tol=1e-6)
        n += 1
        if rec.status != "pass":
            bad += 1
    report("numeric Theorem 1.1 (p < 2000, rel_tol 1e-6, m >= 1)", bad == 0,
           f"{n} checks, {bad} failures, {time.time() - t0:.1f}s")


def test_lemma21_sums(primes_10k):
    t0 = time.time()
    n = bad = 0
    for p in primes_10k:
        for m in admissible_m(p):
            n += 1
            if not residue_sum_check(p, m):
                bad += 1
            if sum(residue_set(p, m).members) != p * (p - 1) // (2 * m):
                bad += 1
    report("Lemma 2.1 residue sums (p < 1e4, all 2m | p-1)", bad == 0,
           f"{n} pairs, {bad} failures, {time.time() - t0:.1f}s")


def test_lemma31_and_criteria(primes_100k):
    t0 = time.time()
    n31 = ncrit = bad = 0
    for p in primes_100k:
        if p % 3 == 1:
            if cornacchia(p, 27) is not None:
                n31 += 1
                if check_lemma31(p).status != "pass":
                    bad += 1
            ncrit += 1
            if two_residue_criterion(p, 3).status != "pass":
                bad += 1
        if p % 4 == 1:
            ncrit += 1
            if two_residue_criterion(p, 4).status != "pass":
                bad += 1
    report("Lemma 3.1 and residue criteria (p < 1e5, m in {3, 4})", bad == 0,
           f"{n31} representable + {ncrit} criteria, {bad} failures, "
           f"{time.time() - t0:.1f}s")


def test_corollaries(primes_100k):
    t0 = time.time()
    bad = 0
    values11 = {}
    for p in odd_primes_up_to(499):
        if p % 3 == 1 and cornacchia(p, 27) is not None:
            rec = verify_cor11(p, 1)
            values11[p] = rec.expected
            if rec.status != "pass":
                bad += 1
    if values11.get(31) != "32" or values11.get(43) != "-128":
        bad += 1
    n12 = 0
    for p in odd_primes_up_to(1499):
        if p % 8 == 1 and cornacchia(p, 64) is not None:
            rec = verify_cor12(p, 1)
            n12 += 1
            if rec.status != "pass":
                bad += 1
            if p == 113 and rec.expected != "-16384":
                bad += 1
    ncong = 0
    for p in primes_100k:
        if p % 8 != 1:
            continue
        rep = cornacchia(p, 64)
        if rep is None:
            continue
        ncong += 1
        if mod_pow(-2, (p - 1) // 8, p) != (p - 1 if rep.y % 2 else 1):
            bad += 1
    report("Corollary values (cor11 p < 500, cor12 p < 1500, congruence p < 1e5)",
           bad == 0,
           f"{len(values11)} cor11 + {n12} cor12 + {ncong} congruences, "
           f"{bad} failures, {time.time() - t0:.1f}s")


def test_background_identities():
    t0 = time.time()
    n = bad = 0
    for odd_n in range(1, 100, 2):
        for x in PMD_GRID:
            n += 1
            if pmd_lemma_identity(odd_n, x, rel_tol=1e-9).status != "pass":
                bad += 1
    for p in odd_primes_up_to(1999):
        if p % 8 != 1:
            continue
        for a in (1, 2):
            n += 1
            if pmd_theorem14_numeric(p, a, rel_tol=1e-6).status != "pass":
                bad += 1
    report("background identities (odd n <= 99 grid at 1e-9; p = 1 mod 8, p < 2000)",
           bad == 0, f"{n} checks, {bad} failures, {time.time() - t0:.1f}s")


def mth_powers_brute(p, m):
    """{x^m mod p : 1 <= x < p}, sorted, by square-and-multiply over the
    whole array x = 1..p-1 (int64: every product stays below p^2 < 2^63)."""
    base = np.arange(1, p, dtype=np.int64)
    power = np.ones_like(base)
    while m:
        if m & 1:
            power = power * base % p
        base = base * base % p
        m >>= 1
    return tuple(np.unique(power).tolist())


def test_oracle_equivalences(primes_10k):
    t0 = time.time()
    bad = 0
    npairs = 0
    for p in primes_10k:
        for m in admissible_m(p):
            npairs += 1
            brute = mth_powers_brute(p, m)
            if residue_set(p, m).members != brute:
                bad += 1
    nrep = 0
    for p in primes_10k:
        for d in (27, 64):
            reps = []
            y = 1
            while d * y * y < p:
                x2 = p - d * y * y
                x = math.isqrt(x2)
                if x * x == x2 and x >= 1:
                    reps.append((x, y))
                y += 1
            got = cornacchia(p, d)
            if len(reps) > 1:
                bad += 1  # uniqueness must hold
            if reps:
                nrep += 1
                if got is None or (got.x, got.y) != reps[0]:
                    bad += 1
            elif got is not None:
                bad += 1
    # Phi_n | x^n - 1 exactly, via the cofactor product in checked int64
    phis = {}
    for n in range(1, 2001):
        phis[n] = np.array(cyclotomic_poly(n), dtype=np.int64)
        prod = np.array([1], dtype=np.int64)
        for d in range(1, n + 1):
            if n % d == 0:
                a = phis[d]
                bound = (min(len(prod), len(a)) * int(np.abs(prod).max())
                         * int(np.abs(a).max()))
                assert bound < 2 ** 62  # no int64 overflow possible
                prod = np.convolve(prod, a)
        want = np.zeros(n + 1, dtype=np.int64)
        want[0], want[n] = -1, 1
        if not np.array_equal(prod, want):
            bad += 1
    report("oracle equivalences (residue brute force, Cornacchia search, "
           "Phi_n | x^n - 1 for n <= 2000)", bad == 0,
           f"{npairs} residue pairs + {nrep} representations + 2000 cyclotomics, "
           f"{bad} failures, {time.time() - t0:.1f}s")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_scan_determinism(fmt, tmp_path):
    t0 = time.time()
    out1, out2 = tmp_path / f"r1.{fmt}", tmp_path / f"r2.{fmt}"
    cfg = dict(p_min=3, p_max=80, a_count=3, tolerance=1e-6, fmt=fmt)
    scan(ScanConfig(out=str(out1), **cfg))
    scan(ScanConfig(out=str(out2), **cfg))
    same = out1.read_bytes() == out2.read_bytes()
    report(f"scan determinism ({fmt})", same and out1.stat().st_size > 0,
           f"{out1.stat().st_size} bytes, byte-identical={same}, "
           f"{time.time() - t0:.1f}s")
