"""Seeded workload inputs and the checks on their outputs.

This module does not import resitan: the expected record grid and the prime
lists are worked out here independently, so a defect in the program cannot
also hide in the check.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

NUMERIC_CHECKS = ("thm_main_numeric", "pmd_thm14", "lemma21", "lemma31",
                  "criterion")
ALL_CHECKS = ("gi", "gi_plus", "thm_main_exact", "thm_main_numeric",
              "lemma21", "lemma31", "criterion", "cor11", "cor12",
              "pmd_lemma", "pmd_thm14")
VERIFY_CHECKS = ("gi", "gi_plus", "thm_main_exact", "thm_main_numeric")
A_COUNT = 5          # ScanConfig's default a grid
PMD_X_POINTS = 9     # the pmd_lemma x grid inside scans: x = j/20, j = 1..9

# Per size: the band the seed moves pmin in, and the fixed pmax.  Scan cost
# grows about as p^3 (exact layer) or p^2 (numeric layer) per prime, so the
# primes in the pmin band cost almost nothing; the bands are narrow enough
# that they also hold under 5 % of the pass records.  The seed moves the
# record grid without moving the cost or the pass count.
SCAN_BANDS = {
    "full": {"scan_all": ((3, 12), 250), "scan_numeric": ((3, 100), 6000)},
    "tiny": {"scan_all": ((3, 10), 40), "scan_numeric": ((3, 30), 300)},
}
# verify_large: primes are drawn from this band; exact-check cost grows as
# n * |R| = 4p * (p-1)/m, so a narrow band keeps the per-pass cost steady.
# The full band holds two primes of each kind (1033, 1049 with m = 1, 2, 4;
# 1021, 1051 with m = 3), so a seed moves a pass's cost by under 5 %.
VERIFY_BANDS = {"full": (1020, 1060), "tiny": (70, 160)}

WORKLOADS = ("scan_all", "verify_large", "scan_numeric")
SIZES = ("full", "tiny")

_VERIFY_LINE = re.compile(
    r"^p=(\d+) m=(\d+) a=(\d+) (\S+): (\S+)  expected=(.*)  actual=(.*)$")


def odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi], by a sieve."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, int(hi ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(sieve[q * q::q]))
    return [q for q in range(max(lo, 3), hi + 1) if sieve[q]]


def m_grid(p: int) -> list[int]:
    """ScanConfig's m policy "all": every m with 2m | p-1."""
    half = (p - 1) // 2
    return [m for m in range(1, half + 1) if half % m == 0]


def a_grid(p: int) -> list[int]:
    """ScanConfig's a grid: {1..a_count} within [1, p-1], plus p-1."""
    return sorted(set(range(1, min(A_COUNT, p - 1) + 1)) | {p - 1})


def admissible_m(p: int, candidates=(1, 2, 3, 4)) -> list[int]:
    """m with 2m | p-1 and 2 an m-th power residue mod p."""
    return [m for m in candidates
            if (p - 1) % (2 * m) == 0 and pow(2, (p - 1) // m, p) == 1]


def expected_keys(primes, checks) -> list[tuple]:
    """The (p, m, a, check) keys a scan must emit, in report order."""
    keys = []
    for p in primes:
        ms, az = m_grid(p), a_grid(p)
        for check in checks:
            if check in VERIFY_CHECKS:
                keys += [(p, m, a, check) for m in ms for a in az]
            elif check == "lemma21":
                keys += [(p, m, 0, check) for m in ms]
            elif check == "lemma31":
                keys.append((p, 3, 0, check))
            elif check == "criterion":
                keys += [(p, 3, 0, check), (p, 4, 0, check)]
            elif check == "cor11":
                keys += [(p, 3, a, check) for a in az]
            elif check == "cor12":
                keys += [(p, 4, a, check) for a in az]
            elif check == "pmd_lemma":
                keys += [(p, 1, j, check) for j in range(1, PMD_X_POINTS + 1)]
            elif check == "pmd_thm14":
                keys += [(p, 1, a, check) for a in az]
            else:
                raise ValueError(f"no grid rule for check {check!r}")
    keys.sort()
    return keys


@dataclass
class Workload:
    """One workload's inputs: resitan command lines and what they must give."""

    name: str
    kind: str                                  # "scan" or "verify"
    seed: int
    size: str
    scan: dict = field(default_factory=dict)   # pmin, pmax, checks
    cases: list = field(default_factory=list)  # (p, m, a) verify cases

    def argvs(self, out_path: str | None = None) -> list[list[str]]:
        """The `resitan` argument lists of one pass of this workload."""
        if self.kind == "scan":
            argv = ["scan", "--pmin", str(self.scan["pmin"]),
                    "--pmax", str(self.scan["pmax"]), "--out", str(out_path)]
            if self.scan["checks"] != ALL_CHECKS:
                argv += ["--checks", ",".join(self.scan["checks"])]
            return [argv]
        return [["verify", "--p", str(p), "--m", str(m), "--a", str(a)]
                for p, m, a in self.cases]

    def expected_keys(self) -> list[tuple]:
        return expected_keys(odd_primes(self.scan["pmin"], self.scan["pmax"]),
                             self.scan["checks"])


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The inputs of workload `name` for `seed`; equal seeds give equal inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    if name == "verify_large":
        lo, hi = VERIFY_BANDS[size]
        band = odd_primes(lo, hi)
        # One prime where m = 2 and 4 are admissible (with m = 1), one where
        # m = 3 is: every m in {1, 2, 3, 4} is covered at a steady cost.
        p_a = rng.choice([p for p in band if {1, 2, 4} <= set(admissible_m(p))])
        p_b = rng.choice([p for p in band if 3 in admissible_m(p)])
        cases = []
        for p, ms in ((p_a, admissible_m(p_a)), (p_b, admissible_m(p_b, (2, 3, 4)))):
            for m in ms:
                cases += [(p, m, a) for a in sorted(rng.sample(range(1, p), 2))]
        return Workload(name, "verify", seed, size, cases=cases)
    (lo, hi), pmax = SCAN_BANDS[size][name]
    checks = ALL_CHECKS if name == "scan_all" else NUMERIC_CHECKS
    return Workload(name, "scan", seed, size,
                    scan={"pmin": rng.randint(lo, hi), "pmax": pmax,
                          "checks": checks})


def is_bad(status: str) -> bool:
    return status == "fail" or status.startswith("error(")


def check_report(data: bytes, expected: list[tuple]) -> dict:
    """Check a JSONL scan report against the expected key grid.

    Returns counts, the sha256 and a list of problems (empty when correct).
    """
    problems = []
    keys, counts = [], {"pass": 0, "skipped": 0, "bad": 0}
    for lineno, line in enumerate(data.decode("utf-8").splitlines(), 1):
        rec = json.loads(line)
        keys.append((rec["p"], rec["m"], rec["a"], rec["check"]))
        status = rec["status"]
        if status == "pass":
            counts["pass"] += 1
        elif status == "skipped(hypothesis)":
            counts["skipped"] += 1
        else:
            counts["bad"] += 1
            if is_bad(status) and len(problems) < 5:
                problems.append(f"line {lineno}: {keys[-1]} has status {status}")
            elif len(problems) < 5:
                problems.append(f"line {lineno}: unknown status {status!r}")
    if len(keys) != len(expected):
        problems.append(f"{len(keys)} records, expected {len(expected)}")
    elif keys != expected:
        first = next(i for i, (k, e) in enumerate(zip(keys, expected)) if k != e)
        problems.append(f"record {first + 1} is {keys[first]}, expected {expected[first]}")
    return {"records": len(keys), **counts, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(), "problems": problems}


def check_verify_output(text: str, case: tuple, code: int) -> dict:
    """Check the stdout and exit code of one `resitan verify` call."""
    p, m, a = case
    problems = []
    seen, counts = [], {"pass": 0, "skipped": 0, "bad": 0}
    for line in text.splitlines():
        match = _VERIFY_LINE.match(line)
        if not match:
            problems.append(f"unparsed line {line!r}")
            continue
        rp, rm, ra, check, status = match.groups()[:5]
        seen.append(check)
        if (int(rp), int(rm), int(ra)) != case:
            problems.append(f"record for {(rp, rm, ra)} in case {case}")
        if status == "pass":
            counts["pass"] += 1
        else:
            counts["skipped" if status == "skipped(hypothesis)" else "bad"] += 1
            problems.append(f"case {case} {check}: status {status}")
    if tuple(seen) != VERIFY_CHECKS:
        problems.append(f"case {case}: checks {seen}, expected {list(VERIFY_CHECKS)}")
    if code != 0:
        problems.append(f"case {case}: exit code {code}")
    return {"records": len(seen), **counts, "problems": problems}
