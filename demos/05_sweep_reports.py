#!/usr/bin/env python3
"""Sweeping a prime range and persisting a deterministic report.

A scan visits every prime in range, expands the m and a policies per check,
and records one row per work item; hypothesis failures become explicit
skipped(hypothesis) rows so coverage is auditable.  Reports are sorted and
timing-free, so the same configuration always writes the same bytes.
"""

import collections
import tempfile
from pathlib import Path

from resitan import ScanConfig, parse_report, scan

with tempfile.TemporaryDirectory() as td:
    out1 = Path(td) / "sweep.jsonl"
    out2 = Path(td) / "sweep_again.jsonl"

    config = ScanConfig(p_min=3, p_max=100, a_count=3,
                        checks=("gi", "gi_plus", "thm_main_exact",
                                "lemma21", "criterion", "cor12"),
                        out=str(out1))
    records = scan(config)

    by_status = collections.Counter(r.status for r in records)
    print(f"scan of p in [3, 100]: {len(records)} records")
    for status, count in sorted(by_status.items()):
        print(f"  {status:22s} {count}")

    print()
    print("a few rows:")
    for r in records[:3] + records[-2:]:
        print(f"  p={r.p:3d} m={r.m:2d} a={r.a:2d} {r.check}: {r.status}")

    scan(config._replace(out=str(out2)))
    print()
    print("byte-identical re-run:", out1.read_bytes() == out2.read_bytes())

    back = parse_report(out1, "jsonl")
    print("round-trips through JSONL:", back == records)
