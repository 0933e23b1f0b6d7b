import ast
import copy
import csv
import decimal
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import string
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resitan
from resitan import (NotRepresentable, PrimeContext, ScanConfig,
                     VerificationRecord, emit_report, parse_report, scan,
                     verify_cor11, verify_cor12)
from resitan import arith, checks, cyclotomic, harness, numeric
from resitan.checks import CHECK_NAMES, PMD_X_GRID
from resitan.harness import REPORT_FIELDS
from resitan.records import error_status

from conftest import admissible_m, odd_primes_up_to, require_fork


class TestRecordPickle:
    RECORD = VerificationRecord(31, 3, 2, "thm_main_numeric", "pass",
                                "+2^5 (rel_tol=1e-06)", "+2^5.000000000")

    def test_round_trip(self):
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(self.RECORD, protocol=proto)
            assert pickle.loads(data) == self.RECORD
            # the fields travel as one tuple, without their names
            assert b"actual" not in data and b"expected" not in data

    def test_slots_and_replace(self):
        assert not hasattr(self.RECORD, "__dict__")
        fields = self.RECORD._asdict()
        assert VerificationRecord(**fields) == self.RECORD
        rec = self.RECORD._replace(status="fail")
        assert rec == VerificationRecord(**{**fields, "status": "fail"})
        assert rec != self.RECORD and self.RECORD.status == "pass"
        assert copy.copy(self.RECORD) == self.RECORD


class TestCor11:
    def test_p31(self):
        rec = verify_cor11(31, 1)
        assert rec.status == "pass"
        assert rec.expected == "32"          # (-1)^1 * (-2)^5
        assert rec.actual == "32"

    def test_p43(self):
        rec = verify_cor11(43, 1)
        assert rec.status == "pass"
        assert rec.expected == "-128"        # (+1) * (-2)^7

    def test_a_divisible_by_p(self):
        with pytest.raises(ValueError):
            verify_cor11(31, 31)

    def test_not_representable(self):
        with pytest.raises(NotRepresentable):
            verify_cor11(7, 1)

    def test_numeric_failure_fails_at_every_p(self, monkeypatch):
        # the floating side is checked at every p, also above p = 2000
        real = checks.verify_theorem_main_numeric

        def fails(*args):
            return real(*args)._replace(status="fail")

        monkeypatch.setattr(checks, "verify_theorem_main_numeric", fails)
        for p in (31, 2017):
            rec = verify_cor11(p, 1)
            assert rec.status == "fail", p
            assert rec.actual.endswith(" [exact=pass, numeric=fail]"), p

    def test_value_beyond_int_str_limit(self):
        # 90001 = x^2 + 27y^2; (-2)^15000 has 4516 digits, past str()'s
        # default limit of 4300
        rec = verify_cor11(90001, 2)
        assert rec.status == "pass"
        assert rec.expected == rec.actual == str(decimal.Decimal((-2) ** 15000))


class TestCor12:
    def test_p113(self):
        rec = verify_cor12(113, 1)
        assert rec.status == "pass"
        assert rec.expected == "-16384"      # (-1)^1 * (-2)^14

    def test_p337(self):
        rec = verify_cor12(337, 1)
        assert rec.status == "pass"
        assert rec.expected == str(2 ** 42)  # y = 2 is even

    def test_p17_not_representable(self):
        # exhaustive: 17 - 64*y^2 < 0 already for y = 1
        with pytest.raises(NotRepresentable):
            verify_cor12(17, 1)


def per_item_records(config, p):
    """One prime's records with every work item run by run_check, sorted as
    _scan_prime sorts them.  A row's items are every m of its ms, or of the
    m policy, with every a of its az, or of the a grid (see ScanConfig)."""
    ctx = PrimeContext(p)
    policy = admissible_m(p) if config.m_policy == "all" else config.m_policy
    grid = sorted({*range(1, min(config.a_count, p - 1) + 1), p - 1})
    records = []
    for check in config.selected_checks():
        row = checks.CHECKS[check]
        for m in row.ms or policy:
            for a in row.az or grid:
                rec = checks.run_check(ctx, m, a, check, config.tolerance)
                assert (rec.p, rec.m, rec.a, rec.check) == (p, m, a, check)
                records.append(rec)
    return sorted(records, key=attrgetter("m", "a", "check"))


def scanned_records(config, p):
    """The records of the report text _scan_prime renders for p."""
    return harness._read_rows(harness._scan_prime(config, p)[0], config.fmt)


# p = 13: the m policy "all" is every m with 2m | 12, and the a grid of
# a_count 5 is 1..5 plus p - 1 = 12; p = 5: m in (1, 2) and a in 1..4
@pytest.mark.parametrize("p, config, policy, grid", [
    (13, ScanConfig(3, 3), (1, 2, 3, 6), (1, 2, 3, 4, 5, 12)),
    (13, ScanConfig(3, 3, m_policy=(1, 2, 3, 100)), (1, 2, 3, 100),
     (1, 2, 3, 4, 5, 12)),
    (13, ScanConfig(3, 3, a_count=12), (1, 2, 3, 6),
     (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (5, ScanConfig(3, 3), (1, 2), (1, 2, 3, 4))],
    ids=["default", "explicit-m", "a-count-12", "small-p"])
def test_items_of_every_row(p, config, policy, grid):
    # a scanned prime's records of one check, in report order, are its
    # work items, m outermost
    want = {"gi": (policy, grid), "gi_plus": (policy, grid),
            "thm_main_exact": (policy, grid),
            "thm_main_numeric": (policy, grid), "lemma21": (policy, (0,)),
            "lemma31": ((3,), (0,)), "criterion": ((3, 4), (0,)),
            "cor11": ((3,), grid), "cor12": ((4,), grid),
            "pmd_lemma": ((1,), (1, 2, 3, 4, 5, 6, 7, 8, 9)),
            "pmd_thm14": ((1,), grid)}
    assert tuple(want) == CHECK_NAMES
    records = scanned_records(config, p)
    for check, (ms, az) in want.items():
        items = [(rec.m, rec.a) for rec in records if rec.check == check]
        assert items == [(m, a) for m in ms for a in az], check


def test_each_prime_derives_its_grid_once(monkeypatch):
    # one factoring of (p - 1)/2 serves every check of the m policy, and
    # the exact certificate's float bound proves no prime again: p is
    # proven once, by the PrimeContext _scan_prime builds
    real_divisors, real_is_prime = harness.divisors, arith.is_prime
    factored, proven = [], []
    monkeypatch.setattr(harness, "divisors",
                        lambda n: factored.append(n) or real_divisors(n))
    monkeypatch.setattr(arith, "is_prime",
                        lambda n: proven.append(n) or real_is_prime(n))
    cyclotomic._unit_sign.cache_clear()
    primes = odd_primes_up_to(250)[4:]
    assert (primes[0], len(primes)) == (13, 48)
    for p in primes:
        factored.clear()
        proven.clear()
        harness._scan_prime(ScanConfig(3, 3), p)
        assert factored == [(p - 1) // 2], p
        assert proven == [p], p


def test_serial_scan_proves_each_listed_prime_once(monkeypatch):
    # the listing sieve of 3..400 reaches isqrt(400) and proves nothing, so
    # the PrimeContext of each prime's scan is its one proof.  A window of
    # one large prime is shorter than its root: its survivor is proven by
    # the sieve and again by its PrimeContext
    monkeypatch.setenv("RESITAN_THREADS", "1")
    real_is_prime = arith.is_prime
    proven = []
    monkeypatch.setattr(arith, "is_prime",
                        lambda n: proven.append(n) or real_is_prime(n))
    numeric_checks = ("thm_main_numeric", "pmd_thm14", "lemma21", "lemma31",
                      "criterion")
    counts = harness.scan_counts(ScanConfig(3, 400, checks=numeric_checks))
    assert sum(counts) and proven == odd_primes_up_to(400)
    proven.clear()
    p = 2 ** 31 - 1
    assert harness.scan_counts(ScanConfig(
        p, p, m_policy=(34636833,), checks=("thm_main_numeric", "lemma21"))) \
        == (7, 0, 0, 0)
    assert proven == [p, p]


# text a runner's record may hold: format directives, braces, a quote, a
# backslash, a line break and non-ASCII characters
AWKWARD = 'p%8in{1,3} %s %d {} {0} "q" \\ two\nlines \u00e9\u2211'


def rendered(records, fmt):
    """records as json.dumps or csv.writer renders them, line by line."""
    if fmt == "jsonl":
        return "".join(json.dumps({**rec._asdict(), "elapsed_ms": 0.0}) + "\n"
                       for rec in records)
    from io import StringIO
    buf = StringIO(newline="")
    csv.writer(buf).writerows(rec + (0.0,) for rec in records)
    return buf.getvalue()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data())
def test_scan_text_equals_the_rendered_records(data):
    # the scan renders each run's line once and gives it every a of its
    # coset: its text must be the lines of every work item's own record
    fmt = data.draw(st.sampled_from(("jsonl", "csv")))
    p_min = data.draw(st.integers(3, 150))
    p_max = data.draw(st.integers(p_min, p_min + 50))
    m_policy = data.draw(st.one_of(
        st.just("all"), st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    checks_ = data.draw(st.lists(st.sampled_from(CHECK_NAMES), min_size=1,
                                 max_size=4, unique=True))
    config = ScanConfig(p_min, p_max, m_policy=m_policy,
                        a_count=data.draw(st.integers(1, 12)),
                        checks=checks_, fmt=fmt)
    fault = data.draw(st.sampled_from((None, "raise", "record")))
    faulty = data.draw(st.sampled_from(checks_))
    threads = data.draw(st.sampled_from((1, 2)))

    def run(ctx, m, a, tol):
        if fault == "raise":
            raise ValueError(AWKWARD)
        return VerificationRecord(ctx.p, m, a, faulty,
                                  error_status(ValueError(AWKWARD)),
                                  AWKWARD, AWKWARD)

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RESITAN_THREADS", str(threads))
        if fault is not None:
            patch.setitem(checks.CHECKS, faulty,
                          checks.CHECKS[faulty]._replace(run=run))
        texts = []
        counts = harness.scan_counts(config, texts)
        records = [rec for p in odd_primes_up_to(p_max) if p >= p_min
                   for rec in per_item_records(config, p)]
    assert "".join(texts) == rendered(records, fmt)
    statuses = Counter("error" if rec.status.startswith("error(")
                       else rec.status for rec in records)
    assert counts == (statuses["pass"], statuses["fail"],
                      statuses["skipped(hypothesis)"], statuses["error"])
    if fault is not None and records:
        assert statuses["error"]


def coset_name(p, m, a):
    return pow(a, (p - 1) // m, p)


class TestScan:
    def test_lemma21_range_all_pass(self):
        recs = scan(ScanConfig(5, 50, checks=("lemma21",)))
        assert recs and all(r.status == "pass" for r in recs)

    def test_gi_m_policy_all_on_31(self):
        recs = scan(ScanConfig(31, 31, checks=("gi",)))
        by_m = {}
        for r in recs:
            by_m.setdefault(r.m, set()).add(r.status)
        # 2 has order 5 mod 31: 2^(30/m) = 1 iff 5 | 30/m, so m in {1, 3}
        assert set(by_m) == {1, 3, 5, 15}
        assert by_m[1] == {"pass"} and by_m[3] == {"pass"}
        assert by_m[5] == {"skipped(hypothesis)"} == by_m[15]

    def test_explicit_m_policy_yields_skips_not_omissions(self):
        recs = scan(ScanConfig(13, 13, m_policy=(5,), checks=("gi",)))
        assert recs and all(r.status == "skipped(hypothesis)" for r in recs)

    def test_explicit_m_policy_leaves_fixed_m_checks_alone(self):
        # an explicit m policy selects the m of gi, gi_plus, thm_main_* and
        # lemma21; the fixed-m checks run at their own m, as under "all"
        recs = scan(ScanConfig(3, 400, m_policy=(4,)))
        ms = {}
        for r in recs:
            ms.setdefault(r.check, set()).add(r.m)
        assert ms == {"gi": {4}, "gi_plus": {4}, "thm_main_exact": {4},
                      "thm_main_numeric": {4}, "lemma21": {4}, "lemma31": {3},
                      "criterion": {3, 4}, "cor11": {3}, "cor12": {4},
                      "pmd_lemma": {1}, "pmd_thm14": {1}}
        fixed = ("lemma31", "criterion", "cor11", "cor12", "pmd_lemma",
                 "pmd_thm14")
        assert [r for r in recs if r.check in fixed] == \
            scan(ScanConfig(3, 400, checks=fixed))

    def test_empty_range(self):
        assert scan(ScanConfig(24, 28)) == []

    def test_every_triple_once_per_check(self):
        cfg = ScanConfig(3, 60, a_count=3)
        recs = scan(cfg)
        keys = [(r.p, r.m, r.a, r.check) for r in recs]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)
        # spot-check the requested grid for one prime and check
        p = 13
        a_grid = sorted({1, 2, 3} | {12})
        m_grid = [m for m in range(1, 7) if 6 % m == 0]
        want = {(p, m, a, "gi") for m in m_grid for a in a_grid}
        assert {k for k in keys if k[0] == p and k[3] == "gi"} == want
        want_pmd = {(p, 1, j, "pmd_lemma") for j in range(1, len(PMD_X_GRID) + 1)}
        assert {k for k in keys if k[0] == p and k[3] == "pmd_lemma"} == want_pmd

    def test_no_failures_in_clean_sweep(self):
        recs = scan(ScanConfig(3, 60, a_count=3))
        assert not [r for r in recs if r.status == "fail" or r.status.startswith("error(")]

    def test_elapsed_column_is_zero(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        recs = scan(ScanConfig(3, 20, out=str(out)))
        lines = out.read_text().splitlines()
        assert recs and len(lines) == len(recs)
        assert all(line.endswith(', "elapsed_ms": 0.0}') for line in lines)

    @pytest.mark.parametrize("config", [
        ScanConfig(3, 399),
        ScanConfig(3, 399, m_policy=(1, 2, 3, 100), a_count=12)],
        ids=["default", "explicit-m"])
    def test_direct_check_equals_scanned_record(self, config):
        # a scan runs each check once per (m, coset of a) and copies the
        # record to the other a of the coset: it must report exactly the
        # record each work item gives on its own
        direct = [rec for p in odd_primes_up_to(config.p_max)
                  for rec in per_item_records(config, p)]
        assert scan(config) == direct

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(2, 10)
        with pytest.raises(ValueError):
            ScanConfig(3, 10, a_count=0)
        with pytest.raises(ValueError):
            ScanConfig(3, 10, checks=("nope",))
        with pytest.raises(ValueError):
            ScanConfig(3, 10, fmt="xml")
        with pytest.raises(ValueError):
            ScanConfig(3, 10, m_policy=(0,))
        with pytest.raises(ValueError):
            ScanConfig(3, 10, m_policy=())

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_config_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            ScanConfig(3, 10, tolerance=tol)


class TestCosetReuse:
    """A scan runs each check once per (m, coset of a) and copies the record
    to the other a of the coset."""

    @pytest.mark.parametrize("p, m", [(73, 2), (73, 4), (31, 3)])
    def test_one_wrong_coset_fails_exactly_its_a(self, p, m, monkeypatch):
        # 2 has order 9 mod 73 and 5 mod 31, so 2 is in R_m(p) for these
        # (p, m): thm_main_numeric passes there, and so do pmd_thm14 (R_2)
        # at 73 = 1 (mod 8) and cor11 (R_3) at 31 = 2^2 + 27*1^2.  A coset
        # sum made wrong on the coset of 5, which is no m-th power, must
        # fail the a of that coset and no other
        bad = coset_name(p, m, 5)
        assert bad != 1
        real = numeric.coset_log2

        def wrong(ctx, mm, a):
            h, negatives = real(ctx, mm, a)
            if mm == m and coset_name(ctx.p, m, a) == bad:
                h += 1.0
            return h, negatives

        config = ScanConfig(3, 3, a_count=p - 1,
                            checks=("thm_main_numeric", "cor11", "pmd_thm14"))
        clean = scanned_records(config, p)
        monkeypatch.setattr(numeric, "coset_log2", wrong)
        faulty = scanned_records(config, p)
        assert faulty == per_item_records(config, p)
        coset = [a for a in range(1, p) if coset_name(p, m, a) == bad]
        assert len(coset) == (p - 1) // m
        want = {("thm_main_numeric", m, a) for a in coset}
        if m == 2:
            want |= {("pmd_thm14", 1, a) for a in coset}
        if m == 3:
            want |= {("cor11", 3, a) for a in coset}
        key = attrgetter("check", "m", "a")
        assert {key(rec) for rec in faulty if rec.status == "fail"} == want
        assert [rec for rec in faulty if key(rec) not in want] == \
            [rec for rec in clean if key(rec) not in want]

    def test_runs_once_per_m_and_coset(self, monkeypatch):
        # gi reads one verdict per (p, m); thm_main_numeric one sum per coset
        # of R_m(p), or nothing past a hypothesis that fails for every a
        monkeypatch.setenv("RESITAN_THREADS", "1")
        calls = {"verify_gi": [], "verify_theorem_main_numeric": []}
        in_cor11 = []

        def counting(name):
            real = getattr(checks, name)

            def run(ctx, m, a, *rest):
                if not in_cor11:
                    calls[name].append((ctx.p, m, a))
                return real(ctx, m, a, *rest)
            return run

        def cor11(*args):
            # cor11's own numeric side check is not a thm_main_numeric item
            in_cor11.append(1)
            try:
                return real_cor11(*args)
            finally:
                in_cor11.pop()

        real_cor11 = checks.verify_cor11
        for name in calls:
            monkeypatch.setattr(checks, name, counting(name))
        monkeypatch.setattr(checks, "verify_cor11", cor11)
        records = scan(ScanConfig(3, 200))
        gi = Counter((p, m) for p, m, a in calls["verify_gi"])
        assert gi == Counter((r.p, r.m) for r in records if r.check == "gi"
                             and r.a == 1)
        want = {}
        for r in records:
            if r.check == "thm_main_numeric":
                name = (r.status == "skipped(hypothesis)"
                        or coset_name(r.p, r.m, r.a))
                want.setdefault((r.p, r.m), set()).add(name)
        runs = calls["verify_theorem_main_numeric"]
        assert Counter((p, m) for p, m, a in runs) == \
            {key: len(names) for key, names in want.items()}
        assert len({(p, m, coset_name(p, m, a)) for p, m, a in runs}) == \
            len(runs)


@pytest.mark.parametrize("exc, status", [
    (ArithmeticError("split primes 1 mod 4p ran out"),
     "error(ArithmeticError: split primes 1 mod 4p ran out)"),
    (ZeroDivisionError(), "error(ZeroDivisionError)"),
    (KeyError(7), "error(KeyError: 7)"),
    (ValueError(" two\n  lines "), "error(ValueError: two lines)")])
def test_error_record_names_the_exception_type(exc, status, monkeypatch):
    def boom(*args):
        raise exc
    monkeypatch.setattr(checks, "verify_residue_sum", boom)
    rec = checks.run_check(resitan.PrimeContext(7), 1, 0, "lemma21", 1e-6)
    assert rec == (7, 1, 0, "lemma21", status, "", "")


def test_unknown_check_name_raises():
    with pytest.raises(KeyError):
        checks.run_check(resitan.PrimeContext(7), 1, 1, "no_such_check", 1e-6)


def random_records(count, rng):
    statuses = ["pass", "fail", "skipped(hypothesis)", "error(boom, quoted \"txt\")"]
    alphabet = string.ascii_letters + string.digits + " ,;\"'*^+-=()"
    out = []
    for _ in range(count):
        text = lambda: "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        out.append(VerificationRecord(
            p=rng.randrange(3, 10 ** 6), m=rng.randrange(1, 50),
            a=rng.randrange(0, 100), check=rng.choice(CHECK_NAMES),
            status=rng.choice(statuses), expected=text(), actual=text()))
    return out


# quotes, backslashes, control, separator and non-ASCII characters, lone
# surrogates included, besides whatever hypothesis draws
REPORT_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\u00e9\u20ac\U0001f600\ud800'),
    st.characters(exclude_categories=())))


@st.composite
def report_records(draw):
    ints = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    return VerificationRecord(
        draw(ints), draw(ints), draw(ints), draw(REPORT_TEXT), draw(REPORT_TEXT),
        draw(REPORT_TEXT), draw(REPORT_TEXT))


class TestReports:
    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], "csv", path)
        assert path.read_bytes() == b"p,m,a,check,status,expected,actual,elapsed_ms\r\n"

    def test_single_jsonl_record(self, tmp_path):
        rec = VerificationRecord(31, 3, 1, "gi", "pass", "-1*z^31", "-1*z^31")
        path = tmp_path / "one.jsonl"
        emit_report([rec], "jsonl", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["status"] == "pass" and obj["p"] == 31
        assert list(obj) == ["p", "m", "a", "check", "status", "expected",
                             "actual", "elapsed_ms"] == list(REPORT_FIELDS)
        assert obj["elapsed_ms"] == 0.0

    @pytest.mark.parametrize("fmt, text", [
        ("jsonl", '{"p": 7, "m": 1, "a": 0, "check": "lemma21", "status": "pass", '
                  '"expected": "e", "actual": "x", "elapsed_ms": 1.5}\n'
                  '{"p": 7, "m": 1, "a": 0, "check": "lemma21", "status": "pass", '
                  '"expected": "e", "actual": "x"}\n'),
        ("csv", "p,m,a,check,status,expected,actual,elapsed_ms\r\n"
                "7,1,0,lemma21,pass,e,x,1.5\r\n7,1,0,lemma21,pass,e,x,0.0\r\n")])
    def test_reader_drops_the_elapsed_column(self, fmt, text, tmp_path):
        # reports from before records lost the field may hold any value in
        # it, and a JSONL line may lack it
        path = tmp_path / f"old.{fmt}"
        path.write_bytes(text.encode())
        assert parse_report(path, fmt) == [(7, 1, 0, "lemma21", "pass", "e", "x")] * 2

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_round_trip(self, fmt, tmp_path):
        rng = random.Random(99)
        records = random_records(100, rng)
        path = tmp_path / f"report.{fmt}"
        emit_report(records, fmt, path)
        assert parse_report(path, fmt) == records

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(records=st.lists(report_records(), max_size=4))
    def test_jsonl_lines_are_json_dumps_bytes(self, records, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "encoder.jsonl"
        emit_report(records, "jsonl", path)
        want = "".join(json.dumps({**rec._asdict(), "elapsed_ms": 0.0})
                       + "\n" for rec in records)
        assert path.read_bytes() == want.encode("ascii")

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(records=st.lists(report_records(), max_size=4))
    def test_csv_rows_are_csv_writer_bytes(self, records):
        # the head renders p, m and a unquoted and the tail is csv.writer's
        # row of the rest, so the line is csv.writer's row of the record
        from io import StringIO
        got, want = StringIO(newline=""), StringIO(newline="")
        harness._write_rows(got, records, "csv")
        csv.writer(want).writerows(rec + (0.0,) for rec in records)
        assert got.getvalue() == want.getvalue()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "x")
        with pytest.raises(ValueError):
            parse_report(tmp_path / "x", "xml")


# sha256 of scan(ScanConfig(3, 60, out=..., fmt=...)) with one process
GOLDEN_SCAN_3_60 = {
    "jsonl": "3c5fed05f1bffdede798e11f727a24363563d2f98f7ba119db8678b8b2336a4d",
    "csv": "7212a7c73546c026f86a9fa6ed77dc2e670dba27d7df47c60f54e6536fb52fe4",
}
# sha256 of the numeric checks up to p = 1000, where log2 magnitudes reach
# about 500: they pin the order in which the log2 terms are added
NUMERIC_CHECKS = ("thm_main_numeric", "pmd_thm14")
GOLDEN_SCAN_3_1000_NUMERIC = {
    "jsonl": "2c34a2a5f2c63ccbd9e448940678ab6562ae3cc0c59e42693c65b5c5e774a8d7",
    "csv": "7017385d196635cdc1deca6fe52c8c363fe3224476e6afbd629998348c8261c9",
}

# sha256 of pmd_lemma over the primes up to 400, taken with the Fraction
# implementation that test_numeric keeps as reference_pmd_lemma
GOLDEN_SCAN_3_400_PMD = {
    "jsonl": "5887f1a51e4143ff6f5a975022e8024d5eb6ea3fdc5ec412a4314ca3dda726f9",
    "csv": "dd17bd54a0ad47ca85d7c74de7e0d451ce9e9eba8f5bf672d1216701680a4ca7",
}


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_report_bytes_match_golden(self, fmt, tmp_path, monkeypatch):
        monkeypatch.setenv("RESITAN_THREADS", "1")
        out = tmp_path / f"golden.{fmt}"
        scan(ScanConfig(3, 60, out=str(out), fmt=fmt))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SCAN_3_60[fmt]
        scan(ScanConfig(3, 1000, checks=NUMERIC_CHECKS, out=str(out), fmt=fmt))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            GOLDEN_SCAN_3_1000_NUMERIC[fmt]
        scan(ScanConfig(3, 400, checks=("pmd_lemma",), out=str(out), fmt=fmt))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            GOLDEN_SCAN_3_400_PMD[fmt]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_repeated_scans_byte_identical(self, fmt, tmp_path):
        out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        scan(ScanConfig(3, 40, out=str(out1), fmt=fmt))
        scan(ScanConfig(3, 40, out=str(out2), fmt=fmt))
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 and b1 == b2

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
        monkeypatch.setenv("RESITAN_THREADS", "1")
        scan(ScanConfig(3, 40, out=str(out1)))
        monkeypatch.setenv("RESITAN_THREADS", "2")
        scan(ScanConfig(3, 40, out=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_pooled_batches_match_serial(self, fmt, tmp_path, monkeypatch):
        # 77 odd primes: with 2 or 3 processes each pool task holds several
        primes = odd_primes_up_to(400)
        assert len(primes) == 77
        assert min(map(len, harness._cost_batches(primes, 2))) >= 2
        assert len(harness._cost_batches(primes, 3)) <= 77 // 3
        outputs = {}
        for threads in (1, 2, 3):
            monkeypatch.setenv("RESITAN_THREADS", str(threads))
            out = tmp_path / f"report-{threads}.{fmt}"
            records = scan(ScanConfig(3, 400, checks=NUMERIC_CHECKS,
                                      out=str(out), fmt=fmt))
            outputs[threads] = records, out.read_bytes()
        assert outputs[1][0] and outputs[1][1]
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]


class TestSweep:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_failed_sweep_leaves_no_report(self, threads, fmt, tmp_path,
                                           monkeypatch):
        require_fork(threads)
        real = harness._scan_prime

        def scan_prime(config, p):
            if p == 101:
                raise RuntimeError("boom at 101")
            return real(config, p)

        monkeypatch.setattr(harness, "_scan_prime", scan_prime)
        monkeypatch.setenv("RESITAN_THREADS", str(threads))
        out = tmp_path / f"report.{fmt}"
        for run in (scan, harness.scan_counts):
            with pytest.raises(RuntimeError, match="boom at 101"):
                run(ScanConfig(3, 400, checks=NUMERIC_CHECKS, out=str(out),
                               fmt=fmt))
            assert not out.exists()

    def test_pooled_fault_keeps_the_worker_traceback(self, monkeypatch):
        # the parent raises the worker's exception from one that carries
        # the worker's traceback, which names the frame that raised
        require_fork(2)
        real = harness._scan_prime

        def faulty_scan_prime(config, p):
            if p == 101:
                raise RuntimeError("boom at 101")
            return real(config, p)

        monkeypatch.setattr(harness, "_scan_prime", faulty_scan_prime)
        monkeypatch.setenv("RESITAN_THREADS", "2")
        with pytest.raises(RuntimeError) as info:
            harness.scan_counts(ScanConfig(3, 400, checks=("lemma21",)))
        assert type(info.value) is RuntimeError
        assert str(info.value) == "boom at 101"
        cause = str(info.value.__cause__)
        assert "in faulty_scan_prime" in cause
        assert 'raise RuntimeError("boom at 101")' in cause

    def test_killed_worker_names_its_signal(self, monkeypatch):
        import signal
        real = harness._scan_prime

        def scan_prime(config, p):
            if p == 101:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, p)

        monkeypatch.setattr(harness, "_scan_prime", scan_prime)
        monkeypatch.setenv("RESITAN_THREADS", "2")
        with pytest.raises(RuntimeError, match="killed by signal SIGKILL"):
            harness.scan_counts(ScanConfig(3, 400, checks=("lemma21",)))

    @pytest.mark.parametrize("fault, error", [
        (None, None), ("raise", "boom at 101"), ("exit", "exited with status 3")])
    def test_pooled_scan_leaves_no_child_or_pipe(self, fault, error, tmp_path,
                                                 monkeypatch):
        # a worker that raises, or dies without a result, fails the scan
        # and removes its report; no scan leaves a child or a pipe behind
        real = harness._scan_prime

        def scan_prime(config, p):
            if p == 101:
                if fault == "raise":
                    raise RuntimeError("boom at 101")
                os._exit(3)
            return real(config, p)

        if fault is not None:
            monkeypatch.setattr(harness, "_scan_prime", scan_prime)
        monkeypatch.setenv("RESITAN_THREADS", "2")
        out = tmp_path / "report.jsonl"
        config = ScanConfig(3, 400, checks=("lemma21",), out=str(out))
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") \
            else []
        if fault is None:
            passed, failed, skipped, errored = harness.scan_counts(config)
            assert passed and not (failed or skipped or errored)
            assert out.stat().st_size
        else:
            with pytest.raises(RuntimeError, match=error):
                harness.scan_counts(config)
            assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if fds:
            assert os.listdir("/proc/self/fd") == fds

    def test_report_to_a_device_is_not_removed(self, monkeypatch):
        removed = []
        monkeypatch.setattr(harness.os, "remove", removed.append)
        monkeypatch.setattr(harness, "_scan_prime", lambda config, p: 1 / 0)
        monkeypatch.setenv("RESITAN_THREADS", "1")
        with pytest.raises(ZeroDivisionError):
            harness.scan_counts(ScanConfig(3, 20, out=os.devnull))
        assert removed == []


class TestPool:
    def test_default_threads_are_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("RESITAN_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert harness._thread_count() == 3
        monkeypatch.setenv("RESITAN_THREADS", "0")
        assert harness._thread_count() == 3
        monkeypatch.setenv("RESITAN_THREADS", "5")
        assert harness._thread_count() == 5

    def test_default_threads_without_affinity(self, monkeypatch):
        monkeypatch.delenv("RESITAN_THREADS", raising=False)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
        assert harness._thread_count() == 6
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._thread_count() == 1

    def test_batching(self):
        assert harness._cost_batches([], 2) == []
        assert harness._cost_batches([3], 4) == [[3]]
        # a share below every prime: one prime each, none empty
        assert harness._cost_batches([3, 5, 7], 2) == [[3], [5], [7]]
        cap = harness.BATCH_PRIMES
        for pmax, workers in itertools.product((400, 6000), (1, 2, 3, 8)):
            primes = odd_primes_up_to(pmax)
            batches = harness._cost_batches(primes, workers)
            # contiguous ascending batches that hold every prime once
            assert [p for batch in batches for p in batch] == primes
            assert all(0 < len(batch) <= cap for batch in batches)
            # a batch takes its next prime while its sum is under the share
            # and it holds fewer than BATCH_PRIMES primes, and only then
            share = sum(primes) / (8 * workers)
            assert all(sum(batch[:-1]) < share for batch in batches)
            assert all(sum(batch) >= share or len(batch) == cap
                       for batch in batches[:-1])
            # cost grows with p: the last batch holds fewer primes than the first
            assert len(batches[-1]) < len(batches[0])
        # two workers: the full scan of 12..250 and the numeric scan of
        # 50..6000, whose first batches are cut by the cap
        assert len(harness._cost_batches(
            [p for p in odd_primes_up_to(250) if p >= 12], 2)) == 13
        batches = harness._cost_batches(
            [p for p in odd_primes_up_to(6000) if p >= 50], 2)
        assert len(batches) == 19
        assert [len(b) for b in batches[:6]] == [cap] * 5 + [56]

    def test_pool_gets_batched_tasks(self, monkeypatch):
        seen = {}
        real = harness._forked_map

        def forked_map(fn, tasks, workers):
            seen["workers"] = workers
            seen["primes"] = [len(task) for task in tasks]
            seen["covered"] = [p for task in tasks for p in task]
            return real(fn, tasks, workers)

        monkeypatch.setattr(harness, "_forked_map", forked_map)
        monkeypatch.setenv("RESITAN_THREADS", "2")
        recs = scan(ScanConfig(3, 400, checks=("lemma21",)))
        assert seen["workers"] == 2
        # 77 primes in 14 tasks of several primes each, in ascending order
        assert len(seen["primes"]) == 14 and min(seen["primes"]) >= 2
        assert seen["covered"] == odd_primes_up_to(400)
        monkeypatch.setenv("RESITAN_THREADS", "1")
        assert scan(ScanConfig(3, 400, checks=("lemma21",))) == recs

    def test_no_fork_means_one_process(self, monkeypatch):
        monkeypatch.setenv("RESITAN_THREADS", "4")
        monkeypatch.delattr(harness.os, "fork")
        assert harness._thread_count() == 1

    def test_results_come_back_in_task_order(self):
        # later tasks finish first: the parent holds them until their turn
        import time

        def task(i):
            time.sleep(0.002 * (12 - i))
            return i * i

        assert list(harness._forked_map(task, list(range(12)), 3)) == \
            [i * i for i in range(12)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_message_cut_short_is_a_dead_worker(self, monkeypatch):
        # a child that dies halfway through writing a message leaves the
        # parent a pipe that ends before a whole marshal object: that is
        # the worker's death, named by its exit status, not a decode error
        import marshal
        require_fork(2)
        real = marshal.dump

        def dump(message, out):
            if message[0] == "task 3" * 400:
                body = marshal.dumps(message)
                out.write(body[:len(body) // 2])
                out.flush()
                os._exit(3)
            real(message, out)

        monkeypatch.setattr(marshal, "dump", dump)
        with pytest.raises(RuntimeError,
                           match=r"exited with status 3 before returning task 3$"):
            list(harness._forked_map(lambda i: f"task {i}" * 400,
                                     list(range(6)), 2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_stopping_early_kills_and_reaps_every_child(self):
        import time
        results = harness._forked_map(lambda i: time.sleep(0.05 * i) or i,
                                      list(range(8)), 3)
        assert next(results) == 0
        results.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_report_equals_serial_past_the_cap(self, tmp_path,
                                                      monkeypatch):
        # 3..3000's first batch is cut by the cap at every process count
        # here, before its sum reaches the share
        primes = odd_primes_up_to(3000)
        reports = []
        for threads in (1, 2, 3):
            first = harness._cost_batches(primes, threads)[0]
            assert len(first) == harness.BATCH_PRIMES
            assert sum(first) < sum(primes) / (8 * threads)
            monkeypatch.setenv("RESITAN_THREADS", str(threads))
            out = tmp_path / f"scan-{threads}.jsonl"
            harness.scan_counts(ScanConfig(
                3, 3000, checks=("thm_main_numeric", "lemma21"), out=str(out)))
            reports.append(out.read_bytes())
        assert reports[0] and reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_streamed_batch_equals_whole_batch(self, fmt):
        config = ScanConfig(3, 200, checks=("gi", "lemma21", "pmd_thm14"),
                            fmt=fmt)
        primes = odd_primes_up_to(200)
        records = [rec for p in primes for rec in scanned_records(config, p)]
        from io import StringIO
        buf = StringIO(newline="")
        harness._write_rows(buf, records, fmt)
        statuses = [rec.status for rec in records]
        tally = (statuses.count("pass"), statuses.count("fail"),
                 statuses.count("skipped(hypothesis)"),
                 sum(s.startswith("error(") for s in statuses))
        assert sum(tally) == len(records) and tally[0] and tally[2]
        text, got = harness._sweep_batch(config, primes)
        assert text == buf.getvalue() and got == tally
        assert harness._read_rows(text, fmt) == records


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    sources = sorted(Path(resitan.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def imported_modules(tree):
    """The dotted names an AST imports, both as modules and as module.name
    (so `from . import ring` reads "ring"), with a leading "resitan."
    dropped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            name = name.strip(".")
            yield name[len("resitan."):] if name.startswith("resitan.") else name


def test_no_package_module_imports_the_reference_ring():
    # the dense ring is the tests' reference, importable here only because
    # the tests' directory is on sys.path: no package module may import it
    root = Path(resitan.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        ring = [name for name in imported_modules(tree)
                if name.split(".")[0] in ("ring", "reference_ring")]
        assert not ring, f"{path.name} imports {ring}"
