"""Verification outcome rows shared by the exact, numeric and sweep layers."""

from __future__ import annotations

from collections import namedtuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped(hypothesis)"


# 10^500 has fewer digits than the smallest limit CPython allows on str(int)
# (640), so every chunk of int_str converts under any limit setting.
_CHUNK_DIGITS = 500
_CHUNK = 10 ** _CHUNK_DIGITS


def int_str(c: int) -> str:
    """str(c) for an integer of any size.

    str() refuses integers with more digits than sys.get_int_max_str_digits()
    (4300 by default), which (-2)^((p-1)/(2m)) passes from p of about 28,600
    at m = 1.  The limit is process-wide, so it is left alone: the digits are
    produced in chunks of 500, each small enough for str().
    """
    if -_CHUNK < c < _CHUNK:
        return str(c)
    sign = "-" if c < 0 else ""
    c = abs(c)
    chunks = []
    while c:
        c, r = divmod(c, _CHUNK)
        chunks.append(r)
    head = str(chunks.pop())
    return sign + head + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


def error_status(exc: BaseException) -> str:
    """Status string for an unexpected error: its exception type and, if it
    has one, its message collapsed to a single line, as in
    "error(ValueError: math domain error)" or "error(ZeroDivisionError)"."""
    message = " ".join(str(exc).split())
    name = type(exc).__name__
    return f"error({name}: {message})" if message else f"error({name})"


class VerificationRecord(namedtuple(
        "VerificationRecord", "p m a check status expected actual")):
    """One (p, m, a, check) outcome.

    For checks that do not depend on a (or m) the field holds a sentinel:
    a = 0, and a fixed m describing the check's context.

    A frozen tuple of the seven things a check decides: use _replace to
    change a field.  It carries no clock, so reports are timing-free.
    """

    __slots__ = ()
    p: int
    m: int
    a: int
    check: str
    status: str
    expected: str
    actual: str


def finish(p: int, m: int, a: int, check: str, passed: bool,
           expected: str, actual: str) -> VerificationRecord:
    """Build a pass/fail record."""
    return VerificationRecord(p, m, a, check, PASS if passed else FAIL,
                              expected, actual)
