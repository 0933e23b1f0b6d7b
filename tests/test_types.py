"""The contract of the package's value types.

PrimeContext, ResidueSet, SignSymbol, SignedMagnitude, Representation,
VerificationRecord and ScanConfig are frozen namedtuples.  Their reprs,
equality, hashing, copying and pickling are part of the public behaviour,
and the validated types (PrimeContext, Representation and ScanConfig) must
validate on every construction path.  That a pickled record holds no field
names is tested in test_harness.py.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import resitan
from resitan import (PrimeContext, Representation, ResidueSet, ScanConfig,
                     SignedMagnitude, SignSymbol, VerificationRecord,
                     cornacchia, residue_set, symbol_sign)

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def record():
    return VerificationRecord(31, 3, 2, "thm_main_numeric", "pass",
                              "+2^5 (rel_tol=1e-06)", "+2^5.000000000")


# (value, its pinned repr, the same fields with one changed)
FROZEN = [
    (PrimeContext(31), "PrimeContext(p=31, p_minus_1=30)", PrimeContext(37)),
    (residue_set(13, 3), "ResidueSet(p=13, m=3, members=(1, 5, 8, 12))",
     ResidueSet(13, 3, (1, 5, 8))),
    (symbol_sign(-2, 31, 3), "SignSymbol(value=-1, a=-2, p=31, order=6)",
     SignSymbol(1, -2, 31, 6)),
    (SignedMagnitude(-1, 5.5), "SignedMagnitude(sign=-1, log2_mag=5.5)",
     SignedMagnitude(1, 5.5)),
    (SignedMagnitude(0), "SignedMagnitude(sign=0, log2_mag=0.0)",
     SignedMagnitude(0, 1.0)),
    (cornacchia(31, 27), "Representation(p=31, d=27, x=2, y=1)",
     Representation(43, 27, 4, 1)),
    (record(),
     "VerificationRecord(p=31, m=3, a=2, check='thm_main_numeric', "
     "status='pass', expected='+2^5 (rel_tol=1e-06)', "
     "actual='+2^5.000000000')",
     record()._replace(status="fail")),
    (ScanConfig(5, 50, m_policy=(3,), checks=("gi",), fmt="csv"),
     "ScanConfig(p_min=5, p_max=50, m_policy=(3,), a_count=5, "
     "checks=('gi',), tolerance=1e-06, out=None, fmt='csv')",
     ScanConfig(5, 50, m_policy=(3,), checks=("gi",))),
]
FROZEN_IDS = [r.split("(")[0] for _, r, _ in FROZEN]


@pytest.mark.parametrize("value, text, other", FROZEN, ids=FROZEN_IDS)
class TestFrozen:
    def test_repr(self, value, text, other):
        assert repr(value) == text

    def test_equality_and_hash_by_fields(self, value, text, other):
        twin = type(value)(*value)
        assert twin == value and hash(twin) == hash(value)
        assert other != value
        # a namedtuple equals the plain tuple of its fields
        assert value == tuple(value) and hash(value) == hash(tuple(value))

    def test_pickle_and_copy(self, value, text, other):
        for proto in PROTOCOLS:
            back = pickle.loads(pickle.dumps(value, protocol=proto))
            assert type(back) is type(value) and back == value, proto
        for clone in (copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value

    def test_frozen(self, value, text, other):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1


def test_defaults():
    assert PrimeContext(31, 5).p_minus_1 == 30   # always p - 1
    assert SignedMagnitude(1).log2_mag == 0.0


def test_record_holds_what_a_check_decides():
    # the report's elapsed_ms column is no record field
    assert VerificationRecord._fields == ("p", "m", "a", "check", "status",
                                          "expected", "actual")
    with pytest.raises(TypeError):
        VerificationRecord(*record(), 0.0)


def tampered(value, old: bytes, new: bytes, proto: int) -> bytes:
    """value pickled at proto with its one encoding of a field changed."""
    data = pickle.dumps(value, protocol=proto)
    assert data.count(old) == 1, (proto, data)
    return data.replace(old, new)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_unpickling_validates(proto):
    old, new = (b"I31\n", b"I9\n") if proto == 0 else (b"K\x1f", b"K\x09")
    with pytest.raises(ValueError, match="not an odd prime"):
        pickle.loads(tampered(PrimeContext(31), old, new, proto))
    old, new = (b"I2\n", b"I3\n") if proto == 0 else (b"K\x02", b"K\x03")
    with pytest.raises(ValueError, match="!= p"):
        pickle.loads(tampered(Representation(31, 27, 2, 1), old, new, proto))
    old, new = (b"I3\n", b"I2\n") if proto == 0 else (b"K\x03", b"K\x02")
    with pytest.raises(ValueError, match="p_min must be at least 3"):
        pickle.loads(tampered(ScanConfig(3, 60), old, new, proto))


def test_every_construction_path_validates():
    with pytest.raises(ValueError, match="not an odd prime"):
        PrimeContext(31)._replace(p=9)
    with pytest.raises(ValueError, match="not an odd prime"):
        PrimeContext._make((9, 8))
    with pytest.raises(ValueError, match="!= p"):
        Representation(31, 27, 2, 1)._replace(x=3)
    with pytest.raises(ValueError, match="!= p"):
        Representation._make((31, 27, 3, 1))
    with pytest.raises(ValueError, match="p_min must be at least 3"):
        ScanConfig(3, 60)._replace(p_min=2)
    with pytest.raises(ValueError, match="p_min must be at least 3"):
        ScanConfig._make((2, 60))
    assert PrimeContext._make((31, 0)) == PrimeContext(31)
    assert PrimeContext(31)._replace(p=37) == PrimeContext(37)
    # _replace normalises as the constructor does
    assert ScanConfig(3, 60)._replace(m_policy=[4, 2]) == ScanConfig(3, 60, (2, 4))


class TestScanConfig:
    def test_repr_and_defaults(self):
        assert repr(ScanConfig(3, 60)) == (
            "ScanConfig(p_min=3, p_max=60, m_policy='all', a_count=5, "
            "checks='all', tolerance=1e-06, out=None, fmt='jsonl')")

    def test_normalises_m_and_checks(self):
        config = ScanConfig(3, 60, m_policy=[4, 2, 2], checks=["lemma21", "gi"])
        assert config.m_policy == (2, 4)
        assert config.checks == ("gi", "lemma21")   # CHECK_NAMES order
        assert repr(config) == (
            "ScanConfig(p_min=3, p_max=60, m_policy=(2, 4), a_count=5, "
            "checks=('gi', 'lemma21'), tolerance=1e-06, out=None, fmt='jsonl')")

    def test_equality_by_fields(self):
        config = ScanConfig(3, 60, m_policy=(4, 2))
        assert config == ScanConfig(3, 60, m_policy=(2, 4))
        assert hash(config) == hash(ScanConfig(3, 60, m_policy=(2, 4)))
        assert ScanConfig(3, 60) != ScanConfig(3, 61)


def imported_modules(path: Path) -> set:
    """The modules a source file imports, by the names its imports give."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


PACKAGE_FILES = sorted(Path(resitan.__file__).parent.glob("*.py"))


def test_no_module_imports_dataclasses():
    for path in PACKAGE_FILES:
        assert "dataclasses" not in imported_modules(path), path.name


def test_no_module_imports_time():
    # no check carries a clock: timings belong to whoever runs the checks
    for path in PACKAGE_FILES:
        assert "time" not in imported_modules(path), path.name
