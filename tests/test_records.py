"""Record classes: constructors, equality, hashing, validation and pickling.

Modules, rings, SNF results and instance specs compare and hash by value;
suite reports compare by value and are unhashable; every other record
(morphisms, realizations, sequence nodes and reports, resolutions,
complexes) compares by identity.
"""

import pickle
import subprocess
import sys

import pytest

from homstab.errors import DimensionMismatch, MembershipError, WrongShape
from homstab.exactlin import IntMat, RingDesc, SNFResult, ZZ, Zmod
from homstab.fpmod import (
    CokernelRealization, DirectSum, FPModule, HomRealization, Morphism, Own,
    Subquotient, SubquotientRealization, Within, cyclic, free_module,
    identity_morphism,
)
from homstab.funcalc import NatTransSample
from homstab.fundseq import HereditaryDecomposition
from homstab.instances import InstanceSpec
from homstab.resolve import InjResolution, ProjResolution
from homstab.seqreport import SequenceNode, SequenceReport
from homstab.suites import SuiteReport
from homstab.uct import Complex

R4 = Zmod(4)
M = cyclic(R4, 2)
F = free_module(R4, 1)
I1 = IntMat.identity(1)
SQ = Subquotient(F, I1, IntMat.zeros(1, 0))
SQR = SubquotientRealization(SQ, F, I1, I1)
MOR = identity_morphism(M)


def _fields(cls):
    """Field names and sample values, in constructor order."""
    return {
        RingDesc: [("modulus", 6)],
        SNFResult: [(k, I1) for k in ("U", "Uinv", "S", "V", "Vinv")],
        FPModule: [("ring", R4), ("gens", 1), ("rel", IntMat.from_rows([[2]]))],
        Morphism: [("source", M), ("target", M), ("mat", I1)],
        Subquotient: [("ambient", F), ("sub", I1), ("den", IntMat.zeros(1, 0))],
        SubquotientRealization: [("subq", SQ), ("module", F), ("fwd", I1),
                                 ("bwd", I1)],
        Own: [("module", M)],
        Within: [("outer", Own(F)), ("inner", SQR)],
        CokernelRealization: [("module", M), ("fwd", I1), ("decode", I1)],
        DirectSum: [("module", M), ("injections", (MOR,)),
                    ("projections", (MOR,))],
        HomRealization: [("source", M), ("target", M), ("module", M),
                         ("_sq", SQR)],
        ProjResolution: [("diffs", ()), ("covers", (MOR,)), ("includes", ())],
        InjResolution: [("diffs", ()), ("embeds", (MOR,)), ("projs", ())],
        NatTransSample: [("name", "rho"), ("components", [(M, MOR)]),
                         ("naturality", [(MOR, True)])],
        HereditaryDecomposition: [("w", M), ("samples", [])],
        SequenceNode: [("label", "A"), ("module", M), ("kind", "stab")],
        SequenceReport: [("nodes", []), ("maps", []), ("composite_zero", [True]),
                         ("exact_at", [None]), ("metadata", {"display": "x"})],
        Complex: [("ring", R4), ("lo", 0), ("terms", (M,)), ("diffs", ())],
        InstanceSpec: [("seed", 3), ("ring", R4), ("max_gens", 2),
                       ("max_rels", 1), ("max_entry", 5), ("count", 7)],
        SuiteReport: [("suite", "bidual"), ("seed", 3), ("count", 2),
                      ("passes", 1), ("failures", [{"index": 1}]),
                      ("duration_ms", 9), ("warnings", ["w"])],
    }[cls]


RECORDS = [RingDesc, SNFResult, FPModule, Morphism, Subquotient,
           SubquotientRealization, Own, Within, CokernelRealization, DirectSum,
           HomRealization, ProjResolution, InjResolution, NatTransSample,
           HereditaryDecomposition, SequenceNode, SequenceReport, Complex,
           InstanceSpec, SuiteReport]
BY_VALUE = [RingDesc, SNFResult, FPModule, InstanceSpec]
BY_IDENTITY = [c for c in RECORDS if c not in BY_VALUE and c is not SuiteReport]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_by_position_and_keyword(cls):
    fields = _fields(cls)
    by_pos = cls(*[v for _, v in fields])
    by_kw = cls(**dict(fields))
    for name, value in fields:
        assert getattr(by_pos, name) is value
        assert getattr(by_kw, name) is value


def test_constructor_defaults():
    assert RingDesc().modulus is None
    assert SequenceNode("A", M).kind == "plain"
    spec = InstanceSpec(1, ZZ)
    assert (spec.max_gens, spec.max_rels, spec.max_entry, spec.count) == (4, 4, 8, 100)
    rep = SequenceReport([], [])
    assert (rep.composite_zero, rep.exact_at, rep.metadata) == ([], [], {})
    # mutable defaults are fresh per instance
    rep.metadata["k"] = 1
    assert SequenceReport([], []).metadata == {}
    sr = SuiteReport("s", 1, 2, 2)
    assert (sr.failures, sr.duration_ms, sr.warnings) == ([], 0, [])
    sr.failures.append(0)
    assert SuiteReport("s", 1, 2, 2).failures == []


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda c: c.__name__)
def test_value_equality_and_hash(cls):
    fields = _fields(cls)
    a = cls(*[v for _, v in fields])
    b = cls(**dict(fields))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a != tuple(v for _, v in fields)


def test_value_equality_sees_every_field():
    assert RingDesc(4) != RingDesc(8) and RingDesc() == ZZ
    assert cyclic(ZZ, 2) == FPModule(ZZ, 1, IntMat.from_rows([[2]]))
    assert cyclic(ZZ, 2) != cyclic(R4, 2) and cyclic(ZZ, 2) != cyclic(ZZ, 3)
    assert free_module(ZZ, 1) != free_module(ZZ, 2)
    s = SNFResult(I1, I1, I1, I1, I1)
    assert s != SNFResult(I1, I1, IntMat.zeros(1, 1), I1, I1)
    base = dict(_fields(InstanceSpec))
    for key, other in [("seed", 4), ("ring", ZZ), ("max_gens", 3),
                       ("max_rels", 2), ("max_entry", 6), ("count", 8)]:
        assert InstanceSpec(**base) != InstanceSpec(**{**base, key: other})
    # modules are dict keys by presentation, as the lru caches use them
    assert {cyclic(R4, 2): "x"}[FPModule(R4, 1, IntMat.from_rows([[2]]))] == "x"


def test_suite_report_value_equality_unhashable():
    fields = _fields(SuiteReport)
    a = SuiteReport(*[v for _, v in fields])
    assert a == SuiteReport(**dict(fields))
    assert a != SuiteReport(**{**dict(fields), "duration_ms": 10})
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=lambda c: c.__name__)
def test_identity_equality(cls):
    fields = _fields(cls)
    a = cls(*[v for _, v in fields])
    b = cls(*[v for _, v in fields])
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_validation_kept():
    with pytest.raises(ValueError):
        RingDesc(1)
    with pytest.raises(ValueError):
        Zmod(0)
    with pytest.raises(DimensionMismatch):
        FPModule(ZZ, 2, IntMat.from_rows([[2]]))
    with pytest.raises(WrongShape):
        InstanceSpec(0, ZZ, count=-1)
    with pytest.raises(WrongShape):
        InstanceSpec(0, ZZ, max_gens=0)
    with pytest.raises(WrongShape):
        InstanceSpec(0, ZZ, max_rels=-1)
    with pytest.raises(WrongShape):
        InstanceSpec(0, ZZ, max_entry=-1)
    with pytest.raises(DimensionMismatch):
        Subquotient(F, IntMat.identity(2), IntMat.zeros(1, 0))
    with pytest.raises(DimensionMismatch):
        Subquotient(F, I1, IntMat.zeros(2, 0))
    # over Z/4, 1 is not in span(2)
    with pytest.raises(MembershipError):
        Subquotient(F, IntMat.column([2]), IntMat.column([1]))


@pytest.mark.parametrize("obj", [
    InstanceSpec(5, R4, 2, 2, 3, 4), InstanceSpec(5, ZZ), RingDesc(), R4,
    cyclic(ZZ, 6), cyclic(R4, 2),
])
def test_pickle_round_trip_by_value(obj):
    hash(obj)  # a stored hash must not travel
    again = pickle.loads(pickle.dumps(obj))
    assert again == obj and hash(again) == hash(obj)


def test_pickle_round_trip_morphism():
    f = identity_morphism(cyclic(ZZ, 6))
    again = pickle.loads(pickle.dumps(f))
    assert again.source == f.source and again.target == f.target
    assert again.mat == f.mat


def test_pickled_module_hashes_right_in_a_fresh_process():
    # hash(None), so a module over Z's hash, differs between processes:
    # what a worker unpickles must hash like the worker's own modules
    m = cyclic(ZZ, 6)
    hash(m)
    code = (
        "import pickle, sys\n"
        "from homstab.fpmod import cyclic\n"
        "from homstab.exactlin import ZZ\n"
        "m = pickle.loads(sys.stdin.buffer.read())\n"
        "print(m == cyclic(ZZ, 6) and hash(m) == hash(cyclic(ZZ, 6)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(m),
                         capture_output=True, check=True)
    assert out.stdout.strip() == b"True"
