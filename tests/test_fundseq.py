"""Circular sequences, fundamental sequences, splitting, decomposition."""

import hashlib
import json
import random

import pytest

from homstab.archeck import bidual_check
from homstab.errors import NotAComplex, UnsupportedRing, WrongShape
from homstab.exactlin import ZZ, Zmod
from homstab.fpmod import (
    Own, SubquotientRealization, canonical_invariants, cyclic, direct_sum,
    free_module, identity_morphism, induced, is_projective_module, iso_test,
    make_morphism, morphisms_equal, zero_morphism,
)
from homstab.funcalc import (
    COVARIANT, FP, Derived, ExtFixedFirst, HomContra, HomCov, QuotStab, Satellite,
    SubStab, TensorLeft, alpha, auslander_four_term, beta,
    derived_eval, lam, nat_trans_sample, quot_stabilize, rho, satellite,
    sub_stabilize, sub_stabilize_fp, tc_quot_stabilize,
)
from homstab.fundseq import (
    circular_sequence, contra_fund, hereditary_decomposition, is_exact_at,
    left_fund_cov, right_fund_cov, short_exact, splitting_test,
)
from homstab.instances import (
    random_composable_pair, random_module, random_morphism,
)
from homstab.resolve import cosyzygy, ext, tor

R4 = Zmod(4)
Z = free_module(ZZ, 1)
Z2 = cyclic(ZZ, 2)
Z2m4 = cyclic(R4, 2)
F4 = free_module(R4, 1)


def invs(m):
    return canonical_invariants(m)


def test_circular_identity_pair():
    rep = circular_sequence(identity_morphism(Z2), identity_morphism(Z2))
    assert rep.exact_everywhere()
    assert all(n.module.is_zero() for n in rep.nodes)


def test_circular_two_times_two():
    two = make_morphism(Z, Z, [[2]])
    rep = circular_sequence(two, two)
    assert rep.exact_everywhere()
    mods = [n.module for n in rep.nodes]
    assert all(m.is_zero() for m in mods[:4])
    assert invs(mods[4]) == ((2,), 0)
    assert invs(mods[5]) == ((4,), 0)
    assert invs(mods[6]) == ((2,), 0)


def test_circular_epi_then_mono():
    e = make_morphism(Z, Z2, [[1]])
    m = make_morphism(Z2, Z2, [[1]])
    rep = circular_sequence(e, m)
    assert rep.exact_everywhere()
    assert iso_test(rep.node_module("ker gf"), rep.node_module("ker f"))
    assert iso_test(rep.node_module("cok gf"), rep.node_module("cok g"))


def test_circular_random_pairs():
    rng = random.Random(1)
    for ring in (ZZ, R4, Zmod(12)):
        for _ in range(8):
            f, g = random_composable_pair(rng, ring)
            rep = circular_sequence(f, g)
            assert rep.exact_everywhere(), rep.failures()


def test_is_exact_at_examples():
    two = make_morphism(Z, Z, [[2]])
    proj = make_morphism(Z, Z2, [[1]])
    assert is_exact_at(two, proj)
    # ker(0) = Z strictly contains im(2) = 2Z
    assert not is_exact_at(two, zero_morphism(Z, Z))
    with pytest.raises(NotAComplex):
        is_exact_at(two, two)


def test_right_fund_homcov_collapse():
    a = Z2m4
    rng = random.Random(3)
    for _ in range(3):
        b = random_module(rng, R4, 2, 2, 5)
        rep = right_fund_cov(HomCov(a), b, 2)
        assert rep.exact_everywhere(), rep.failures()
        for node in rep.nodes:
            if node.kind == "stab":
                assert node.module.is_zero()
        for i in (1, 2):
            assert iso_test(rep.node_module(f"S^{i}F(b)"), ext(a, b, i))
            assert iso_test(rep.node_module(f"R^{i}F(b)"), ext(a, b, i))


def test_right_fund_tensor_collapse():
    a = Z2m4
    b = Z2m4
    rep = right_fund_cov(TensorLeft(a), b, 2)
    assert rep.exact_everywhere(), rep.failures()
    for node in rep.nodes:
        if node.kind == "satellite":
            assert node.module.is_zero()
    for i in (1, 2):
        lhs = rep.node_module(f"R^{i}F(b)")
        rhs, _ = sub_stabilize(TensorLeft(a), cosyzygy(b, i + 1))
        assert iso_test(lhs, rhs)
        assert invs(lhs) == ((2,), 0)


def test_right_fund_on_injective_argument():
    rep = right_fund_cov(TensorLeft(Z2m4), F4, 1)
    assert rep.exact_everywhere()
    assert rep.node_module("Fbar(b)").is_zero()
    assert iso_test(rep.node_module("R^0F(b)"), rep.node_module("F(b)"))


def test_right_fund_over_Z_fragment():
    f = FP(make_morphism(Z, Z, [[2]]), half_exact=True)
    rep = right_fund_cov(f, cyclic(ZZ, 4), 3)
    assert rep.metadata.get("truncated")
    assert rep.exact_everywhere()
    with pytest.raises(UnsupportedRing):
        right_fund_cov(TensorLeft(Z2), Z2, 1)


def test_left_fund_tensor_collapse():
    rng = random.Random(5)
    for ring in (ZZ, R4):
        a = random_module(rng, ring, 2, 2, 4)
        b = random_module(rng, ring, 2, 2, 4)
        rep = left_fund_cov(TensorLeft(a), b, 2)
        assert rep.exact_everywhere(), rep.failures()
        for node in rep.nodes:
            if node.kind == "stab":
                assert node.module.is_zero()
        for i in (1, 2):
            assert iso_test(rep.node_module(f"S_{i}F(b)"), tor(a, b, i))
            assert iso_test(rep.node_module(f"L_{i}F(b)"), tor(a, b, i))


def test_left_fund_hom_over_Z():
    # Hom is left-exact, hence half-exact: full exactness; the syzygy of Z/4
    # is free, so Hom(Z/2,-) modulo projectives vanishes there and the
    # sequence collapses to 0 -> L_0 -> F(b) -> Funder(b) -> 0
    rep = left_fund_cov(HomCov(Z2), cyclic(ZZ, 4), 2)
    assert rep.exact_everywhere(), rep.failures()
    assert rep.node_module("Funder(O^1b)").is_zero()
    assert rep.node_module("S_1F(b)").is_zero()
    assert invs(rep.node_module("Funder(b)")) == ((2,), 0)


def test_left_fund_on_projective_argument():
    rep = left_fund_cov(HomCov(Z2m4), F4, 1)
    assert rep.exact_everywhere()
    assert rep.node_module("Funder(b)").is_zero()


def test_contra_fund_homcontra_collapse():
    rng = random.Random(7)
    c = Z2m4
    for ring, cc in ((ZZ, Z2), (R4, c)):
        for _ in range(3):
            b = random_module(rng, ring, 2, 2, 4)
            rep = contra_fund(HomContra(cc), b, 2, "right")
            assert rep.exact_everywhere(), rep.failures()
            for node in rep.nodes:
                if node.kind == "stab":
                    assert node.module.is_zero()
            for i in (1, 2):
                assert iso_test(rep.node_module(f"S^{i}F(b)"), ext(b, cc, i))
                assert iso_test(rep.node_module(f"R_{i}F(b)"), ext(b, cc, i))


def test_contra_fund_left_side():
    rep = contra_fund(HomContra(Z2m4), Z2m4, 1, "left")
    assert rep.exact_everywhere(), rep.failures()
    with pytest.raises(UnsupportedRing):
        contra_fund(HomContra(Z2), Z2, 1, "left")


def test_contra_split_first_row_hereditary():
    # representable contravariant functors: the first row splits over Z
    b = make_module_direct()
    f = HomContra(cyclic(ZZ, 6))
    bar, _ = sub_stabilize(f, b)
    assert bar.is_zero()
    r0 = ext(b, cyclic(ZZ, 6), 0)
    incl = zero_morphism(free_module(ZZ, 0), f.eval_obj(b))
    # package 0 -> 0 -> F(b) -> R_0F(b) -> 0 and test the splitting
    rep = contra_fund(f, b, 1, "right")
    fb = rep.node_module("F(b)")
    assert iso_test(fb, r0)


def make_module_direct():
    return direct_sum([cyclic(ZZ, 4), free_module(ZZ, 1)]).module


def test_splitting_examples():
    inj = direct_sum([Z, Z2])
    rep = short_exact(inj.injections[0], inj.projections[1])
    ok, retraction = splitting_test(rep)
    assert ok and retraction is not None
    two = make_morphism(Z, Z, [[2]])
    proj = make_morphism(Z, Z2, [[1]])
    ok, _ = splitting_test(short_exact(two, proj))
    assert not ok
    z4 = cyclic(ZZ, 4)
    i = make_morphism(Z2, z4, [[2]])
    p = make_morphism(z4, Z2, [[1]])
    ok, _ = splitting_test(short_exact(i, p))
    assert not ok


def test_hereditary_decomposition():
    rng = random.Random(11)
    # F = Ext^1(D,-) (+) Hom(E,-): defect E, stabilization Ext^1(D,-)
    for _ in range(4):
        d = random_module(rng, ZZ, 2, 2, 4, allow_zero=False)
        e = random_module(rng, ZZ, 2, 2, 4)
        from homstab.fpmod import direct_sum_morphism
        pres_d = ExtFixedFirst(d, 1).fp_presentation()
        pres_e = zero_morphism(e, free_module(ZZ, 0))
        f = FP(direct_sum_morphism([pres_d, pres_e]), half_exact=True)
        xs = [random_module(rng, ZZ, 2, 2, 4) for _ in range(3)]
        dec = hereditary_decomposition(f, xs)
        assert iso_test(dec.w, e)
        assert dec.all_ok()
        for x, rep, split, _, _ in dec.samples:
            assert iso_test(rep.node_module("A"), ext(d, x, 1))


# ---------------------------------------------------------------------------
# pin: every builder variant and canonical transformation, byte for byte


def _pin_mat(m):
    return [m.rows, m.cols, [list(r) for r in m.data]]


def _pin_mor(phi):
    return {"source": invs(phi.source), "target": invs(phi.target),
            "mat": _pin_mat(phi.mat)}


def _pin_report(rep):
    return {"nodes": [[n.label, n.kind, invs(n.module)] for n in rep.nodes],
            "maps": [_pin_mat(m.mat) for m in rep.maps],
            "composite_zero": rep.composite_zero, "exact_at": rep.exact_at,
            "metadata": rep.metadata}


def _pin_call(fn, *args):
    try:
        return fn(*args)
    except UnsupportedRing as exc:
        return type(exc).__name__


def _pin_payload():
    def mod(rng, ring):
        # projective arguments collapse every row; draw past them
        while True:
            m = random_module(rng, ring, 3, 3, 6, allow_zero=False)
            if not is_projective_module(m):
                return m

    out = []
    rng = random.Random(20261018)
    builders = [
        (right_fund_cov, lambda a: (HomCov(a), TensorLeft(a)),
         (R4, Zmod(8), Zmod(12))),
        (left_fund_cov, lambda a: (HomCov(a), TensorLeft(a)),
         (ZZ, R4, Zmod(12))),
        (lambda f, b, d: contra_fund(f, b, d, "right"),
         lambda a: (HomContra(a),), (ZZ, R4)),
        (lambda f, b, d: contra_fund(f, b, d, "left"),
         lambda a: (HomContra(a),), (R4, Zmod(8))),
    ]
    for build, functors, rings in builders:
        for ring in rings:
            a, b = mod(rng, ring), mod(rng, ring)
            for f in functors(a):
                out.append(_pin_report(build(f, b, 2)))
    a, b = mod(rng, ZZ), mod(rng, ZZ)
    fp = FP(make_morphism(Z, Z, [[2]]), half_exact=True)
    for f in (HomCov(a), fp):
        out.append(_pin_report(right_fund_cov(f, b, 2)))
    for ring in (ZZ, R4, Zmod(12)):
        a, x, y = mod(rng, ring), mod(rng, ring), mod(rng, ring)
        phi = random_morphism(rng, x, y)
        for f in (HomCov(a), HomContra(a), TensorLeft(a)):
            for comp in (rho, lam, beta, alpha):
                got = _pin_call(comp, f, x)
                out.append(got if isinstance(got, str) else _pin_mor(got))
            for side in ("right", "left"):
                for i in (1, 2):
                    got = _pin_call(satellite, f, i, side, x)
                    out.append(got if isinstance(got, str) else invs(got))
                    got = _pin_call(Satellite(f, i, side).eval_mor, phi)
                    out.append(got if isinstance(got, str) else _pin_mor(got))
                got = _pin_call(Derived(f, 1, side).eval_mor, phi)
                out.append(got if isinstance(got, str) else _pin_mor(got))
    return json.dumps(out, sort_keys=True)


PIN_SHA256 = "86fa0323d3943c6075b532293f366172af7c2bdbf2cfeb388eea2fa608f20218"


def test_builders_and_canonical_maps_pinned():
    digest = hashlib.sha256(_pin_payload().encode()).hexdigest()
    assert digest == PIN_SHA256


# ---------------------------------------------------------------------------
# second pin: stabilizations, derived functors, naturality, four-term rows


def _pin_try(fn, *args):
    try:
        return fn(*args)
    except (UnsupportedRing, WrongShape) as exc:
        return type(exc).__name__


def _pin_value(got):
    if isinstance(got, str):
        return got
    if isinstance(got, tuple):
        return [invs(got[0]), _pin_mor(got[1])]
    if hasattr(got, "nodes"):
        return _pin_report(got)
    if hasattr(got, "mat"):
        return _pin_mor(got)
    return invs(got)


def _second_pin_payload():
    def mod(rng, ring):
        while True:
            m = random_module(rng, ring, 3, 3, 6, allow_zero=False)
            if not is_projective_module(m):
                return m

    out = []
    rng = random.Random(20261019)
    for ring in (ZZ, R4, Zmod(12)):
        a, x, y = mod(rng, ring), mod(rng, ring), mod(rng, ring)
        phi = random_morphism(rng, x, y)
        ext1 = ExtFixedFirst(mod(rng, ring), 1)
        for f in (HomCov(a), HomContra(a), TensorLeft(a), ext1):
            for stab in (sub_stabilize, quot_stabilize, sub_stabilize_fp,
                         tc_quot_stabilize):
                got = _pin_try(stab, f, x)
                if isinstance(got, SubquotientRealization):
                    got = (got.module, induced(got, Own(got.subq.ambient)))
                out.append(_pin_value(got))
            for cls in (SubStab, QuotStab):
                out.append(_pin_value(_pin_try(cls(f).eval_mor, phi)))
            for side in ("right", "left"):
                for i in (0, 1, 2):
                    out.append(_pin_value(_pin_try(derived_eval, f, i, side, x)))
                for i in (0, 2):
                    out.append(_pin_value(
                        _pin_try(Derived(f, i, side).eval_mor, phi)))
            for name in ("rho", "lambda", "beta", "alpha"):
                got = _pin_try(nat_trans_sample, name, f, [x, y], [phi])
                if not isinstance(got, str):
                    got = [[_pin_mor(c) for _, c in got.components],
                           [ok for _, ok in got.naturality]]
                out.append(got)
        for which in ("tensor", "hom"):
            out.append(_pin_value(auslander_four_term(a, x, which)))
        out.append(_pin_value(bidual_check(a)))
    return json.dumps(out, sort_keys=True)


SECOND_PIN_SHA256 = "984bf731970bffca9bb52d8e10379fd18e86f4b5c0202e91777cd21c8cf40446"


def test_stabilizations_derived_and_four_term_pinned():
    digest = hashlib.sha256(_second_pin_payload().encode()).hexdigest()
    assert digest == SECOND_PIN_SHA256


# ---------------------------------------------------------------------------
# the canonical maps are arrows of the fundamental sequences


def _arrow(rep, src_label):
    """The map of a report leaving the node labelled src_label."""
    labels = [n.label for n in rep.nodes]
    return rep.maps[labels.index(src_label)]


def _right_row(f, b):
    if f.variance == COVARIANT:
        return right_fund_cov(f, b, 1)
    return contra_fund(f, b, 1, "right")


def _left_row(f, b):
    if f.variance == COVARIANT:
        return left_fund_cov(f, b, 1)
    return contra_fund(f, b, 1, "left")


def _same_map(got, want, nonzero, name):
    assert got.source == want.source and got.target == want.target
    assert morphisms_equal(got, want)
    assert got.mat == want.mat
    if not got.is_zero():
        nonzero.add(name)


@pytest.mark.parametrize("ring", [ZZ, R4, Zmod(12)], ids=str)
def test_canonical_maps_are_row_arrows(ring):
    def plus(*orders):
        return direct_sum([cyclic(ring, d) for d in orders]).module

    checked, nonzero = set(), set()
    for a, b in ((cyclic(ring, 2), plus(2, 4)), (plus(2, 6), cyclic(ring, 6))):
        for f in (HomCov(a), TensorLeft(a), HomContra(a)):
            cov = f.variance == COVARIANT
            kind = type(f).__name__
            try:
                right = _right_row(f, b)
            except UnsupportedRing:
                right = None
            if right is not None:
                _same_map(rho(f, b), _arrow(right, "F(b)"), nonzero, "rho")
                checked.add((kind, "rho"))
                if not right.metadata.get("truncated"):
                    r0 = "R^0F(b)" if cov else "R_0F(b)"
                    _same_map(beta(f, b), _arrow(right, r0), nonzero, "beta")
                    checked.add((kind, "beta"))
            try:
                left = _left_row(f, b)
            except UnsupportedRing:
                continue
            l0 = "L_0F(b)" if cov else "L^0F(b)"
            _same_map(lam(f, b), _arrow(left, l0), nonzero, "lambda")
            shifted = "Funder(O^1b)" if cov else "Funder(S^1b)"
            _same_map(alpha(f, b), _arrow(left, shifted), nonzero, "alpha")
            checked.update({(kind, "lambda"), (kind, "alpha")})
    # every map the ring allows was reached (over Z: rho of HomCov from the
    # finitely presented fragment, both right maps of HomContra, and both
    # left maps of the covariant functors), and none was always zero there
    if ring.quasi_frobenius:
        assert len(checked) == 12
        assert nonzero == {"rho", "beta", "lambda", "alpha"}
    else:
        assert len(checked) == 7
        assert nonzero == {"rho", "lambda"}
