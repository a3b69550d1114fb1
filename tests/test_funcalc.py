"""Functor calculus: evaluation, stabilizations, satellites, derived functors,
canonical transformations, and the four-term sequences."""

import random

import pytest

from homstab import funcalc
from homstab.errors import UnsupportedRing, WrongShape
from homstab.exactlin import ZZ, Zmod
from homstab.fpmod import (
    canonical_invariants, cyclic, free_module, hom_module, identity_morphism,
    iso_test, make_module, make_morphism, morphisms_equal, transpose,
    zero_module, zero_morphism, cokernel,
)
from homstab.funcalc import (
    FP, TC, Derived, ExtFixedFirst, HomContra, HomCov, Satellite, ShiftOmega,
    ShiftSigma, TensorLeft, auslander_four_term, defect, derived_eval, lam,
    nat_trans_sample, omega_shift_mor, quot_stabilize, rho, satellite,
    sigma_shift_mor, sub_stabilize, sub_stabilize_fp, tc_quot_stabilize,
    torsion_radical,
)
from homstab.fundseq import right_fund_cov
from homstab.instances import random_module, random_morphism
from homstab.resolve import cosyzygy, ext, syzygy, tor

R4 = Zmod(4)
Z = free_module(ZZ, 1)
Z2 = cyclic(ZZ, 2)
Z3 = cyclic(ZZ, 3)
Z4 = cyclic(ZZ, 4)
F4 = free_module(R4, 1)
Z2m4 = cyclic(R4, 2)


def invs(m):
    return canonical_invariants(m)


def test_eval_obj_spec_examples():
    assert invs(HomCov(Z2).eval_obj(Z4)) == ((2,), 0)
    assert TensorLeft(Z2).eval_obj(Z3).is_zero()
    a = Z2
    f = zero_morphism(a, free_module(ZZ, 0))
    assert iso_test(FP(f).eval_obj(Z4), hom_module(a, Z4).module)


def test_eval_mor_functor_laws():
    rng = random.Random(2)
    for expr_fn in (lambda: HomCov(Z4), lambda: TensorLeft(Z4),
                    lambda: HomContra(Z4)):
        expr = expr_fn()
        x = make_module(ZZ, [[4, 0], [0, 0]])
        y = make_module(ZZ, [[8]])
        z = make_module(ZZ, [[2]])
        phi = random_morphism(rng, x, y)
        psi = random_morphism(rng, y, z)
        fid = expr.eval_mor(identity_morphism(x))
        assert morphisms_equal(fid, identity_morphism(expr.eval_obj(x)))
        lhs = expr.eval_mor(psi.compose(phi))
        if expr.variance == 1:
            rhs = expr.eval_mor(psi).compose(expr.eval_mor(phi))
        else:
            rhs = expr.eval_mor(phi).compose(expr.eval_mor(psi))
        assert morphisms_equal(lhs, rhs)
        phi2 = random_morphism(rng, x, y)
        assert morphisms_equal(expr.eval_mor(phi + phi2),
                               expr.eval_mor(phi) + expr.eval_mor(phi2))


def test_sub_stabilize_examples():
    # tensor case over Z/4: the kernel is everything
    mod, incl = sub_stabilize(TensorLeft(Z2m4), Z2m4)
    assert invs(mod) == ((2,), 0)
    # left-exact functors have zero sub-stabilization
    for x in (Z2m4, F4):
        mod, _ = sub_stabilize(HomCov(Z2m4), x)
        assert mod.is_zero()
    # vanishes on injectives
    mod, _ = sub_stabilize(TensorLeft(Z2m4), F4)
    assert mod.is_zero()
    with pytest.raises(UnsupportedRing):
        sub_stabilize(TensorLeft(Z2), Z4)  # covariant, no fp shape shortcut here


def test_quot_stabilize_examples():
    mod, proj = quot_stabilize(HomCov(Z2), Z4)
    assert invs(mod) == ((2,), 0)  # nothing factors through projectives
    mod, _ = quot_stabilize(TensorLeft(Z2), Z4)
    assert mod.is_zero()  # right-exact functors have zero quot-stabilization
    mod, _ = quot_stabilize(HomCov(Z2), free_module(ZZ, 2))
    assert mod.is_zero()  # vanishes on projectives


def test_sub_stabilize_fp_examples():
    idm = identity_morphism(Z4)
    mod, _ = sub_stabilize_fp(FP(idm), Z4)
    assert mod.is_zero()
    two = make_morphism(Z, Z, [[2]])
    mod, k = sub_stabilize_fp(FP(two), Z4)
    assert invs(mod) == ((2,), 0)
    assert kernel_is_zero(k)


def kernel_is_zero(f):
    from homstab.fpmod import kernel
    return kernel(f)[0].is_zero()


def test_sub_stabilize_fp_agrees_with_direct():
    rng = random.Random(5)
    for _ in range(12):
        a = random_module(rng, R4, 3, 3, 5)
        b = random_module(rng, R4, 3, 3, 5)
        f = random_morphism(rng, a, b)
        x = random_module(rng, R4, 3, 3, 5)
        expr = FP(f)
        direct, _ = sub_stabilize(expr, x)
        viafp, _ = sub_stabilize_fp(expr, x)
        assert iso_test(direct, viafp)


def test_tc_quot_stabilize():
    # f mono: the quot-stabilization keeps the whole kernel functor
    two = make_morphism(Z, Z, [[2]])
    out = tc_quot_stabilize(TC(two), Z2)
    assert invs(out.module) == ((2,), 0)  # Tor_1(Z/2, Z/2)
    # f = 0 with A != 0: image is 0, so K = 0
    z = zero_morphism(Z2, Z2)
    assert tc_quot_stabilize(TC(z), Z2).module.is_zero()
    # worked Z/4 example
    twice = make_morphism(F4, F4, [[2]])
    out = tc_quot_stabilize(TC(twice), Z2m4)
    assert invs(out.module) == ((2,), 0)


def test_tc_quot_stabilize_agrees_with_direct():
    rng = random.Random(9)
    for ring in (ZZ, R4):
        for _ in range(8):
            a = random_module(rng, ring, 3, 3, 5)
            b = random_module(rng, ring, 3, 3, 5)
            f = random_morphism(rng, a, b)
            x = random_module(rng, ring, 3, 3, 5)
            expr = TC(f)
            direct, _ = quot_stabilize(expr, x)
            assert iso_test(direct, tc_quot_stabilize(expr, x).module)


def test_defect_examples():
    a = Z2m4
    assert iso_test(defect(FP(zero_morphism(a, free_module(R4, 0)))), a)
    assert defect(FP(make_morphism(Z, Z, [[2]]))).is_zero()
    twice = make_morphism(F4, F4, [[2]])
    assert invs(defect(FP(twice))) == ((2,), 0)
    assert iso_test(defect(HomContra(Z2m4)), Z2m4)  # v(F) = F(ring)
    with pytest.raises(WrongShape):
        defect(TC(twice))


def test_rho_lambda_isomorphisms():
    rng = random.Random(3)
    for _ in range(6):
        x = random_module(rng, R4, 3, 3, 5)
        r = rho(HomCov(Z2m4), x)
        assert kernel_is_zero(r) and cokernel(r)[0].is_zero()
        l = lam(TensorLeft(Z2m4), x)
        assert kernel_is_zero(l) and cokernel(l)[0].is_zero()
    for _ in range(4):
        x = random_module(rng, ZZ, 3, 3, 5)
        l = lam(TensorLeft(Z4), x)
        assert kernel_is_zero(l) and cokernel(l)[0].is_zero()


def test_derived_fp_shortcut_matches_injective_route():
    rng = random.Random(7)
    for _ in range(8):
        a = random_module(rng, R4, 2, 2, 5)
        b = random_module(rng, R4, 2, 2, 5)
        f = random_morphism(rng, a, b)
        x = random_module(rng, R4, 2, 2, 5)
        expr = FP(f)
        w = defect(expr)
        for i in range(3):
            injective_route = derived_eval(expr, i, "right", x)
            assert iso_test(injective_route, ext(w, x, i))


def test_derived_fp_over_Z_uses_defect():
    two = make_morphism(Z, Z, [[2]])
    expr = FP(two)  # defect 0, so all right-derived functors vanish
    for i in range(3):
        assert derived_eval(expr, i, "right", Z4).is_zero()
    homlike = FP(zero_morphism(Z2, free_module(ZZ, 0)))
    assert iso_test(derived_eval(homlike, 0, "right", Z4),
                    hom_module(Z2, Z4).module)
    assert iso_test(derived_eval(homlike, 1, "right", Z), ext(Z2, Z, 1))


def test_derived_left_tensor_is_tor():
    rng = random.Random(11)
    for ring in (ZZ, R4):
        a = random_module(rng, ring, 3, 3, 5)
        x = random_module(rng, ring, 3, 3, 5)
        for i in range(3):
            assert iso_test(derived_eval(TensorLeft(a), i, "left", x),
                            tor(a, x, i))


def test_satellite_examples():
    # epi-preserving functors have vanishing right satellites
    assert satellite(TensorLeft(Z2m4), 1, "right", Z2m4).is_zero()
    # S^1 Hom(Z/2, -)(Z/2) = Ext^1(Z/2, Z/2) over Z/4
    s = satellite(HomCov(Z2m4), 1, "right", Z2m4)
    assert iso_test(s, ext(Z2m4, Z2m4, 1))
    # left satellite of Ext^1(D,-) recovers stable Hom (checked against the
    # quot-stabilization of Hom(D,-)) over Z
    rng = random.Random(13)
    for _ in range(6):
        d = random_module(rng, ZZ, 3, 3, 5, allow_zero=False)
        x = random_module(rng, ZZ, 3, 3, 5)
        lhs = satellite(ExtFixedFirst(d, 1), 1, "left", x)
        rhs, _ = quot_stabilize(HomCov(d), x)
        assert iso_test(lhs, rhs)


def test_satellite_capability_gates():
    with pytest.raises(UnsupportedRing):
        satellite(HomCov(Z2), 1, "right", Z2)
    with pytest.raises(UnsupportedRing):
        satellite(HomContra(Z2), 1, "left", Z2)
    # projective sides work over Z
    assert satellite(HomCov(Z2), 1, "left", Z4) is not None
    assert satellite(HomContra(Z2), 1, "right", Z4) is not None


def test_indices_below_range_are_wrong_shape():
    phi = identity_morphism(Z4)
    for side in ("right", "left"):
        for f in (HomCov(Z2m4), HomContra(Z2m4)):
            with pytest.raises(WrongShape):
                satellite(f, 0, side, Z2m4)
            with pytest.raises(WrongShape):
                Satellite(f, 0, side).eval_mor(identity_morphism(Z2m4))
            with pytest.raises(WrongShape):
                Derived(f, -1, side).eval_mor(identity_morphism(Z2m4))
    with pytest.raises(WrongShape):
        Satellite(HomCov(Z2), 0, "left").eval_mor(phi)
    with pytest.raises(WrongShape):
        derived_eval(HomCov(Z2), -1, "left", Z4)


def test_substab_tensor_is_ext_of_transpose():
    rng = random.Random(17)
    for _ in range(8):
        a = random_module(rng, R4, 3, 3, 5)
        x = random_module(rng, R4, 3, 3, 5)
        mod, _ = sub_stabilize(TensorLeft(a), x)
        assert iso_test(mod, ext(transpose(a), x, 1))


def test_quotstab_hom_is_tor_of_transpose():
    rng = random.Random(19)
    for ring in (ZZ, R4):
        for _ in range(8):
            a = random_module(rng, ring, 3, 3, 5)
            x = random_module(rng, ring, 3, 3, 5)
            mod, _ = quot_stabilize(HomCov(a), x)
            assert iso_test(mod, tor(transpose(a), x, 1))


def test_right_exact_corollary():
    # for right-exact F, R^i F = F-bar o Sigma^{i+1} for i >= 1
    rng = random.Random(23)
    for _ in range(5):
        a = random_module(rng, R4, 2, 2, 5)
        x = random_module(rng, R4, 2, 2, 5)
        f = TensorLeft(a)
        for i in (1, 2):
            lhs = derived_eval(f, i, "right", x)
            rhs, _ = sub_stabilize(f, cosyzygy(x, i + 1))
            assert iso_test(lhs, rhs)


def test_tor_via_sum_preserving_remark():
    # L_i F = Tor_i(F(ring), -) for F = TensorLeft(a): F(ring) = a
    rng = random.Random(29)
    a = random_module(rng, R4, 3, 3, 5)
    x = random_module(rng, R4, 3, 3, 5)
    for i in range(3):
        assert iso_test(derived_eval(TensorLeft(a), i, "left", x), tor(a, x, i))


def test_torsion_radical():
    from homstab.fpmod import direct_sum
    m = direct_sum([Z, Z3]).module
    t, incl = torsion_radical(m)
    assert invs(t) == ((3,), 0)
    assert torsion_radical(free_module(ZZ, 2))[0].is_zero()
    # over a self-injective ring the evaluation map is injective, so the
    # radical vanishes; both defining routes agree on that
    t4, _ = torsion_radical(Z2m4)
    assert t4.is_zero()
    # independent container-kernel definition over Z/n
    rng = random.Random(31)
    for _ in range(6):
        a = random_module(rng, R4, 3, 3, 5)
        lhs, _ = torsion_radical(a)
        rhs, _ = sub_stabilize(TensorLeft(a), free_module(R4, 1))
        assert iso_test(lhs, rhs)


def test_shift_evaluation():
    # Hom(Z/2, -) o Omega over Z/4 at Z/2: Omega(Z/2) = Z/2
    expr = ShiftOmega(HomCov(Z2m4), 1)
    assert invs(expr.eval_obj(Z2m4)) == ((2,), 0)
    expr2 = ShiftSigma(HomCov(Z2m4), 1)
    assert invs(expr2.eval_obj(Z2m4)) == ((2,), 0)
    # shifts act on identity as identity
    assert morphisms_equal(omega_shift_mor(identity_morphism(Z2m4), 1),
                           identity_morphism(syzygy(Z2m4, 1)))
    assert morphisms_equal(sigma_shift_mor(identity_morphism(Z2m4), 1),
                           identity_morphism(cosyzygy(Z2m4, 1)))


def test_naturality_samples():
    rng = random.Random(37)
    objects = [random_module(rng, R4, 2, 2, 5) for _ in range(3)]
    morphisms = [random_morphism(rng, objects[0], objects[1]),
                 random_morphism(rng, objects[1], objects[2])]
    for name, expr in (("rho", HomCov(Z2m4)), ("rho", TensorLeft(Z2m4)),
                       ("lambda", TensorLeft(Z2m4)), ("beta", TensorLeft(Z2m4)),
                       ("alpha", HomCov(Z2m4)),
                       ("rho", HomContra(Z2m4)), ("lambda", HomContra(Z2m4))):
        sample = nat_trans_sample(name, expr, objects, morphisms)
        assert all(ok for _, ok in sample.naturality), (name, str(expr))


def test_naturality_samples_over_Z():
    rng = random.Random(39)
    objects = [random_module(rng, ZZ, 2, 2, 5) for _ in range(3)]
    morphisms = [random_morphism(rng, objects[0], objects[1]),
                 random_morphism(rng, objects[1], objects[2])]
    fp = ExtFixedFirst(cyclic(ZZ, 4), 1)
    for name, expr in (("rho", fp), ("rho", HomCov(Z4)),
                       ("lambda", TensorLeft(Z4)), ("alpha", HomCov(Z4)),
                       ("rho", HomContra(Z4)), ("beta", HomContra(Z4))):
        sample = nat_trans_sample(name, expr, objects, morphisms)
        assert all(ok for _, ok in sample.naturality), (name, str(expr))
    # the zeroth comparison of a left-exact functor is an isomorphism over Z too
    r = rho(HomCov(Z4), objects[0])
    assert kernel_is_zero(r) and cokernel(r)[0].is_zero()


def test_tensor_unit_recovers_morphisms():
    # the ring-component of a tensor transformation determines it: evaluating
    # f (x) - at the rank-one free module recovers f on the nose
    rng = random.Random(43)
    from homstab.fpmod import tensor_module, tensor_mor
    for ring in (ZZ, R4):
        one = free_module(ring, 1)
        for _ in range(6):
            a = random_module(rng, ring, 3, 3, 5)
            b = random_module(rng, ring, 3, 3, 5)
            assert tensor_module(a, one).module == a
            f = random_morphism(rng, a, b)
            assert morphisms_equal(tensor_mor(f, identity_morphism(one)), f)


def test_four_term_tensor_spec_examples():
    # A free: end terms vanish, middle map iso
    rep = auslander_four_term(free_module(ZZ, 2), Z4, "tensor")
    assert rep.exact_everywhere()
    assert rep.nodes[1].module.is_zero() and rep.nodes[4].module.is_zero()
    # A = Z/2, X = Z: 0 -> Z/2 -> Z/2 -> 0 -> 0 -> 0
    rep = auslander_four_term(Z2, Z, "tensor")
    assert rep.exact_everywhere()
    assert invs(rep.nodes[1].module) == ((2,), 0)
    assert invs(rep.nodes[2].module) == ((2,), 0)
    assert rep.nodes[3].module.is_zero()
    assert rep.nodes[4].module.is_zero()
    assert iso_test(rep.nodes[1].module, ext(transpose(Z2), Z, 1))


def test_four_term_hom_spec_examples():
    rep = auslander_four_term(Z2, Z4, "hom")
    assert rep.exact_everywhere()
    assert rep.nodes[1].module.is_zero()   # Tor_2(TrA, X)
    assert rep.nodes[2].module.is_zero()   # A* = 0
    assert invs(rep.nodes[3].module) == ((2,), 0)
    assert invs(rep.nodes[4].module) == ((2,), 0)


def test_four_term_random_exactness():
    rng = random.Random(41)
    for ring in (ZZ, R4):
        for _ in range(6):
            a = random_module(rng, ring, 3, 3, 5)
            x = random_module(rng, ring, 3, 3, 5)
            for side in ("tensor", "hom"):
                rep = auslander_four_term(a, x, side)
                assert rep.exact_everywhere(), (str(a), str(x), side,
                                                rep.failures())


def test_threads_survive_wrapped_resolution_functions(monkeypatch):
    # a wrapper installed over the resolution functions, as a tracer does,
    # must not change which resolution a (variance, side) pair threads
    a = cyclic(R4, 2)
    x = make_module(R4, [[2, 0], [0, 0]])  # Z/2 + Z/4
    phi = make_morphism(x, x, [[1, 1], [0, 3]])

    def run():
        rep = right_fund_cov(HomCov(a), x, 1)
        r1 = Derived(HomCov(a), 1, "right").eval_mor(phi)
        assert not r1.is_zero()
        return [n.label for n in rep.nodes], [m.mat for m in rep.maps], r1.mat

    want = run()
    for name in ("inj_resolution", "proj_resolution"):
        orig = getattr(funcalc, name)
        monkeypatch.setattr(funcalc, name, lambda m, d, orig=orig: orig(m, d))
    assert run() == want


def test_an_empty_power_is_the_shared_zero_module():
    for ring in (ZZ, Zmod(4)):
        assert funcalc._power_module(cyclic(ring, 2), 0) is zero_module(ring)
        assert funcalc._power_module(zero_module(ring), 3) is zero_module(ring)
        assert funcalc._power_module(cyclic(ring, 2), 2).gens == 2
