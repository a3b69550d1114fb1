"""Complexes and the universal coefficient theorems."""

import random

import pytest

from homstab.errors import HypothesisViolated, NotAComplex
from homstab.exactlin import ZZ, Zmod
from homstab.fpmod import (
    canonical_invariants, cyclic, free_module, iso_test, make_morphism,
    zero_morphism,
)
from homstab.funcalc import quot_stabilize, sub_stabilize
from homstab.instances import random_complex, random_module
from homstab.resolve import tor
from homstab.uct import (
    boundaries, chains_mod_boundaries, coh_defect, coh_substab,
    cohomology, cohomology_functor, delta_functor_checks, hom_copresentation,
    homology, homology_qstab, homology_tensor, homology_tensor_functor,
    make_complex, uct_classical, uct_general, uct_special,
)

R4 = Zmod(4)
Z = free_module(ZZ, 1)
Z2 = cyclic(ZZ, 2)


def invs(m):
    return canonical_invariants(m)


def two_complex(ring=ZZ):
    one = free_module(ring, 1)
    return make_complex(ring, [one, one], [make_morphism(one, one, [[2]])])


def test_make_complex_validates():
    one = free_module(ZZ, 1)
    with pytest.raises(NotAComplex):
        make_complex(ZZ, [one, one, one],
                     [make_morphism(one, one, [[2]]), make_morphism(one, one, [[3]])])


def test_homology_spec_examples():
    c = two_complex()
    assert homology(c, 1).module.is_zero()
    assert invs(homology(c, 0).module) == ((2,), 0)
    # zero differentials: homology is the term
    z4 = cyclic(ZZ, 4)
    zc = make_complex(ZZ, [z4, z4], [zero_morphism(z4, z4)])
    assert iso_test(homology(zc, 0).module, z4)
    assert iso_test(homology(zc, 1).module, z4)
    # exact complex
    one = free_module(ZZ, 1)
    ec = make_complex(ZZ, [one, one], [make_morphism(one, one, [[1]])])
    assert homology(ec, 0).module.is_zero()
    assert homology(ec, 1).module.is_zero()


def test_cohomology_and_tensor_examples():
    c = two_complex()
    assert invs(cohomology(c, Z2, 1).module) == ((2,), 0)
    assert invs(homology_tensor(c, Z2, 1).module) == ((2,), 0)
    # unit coefficients
    r = free_module(ZZ, 1)
    assert iso_test(homology_tensor(c, r, 0).module, homology(c, 0).module)
    assert iso_test(homology_tensor(c, r, 1).module, homology(c, 1).module)


def test_functor_realizations_match_direct_computation():
    rng = random.Random(3)
    for ring in (ZZ, R4):
        for _ in range(4):
            c = random_complex(rng, ring, length=4)
            x = random_module(rng, ring, 3, 3, 4)
            for n in range(c.lo, c.hi + 1):
                assert iso_test(cohomology_functor(c, n).eval_obj(x),
                                cohomology(c, x, n).module)
                assert iso_test(homology_tensor_functor(c, n).eval_obj(x),
                                homology_tensor(c, x, n).module)


def test_coh_defect_is_homology():
    rng = random.Random(5)
    c = two_complex()
    assert coh_defect(c, 1).is_zero()
    for ring in (ZZ, R4):
        for _ in range(4):
            cx = random_complex(rng, ring, length=4)
            for n in range(cx.lo, cx.hi + 1):
                assert iso_test(coh_defect(cx, n), homology(cx, n).module)


def test_coh_substab_worked_example():
    c = two_complex()
    z4 = cyclic(ZZ, 4)
    assert invs(coh_substab(c, 1, z4)) == ((2,), 0)
    # zero differentials make B_{n-1} vanish
    z = cyclic(ZZ, 6)
    zc = make_complex(ZZ, [z, z], [zero_morphism(z, z)])
    assert coh_substab(zc, 1, z4).is_zero()


def test_homology_qstab_worked_example():
    c = two_complex()
    assert invs(homology_qstab(c, 1, Z2)) == ((2,), 0)
    assert iso_test(homology_qstab(c, 1, Z2), tor(Z2, Z2, 1))


def test_uct_classical_worked_instance():
    c = two_complex()
    rep = uct_classical(c, Z2, 1, "cohomology")
    assert rep.exact_everywhere(), rep.failures()
    assert rep.metadata["split"]
    assert rep.metadata["ext_end_iso"] and rep.metadata["hom_end_iso"]
    assert invs(rep.node_module("B")) == ((2,), 0)   # H^1(C, Z/2)
    assert invs(rep.node_module("A")) == ((2,), 0)   # Ext^1(H_0, Z/2)
    assert rep.node_module("C").is_zero()            # Hom(H_1, Z/2)

    rep = uct_classical(c, Z2, 1, "homology")
    assert rep.exact_everywhere(), rep.failures()
    assert rep.node_module("A").is_zero()
    assert invs(rep.node_module("B")) == ((2,), 0)
    assert invs(rep.node_module("C")) == ((2,), 0)
    assert rep.metadata["split"]


@pytest.mark.parametrize("ring", [ZZ, R4])
def test_hom_end_iso_compares_against_hom_through_the_resolution(monkeypatch,
                                                                   ring):
    # Hom(H_n C, B) is checked against Ext^0(H_n C, B), computed through the
    # projective resolution, so a wrong Ext^0 fails the verdict
    import homstab.uct as uct_mod
    real_ext = uct_mod.ext
    one = free_module(ring, 1)
    c = make_complex(ring, [one, one], [make_morphism(one, one, [[0]])])
    b = cyclic(ring, 2)
    assert uct_classical(c, b, 1, "cohomology").metadata["hom_end_iso"]
    monkeypatch.setattr(uct_mod, "ext", lambda m, n, i: (
        free_module(ring, 5) if i == 0 else real_ext(m, n, i)))
    rep = uct_classical(c, b, 1, "cohomology")
    assert rep.metadata["ext_end_iso"] and not rep.metadata["hom_end_iso"]


def test_uct_classical_hypothesis_gate():
    zc = make_complex(ZZ, [Z2, Z2], [zero_morphism(Z2, Z2)])
    with pytest.raises(HypothesisViolated):
        uct_classical(zc, Z2, 1, "cohomology")


def test_uct_classical_random_split():
    rng = random.Random(7)
    for _ in range(8):
        c = random_complex(rng, ZZ, length=4, free=True)
        b = random_module(rng, ZZ, 3, 3, 4)
        for n in range(c.lo, c.hi + 1):
            for which in ("cohomology", "homology"):
                rep = uct_classical(c, b, n, which)
                assert rep.exact_everywhere(), (n, which, rep.failures())
                assert rep.metadata["split"], (n, which)


def test_uct_general_arbitrary_complexes():
    rng = random.Random(9)
    for _ in range(4):
        c = random_complex(rng, R4, length=4)
        b = random_module(rng, R4, 2, 2, 4)
        n = rng.randint(c.lo, c.hi)
        for which in ("cohomology", "homology"):
            rep = uct_general(c, b, n, 2, which)
            assert rep.is_complex(), rep.failures()
            assert rep.exact_away_from("derived"), rep.failures()
            for key, val in rep.metadata.items():
                if key.endswith("_iso"):
                    assert val, (key, which)


def test_uct_general_over_Z_fragment():
    rng = random.Random(11)
    c = random_complex(rng, ZZ, length=4)
    b = random_module(rng, ZZ, 3, 3, 4)
    rep = uct_general(c, b, 1, 2, "cohomology")
    assert rep.metadata.get("truncated")
    # exact at the stabilization node and at H^n itself
    assert rep.exact_at[1] and rep.exact_at[2]
    rep = uct_general(c, b, 1, 2, "homology")
    assert rep.is_complex() and rep.exact_away_from("derived")


def test_uct_special_and_pinched_iso():
    rng = random.Random(13)
    for _ in range(4):
        c = random_complex(rng, R4, length=4, free=True)
        b = random_module(rng, R4, 2, 2, 4)
        n = rng.randint(c.lo, c.hi)
        for which in ("cohomology", "homology"):
            rep = uct_special(c, b, n, 2, which)
            assert rep.exact_everywhere(), (which, rep.failures())
            for key, val in rep.metadata.items():
                if key.endswith("_iso"):
                    assert val, (key, which)
    for _ in range(6):
        c = random_complex(rng, ZZ, length=4, free=True)
        b = random_module(rng, ZZ, 3, 3, 4)
        n = rng.randint(c.lo, c.hi)
        rep = uct_special(c, b, n, 2, "cohomology")
        assert rep.metadata["pinched_iso"] and rep.metadata["substab_iso"]


def test_uct_special_hypothesis():
    zc = make_complex(ZZ, [Z2, Z2], [zero_morphism(Z2, Z2)])
    with pytest.raises(HypothesisViolated):
        uct_special(zc, Z2, 1, 2, "cohomology")


def test_delta_functor_checks():
    rng = random.Random(17)
    for _ in range(4):
        c = random_complex(rng, R4, length=4, free=True)
        b = random_module(rng, R4, 2, 2, 4)
        n = rng.randint(c.lo + 1, c.hi - 1)
        out = delta_functor_checks(c, b, n)
        assert out["xi"] and out["tau"] and out["eta"] and out["theta"], out
    c = random_complex(rng, ZZ, length=4, free=True)
    b = random_module(rng, ZZ, 2, 2, 4)
    out = delta_functor_checks(c, b, 1)
    assert out["xi"] and out["tau"] and out["eta"]


def test_hom_copresentation_exact():
    rng = random.Random(19)
    for ring in (ZZ, R4):
        c = random_complex(rng, ring, length=4)
        x = random_module(rng, ring, 2, 2, 4)
        for n in range(c.lo, c.hi + 1):
            rep = hom_copresentation(c, n, x)
            assert rep.exact_everywhere(), rep.failures()


def test_qstab_substab_cross_checks():
    rng = random.Random(23)
    for _ in range(4):
        c = random_complex(rng, R4, length=3)
        x = random_module(rng, R4, 2, 2, 4)
        n = rng.randint(c.lo, c.hi)
        direct, _ = sub_stabilize(cohomology_functor(c, n), x)
        assert iso_test(coh_substab(c, n, x), direct)
    for ring in (ZZ, R4):
        for _ in range(4):
            c = random_complex(rng, ring, length=3)
            x = random_module(rng, ring, 2, 2, 4)
            n = rng.randint(c.lo, c.hi)
            direct, _ = quot_stabilize(homology_tensor_functor(c, n), x)
            assert iso_test(homology_qstab(c, n, x), direct)


def test_boundaries_flags():
    c = two_complex()
    assert c.is_projective() and c.boundaries_projective()
    assert invs(boundaries(c, 0)) == ((), 1)
    assert invs(chains_mod_boundaries(c, 0).module) == ((2,), 0)


def test_zero_differential_complex_collapses():
    # one free term, zero differentials: H^n(C,-) is representable, so every
    # stabilized node of the fundamental sequence vanishes
    one = free_module(R4, 1)
    c = make_complex(R4, [one, one], [zero_morphism(one, one)])
    b = cyclic(R4, 2)
    rep = uct_general(c, b, 1, 2, "cohomology")
    assert rep.exact_everywhere(), rep.failures()
    for node in rep.nodes:
        if node.kind == "stab":
            assert node.module.is_zero()
    assert iso_test(rep.node_module("F(b)"), b)  # Hom(Z/4, Z/2) = Z/2


def test_beta_vanishes_in_the_classical_situation():
    # when the classical split sequence applies (projective complex with
    # projective boundaries), rho is epi, so the connecting map out of the
    # zeroth derived node is zero
    two = free_module(R4, 2)
    d1 = make_morphism(two, two, [[1, 0], [0, 0]])
    d2 = make_morphism(two, two, [[0, 0], [0, 1]])
    c = make_complex(R4, [two, two, two], [d1, d2])
    assert c.is_projective() and c.boundaries_projective()
    b = cyclic(R4, 2)
    rep = uct_general(c, b, 1, 2, "cohomology")
    assert rep.exact_everywhere(), rep.failures()
    beta_index = next(i for i, n in enumerate(rep.nodes)
                      if n.label == "R^0F(b)")
    assert rep.maps[beta_index].is_zero()
