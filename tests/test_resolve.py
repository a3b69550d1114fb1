"""Resolutions, syzygies, Ext/Tor, and the classification oracle."""

import random

import pytest

from homstab import resolve
from homstab.errors import DimensionMismatch, NotAComplex, UnsupportedRing
from homstab.exactlin import IntMat, ZZ, Zmod
from homstab.fpmod import (
    FPModule, canonical_invariants, cokernel_realization, cyclic, direct_sum,
    dual, free_module, hom_module, hom_pull, identity_morphism, iso_test,
    kernel, kernel_realization, make_module, make_morphism, stably_iso_test,
    tensor_module, tensor_mor, zero_module, zero_morphism,
)
from homstab.resolve import (
    InjResolution, ProjResolution, cosyzygy, ext, ext_tor_oracle_Z,
    homology_at, inj_resolution, injective_container, proj_resolution, syzygy,
    tor,
)

R4 = Zmod(4)


# resolution verification: an oracle independent of the report builder


def verify_projective(res: ProjResolution) -> bool:
    for k in range(1, len(res.diffs)):
        if not res.diffs[k - 1].compose(res.diffs[k]).is_zero():
            return False
    if res.diffs and not res.augmentation.compose(res.diffs[0]).is_zero():
        return False
    for k in range(1, len(res.terms) - 1):
        if not homology_at(res.diffs[k], res.diffs[k - 1]).module.is_zero():
            return False
    if res.diffs:
        aug = res.augmentation
        if not homology_at(res.diffs[0], aug).module.is_zero():
            return False
        if not cokernel_realization(aug).module.is_zero():
            return False
    return True


def verify_injective(res: InjResolution) -> bool:
    for k in range(1, len(res.diffs)):
        if not res.diffs[k].compose(res.diffs[k - 1]).is_zero():
            return False
    if res.diffs and not res.diffs[0].compose(res.augmentation).is_zero():
        return False
    if not kernel_realization(res.augmentation).module.is_zero():
        return False
    for k in range(1, len(res.terms) - 1):
        if not homology_at(res.diffs[k - 1], res.diffs[k]).module.is_zero():
            return False
    if res.diffs:
        if not homology_at(res.augmentation, res.diffs[0]).module.is_zero():
            return False
    return True


def invs(m):
    return canonical_invariants(m)


def untrimmed_module(rng, ring, max_gens=3, max_entry=6):
    # the presentation as drawn: unreduced, with unit pivots and zero columns
    g = rng.randint(1, max_gens)
    r = rng.randint(0, max_gens)
    rel = IntMat.from_rows([[rng.randint(-max_entry, max_entry) for _ in range(r)]
                            for _ in range(g)])
    return FPModule(ring, g, rel)


def random_module(rng, ring, max_gens=3, max_entry=6):
    m = untrimmed_module(rng, ring, max_gens, max_entry)
    return make_module(ring, m.rel, gens=m.gens)


def test_proj_resolution_hereditary_length_one():
    res = proj_resolution(cyclic(ZZ, 2), 3)
    assert invs(res.terms[0]) == ((), 1)
    assert invs(res.terms[1]) == ((), 1)
    assert res.diffs[0].mat == IntMat.from_rows([[2]])
    assert res.terms[2].is_zero() and res.terms[3].is_zero()
    assert verify_projective(res)


def test_syzygy_examples():
    assert invs(syzygy(cyclic(R4, 2), 1)) == ((2,), 0)
    assert syzygy(free_module(ZZ, 2), 1).is_zero()
    assert syzygy(cyclic(ZZ, 6), 0) == cyclic(ZZ, 6)


def test_inj_resolution_periodic():
    res = inj_resolution(cyclic(R4, 2), 2)
    assert all(invs(t) == ((), 1) for t in res.terms)  # each term is Z/4
    assert all(invs(e.source) == ((2,), 0) for e in res.embeds)
    assert verify_injective(res)


def test_cosyzygy_examples():
    assert invs(cosyzygy(cyclic(R4, 2), 1)) == ((2,), 0)
    assert cosyzygy(free_module(R4, 1), 1).is_zero()
    with pytest.raises(UnsupportedRing):
        injective_container(cyclic(ZZ, 2))


def test_ext_tor_spec_examples():
    assert invs(ext(cyclic(ZZ, 2), cyclic(ZZ, 4), 1)) == ((2,), 0)
    assert invs(tor(cyclic(ZZ, 2), cyclic(ZZ, 4), 1)) == ((2,), 0)
    for i in range(4):
        assert invs(ext(cyclic(R4, 2), cyclic(R4, 2), i)) == ((2,), 0)


def test_ext_tor_degree_zero_agree_with_hom_tensor():
    rng = random.Random(7)
    for ring in (ZZ, R4, Zmod(6)):
        for _ in range(5):
            m, n = random_module(rng, ring), random_module(rng, ring)
            assert iso_test(ext(m, n, 0), hom_module(m, n).module)
            assert iso_test(tor(m, n, 0), tensor_module(m, n).module)


def test_oracle_spec_examples():
    assert invs(ext_tor_oracle_Z(cyclic(ZZ, 6), cyclic(ZZ, 4), 1, "ext")) == ((2,), 0)
    assert ext_tor_oracle_Z(free_module(ZZ, 3), cyclic(ZZ, 12), 1, "tor").is_zero()
    six = direct_sum([cyclic(ZZ, 2), cyclic(ZZ, 3)]).module
    assert invs(ext_tor_oracle_Z(six, cyclic(ZZ, 6), 1, "ext")) == ((6,), 0)


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(25):
        m, n = random_module(rng, ZZ), random_module(rng, ZZ)
        for i in (0, 1):
            assert iso_test(ext(m, n, i), ext_tor_oracle_Z(m, n, i, "ext"))
            assert iso_test(tor(m, n, i), ext_tor_oracle_Z(m, n, i, "tor"))
        for i in (2, 3):
            assert ext(m, n, i).is_zero()
            assert tor(m, n, i).is_zero()


def test_homology_at_examples():
    Z = free_module(ZZ, 1)
    two = make_morphism(Z, Z, [[2]])
    assert homology_at(zero_morphism(free_module(ZZ, 0), Z), two).module.is_zero()
    assert invs(homology_at(two, zero_morphism(Z, free_module(ZZ, 0))).module) == ((2,), 0)
    four = make_morphism(Z, Z, [[4]])
    assert invs(homology_at(four, zero_morphism(Z, Z)).module) == ((4,), 0)
    with pytest.raises(NotAComplex):
        homology_at(two, two)


def test_schanuel_two_covers():
    rng = random.Random(3)
    for ring in (ZZ, R4, Zmod(8)):
        for _ in range(6):
            m = random_module(rng, ring)
            if m.is_zero():
                continue
            omega_default = syzygy(m, 1)
            # redundant cover: one extra free generator mapping to a random element
            fat = free_module(ring, m.gens + 1)
            extra = [rng.randint(0, 5) for _ in range(m.gens)]
            mat = IntMat.identity(m.gens).hstack(IntMat.column(extra))
            cover = make_morphism(fat, m, mat.mod(ring))
            omega_fat = kernel(cover)[0]
            assert stably_iso_test(omega_default, omega_fat)


def test_dimension_shift_over_zmod():
    rng = random.Random(5)
    for _ in range(6):
        m = random_module(rng, R4)
        n = random_module(rng, R4)
        for i in (1, 2):
            assert iso_test(ext(m, n, i + 1), ext(syzygy(m, 1), n, i))


def test_resolutions_exact_random():
    rng = random.Random(13)
    for ring in (ZZ, R4, Zmod(9)):
        for _ in range(4):
            m = random_module(rng, ring)
            assert verify_projective(proj_resolution(m, 3))
            if ring.quasi_frobenius:
                assert verify_injective(inj_resolution(m, 3))


@pytest.mark.parametrize("ring, orders", [
    (ZZ, [2, 4, 0]), (Zmod(4), [2]), (Zmod(8), [2, 4]), (Zmod(12), [2, 3, 4, 6])])
def test_degrees_past_the_first_repeat_answer_at_the_equal_lower_degree(
        monkeypatch, ring, orders):
    # d_k is fixed by p_{k-1}, and p_k = kernel_basis(p_{k-1}), so once the
    # chain repeats, Ext^i, Tor_i and Omega^i repeat with it
    m = make_module(ring, IntMat.diag(orders))
    b = make_module(ring, IntMat.diag([2, 0]))
    degrees = range(1, 9)
    assert any(resolve._repeat_degree(m, i) < i for i in degrees)
    reduced = [(ext(m, b, i), tor(m, b, i), syzygy(m, i)) for i in degrees]
    monkeypatch.setattr(resolve, "_repeat_degree", lambda m, i: i)
    direct = [(ext(m, b, i), tor(m, b, i), syzygy(m, i)) for i in degrees]
    assert reduced == direct


def test_huge_degrees_cost_a_few_kernels():
    z2 = cyclic(ZZ, 2)
    assert resolve._repeat_degree(z2, 10**8) == 3  # p_2 = p_3 = 0 x 0
    assert invs(ext(z2, cyclic(ZZ, 4), 10**8)) == ((), 0)
    m8 = make_module(Zmod(8), IntMat.diag([2, 4]))
    assert resolve._repeat_degree(m8, 10**8 + 1) == 3  # p_3 = p_1
    assert ext(m8, m8, 10**8 + 1) == ext(m8, m8, 3)
    assert tor(m8, m8, 10**8) == tor(m8, m8, 2)


def test_verifiers_reject_a_differential_scaled_by_a_zero_divisor():
    m = cyclic(R4, 2)
    pr = proj_resolution(m, 3)
    assert verify_projective(pr)
    bad = ProjResolution((pr.diffs[0].scale(2),) + pr.diffs[1:], pr.covers,
                         pr.includes)
    assert not verify_projective(bad)
    ir = inj_resolution(m, 3)
    assert verify_injective(ir)
    bad = InjResolution((ir.diffs[0].scale(2),) + ir.diffs[1:], ir.embeds,
                        ir.projs)
    assert not verify_injective(bad)


def _ext_tor_from_the_full_complexes(m, n, i):
    # every Hom(d_k, N) and d_k (x) N up to k = i + 1, as the reference
    pr = proj_resolution(m, i + 1)
    pulls = [hom_pull(d, n) for d in pr.diffs]
    idn = identity_morphism(n)
    tens = [tensor_mor(d, idn) for d in pr.diffs]
    if i == 0:
        return (kernel_realization(pulls[0]).module,
                cokernel_realization(tens[0]).module)
    return (homology_at(pulls[i - 1], pulls[i]).module,
            homology_at(tens[i], tens[i - 1]).module)


# torsion orders of perfbench's large-modules pool, by modulus
LARGE_TORSION = {None: (2, 4, 6, 8, 10, 12), 8: (2, 4), 12: (2, 4, 6)}


def large_module(rng, ring, g):
    # g summands, a third of them free, as in perfbench's large-modules pool
    orders = [ring.modulus or 0] * (g // 3)
    orders += sorted(rng.choice(LARGE_TORSION[ring.modulus]) for _ in range(g - g // 3))
    return make_module(ring, IntMat.diag(orders))


def _ext_tor_of_the_whole_power_complex(m, n, i):
    # Ext^i and Tor_i as the homology of complexes of powers of all of N at
    # once, not summed over N's cyclic summands: every N^r is presented by
    # I_r (x) P_N, so its Kronecker systems hold one block per summand
    i = resolve._repeat_degree(m, i)
    chain = resolve._kernel_chain(m, i)[max(i - 1, 0):]
    pulls = [resolve._power_map(n, p.transpose()) for p in chain]
    tens = [resolve._power_map(n, p) for p in chain]
    if i == 0:
        return (kernel_realization(pulls[0]).module,
                cokernel_realization(tens[0]).module)
    return homology_at(*pulls).module, homology_at(tens[1], tens[0]).module


def unimodular(rng, g):
    # a lower times an upper unitriangular g x g matrix
    lower = [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(g)]
             for i in range(g)]
    upper = [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(g)]
             for i in range(g)]
    return IntMat.from_rows(lower) @ IntMat.from_rows(upper)


def scrambled_module(rng, ring, orders):
    # the sum of cyclic modules of these orders (0 for free), presented by
    # U diag(orders) V as it stands: its diagonal is not its invariants
    g = len(orders)
    rel = unimodular(rng, g) @ IntMat.diag(orders) @ unimodular(rng, g)
    return FPModule(ring, g, rel)


def past_the_repeat(m):
    # the least degree above 4 that ext and tor answer at a lower degree
    return next(d for d in range(5, 9) if resolve._repeat_degree(m, d) < d)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(8), Zmod(12)])
def test_ext_tor_equal_the_full_complex_formula(ring):
    rng = random.Random(f"ext-tor:{ring}")
    pairs = [(make_module(ring, IntMat.diag([2, 4])), make_module(ring, IntMat.diag([2, 0])))]
    pairs += [(random_module(rng, ring), random_module(rng, ring)) for _ in range(3)]
    pairs += [(untrimmed_module(rng, ring, 4), random_module(rng, ring)) for _ in range(3)]
    if ring.modulus in LARGE_TORSION:
        pairs += [(large_module(rng, ring, g), large_module(rng, ring, g))
                  for g in (6, 7, 8)]
    # N with repeated summands, free ones among them, presented diagonally
    # and scrambled; the zero N; a free N
    torsion = [d for d in (2, 3, 4, 6) if ring.modulus is None
               or (ring.modulus % d == 0 and d < ring.modulus)]
    orders = [d for d in torsion for _ in range(2)] + [0, 0]
    scrambled = scrambled_module(rng, ring, orders)
    assert scrambled.rel != IntMat.diag(orders)
    assert iso_test(scrambled, make_module(ring, IntMat.diag(orders)))
    sums = [make_module(ring, IntMat.diag(orders)), scrambled, zero_module(ring),
            free_module(ring, 2)]
    firsts = [make_module(ring, IntMat.diag([2, 4])), untrimmed_module(rng, ring, 4),
              scrambled_module(rng, ring, [torsion[-1], 0])]
    pairs += [(m, n) for m in firsts for n in sums]
    for m, n in pairs:
        for i in (*range(5), past_the_repeat(m)):
            got = ext(m, n, i), tor(m, n, i)
            assert got == _ext_tor_from_the_full_complexes(m, n, i)
            assert got == _ext_tor_of_the_whole_power_complex(m, n, i)


def test_ext_and_tor_power_one_generator_at_a_time(monkeypatch):
    # the complexes of powers are those of N's cyclic summands, not of N
    powered = []
    real = resolve._power_map
    monkeypatch.setattr(resolve, "_power_map",
                        lambda x, mat: powered.append(x.gens) or real(x, mat))
    rng = random.Random("one-generator")
    for ring in (ZZ, Zmod(12)):
        m = make_module(ring, IntMat.diag([2, 4]))
        n = scrambled_module(rng, ring, [2, 6, 6, 0])
        for i in range(4):
            ext(m, n, i)
            tor(m, n, i)
    assert powered and set(powered) == {1}


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(8), Zmod(12)])
def test_syzygy_equals_the_resolution_syzygy(ring):
    rng = random.Random(f"syzygy:{ring}")
    modules = [make_module(ring, IntMat.diag([2, 4])), free_module(ring, 2),
               zero_module(ring)]
    modules += [random_module(rng, ring) for _ in range(3)]
    modules += [untrimmed_module(rng, ring, 4) for _ in range(3)]
    for m in modules:
        for k in range(5):
            assert syzygy(m, k) == proj_resolution(m, k).covers[k].target


@pytest.mark.parametrize("rings", [(ZZ, Zmod(8)), (Zmod(4), Zmod(8))])
def test_ext_and_tor_reject_modules_over_different_rings(rings):
    # the kernel chain is taken over M's ring and the powers of N over N's,
    # so a mixed pair would otherwise get an answer over neither
    a = make_module(rings[0], IntMat.diag([2]))
    b = make_module(rings[1], IntMat.diag([4, 2]))
    for m, n in ((a, b), (b, a)):
        for i in range(3):
            with pytest.raises(DimensionMismatch, match="hom across different rings"):
                ext(m, n, i)
            with pytest.raises(DimensionMismatch, match="tensor across different rings"):
                tor(m, n, i)


@pytest.mark.parametrize("ring, orders", [
    (Zmod(4), [2]), (Zmod(8), [2]), (Zmod(8), [2, 4]), (Zmod(12), [2, 3, 4, 6])])
def test_cosyzygies_past_the_first_repeat_answer_at_the_equal_lower_degree(
        monkeypatch, ring, orders):
    # Sigma^k = D Omega^k D, so the cosyzygies repeat with the kernel chain
    # of DM
    m = make_module(ring, IntMat.diag(orders))
    degrees = range(1, 9)
    assert any(resolve._repeat_degree(dual(m), k) < k for k in degrees)
    reduced = [cosyzygy(m, k) for k in degrees]
    monkeypatch.setattr(resolve, "_first_equal", lambda x, step, i: i)
    direct = [cosyzygy(m, k) for k in degrees]
    assert reduced == direct


def test_huge_cosyzygy_degrees_cost_a_few_cokernels():
    z2 = cyclic(Zmod(8), 2)  # Z/2, Z/4, Z/2, ...: period 2
    assert [invs(cosyzygy(z2, k)) for k in range(4)] == [((2,), 0), ((4,), 0)] * 2
    assert cosyzygy(z2, 10**8 + 1) == cosyzygy(z2, 1)
    m8 = make_module(Zmod(8), IntMat.diag([2, 4]))
    assert cosyzygy(m8, 10**8 + 1) == cosyzygy(m8, 1)
