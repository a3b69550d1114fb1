"""Finitely presented modules: constructions and canonical invariants."""

import importlib
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import homstab
from homstab import exactlin, fpmod
from homstab.errors import MembershipError, NotWellDefined
from homstab.exactlin import IntMat, ZZ, Zmod, invariant_divisors
from homstab.fpmod import (
    Own, Within, canonical_invariants, cokernel, cokernel_realization, cyclic,
    direct_sum, direct_sum_morphism, dual, epi_mono_factor, evaluation_map,
    free_module, hom_module, hom_push,
    identity_morphism, image, in_span, induced, is_identity, iso_test, kernel,
    kernel_generators, make_module, make_morphism, morphisms_equal,
    stably_iso_test, tensor_module, tensor_mor, transpose, zero_module,
    is_projective_module, kernel_realization, present_with_iso,
    stable_invariants, subquotient,
)
from homstab.instances import random_module, random_morphism
from homstab.resolve import homology_at

from solved_maps import extend_along, factor_through

RINGS = [ZZ, Zmod(2), Zmod(4), Zmod(5), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]
Z2 = cyclic(ZZ, 2)
Z3 = cyclic(ZZ, 3)
Z = free_module(ZZ, 1)
R4 = Zmod(4)
Z2_mod4 = cyclic(R4, 2)
Z4_mod4 = free_module(R4, 1)


def invs(m):
    return canonical_invariants(m)


# per-prime reference for the gcd rules of fpmod, which never factor n


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _prime_components(d, n):
    """(p, v_p(d)) for the primes p of n that divide d."""
    return [(p, _vp(d, p)) for p in _prime_factors(n) if d % p == 0]


def _stable_parts_per_prime(m):
    """The prime-power components of m over Z/n that are not the full
    p-part of n, sorted."""
    divs, free = canonical_invariants(m)
    n = m.ring.modulus
    return sorted(p ** v for d in list(divs) + [n] * free
                  for p, v in _prime_components(d, n) if v < _vp(n, p))


def test_make_module_normalizes():
    assert invs(make_module(ZZ, [[2]])) == ((2,), 0)
    assert invs(make_module(ZZ, [[2, 0], [0, 3]])) == ((6,), 0)
    assert invs(make_module(ZZ, [[1, 0], [0, 5]])) == ((5,), 0)
    assert invs(zero_module(ZZ)) == ((), 0)
    assert invs(free_module(ZZ, 3)) == ((), 3)
    # normalization is idempotent: re-presenting the stored matrix is a no-op
    m = make_module(ZZ, [[4, 6], [2, 8]])
    assert make_module(ZZ, m.rel) == m


def test_make_morphism_witness():
    with pytest.raises(NotWellDefined):
        make_morphism(Z2_mod4, Z4_mod4, [[1]])
    f = make_morphism(Z2_mod4, Z4_mod4, [[2]])
    assert in_span(Z4_mod4.rel, (f.mat @ Z2_mod4.rel).mod(R4), R4)
    # the generator of order 2 (order 6 over Z/12) may only go to an
    # element it annihilates, over Z and over Z/n
    for src, tgt, good, bad in [
            (Z2, Z, [[0]], [[1]]),
            (Z2, cyclic(ZZ, 4), [[2]], [[1]]),
            (cyclic(Zmod(12), 6), cyclic(Zmod(12), 4), [[2]], [[1]]),
            (make_module(R4, [[2], [0]]), Z4_mod4, [[2, 1]], [[1, 1]])]:
        make_morphism(src, tgt, good)
        with pytest.raises(NotWellDefined):
            make_morphism(src, tgt, bad)


def test_kernel_cokernel_spec_examples():
    two = make_morphism(Z, Z, [[2]])
    k, incl = kernel(two)
    assert k.is_zero()
    c, proj = cokernel(two)
    assert invs(c) == ((2,), 0)
    double = make_morphism(Z4_mod4, Z4_mod4, [[2]])
    k4, incl4 = kernel(double)
    assert invs(k4) == ((2,), 0)
    # generated by the class of 2
    assert incl4.mat.mod(R4) == IntMat.from_rows([[2]])


def test_kernel_universal_property():
    f = make_morphism(Z4_mod4, Z4_mod4, [[2]])
    k, incl = kernel(f)
    assert f.compose(incl).is_zero()


def test_epi_mono_factor():
    two = make_morphism(Z, Z, [[2]])
    e, m = epi_mono_factor(two)
    assert morphisms_equal(m.compose(e), two)
    assert cokernel(e)[0].is_zero()
    assert kernel(m)[0].is_zero()
    assert invs(e.target) == ((), 1)

    double4 = make_morphism(Z4_mod4, Z4_mod4, [[2]])
    assert invs(image(double4)) == ((2,), 0)

    z = make_morphism(Z2, Z3, [[0]])
    assert image(z).is_zero()


def test_iso_and_stable_iso():
    assert iso_test(direct_sum([Z2, Z3]).module, cyclic(ZZ, 6))
    assert not iso_test(cyclic(ZZ, 4), direct_sum([Z2, Z2]).module)
    # Z/4 is projective over Z/4, so it is deleted stably
    a = direct_sum([Z2_mod4, Z4_mod4]).module
    assert stably_iso_test(a, Z2_mod4)
    assert not iso_test(a, Z2_mod4)
    # over Z stable equivalence deletes free rank
    assert stably_iso_test(direct_sum([Z2, Z]).module, Z2)


def test_projectivity_over_zmods():
    assert is_projective_module(Z4_mod4)
    assert not is_projective_module(Z2_mod4)
    # Z/2 is a unitary factor of Z/6, hence projective over Z/6
    assert is_projective_module(cyclic(Zmod(6), 2))


def test_projectivity_gcd_rule_matches_per_prime_rule():
    # over Z/n, Z/d (d | n) is projective iff for each prime p | d the
    # p-part of d is the p-part of n; the gcd rule needs no factoring
    for n in range(2, 201):
        ring = Zmod(n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            per_prime = all(v == _vp(n, p) for p, v in _prime_components(d, n))
            assert is_projective_module(cyclic(ring, d)) == per_prime, (n, d)


def test_stable_invariants_gcd_rule_matches_per_prime_rule():
    # the stable parts are the invariant factors of the per-prime
    # components, so both rules decide stable isomorphism alike
    rng = random.Random(12)
    for n in range(2, 201):
        ring = Zmod(n)
        mods = [random_module(rng, ring, 4, 3, n) for _ in range(12)]
        ref = [_stable_parts_per_prime(m) for m in mods]
        for m, parts in zip(mods, ref):
            assert stable_invariants(m) == \
                invariant_divisors(IntMat.diag(parts), ZZ)[0], (n, m)
        for i, (a, pa) in enumerate(zip(mods, ref)):
            for b, pb in zip(mods[i:], ref[i:]):
                assert stably_iso_test(a, b) == (pa == pb), (n, a, b)


def test_stable_invariants_on_a_large_composite_modulus():
    # two primes near 10^9: trial division of n would not end in time
    code = (
        "from homstab.exactlin import Zmod\n"
        "from homstab.fpmod import cyclic, stable_invariants\n"
        "p, q = 1000000007, 998244353\n"
        "print(stable_invariants(cyclic(Zmod(p * q), p)))\n"
        "print(stable_invariants(cyclic(Zmod(p * p * q), p)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["()", "(1000000007,)"]


def _clear_homstab_caches():
    for info in pkgutil.iter_modules(homstab.__path__):
        mod = importlib.import_module(f"homstab.{info.name}")
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_cached_constructions_share_equal_inputs():
    ring = Zmod(12)
    rows = [[4, 2], [0, 6]]
    sub, den = [[1, 0], [0, 2]], [[4, 0], [0, 0]]
    amb, amb2 = free_module(ring, 2), free_module(Zmod(12), 2)
    first = present_with_iso(ring, 2, IntMat.from_rows(rows))
    assert present_with_iso(Zmod(12), 2, IntMat.from_rows(rows)) == first
    sq = subquotient(amb, IntMat.from_rows(sub), IntMat.from_rows(den))
    again = subquotient(amb2, IntMat.from_rows(sub), IntMat.from_rows(den))
    assert again is sq  # one realization, shared
    _clear_homstab_caches()
    cold = subquotient(amb2, IntMat.from_rows(sub), IntMat.from_rows(den))
    assert cold is not sq
    assert (cold.module, cold.fwd, cold.bwd, cold.decode) == \
        (sq.module, sq.fwd, sq.bwd, sq.decode)


def test_cache_key_holds_the_ring():
    # 4 is 0 over Z/4 and a relation of order 2 over Z/8
    rel = IntMat.from_rows([[4]])
    m4, _, _ = present_with_iso(Zmod(4), 1, rel)
    m8, _, _ = present_with_iso(Zmod(8), 1, rel)
    assert (m4.ring, m4.rel) == (Zmod(4), IntMat.zeros(1, 0))
    assert (m8.ring, m8.rel) == (Zmod(8), IntMat.from_rows([[4]]))


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(12)])
@pytest.mark.parametrize("present_first", [True, False])
def test_membership_reads_the_trimmed_presentation(monkeypatch, ring, present_first):
    # B is in span(A) iff B is zero in coker(A): in_span and
    # present_with_iso share one elimination of A, in either order
    a = IntMat.from_rows([[2, 4], [6, 3], [0, 0]])
    b = IntMat.from_rows([[2, 1], [0, 1], [5, 0]])
    _clear_homstab_caches()
    calls = []
    real = exactlin._snf_integer

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(exactlin, "_snf_integer", counting)
    if present_first:
        present_with_iso(ring, a.rows, a)
        assert len(calls) == 1
        member = in_span(a, b, ring)
    else:
        member = in_span(a, b, ring)
        assert len(calls) == 1
        present_with_iso(ring, a.rows, a)
    assert len(calls) == 1
    assert member == (exactlin.solve_matrix(a, b, ring) is not None)


def test_kernel_generators_file_one_reduced_matrix():
    # -rel is negated mod n, so [f.mat | -rel] is reduced and the SNF cache
    # keeps no second, unreduced key for it
    ring = Zmod(8)
    f = make_morphism(cyclic(ring, 2), cyclic(ring, 4), [[2]])
    _clear_homstab_caches()
    k = kernel_generators(f)
    assert exactlin._snf_cached.cache_info().currsize == 1
    assert not any(x % 2 for x in k.data[0])  # f is injective


def test_verdicts_are_not_cached():
    # exceptions are never cached: a bad denominator and a bad generator
    # matrix raise on every call
    amb = free_module(R4, 1)
    sub, den = IntMat.from_rows([[2]]), IntMat.from_rows([[1]])
    for _ in range(2):
        with pytest.raises(MembershipError):
            subquotient(amb, sub, den)
        with pytest.raises(NotWellDefined):
            make_morphism(Z2_mod4, Z4_mod4, [[1]])


CACHE_RINGS = (ZZ, R4, Zmod(8), Zmod(12))


def _constructions(ring):
    """Matrices of a fixed set of Hom, kernel, homology and cokernel
    constructions over ``ring``; every ring starts from the same raw
    presentations."""
    a = make_module(ring, [[4, 2], [0, 6]])
    b = make_module(ring, [[4, 0], [0, 0]])
    h = hom_module(a, b)
    f = h.morphism(IntMat.column([1] * h.module.gens).mod(ring))
    kr, cr = kernel_realization(f), cokernel_realization(f)
    include, project = kernel(f)[1], cokernel(f)[1]
    hom2 = homology_at(f.scale(2), project)
    out = [(r.module.ring, r.module.rel, r.decode) for r in (h, kr, cr, hom2)]
    return out + [f.mat, include.mat, project.mat, induced(hom2, hom2).mat]


def test_constructions_cold_and_warm_agree():
    # cold: every lru_cache in homstab cleared before each ring; warm: the
    # rings one after another on shared caches, twice
    cold = []
    for ring in CACHE_RINGS:
        _clear_homstab_caches()
        cold.append(_constructions(ring))
    _clear_homstab_caches()
    for _ in range(2):
        assert [_constructions(ring) for ring in CACHE_RINGS] == cold


def test_hom_module_spec_examples():
    z2z4 = hom_module(cyclic(ZZ, 2), cyclic(ZZ, 4))
    assert invs(z2z4.module) == ((2,), 0)
    f = z2z4.morphism(IntMat.column([1]))
    assert f.mat == IntMat.from_rows([[2]])  # the only nonzero map sends x to 2x

    m = make_module(ZZ, [[12, 0], [0, 0]])
    assert iso_test(hom_module(Z, m).module, m)

    assert hom_module(Z2, Z3).module.is_zero()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_hom_decode_additive(a, b):
    h = hom_module(cyclic(ZZ, 4), make_module(ZZ, [[8, 0], [0, 2]]))
    if h.module.gens == 0:
        return
    va = IntMat.column([a] * h.module.gens)
    vb = IntMat.column([b] * h.module.gens)
    lhs = h.morphism((va + vb).mod(ZZ))
    rhs = h.morphism(va) + h.morphism(vb)
    assert morphisms_equal(lhs, rhs)


def test_hom_encode_decode_roundtrip():
    h = hom_module(Z2_mod4, Z4_mod4)
    for k in range(h.module.gens):
        col = IntMat.column([int(i == k) for i in range(h.module.gens)])
        assert morphisms_equal(h.morphism(h.coords(h.morphism(col))),
                               h.morphism(col))


def test_tensor_module_spec_examples():
    assert tensor_module(Z2, Z3).module.is_zero()
    m = make_module(ZZ, [[6, 0], [0, 0]])
    assert iso_test(tensor_module(Z, m).module, m)
    assert invs(tensor_module(cyclic(ZZ, 2), cyclic(ZZ, 4)).module) == ((2,), 0)


def test_tensor_functorial():
    f = make_morphism(Z, Z, [[3]])
    g = make_morphism(Z2, Z2, [[1]])
    t = tensor_mor(f, g)
    tid = tensor_mor(identity_morphism(Z), identity_morphism(Z2))
    assert morphisms_equal(t.compose(t), tensor_mor(f.compose(f), g.compose(g)))
    assert morphisms_equal(tid, identity_morphism(tensor_module(Z, Z2).module))


def test_dual_and_transpose():
    assert dual(Z2).is_zero()                      # no maps Z/2 -> Z
    assert invs(dual(Z2_mod4)) == ((2,), 0)        # x -> 2x spans
    assert invs(transpose(Z2)) == ((2,), 0)
    assert transpose(free_module(ZZ, 2)).is_zero()
    assert invs(transpose(Z2_mod4)) == ((2,), 0)


def test_evaluation_map():
    ev = evaluation_map(free_module(ZZ, 2))
    assert kernel(ev)[0].is_zero()
    assert cokernel(ev)[0].is_zero()
    # kernel of evaluation is the torsion part over Z
    m = direct_sum([Z2, Z]).module
    k, _ = kernel(evaluation_map(m))
    assert invs(k) == ((2,), 0)


def test_coker_of_kernel_is_image():
    f = make_morphism(make_module(R4, [[2]]), free_module(R4, 1), [[2]])
    k, incl = kernel(f)
    c, _ = cokernel(incl)
    assert iso_test(c, image(f))


def test_direct_sum_morphism():
    f = make_morphism(Z2, Z2, [[1]])
    g = make_morphism(Z, Z, [[2]])
    s = direct_sum_morphism([f, g])
    assert invs(cokernel(s)[0]) == ((2,), 0)
    assert invs(kernel(s)[0]) == ((), 0)


def test_kernel_encode():
    f = make_morphism(Z4_mod4, Z4_mod4, [[2]])
    coords = kernel_realization(f).encode(IntMat.column([2]))
    assert (kernel(f)[1].mat @ coords - IntMat.column([2])).mod(R4).is_zero()


def test_hom_push_pull_match_per_generator_composition():
    # reference: decode each generator of the source Hom module, compose,
    # encode; the vectorized transport must give the same matrix exactly
    import random
    from homstab.fpmod import hom_pull, hom_push
    from homstab.instances import random_module, random_morphism

    def basis(n, k):
        return IntMat.column([int(i == k) for i in range(n)])

    rng = random.Random(29)
    for ring in (ZZ, R4, Zmod(12)):
        for _ in range(6):
            a, x, y = (random_module(rng, ring, 3, 3, 6) for _ in range(3))
            phi = random_morphism(rng, x, y)
            h_ax, h_ay = hom_module(a, x), hom_module(a, y)
            push = hom_push(a, phi)
            for k in range(h_ax.module.gens):
                g = h_ax.morphism(basis(h_ax.module.gens, k))
                assert push.mat.col(k) == h_ay.coords(phi.compose(g))
            h_ya, h_xa = hom_module(y, a), hom_module(x, a)
            pull = hom_pull(phi, a)
            for k in range(h_ya.module.gens):
                g = h_ya.morphism(basis(h_ya.module.gens, k))
                assert pull.mat.col(k) == h_xa.coords(g.compose(phi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(RINGS), st.integers(2, 3))
def test_realization_decode_encode_contract(seed, ring, d):
    # every realization: encode undoes decode, so the map it induces on
    # itself is the identity; the kernel's inclusion is induced by its decode
    # and the cokernel's projection by its encode
    import random
    rng = random.Random(seed)
    a, b = (random_module(rng, ring, 3, 3, 6) for _ in range(2))
    f = random_morphism(rng, a, b)
    kr, cr = kernel_realization(f), cokernel_realization(f)
    # homology with a denominator: im f / im(d f) inside b
    homology = homology_at(f.scale(d), cokernel(f)[1])
    # a coprime torsion pair trims a generator of the tensor presentation, so
    # its decode and encode differ (over Z, Z/6 and Z/12)
    trimmed = tensor_module(direct_sum([a, cyclic(ring, 2)]).module,
                            direct_sum([b, cyclic(ring, 3)]).module)
    # a cokernel inside Hom(a, b), realized in vec(G) coordinates
    within = Within(hom_module(a, b), cokernel_realization(
        hom_push(a, f)))
    for r in (kr, cr, homology, hom_module(a, b), tensor_module(a, b),
              trimmed, Own(a), within):
        assert is_identity(induced(r, r))
    assert morphisms_equal(induced(kr, Own(f.source)), kernel(f)[1])
    assert morphisms_equal(induced(Own(f.target), cr), cokernel(f)[1])


def test_realizations_build_no_maps(monkeypatch):
    # a kernel or cokernel realization carries no inclusion or projection:
    # constructing one calls make_morphism zero times, and kernel(f) and
    # cokernel(f) build exactly their one map each
    import homstab.fpmod as fpmod
    calls = []

    def counting(*args):
        calls.append(args)
        return make_morphism(*args)

    rng = random.Random(14)
    for ring in (ZZ, R4, Zmod(12)):
        for _ in range(5):
            a, b = (random_module(rng, ring, 3, 3, 6) for _ in range(2))
            f = random_morphism(rng, a, b)
            monkeypatch.setattr(fpmod, "make_morphism", counting)
            kernel_realization(f), cokernel_realization(f)
            assert calls == []
            kernel(f), cokernel(f)
            assert len(calls) == 2
            monkeypatch.undo()
            calls.clear()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(RINGS))
def test_factor_through_and_extend_along_solve_their_equations(seed, ring):
    # a returned h solves m . h = g (factor_through) or h . m = g
    # (extend_along); when g is built from a solution, one is returned
    import random
    rng = random.Random(seed)
    x, s, t, y = (random_module(rng, ring, 3, 3, 6) for _ in range(4))
    m = random_morphism(rng, s, t)

    def shifted(g):
        # the same morphism on another generator matrix, so the equation
        # holds only modulo the target's relations
        rel = g.target.rel
        noise = IntMat(rel.cols, g.source.gens, tuple(
            tuple(rng.randint(-3, 3) for _ in range(g.source.gens))
            for _ in range(rel.cols)))
        return make_morphism(g.source, g.target, g.mat + rel @ noise)

    for g, solvable in ((random_morphism(rng, x, t), False),
                        (shifted(m.compose(random_morphism(rng, x, s))), True)):
        h = factor_through(g, m)
        assert h is not None or not solvable
        if h is not None:
            assert morphisms_equal(m.compose(h), g)
    for g, solvable in ((random_morphism(rng, s, y), False),
                        (shifted(random_morphism(rng, t, y).compose(m)), True)):
        h = extend_along(g, m)
        assert h is not None or not solvable
        if h is not None:
            assert morphisms_equal(h.compose(m), g)


def test_solver_forms_return_none_without_a_solution():
    # 2: Z/2 -> Z/4 over Z/4 and 2: Z -> Z over Z have no retraction and no
    # section
    for m in (make_morphism(Z2_mod4, Z4_mod4, [[2]]),
              make_morphism(Z, Z, [[2]])):
        assert extend_along(identity_morphism(m.source), m) is None
        assert factor_through(identity_morphism(m.target), m) is None
        assert is_identity(factor_through(m, m))  # m is mono


def test_one_zero_module_per_ring():
    # free_module(ring, 0) and every presentation with no generators left
    # return one shared zero module, so comparing two is an identity test
    _clear_homstab_caches()
    for ring in (ZZ, Zmod(4), Zmod(12)):
        zero = zero_module(ring)
        assert free_module(ring, 0) is zero
        assert make_module(ring, IntMat.identity(2)) is zero
        assert present_with_iso(ring, 1, IntMat.from_rows([[1]]))[0] is zero
        assert zero == homstab.FPModule(ring, 0, IntMat.zeros(0, 0))
    assert zero_module(ZZ) != zero_module(Zmod(4))
    assert callable(zero_module.cache_clear)  # cleared with the other caches


def test_trimmed_presentations_share_their_rows(monkeypatch):
    # the modules a caller keeps share the rows ((i, d),) of their trimmed
    # presentations, across cache clears and rings; the relations are
    # diag(torsion) as before, and the table stops growing at its bound
    ring = Zmod(12)
    scrambled = IntMat.from_rows([[2, 6, 0], [0, 4, 0], [1, 3, 0]])
    first = make_module(ring, scrambled)
    _clear_homstab_caches()
    again = make_module(ring, scrambled)
    assert again == first and again.rel is not first.rel
    assert all(a is b for a, b in zip(again.rel.nz, first.rel.nz))
    assert make_module(ZZ, IntMat.diag([4, 0])).rel.nz[0] is first.rel.nz[0]
    assert first.rel == IntMat.diag([4], rows=2, cols=1)  # Z/4 + Z/12
    monkeypatch.setattr(fpmod, "_SHARED_ROWS", {})
    monkeypatch.setattr(fpmod, "_SHARED_ROWS_MAX", 3)
    big = make_module(ZZ, IntMat.diag([2, 4, 8, 16, 32]))
    assert big.rel == IntMat.diag([2, 4, 8, 16, 32])
    assert len(fpmod._SHARED_ROWS) == 3
