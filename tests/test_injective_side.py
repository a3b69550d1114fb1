"""The injective side, built as D of the projective side of DM, against the
construction it replaced: double-dual containers iterated on cokernels, and
Sigma on maps by extending along those containers."""

import random

import pytest

from homstab import funcalc
from homstab.errors import UnsupportedRing, WrongShape
from homstab.exactlin import IntMat, Zmod
from homstab.fpmod import (
    Own, cokernel_realization, free_module, hom_module,
    identity_morphism, induced, is_identity, kernel_realization, make_module,
    make_morphism, morphisms_equal,
)
from homstab.funcalc import (
    Derived, HomContra, HomCov, TensorLeft, sigma_shift_mor,
)
from homstab.fundseq import contra_fund, right_fund_cov
from homstab.instances import random_module, random_morphism
from homstab.resolve import (
    InjResolution, cosyzygy, inj_resolution, injective_container,
)

from solved_maps import extend_along

RINGS = [Zmod(n) for n in (4, 8, 9, 12, 16, 36)]


# ---------------------------------------------------------------------------
# the reference: the injective construction the dual one replaced


def ref_injective_container(m):
    """M = M** into the dual of a free cover of M*."""
    if not m.ring.quasi_frobenius:
        raise UnsupportedRing(
            "injective containers of f.g. Z-modules are not finitely presented")
    star = hom_module(m, free_module(m.ring, 1))
    container = free_module(m.ring, star.module.gens)
    emb = make_morphism(m, container, star.decode.transpose())
    if not kernel_realization(emb).module.is_zero():
        raise UnsupportedRing("double-dual embedding failed to be injective")
    return emb


def ref_inj_resolution(m, depth):
    """A container of M, then one of each cokernel in turn."""
    embeds = [ref_injective_container(m)]
    projs, diffs = [], []
    for _ in range(depth):
        c = cokernel_realization(embeds[-1])
        proj = induced(Own(embeds[-1].target), c)
        nxt = ref_injective_container(c.module)
        projs.append(proj)
        embeds.append(nxt)
        diffs.append(nxt.compose(proj))
    return InjResolution(tuple(diffs), tuple(embeds), tuple(projs))


def ref_cosyzygy(m, k):
    for _ in range(k):
        m = cokernel_realization(ref_injective_container(m)).module
    return m


def ref_sigma_shift_mor(phi, k):
    """Sigma^k(phi): the map that an extension h of e_y . phi along e_x
    induces on the cokernels of the containers e."""
    for _ in range(k):
        if is_identity(phi):
            phi = identity_morphism(ref_cosyzygy(phi.source, 1))
            continue
        ex = ref_injective_container(phi.source)
        ey = ref_injective_container(phi.target)
        h = extend_along(ey.compose(phi), ex)
        if h is None:
            raise WrongShape("map does not extend along the given mono")
        phi = induced(cokernel_realization(ex), cokernel_realization(ey), h.mat)
    return phi


def ref_injective_chain_map(phi, depth):
    """phi lifted to the injective resolutions of its ends by extending
    along their embeddings, one square at a time."""
    rx, ry = inj_resolution(phi.source, depth), inj_resolution(phi.target, depth)
    hs = [extend_along(ry.augmentation.compose(phi), rx.augmentation)]
    for dx, dy in zip(rx.diffs[:depth - 1], ry.diffs):  # h_k . dx = dy . h_k-1
        hs.append(extend_along(dy.compose(hs[-1]), dx))
    return hs


# ---------------------------------------------------------------------------
# inputs: sums of cyclic modules reach the modules where a change of node
# coordinates shows, which random presentations rarely do


def _sum_of_cyclics(rng, ring, most=3):
    divisors = [d for d in range(2, ring.modulus) if ring.modulus % d == 0]
    orders = [rng.choice(divisors) for _ in range(rng.randint(1, most))]
    return make_module(ring, IntMat.diag(orders))


def _draw(rng, ring):
    if rng.random() < 0.5:
        return _sum_of_cyclics(rng, ring)
    return random_module(rng, ring, 3, 3, 6, allow_zero=False)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_resolution_agrees_with_the_iterated_containers(ring):
    rng = random.Random(ring.modulus)
    for _ in range(8):
        m = _draw(rng, ring)
        new, ref = inj_resolution(m, 4), ref_inj_resolution(m, 4)
        assert new.terms == ref.terms
        for k in range(5):
            assert new.embeds[k].source == ref.embeds[k].source
            assert cosyzygy(m, k) == ref_cosyzygy(m, k)
        assert morphisms_equal(new.augmentation, ref.augmentation)
        assert morphisms_equal(injective_container(m), ref.augmentation)


def _rows(a, b):
    return [right_fund_cov(HomCov(a), b, 2), right_fund_cov(TensorLeft(a), b, 2),
            contra_fund(HomContra(a), b, 2, "left")]


def _verdicts(reports):
    return [([n.module for n in rep.nodes], rep.exact_at, rep.composite_zero)
            for rep in reports]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_rows_agree_with_the_iterated_containers(monkeypatch, ring):
    rng = random.Random(100 + ring.modulus)
    pairs = [(_draw(rng, ring), _draw(rng, ring)) for _ in range(4)]
    new = [_verdicts(_rows(a, b)) for a, b in pairs]
    monkeypatch.setattr(funcalc, "inj_resolution", ref_inj_resolution)
    monkeypatch.setattr(funcalc, "sigma_shift_mor", ref_sigma_shift_mor)
    ref = [_verdicts(_rows(a, b)) for a, b in pairs]
    assert new == ref
    assert any(not m.is_zero() for rows in new for mods, _, _ in rows
               for m in mods)


def _square_commutes_mod_injectives(sigma, phi, rx, ry):
    """Sigma(phi) . p_x = p_y . h, for an extension h of e_y . phi along
    e_x, up to a map that factors through an injective: another h moves
    the right side by such a map."""
    ex, ey, px, py = rx.embeds[0], ry.embeds[0], rx.projs[0], ry.projs[0]
    h = extend_along(ey.compose(phi), ex)
    t = extend_along(sigma.compose(px) - py.compose(h), px)
    return t is not None and extend_along(
        t, injective_container(px.target)) is not None


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_sigma_shift_agrees_with_the_extension_along_containers(ring):
    rng = random.Random(200 + ring.modulus)
    for _ in range(6):
        x, y = _draw(rng, ring), _draw(rng, ring)
        phi = random_morphism(rng, x, y)
        for build, shift in ((inj_resolution, sigma_shift_mor),
                             (ref_inj_resolution, ref_sigma_shift_mor)):
            assert _square_commutes_mod_injectives(
                shift(phi, 1), phi, build(x, 1), build(y, 1))
        new, ref = sigma_shift_mor(phi, 2), ref_sigma_shift_mor(phi, 2)
        assert (new.source, new.target) == (ref.source, ref.target)
    assert morphisms_equal(sigma_shift_mor(identity_morphism(x), 2),
                           identity_morphism(cosyzygy(x, 2)))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_derived_maps_agree_with_the_extension_along_the_resolutions(
        monkeypatch, ring):
    # any two lifts of phi to the resolutions are homotopic, so D of the
    # projective lift of D(phi) and the extension give one map on the
    # derived nodes of the injective side
    rng = random.Random(300 + ring.modulus)
    cases = []
    for _ in range(3):
        a, x, y = _draw(rng, ring), _draw(rng, ring), _draw(rng, ring)
        phi = random_morphism(rng, x, y)
        for f, side in ((HomCov(a), "right"), (TensorLeft(a), "right"),
                        (HomContra(a), "left")):
            cases += [(Derived(f, i, side), phi) for i in range(3)]
    new = [d.eval_mor(phi) for d, phi in cases]
    chain_map = funcalc._chain_map
    monkeypatch.setattr(
        funcalc, "_chain_map", lambda phi, depth, injective:
        ref_injective_chain_map(phi, depth) if injective
        else chain_map(phi, depth, injective))
    ref = [d.eval_mor(phi) for d, phi in cases]
    assert all(morphisms_equal(g, r) for g, r in zip(new, ref))
    assert any(not g.is_zero() for g in new)
