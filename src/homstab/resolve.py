"""Resolutions, syzygy operators, and derived functors Ext/Tor.

Projective resolutions exist over both base rings and use one generator per
module generator (free covers, no minimalization); with normalized
presentations the differential matrices are just the iterated ring kernels of
the presentation, so over Z every resolution has length <= 1.

Injective resolutions exist over Z/n only (the ring is quasi-Frobenius, so
finite free modules are injective); the container of M is the double-dual
embedding M = M** into the dual of a free cover of M*.  Over Z the injective
hull of a finitely generated module is not finitely presented, so
injective-side constructions raise UnsupportedRing.

Ext and Tor always resolve their first argument projectively.  An independent
classification-based oracle over Z cross-checks them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import NotAComplex, UnsupportedRing, WrongShape
from .exactlin import IntMat, kernel_basis
from .fpmod import (
    FPModule, Morphism, SubquotientRealization, canonical_invariants,
    cokernel_realization, free_module, hom_module, hom_pull, identity_morphism,
    kernel, kernel_generators, make_module, make_morphism, subquotient,
    tensor_module, tensor_mor,
)


def _require_nonnegative(n: int, what: str) -> None:
    if n < 0:
        raise WrongShape(f"{what} start at 0, got {n}")


# ---------------------------------------------------------------------------
# projective resolutions


@dataclass(frozen=True, eq=False)
class ProjResolution:
    """... -> F_2 -> F_1 -> F_0 ->> base with stored epi-mono factorizations.

    diffs[k-1] : F_k -> F_{k-1} factors as includes[k-1] . covers[k],
    covers[0] is the augmentation F_0 ->> base, syzygies[k] = Omega^k(base).
    """

    direction = "projective"

    base: FPModule
    terms: tuple[FPModule, ...]
    diffs: tuple[Morphism, ...]
    syzygies: tuple[FPModule, ...]
    covers: tuple[Morphism, ...]
    includes: tuple[Morphism, ...]

    @property
    def depth(self) -> int:
        return len(self.terms) - 1

    @property
    def differentials(self) -> tuple[Morphism, ...]:
        return self.diffs

    @property
    def augmentation(self) -> Morphism:
        return self.covers[0]


@lru_cache(maxsize=2048)
def proj_resolution(m: FPModule, depth: int) -> ProjResolution:
    _require_nonnegative(depth, "resolution depths")
    ring = m.ring
    f0 = free_module(ring, m.gens)
    terms = [f0]
    covers = [make_morphism(f0, m, IntMat.identity(m.gens).mod(ring))]
    syzygies = [m]
    includes: list[Morphism] = []
    diffs: list[Morphism] = []
    p = m.rel
    for _ in range(depth):
        prev = terms[-1]
        sq = subquotient(prev, p)
        syzygies.append(sq.module)
        includes.append(make_morphism(sq.module, prev, sq.decode_matrix()))
        nxt = free_module(ring, p.cols)
        terms.append(nxt)
        covers.append(make_morphism(nxt, sq.module, sq.fwd))
        diffs.append(make_morphism(nxt, prev, p))
        p = kernel_basis(p, ring)
    return ProjResolution(m, tuple(terms), tuple(diffs), tuple(syzygies),
                          tuple(covers), tuple(includes))


def syzygy(m: FPModule, k: int) -> FPModule:
    """Omega^k via iterated kernel-of-free-cover; Omega^0 is the module."""
    _require_nonnegative(k, "syzygy orders")
    if k == 0:
        return m
    return proj_resolution(m, k).syzygies[k]


# ---------------------------------------------------------------------------
# injective containers and resolutions (quasi-Frobenius side)


@lru_cache(maxsize=4096)
def injective_container(m: FPModule) -> Morphism:
    """Deterministic embedding of M into a free (= injective) Z/n-module,
    via M = M** into the dual of a free cover of M*."""
    if not m.ring.quasi_frobenius:
        raise UnsupportedRing(
            "injective containers of f.g. Z-modules are not finitely presented")
    star = hom_module(m, free_module(m.ring, 1))
    container = free_module(m.ring, star.module.gens)
    # row k is the k-th generator functional of M*
    emb = make_morphism(m, container, star.ambient_decode_matrix().transpose())
    # the double-dual embedding is injective precisely because Z/n is
    # self-injective; verify rather than trust
    if not kernel(emb)[0].is_zero():
        raise UnsupportedRing("double-dual embedding failed to be injective")
    return emb


@dataclass(frozen=True, eq=False)
class InjResolution:
    """base ↪ I^0 -> I^1 -> ... with stored epi-mono factorizations.

    diffs[k] : I^k -> I^{k+1} factors as embeds[k+1] . projs[k],
    embeds[0] is the augmentation base ↪ I^0, cosyzygies[k] = Sigma^k(base).
    """

    direction = "injective"

    base: FPModule
    terms: tuple[FPModule, ...]
    diffs: tuple[Morphism, ...]
    cosyzygies: tuple[FPModule, ...]
    embeds: tuple[Morphism, ...]
    projs: tuple[Morphism, ...]
    sections: tuple[IntMat, ...]  # coordinate sections of the projs

    @property
    def depth(self) -> int:
        return len(self.terms) - 1

    @property
    def differentials(self) -> tuple[Morphism, ...]:
        return self.diffs

    @property
    def augmentation(self) -> Morphism:
        return self.embeds[0]


@lru_cache(maxsize=2048)
def inj_resolution(m: FPModule, depth: int) -> InjResolution:
    _require_nonnegative(depth, "resolution depths")
    emb = injective_container(m)
    terms = [emb.target]
    embeds = [emb]
    cosyzygies = [m]
    projs: list[Morphism] = []
    sections: list[IntMat] = []
    diffs: list[Morphism] = []
    for _ in range(depth):
        c = cokernel_realization(embeds[-1])
        projs.append(c.project)
        sections.append(c.lift)
        cosyzygies.append(c.module)
        nxt = injective_container(c.module)
        embeds.append(nxt)
        terms.append(nxt.target)
        diffs.append(nxt.compose(c.project))
    return InjResolution(m, tuple(terms), tuple(diffs), tuple(cosyzygies),
                         tuple(embeds), tuple(projs), tuple(sections))


def cosyzygy(m: FPModule, k: int) -> FPModule:
    """Sigma^k via iterated cokernel-of-container; Sigma^0 is the module."""
    _require_nonnegative(k, "cosyzygy orders")
    if k == 0:
        return m
    return inj_resolution(m, k).cosyzygies[k]


# ---------------------------------------------------------------------------
# homology of a composable pair


def homology_at(f: Morphism, g: Morphism) -> SubquotientRealization:
    """ker g / im f at the middle object of A -f-> B -g-> C."""
    if f.target != g.source:
        raise NotAComplex("maps are not composable")
    if not g.compose(f).is_zero():
        raise NotAComplex("composite is nonzero")
    return subquotient(f.target, kernel_generators(g), f.mat)


# ---------------------------------------------------------------------------
# Ext and Tor via projective resolution of the first argument


def _hom_complex(m: FPModule, n: FPModule, depth: int):
    pr = proj_resolution(m, depth)
    homs = [hom_module(t, n) for t in pr.terms]
    maps = [hom_pull(homs[k - 1], homs[k], pr.diffs[k - 1])
            for k in range(1, len(pr.terms))]
    return homs, maps




def ext(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Ext^i(M, N), homology of Hom(proj. resolution of M, N)."""
    _require_nonnegative(i, "Ext and Tor degrees")
    homs, maps = _hom_complex(m, n, i + 1)
    if i == 0:
        return kernel(maps[0])[0]
    return homology_at(maps[i - 1], maps[i]).module


def tor(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Tor_i(M, N), homology of (proj. resolution of M) tensor N."""
    _require_nonnegative(i, "Ext and Tor degrees")
    pr = proj_resolution(m, i + 1)
    tens = [tensor_module(t, n) for t in pr.terms]
    idn = identity_morphism(n)
    maps = [tensor_mor(pr.diffs[k - 1], idn) for k in range(1, len(pr.terms))]
    if i == 0:
        return cokernel_realization(maps[0]).module
    return homology_at(maps[i], maps[i - 1]).module


def ext_tor_oracle_Z(m: FPModule, n: FPModule, i: int, which: str) -> FPModule:
    """Classification-based Ext/Tor over Z; independent of the resolution path.

    Uses only invariant factors and the cyclic-module tables
    Hom(Z/a, Z/b) = Z/gcd, Ext^1(Z/a, B) = B/aB, Tor_1(Z/a, B) = B[a].
    """
    if m.ring.modulus is not None or n.ring.modulus is not None:
        raise UnsupportedRing("the classification oracle is Z-only")
    da, fa = canonical_invariants(m)
    db, fb = canonical_invariants(n)
    torsion: list[int] = []
    free = 0
    if which == "ext":
        if i == 0:
            torsion += [gcd(a, b) for a in da for b in db]
            torsion += [b for b in db for _ in range(fa)]
            free = fa * fb
        elif i == 1:
            torsion += [gcd(a, b) for a in da for b in db]
            torsion += [a for a in da for _ in range(fb)]
    elif which == "tor":
        if i == 0:
            torsion += [gcd(a, b) for a in da for b in db]
            torsion += [b for b in db for _ in range(fa)]
            torsion += [a for a in da for _ in range(fb)]
            free = fa * fb
        elif i == 1:
            torsion += [gcd(a, b) for a in da for b in db]
    else:
        raise ValueError("which must be 'ext' or 'tor'")
    torsion = [t for t in torsion if t > 1]
    rel = IntMat.diag(torsion, rows=len(torsion) + free, cols=len(torsion))
    return make_module(m.ring, rel, gens=len(torsion) + free)


# ---------------------------------------------------------------------------
# resolution verification (used by tests and reports)


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
    if not kernel(res.augmentation)[0].is_zero():
        return False
    for k in range(1, len(res.terms) - 1):
        if not homology_at(res.diffs[k - 1], res.diffs[k]).module.is_zero():
            return False
    if res.diffs:
        if not homology_at(res.augmentation, res.diffs[0]).module.is_zero():
            return False
    return True
