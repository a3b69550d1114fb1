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

The projective resolution repeats.  Its differentials are p_0 = the
presentation of M and p_k = kernel_basis(p_{k-1}), and d_k is fixed by
p_{k-1}.  So once p_k equals an earlier p_j, p_{k+r} = p_{j+r} for every r,
and the chain has period k - j from index j on.  Ext^i and Tor_i read d_i
and d_{i+1}, and Omega^i reads d_i, so each is fixed by p_{i-1}: at a
degree i past the first repeat, ``ext``, ``tor`` and ``syzygy`` answer at
the equal lower degree, which gives the same module.  Over Z a kernel
basis has independent columns, so the chain is the 0 x 0 matrix from index
3 on (from 2 on for a presentation ``make_module`` normalized), and over
Z/n it repeats early (p_3 = p_1 for Z/2 + Z/4 over Z/8), so a huge degree
costs a few kernels.  ``ext`` and ``tor`` build the two maps of the complex
they read, Hom(d_i, N) and Hom(d_{i+1}, N) or d_{i+1} (x) N and d_i (x) N,
and no other.

The injective side repeats by the same rule.  Sigma^{k+1} is the cokernel
of the container of Sigma^k, a trimmed module fixed by Sigma^k, so once
Sigma^k equals an earlier Sigma^j the cosyzygies have period k - j from
index j on, and ``cosyzygy`` at a degree past the first repeat answers at
the equal lower degree (Z/2 over Z/8 gives Z/2, Z/4, Z/2, ...).  One walk,
``_first_equal``, finds the first repeat of either chain.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import NotAComplex, UnsupportedRing, WrongShape
from .exactlin import IntMat, kernel_basis
from .fpmod import (
    FPModule, Morphism, Own, SubquotientRealization, canonical_invariants,
    cokernel_realization, epi_mono_factor, free_module, hom_module, hom_pull,
    identity_morphism, induced, kernel_generators, kernel_realization,
    make_module, make_morphism, subquotient, tensor_mor,
)


def _require_nonnegative(n: int, what: str) -> None:
    if n < 0:
        raise WrongShape(f"{what} start at 0, got {n}")


# ---------------------------------------------------------------------------
# projective resolutions


class ProjResolution:
    """... -> F_2 -> F_1 -> F_0 ->> base with stored epi-mono factorizations.

    diffs[k-1] : F_k -> F_{k-1} factors as includes[k-1] . covers[k],
    covers[0] is the augmentation F_0 ->> base, syzygies[k] = Omega^k(base).
    """

    __slots__ = ("base", "terms", "diffs", "syzygies", "covers", "includes")

    def __init__(self, base: FPModule, terms: tuple[FPModule, ...],
                 diffs: tuple[Morphism, ...], syzygies: tuple[FPModule, ...],
                 covers: tuple[Morphism, ...], includes: tuple[Morphism, ...]):
        self.base = base
        self.terms = terms
        self.diffs = diffs
        self.syzygies = syzygies
        self.covers = covers
        self.includes = includes

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
        d = make_morphism(free_module(ring, p.cols), terms[-1], p)
        cover, include = epi_mono_factor(d)
        terms.append(d.source)
        diffs.append(d)
        syzygies.append(cover.target)
        covers.append(cover)
        includes.append(include)
        p = kernel_basis(p, ring)
    return ProjResolution(m, tuple(terms), tuple(diffs), tuple(syzygies),
                          tuple(covers), tuple(includes))


def _first_equal(x, step, i: int) -> int:
    """The least j with x_j = x_i in the chain x_0 = x, x_{k+1} = step(x_k),
    found by walking the chain to its first repeat or to index i."""
    seen = {}
    k = 0
    while (j := seen.setdefault(x, k)) == k:
        if k == i:
            return i
        x = step(x)
        k += 1
    return j + (i - j) % (k - j)  # x_k = x_j: period k - j from index j on


def _repeat_degree(m: FPModule, i: int) -> int:
    """A degree i' <= i with p_{i'-1} = p_{i-1}, where p_0 = m.rel and
    p_k = kernel_basis(p_{k-1}): the matrices that fix Ext^i, Tor_i and
    Omega^i.  It is i itself unless the chain repeats by index i - 1."""
    if not i:
        return 0
    return 1 + _first_equal(m.rel, lambda p: kernel_basis(p, m.ring), i - 1)


def syzygy(m: FPModule, k: int) -> FPModule:
    """Omega^k via iterated kernel-of-free-cover; Omega^0 is the module."""
    _require_nonnegative(k, "syzygy orders")
    if k == 0:
        return m
    k = _repeat_degree(m, k)
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
    emb = make_morphism(m, container, star.decode.transpose())
    # the double-dual embedding is injective precisely because Z/n is
    # self-injective; verify rather than trust
    if not kernel_realization(emb).module.is_zero():
        raise UnsupportedRing("double-dual embedding failed to be injective")
    return emb


class InjResolution:
    """base ↪ I^0 -> I^1 -> ... with stored epi-mono factorizations.

    diffs[k] : I^k -> I^{k+1} factors as embeds[k+1] . projs[k],
    embeds[0] is the augmentation base ↪ I^0, cosyzygies[k] = Sigma^k(base).
    """

    __slots__ = ("base", "terms", "diffs", "cosyzygies", "embeds", "projs",
                 "sections")

    def __init__(self, base: FPModule, terms: tuple[FPModule, ...],
                 diffs: tuple[Morphism, ...], cosyzygies: tuple[FPModule, ...],
                 embeds: tuple[Morphism, ...], projs: tuple[Morphism, ...],
                 sections: tuple[IntMat, ...]):
        self.base = base
        self.terms = terms
        self.diffs = diffs
        self.cosyzygies = cosyzygies
        self.embeds = embeds
        self.projs = projs
        self.sections = sections  # coordinate sections of the projs

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
        proj = induced(Own(embeds[-1].target), c)
        projs.append(proj)
        sections.append(c.decode)
        cosyzygies.append(c.module)
        nxt = injective_container(c.module)
        embeds.append(nxt)
        terms.append(nxt.target)
        diffs.append(nxt.compose(proj))
    return InjResolution(m, tuple(terms), tuple(diffs), tuple(cosyzygies),
                         tuple(embeds), tuple(projs), tuple(sections))


def _next_cosyzygy(m: FPModule) -> FPModule:
    return cokernel_realization(injective_container(m)).module


def cosyzygy(m: FPModule, k: int) -> FPModule:
    """Sigma^k via iterated cokernel-of-container; Sigma^0 is the module."""
    _require_nonnegative(k, "cosyzygy orders")
    if k == 0:
        return m
    k = _first_equal(m, _next_cosyzygy, k)
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


def ext(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Ext^i(M, N), homology of Hom(proj. resolution of M, N)."""
    _require_nonnegative(i, "Ext and Tor degrees")
    i = _repeat_degree(m, i)
    pr = proj_resolution(m, i + 1)
    # Hom(d_k, N) for k = max(i, 1) .. i + 1
    maps = [hom_pull(d, n) for d in pr.diffs[max(i - 1, 0):]]
    if i == 0:
        return kernel_realization(maps[0]).module
    return homology_at(*maps).module


def tor(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Tor_i(M, N), homology of (proj. resolution of M) tensor N."""
    _require_nonnegative(i, "Ext and Tor degrees")
    i = _repeat_degree(m, i)
    pr = proj_resolution(m, i + 1)
    idn = identity_morphism(n)
    # d_k (x) N for k = max(i, 1) .. i + 1
    maps = [tensor_mor(d, idn) for d in pr.diffs[max(i - 1, 0):]]
    if i == 0:
        return cokernel_realization(maps[0]).module
    return homology_at(maps[1], maps[0]).module


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
