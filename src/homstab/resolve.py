"""Resolutions, syzygy operators, and derived functors Ext/Tor.

Projective resolutions exist over both base rings and use one generator per
module generator (free covers, no minimalization); with normalized
presentations the differential matrices are just the iterated ring kernels of
the presentation, so over Z every resolution has length <= 1.

Injective resolutions exist over Z/n only (the ring is quasi-Frobenius, so
finite free modules are injective).  There D = Hom(-, Z/n) is exact and
DD = 1, so the injective resolution of M is D applied to the projective
resolution of DM, its augmentation preceded by the evaluation M -> DDM:
Sigma^k(M) = D Omega^k(DM), and the terms are duals of free modules, hence
free.  Over Z the injective hull of a finitely generated module is not
finitely presented, so injective-side constructions raise UnsupportedRing.

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
costs a few kernels.

``ext``, ``tor`` and ``syzygy`` read that chain, not a ``ProjResolution``.
Hom(R^a, C) and R^a (x) C are both C^a, presented by I_a (x) P_C
(``_power_module``), and a matrix d: R^a -> R^b acts on it as d (x) 1
(``_power_map``): Hom(d, C) is ``_power_map(C, d^T)``, the arrow
``fpmod.pull_arrow`` writes, and d (x) C is ``_power_map(C, d)``.
Ext^i(M, -) and Tor_i(M, -) are additive, so they are taken one cyclic
summand C of N at a time, with C read off ``canonical_invariants(N)``: a
``cyclic`` module per torsion divisor and a free module of rank 1 per free
generator.  For each C, Ext^i is the homology of C^{p_{i-1}.rows} ->
C^{p_{i-1}.cols} -> C^{p_i.cols} along p_{i-1}^T and p_i^T, and Tor_i that
of C^{p_i.cols} -> C^{p_i.rows} -> C^{p_{i-1}.rows} along p_i and p_{i-1};
the answer is the direct sum of the parts.  C has one generator, so C^r has
r generators where N^r has r * N.gens.  Omega^i is the image of p_{i-1} in
R^{p_{i-1}.rows}; no Hom or tensor module of a free module is built.  Each
answer is a trimmed presentation, so it does not depend on how the complex
or N was presented.  ``funcalc.auslander_four_term`` builds its complexes
of powers of X with the same ``_power_map``.

The injective side repeats by the same rule, since it is read off the
kernel chain of DM: ``cosyzygy(m, k)`` is ``dual(syzygy(dual(m), k))``,
and ``syzygy`` answers past the first repeat of that chain at the equal
lower degree (Z/2 over Z/8 gives Z/2, Z/4, Z/2, ...).  So one rule,
``_repeat_degree`` (of M on the projective side, of DM on the injective
side), finds where either side repeats.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DimensionMismatch, NotAComplex, UnsupportedRing, WrongShape
from .exactlin import IntMat, kernel_basis
from .fpmod import (
    FPModule, Morphism, SubquotientRealization, canonical_invariants,
    cokernel_realization, cyclic, dual, dual_mor, epi_mono_factor,
    evaluation_map, free_module, kernel_generators, kernel_realization,
    make_module, make_morphism, subquotient, zero_module,
)


def _require_nonnegative(n: int, what: str) -> None:
    if n < 0:
        raise WrongShape(f"{what} start at 0, got {n}")


# ---------------------------------------------------------------------------
# projective resolutions


class ProjResolution:
    """... -> F_2 -> F_1 -> F_0 ->> M, stored as its arrows.

    diffs[k-1] : F_k -> F_{k-1} factors as includes[k-1] . covers[k], and
    covers[0] is the augmentation F_0 ->> M.  covers[k] ends at Omega^k(M),
    so covers[0].target is M, and covers[k].source is F_k.
    """

    __slots__ = ("diffs", "covers", "includes")

    def __init__(self, diffs: tuple[Morphism, ...],
                 covers: tuple[Morphism, ...], includes: tuple[Morphism, ...]):
        self.diffs = diffs
        self.covers = covers
        self.includes = includes

    @property
    def augmentation(self) -> Morphism:
        return self.covers[0]

    @property
    def terms(self) -> tuple[FPModule, ...]:
        return tuple(c.source for c in self.covers)


@lru_cache(maxsize=2048)
def proj_resolution(m: FPModule, depth: int) -> ProjResolution:
    _require_nonnegative(depth, "resolution depths")
    ring = m.ring
    covers = [make_morphism(free_module(ring, m.gens), m,
                            IntMat.identity(m.gens).mod(ring))]
    includes: list[Morphism] = []
    diffs: list[Morphism] = []
    for p in _kernel_chain(m, depth - 1)[:depth]:
        d = make_morphism(free_module(ring, p.cols), covers[-1].source, p)
        cover, include = epi_mono_factor(d)
        diffs.append(d)
        covers.append(cover)
        includes.append(include)
    return ProjResolution(tuple(diffs), tuple(covers), tuple(includes))


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


def _kernel_chain(m: FPModule, k: int) -> list[IntMat]:
    """p_0 = m.rel, ..., p_k, with p_j = kernel_basis(p_{j-1}); d_j is
    p_{j-1}."""
    chain = [m.rel]
    for _ in range(k):
        chain.append(kernel_basis(chain[-1], m.ring))
    return chain


def syzygy(m: FPModule, k: int) -> FPModule:
    """Omega^k, the image of d_k = p_{k-1}; Omega^0 is the module."""
    _require_nonnegative(k, "syzygy orders")
    if k == 0:
        return m
    p = _kernel_chain(m, _repeat_degree(m, k) - 1)[-1]
    return subquotient(free_module(m.ring, p.rows), p).module


# ---------------------------------------------------------------------------
# injective resolutions (quasi-Frobenius side): D of the projective side of DM


def _require_containers(ring) -> None:
    if not ring.quasi_frobenius:
        raise UnsupportedRing(
            "injective containers of f.g. Z-modules are not finitely presented")


class InjResolution:
    """M ↪ I^0 -> I^1 -> ..., stored as its arrows.

    diffs[k] : I^k -> I^{k+1} factors as embeds[k+1] . projs[k], and
    embeds[0] is the augmentation M ↪ I^0.  embeds[k] starts at Sigma^k(M),
    so embeds[0].source is M, and embeds[k].target is I^k.
    """

    __slots__ = ("diffs", "embeds", "projs")

    def __init__(self, diffs: tuple[Morphism, ...],
                 embeds: tuple[Morphism, ...], projs: tuple[Morphism, ...]):
        self.diffs = diffs
        self.embeds = embeds
        self.projs = projs

    @property
    def augmentation(self) -> Morphism:
        return self.embeds[0]

    @property
    def terms(self) -> tuple[FPModule, ...]:
        return tuple(e.target for e in self.embeds)


@lru_cache(maxsize=2048)
def inj_resolution(m: FPModule, depth: int) -> InjResolution:
    """D of ``proj_resolution(dual(m), depth)``: embeds[k] is D(covers[k]),
    projs[k] is D(includes[k]) and diffs[k] is D(diffs[k]), with embeds[0]
    preceded by the evaluation M -> DDM."""
    _require_nonnegative(depth, "resolution depths")
    _require_containers(m.ring)
    pr = proj_resolution(dual(m), depth)
    embeds = [dual_mor(c) for c in pr.covers]
    embeds[0] = embeds[0].compose(evaluation_map(m))
    # the evaluation is injective precisely because Z/n is self-injective;
    # verify rather than trust
    if not kernel_realization(embeds[0]).module.is_zero():
        raise UnsupportedRing("double-dual embedding failed to be injective")
    return InjResolution(tuple(map(dual_mor, pr.diffs)), tuple(embeds),
                         tuple(map(dual_mor, pr.includes)))


def injective_container(m: FPModule) -> Morphism:
    """Deterministic embedding of M into a free (= injective) Z/n-module:
    the augmentation of its injective resolution."""
    return inj_resolution(m, 0).augmentation


def cosyzygy(m: FPModule, k: int) -> FPModule:
    """Sigma^k = D Omega^k D; Sigma^0 is the module."""
    _require_nonnegative(k, "cosyzygy orders")
    if k == 0:
        return m
    _require_containers(m.ring)
    return dual(syzygy(dual(m), k))


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
# Ext and Tor via the kernel chain of the first argument


def _presented(ring, rel: IntMat) -> FPModule:
    """The module presented by ``rel`` as it stands, untrimmed: the shared
    zero module when ``rel`` has no rows and no columns."""
    if not (rel.rows or rel.cols):
        return zero_module(ring)
    return FPModule(ring, rel.rows, rel)


def _power_module(x: FPModule, k: int) -> FPModule:
    """X^k = R^k (x) X = Hom(R^k, X), presented by I_k (x) P_X."""
    return _presented(x.ring, IntMat.identity(k).kron(x.rel))


def _power_map(x: FPModule, mat: IntMat) -> Morphism:
    """X^{mat.cols} -> X^{mat.rows} along ``mat`` (x) 1."""
    return make_morphism(_power_module(x, mat.cols), _power_module(x, mat.rows),
                         mat.kron(IntMat.identity(x.gens)).mod(x.ring))


def _require_same_ring(m: FPModule, n: FPModule, what: str) -> None:
    if m.ring != n.ring:
        raise DimensionMismatch(f"{what} across different rings")


def _over_cyclic_summands(n: FPModule, mats: list[IntMat],
                          answer) -> FPModule:
    """The direct sum, over N's cyclic summands C, of ``answer`` applied to
    the maps of powers of C along ``mats``: Ext^i(M, -) and Tor_i(M, -) are
    additive.  Each part is a trimmed presentation, and so is the sum."""
    divs, free = canonical_invariants(n)
    ring = n.ring
    summands = [cyclic(ring, d) for d in divs] + [free_module(ring, 1)] * free
    parts = [answer([_power_map(c, mat) for mat in mats]) for c in summands]
    if len(parts) < 2:
        return parts[0] if parts else zero_module(ring)
    return make_module(ring, IntMat.block_diag([p.rel for p in parts]))


def ext(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Ext^i(M, N), summed over N's cyclic summands C: the homology of
    Hom(proj. resolution of M, C)."""
    _require_nonnegative(i, "Ext and Tor degrees")
    _require_same_ring(m, n, "hom")
    i = _repeat_degree(m, i)
    # Hom(d_k, C) is d_k^T (x) 1, for k = max(i, 1) .. i + 1
    mats = [p.transpose() for p in _kernel_chain(m, i)[max(i - 1, 0):]]
    if i == 0:
        return _over_cyclic_summands(
            n, mats, lambda maps: kernel_realization(maps[0]).module)
    return _over_cyclic_summands(
        n, mats, lambda maps: homology_at(*maps).module)


def tor(m: FPModule, n: FPModule, i: int) -> FPModule:
    """Tor_i(M, N), summed over N's cyclic summands C: the homology of
    (proj. resolution of M) tensor C."""
    _require_nonnegative(i, "Ext and Tor degrees")
    _require_same_ring(m, n, "tensor")
    i = _repeat_degree(m, i)
    # d_k (x) C for k = max(i, 1) .. i + 1
    mats = _kernel_chain(m, i)[max(i - 1, 0):]
    if i == 0:
        return _over_cyclic_summands(
            n, mats, lambda maps: cokernel_realization(maps[0]).module)
    return _over_cyclic_summands(
        n, mats, lambda maps: homology_at(maps[1], maps[0]).module)


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
