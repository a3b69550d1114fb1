"""Builders and verifiers for the circular sequence and the four fundamental
sequences, plus splitting tests and the hereditary decomposition.

Each builder threads a single resolution of the argument through every row:
all stabilization, satellite, and derived nodes of one report are computed
from the same stored epi-mono factorizations, so the connecting maps are
honest matrices and every exactness verdict is decided by exact submodule
comparison.  Verdict layout, per the structure theorems: the sequences are
complexes everywhere, exact away from the derived-functor nodes, and exact
everywhere when the functor is half-exact.

There is one row builder for both sides.  It reads funcalc's thread (F
applied along the resolution that ``funcalc._injective_side`` picks for the
functor's variance and the side) and joins its nodes with ``fpmod.induced``.
"""

from __future__ import annotations

from .errors import NotExact, UnsupportedRing
from .exactlin import IntMat, solve_matrix
from .fpmod import (
    FPModule, Morphism, Own, cokernel_realization, direct_sum, free_module,
    hom_module, hom_pull, identity_morphism, induced, iso_test,
    kernel_realization, zero_morphism,
)
from .funcalc import (
    COVARIANT, FunctorExpr, _Thread, defect, rho as rho_component,
    sub_stabilize_fp,
)
from .resolve import _require_nonnegative
from .seqreport import (
    SequenceNode, SequenceReport, build_report, exactness_check, is_exact_at,
)

__all__ = [
    "SequenceNode", "SequenceReport", "build_report", "exactness_check",
    "is_exact_at", "circular_sequence", "right_fund_cov", "left_fund_cov",
    "contra_fund", "splitting_test", "hereditary_decomposition",
    "HereditaryDecomposition",
]


# ---------------------------------------------------------------------------
# the circular sequence


def circular_sequence(f: Morphism, g: Morphism) -> SequenceReport:
    """Six-term kernel-cokernel sequence of a composable pair; exactness at
    every node is a theorem, so this doubles as an internal self-test."""
    gf = g.compose(f)
    kf, kgf, kg = (kernel_realization(h) for h in (f, gf, g))
    cf, cgf, cg = (cokernel_realization(h) for h in (f, gf, g))
    zero = free_module(f.source.ring, 0)
    maps = [
        zero_morphism(zero, kf.module),
        induced(kf, kgf),
        induced(kgf, kg, f.mat),
        induced(kg, cf),
        induced(cf, cgf, g.mat),
        induced(cgf, cg),
        zero_morphism(cg.module, zero),
    ]
    nodes = [("0", zero), ("ker f", kf.module), ("ker gf", kgf.module),
             ("ker g", kg.module), ("cok f", cf.module),
             ("cok gf", cgf.module), ("cok g", cg.module), ("0", zero)]
    return build_report(nodes, maps, {"display": "circular"})


# ---------------------------------------------------------------------------
# fundamental sequences


def _row(f: FunctorExpr, b: FPModule, depth: int, side: str) -> SequenceReport:
    """The fundamental sequence of one side, cut from one thread.

    right: 0 -> F-bar(b) -> F(b) -> R0 -> F-bar(shift b) -> S^1 -> R1 -> ...
    left:  ... -> L1 -> S_1 -> F-under(shift b) -> L0 -> F(b) -> F-under(b) -> 0

    Both run through the chain stab b -> F(b) -A_0-> D0 -C_0-> stab 1 -id->
    sat 1 -A_1-> D1 -> ... -> stab depth+1 (D the derived nodes), the left
    row with every link reversed, read from the other end, and led by one
    more satellite.  The first link, the inclusion of F-bar(b) or the
    projection onto F-under(b), is induced like every other.
    """
    t = _Thread(f, side, b, depth + 1, f"the {side} fundamental sequence")
    right = side == "right"
    shift, script = ("S", "^") if t.injective else ("O", "_")
    stab, sat, der = ("Fbar", "S^", f"R{script}") if right \
        else ("Funder", "S_", f"L{script}")
    # (label, kind, node, applied arrow from the node before; None: identity)
    chain = [(f"{stab}(b)", "stab", t.stab(0), None),
             ("F(b)", "plain", Own(f.eval_obj(b)), None)]
    for i in range(depth + 1):
        if i:
            chain.append((f"{sat}{i}F(b)", "satellite", t.sat(i), None))
        chain.append((f"{der}{i}F(b)", "derived", t.der(i),
                      t.applied("a", i).mat))
        chain.append((f"{stab}({shift}^{i + 1}b)", "stab", t.stab(i + 1),
                      t.applied("c", i).mat))
    if not right:
        chain.append((f"{sat}{depth + 1}F(b)", "satellite", t.sat(depth + 1), None))
    steps = [(src, tgt, arrow)
             for (_, _, src, _), (_, _, tgt, arrow) in zip(chain, chain[1:])]
    body = [(label, node.module, kind) for label, kind, node, _ in chain]
    zero, base = free_module(b.ring, 0), body[0][1]
    if right:
        nodes = [("0", zero, "zero")] + body
        maps = [zero_morphism(zero, base)]
        maps += [induced(src, tgt, arrow) for src, tgt, arrow in steps]
    else:
        nodes = body[::-1] + [("0", zero, "zero")]
        maps = [induced(tgt, src, arrow) for src, tgt, arrow in reversed(steps)]
        maps += [zero_morphism(base, zero)]
    variance = "co" if f.variance == COVARIANT else "contra"
    display = f"{'rfs' if right else 'lfs'}-{variance}-fun"
    return build_report(nodes, maps, {
        "display": display, "depth": depth, "half_exact": f.half_exact})


def right_fund_cov(f: FunctorExpr, b: FPModule, depth: int) -> SequenceReport:
    """Right fundamental sequence of a covariant functor at b.

    Quasi-Frobenius rings get the full rows
    0 -> F-bar(b) -> F(b) -> R^0F(b) -> F-bar(Sigma b) -> S^1F(b) -> R^1F(b)
    -> ... ; over a hereditary ring a finitely presented F gets the row-0
    fragment 0 -> F-bar(b) -> F(b) -> (w(F), b) instead.
    """
    _require_nonnegative(depth, "sequence depths")
    if f.variance != COVARIANT:
        raise UnsupportedRing("use contra_fund for contravariant functors")
    if not b.ring.quasi_frobenius:
        if f.fp_presentation() is None:
            raise UnsupportedRing(
                "the right fundamental sequence needs injective resolutions "
                f"over {b.ring} (or a finitely presented functor)")
        return _right_fund_fp_fragment(f, b)
    return _row(f, b, depth, "right")


def _right_fund_fp_fragment(f: FunctorExpr, b: FPModule) -> SequenceReport:
    bar, include = sub_stabilize_fp(f, b)
    r = rho_component(f, b)
    zero = free_module(b.ring, 0)
    nodes = [("0", zero, "zero"), ("Fbar(b)", bar, "stab"),
             ("F(b)", f.eval_obj(b), "plain"),
             ("(w(F), b)", r.target, "derived")]
    maps = [zero_morphism(zero, bar), include, r]
    return build_report(nodes, maps, {
        "display": "rfs-co-fun", "depth": 0, "half_exact": f.half_exact,
        "truncated": "hereditary row 0"})


def left_fund_cov(f: FunctorExpr, b: FPModule, depth: int) -> SequenceReport:
    """Left fundamental sequence of a covariant functor at b:
    ... -> L_1F(b) -> S_1F(b) -> F-under(Omega b) -> L_0F(b) -> F(b)
    -> F-under(b) -> 0, built over either ring."""
    _require_nonnegative(depth, "sequence depths")
    if f.variance != COVARIANT:
        raise UnsupportedRing("use contra_fund for contravariant functors")
    return _row(f, b, depth, "left")


def contra_fund(f: FunctorExpr, b: FPModule, depth: int, side: str) -> SequenceReport:
    """Fundamental sequences of a contravariant functor: the right one runs
    along a projective resolution (any ring), the left one along an injective
    resolution (quasi-Frobenius only)."""
    _require_nonnegative(depth, "sequence depths")
    if f.variance == COVARIANT:
        raise UnsupportedRing("contra_fund expects a contravariant functor")
    if side == "right":
        return _row(f, b, depth, "right")
    if side != "left":
        raise UnsupportedRing("side must be 'right' or 'left'")
    if not b.ring.quasi_frobenius:
        raise UnsupportedRing(
            f"the left contravariant sequence needs injectives over {b.ring}")
    return _row(f, b, depth, "left")


# ---------------------------------------------------------------------------
# splitting and the hereditary decomposition


def splitting_test(report: SequenceReport) -> tuple[bool, Morphism | None]:
    """Decide whether a verified short exact sequence 0 -> A -> B -> C -> 0
    splits, and return a retraction r with r . i = id_A when it does.

    r exists iff [id_A] lies in the image of Hom(i, A): Hom(B, A) ->
    Hom(A, A), so one ``solve_matrix`` against that map's matrix and the
    relations of Hom(A, A) decides it, and its solution's first coordinates
    are r as an element of Hom(B, A)."""
    interior = [n for n in report.nodes if n.kind != "zero"]
    if len(interior) != 3 or not report.exact_everywhere():
        raise NotExact("splitting_test needs a verified short exact sequence")
    start = next(i for i, n in enumerate(report.nodes) if n.kind != "zero")
    include = report.maps[start]
    a, b = include.source, include.target
    ends = hom_module(a, a)
    pull = hom_pull(include, a)
    sol = solve_matrix(pull.mat.hstack(ends.module.rel),
                       ends.coords(identity_morphism(a)), a.ring)
    if sol is None:
        return False, None
    k = pull.source.gens
    return True, hom_module(b, a).morphism(IntMat(k, 1, None, sol.nz[:k]))


def short_exact(a_to_b: Morphism, b_to_c: Morphism, label="ses") -> SequenceReport:
    """Package 0 -> A -> B -> C -> 0 with verdicts."""
    zero = free_module(a_to_b.source.ring, 0)
    nodes = [("0", zero, "zero"), ("A", a_to_b.source, "plain"),
             ("B", a_to_b.target, "plain"), ("C", b_to_c.target, "plain"),
             ("0", zero, "zero")]
    maps = [zero_morphism(zero, a_to_b.source), a_to_b, b_to_c,
            zero_morphism(b_to_c.target, zero)]
    return build_report(nodes, maps, {"display": label})


class HereditaryDecomposition:
    """Per-sample verification that a half-exact finitely presented functor
    over a hereditary ring splits as F-bar + (w(F), -)."""

    __slots__ = ("w", "samples")

    def __init__(self, w: FPModule, samples: list):
        self.w = w
        self.samples = samples  # (X, SequenceReport, split_ok, retraction, sum_iso_ok)

    def all_ok(self) -> bool:
        return all(rep.exact_everywhere() and split and iso
                   for _, rep, split, _, iso in self.samples)


def hereditary_decomposition(f: FunctorExpr, sample_objects) -> HereditaryDecomposition:
    """Verify F = F-bar + (w(F), -) on samples; the caller asserts F is
    half-exact (not decidable from finitely many evaluations)."""
    pres = f.fp_presentation()
    if pres is None or pres.source.ring.quasi_frobenius:
        raise UnsupportedRing(
            "hereditary decomposition needs a finitely presented functor "
            "over the integers")
    w = defect(f)
    out = []
    for x in sample_objects:
        bar, include = sub_stabilize_fp(f, x)
        r = rho_component(f, x)
        rep = short_exact(include, r, label="hereditary-row0")
        split, retraction = (False, None)
        if rep.exact_everywhere():
            split, retraction = splitting_test(rep)
        summed = direct_sum([bar, hom_module(w, x).module]).module
        out.append((x, rep, split, retraction, iso_test(f.eval_obj(x), summed)))
    return HereditaryDecomposition(w, out)
