"""Builders and verifiers for the circular sequence and the four fundamental
sequences, plus splitting tests and the hereditary decomposition.

Each builder threads a single resolution of the argument through every row:
all stabilization, satellite, and derived nodes of one report are computed
from the same stored epi-mono factorizations, so the connecting maps are
honest matrices and every exactness verdict is decided by exact submodule
comparison.  Verdict layout, per the structure theorems: the sequences are
complexes everywhere, exact away from the derived-functor nodes, and exact
everywhere when the functor is half-exact.

There is one right-row and one left-row builder.  Which resolution they
thread, and which of its arrows cut out the stabilizations (A) and the
satellites (C), comes from funcalc's threaded-resolution table, the one
place that knows it for each (variance, side) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotExact, UnsupportedRing
from .exactlin import IntMat
from .fpmod import (
    FPModule, Morphism, cokernel_realization, direct_sum, free_module,
    hom_module, iso_test, kernel_realization, make_morphism,
    solve_for_morphism, zero_morphism,
)
from .funcalc import (
    COVARIANT, FunctorExpr, _node_cokernel_flavour, _node_kernel_flavour,
    _threaded, defect, rho as rho_component, sub_stabilize_fp,
)
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
        make_morphism(kf.module, kgf.module, kgf.encode(kf.include.mat)),
        make_morphism(kgf.module, kg.module, kg.encode(f.mat @ kgf.include.mat)),
        make_morphism(kg.module, cf.module, cf.project.mat @ kg.include.mat),
        make_morphism(cf.module, cgf.module, cgf.project.mat @ g.mat @ cf.lift),
        make_morphism(cgf.module, cg.module, cg.project.mat @ cgf.lift),
        zero_morphism(cg.module, zero),
    ]
    nodes = [("0", zero), ("ker f", kf.module), ("ker gf", kgf.module),
             ("ker g", kg.module), ("cok f", cf.module),
             ("cok gf", cgf.module), ("cok g", cg.module), ("0", zero)]
    return build_report(nodes, maps, {"display": "circular"})


# ---------------------------------------------------------------------------
# fundamental sequences


def _applied(f: FunctorExpr, arrows) -> list[Morphism]:
    return [f.eval_mor(a) for a in arrows]


def _display(row: str, f: FunctorExpr) -> str:
    return f"{row}-{'co' if f.variance == COVARIANT else 'contra'}-fun"


def _right_row(f: FunctorExpr, b: FPModule, depth: int) -> SequenceReport:
    """0 -> F-bar(b) -> F(b) -> R0 -> F-bar(shift b) -> S^1 -> R1 -> ... along
    the right thread: stabilizations are kernels of F(A_k), satellites
    cokernels of F(C_k-1), derived nodes the cohomology of F(d)."""
    res, a, c = _threaded(f, "right", b, depth + 1,
                          "the right fundamental sequence")
    shift, script = ("S", "^") if res.direction == "injective" else ("O", "_")
    fd = _applied(f, res.diffs)        # cochain-ordered after applying F
    fa = _applied(f, a)                # F(shift^k b) -> F(term k)
    fc = _applied(f, c)                # F(term k) -> F(shift^k+1 b)
    stab = [kernel_realization(m) for m in fa]
    sat = [None] + [cokernel_realization(fc[i - 1]) for i in range(1, depth + 1)]
    der = [_node_kernel_flavour(fd, i) for i in range(depth + 1)]
    zero = free_module(b.ring, 0)
    fb = f.eval_obj(b)
    nodes = [("0", zero, "zero"),
             ("Fbar(b)", stab[0].module, "stab"),
             ("F(b)", fb, "plain"),
             (f"R{script}0F(b)", der[0].module, "derived")]
    maps = [zero_morphism(zero, stab[0].module),
            stab[0].include,
            make_morphism(fb, der[0].module, der[0].encode(fa[0].mat))]
    for i in range(1, depth + 2):
        above = der[i - 1]
        nodes.append((f"Fbar({shift}^{i}b)", stab[i].module, "stab"))
        maps.append(make_morphism(above.module, stab[i].module,
                                  stab[i].encode(fc[i - 1].mat @ above.decode)))
        if i <= depth:
            nodes += [(f"S^{i}F(b)", sat[i].module, "satellite"),
                      (f"R{script}{i}F(b)", der[i].module, "derived")]
            maps += [make_morphism(stab[i].module, sat[i].module,
                                   sat[i].project.mat @ stab[i].include.mat),
                     make_morphism(sat[i].module, der[i].module,
                                   der[i].encode(fa[i].mat @ sat[i].lift))]
    return build_report(nodes, maps, {
        "display": _display("rfs", f), "depth": depth,
        "half_exact": f.half_exact})


def _left_row(f: FunctorExpr, b: FPModule, depth: int) -> SequenceReport:
    """... -> L1 -> S_1 -> F-under(shift b) -> L0 -> F(b) -> F-under(b) -> 0
    along the left thread: stabilizations are cokernels of F(A_k), satellites
    kernels of F(C_k-1), derived nodes the homology of F(d)."""
    res, a, c = _threaded(f, "left", b, depth + 1,
                          "the left fundamental sequence")
    shift, script = ("S", "^") if res.direction == "injective" else ("O", "_")
    fd = _applied(f, res.diffs)        # chain-ordered after applying F
    fa = _applied(f, a)                # F(term k) -> F(shift^k b)
    fc = _applied(f, c)                # F(shift^k+1 b) -> F(term k)
    qstab = [cokernel_realization(m) for m in fa]
    sat = [None] + [kernel_realization(fc[i - 1]) for i in range(1, depth + 2)]
    der = [_node_cokernel_flavour(fd, i) for i in range(depth + 1)]
    zero = free_module(b.ring, 0)
    fb = f.eval_obj(b)

    nodes, maps = [], []
    for i in range(depth + 1, 0, -1):
        below = der[i - 1]
        nodes += [(f"S_{i}F(b)", sat[i].module, "satellite"),
                  (f"Funder({shift}^{i}b)", qstab[i].module, "stab"),
                  (f"L{script}{i - 1}F(b)", below.module, "derived")]
        maps += [make_morphism(sat[i].module, qstab[i].module,
                               qstab[i].project.mat @ sat[i].include.mat),
                 make_morphism(qstab[i].module, below.module,
                               below.encode(fc[i - 1].mat @ qstab[i].lift))]
        if i > 1:
            maps.append(make_morphism(below.module, sat[i - 1].module,
                                      sat[i - 1].encode(fa[i - 1].mat @ below.decode)))
    lam = make_morphism(der[0].module, fb, fa[0].mat @ der[0].decode)
    nodes += [("F(b)", fb, "plain"), ("Funder(b)", qstab[0].module, "stab"),
              ("0", zero, "zero")]
    maps += [lam, qstab[0].project, zero_morphism(qstab[0].module, zero)]
    return build_report(nodes, maps, {
        "display": _display("lfs", f), "depth": depth,
        "half_exact": f.half_exact})


def right_fund_cov(f: FunctorExpr, b: FPModule, depth: int) -> SequenceReport:
    """Right fundamental sequence of a covariant functor at b.

    Quasi-Frobenius rings get the full rows
    0 -> F-bar(b) -> F(b) -> R^0F(b) -> F-bar(Sigma b) -> S^1F(b) -> R^1F(b)
    -> ... ; over a hereditary ring a finitely presented F gets the row-0
    fragment 0 -> F-bar(b) -> F(b) -> (w(F), b) instead.
    """
    if f.variance != COVARIANT:
        raise UnsupportedRing("use contra_fund for contravariant functors")
    if not b.ring.quasi_frobenius:
        if f.fp_presentation() is None:
            raise UnsupportedRing(
                "the right fundamental sequence needs injective resolutions "
                f"over {b.ring} (or a finitely presented functor)")
        return _right_fund_fp_fragment(f, b)
    return _right_row(f, b, depth)


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
    if f.variance != COVARIANT:
        raise UnsupportedRing("use contra_fund for contravariant functors")
    return _left_row(f, b, depth)


def contra_fund(f: FunctorExpr, b: FPModule, depth: int, side: str) -> SequenceReport:
    """Fundamental sequences of a contravariant functor: the right one runs
    along a projective resolution (any ring), the left one along an injective
    resolution (quasi-Frobenius only)."""
    if f.variance == COVARIANT:
        raise UnsupportedRing("contra_fund expects a contravariant functor")
    if side == "right":
        return _right_row(f, b, depth)
    if side != "left":
        raise UnsupportedRing("side must be 'right' or 'left'")
    if not b.ring.quasi_frobenius:
        raise UnsupportedRing(
            f"the left contravariant sequence needs injectives over {b.ring}")
    return _left_row(f, b, depth)


# ---------------------------------------------------------------------------
# splitting and the hereditary decomposition


def splitting_test(report: SequenceReport) -> tuple[bool, Morphism | None]:
    """Decide whether a verified short exact sequence 0 -> A -> B -> C -> 0
    splits, by solving for a retraction r with r . i = id_A."""
    interior = [n for n in report.nodes if n.kind != "zero"]
    if len(interior) != 3 or not report.exact_everywhere():
        raise NotExact("splitting_test needs a verified short exact sequence")
    start = next(i for i, n in enumerate(report.nodes) if n.kind != "zero")
    include = report.maps[start]
    a, b = include.source, include.target
    r = solve_for_morphism(
        b, a, [(IntMat.identity(a.gens), include.mat,
                IntMat.identity(a.gens).mod(a.ring), a.rel)])
    return (r is not None), r


def short_exact(a_to_b: Morphism, b_to_c: Morphism, label="ses") -> SequenceReport:
    """Package 0 -> A -> B -> C -> 0 with verdicts."""
    zero = free_module(a_to_b.source.ring, 0)
    nodes = [("0", zero, "zero"), ("A", a_to_b.source, "plain"),
             ("B", a_to_b.target, "plain"), ("C", b_to_c.target, "plain"),
             ("0", zero, "zero")]
    maps = [zero_morphism(zero, a_to_b.source), a_to_b, b_to_c,
            zero_morphism(b_to_c.target, zero)]
    return build_report(nodes, maps, {"display": label})


@dataclass(eq=False)
class HereditaryDecomposition:
    """Per-sample verification that a half-exact finitely presented functor
    over a hereditary ring splits as F-bar + (w(F), -)."""

    w: FPModule
    samples: list  # (X, SequenceReport, split_ok, retraction, sum_iso_ok)

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
