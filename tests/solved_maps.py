"""A general Kronecker-system solver, kept for the tests as the reference
that the library's induced maps (cosyzygy shifts, stabilization maps and
comparison-theorem lifts) are compared against.

``factor_through(g, m)`` finds h with m . h = g and ``extend_along(g, m)``
finds h with h . m = g; each returns None when there is no such h.  Both
solve one linear system, the equation modulo the target's relations plus the
well-definedness of h, so they answer for any modules, with no resolution,
realization or Hom module in between.
"""

from __future__ import annotations

from homstab.exactlin import IntMat, solve_matrix
from homstab.fpmod import FPModule, Morphism, _unvec, _vec, make_morphism


def _solve(source: FPModule, target: FPModule, left: IntMat, right: IntMat,
           rhs: IntMat, amb: IntMat) -> Morphism | None:
    """H: source -> target with left @ H @ right = rhs modulo the column span
    of ``amb``, or None.  Well-definedness of H (H @ P_source = P_target @ Y)
    is the second block row of the system."""
    ring = source.ring
    gs, gt = source.gens, target.gens
    srel, trel = source.rel, target.rel
    top = right.transpose().kron(left)
    top = top.hstack(IntMat.identity(right.cols).kron(amb)).hstack(
        IntMat.zeros(top.rows, srel.cols * trel.cols))
    bottom = srel.transpose().kron(IntMat.identity(gt))
    bottom = bottom.hstack(IntMat.zeros(bottom.rows, right.cols * amb.cols)).hstack(
        IntMat.identity(srel.cols).kron(trel))
    sol = solve_matrix(top.vstack(bottom),
                       _vec(rhs).vstack(IntMat.zeros(bottom.rows, 1)), ring)
    if sol is None:
        return None
    h = _unvec(IntMat(gs * gt, 1, None, sol.nz[:gs * gt]), gt, gs)
    return make_morphism(source, target, h)


def factor_through(g: Morphism, m: Morphism) -> Morphism | None:
    """h with m . h = g (g: X -> N through m: M -> N), or None."""
    return _solve(g.source, m.source, m.mat, IntMat.identity(g.source.gens),
                  g.mat, g.target.rel)


def extend_along(g: Morphism, m: Morphism) -> Morphism | None:
    """h with h . m = g (g: M -> Y along m: M -> N), or None."""
    return _solve(m.target, g.target, IntMat.identity(g.target.gens), m.mat,
                  g.mat, g.target.rel)
