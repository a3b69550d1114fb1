"""Character duality over Z/n, stable Hom groups, and the stabilization
adjunctions that recover the Auslander-Reiten formula.

The dualizing module is the ring itself: Z/n is self-injective, so
D = Hom(-, Z/n) is exact on finite modules and involutive, and duality turns
the projective ambiguity of the transpose into an injective ambiguity that
Hom-modulo-injectives neutralizes.
"""

from __future__ import annotations

from .errors import UnsupportedRing
from .fpmod import (
    FPModule, Morphism, cokernel_realization, dual, dual_mor, free_module,
    hom_module, hom_pull, hom_push, iso_test, tensor_module, transpose,
)
from .funcalc import (
    HomCov, TensorLeft, auslander_four_term, free_cover, quot_stabilize,
    sub_stabilize,
)
from .resolve import ext, injective_container
from .seqreport import SequenceNode, SequenceReport


def matlis_dual(m: FPModule) -> FPModule:
    """D(M) = Hom(M, Z/n); exact and involutive on finite Z/n-modules."""
    if not m.ring.quasi_frobenius:
        raise UnsupportedRing("character duality needs the self-injective Z/n")
    return dual(m)


def matlis_dual_mor(f: Morphism) -> Morphism:
    """D on morphisms (contravariant)."""
    if not f.source.ring.quasi_frobenius:
        raise UnsupportedRing("character duality needs the self-injective Z/n")
    return dual_mor(f)


def stable_hom(a: FPModule, b: FPModule, mod: str) -> FPModule:
    """Hom(A, B) modulo maps through projectives (cokernel of Hom(A, P) ->
    Hom(A, B) for a projective cover P ->> B) or modulo maps through
    injectives (cokernel of Hom(I, B) -> Hom(A, B) along A into I)."""
    if mod == "projectives":
        return cokernel_realization(hom_push(a, free_cover(b))).module
    if mod == "injectives":
        if not a.ring.quasi_frobenius:
            raise UnsupportedRing("Hom modulo injectives needs containers")
        return cokernel_realization(
            hom_pull(injective_container(a), b)).module
    raise ValueError("mod must be 'projectives' or 'injectives'")


def ar_formula_check(a: FPModule, b: FPModule) -> dict:
    """D Ext^1(A, B) = Hom-mod-injectives(B, D Tr A); a theorem for finitely
    presented A, so a false verdict is a bug."""
    if not a.ring.quasi_frobenius:
        raise UnsupportedRing("the AR formula check runs over Z/n")
    lhs = matlis_dual(ext(a, b, 1))
    rhs = stable_hom(b, matlis_dual(transpose(a)), "injectives")
    return {"verdict": iso_test(lhs, rhs), "lhs": lhs, "rhs": rhs}


def stab_adjunction_check(a: FPModule, b: FPModule, side: str,
                          q_rank: int = 1) -> dict:
    """Object-level checks of the two stabilization adjunctions.

    right (QF only):  D((A(x)-)-bar (B)) = Hom-mod-inj(B, D(A))
    left (any ring):  Hom(Q, (A,-)-under (B)) = Hom-mod-proj(Q(x)A, B)
    """
    if side == "right":
        if not a.ring.quasi_frobenius:
            raise UnsupportedRing("the right adjunction check runs over Z/n")
        bar, _ = sub_stabilize(TensorLeft(a), b)
        lhs = matlis_dual(bar)
        rhs = stable_hom(b, matlis_dual(a), "injectives")
        return {"verdict": iso_test(lhs, rhs), "lhs": lhs, "rhs": rhs}
    if side == "left":
        q = free_module(a.ring, q_rank)
        under, _ = quot_stabilize(HomCov(a), b)
        lhs = hom_module(q, under).module
        rhs = stable_hom(tensor_module(q, a).module, b, "projectives")
        return {"verdict": iso_test(lhs, rhs), "lhs": lhs, "rhs": rhs}
    raise ValueError("side must be 'right' or 'left'")


def bidual_check(a: FPModule) -> SequenceReport:
    """0 -> Ext^1(TrA, R) -> A -> A** -> Ext^2(TrA, R) -> 0 with the
    evaluation map in the middle, verified exact."""
    rep = auslander_four_term(a, free_module(a.ring, 1), "tensor")
    relabel = {"Ext^1(TrA, X)": "Ext^1(TrA, R)", "A(x)X": "A",
               "(A*, X)": "A**", "Ext^2(TrA, X)": "Ext^2(TrA, R)"}
    rep.nodes = [SequenceNode(relabel.get(node.label, node.label), node.module,
                              node.kind)
                 for node in rep.nodes]
    rep.metadata["display"] = "bidual"
    return rep
