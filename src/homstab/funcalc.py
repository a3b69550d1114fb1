"""Symbolic, evaluable additive functors and the constructions on them:
stabilizations, satellites, derived functors, defects, the canonical
transformations rho/lambda/beta/alpha, and the four-term sequences relating
tensor and Hom through the transpose.

Expressions evaluate on objects and on morphisms.  Every construction that
resolves its argument (stabilizations, satellites, derived functors,
rho/lambda/beta/alpha, and the fundamental sequences built on them) reads a
thread: F applied once along one resolution of the argument, picked by one
rule (``_injective_side``).  Covariant-right and contravariant-left thread an
injective resolution, which needs a quasi-Frobenius base ring; the other two
thread a projective resolution over either ring.  The injective resolution
of X is D = Hom(-, Z/n) applied to the projective resolution of DX, so both
sides read one kernel chain.  A resolution is stored as
its arrows: the diffs and their epi-mono factors.  A thread cuts
stabilization, satellite and derived nodes out of the applied arrows, and
every connecting map between two nodes is one ``fpmod.induced``: F of a
thread arrow, carried from the source node's coordinates into the target
node's.  rho, lambda, beta and alpha are single induced maps.
``SubStab``, ``QuotStab``, ``Satellite`` and ``Derived``, with the
stabilization at the first (co)syzygy that is beta's target and alpha's
source, are one family (``_Indexed``): each reads its node off the thread
(``_node``), and on a morphism phi it is one induced map too, F of phi lifted
to the threads of phi's ends.  Those lifts are induced too: the syzygy
shift of a morphism is the map phi induces on the images of the two
presentations, and the comparison theorem lifts a map to resolutions one
square at a time, each square between free modules one ``solve_matrix``.
On the injective side each lift is D of the projective lift of D(phi): the
cosyzygy shift is ``dual_mor(omega_shift_mor(dual_mor(phi), k))``.
Finitely presented shapes provide projective-side shortcuts valid over any
ring:

* for F = coker((B,-) --(f,-)--> (A,-)) the right-derived functors are
  Ext^i(w(F), -) with defect w(F) = ker f;
* the sub-stabilization of such an F has the explicit projective resolution
  0 -> (C,-) -> (B,-) -> (Im f,-) -> F-bar -> 0;
* the quot-stabilization of a tensor-copresented F = ker(A(x)- -> B(x)-)
  has the tensor copresentation 0 -> F-under -> (Im f)(x)- -> B(x)-.

``Derived`` and ``SubStab`` take the first two over a ring that is not
quasi-Frobenius, where a covariant F has no right thread.

``half_exact`` is constructor metadata, never inferred (Hom, tensor,
Ext^i(A,-), Tor_i(A,-) are half-exact; FP/TC only if the caller says so).
"""

from __future__ import annotations

from .errors import UnsupportedRing, WrongShape
from .exactlin import kernel_basis, solve_matrix
from .fpmod import (
    CokernelRealization, FPModule, Morphism, Own, SubquotientRealization,
    Within, cokernel_realization, dual_mor, epi_mono_factor, evaluation_map,
    free_module, hom_module, hom_pull, hom_push,
    identity_morphism, induced, is_identity, kernel, kernel_realization,
    make_morphism, pull_arrow, push_arrow, subquotient, tensor_module,
    tensor_mor, zero_morphism,
)
from .resolve import (
    _power_map, _presented, _require_nonnegative, cosyzygy,
    ext as resolve_ext, homology_at, inj_resolution, proj_resolution, syzygy,
)
from .seqreport import SequenceReport, build_report

COVARIANT, CONTRAVARIANT = +1, -1


def _require_qf(ring, what: str):
    if not ring.quasi_frobenius:
        raise UnsupportedRing(f"{what} needs injective containers, "
                              f"unavailable over {ring}")


# ---------------------------------------------------------------------------
# expressions


class FunctorExpr:
    variance = COVARIANT
    half_exact = False

    def eval_obj(self, x: FPModule) -> FPModule:
        raise NotImplementedError

    def eval_mor(self, phi: Morphism) -> Morphism:
        raise NotImplementedError

    def fp_presentation(self) -> Morphism | None:
        """f: A -> B with F = coker((B,-) -> (A,-)), when F has that shape."""
        return None

    def tc_copresentation(self) -> Morphism | None:
        """f: A -> B with F = ker(A(x)- -> B(x)-), when F has that shape."""
        return None


class HomCov(FunctorExpr):
    """(A, -), left-exact."""

    half_exact = True

    def __init__(self, a: FPModule):
        self.a = a

    def eval_obj(self, x):
        return hom_module(self.a, x).module

    def eval_mor(self, phi):
        return hom_push(self.a, phi)

    def fp_presentation(self):
        return zero_morphism(self.a, free_module(self.a.ring, 0))

    def __str__(self):
        return f"({self.a}, -)"


class HomContra(FunctorExpr):
    """(-, B), contravariant left-exact."""

    variance = CONTRAVARIANT
    half_exact = True

    def __init__(self, b: FPModule):
        self.b = b

    def eval_obj(self, x):
        return hom_module(x, self.b).module

    def eval_mor(self, phi):
        return hom_pull(phi, self.b)

    def __str__(self):
        return f"(-, {self.b})"


class TensorLeft(FunctorExpr):
    """A (x) -, right-exact."""

    half_exact = True

    def __init__(self, a: FPModule):
        self.a = a

    def eval_obj(self, x):
        return tensor_module(self.a, x).module

    def eval_mor(self, phi):
        return tensor_mor(identity_morphism(self.a), phi)

    def tc_copresentation(self):
        return zero_morphism(self.a, free_module(self.a.ring, 0))

    def __str__(self):
        return f"{self.a} (x) -"


class FP(FunctorExpr):
    """coker((B,-) --(f,-)--> (A,-)) for f: A -> B (Yoneda presentation)."""

    def __init__(self, f: Morphism, half_exact: bool = False):
        self.f = f
        self.half_exact = half_exact
        self._cache: dict[FPModule, CokernelRealization] = {}

    def _at(self, x: FPModule) -> CokernelRealization:
        """F(X) as the cokernel of (f, X): Hom(B, X) -> Hom(A, X)."""
        got = self._cache.get(x)
        if got is None:
            got = self._cache[x] = cokernel_realization(hom_pull(self.f, x))
        return got

    def eval_obj(self, x):
        return self._at(x).module

    def eval_mor(self, phi):
        # project . hom_push . decode, pushing the decoded elements themselves
        a = self.f.source
        return induced(Within(hom_module(a, phi.source), self._at(phi.source)),
                       Within(hom_module(a, phi.target), self._at(phi.target)),
                       push_arrow(a, phi.mat))

    def fp_presentation(self):
        return self.f

    def __str__(self):
        return f"coker(({self.f.target},-) -> ({self.f.source},-))"


class TC(FunctorExpr):
    """ker(A(x)- --(f(x)-)--> B(x)-) for f: A -> B (tensor copresentation)."""

    def __init__(self, f: Morphism, half_exact: bool = False):
        self.f = f
        self.half_exact = half_exact
        self._cache: dict[FPModule, SubquotientRealization] = {}

    def _at(self, x: FPModule) -> SubquotientRealization:
        """F(X) as the kernel of f (x) X: A(x)X -> B(x)X."""
        got = self._cache.get(x)
        if got is None:
            got = self._cache[x] = kernel_realization(
                tensor_mor(self.f, identity_morphism(x)))
        return got

    def eval_obj(self, x):
        return self._at(x).module

    def eval_mor(self, phi):
        ax_phi = tensor_mor(identity_morphism(self.f.source), phi)
        return induced(self._at(phi.source), self._at(phi.target), ax_phi.mat)

    def tc_copresentation(self):
        return self.f

    def __str__(self):
        return f"ker({self.f.source}(x)- -> {self.f.target}(x)-)"


def ExtFixedFirst(a: FPModule, i: int) -> FunctorExpr:
    """Ext^i(A, -), realized projectively (dimension shift), half-exact."""
    _require_nonnegative(i, "Ext degrees")
    if i == 0:
        return HomCov(a)
    pr = proj_resolution(a, i)
    return FP(pr.includes[i - 1], half_exact=True)


def TorFixedFirst(a: FPModule, i: int) -> FunctorExpr:
    """Tor_i(A, -), realized projectively (dimension shift), half-exact."""
    _require_nonnegative(i, "Tor degrees")
    if i == 0:
        return TensorLeft(a)
    pr = proj_resolution(a, i)
    return TC(pr.includes[i - 1], half_exact=True)


# ---------------------------------------------------------------------------
# syzygy / cosyzygy shifts


def omega_shift_mor(phi: Morphism, k: int) -> Morphism:
    """Omega^k on morphisms; well-defined modulo maps through projectives.

    Each step is the map that the free lift of phi (its own generator
    matrix) induces between Omega X and Omega Y, each the image of its
    module's presentation in the free module on its generators (the
    realization ``syzygy`` and the resolutions read).  The mono into the
    free cover is that image's decode, so the factorization is unique.  An
    identity shifts to the identity itself: another generator matrix of it
    would shift to the identity plus a map through the free cover."""
    for _ in range(k):
        if is_identity(phi):
            phi = identity_morphism(syzygy(phi.source, 1))
            continue
        src, tgt = (subquotient(free_module(m.ring, m.gens), m.rel)
                    for m in (phi.source, phi.target))
        phi = induced(src, tgt, phi.mat)
    return phi


def sigma_shift_mor(phi: Morphism, k: int) -> Morphism:
    """Sigma^k on morphisms, D Omega^k D as the injective side is D of the
    projective side of D(-); well-defined modulo maps through injectives."""
    if not k:
        return phi
    _require_qf(phi.source.ring, "a cosyzygy shift")
    return dual_mor(omega_shift_mor(dual_mor(phi), k))


class _Shift(FunctorExpr):
    """``inner`` precomposed with the k-th (co)syzygy shift."""

    def __init__(self, inner: FunctorExpr, k: int):
        self.inner, self.k = inner, k
        self.variance = inner.variance

    def eval_obj(self, x):
        return self.inner.eval_obj(self._shift_obj(x, self.k))

    def eval_mor(self, phi):
        return self.inner.eval_mor(self._shift_mor(phi, self.k))

    def __str__(self):
        return f"({self.inner}) o {self._name}^{self.k}"


class ShiftOmega(_Shift):
    _name = "Omega"
    _shift_obj = staticmethod(syzygy)
    _shift_mor = staticmethod(omega_shift_mor)


class ShiftSigma(_Shift):
    _name = "Sigma"
    _shift_obj = staticmethod(cosyzygy)
    _shift_mor = staticmethod(sigma_shift_mor)


# ---------------------------------------------------------------------------
# the thread


def _injective_side(f: FunctorExpr, side: str) -> bool:
    """Whether F threads an injective resolution on ``side``: covariant-right
    and contravariant-left do, the other two thread a projective one."""
    if side not in ("right", "left"):
        raise WrongShape("side must be 'right' or 'left'")
    return (f.variance == COVARIANT) == (side == "right")


def _fp_right(f: FunctorExpr, x: FPModule) -> Morphism | None:
    """F's presentation when its right side at x takes the finitely presented
    shortcut (covariant F over a ring without injective containers)."""
    if f.variance == COVARIANT and not x.ring.quasi_frobenius:
        return f.fp_presentation()
    return None


def _ends(f: FunctorExpr, phi: Morphism, at) -> tuple:
    """``at`` evaluated where F(phi) starts and where it ends."""
    if f.variance == COVARIANT:
        return at(phi.source), at(phi.target)
    return at(phi.target), at(phi.source)


class _Thread:
    """F applied along the resolution of x that ``_injective_side`` picks,
    to the given depth; each F(d_k), F(A_k), F(C_k) is computed once.

    A_k joins the k-th (co)syzygy of x with the k-th term (an embed or a
    cover), C_k joins the k-th term with the (k+1)-th (co)syzygy (a proj or
    an include).  Stabilizations are F at A_k, satellites F at C_{k-1},
    derived functors the (co)homology of F applied to the diffs.  Its nodes
    are realizations inside the applied terms.  On the right side
    stabilizations and degree-0 derived nodes are kernels and satellites
    cokernels; the left side swaps them.  The resolution functions are
    looked up at call time, so a wrapper installed over them (the
    benchmark's tracer) is seen here too."""

    def __init__(self, f: FunctorExpr, side: str, x: FPModule, depth: int,
                 what: str):
        self.injective = _injective_side(f, side)
        if self.injective:
            _require_qf(x.ring, what)
            res = inj_resolution(x, depth)
            a, c = res.embeds, res.projs
        else:
            res = proj_resolution(x, depth)
            a, c = res.covers, res.includes
        self.f, self.right = f, side == "right"
        self._arrows = {"a": a, "c": c, "d": res.diffs}
        self._applied: dict[tuple[str, int], Morphism] = {}
        self._sub, self._quot = \
            (kernel_realization, cokernel_realization) if self.right \
            else (cokernel_realization, kernel_realization)

    def applied(self, family: str, k: int) -> Morphism:
        """F at the k-th arrow of family "a", "c" or "d" (the diffs)."""
        got = self._applied.get((family, k))
        if got is None:
            got = self._applied[family, k] = self.f.eval_mor(self._arrows[family][k])
        return got

    def stab(self, k: int):
        return self._sub(self.applied("a", k))

    def sat(self, i: int):
        return self._quot(self.applied("c", i - 1))

    def der(self, i: int):
        if i == 0:
            return self._sub(self.applied("d", 0))
        pair = (self.applied("d", i - 1), self.applied("d", i))
        return homology_at(*(pair if self.right else pair[::-1]))


# ---------------------------------------------------------------------------
# stabilizations, satellites and derived functors: the thread's nodes


def free_cover(x: FPModule) -> Morphism:
    return proj_resolution(x, 0).augmentation


def _node(f: FunctorExpr, kind: str, i: int, side: str, x: FPModule):
    """The thread's "stab", "sat" or "der" node at index i of F at x on
    ``side``: a stabilization or satellite inside F at the i-th (co)syzygy
    of x, or a derived node inside F at the i-th term."""
    if kind == "sat":
        if i < 1:
            raise WrongShape("satellites are indexed from 1")
        what = f"{side} satellites on the injective side"
    elif kind == "der":
        what = "derived functors on the injective side"
    elif side == "right":
        what = "sub-stabilization of a covariant functor"
    else:
        what = "quot-stabilization of a contravariant functor"
    t = _Thread(f, side, x, i + 1 if kind == "der" else i, what)
    return getattr(t, kind)(i)


def sub_stabilize(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """F-bar(X) with its inclusion k into F(X): the kernel of F at A_0 of the
    right thread (an injective container of X when covariant, which needs a
    quasi-Frobenius ring unless F is finitely presented; a free cover when
    contravariant).
    """
    if _fp_right(f, x) is not None:
        return sub_stabilize_fp(f, x)
    node = _node(f, "stab", 0, "right", x)
    return node.module, induced(node, Own(f.eval_obj(x)))


def quot_stabilize(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """F-under(X) with the projection q from F(X): the cokernel of F at A_0
    of the left thread (a free cover of X when covariant; an injective
    container, quasi-Frobenius only, when contravariant).
    """
    node = _node(f, "stab", 0, "left", x)
    return node.module, induced(Own(f.eval_obj(x)), node)


def _fp_value(f: FunctorExpr, pres: Morphism, x: FPModule) -> CokernelRealization:
    """F(X) of a functor presented by ``pres``, as a cokernel of Hom maps."""
    return f._at(x) if isinstance(f, FP) else FP(pres)._at(x)


def sub_stabilize_fp(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """Sub-stabilization of a finitely presented functor over any ring:
    F-bar(X) = coker((Im f, X) <- (B, X)) with k induced by the epi part."""
    pres = f.fp_presentation()
    if pres is None:
        raise WrongShape("functor has no finitely presented shape")
    e, m = epi_mono_factor(pres)
    bar = FP(m)._at(x)
    k = induced(Within(hom_module(e.target, x), bar),
                Within(hom_module(pres.source, x), _fp_value(f, pres, x)),
                pull_arrow(e.mat, x))
    return bar.module, k


def tc_quot_stabilize(f: FunctorExpr, x: FPModule) -> SubquotientRealization:
    """F-under(X) of a tensor-copresented F, realized inside D(x)X (its
    decode is the inclusion), from the evaluated copresentation
    0 -> F-under(X) -> D(x)X -> B(x)X -> C(x)X -> 0 (D = Im f)."""
    pres = f.tc_copresentation()
    if pres is None:
        raise WrongShape("functor has no tensor-copresented shape")
    m = induced(subquotient(pres.target, pres.mat), Own(pres.target))
    return kernel_realization(tensor_mor(m, identity_morphism(x)))


class _Indexed(FunctorExpr):
    """The thread's ``_kind`` node at index i on one side of ``inner``, as a
    functor.  On phi it is F of phi lifted to the threads of phi's ends
    (the i-th square of the comparison theorem at a derived node, the i-th
    (co)syzygy shift elsewhere), carried between the two nodes."""

    def __init__(self, inner: FunctorExpr, i: int, side: str):
        self.inner, self.i, self.side = inner, i, side
        self.variance = inner.variance

    def eval_obj(self, x):
        return _node(self.inner, self._kind, self.i, self.side, x).module

    def eval_mor(self, phi):
        f, kind, i, side = self.inner, self._kind, self.i, self.side
        src, tgt = _ends(f, phi, lambda y: _node(f, kind, i, side, y))
        injective = _injective_side(f, side)
        if kind == "der":
            lift = _chain_map(phi, i + 1, injective)[i]
        else:
            lift = (sigma_shift_mor if injective else omega_shift_mor)(phi, i)
        return induced(src, tgt, f.eval_mor(lift).mat)

    def __str__(self):
        tag = self._tags[self.side != "right"]
        return f"{tag}{self.i}({self.inner})"


class _Stab(_Indexed):
    """F-bar (right side) or F-under (left side) at the i-th (co)syzygy of
    the side's thread: beta's target and alpha's source at i = 1."""

    _kind, _tags = "stab", ("bar", "under")

    def __str__(self):
        if self.i:
            return super().__str__()
        return f"{self._tags[self.side != 'right']}({self.inner})"


class SubStab(_Stab):
    """F-bar.  Over a ring that is not quasi-Frobenius a finitely presented
    covariant F = coker((B,-) -> (A,-)) has F-bar = coker((B,-) -> (Im f,-)),
    that is FP(m) for m the mono part of f."""

    def __init__(self, inner: FunctorExpr):
        super().__init__(inner, 0, "right")

    def _fp(self, x: FPModule) -> FunctorExpr | None:
        pres = _fp_right(self.inner, x)
        return None if pres is None else FP(epi_mono_factor(pres)[1])

    def eval_obj(self, x):
        fp = self._fp(x)
        return super().eval_obj(x) if fp is None else fp.eval_obj(x)

    def eval_mor(self, phi):
        fp = self._fp(phi.source)
        return super().eval_mor(phi) if fp is None else fp.eval_mor(phi)


class QuotStab(_Stab):
    """F-under."""

    def __init__(self, inner: FunctorExpr):
        super().__init__(inner, 0, "left")


class Derived(_Indexed):
    """The i-th derived functor.  Over a ring that is not quasi-Frobenius the
    right-derived functors of a finitely presented covariant F are
    Ext^i(w(F), -), w(F) the defect."""

    _kind, _tags = "der", ("R", "L")

    def _defect(self, x: FPModule) -> FPModule | None:
        _require_nonnegative(self.i, "derived functor degrees")
        pres = _fp_right(self.inner, x) if self.side == "right" else None
        return None if pres is None else kernel_realization(pres).module

    def eval_obj(self, x):
        w = self._defect(x)
        return super().eval_obj(x) if w is None else resolve_ext(w, x, self.i)

    def eval_mor(self, phi):
        w = self._defect(phi.source)
        if w is None:
            return super().eval_mor(phi)
        return ExtFixedFirst(w, self.i).eval_mor(phi)


class Satellite(_Indexed):
    _kind, _tags = "sat", ("S^", "S_")


def derived_eval(f: FunctorExpr, i: int, side: str, x: FPModule) -> FPModule:
    return Derived(f, i, side).eval_obj(x)


def derived_mor(f: FunctorExpr, i: int, side: str, phi: Morphism) -> Morphism:
    return Derived(f, i, side).eval_mor(phi)


def derived(f: FunctorExpr, i: int, side: str) -> FunctorExpr:
    return Derived(f, i, side)


def satellite(f: FunctorExpr, i: int, side: str, x: FPModule) -> FPModule:
    """i-th satellite at X; higher satellites by dimension shift through one
    threaded resolution.

    Covariant: S^i = coker F(I^{i-1} ->> Sigma^i X) (QF ring),
               S_i = ker F(Omega^i X into P_{i-1}) (any ring).
    Contravariant: S^i via the syzygy inclusion (any ring),
                   S_i via the cosyzygy projection (QF ring).
    """
    return Satellite(f, i, side).eval_obj(x)


def _chain_map(phi: Morphism, depth: int, injective: bool) -> list[Morphism]:
    """h_0 .. h_{depth-1}: phi lifted to the projective resolutions of its
    ends (comparison theorem), or to the injective ones as D of the lift of
    D(phi), since the injective resolution is D of the projective one of
    D(-).  The resolutions are the depth-``depth`` ones the derived nodes
    thread, and no square past h_{depth-1} is solved.

    Both ends of every projective square are free, so h_{k+1} is one
    ``solve_matrix`` of dy . h_{k+1} = h_k . dx against dy's matrix, a
    matrix of the kernel chain, which has eliminated it already.  Exactness
    of the target resolution makes every square solvable."""
    if injective:
        return [dual_mor(h) for h in _chain_map(dual_mor(phi), depth, False)]
    ring = phi.source.ring
    rx = proj_resolution(phi.source, depth)
    ry = proj_resolution(phi.target, depth)
    hs = [make_morphism(rx.augmentation.source, ry.augmentation.source,
                        phi.mat)]
    for dx, dy in zip(rx.diffs[:depth - 1], ry.diffs):  # dy . h_k = h_k-1 . dx
        rhs = (hs[-1].mat @ dx.mat).mod(ring)
        hs.append(make_morphism(dx.source, dy.source,
                                solve_matrix(dy.mat, rhs, ring)))
    return hs


# ---------------------------------------------------------------------------
# defect, canonical transformations, torsion radical


def defect(f: FunctorExpr) -> FPModule:
    """w(F) = ker of the presenting morphism for covariant fp shapes;
    v(F) = F(ring) for contravariant functors."""
    if f.variance == CONTRAVARIANT:
        return f.eval_obj(free_module(_ring_of(f), 1))
    pres = f.fp_presentation()
    if pres is None:
        raise WrongShape("defect needs a finitely presented covariant functor")
    return kernel_realization(pres).module


def _ring_of(f: FunctorExpr):
    for attr in ("a", "b"):
        m = getattr(f, attr, None)
        if m is not None:
            return m.ring
    pres = getattr(f, "f", None)
    if pres is not None:
        return pres.source.ring
    inner = getattr(f, "inner", None)
    if inner is not None:
        return _ring_of(inner)
    raise WrongShape("cannot infer the base ring of the expression")


def rho(f: FunctorExpr, x: FPModule) -> Morphism:
    """F(X) -> R0 F(X), the zeroth right-derived comparison."""
    pres = _fp_right(f, x)
    if pres is not None:
        restrict = hom_pull(kernel(pres)[1], x)
        return induced(_fp_value(f, pres, x), Own(restrict.target), restrict.mat)
    t = _Thread(f, "right", x, 1, "rho of a covariant functor")
    return induced(Own(f.eval_obj(x)), t.der(0), t.applied("a", 0).mat)


def lam(f: FunctorExpr, x: FPModule) -> Morphism:
    """L0 F(X) -> F(X), the zeroth left-derived comparison."""
    t = _Thread(f, "left", x, 1, "lambda of a contravariant functor")
    return induced(t.der(0), Own(f.eval_obj(x)), t.applied("a", 0).mat)


def beta(f: FunctorExpr, x: FPModule) -> Morphism:
    """R0 F(X) -> F-bar(Sigma X) (covariant) / F-bar(Omega X) (contravariant)."""
    t = _Thread(f, "right", x, 1, "beta of a covariant functor")
    return induced(t.der(0), t.stab(1), t.applied("c", 0).mat)


def alpha(f: FunctorExpr, x: FPModule) -> Morphism:
    """F-under(Omega X) -> L0 F(X) (covariant) /
    F-under(Sigma X) -> L0 F(X) (contravariant)."""
    t = _Thread(f, "left", x, 1, "alpha of a contravariant functor")
    return induced(t.stab(1), t.der(0), t.applied("c", 0).mat)


class NatTransSample:
    """Component maps of a canonical transformation on sampled objects, with
    naturality-square verdicts on sampled morphisms."""

    __slots__ = ("name", "components", "naturality")

    def __init__(self, name: str, components: list[tuple[FPModule, Morphism]],
                 naturality: list[tuple[Morphism, bool]]):
        self.name = name
        self.components = components
        self.naturality = naturality


_CANONICAL = {
    "rho": (rho, lambda f: f, lambda f: Derived(f, 0, "right")),
    "lambda": (lam, lambda f: Derived(f, 0, "left"), lambda f: f),
    "beta": (beta, lambda f: Derived(f, 0, "right"),
             lambda f: _Stab(f, 1, "right")),
    "alpha": (alpha, lambda f: _Stab(f, 1, "left"),
              lambda f: Derived(f, 0, "left")),
}


def nat_trans_sample(name: str, f: FunctorExpr, objects, morphisms) -> NatTransSample:
    """Sample one of the canonical transformations (rho, lambda, beta, alpha)
    and check its naturality squares by morphism equality."""
    if name not in _CANONICAL:
        raise WrongShape(f"no canonical transformation named {name}")
    comp_fn, src_fn, tgt_fn = _CANONICAL[name]
    src_expr, tgt_expr = src_fn(f), tgt_fn(f)
    held: dict[FPModule, Morphism] = {}

    def component(x: FPModule) -> Morphism:
        got = held.get(x)
        if got is None:
            got = held[x] = comp_fn(f, x)
        return got

    components = [(x, component(x)) for x in objects]
    verdicts = []
    for phi in morphisms:
        from_obj, to_obj = _ends(f, phi, lambda y: y)
        src_phi = src_expr.eval_mor(phi)
        tgt_phi = tgt_expr.eval_mor(phi)
        lhs = component(to_obj).compose(src_phi)
        rhs = tgt_phi.compose(component(from_obj))
        verdicts.append((phi, (lhs - rhs).is_zero()))
    return NatTransSample(name, components, verdicts)


def torsion_radical(a: FPModule) -> tuple[FPModule, Morphism]:
    """The largest submodule killed by the zeroth right-derived comparison of
    a (x) -, computed as the kernel of the evaluation map a -> a**.  Over Z
    this is the torsion submodule."""
    return kernel(evaluation_map(a))


# ---------------------------------------------------------------------------
# the four-term sequences (tensor side and Hom side)


def auslander_four_term(a: FPModule, x: FPModule, which: str) -> SequenceReport:
    """The four-term exact sequences tying tensor and Hom together through
    the transpose, built as honest maps on one threaded resolution:

    tensor: 0 -> Ext^1(Tr A, X) -> A(x)X -> (A*, X) -> Ext^2(Tr A, X) -> 0
    hom:    0 -> Tor_2(Tr A, X) -> A*(x)X -> (A, X) -> Tor_1(Tr A, X) -> 0
    """
    ring = a.ring
    d = a.rel
    k1 = kernel_basis(d.transpose(), ring)   # generators of A* inside R^g
    k2 = kernel_basis(k1, ring)              # relations of A* under its cover
    if which == "tensor":
        # X^r -> X^g -> X^q -> X^q2, then Hom(A*, X)
        mats = (d, k1.transpose(), k2.transpose())
        hom_source = _presented(ring, k2)
        labels = ("Ext^1(TrA, X)", "A(x)X", "(A*, X)", "Ext^2(TrA, X)")
    elif which == "hom":
        # X^q2 -> X^q -> X^g -> X^r, then Hom(A, X)
        mats, hom_source = (k2, k1, d.transpose()), a
        labels = ("Tor_2(TrA, X)", "A*(x)X", "(A, X)", "Tor_1(TrA, X)")
    else:
        raise WrongShape("which must be 'tensor' or 'hom'")
    m1, m2, m3 = (_power_map(x, m) for m in mats)
    left = homology_at(m1, m2)
    tensored = cokernel_realization(m1)
    hom = hom_module(hom_source, x)
    right = homology_at(m2, m3)
    zero = free_module(ring, 0)
    nodes = [("0", zero, "zero"),
             (labels[0], left.module, "derived"),
             (labels[1], tensored.module, "plain"),
             (labels[2], hom.module, "plain"),
             (labels[3], right.module, "derived"),
             ("0", zero, "zero")]
    maps = [zero_morphism(zero, left.module), induced(left, tensored),
            induced(tensored, hom, m2.mat), induced(hom, right),
            zero_morphism(right.module, zero)]
    return build_report(nodes, maps, {"display": f"four-term-{which}"})
