"""Symbolic, evaluable additive functors and the constructions on them:
stabilizations, satellites, derived functors, defects, the canonical
transformations rho/lambda/beta/alpha, and the four-term sequences relating
tensor and Hom through the transpose.

Expressions evaluate on objects and on morphisms.  Every construction that
resolves its argument (stabilizations, satellites, derived functors,
rho/lambda/beta/alpha, and the fundamental sequences built on them) asks the
threaded-resolution table ``_THREADED`` which resolution a (variance, side)
pair threads and which of its two arrow families plays which role; it is the
one place that knows.  Covariant-right and contravariant-left thread an
injective resolution, which needs a quasi-Frobenius base ring; the other two
thread a projective resolution over either ring.  Finitely presented shapes
provide projective-side shortcuts valid over any ring:

* for F = coker((B,-) --(f,-)--> (A,-)) the right-derived functors are
  Ext^i(w(F), -) with defect w(F) = ker f;
* the sub-stabilization of such an F has the explicit projective resolution
  0 -> (C,-) -> (B,-) -> (Im f,-) -> F-bar -> 0;
* the quot-stabilization of a tensor-copresented F = ker(A(x)- -> B(x)-)
  has the tensor copresentation 0 -> F-under -> (Im f)(x)- -> B(x)-.

``half_exact`` is constructor metadata, never inferred (Hom, tensor,
Ext^i(A,-), Tor_i(A,-) are half-exact; FP/TC only if the caller says so).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import UnsupportedRing, WrongShape
from .exactlin import IntMat, kernel_basis
from .fpmod import (
    FPModule, HomRealization, Morphism, cokernel_realization,
    epi_mono_factor, evaluation_map, free_module, hom_module, hom_pull,
    hom_push, hom_transport, identity_morphism, is_identity,
    kernel_realization, make_morphism, solve_for_morphism, tensor_module,
    tensor_mor, zero_morphism,
)
from .resolve import (
    cosyzygy, ext as resolve_ext, homology_at, inj_resolution,
    proj_resolution, syzygy,
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
        return hom_push(hom_module(self.a, phi.source),
                        hom_module(self.a, phi.target), phi)

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
        return hom_pull(hom_module(phi.target, self.b),
                        hom_module(phi.source, self.b), phi)

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


@dataclass(frozen=True, eq=False)
class _FPEval:
    hom_a: HomRealization
    value: object  # CokernelRealization of (f, X): Hom(B,X) -> Hom(A,X)


class FP(FunctorExpr):
    """coker((B,-) --(f,-)--> (A,-)) for f: A -> B (Yoneda presentation)."""

    def __init__(self, f: Morphism, half_exact: bool = False):
        self.f = f
        self.half_exact = half_exact
        self._cache: dict[FPModule, _FPEval] = {}

    def _at(self, x: FPModule) -> _FPEval:
        got = self._cache.get(x)
        if got is None:
            hom_a = hom_module(self.f.source, x)
            pres = hom_pull(hom_module(self.f.target, x), hom_a, self.f)
            got = _FPEval(hom_a, cokernel_realization(pres))
            self._cache[x] = got
        return got

    def eval_obj(self, x):
        return self._at(x).value.module

    def eval_mor(self, phi):
        # project . hom_push . lift, pushing the lifted elements themselves
        ex, ey = self._at(phi.source), self._at(phi.target)
        pushed = hom_transport(ex.hom_a, ey.hom_a, phi.mat,
                               IntMat.identity(self.f.source.gens),
                               ex.value.lift)
        return make_morphism(ex.value.module, ey.value.module,
                             ey.value.project.mat @ pushed)

    def fp_presentation(self):
        return self.f

    def __str__(self):
        return f"coker(({self.f.target},-) -> ({self.f.source},-))"


@dataclass(frozen=True, eq=False)
class _TCEval:
    tens_a: object
    tens_b: object
    copresented_by: Morphism  # f (x) X: A(x)X -> B(x)X
    value: object             # KernelRealization


class TC(FunctorExpr):
    """ker(A(x)- --(f(x)-)--> B(x)-) for f: A -> B (tensor copresentation)."""

    def __init__(self, f: Morphism, half_exact: bool = False):
        self.f = f
        self.half_exact = half_exact
        self._cache: dict[FPModule, _TCEval] = {}

    def _at(self, x: FPModule) -> _TCEval:
        got = self._cache.get(x)
        if got is None:
            ta = tensor_module(self.f.source, x)
            tb = tensor_module(self.f.target, x)
            pres = tensor_mor(self.f, identity_morphism(x))
            got = _TCEval(ta, tb, pres, kernel_realization(pres))
            self._cache[x] = got
        return got

    def eval_obj(self, x):
        return self._at(x).value.module

    def eval_mor(self, phi):
        ex, ey = self._at(phi.source), self._at(phi.target)
        ax_phi = tensor_mor(identity_morphism(self.f.source), phi)
        return make_morphism(ex.value.module, ey.value.module,
                             ey.value.encode(ax_phi.mat @ ex.value.include.mat))

    def tc_copresentation(self):
        return self.f

    def __str__(self):
        return f"ker({self.f.source}(x)- -> {self.f.target}(x)-)"


def ExtFixedFirst(a: FPModule, i: int) -> FunctorExpr:
    """Ext^i(A, -), realized projectively (dimension shift), half-exact."""
    if i == 0:
        return HomCov(a)
    pr = proj_resolution(a, i)
    expr = FP(pr.includes[i - 1], half_exact=True)
    return expr


def TorFixedFirst(a: FPModule, i: int) -> FunctorExpr:
    """Tor_i(A, -), realized projectively (dimension shift), half-exact."""
    if i == 0:
        return TensorLeft(a)
    pr = proj_resolution(a, i)
    return TC(pr.includes[i - 1], half_exact=True)


# ---------------------------------------------------------------------------
# syzygy / cosyzygy shifts


def _factor_through(g: Morphism, m: Morphism) -> Morphism:
    """h with m . h = g, for maps landing in the image of the mono m."""
    h = solve_for_morphism(
        g.source, m.source,
        [(m.mat, IntMat.identity(g.source.gens), g.mat, g.target.rel)])
    if h is None:
        raise WrongShape("map does not factor through the given mono")
    return h


def _extend_along(g: Morphism, m: Morphism) -> Morphism:
    """h with h . m = g; solvable when g.target is injective (QF ring)."""
    h = solve_for_morphism(
        m.target, g.target,
        [(IntMat.identity(g.target.gens), m.mat, g.mat, g.target.rel)])
    if h is None:
        raise WrongShape("map does not extend along the given mono")
    return h


def omega_shift_mor(phi: Morphism, k: int) -> Morphism:
    """Omega^k on morphisms; well-defined modulo maps through projectives."""
    for _ in range(k):
        if is_identity(phi):
            phi = identity_morphism(syzygy(phi.source, 1))
            continue
        px, py = proj_resolution(phi.source, 1), proj_resolution(phi.target, 1)
        h0 = make_morphism(px.terms[0], py.terms[0], phi.mat)
        phi = _factor_through(h0.compose(px.includes[0]), py.includes[0])
    return phi


def sigma_shift_mor(phi: Morphism, k: int) -> Morphism:
    """Sigma^k on morphisms; well-defined modulo maps through injectives."""
    if k:
        _require_qf(phi.source.ring, "a cosyzygy shift")
    for _ in range(k):
        if is_identity(phi):
            phi = identity_morphism(cosyzygy(phi.source, 1))
            continue
        cx = inj_resolution(phi.source, 1)
        cy = inj_resolution(phi.target, 1)
        h = _extend_along(cy.augmentation.compose(phi), cx.augmentation)
        mat = (cy.projs[0].compose(h)).mat @ cx.sections[0]
        phi = make_morphism(cx.cosyzygies[1], cy.cosyzygies[1],
                            mat.mod(phi.source.ring))
    return phi


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
# the threaded-resolution table

# (variance, side) -> (resolution threaded, A arrows, C arrows).  A_k joins
# the k-th (co)syzygy of the argument with the k-th term, C_k joins the k-th
# term with the (k+1)-th (co)syzygy.  Stabilizations are F at A_k, satellites
# F at C_k-1, derived functors the (co)homology of F applied to the diffs.
_THREADED = {
    (COVARIANT, "right"): (inj_resolution, "embeds", "projs"),
    (CONTRAVARIANT, "right"): (proj_resolution, "covers", "includes"),
    (COVARIANT, "left"): (proj_resolution, "covers", "includes"),
    (CONTRAVARIANT, "left"): (inj_resolution, "embeds", "projs"),
}


def _injective_side(f: FunctorExpr, side: str) -> bool:
    if (f.variance, side) not in _THREADED:
        raise WrongShape("side must be 'right' or 'left'")
    return _THREADED[f.variance, side][0] is inj_resolution


def _threaded(f: FunctorExpr, side: str, x: FPModule, depth: int, what: str):
    """(resolution, A arrows, C arrows) of x to the given depth for the row
    of F's variance on this side; the injective side needs a QF ring."""
    if _injective_side(f, side):
        _require_qf(x.ring, what)
    resolve, a, c = _THREADED[f.variance, side]
    res = resolve(x, depth)
    return res, getattr(res, a), getattr(res, c)


# ---------------------------------------------------------------------------
# stabilizations


def free_cover(x: FPModule) -> Morphism:
    return proj_resolution(x, 0).augmentation


def sub_stabilize(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """F-bar(X) with its inclusion k into F(X): the kernel of F at A_0 of the
    right thread (an injective container of X when covariant, which needs a
    quasi-Frobenius ring unless F is finitely presented; a free cover when
    contravariant).
    """
    if f.variance == COVARIANT and not x.ring.quasi_frobenius \
            and f.fp_presentation() is not None:
        return sub_stabilize_fp(f, x)
    _, a, _ = _threaded(f, "right", x, 0,
                        "sub-stabilization of a covariant functor")
    kr = kernel_realization(f.eval_mor(a[0]))
    return kr.module, kr.include


def quot_stabilize(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """F-under(X) with the projection q from F(X): the cokernel of F at A_0
    of the left thread (a free cover of X when covariant; an injective
    container, quasi-Frobenius only, when contravariant).
    """
    _, a, _ = _threaded(f, "left", x, 0,
                        "quot-stabilization of a contravariant functor")
    c = cokernel_realization(f.eval_mor(a[0]))
    return c.module, c.project


def _fp_value(f: FunctorExpr, x: FPModule) -> _FPEval:
    if isinstance(f, FP):
        return f._at(x)
    pres = f.fp_presentation()
    if pres is None:
        raise WrongShape("functor has no finitely presented shape")
    return FP(pres)._at(x)


def sub_stabilize_fp(f: FunctorExpr, x: FPModule) -> tuple[FPModule, Morphism]:
    """Sub-stabilization of a finitely presented functor over any ring:
    F-bar(X) = coker((Im f, X) <- (B, X)) with k induced by the epi part."""
    pres = f.fp_presentation()
    if pres is None:
        raise WrongShape("functor has no finitely presented shape")
    e, m = epi_mono_factor(pres)
    hom_b = hom_module(pres.target, x)
    hom_im = hom_module(e.target, x)
    bar = cokernel_realization(hom_pull(hom_b, hom_im, m))
    fx = _fp_value(f, x)
    pulled = hom_transport(hom_im, fx.hom_a, IntMat.identity(x.gens), e.mat,
                           bar.lift)
    return bar.module, make_morphism(bar.module, fx.value.module,
                                     fx.value.project.mat @ pulled)


@dataclass(frozen=True, eq=False)
class TCQuotStab:
    """Evaluated tensor copresentation 0 -> K -> D(x)X -> B(x)X -> C(x)X -> 0
    of the quot-stabilization of a tensor-copresented functor (D = Im f)."""

    module: FPModule
    include: Morphism      # K -> D(x)X
    mono_tensor: Morphism  # D(x)X -> B(x)X


def tc_quot_stabilize(f: FunctorExpr, x: FPModule) -> TCQuotStab:
    pres = f.tc_copresentation()
    if pres is None:
        raise WrongShape("functor has no tensor-copresented shape")
    _, m = epi_mono_factor(pres)
    m_tensor = tensor_mor(m, identity_morphism(x))
    kr = kernel_realization(m_tensor)
    return TCQuotStab(kr.module, kr.include, m_tensor)


class _Stabilization(FunctorExpr):
    """A stabilization of ``inner``, cached per object; ``_stabilize``
    returns the (module, map) pair at an object."""

    def __init__(self, inner: FunctorExpr):
        self.inner = inner
        self.variance = inner.variance
        self._cache: dict[FPModule, tuple[FPModule, Morphism]] = {}

    def _at(self, x):
        got = self._cache.get(x)
        if got is None:
            got = self._stabilize(self.inner, x)
            self._cache[x] = got
        return got

    def eval_obj(self, x):
        return self._at(x)[0]

    def _ends(self, phi):
        """The stabilizations at the source and the target of F(phi)."""
        if self.variance == COVARIANT:
            return self._at(phi.source), self._at(phi.target)
        return self._at(phi.target), self._at(phi.source)


class SubStab(_Stabilization):
    _stabilize = staticmethod(sub_stabilize)

    def eval_mor(self, phi):
        inner_phi = self.inner.eval_mor(phi)
        (src_mod, src_incl), (tgt_mod, tgt_incl) = self._ends(phi)
        carried = inner_phi.compose(src_incl)
        h = solve_for_morphism(
            src_mod, tgt_mod,
            [(tgt_incl.mat, IntMat.identity(src_mod.gens), carried.mat,
              carried.target.rel)])
        if h is None:
            raise WrongShape("morphism does not respect the sub-stabilization")
        return h

    def __str__(self):
        return f"bar({self.inner})"


class QuotStab(_Stabilization):
    _stabilize = staticmethod(quot_stabilize)

    def eval_mor(self, phi):
        inner_phi = self.inner.eval_mor(phi)
        (src_mod, src_proj), (tgt_mod, tgt_proj) = self._ends(phi)
        carried = tgt_proj.compose(inner_phi)
        h = solve_for_morphism(
            src_mod, tgt_mod,
            [(IntMat.identity(tgt_mod.gens), src_proj.mat, carried.mat,
              tgt_mod.rel)])
        if h is None:
            raise WrongShape("morphism does not respect the quot-stabilization")
        return h

    def __str__(self):
        return f"under({self.inner})"


# ---------------------------------------------------------------------------
# derived functors


class _DerivedNode(NamedTuple):
    """A node of an applied complex with its coordinate transport to and
    from the applied term it sits in."""

    module: FPModule
    decode: IntMat   # node coordinates -> term coordinates
    encode: Callable[[IntMat], IntMat]


def _node_kernel_flavour(values, i) -> _DerivedNode:
    """Degree-i node of a cochain-ordered applied complex (kernel at 0)."""
    if i == 0:
        kr = kernel_realization(values[0])
        return _DerivedNode(kr.module, kr.include.mat, kr.encode)
    hq = homology_at(values[i - 1], values[i])
    return _DerivedNode(hq.module, hq.decode_matrix(), hq.encode)


def _node_cokernel_flavour(values, i) -> _DerivedNode:
    """Degree-i node of a chain-ordered applied complex (cokernel at 0)."""
    if i == 0:
        c = cokernel_realization(values[0])
        return _DerivedNode(c.module, c.lift, lambda cols: (c.project.mat @ cols))
    hq = homology_at(values[i], values[i - 1])
    return _DerivedNode(hq.module, hq.decode_matrix(), hq.encode)


def _derived_node(f: FunctorExpr, i: int, side: str, x: FPModule) -> _DerivedNode:
    """Degree-i node of F applied to the resolution of x the row threads."""
    res, _, _ = _threaded(f, side, x, i + 1,
                          "derived functors on the injective side")
    node = _node_kernel_flavour if side == "right" else _node_cokernel_flavour
    return node([f.eval_mor(d) for d in res.diffs], i)


def derived_eval(f: FunctorExpr, i: int, side: str, x: FPModule) -> FPModule:
    if f.variance == COVARIANT and side == "right" and not x.ring.quasi_frobenius:
        pres = f.fp_presentation()
        if pres is not None:
            return resolve_ext(kernel_realization(pres).module, x, i)
    return _derived_node(f, i, side, x).module


def derived_mor(f: FunctorExpr, i: int, side: str, phi: Morphism) -> Morphism:
    cov = f.variance == COVARIANT
    if cov and side == "right" and not phi.source.ring.quasi_frobenius:
        pres = f.fp_presentation()
        if pres is not None:
            w = kernel_realization(pres).module
            return ExtFixedFirst(w, i).eval_mor(phi)
    nx = _derived_node(f, i, side, phi.source)
    ny = _derived_node(f, i, side, phi.target)
    chain_map = _inj_chain_map if _injective_side(f, side) else _proj_chain_map
    carrier = f.eval_mor(chain_map(phi, i + 1)[i])
    src, tgt = (nx, ny) if cov else (ny, nx)
    return make_morphism(src.module, tgt.module, tgt.encode(carrier.mat @ src.decode))


class Derived(FunctorExpr):
    def __init__(self, inner: FunctorExpr, i: int, side: str):
        self.inner, self.i, self.side = inner, i, side
        self.variance = inner.variance

    def eval_obj(self, x):
        return derived_eval(self.inner, self.i, self.side, x)

    def eval_mor(self, phi):
        return derived_mor(self.inner, self.i, self.side, phi)

    def __str__(self):
        tag = "R" if self.side == "right" else "L"
        return f"{tag}{self.i}({self.inner})"


def derived(f: FunctorExpr, i: int, side: str) -> FunctorExpr:
    return Derived(f, i, side)


def _proj_chain_map(phi: Morphism, depth: int) -> list[Morphism]:
    """Lift phi to the projective resolutions (comparison theorem)."""
    px = proj_resolution(phi.source, depth)
    py = proj_resolution(phi.target, depth)
    hs = [make_morphism(px.terms[0], py.terms[0], phi.mat)]
    for k in range(1, depth + 1):
        rhs = hs[-1].compose(px.diffs[k - 1])
        h = solve_for_morphism(
            px.terms[k], py.terms[k],
            [(py.diffs[k - 1].mat, IntMat.identity(px.terms[k].gens), rhs.mat,
              py.terms[k - 1].rel)])
        hs.append(h)
    return hs


def _inj_chain_map(phi: Morphism, depth: int) -> list[Morphism]:
    ix = inj_resolution(phi.source, depth)
    iy = inj_resolution(phi.target, depth)
    hs = [_extend_along(iy.augmentation.compose(phi), ix.augmentation)]
    for k in range(1, depth + 1):
        rhs = iy.diffs[k - 1].compose(hs[-1])
        h = solve_for_morphism(
            ix.terms[k], iy.terms[k],
            [(IntMat.identity(iy.terms[k].gens), ix.diffs[k - 1].mat, rhs.mat,
              iy.terms[k].rel)])
        hs.append(h)
    return hs


# ---------------------------------------------------------------------------
# satellites


def satellite(f: FunctorExpr, i: int, side: str, x: FPModule) -> FPModule:
    """i-th satellite at X; higher satellites by dimension shift through one
    threaded resolution.

    Covariant: S^i = coker F(I^{i-1} ->> Sigma^i X) (QF ring),
               S_i = ker F(Omega^i X into P_{i-1}) (any ring).
    Contravariant: S^i via the syzygy inclusion (any ring),
                   S_i via the cosyzygy projection (QF ring).
    """
    if i < 1:
        raise WrongShape("satellites are indexed from 1")
    return _satellite_edge(f, i, side, x).module


def _satellite_edge(f: FunctorExpr, i: int, side: str, x: FPModule):
    """S^i as the cokernel, S_i as the kernel, of F at C_{i-1}."""
    _, _, c = _threaded(f, side, x, i, f"{side} satellites on the injective side")
    edge = f.eval_mor(c[i - 1])
    if side == "right":
        return cokernel_realization(edge)
    return kernel_realization(edge)


class Satellite(FunctorExpr):
    def __init__(self, inner: FunctorExpr, i: int, side: str):
        self.inner, self.i, self.side = inner, i, side
        self.variance = inner.variance

    def eval_obj(self, x):
        return satellite(self.inner, self.i, self.side, x)

    def eval_mor(self, phi):
        i, f = self.i, self.inner
        shift = sigma_shift_mor if _injective_side(f, self.side) else omega_shift_mor
        carrier = f.eval_mor(shift(phi, i))
        # rebuild the boundary realizations to transport coordinates
        ex = _satellite_edge(f, i, self.side, phi.source)
        ey = _satellite_edge(f, i, self.side, phi.target)
        src, tgt = (ex, ey) if self.variance == COVARIANT else (ey, ex)
        if self.side == "right":
            mat = tgt.project.mat @ carrier.mat @ src.lift
        else:
            mat = tgt.encode(carrier.mat @ src.include.mat)
        return make_morphism(src.module, tgt.module, mat)

    def __str__(self):
        tag = "S^" if self.side == "right" else "S_"
        return f"{tag}{self.i}({self.inner})"


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
    fx = f.eval_obj(x)
    pres = f.fp_presentation()
    if f.variance == COVARIANT and not x.ring.quasi_frobenius and pres is not None:
        kr = kernel_realization(pres)
        hom_w = hom_module(kr.module, x)
        fpx = _fp_value(f, x)
        restrict = hom_pull(fpx.hom_a, hom_w, kr.include)
        return make_morphism(fx, hom_w.module, restrict.mat @ fpx.value.lift)
    res, a, _ = _threaded(f, "right", x, 1, "rho of a covariant functor")
    r0 = kernel_realization(f.eval_mor(res.diffs[0]))
    aug = f.eval_mor(a[0])
    return make_morphism(fx, r0.module, r0.encode(aug.mat))


def lam(f: FunctorExpr, x: FPModule) -> Morphism:
    """L0 F(X) -> F(X), the zeroth left-derived comparison."""
    fx = f.eval_obj(x)
    res, a, _ = _threaded(f, "left", x, 1, "lambda of a contravariant functor")
    l0 = cokernel_realization(f.eval_mor(res.diffs[0]))
    aug = f.eval_mor(a[0])
    return make_morphism(l0.module, fx, aug.mat @ l0.lift)


def beta(f: FunctorExpr, x: FPModule) -> Morphism:
    """R0 F(X) -> F-bar(Sigma X) (covariant) / F-bar(Omega X) (contravariant)."""
    res, a, c = _threaded(f, "right", x, 1, "beta of a covariant functor")
    r0 = kernel_realization(f.eval_mor(res.diffs[0]))
    stab = kernel_realization(f.eval_mor(a[1]))
    step = f.eval_mor(c[0])
    return make_morphism(r0.module, stab.module,
                         stab.encode(step.mat @ r0.include.mat))


def alpha(f: FunctorExpr, x: FPModule) -> Morphism:
    """F-under(Omega X) -> L0 F(X) (covariant) /
    F-under(Sigma X) -> L0 F(X) (contravariant)."""
    res, a, c = _threaded(f, "left", x, 1, "alpha of a contravariant functor")
    l0 = cokernel_realization(f.eval_mor(res.diffs[0]))
    stab = cokernel_realization(f.eval_mor(a[1]))
    step = f.eval_mor(c[0])
    return make_morphism(stab.module, l0.module,
                         l0.project.mat @ step.mat @ stab.lift)


@dataclass(eq=False)
class NatTransSample:
    """Component maps of a canonical transformation on sampled objects, with
    naturality-square verdicts on sampled morphisms."""

    name: str
    components: list[tuple[FPModule, Morphism]]
    naturality: list[tuple[Morphism, bool]]

    def all_natural(self) -> bool:
        return all(ok for _, ok in self.naturality)


def _shifted(stab, f: FunctorExpr, side: str) -> FunctorExpr:
    """stab(F) composed with the first shift along the side's thread."""
    shift = ShiftSigma if _injective_side(f, side) else ShiftOmega
    return shift(stab(f), 1)


_CANONICAL = {
    "rho": (rho, lambda f: f, lambda f: Derived(f, 0, "right")),
    "lambda": (lam, lambda f: Derived(f, 0, "left"), lambda f: f),
    "beta": (beta, lambda f: Derived(f, 0, "right"),
             lambda f: _shifted(SubStab, f, "right")),
    "alpha": (alpha, lambda f: _shifted(QuotStab, f, "left"),
              lambda f: Derived(f, 0, "left")),
}


def nat_trans_sample(name: str, f: FunctorExpr, objects, morphisms) -> NatTransSample:
    """Sample one of the canonical transformations (rho, lambda, beta, alpha)
    and check its naturality squares by morphism equality."""
    if name not in _CANONICAL:
        raise WrongShape(f"no canonical transformation named {name}")
    comp_fn, src_fn, tgt_fn = _CANONICAL[name]
    src_expr, tgt_expr = src_fn(f), tgt_fn(f)
    components = [(x, comp_fn(f, x)) for x in objects]
    verdicts = []
    cov = f.variance == COVARIANT
    for phi in morphisms:
        from_obj, to_obj = (phi.source, phi.target) if cov else (phi.target, phi.source)
        src_phi = src_expr.eval_mor(phi)
        tgt_phi = tgt_expr.eval_mor(phi)
        lhs = comp_fn(f, to_obj).compose(src_phi)
        rhs = tgt_phi.compose(comp_fn(f, from_obj))
        verdicts.append((phi, (lhs - rhs).is_zero()))
    return NatTransSample(name, components, verdicts)


def torsion_radical(a: FPModule) -> tuple[FPModule, Morphism]:
    """The largest submodule killed by the zeroth right-derived comparison of
    a (x) -, computed as the kernel of the evaluation map a -> a**.  Over Z
    this is the torsion submodule."""
    kr = kernel_realization(evaluation_map(a))
    return kr.module, kr.include


# ---------------------------------------------------------------------------
# the four-term sequences (tensor side and Hom side)


def _power_module(x: FPModule, k: int) -> FPModule:
    return FPModule(x.ring, k * x.gens, IntMat.identity(k).kron(x.rel))


def _power_map(x: FPModule, mat: IntMat) -> Morphism:
    return make_morphism(_power_module(x, mat.cols), _power_module(x, mat.rows),
                         mat.kron(IntMat.identity(x.gens)).mod(x.ring))


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
    zero = free_module(ring, 0)
    if which == "tensor":
        m1 = _power_map(x, d)                        # X^r -> X^g
        m2 = _power_map(x, k1.transpose())           # X^g -> X^q
        m3 = _power_map(x, k2.transpose())           # X^q -> X^q2
        e1 = homology_at(m1, m2)
        ax = cokernel_realization(m1)
        astar = FPModule(ring, k1.cols, k2)
        hstar = hom_module(astar, x)
        e2 = homology_at(m2, m3)
        incl = make_morphism(e1.module, ax.module,
                             ax.project.mat @ e1.decode_matrix())
        rho_map = make_morphism(ax.module, hstar.module,
                                hstar.encode_ambient(m2.mat @ ax.lift))
        out = make_morphism(hstar.module, e2.module,
                            e2.encode(hstar.ambient_decode_matrix()))
        nodes = [("0", zero, "zero"),
                 ("Ext^1(TrA, X)", e1.module, "derived"),
                 ("A(x)X", ax.module, "plain"),
                 ("(A*, X)", hstar.module, "plain"),
                 ("Ext^2(TrA, X)", e2.module, "derived"),
                 ("0", zero, "zero")]
        maps = [zero_morphism(zero, e1.module), incl, rho_map, out,
                zero_morphism(e2.module, zero)]
        return build_report(nodes, maps, {"display": "four-term-tensor"})
    if which == "hom":
        n1 = _power_map(x, k2)                       # X^q2 -> X^q
        n2 = _power_map(x, k1)                       # X^q -> X^g
        n3 = _power_map(x, d.transpose())            # X^g -> X^r
        t2 = homology_at(n1, n2)
        astar_x = cokernel_realization(n1)
        hom_ax = hom_module(a, x)
        t1 = homology_at(n2, n3)
        incl = make_morphism(t2.module, astar_x.module,
                             astar_x.project.mat @ t2.decode_matrix())
        lam_map = make_morphism(astar_x.module, hom_ax.module,
                                hom_ax.encode_ambient(n2.mat @ astar_x.lift))
        out = make_morphism(hom_ax.module, t1.module,
                            t1.encode(hom_ax.ambient_decode_matrix()))
        nodes = [("0", zero, "zero"),
                 ("Tor_2(TrA, X)", t2.module, "derived"),
                 ("A*(x)X", astar_x.module, "plain"),
                 ("(A, X)", hom_ax.module, "plain"),
                 ("Tor_1(TrA, X)", t1.module, "derived"),
                 ("0", zero, "zero")]
        maps = [zero_morphism(zero, t2.module), incl, lam_map, out,
                zero_morphism(t1.module, zero)]
        return build_report(nodes, maps, {"display": "four-term-hom"})
    raise WrongShape("which must be 'tensor' or 'hom'")
