"""Finitely presented modules over Z and Z/n, and their morphisms.

A module is the cokernel of its presentation matrix: ``M = R^gens / col-span(rel)``.
Columns of ``rel`` are relations; elements are generator-coordinate columns.
A morphism M -> N is a generator matrix G (g_N x g_M) for which
G @ P_M = P_N @ X is solvable (checked on construction); two generator
matrices describe the same morphism iff their difference has columns in the
image of P_N.

Public constructors normalize presentations by SNF trimming (diagonal form,
unit pivots dropped), which keeps objects small across deep derived
constructions.  Constructions that must share an ambient coordinate system
(subquotients, threading a fixed resolution through a sequence) work with raw
presentations and fold the trimming transport into the morphisms they emit.

Flattening conventions, used consistently everywhere:

* hom:    a generator matrix G is vectorized column-major,
          ``vec(G)[j*g_N + i] = G[i][j]``;
* tensor: generator (i of M, j of N) sits at index ``i*g_N + j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, MembershipError, NotWellDefined
from .exactlin import (
    IntMat, RingDesc, invariant_divisors, in_span, kernel_basis, snf,
    solve_matrix,
)


# ---------------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class FPModule:
    ring: RingDesc
    gens: int
    rel: IntMat  # gens x (number of relations)

    def __post_init__(self):
        if self.rel.rows != self.gens:
            raise DimensionMismatch("presentation rows must equal generator count")

    def is_zero(self) -> bool:
        return self.gens == 0

    def __str__(self):
        divs, free = canonical_invariants(self)
        parts = [f"{self.ring}/{d}" if self.ring.modulus is None else f"Z/{d}"
                 for d in divs]
        if free:
            parts.append(f"{self.ring}^{free}")
        return " + ".join(parts) if parts else "0"


def present_with_iso(ring: RingDesc, gens: int, rel: IntMat):
    """Trim a raw presentation; returns (module, fwd, bwd).

    fwd maps old generator coordinates to the trimmed module's, bwd is a
    section; fwd @ bwd is the identity and both induce mutually inverse
    module isomorphisms.
    """
    rel = rel.mod(ring)
    res = snf(rel, ring)
    diag = res.diagonal()
    keep = [i for i in range(gens) if i >= len(diag) or diag[i] != 1]
    torsion = [(pos, diag[i]) for pos, i in enumerate(keep)
               if i < len(diag) and diag[i] not in (0, 1)]
    newrel = IntMat.zeros(len(keep), len(torsion))
    if torsion:
        cols = []
        for pos, d in torsion:
            cols.append([d if r == pos else 0 for r in range(len(keep))])
        newrel = IntMat.from_rows([[c[r] for c in cols] for r in range(len(keep))]) \
            if keep else IntMat(0, len(torsion), ())
    module = FPModule(ring, len(keep), newrel)
    fwd = res.U.take_rows(keep).mod(ring)
    bwd = res.Uinv.take_cols(keep).mod(ring)
    return module, fwd, bwd


def make_module(ring: RingDesc, rel, gens: int | None = None) -> FPModule:
    """Normalized module presented by the given relation matrix."""
    mat = rel if isinstance(rel, IntMat) else IntMat.from_rows(rel)
    g = mat.rows if gens is None else gens
    if gens is not None and mat.rows != gens:
        raise DimensionMismatch("relations do not match generator count")
    module, _, _ = present_with_iso(ring, g, mat)
    return module


def free_module(ring: RingDesc, rank: int) -> FPModule:
    return FPModule(ring, rank, IntMat.zeros(rank, 0))


def zero_module(ring: RingDesc) -> FPModule:
    return free_module(ring, 0)


def cyclic(ring: RingDesc, d: int) -> FPModule:
    return make_module(ring, IntMat.from_rows([[d]]))


@lru_cache(maxsize=16384)
def canonical_invariants(m: FPModule) -> tuple[tuple[int, ...], int]:
    """Torsion divisors (divisibility order) and free rank; the full
    classification datum over a principal ideal ring."""
    return invariant_divisors(m.rel, m.ring)


def iso_test(m: FPModule, n: FPModule) -> bool:
    return m.ring == n.ring and canonical_invariants(m) == canonical_invariants(n)


def _prime_components(d: int, n: int):
    comps = []
    for p in _prime_factors(n):
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v:
            comps.append((p, v))
    return comps


def _prime_factors(n: int):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def stable_invariants(m: FPModule) -> tuple:
    """Classification modulo projectives: over Z drop the free rank; over Z/n
    drop, per prime, cyclic components equal to the full local component."""
    divs, free = canonical_invariants(m)
    if m.ring.modulus is None:
        return tuple(sorted(divs))
    n = m.ring.modulus
    comps = []
    for d in list(divs) + [n] * free:
        for p, v in _prime_components(d, n):
            if v < _vp(n, p):
                comps.append(p ** v)
    return tuple(sorted(comps))


def stably_iso_test(m: FPModule, n: FPModule, mod: str = "projectives") -> bool:
    """Isomorphism modulo projectives (= modulo injectives over Z/n)."""
    if mod not in ("projectives", "injectives"):
        raise ValueError("mod must be 'projectives' or 'injectives'")
    if mod == "injectives" and m.ring.modulus is None:
        raise ValueError("stable equivalence modulo injectives needs Z/n")
    return m.ring == n.ring and stable_invariants(m) == stable_invariants(n)


def is_free(m: FPModule) -> bool:
    divs, _ = canonical_invariants(m)
    return not divs


def is_projective_module(m: FPModule) -> bool:
    """Over Z projective = free; over Z/n projective iff every cyclic factor
    is a unitary divisor (per prime, each component is the full p-part)."""
    divs, _ = canonical_invariants(m)
    if m.ring.modulus is None:
        return not divs
    n = m.ring.modulus
    return all(all(v == _vp(n, p) for p, v in _prime_components(d, n)) for d in divs)


def element(m: FPModule, coords) -> IntMat:
    col = coords if isinstance(coords, IntMat) else IntMat.column(coords)
    if col.rows != m.gens:
        raise DimensionMismatch("element has wrong number of coordinates")
    return col.mod(m.ring)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class Morphism:
    source: FPModule
    target: FPModule
    mat: IntMat  # g_target x g_source

    def __call__(self, v: IntMat) -> IntMat:
        return (self.mat @ v).mod(self.target.ring)

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target != self.source:
            raise DimensionMismatch("compose: middle objects differ")
        return Morphism(other.source, self.target,
                        (self.mat @ other.mat).mod(self.target.ring))

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target,
                        (self.mat + other.mat).mod(self.target.ring))

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Morphism":
        return Morphism(self.source, self.target,
                        self.mat.scale(c).mod(self.target.ring))

    def is_zero(self) -> bool:
        return in_span(self.target.rel, self.mat, self.target.ring)


def make_morphism(source: FPModule, target: FPModule, mat) -> Morphism:
    """Morphism from a generator matrix; raises NotWellDefined unless
    G @ P_source = P_target @ X is solvable."""
    if source.ring != target.ring:
        raise DimensionMismatch("morphism across different rings")
    g = mat if isinstance(mat, IntMat) else IntMat.from_rows(mat)
    if (g.rows, g.cols) != (target.gens, source.gens):
        raise DimensionMismatch(
            f"generator matrix must be {target.gens}x{source.gens}, got {g.rows}x{g.cols}")
    ring = source.ring
    g = g.mod(ring)
    if solve_matrix(target.rel, (g @ source.rel).mod(ring), ring) is None:
        raise NotWellDefined("generator matrix does not respect the relations")
    return Morphism(source, target, g)


def identity_morphism(m: FPModule) -> Morphism:
    return Morphism(m, m, IntMat.identity(m.gens).mod(m.ring))


def zero_morphism(source: FPModule, target: FPModule) -> Morphism:
    return Morphism(source, target, IntMat.zeros(target.gens, source.gens))


def morphisms_equal(f: Morphism, g: Morphism) -> bool:
    if f.source != g.source or f.target != g.target:
        return False
    return (f - g).is_zero()


def is_identity(f: Morphism) -> bool:
    return f.source == f.target and morphisms_equal(f, identity_morphism(f.source))


# ---------------------------------------------------------------------------
# subquotients


@dataclass(frozen=True, eq=False)
class Subquotient:
    """(span(sub) + relations) / (span(den) + relations) inside ``ambient``."""

    ambient: FPModule
    sub: IntMat
    den: IntMat

    def __post_init__(self):
        if self.sub.rows != self.ambient.gens or self.den.rows != self.ambient.gens:
            raise DimensionMismatch("subquotient generators must live in the ambient")
        ring = self.ambient.ring
        if not in_span(self.sub.hstack(self.ambient.rel), self.den, ring):
            raise MembershipError("denominators do not lie in the subobject")

    def as_module(self) -> "SubquotientRealization":
        return realize_subquotient(self)


@dataclass(frozen=True, eq=False)
class SubquotientRealization:
    subq: Subquotient
    module: FPModule
    fwd: IntMat  # sub-coordinates -> module coordinates
    bwd: IntMat  # module coordinates -> sub-coordinates

    def decode(self, v: IntMat) -> IntMat:
        """Module coordinates -> ambient coordinates (a coset representative)."""
        return (self.subq.sub @ (self.bwd @ v)).mod(self.module.ring)

    def decode_matrix(self) -> IntMat:
        return (self.subq.sub @ self.bwd).mod(self.module.ring)

    def encode(self, v: IntMat) -> IntMat:
        """Ambient coordinates -> module coordinates; MembershipError if the
        element is not in the subobject."""
        ring = self.module.ring
        amb = self.subq
        sol = solve_matrix(
            amb.sub.hstack(amb.den).hstack(amb.ambient.rel), v.mod(ring), ring)
        if sol is None:
            raise MembershipError("element lies outside the subquotient")
        u = IntMat(amb.sub.cols, v.cols, sol.data[:amb.sub.cols]) if amb.sub.cols \
            else IntMat(0, v.cols, ())
        return (self.fwd @ u).mod(ring)


def realize_subquotient(sq: Subquotient) -> SubquotientRealization:
    ring = sq.ambient.ring
    combined = sq.den.hstack(sq.ambient.rel)
    ker = kernel_basis(sq.sub.hstack(combined.scale(-1)), ring)
    rel = IntMat(sq.sub.cols, ker.cols, ker.data[:sq.sub.cols]) if sq.sub.cols \
        else IntMat(0, ker.cols, ())
    module, fwd, bwd = present_with_iso(ring, sq.sub.cols, rel)
    return SubquotientRealization(sq, module, fwd, bwd)


def subquotient(ambient: FPModule, sub: IntMat, den: IntMat | None = None) -> SubquotientRealization:
    if den is None:
        den = IntMat.zeros(ambient.gens, 0)
    return realize_subquotient(Subquotient(ambient, sub, den))


# ---------------------------------------------------------------------------
# kernels, cokernels, images


@dataclass(frozen=True, eq=False)
class KernelRealization:
    module: FPModule
    include: Morphism
    _sq: SubquotientRealization

    def encode(self, v: IntMat) -> IntMat:
        return self._sq.encode(v)


def kernel_generators(f: Morphism) -> IntMat:
    """Generators of ker f in source coordinates: the v with f.mat @ v in the
    column span of the target's relations."""
    ring = f.source.ring
    gens = f.source.gens
    raw = kernel_basis(f.mat.hstack(f.target.rel.scale(-1)), ring)
    sub = IntMat(gens, raw.cols, raw.data[:gens]) if gens else IntMat(0, raw.cols, ())
    return sub.mod(ring)


def kernel_realization(f: Morphism) -> KernelRealization:
    sq = subquotient(f.source, kernel_generators(f))
    include = make_morphism(sq.module, f.source, sq.decode_matrix())
    return KernelRealization(sq.module, include, sq)


def kernel(f: Morphism) -> tuple[FPModule, Morphism]:
    k = kernel_realization(f)
    return k.module, k.include


@dataclass(frozen=True, eq=False)
class CokernelRealization:
    module: FPModule
    project: Morphism
    lift: IntMat  # module coordinates -> target coordinates (a section)


def cokernel_realization(f: Morphism) -> CokernelRealization:
    module, fwd, bwd = present_with_iso(
        f.target.ring, f.target.gens, f.target.rel.hstack(f.mat))
    return CokernelRealization(module, make_morphism(f.target, module, fwd), bwd)


def cokernel(f: Morphism) -> tuple[FPModule, Morphism]:
    c = cokernel_realization(f)
    return c.module, c.project


def epi_mono_factor(f: Morphism) -> tuple[Morphism, Morphism]:
    """f = m . e with e epi onto the image and m mono into the target."""
    sq = subquotient(f.target, f.mat)
    e = make_morphism(f.source, sq.module, sq.fwd)
    m = make_morphism(sq.module, f.target, sq.decode_matrix())
    return e, m


def image(f: Morphism) -> FPModule:
    return epi_mono_factor(f)[0].target


# ---------------------------------------------------------------------------
# direct sums


@dataclass(frozen=True, eq=False)
class DirectSum:
    module: FPModule
    injections: tuple[Morphism, ...]
    projections: tuple[Morphism, ...]


def direct_sum(summands) -> DirectSum:
    summands = list(summands)
    if not summands:
        raise DimensionMismatch("direct sum of no summands; use zero_module")
    ring = summands[0].ring
    gens = sum(m.gens for m in summands)
    rel = IntMat.block_diag([m.rel for m in summands])
    module, fwd, bwd = present_with_iso(ring, gens, rel)
    injections, projections = [], []
    offset = 0
    for m in summands:
        block_in = IntMat.zeros(gens, m.gens)
        rows = [list(r) for r in block_in.data]
        for i in range(m.gens):
            rows[offset + i][i] = 1
        block_in = IntMat.from_rows(rows) if gens else IntMat(0, m.gens, ())
        block_out = block_in.transpose()
        injections.append(make_morphism(m, module, (fwd @ block_in).mod(ring)))
        projections.append(make_morphism(module, m, (block_out @ bwd).mod(ring)))
        offset += m.gens
    return DirectSum(module, tuple(injections), tuple(projections))


def direct_sum_morphism(fs) -> Morphism:
    """Block-diagonal morphism between the normalized direct sums."""
    fs = list(fs)
    src = direct_sum([f.source for f in fs])
    tgt = direct_sum([f.target for f in fs])
    mat = IntMat.zeros(tgt.module.gens, src.module.gens)
    for f, proj_s, inj_t in zip(fs, src.projections, tgt.injections):
        mat = mat + (inj_t.mat @ f.mat @ proj_s.mat)
    return make_morphism(src.module, tgt.module, mat.mod(fs[0].source.ring))


# ---------------------------------------------------------------------------
# hom and tensor


@dataclass(frozen=True, eq=False)
class HomRealization:
    source: FPModule
    target: FPModule
    module: FPModule
    _sq: SubquotientRealization

    def decode(self, v: IntMat) -> Morphism:
        amb = self._sq.decode(v)
        g = _unvec(amb, self.target.gens, self.source.gens)
        return make_morphism(self.source, self.target, g)

    def encode(self, f: Morphism) -> IntMat:
        return self._sq.encode(_vec(f.mat))

    def encode_ambient(self, cols: IntMat) -> IntMat:
        """Vectorized generator matrices (ambient coords) -> module coords."""
        return self._sq.encode(cols)

    def ambient_decode_matrix(self) -> IntMat:
        return self._sq.decode_matrix()


def _vec(g: IntMat) -> IntMat:
    cols = []
    for j in range(g.cols):
        cols.extend(g.col_list(j))
    return IntMat.column(cols) if cols else IntMat(0, 1, ())


def _unvec(v: IntMat, rows: int, cols: int) -> IntMat:
    data = [r[0] for r in v.data]
    return IntMat.from_rows([[data[j * rows + i] for j in range(cols)]
                             for i in range(rows)]) if rows else IntMat(0, cols, ())


@lru_cache(maxsize=4096)
def hom_module(m: FPModule, n: FPModule) -> HomRealization:
    """Hom(M, N) as a module over the (commutative) base ring.

    Realized as a subquotient of the free module on vec(G): the subobject is
    cut out by G @ P_M = P_N @ X being solvable, the denominators are the
    matrices P_N @ Y.
    """
    if m.ring != n.ring:
        raise DimensionMismatch("hom across different rings")
    ring = m.ring
    amb = free_module(ring, n.gens * m.gens)
    constraint = m.rel.transpose().kron(IntMat.identity(n.gens))
    slack = IntMat.identity(m.rel.cols).kron(n.rel)
    raw = kernel_basis(constraint.hstack(slack.scale(-1)), ring)
    sub = IntMat(amb.gens, raw.cols, raw.data[:amb.gens]) if amb.gens else IntMat(0, raw.cols, ())
    den = IntMat.identity(m.gens).kron(n.rel)
    sq = subquotient(amb, sub, den)
    return HomRealization(m, n, sq.module, sq)


def hom_transport(h_from: HomRealization, h_to: HomRealization, left: IntMat,
                  right: IntMat, coords: IntMat) -> IntMat:
    """Coordinates in h_to of G -> left @ G @ right, applied to the elements
    of h_from whose coordinates are the columns of ``coords``.

    One encode of the transformed ambient decode: with column-major
    vectorization, vec(L G R) = (R^T (x) L) vec(G).
    """
    ambient = right.transpose().kron(left) @ h_from._sq.decode(coords)
    return h_to.encode_ambient(ambient)


def hom_push(h_from: HomRealization, h_to: HomRealization, phi: Morphism) -> Morphism:
    """Hom(A, X) -> Hom(A, Y) induced by phi: X -> Y (postcomposition)."""
    if phi.source != h_from.target:
        raise DimensionMismatch("compose: middle objects differ")
    ident = IntMat.identity(h_from.module.gens)
    mat = hom_transport(h_from, h_to, phi.mat,
                        IntMat.identity(h_from.source.gens), ident)
    return make_morphism(h_from.module, h_to.module, mat)


def hom_pull(h_from: HomRealization, h_to: HomRealization, phi: Morphism) -> Morphism:
    """Hom(Y, B) -> Hom(X, B) induced by phi: X -> Y (precomposition)."""
    if phi.target != h_from.source:
        raise DimensionMismatch("compose: middle objects differ")
    ident = IntMat.identity(h_from.module.gens)
    mat = hom_transport(h_from, h_to, IntMat.identity(h_from.target.gens),
                        phi.mat, ident)
    return make_morphism(h_from.module, h_to.module, mat)


def solve_for_morphism(source: FPModule, target: FPModule, conditions) -> Morphism | None:
    """Find a morphism H: source -> target with L @ H @ R = rhs modulo the
    column span of ``ambient_rel``, for every (L, R, rhs[, ambient_rel]).

    Well-definedness of H is part of the system.  This one solver powers
    factoring through monos, extending along monos into injectives, chain-map
    lifting, and retraction search for splitting tests.
    """
    ring = source.ring
    gs, gt = source.gens, target.gens
    h_width = gs * gt
    conds = []
    for cond in conditions:
        L, R, rhs = cond[0], cond[1], cond[2]
        amb = cond[3] if len(cond) > 3 else IntMat.zeros(L.rows, 0)
        conds.append((L, R, rhs, amb))
    conds.append((IntMat.identity(gt), source.rel,
                  IntMat.zeros(gt, source.rel.cols), target.rel))
    row_blocks = []
    rhs_blocks = []
    slack_widths = [c[1].cols * c[3].cols for c in conds]
    for idx, (L, R, rhs, amb) in enumerate(conds):
        coeff = R.transpose().kron(L)
        row = coeff
        for j, w in enumerate(slack_widths):
            block = IntMat.identity(R.cols).kron(amb) if j == idx \
                else IntMat.zeros(coeff.rows, w)
            row = row.hstack(block)
        row_blocks.append(row)
        rhs_blocks.append(_vec(rhs))
    big = row_blocks[0]
    vec = rhs_blocks[0]
    for row, r in zip(row_blocks[1:], rhs_blocks[1:]):
        big = big.vstack(row)
        vec = vec.vstack(r)
    sol = solve_matrix(big, vec, ring)
    if sol is None:
        return None
    h = _unvec(IntMat(h_width, 1, sol.data[:h_width]) if h_width
               else IntMat.zeros(0, 1), gt, gs)
    return make_morphism(source, target, h)


@dataclass(frozen=True, eq=False)
class TensorRealization:
    left: FPModule
    right: FPModule
    module: FPModule
    fwd: IntMat  # raw (g_left*g_right) coordinates -> module coordinates
    bwd: IntMat

    def pure(self, x: IntMat, y: IntMat) -> IntMat:
        ring = self.module.ring
        raw = []
        for i in range(self.left.gens):
            for j in range(self.right.gens):
                raw.append(x.data[i][0] * y.data[j][0])
        col = IntMat.column(raw) if raw else IntMat(0, 1, ())
        return (self.fwd @ col).mod(ring)


@lru_cache(maxsize=4096)
def tensor_module(m: FPModule, n: FPModule) -> TensorRealization:
    """M (x) N presented on generator pairs with relations P_M (x) 1, 1 (x) P_N."""
    if m.ring != n.ring:
        raise DimensionMismatch("tensor across different rings")
    ring = m.ring
    gens = m.gens * n.gens
    rel = m.rel.kron(IntMat.identity(n.gens)).hstack(
        IntMat.identity(m.gens).kron(n.rel))
    module, fwd, bwd = present_with_iso(ring, gens, rel)
    return TensorRealization(m, n, module, fwd, bwd)


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g between the normalized tensor modules."""
    src = tensor_module(f.source, g.source)
    tgt = tensor_module(f.target, g.target)
    raw = f.mat.kron(g.mat)
    ring = f.source.ring
    return make_morphism(src.module, tgt.module, (tgt.fwd @ raw @ src.bwd).mod(ring))


# ---------------------------------------------------------------------------
# duality, evaluation, transpose


def dual(m: FPModule) -> FPModule:
    return hom_module(m, free_module(m.ring, 1)).module


def evaluation_map(m: FPModule) -> Morphism:
    """The canonical map M -> M** sending a generator to evaluation at it."""
    r1 = free_module(m.ring, 1)
    star = hom_module(m, r1)
    dstar = hom_module(star.module, r1)
    # row k of the transposed decode is the k-th generator functional, so
    # column i, read as a 1 x g matrix, is evaluation at generator i
    functionals = star.ambient_decode_matrix().transpose()
    return make_morphism(m, dstar.module, dstar.encode_ambient(functionals))


def transpose(m: FPModule) -> FPModule:
    """Cokernel of the dualized presentation; depends on the stored
    presentation, well-defined up to stable equivalence."""
    return make_module(m.ring, m.rel.transpose())
