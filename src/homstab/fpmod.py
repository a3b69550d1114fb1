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

Realizations.  Every constructed module (subquotient, homology, kernel,
cokernel, Hom, tensor) comes back as a realization inside an ambient
coordinate system, with one contract:

* ``module``: the normalized module;
* ``decode``: one matrix, module coordinates -> ambient coordinates (a
  representative of each class);
* ``encode(cols)``: ambient columns -> module coordinates.

There are two shapes.  A ``SubquotientRealization`` is a subquotient,
homology or kernel of the module it sits in, or Hom(M, N) (held by a
``HomRealization``) inside the free module on vec(G).  A
``CokernelRealization`` is a trimmed presentation of a quotient of its
ambient: a cokernel of the target, or M (x) N, the cokernel of its relation
matrix on the raw generator pairs; its encode is ``fwd @ cols``.
``Own(m)`` realizes m in its own coordinates.  ``Within(outer, inner)``
carries a realization whose ambient is ``outer.module`` (a cokernel or
homology inside a Hom module) over to outer's ambient: decode is
``outer.decode @ inner.decode``, encode runs outer's encode and then
inner's.

A realization carries no maps.  An inclusion or projection is induced where
it is read: ``kernel(f)`` returns ``induced(k, Own(f.source))`` and
``cokernel(f)`` returns ``induced(Own(f.target), c)``.

Every map between constructed modules is built one of two ways:

* induced: ``induced(src, tgt, arrow)`` is ``tgt.encode(arrow @ src.decode)``
  for a matrix between the two ambients, checked for well-definedness like
  any other morphism.  On vectorized generator matrices
  vec(L G R) = (R^T (x) L) vec(G), and two helpers write the two arrows
  of a Hom map: ``push_arrow(A, M)`` is 1 (x) M (G |-> M G) and
  ``pull_arrow(M, B)`` is M^T (x) 1 (G |-> G M).  ``hom_push(A, phi)`` is
  Hom(A, phi) and ``hom_pull(phi, B)`` is Hom(phi, B); each looks up both
  Hom modules itself, so they always agree with phi.  A map between
  cokernels or homologies of Hom modules is induced along the same two
  arrows, so the vec(G) convention is written only here;
* solved: ``factor_through(g, m)`` finds h with m . h = g and
  ``extend_along(g, m)`` finds h with h . m = g; each returns None when there
  is no such h.  Both solve one linear system (the equation modulo the
  target's relations, plus the well-definedness of h), which serves
  factoring through monos, extending into injectives, the comparison theorem
  and retraction search.

Membership.  Every verdict (a map is well defined, a composite is zero, a
sequence is exact at a node) asks whether the columns of B lie in the
column span of A, and ``in_span`` decides it as "B is zero in coker(A)".
The trimmed presentation of coker(A) keeps the rows of the SNF transform U
whose divisor is not 1 as ``fwd``, and B is zero there iff each row i of
fwd @ B is divisible by the i-th kept divisor: the i-th diagonal entry of
the relations for a torsion row, 0 over Z (equal to zero) and n over Z/n
for a free row.  No solution is built, and the elimination of A is the one
``present_with_iso`` keeps for the cokernel.

Caching.  ``present_with_iso`` is an ``lru_cache`` of 2048 entries and
``subquotient`` one of 1024, keyed by their arguments: (ring, gens, rel)
and (ambient, sub, den), all immutable values that hash once.
``present_with_iso`` also serves ``in_span``, so a matrix that is both
presented and tested for membership is eliminated once.  ``zero_module``
keeps one zero module per ring, which ``free_module(ring, 0)`` and every
presentation with no generators left return, so two zero modules compare
by identity.  Equal inputs
built as separate objects share one result, so one trimmed presentation
and one ``SubquotientRealization`` (with its cached ``decode`` and
``_span``) serve every caller; nothing may write to them.  Exceptions are
not cached: a ``den`` outside ``sub`` raises ``MembershipError`` on every
call.  ``make_morphism`` and ``induced`` are not cached, and neither are
the kernel, cokernel and image constructions that call the two cached
functions, so every morphism they emit is checked for well-definedness.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

from .errors import DimensionMismatch, MembershipError, NotWellDefined
from .exactlin import (
    ZZ, IntMat, RingDesc, _snf_u, invariant_divisors, kernel_basis,
    solve_matrix,
)
# not called here; bound because perfbench/test_smoke.py asserts that the
# tracer patches ``fpmod.snf``
from .exactlin import snf  # noqa: F401


# ---------------------------------------------------------------------------
# modules


class FPModule:
    """The module presented by ``rel`` (gens x number of relations).

    Immutable by convention: compared by presentation, and the hash is
    computed once, on first use, and stored, as for ``IntMat``.
    """

    __slots__ = ("ring", "gens", "rel", "_hash")

    def __init__(self, ring: RingDesc, gens: int, rel: IntMat):
        if rel.rows != gens:
            raise DimensionMismatch("presentation rows must equal generator count")
        self.ring = ring
        self.gens = gens
        self.rel = rel
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring == other.ring and self.gens == other.gens
                and self.rel == other.rel)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ring, self.gens, self.rel))
        return h

    def __repr__(self):
        return f"FPModule(ring={self.ring!r}, gens={self.gens!r}, rel={self.rel!r})"

    def __reduce__(self):
        # the stored hash is left out: hash(None), so Z's hash, differs
        # between processes
        return FPModule, (self.ring, self.gens, self.rel)

    def is_zero(self) -> bool:
        return self.gens == 0

    def __str__(self):
        divs, free = canonical_invariants(self)
        parts = [f"{self.ring}/{d}" if self.ring.modulus is None else f"Z/{d}"
                 for d in divs]
        if free:
            parts.append(f"{self.ring}^{free}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=2048)
def present_with_iso(ring: RingDesc, gens: int, rel: IntMat):
    """Trim a raw presentation; returns (module, fwd, bwd).

    fwd maps old generator coordinates to the trimmed module's, bwd is a
    section; fwd @ bwd is the identity and both induce mutually inverse
    module isomorphisms.
    """
    fwd, bwd, divisors = _snf_u(rel, ring)  # reduced mod n
    if not divisors:
        return zero_module(ring), fwd, bwd
    # the kept divisors run nonunit, then 0 (free), so torsion leads
    torsion = [d for d in divisors if d]
    module = FPModule(ring, len(divisors),
                      IntMat.diag(torsion, rows=len(divisors), cols=len(torsion)))
    return module, fwd, bwd


def in_span(a: IntMat, b: IntMat, ring: RingDesc) -> bool:
    """Whether B's columns lie in the column span of A over the ring.

    Decides what ``solve_matrix(a, b, ring) is not None`` decides, from the
    trimmed presentation of coker(A) and without building a solution (see
    "Membership" above).  Every divisor divides n over Z/n, so B need not
    be reduced.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"in_span: {a.rows} rows vs rhs {b.rows}")
    if not (b.rows and b.cols):  # the zero matrix is in every span
        return True
    module, fwd, _ = present_with_iso(ring, a.rows, a)
    rel, brows = module.rel, b.nz
    free = ring.modulus or 0
    for i, row in enumerate(fwd.nz):
        acc = {}  # row i of fwd @ B
        get = acc.get
        for k, c in row:
            for j, x in brows[k]:
                acc[j] = get(j, 0) + c * x
        d = rel.nz[i][0][1] if i < rel.cols else free  # the torsion is nonzero
        if any(x % d for x in acc.values()) if d else any(acc.values()):
            return False
    return True


def make_module(ring: RingDesc, rel, gens: int | None = None) -> FPModule:
    """Normalized module presented by the given relation matrix."""
    mat = rel if isinstance(rel, IntMat) else IntMat.from_rows(rel)
    g = mat.rows if gens is None else gens
    if gens is not None and mat.rows != gens:
        raise DimensionMismatch("relations do not match generator count")
    module, _, _ = present_with_iso(ring, g, mat)
    return module


def free_module(ring: RingDesc, rank: int) -> FPModule:
    if not rank:
        return zero_module(ring)
    return FPModule(ring, rank, IntMat.zeros(rank, 0))


@lru_cache(maxsize=64)
def zero_module(ring: RingDesc) -> FPModule:
    """The zero module over the ring: one shared object per ring, so that
    comparing two zero modules is an identity test."""
    return FPModule(ring, 0, IntMat.zeros(0, 0))


def cyclic(ring: RingDesc, d: int) -> FPModule:
    return make_module(ring, IntMat.from_rows([[d]]))


@lru_cache(maxsize=16384)
def canonical_invariants(m: FPModule) -> tuple[tuple[int, ...], int]:
    """Torsion divisors (divisibility order) and free rank; the full
    classification datum over a principal ideal ring."""
    return invariant_divisors(m.rel, m.ring)


def iso_test(m: FPModule, n: FPModule) -> bool:
    return m.ring == n.ring and canonical_invariants(m) == canonical_invariants(n)


def stable_invariants(m: FPModule) -> tuple:
    """Classification modulo projectives: over Z drop the free rank; over Z/n
    drop, per prime, cyclic components equal to the full local component,
    and return the invariant factors of what is left.

    No factoring of n: for a cyclic factor Z/d (d | n) the primes p with
    0 < v_p(d) < v_p(n) are those dividing g = gcd(d, n/d).  Stripping them
    from d leaves c, the product of d's full components, and d // c is the
    stable part."""
    divs, free = canonical_invariants(m)
    if m.ring.modulus is None:
        return tuple(sorted(divs))
    n = m.ring.modulus
    parts = []
    for d in list(divs) + [n] * free:
        g, c = gcd(d, n // d), d
        while (h := gcd(c, g)) > 1:
            c //= h
        parts.append(d // c)
    return invariant_divisors(IntMat.diag(parts), ZZ)[0]


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
    Z/d (d | n) is a unitary divisor, gcd(d, n/d) = 1: per prime, each
    component is the full p-part.  No factoring of n."""
    divs, _ = canonical_invariants(m)
    if m.ring.modulus is None:
        return not divs
    n = m.ring.modulus
    return all(gcd(d, n // d) == 1 for d in divs)


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """source -> target by the generator matrix ``mat`` (g_target x
    g_source).  Compared by identity: use ``morphisms_equal`` for equality
    of maps."""

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: FPModule, target: FPModule, mat: IntMat):
        self.source = source
        self.target = target
        self.mat = mat

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
    G @ P_source = P_target @ X is solvable.

    The check always runs: ``in_span`` decides whether the columns of
    G @ P_source lie in the span of P_target, and builds no X."""
    if source.ring != target.ring:
        raise DimensionMismatch("morphism across different rings")
    g = mat if isinstance(mat, IntMat) else IntMat.from_rows(mat)
    if (g.rows, g.cols) != (target.gens, source.gens):
        raise DimensionMismatch(
            f"generator matrix must be {target.gens}x{source.gens}, got {g.rows}x{g.cols}")
    ring = source.ring
    g = g.mod(ring)
    if not in_span(target.rel, g @ source.rel, ring):
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


class Subquotient:
    """(span(sub) + relations) / (span(den) + relations) inside ``ambient``."""

    __slots__ = ("ambient", "sub", "den")

    def __init__(self, ambient: FPModule, sub: IntMat, den: IntMat):
        if sub.rows != ambient.gens or den.rows != ambient.gens:
            raise DimensionMismatch("subquotient generators must live in the ambient")
        if not in_span(sub.hstack(ambient.rel), den, ambient.ring):
            raise MembershipError("denominators do not lie in the subobject")
        self.ambient = ambient
        self.sub = sub
        self.den = den


class SubquotientRealization:
    def __init__(self, subq: Subquotient, module: FPModule, fwd: IntMat, bwd: IntMat):
        self.subq = subq
        self.module = module
        self.fwd = fwd  # sub-coordinates -> module coordinates
        self.bwd = bwd  # module coordinates -> sub-coordinates

    @cached_property
    def decode(self) -> IntMat:
        """Module coordinates -> ambient coordinates (coset representatives)."""
        return (self.subq.sub @ self.bwd).mod(self.module.ring)

    @cached_property
    def _span(self) -> IntMat:
        """sub | den | ambient relations, built once per distinct
        subquotient: ``subquotient`` hands every caller the same
        realization, so every encode of it solves against this one matrix
        and the SNF cache hashes it once."""
        sq = self.subq
        return sq.sub.hstack(sq.den).hstack(sq.ambient.rel)

    def encode(self, v: IntMat) -> IntMat:
        """Ambient coordinates -> module coordinates; MembershipError if the
        element is not in the subobject."""
        ring = self.module.ring
        sol = solve_matrix(self._span, v, ring)
        if sol is None:
            raise MembershipError("element lies outside the subquotient")
        k = self.subq.sub.cols
        u = IntMat(k, v.cols, None, sol.nz[:k])
        return (self.fwd @ u).mod(ring)


@lru_cache(maxsize=1024)
def subquotient(ambient: FPModule, sub: IntMat, den: IntMat | None = None) -> SubquotientRealization:
    if den is None:
        den = IntMat.zeros(ambient.gens, 0)
    sq = Subquotient(ambient, sub, den)
    ring = ambient.ring
    rel = _preimage(sub, den.hstack(ambient.rel), ring)
    module, fwd, bwd = present_with_iso(ring, sub.cols, rel)
    return SubquotientRealization(sq, module, fwd, bwd)


class Own:
    """A module realized in its own coordinates."""

    def __init__(self, module: FPModule):
        self.module = module

    @cached_property
    def decode(self) -> IntMat:
        return IntMat.identity(self.module.gens)

    def encode(self, cols: IntMat) -> IntMat:
        return cols


class Within:
    """``inner``, whose ambient is ``outer.module``, in outer's ambient."""

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner

    @property
    def module(self) -> FPModule:
        return self.inner.module

    @cached_property
    def decode(self) -> IntMat:
        return self.outer.decode @ self.inner.decode

    def encode(self, cols: IntMat) -> IntMat:
        return self.inner.encode(self.outer.encode(cols))


def induced(src, tgt, arrow: IntMat | None = None) -> Morphism:
    """src.module -> tgt.module induced by ``arrow`` between their ambients
    (by the identity when both share one ambient)."""
    cols = src.decode if arrow is None else arrow @ src.decode
    return make_morphism(src.module, tgt.module, tgt.encode(cols))


# ---------------------------------------------------------------------------
# kernels, cokernels, images


def _preimage(x: IntMat, y: IntMat, ring: RingDesc) -> IntMat:
    """Generators of the v with X @ v in the column span of Y: the kernel of
    [X | -Y] cut to X's coordinates."""
    ker = kernel_basis(x.hstack(y.negate(ring)), ring)
    return IntMat(x.cols, ker.cols, None, ker.nz[:x.cols])


def kernel_generators(f: Morphism) -> IntMat:
    """Generators of ker f in source coordinates: the v with f.mat @ v in the
    column span of the target's relations."""
    return _preimage(f.mat, f.target.rel, f.source.ring)


def kernel_realization(f: Morphism) -> SubquotientRealization:
    return subquotient(f.source, kernel_generators(f))


def kernel(f: Morphism) -> tuple[FPModule, Morphism]:
    k = kernel_realization(f)
    return k.module, induced(k, Own(f.source))


class CokernelRealization:
    """A trimmed presentation of a quotient of its ambient."""

    __slots__ = ("module", "fwd", "decode")

    def __init__(self, module: FPModule, fwd: IntMat, decode: IntMat):
        self.module = module
        self.fwd = fwd  # ambient coordinates -> module coordinates
        self.decode = decode  # module coordinates -> ambient coordinates (a section)

    def encode(self, cols: IntMat) -> IntMat:
        return self.fwd @ cols


def cokernel_realization(f: Morphism) -> CokernelRealization:
    return CokernelRealization(*present_with_iso(
        f.target.ring, f.target.gens, f.target.rel.hstack(f.mat)))


def cokernel(f: Morphism) -> tuple[FPModule, Morphism]:
    c = cokernel_realization(f)
    return c.module, induced(Own(f.target), c)


def epi_mono_factor(f: Morphism) -> tuple[Morphism, Morphism]:
    """f = m . e with e epi onto the image and m mono into the target."""
    sq = subquotient(f.target, f.mat)
    e = make_morphism(f.source, sq.module, sq.fwd)
    m = make_morphism(sq.module, f.target, sq.decode)
    return e, m


def image(f: Morphism) -> FPModule:
    return subquotient(f.target, f.mat).module


# ---------------------------------------------------------------------------
# direct sums


class DirectSum:
    __slots__ = ("module", "injections", "projections")

    def __init__(self, module: FPModule, injections: tuple[Morphism, ...],
                 projections: tuple[Morphism, ...]):
        self.module = module
        self.injections = injections
        self.projections = projections


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
        block_in = IntMat(gens, m.gens, None, ((),) * offset
                          + tuple(((i, 1),) for i in range(m.gens))
                          + ((),) * (gens - offset - m.gens))
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


class HomRealization:
    __slots__ = ("source", "target", "module", "_sq")

    def __init__(self, source: FPModule, target: FPModule, module: FPModule,
                 _sq: SubquotientRealization):
        self.source = source
        self.target = target
        self.module = module
        self._sq = _sq

    @property
    def decode(self) -> IntMat:
        """Module coordinates -> vectorized generator matrices."""
        return self._sq.decode

    def encode(self, cols: IntMat) -> IntMat:
        return self._sq.encode(cols)

    def morphism(self, coords: IntMat) -> Morphism:
        """The morphism whose coordinates are the column ``coords``."""
        g = _unvec(self.decode @ coords, self.target.gens, self.source.gens)
        return make_morphism(self.source, self.target, g)

    def coords(self, f: Morphism) -> IntMat:
        return self.encode(_vec(f.mat))


def _vec(g: IntMat) -> IntMat:
    """The columns of G stacked into one column: G[i][j] is entry j*rows + i."""
    out = [()] * (g.rows * g.cols)
    for i, r in enumerate(g.nz):
        for j, x in r:
            out[j * g.rows + i] = ((0, x),)
    return IntMat(len(out), 1, None, tuple(out))


def _unvec(v: IntMat, rows: int, cols: int) -> IntMat:
    """The rows x cols matrix G with ``_vec(G) == v``."""
    out = [[] for _ in range(rows)]
    for p, r in enumerate(v.nz):
        if r:
            j, i = divmod(p, rows)
            out[i].append((j, r[0][1]))
    return IntMat(rows, cols, None, tuple(map(tuple, out)))


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
    sub = _preimage(constraint, slack, ring)
    den = IntMat.identity(m.gens).kron(n.rel)
    sq = subquotient(amb, sub, den)
    return HomRealization(m, n, sq.module, sq)


def push_arrow(a: FPModule, mat: IntMat) -> IntMat:
    """1 (x) M: vec(G) -> vec(M G) for generator matrices G with A's
    generators as columns."""
    return IntMat.identity(a.gens).kron(mat)


def pull_arrow(mat: IntMat, b: FPModule) -> IntMat:
    """M^T (x) 1: vec(G) -> vec(G M) for generator matrices G with B's
    generators as rows."""
    return mat.transpose().kron(IntMat.identity(b.gens))


def hom_push(a: FPModule, phi: Morphism) -> Morphism:
    """Hom(A, X) -> Hom(A, Y) induced by phi: X -> Y (postcomposition)."""
    return induced(hom_module(a, phi.source), hom_module(a, phi.target),
                   push_arrow(a, phi.mat))


def hom_pull(phi: Morphism, b: FPModule) -> Morphism:
    """Hom(Y, B) -> Hom(X, B) induced by phi: X -> Y (precomposition)."""
    return induced(hom_module(phi.target, b), hom_module(phi.source, b),
                   pull_arrow(phi.mat, b))


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


@lru_cache(maxsize=4096)
def tensor_module(m: FPModule, n: FPModule) -> CokernelRealization:
    """M (x) N presented on generator pairs with relations P_M (x) 1, 1 (x) P_N:
    the cokernel of that relation matrix."""
    if m.ring != n.ring:
        raise DimensionMismatch("tensor across different rings")
    ring = m.ring
    gens = m.gens * n.gens
    rel = m.rel.kron(IntMat.identity(n.gens)).hstack(
        IntMat.identity(m.gens).kron(n.rel))
    return CokernelRealization(*present_with_iso(ring, gens, rel))


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g between the normalized tensor modules."""
    return induced(tensor_module(f.source, g.source),
                   tensor_module(f.target, g.target), f.mat.kron(g.mat))


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
    functionals = star.decode.transpose()
    return make_morphism(m, dstar.module, dstar.encode(functionals))


def transpose(m: FPModule) -> FPModule:
    """Cokernel of the dualized presentation; depends on the stored
    presentation, well-defined up to stable equivalence."""
    return make_module(m.ring, m.rel.transpose())
