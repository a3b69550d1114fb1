"""Named property suites: one per acceptance criterion, plus a few finer
slices.

A suite body is ``body(spec, index, inputs)``: it draws its instance from
``(spec, index)`` alone, records the serialized instance into ``inputs`` (a
dict the runner owns, so a failure carries whatever was drawn so far) and
states each check as one ``_require``, ``_require_exact`` or
``_require_isos`` call.  Those helpers are the only raisers of
``SuiteFailure``; ``_suite(name)`` registers the body in ``SUITES`` as a
``(spec, index) -> {"ok", "node", "inputs"}`` function and is the only place
that catches it.  Any other exception propagates unchanged.  The runner
aggregates verdicts in index order, so reports are deterministic regardless
of worker count, and every failure carries the serialized inputs drawn so
far.
"""

from __future__ import annotations

import time
from random import Random

from .archeck import (
    ar_formula_check, bidual_check, stab_adjunction_check, stable_hom,
)
from .errors import UnknownSuite, WrongShape
from .fpmod import (
    canonical_invariants, cokernel_realization, direct_sum_morphism,
    free_module, hom_module, iso_test, kernel_realization, transpose,
    zero_morphism,
)
from .funcalc import (
    FP, ExtFixedFirst, HomContra, HomCov, TensorLeft, auslander_four_term,
    derived_eval, lam, quot_stabilize, rho, satellite, sub_stabilize,
    sub_stabilize_fp, torsion_radical,
)
from .fundseq import (
    circular_sequence, contra_fund, hereditary_decomposition, left_fund_cov,
    right_fund_cov, short_exact, splitting_test,
)
from .instances import (
    InstanceSpec, random_complex, random_composable_pair, random_module,
    random_morphism,
)
from .resolve import cosyzygy, ext, ext_tor_oracle_Z, tor
from .serialize import serialize_complex, serialize_module, serialize_morphism
from .uct import (
    coh_substab, cohomology_functor, delta_functor_checks, homology,
    homology_qstab, homology_tensor_functor, chains_mod_boundaries,
    uct_classical, uct_general, uct_special,
)


def _rng(spec: InstanceSpec, index: int) -> Random:
    return Random(f"{spec.seed}:{index}")


def _mod(rng, spec, **kw):
    return random_module(rng, spec.ring, spec.max_gens, spec.max_rels,
                         spec.max_entry, **kw)


def _modules(spec, index, inputs, *names):
    """Draw one module per name from (spec, index) and record each under
    its name; returns them in order."""
    rng = _rng(spec, index)
    mods = [_mod(rng, spec) for _ in names]
    inputs.update(zip(names, map(serialize_module, mods)))
    return mods


def _complex_at(spec, index, inputs, free=False, inner=0):
    """Draw a complex C of length 4, a module B and a degree n at least
    ``inner`` inside C's support, and record all three as C, B and n."""
    rng = _rng(spec, index)
    c = random_complex(rng, spec.ring, length=4, max_gens=spec.max_gens,
                       max_entry=spec.max_entry, free=free)
    b = _mod(rng, spec)
    n = rng.randint(c.lo + inner, c.hi - inner)
    inputs.update(C=serialize_complex(c), B=serialize_module(b), n=n)
    return c, b, n


def _iso_mor(f) -> bool:
    return (kernel_realization(f).module.is_zero()
            and cokernel_realization(f).module.is_zero())


# ---------------------------------------------------------------------------
# the one failure path


class SuiteFailure(Exception):
    """A suite check failed at ``node``; raised only by the helpers below."""

    def __init__(self, node: str):
        super().__init__(node)
        self.node = node


def _require(ok, node: str):
    if not ok:
        raise SuiteFailure(node)


def _require_exact(rep, prefix: str = "", away_from: str | None = None):
    """The report is exact (away from nodes of kind ``away_from``); the node
    is ``prefix`` plus the report's first failure."""
    ok = (rep.exact_everywhere() if away_from is None
          else rep.exact_away_from(away_from))
    if not ok:
        raise SuiteFailure(prefix + rep.failures()[0])


def _require_isos(metadata: dict, prefix: str):
    for key, ok in metadata.items():
        if key.endswith("_iso"):
            _require(ok, prefix + key)


SUITES: dict = {}


def _suite(name: str):
    """Register ``body(spec, index, inputs)`` as ``SUITES[name]``."""
    def register(body):
        def run(spec: InstanceSpec, index: int) -> dict:
            inputs: dict = {}
            try:
                body(spec, index, inputs)
            except SuiteFailure as failure:
                return {"ok": False, "node": failure.node, "inputs": inputs}
            return {"ok": True, "node": None, "inputs": inputs}
        SUITES[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# suite bodies


@_suite("circular-exactness")
def suite_circular(spec, index, inputs):
    f, g = random_composable_pair(_rng(spec, index), spec.ring, spec.max_gens,
                                  spec.max_rels, spec.max_entry)
    inputs.update(f=serialize_morphism(f), g=serialize_morphism(g))
    _require_exact(circular_sequence(f, g))


def _covariant_rows(spec, index, inputs, build, depth, coeffs=4):
    """Yield (name, functor, b, row) for Hom(a,-) and a (x) - at each drawn
    coefficient b, once the row is checked exact."""
    rng = _rng(spec, index)
    a = _mod(rng, spec)
    inputs.update(A=serialize_module(a), B=[])
    for _ in range(coeffs):
        b = _mod(rng, spec)
        inputs["B"].append(serialize_module(b))
        for name, expr in (("hom", HomCov(a)), ("tensor", TensorLeft(a))):
            rep = build(expr, b, depth)
            _require_exact(rep, f"{name}: ")
            yield name, expr, b, rep


@_suite("rfs-half-exact")
def suite_rfs_half_exact(spec, index, inputs, depth=3):
    for name, expr, b, rep in _covariant_rows(spec, index, inputs,
                                              right_fund_cov, depth):
        if name == "hom":
            _require(all(n.module.is_zero() for n in rep.nodes
                         if n.kind == "stab"), "hom: Fbar != 0")
            _require(_iso_mor(rho(expr, b)), "hom: rho not iso")
            continue
        _require(all(n.module.is_zero() for n in rep.nodes
                     if n.kind == "satellite"), "tensor: S^i != 0")
        for i in range(1, depth + 1):
            lhs = rep.node_module(f"R^{i}F(b)")
            rhs, _ = sub_stabilize(expr, cosyzygy(b, i + 1))
            _require(iso_test(lhs, rhs), f"tensor: R^{i} != Fbar(S^{i+1}b)")


@_suite("lfs-half-exact")
def suite_lfs_half_exact(spec, index, inputs, depth=3):
    for name, expr, b, rep in _covariant_rows(spec, index, inputs,
                                              left_fund_cov, depth):
        if name == "tensor":
            _require(_iso_mor(lam(expr, b)), "tensor: lambda not iso")
            for i in range(1, depth + 1):
                _require(iso_test(rep.node_module(f"L_{i}F(b)"),
                                  tor(expr.a, b, i)),
                         f"tensor: L_{i} != Tor_{i}")


@_suite("fp-identifications")
def suite_fp_identifications(spec, index, inputs, coeffs=5, depth=3):
    rng = _rng(spec, index)
    a = _mod(rng, spec)
    b = _mod(rng, spec)
    f = random_morphism(rng, a, b, spec.max_entry)
    expr = FP(f)
    w = kernel_realization(f).module
    inputs.update(f=serialize_morphism(f))
    for _ in range(coeffs):
        x = _mod(rng, spec)
        _require(iso_test(derived_eval(expr, 0, "right", x),
                          hom_module(w, x).module), "R^0F != Hom(w,-)")
        if spec.ring.quasi_frobenius:
            for i in range(depth + 1):
                _require(iso_test(derived_eval(expr, i, "right", x),
                                  ext(w, x, i)), f"R^{i}F != Ext^{i}(w,-)")
            lhs, _ = sub_stabilize_fp(expr, x)
            rhs, _ = sub_stabilize(expr, x)
            _require(iso_test(lhs, rhs), "substab_fp != substab")


@_suite("four-term")
def suite_four_term(spec, index, inputs):
    a, x = _modules(spec, index, inputs, "A", "X")
    tra = transpose(a)
    for side in ("tensor", "hom"):
        _require_exact(auslander_four_term(a, x, side), f"{side}: ")
    if spec.ring.quasi_frobenius:
        lhs, _ = sub_stabilize(TensorLeft(a), x)
        _require(iso_test(lhs, ext(tra, x, 1)),
                 "substab(tensor) != Ext^1(TrA,-)")
    lhs, _ = quot_stabilize(HomCov(a), x)
    _require(iso_test(lhs, tor(tra, x, 1)), "qstab(hom) != Tor_1(TrA,-)")


@_suite("ext-tor-oracle")
def suite_ext_tor_oracle(spec, index, inputs):
    m, n = _modules(spec, index, inputs, "M", "N")
    for i in (0, 1):
        _require(iso_test(ext(m, n, i), ext_tor_oracle_Z(m, n, i, "ext")),
                 f"ext^{i} != oracle")
        _require(iso_test(tor(m, n, i), ext_tor_oracle_Z(m, n, i, "tor")),
                 f"tor_{i} != oracle")
    for i in (2, 3):
        _require(ext(m, n, i).is_zero() and tor(m, n, i).is_zero(),
                 f"degree {i} should vanish")


@_suite("uct-classical")
def suite_uct_classical(spec, index, inputs, length=5):
    rng = _rng(spec, index)
    c = random_complex(rng, spec.ring, length=rng.randint(2, length),
                       max_gens=spec.max_gens, max_entry=spec.max_entry,
                       free=True)
    b = _mod(rng, spec)
    inputs.update(C=serialize_complex(c), B=serialize_module(b))
    for n in range(c.lo, c.hi + 1):
        for which in ("cohomology", "homology"):
            rep = uct_classical(c, b, n, which)
            _require(rep.exact_everywhere(), f"{which}@{n}: not exact")
            _require(rep.metadata.get("split"), f"{which}@{n}: not split")
            _require_isos(rep.metadata, f"{which}@{n}: ")


@_suite("uct-general")
def suite_uct_general(spec, index, inputs, depth=2):
    c, b, n = _complex_at(spec, index, inputs)
    for which in ("cohomology", "homology"):
        rep = uct_general(c, b, n, depth, which)
        _require(rep.is_complex(), f"{which}: not a complex")
        _require_exact(rep, f"{which}: ", away_from="derived")
        _require_isos(rep.metadata, f"{which}: ")
    if spec.ring.quasi_frobenius:
        lhs = coh_substab(c, n, b)
        rhs, _ = sub_stabilize(cohomology_functor(c, n), b)
        _require(iso_test(lhs, rhs), "coh_substab != substab")
    lhs = homology_qstab(c, n, b)
    rhs, _ = quot_stabilize(homology_tensor_functor(c, n), b)
    _require(iso_test(lhs, rhs), "homology_qstab != qstab")


@_suite("uct-special")
def suite_uct_special(spec, index, inputs, depth=3):
    c, b, n = _complex_at(spec, index, inputs, free=True, inner=1)
    for which in ("cohomology", "homology"):
        rep = uct_special(c, b, n, depth, which)
        _require_exact(rep, f"{which}: ")
        _require_isos(rep.metadata, f"{which}: ")
    for key, ok in delta_functor_checks(c, b, n).items():
        _require(ok, f"delta check {key}")


@_suite("uct-pinched")
def suite_uct_pinched(spec, index, inputs):
    c, b, n = _complex_at(spec, index, inputs, free=True)
    hn = homology(c, n).module
    cnb = chains_mod_boundaries(c, n).module
    _require(iso_test(ext(cnb, b, 1), ext(hn, b, 1)),
             "Ext^1(C_n/B_n) != Ext^1(H_n)")


@_suite("contra-collapse")
def suite_contra_collapse(spec, index, inputs, depth=2):
    cmod, b = _modules(spec, index, inputs, "C", "B")
    expr = HomContra(cmod)
    rep = contra_fund(expr, b, depth, "right")
    _require_exact(rep)
    _require(all(n.module.is_zero() for n in rep.nodes if n.kind == "stab"),
             "Fbar != 0")
    for i in range(1, depth + 1):
        _require(iso_test(rep.node_module(f"S^{i}F(b)"), ext(b, cmod, i)),
                 f"S^{i} != Ext^{i}(-,C)")
        _require(iso_test(rep.node_module(f"R_{i}F(b)"), ext(b, cmod, i)),
                 f"R_{i} != Ext^{i}(-,C)")
    if spec.ring.hereditary:
        _, include = sub_stabilize(expr, b)
        ses = short_exact(include, rho(expr, b))
        _require(ses.exact_everywhere(), "first row not exact")
        _require(splitting_test(ses)[0], "first row not split")


@_suite("ar-formula")
def suite_ar_formula(spec, index, inputs):
    a, b = _modules(spec, index, inputs, "A", "B")
    _require(ar_formula_check(a, b)["verdict"], "AR formula")


@_suite("stab-adjunction")
def suite_stab_adjunction(spec, index, inputs):
    a, b = _modules(spec, index, inputs, "A", "B")
    if spec.ring.quasi_frobenius:
        _require(stab_adjunction_check(a, b, "right")["verdict"],
                 "right adjunction")
    for q in (1, 2):
        _require(stab_adjunction_check(a, b, "left", q_rank=q)["verdict"],
                 f"left adjunction (Q rank {q})")


@_suite("bidual")
def suite_bidual(spec, index, inputs):
    [a] = _modules(spec, index, inputs, "A")
    _require_exact(bidual_check(a))


@_suite("torsion-radical")
def suite_torsion_radical(spec, index, inputs):
    [a] = _modules(spec, index, inputs, "A")
    rad, _ = torsion_radical(a)
    if spec.ring.hereditary:
        divisors, _free = canonical_invariants(a)
        _require(canonical_invariants(rad) == (tuple(divisors), 0),
                 "radical != torsion part")
    else:
        rhs, _ = sub_stabilize(TensorLeft(a), free_module(spec.ring, 1))
        _require(iso_test(rad, rhs), "radical != container kernel")


@_suite("hereditary-decomposition")
def suite_hereditary_decomposition(spec, index, inputs, samples=3):
    rng = _rng(spec, index)
    d = _mod(rng, spec, allow_zero=False)
    e = _mod(rng, spec)
    pres = direct_sum_morphism([
        ExtFixedFirst(d, 1).fp_presentation(),
        zero_morphism(e, free_module(spec.ring, 0))])
    f = FP(pres, half_exact=True)
    xs = [_mod(rng, spec) for _ in range(samples)]
    inputs.update(D=serialize_module(d), E=serialize_module(e),
                  X=[serialize_module(x) for x in xs])
    dec = hereditary_decomposition(f, xs)
    _require(iso_test(dec.w, e), "w(F) != E")
    _require(dec.all_ok(), "decomposition failed")
    for x, rep, _, _, _ in dec.samples:
        _require(iso_test(rep.node_module("A"), ext(d, x, 1)),
                 "Fbar != Ext^1(D,-)")


@_suite("satellite-recovery")
def suite_satellite_recovery(spec, index, inputs, samples=3):
    rng = _rng(spec, index)
    d = _mod(rng, spec, allow_zero=False)
    inputs.update(D=serialize_module(d))
    for _ in range(samples):
        x = _mod(rng, spec)
        lhs = satellite(ExtFixedFirst(d, 1), 1, "left", x)
        _require(iso_test(lhs, stable_hom(d, x, "projectives")),
                 "S_1 Ext^1(D,-) != stable Hom")
        rhs, _ = quot_stabilize(HomCov(d), x)
        _require(iso_test(lhs, rhs), "S_1 Ext^1(D,-) != qstab Hom(D,-)")


# ---------------------------------------------------------------------------
# runner


class SuiteReport:
    """Compared by value; unhashable, since it is filled in after it is built."""

    __slots__ = ("suite", "seed", "count", "passes", "failures",
                 "duration_ms", "warnings")

    def __init__(self, suite: str, seed: int, count: int, passes: int,
                 failures: list | None = None, duration_ms: int = 0,
                 warnings: list | None = None):
        self.suite = suite
        self.seed = seed
        self.count = count
        self.passes = passes
        self.failures = [] if failures is None else failures
        self.duration_ms = duration_ms
        self.warnings = [] if warnings is None else warnings

    def _fields(self) -> tuple:
        return (self.suite, self.seed, self.count, self.passes,
                self.failures, self.duration_ms, self.warnings)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return "SuiteReport(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields())) + ")"

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "count": self.count,
                "passes": self.passes, "failures": self.failures,
                "duration_ms": self.duration_ms}

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"{status} {self.suite}: {self.passes}/{self.count} "
                f"({self.duration_ms} ms)")


def _run_one(args):
    name, spec, index = args
    return SUITES[name](spec, index)


def run_suite(name: str, spec: InstanceSpec, workers: int = 1) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; known: "
                           + ", ".join(sorted(SUITES)))
    if workers < 1:
        raise WrongShape(f"workers must be at least 1, got {workers}")
    start = time.monotonic()
    jobs = [(name, spec, i) for i in range(spec.count)]
    if workers > 1 and spec.count > 1:
        # imported here: multiprocessing would otherwise load with every
        # CLI call, which runs serially
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    # both paths keep job order, so a result's position is its index
    report = SuiteReport(name, spec.seed, spec.count,
                         passes=sum(1 for r in results if r["ok"]))
    for index, r in enumerate(results):
        if not r["ok"]:
            report.failures.append({"index": index, "inputs": r["inputs"],
                                    "verdict": False, "node": r["node"]})
    if spec.count == 0:
        report.warnings.append("vacuous pass: zero instances requested")
    report.duration_ms = int((time.monotonic() - start) * 1000)
    return report
