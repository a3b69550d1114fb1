"""Metric names and units, and the per-layer metrics of a trace.

Per-layer names are ``<module>.<function>.<stat>``.  Each names the
end-to-end metric and workload it should move (see BENCHMARK.json):

* exactlin.intmat.*, snf_cache.hit_ratio, solve_matrix.* -> suite-mix ops_per_s
* exactlin.snf.*, kernel_basis.* -> large-modules op_ms_p50 / op_ms_p90
* fpmod.make_morphism.*, canonical_invariants, hom_push, hom_pull
  -> suite-mix op_ms_p50
* fpmod.hom_module.*, tensor_module.* -> large-modules latency, suite-mix
  peak_rss_mb
* resolve.* -> large-modules op_ms_p50
* funcalc / fundseq / uct / archeck builders -> suite-mix op_ms_p90
* seqreport.* -> suite-mix op_ms_p50; serialize.* -> suite-mix ops_per_s
* cli.* -> cli-oneshot op_ms_p50
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "exactlin.intmat.allocs", "exactlin.intmat.cells",
    "exactlin.snf_cache.hit_ratio",
    "exactlin.solve_matrix.calls", "exactlin.solve_matrix.self_s",
    "exactlin.snf.calls", "exactlin.snf.self_s", "exactlin.snf.max_digits",
    "exactlin.kernel_basis.calls", "exactlin.kernel_basis.self_s",
    "fpmod.make_morphism.calls", "fpmod.make_morphism.self_s",
    "fpmod.canonical_invariants.hit_ratio",
    "fpmod.hom_push.self_s", "fpmod.hom_pull.self_s",
    "fpmod.hom_module.calls", "fpmod.hom_module.self_s",
    "fpmod.hom_module.hit_ratio",
    "fpmod.tensor_module.calls", "fpmod.tensor_module.self_s",
    "fpmod.tensor_module.hit_ratio",
    "resolve.proj_resolution.self_s", "resolve.proj_resolution.hit_ratio",
    "resolve.inj_resolution.self_s", "resolve.inj_resolution.hit_ratio",
    "resolve.injective_container.hit_ratio",
    "resolve.ext.self_s", "resolve.tor.self_s",
    "funcalc.sub_stabilize.self_s", "funcalc.quot_stabilize.self_s",
    "funcalc.derived_eval.self_s", "funcalc.auslander_four_term.self_s",
    "fundseq.right_fund_cov.self_s", "fundseq.left_fund_cov.self_s",
    "fundseq.circular_sequence.self_s",
    "uct.uct_general.self_s",
    "archeck.ar_formula_check.self_s", "archeck.stab_adjunction_check.self_s",
    "seqreport.build_report.self_s",
    "seqreport.is_exact_at.calls", "seqreport.is_exact_at.self_s",
    "serialize.serialize_module.self_s",
    "cli.interp_ms", "cli.import_ms",
    "trace.ops_per_s_ratio", "trace.untraced_ops_per_s",
)

# functions wrapped by the tracer: every base with a call count or self time
TRACE_TARGETS = tuple(sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                              if name.endswith((".calls", ".self_s"))}))

CACHE_ALIASES = {"exactlin.snf_cache": "exactlin._snf_cached"}

_UNITS = {"calls": "count", "allocs": "count", "cells": "count",
          "self_s": "s", "hit_ratio": "ratio", "max_digits": "digits",
          "interp_ms": "ms", "import_ms": "ms", "ops_per_s_ratio": "ratio",
          "untraced_ops_per_s": "1/s"}


def layer_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def layer_metrics(trace: dict, caches: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from a tracer export, cache hit/miss totals
    and the values measured outside the tracer (``extra``)."""
    special = {"exactlin.intmat.allocs": trace["intmat_allocs"],
               "exactlin.intmat.cells": trace["intmat_cells"],
               "exactlin.snf.max_digits": trace["snf_max_digits"], **extra}
    out = {}
    for name in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif stat == "calls":
            value = trace["stats"].get(base, [0, 0, 0])[0]
        elif stat == "self_s":
            value = trace["stats"].get(base, [0, 0, 0])[2] / 1e9
        elif stat == "hit_ratio":
            hits, misses = caches.get(CACHE_ALIASES.get(base, base), (0, 0))
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            raise KeyError(name)
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out
