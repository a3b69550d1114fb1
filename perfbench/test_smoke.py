"""The benchmark's own tests.

    python3 -m pytest perfbench

A smoke run of every workload, untraced and traced, must print every metric
named in BENCHMARK.json with its unit and fail no op.  The oracle is checked
against the library on small cyclic modules, the tracer must restore every
name it patched, and the benchmark must refuse to run without the sources.
"""

import json
import shutil
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert any(line.split()[:3] == ["failed_ratio", "0", "ratio"]
               for line in lines)


def test_all_runs_every_workload_and_prefixes_its_metrics():
    proc = _run(ROOT, "--workload", "all", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
        for m in SPEC["end_to_end"]}


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


def test_oracle_matches_library_on_cyclic_pairs():
    from homstab import ZZ, Zmod, canonical_invariants, cyclic, ext, \
        hom_module, tor
    for modulus in (4, 8, 12, None):
        ring = ZZ if modulus is None else Zmod(modulus)
        orders = [d for d in range(2, 13) if modulus % d == 0] \
            if modulus else [0, 2, 3, 4, 6]
        for a in orders:
            for b in orders:
                ma, mb = cyclic(ring, a), cyclic(ring, b)
                for kind, got in (("hom", hom_module(ma, mb).module),
                                  ("ext", ext(ma, mb, 1)),
                                  ("tor", tor(ma, mb, 1))):
                    assert canonical_invariants(got) == \
                        oracle.bifunctor_answer(kind, [a], [b], modulus), \
                        (kind, modulus, a, b)


def test_invariant_chain():
    assert oracle.invariants([2, 3, 4, 0], None) == ((2, 12), 1)
    assert oracle.invariants([4, 3, 2], 12) == ((2,), 1)
    assert oracle.invariants([1, 1], None) == ((), 0)
    for a, b in ((4, 6), (8, 12), (9, 6)):
        assert oracle.invariants([a, b], None) == ((gcd(a, b), a * b // gcd(a, b)), 0)


def test_tracer_restores_every_name_and_finds_caches():
    import homstab
    modules = tracer.package_modules(homstab)
    before = [dict(vars(m)) for m in modules]
    intmat_init = homstab.exactlin.IntMat.__init__
    tr = tracer.Tracer()
    tr.install(modules, metrics.TRACE_TARGETS)
    assert homstab.fpmod.snf is not before[0]["snf"]
    assert homstab.exactlin.IntMat.__init__ is not intmat_init
    homstab.ext(homstab.cyclic(homstab.Zmod(4), 2),
                homstab.cyclic(homstab.Zmod(4), 2), 1)
    tr.restore()
    assert not tr.missing
    assert tr.stats["resolve.ext"][0] == 1 and tr.intmat_allocs > 0
    assert [dict(vars(m)) for m in modules] == before
    assert homstab.exactlin.IntMat.__init__ is intmat_init
    book = tracer.CacheBook(modules)
    assert {"exactlin._snf_cached", "fpmod.hom_module",
            "resolve.proj_resolution"} <= set(book.caches)
    book.clear()
    assert all(fn.cache_info().currsize == 0 for fn in book.caches.values())


def test_snf_digit_scan_is_not_caller_self_time(monkeypatch):
    import homstab
    from homstab.exactlin import ZZ, IntMat, _snf_cached
    pause_s = 0.05

    def slow_digits(res):
        time.sleep(pause_s)
        return 1

    monkeypatch.setattr(tracer, "_max_digits", slow_digits)
    _snf_cached.cache_clear()
    tr = tracer.Tracer()
    tr.install(tracer.package_modules(homstab),
               ["exactlin.kernel_basis", "exactlin.snf"])
    try:
        homstab.exactlin.kernel_basis(IntMat.from_rows([[1, 2, 3], [2, 4, 7]]),
                                      ZZ)
    finally:
        tr.restore()
    calls, total_ns, self_ns = tr.stats["exactlin.kernel_basis"]
    assert calls == 1 and tr.stats["exactlin.snf"][0] == 1
    assert total_ns >= pause_s * 1e9      # the hook ran inside the call ...
    assert self_ns < pause_s * 1e9 / 2    # ... but is not its self time


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "suite-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
