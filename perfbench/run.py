"""homstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite-mix --seed 20260810 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads are ``suite-mix``, ``large-modules`` and ``cli-oneshot`` (see
workloads.py); ``--workload all`` runs the three one after another, each in a
process of its own, so that peak_rss_mb and the caches are each workload's.

A run sets up several times and reports the median set-up time.  It then
runs the workload's ops single-threaded and closed-loop, in whole rounds of
the mix, until ``--seconds`` have passed and at least MIN_OPS ops are done,
and checks every output.  Every op has its own seeded input, so a run
averages over many inputs.

* ``--trace 0`` prints the end-to-end metrics of metrics.END_TO_END.
* ``--trace 1`` runs untraced for half the time, then replays exactly the
  same ops with spans recorded around the calls into each layer
  (tracer.py), checks that the replay gave the same result stream, and
  prints the per-layer metrics of metrics.PER_LAYER, including the tracing
  overhead (traced over untraced ops_per_s) and its base.
* ``--smoke`` shrinks everything for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
provenance, all metrics, ``failed_ratio`` and the workload's input
properties is written under perfbench/out/results/; a traced run also writes
its spans there.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import metrics
import tracer
from workloads import WORKLOADS, child_env

DEFAULT_SEED = 20260810
SETUP_REPS = 5
MIN_OPS = 100        # op_ms_p90 needs ten samples above it
PROBE_REPS = 5       # interpreter / import probes of a traced run
HARD_STOP_S = 150.0  # stop measuring, even inside a round, to exit in time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


class Env:
    """What a workload may use: paths, the library, its caches, the tracer."""

    def __init__(self, work: Path):
        self.bench_dir = BENCH_DIR
        self.work = work
        self.hs = None
        self.modules = []
        self.caches = None
        self.tracer = None
        self.child_env = None

    def load_library(self) -> None:
        """Import homstab from src/ here, and once in a fresh interpreter, so
        its byte code is written before any set-up is timed."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import homstab
        self.modules = tracer.package_modules(homstab)
        self.hs = SimpleNamespace(**{m.__name__.rsplit(".", 1)[-1]: m
                                     for m in self.modules})
        self.caches = tracer.CacheBook(self.modules)
        self.child_env = child_env(SRC)
        run_python("import homstab", self.child_env)

    def child_trace_path(self, k: int) -> Path:
        return self.work / "child-traces" / f"{k}.json"


# ---------------------------------------------------------------------------
# provenance


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot (Linux /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(seed: int) -> dict:
    load = os.getloadavg()
    sha, dirty = git_state()
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "git_sha": sha, "git_dirty": dirty, "seed": seed,
            "loadavg_start": list(load)}


# ---------------------------------------------------------------------------
# set-up


def build_library(dest: Path) -> Path:
    """Copy the library sources to ``dest`` and byte-compile them there, so
    every set-up pays the same build; returns the import path."""
    lib = dest / "lib"
    shutil.copytree(SRC / "homstab", lib / "homstab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(str(lib / "homstab"), quiet=1, workers=1):
        raise RuntimeError("byte-compiling homstab failed")
    return lib


def run_python(code: str, env: dict) -> None:
    """``python -c code`` in a fresh interpreter.  Output is captured so that
    subprocess.run blocks on the pipes until the child ends; with a timeout
    and no pipes it polls for the exit in sleeps of up to 50 ms, which would
    round every timed child up to a multiple of 50 ms."""
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                   check=True, timeout=60)


def setup_once(env: Env, wl, rep: int) -> float:
    """The set-up a run pays; returns its wall time.  Every workload imports
    the library in a fresh interpreter and makes its seeded inputs.  For
    cli-oneshot, whose every op is a fresh process, that import is of a
    byte-compiled copy built first.  An in-process workload times an import
    of src/ as a stand-in for its own, which happens once, untimed, in
    load_library."""
    start = time.perf_counter()
    workdir = env.work / f"setup-{rep}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if not wl.in_process:
        env.child_env = child_env(build_library(workdir))
    run_python("import homstab", env.child_env)
    wl.setup(workdir)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# measuring


class OpError:
    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_phase(env: Env, wl, seconds: float, min_ops: int, deadline: float,
              replay: int | None = None) -> dict:
    """Ops 0, 1, ... in whole rounds until ``seconds`` have passed and
    min_ops ops are done, or exactly ``replay`` ops; each op is timed in wall
    and CPU seconds."""
    wl.start_phase()
    tr = env.tracer if wl.in_process else None
    walls, cpus, results = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        now = time.perf_counter()
        if replay is not None:
            if k >= replay:
                break
        elif (k % wl.round == 0 and k >= max(min_ops, 1)
              and now - start >= seconds):
            break
        if now > deadline:
            break
        wl.before_op(k)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = tr.run_op(k, wl.run_op, k) if tr else wl.run_op(k)
        except Exception as exc:  # a failed op is counted, the run goes on
            result = OpError(exc)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        results.append(result)
        k += 1
    return {"wall": walls, "cpu": cpus, "results": results,
            "seconds": time.perf_counter() - start}


def check_phase(wl, phase: dict, first_op: int = 0) -> tuple[list, list]:
    """(records, failures) of a phase; ops are numbered from first_op."""
    records, failures = [], []
    for k, result in enumerate(phase["results"]):
        if isinstance(result, OpError):
            ok, record, why = False, None, result.text
        else:
            try:
                ok, record = wl.check(k, result)
                why = "wrong output or failed verdict"
            except Exception as exc:  # an unreadable output is a failure
                ok, record, why = False, None, f"{type(exc).__name__}: {exc}"
        records.append(record)
        if not ok:
            failures.append({"op": first_op + k, "why": why, "record": record})
    return records, failures


def end_to_end(phase: dict, setup_times: list) -> dict:
    wall = phase["wall"]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    p90 = statistics.quantiles(wall, n=10, method="inclusive")[8] \
        if len(wall) > 1 else wall[0]
    values = {"setup_s": statistics.median(setup_times),
              "ops_per_s": len(wall) / phase["seconds"],
              "op_ms_p50": statistics.median(wall) * 1e3,
              "op_ms_p90": p90 * 1e3,
              "cpu_ms_per_op": statistics.fmean(phase["cpu"]) * 1e3,
              "peak_rss_mb": rss_kb / 1024}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metrics.END_TO_END.items()}


def probe_ms(env: Env, code: str) -> float:
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        run_python(code, env.child_env)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    deadline = time.perf_counter() + HARD_STOP_S
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    env = Env(work)
    wl = WORKLOADS[name](seed, env)
    try:
        if wl.in_process:
            env.load_library()
        setup_times = [setup_once(env, wl, rep)
                       for rep in range(1 if smoke else SETUP_REPS)]
        min_ops = wl.round if smoke else MIN_OPS
        if trace:
            return traced_run(env, wl, seconds, deadline)
        phase = run_phase(env, wl, seconds, min_ops, deadline)
        _, failures = check_phase(wl, phase)
        out = finish(wl, phase, failures, end_to_end(phase, setup_times))
        out["setup_s_each"] = setup_times
        out["op_s_each"] = phase["wall"]
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(env: Env, wl, seconds: float, deadline: float) -> dict:
    """An untraced phase for half the time, then a traced replay of exactly
    the same ops, which must give the same result stream."""
    base = run_phase(env, wl, seconds / 2, 0, deadline)
    records, failures = check_phase(wl, base)
    n = len(base["results"])
    env.tracer = tracer.Tracer()
    if wl.in_process:
        env.caches.reset_counts()
        env.tracer.install(env.modules, metrics.TRACE_TARGETS)
        try:
            traced = run_phase(env, wl, 0, 0, deadline, replay=n)
        finally:
            env.tracer.restore()
        cache_totals = env.caches.totals()
    else:
        (env.work / "child-traces").mkdir(parents=True, exist_ok=True)
        traced = run_phase(env, wl, 0, 0, deadline, replay=n)
        cache_totals = {}
        for k in range(len(traced["results"])):
            path = env.child_trace_path(k)
            if path.exists():
                doc = json.loads(path.read_text())
                env.tracer.merge(doc, k)
                for cname, (hits, misses) in doc["caches"].items():
                    tot = cache_totals.setdefault(cname, [0, 0])
                    tot[0] += hits
                    tot[1] += misses
    traced_records, traced_failures = check_phase(wl, traced, n)
    failures += traced_failures
    failures += [{"op": n + k, "why": "traced result differs from untraced"}
                 for k, (a, b) in enumerate(zip(records, traced_records))
                 if a != b]
    if len(traced["results"]) < n:
        failures.append({"op": n + len(traced["results"]),
                         "why": "traced replay cut short by the deadline"})
    base_rate = n / base["seconds"]
    traced_rate = len(traced["results"]) / traced["seconds"]
    extra = {"cli.interp_ms": probe_ms(env, "pass"),
             "cli.import_ms": probe_ms(env, "import homstab"),
             "trace.ops_per_s_ratio": traced_rate / base_rate,
             "trace.untraced_ops_per_s": base_rate}
    exported = env.tracer.export()
    out = finish(wl, base, failures,
                 metrics.layer_metrics(exported, cache_totals, extra))
    out["attempted"] += len(traced["results"])
    out["trace"] = {"untraced_ops_per_s": base_rate,
                    "traced_ops_per_s": traced_rate,
                    "missing_targets": exported["missing"],
                    "spans_kept": len(exported["spans"]),
                    "spans_dropped": exported["dropped"],
                    "stats_ns": exported["stats"], "caches": cache_totals}
    out["spans"] = exported["spans"]
    return out


def finish(wl, phase: dict, failures: list, metric_values: dict) -> dict:
    """A run's summary; ``failed`` counts distinct failed ops."""
    return {"workload": wl.name, "attempted": len(phase["results"]),
            "failed": len({f["op"] for f in failures}),
            "failures": failures[:5], "metrics": metric_values,
            "properties": wl.properties(phase["results"])}


# ---------------------------------------------------------------------------
# output


def write_results(run: dict, prov: dict, trace: bool) -> Path:
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{prov['seed']}-trace{int(trace)}"
    spans = run.pop("spans", None)
    if spans is not None:
        spans_path = results_dir / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
             "spans": spans}))
        run["spans_file"] = str(spans_path.relative_to(ROOT))
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps({"provenance": prov, **run}, indent=1,
                               default=str))
    return path


def print_run(run: dict) -> None:
    print(f"# {run['workload']}: {run['attempted']} ops attempted, "
          f"{run['failed']} failed")
    for name, m in run["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':40s} {run['failed_ratio']:.6g} ratio")
    for key, value in run["properties"].items():
        print(f"  input {key}: {value}")
    for failure in run["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['why']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "homstab" / "__init__.py").is_file():
        print(f"error: no homstab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    prov = provenance(args.seed)
    steal0 = steal_seconds()
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    run["failed_ratio"] = run["failed"] / max(run["attempted"], 1)
    steal = steal_seconds()
    run["steal_s"] = None if steal is None else steal - steal0
    run["results_file"] = str(write_results(run, prov, bool(args.trace))
                              .relative_to(ROOT))
    print_run(run)
    print(f"# provenance: {json.dumps(prov)}")
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": run["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own; the result line merges theirs,
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=HARD_STOP_S + 120, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
