"""The three benchmark workloads.

Each is a closed loop with one client: op k+1 starts when op k has returned.
Ops come in rounds that cover the workload's mix once, and a run measures
whole rounds, so every run sees the same mix; only the seeded inputs differ
between seeds.  The op stream is deterministic for a seed, so a traced phase
can replay exactly the ops of an untraced one.

* ``suite-mix``: one acceptance-suite instance per op, eight suites
  interleaved at their acceptance specs; caches are cleared at phase start.
* ``large-modules``: Hom, Ext^1 or Tor_1 of two sums of 6-8 cyclic modules
  over Z/8, Z/12 and Z; caches are cleared before every query.
* ``cli-oneshot``: one fresh ``python -m homstab.cli`` process per op.

A workload prepares its inputs in ``setup``, runs op k in ``run_op`` (the
timed call), and checks the stored results afterwards in ``check``, which
returns (ok, record); records form the result stream that the traced run
must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import oracle

CLI_TIMEOUT_S = 60


class Workload:
    name = ""
    round = 1          # ops in one round of the mix
    in_process = True  # the parent process imports and runs homstab

    def __init__(self, seed: int, env):
        self.seed = seed
        self.env = env   # run.Env: paths, homstab modules, caches, tracer

    def setup(self, workdir: Path) -> None:
        pass

    def start_phase(self) -> None:
        pass

    def before_op(self, k: int) -> None:
        pass

    def run_op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> tuple[bool, object]:
        raise NotImplementedError

    def properties(self, results: list) -> dict:
        """Input properties of the ops run, so a later gain can name the
        share of inputs it applies to."""
        return {}


# ---------------------------------------------------------------------------
# suite-mix


# (suite, modulus or None for Z, InstanceSpec overrides): the acceptance specs
SUITE_MIX = (
    ("rfs-half-exact", 8, {}),
    ("lfs-half-exact", None, {}),
    ("fp-identifications", 4, {}),
    ("four-term", None, {}),
    ("uct-general", 4, {"max_entry": 4}),
    ("circular-exactness", 12, {"max_gens": 3, "max_rels": 3,
                                "max_entry": 6}),
    ("ar-formula", 12, {"max_gens": 3, "max_entry": 6}),
    ("stab-adjunction", 8, {"max_gens": 3, "max_entry": 6}),
)
# One round, by position in SUITE_MIX.  Each suite comes as often as the
# acceptance gate (tests/test_acceptance.py) runs it at this spec, per 50
# instances: rfs 1, lfs 1, fp-identifications 2, four-term 2, uct-general 2,
# circular-exactness 4, ar-formula 2, stab-adjunction 2.  The light suites
# (four-term, circular, ar, stab: a few ms an instance) are then 10 of the 16
# ops, so op_ms_p50 falls inside the light group and op_ms_p90 inside the
# heavy one (tens of ms), not on the gap between the two.
SUITE_ROUND = (5, 0, 3, 2, 6, 4, 7, 5, 1, 3, 5, 2, 6, 4, 7, 5)


def _has_zero_module(doc) -> bool:
    if isinstance(doc, dict):
        if "gens" in doc and "relations" in doc and doc["gens"] == 0:
            return True
        return any(_has_zero_module(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_has_zero_module(v) for v in doc)
    return False


class SuiteMix(Workload):
    name = "suite-mix"
    round = len(SUITE_ROUND)

    def setup(self, workdir):
        hs = self.env.hs
        self.specs = []
        for suite, modulus, overrides in SUITE_MIX:
            ring = hs.exactlin.ZZ if modulus is None else hs.exactlin.Zmod(modulus)
            spec = hs.instances.InstanceSpec(seed=self.seed, ring=ring,
                                             count=50, **overrides)
            self.specs.append((suite, hs.suites.SUITES[suite], spec))

    def start_phase(self):
        self.env.caches.clear()

    def instance(self, k):
        """(suite position, instance index) of op k: every suite walks its
        own instance stream 0, 1, 2, ..."""
        pos = SUITE_ROUND[k % self.round]
        per_round = SUITE_ROUND.count(pos)
        before = SUITE_ROUND[:k % self.round].count(pos)
        return pos, (k // self.round) * per_round + before

    def run_op(self, k):
        pos, index = self.instance(k)
        _, body, spec = self.specs[pos]
        return body(spec, index)

    def check(self, k, result):
        pos, index = self.instance(k)
        digest = hashlib.sha1(json.dumps(result["inputs"], sort_keys=True)
                              .encode()).hexdigest()
        record = [self.specs[pos][0], index, result["ok"], result["node"],
                  digest]
        return result["ok"] is True, record

    def properties(self, results):
        zero = sum(1 for r in results
                   if isinstance(r, dict) and _has_zero_module(r["inputs"]))
        return {"instances": len(results), "zero_module_input_instances": zero,
                "zero_module_input_share": zero / len(results)
                if results else 0.0}


# ---------------------------------------------------------------------------
# large-modules


# (modulus or None for Z, torsion orders).  Every torsion order is even, so
# no two summands merge into one cyclic (Z/3 + Z/4 = Z/12) and a module of
# g summands keeps g generators.  A third of the summands are free (order n
# over Z/n, 0 over Z).  Both fix the size of the linear systems, so seeds
# vary the torsion profile only.
# Z/12 comes twice, so the cheap Z queries fill the lowest quarter of op
# times and the costly Z/8 ones the highest: op_ms_p50 falls among the Z/12
# queries and op_ms_p90 among the Z/8 ones, not on a gap between two rings.
# Inputs for LARGE_POOL_ROUNDS rounds are made in set-up, about twice what
# a 30 s run uses; a longer run reuses them, with caches cleared.
LARGE_RINGS = (
    (8, (2, 4)),
    (12, (2, 4, 6)),
    (12, (2, 4, 6)),
    (None, (2, 4, 6, 8, 10, 12)),
)
LARGE_KINDS = ("hom", "ext", "tor")
LARGE_SIZES = (6, 7, 8)
LARGE_CELLS = [(modulus, torsion, kind, g) for g in LARGE_SIZES
               for modulus, torsion in LARGE_RINGS for kind in LARGE_KINDS]
LARGE_POOL_ROUNDS = 8


class LargeModules(Workload):
    name = "large-modules"
    round = len(LARGE_CELLS)

    def setup(self, workdir):
        hs = self.env.hs
        self.pool = []
        seen = set()
        for k in range(self.round * LARGE_POOL_ROUNDS):
            modulus, torsion, kind, g = LARGE_CELLS[k % self.round]
            rng = Random(f"{self.seed}:large:{k}")
            while True:  # no two queries of the pool share both modules
                da, db = ([modulus or 0] * (g // 3)
                          + sorted(rng.choice(torsion)
                                   for _ in range(g - g // 3))
                          for _ in range(2))
                if (kind, modulus, tuple(da), tuple(db)) not in seen:
                    seen.add((kind, modulus, tuple(da), tuple(db)))
                    break
            ring = hs.exactlin.ZZ if modulus is None else hs.exactlin.Zmod(modulus)
            m = hs.fpmod.make_module(ring, hs.exactlin.IntMat.diag(da))
            n = hs.fpmod.make_module(ring, hs.exactlin.IntMat.diag(db))
            expected = oracle.bifunctor_answer(kind, da, db, modulus)
            self.pool.append((kind, modulus, g, m, n, expected))

    def before_op(self, k):
        self.env.caches.clear()

    def run_op(self, k):
        hs = self.env.hs
        kind, _, _, m, n, _ = self.pool[k % len(self.pool)]
        if kind == "hom":
            return hs.fpmod.hom_module(m, n).module
        if kind == "ext":
            return hs.resolve.ext(m, n, 1)
        return hs.resolve.tor(m, n, 1)

    def check(self, k, result):
        kind, modulus, _, _, _, expected = self.pool[k % len(self.pool)]
        got = self.env.hs.fpmod.canonical_invariants(result)
        return got == expected, [kind, modulus, list(got[0]), got[1]]

    def properties(self, results):
        summands, rings = Counter(), Counter()
        for k in range(len(results)):
            _, modulus, g, _, _, _ = self.pool[k % len(self.pool)]
            summands[str(g)] += 2  # M and N have g summands each
            rings["Z" if modulus is None else f"Z/{modulus}"] += 1
        return {"summand_histogram": dict(summands),
                "ring_histogram": dict(rings), "queries": len(results)}


# ---------------------------------------------------------------------------
# cli-oneshot


CLI_COMMANDS = ("ext", "right-cov", "ar-formula", "uct-classical")
CLI_VARIANTS = 6
_INVARIANTS_LINE = re.compile(r"^\[([0-9, ]*)\](?: \+ Z(?:/\d+)?\^(\d+))?$")


def _module_doc(rng, orders, modulus):
    ring = {"kind": "Z"} if modulus is None else {"kind": "ZmodN", "n": modulus}
    rel = oracle.scrambled_relations(rng, orders)
    return {"ring": ring, "gens": len(orders),
            "relations": [[str(x) for x in row] for row in rel]}


def _free_complex_doc(rng):
    """C_2 -> C_1 = Z^2 -> C_0 with d1.d2 = 0: d2 has columns c_j.v and d1
    rows b_i.v' where v = (x, y), v' = (y, -x)."""
    x, y = rng.randint(1, 4), rng.randint(-4, 4)
    r0, r2 = rng.randint(1, 2), rng.randint(1, 2)
    b = [rng.randint(-3, 3) or 1 for _ in range(r0)]
    c = [rng.randint(-3, 3) or 1 for _ in range(r2)]
    d1 = [[str(bi * y), str(-bi * x)] for bi in b]
    d2 = [[str(cj * x) for cj in c], [str(cj * y) for cj in c]]
    free = [{"ring": {"kind": "Z"}, "gens": r, "relations": []}
            for r in (r0, 2, r2)]
    return {"ring": {"kind": "Z"}, "support": [0, 2], "terms": free,
            "differentials": [d1, d2]}


def parse_invariants(line: str):
    match = _INVARIANTS_LINE.match(line.strip())
    if not match:
        return None
    divisors = tuple(int(t) for t in match.group(1).split(",") if t.strip())
    return divisors, int(match.group(2) or 0)


class CliOneshot(Workload):
    name = "cli-oneshot"
    round = len(CLI_COMMANDS)
    in_process = False

    def setup(self, workdir):
        inputs = workdir / "cli-inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.calls = []  # (command, argv, expected invariants or None)
        for v in range(CLI_VARIANTS):
            rng = Random(f"{self.seed}:cli:{v}")
            for command in CLI_COMMANDS:
                self.calls.append(self._make_call(rng, inputs, command, v))

    def _make_call(self, rng, inputs, command, v):
        def write(tag, doc):
            path = inputs / f"{command}-{v}-{tag}.json"
            path.write_text(json.dumps(doc))
            return str(path)

        def orders(pool):
            return [rng.choice(pool) for _ in range(rng.randint(1, 3))]

        if command == "ext":
            # five summands over Z/8, one free: about 0.2 s of arithmetic
            # on top of start-up, so op_ms_p90 falls among the ext calls
            # instead of on the start-up noise of the other three commands
            da, db = ([8] + [rng.choice((2, 4)) for _ in range(4)]
                      for _ in range(2))
            modulus = 8
            argv = ["ext", "--A", write("A", _module_doc(rng, da, modulus)),
                    "--B", write("B", _module_doc(rng, db, modulus)),
                    "--i", "1"]
            return command, argv, oracle.bifunctor_answer("ext", da, db, modulus)
        if command == "right-cov":
            da, db = orders((2, 4)), orders((2, 4))
            argv = ["seq", "right-cov",
                    "--functor", "hom:" + write("A", _module_doc(rng, da, 4)),
                    "--b", write("B", _module_doc(rng, db, 4)),
                    "--depth", "2"]
            return command, argv, None
        if command == "ar-formula":
            modulus = (8, 12)[v % 2]
            pool = (2, 4, 8) if modulus == 8 else (2, 3, 4, 6, 12)
            argv = ["ar", "formula",
                    "--A", write("A", _module_doc(rng, orders(pool),
                                                  modulus)),
                    "--B", write("B", _module_doc(rng, orders(pool),
                                                  modulus))]
            return command, argv, None
        which = ("cohomology", "homology")[v % 2]
        argv = ["uct", "classical", "--C", write("C", _free_complex_doc(rng)),
                "--B", write("B", _module_doc(rng, orders((2, 3, 4, 0)),
                                              None)),
                "--n", "1", "--which", which]
        return command, argv, None

    def run_op(self, k):
        _, argv, _ = self.calls[k % len(self.calls)]
        env = self.env
        if env.tracer is None:
            cmd = [sys.executable, "-m", "homstab.cli", *argv]
        else:
            cmd = [sys.executable, str(env.bench_dir / "trace_child.py"),
                   str(env.child_trace_path(k)), *argv]
        proc = subprocess.run(cmd, env=env.child_env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, k, result):
        command, _, expected = self.calls[k % len(self.calls)]
        code, stdout, _ = result
        ok = code == 0
        if expected is not None:
            lines = stdout.splitlines()
            ok = ok and bool(lines) and parse_invariants(lines[0]) == expected
        return ok, [command, code, stdout]

    def properties(self, results):
        return {"calls": dict(Counter(self.calls[k % len(self.calls)][0]
                                      for k in range(len(results))))}


WORKLOADS = {w.name: w for w in (SuiteMix, LargeModules, CliOneshot)}


def child_env(lib: Path) -> dict:
    """Environment of a child interpreter that imports homstab from lib."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(lib)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env
