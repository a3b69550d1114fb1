"""Command-line front end: data ingestion, dispatch to the engines, seeded
random-instance suites, and report emission.

Exit codes: 0 all verdicts pass, 1 a mathematical verdict failed (the
counterexample is in the report), 2 usage or input error.

Each ``cmd_*`` handler takes the parsed arguments and returns its answer
``(text, payload, ok)``; ``main`` writes that answer once, through
``respond``: the payload to --json-out first, then the text to stdout.  A
printed sequence report passes when it is exact and every ``*_iso`` and
``split`` verdict in its metadata holds (``_report``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import archeck, funcalc, fundseq, resolve, uct
from .errors import HomstabError, SchemaError
from .exactlin import RingDesc, ZZ, Zmod
from .fpmod import (
    FPModule, canonical_invariants, dual, hom_module, tensor_module, transpose,
)
from .instances import InstanceSpec, random_module
from .seqreport import SequenceReport
from .serialize import (
    parse_complex, parse_module, parse_morphism, serialize_module,
)
from .suites import SUITES, run_suite

def parse_ring_flag(text: str) -> RingDesc:
    text = text.strip()
    if text in ("Z", "ZZ"):
        return ZZ
    for prefix in ("Z/", "Zmod", "Z%"):
        if text.startswith(prefix):
            return Zmod(int(text[len(prefix):]))
    raise SchemaError(f"cannot parse ring {text!r}; use Z or Z/n")


def load_doc(path: str | None):
    if path is None:
        raise SchemaError("a required input file is missing")
    with open(path) as handle:
        return json.load(handle)


def load_module(path: str) -> FPModule:
    return parse_module(load_doc(path))


def format_invariants(m: FPModule) -> str:
    divisors, free = canonical_invariants(m)
    body = "[" + ", ".join(str(d) for d in divisors) + "]"
    if free:
        tag = "Z" if m.ring.modulus is None else f"Z/{m.ring.modulus}"
        body += f" + {tag}^{free}"
    return body


def parse_functor_spec(spec: str | None, half_exact: bool = False):
    """hom:M.json | homcontra:M.json | tensor:M.json | fp:f.json | tc:f.json
    | ext:M.json:i | tor:M.json:i"""
    if spec is None:
        raise SchemaError("a functor spec is missing; pass --functor")
    parts = spec.split(":")
    kind = parts[0]
    if kind in ("hom", "homcontra", "tensor") and len(parts) == 2:
        m = load_module(parts[1])
        return {"hom": funcalc.HomCov, "homcontra": funcalc.HomContra,
                "tensor": funcalc.TensorLeft}[kind](m)
    if kind in ("fp", "tc") and len(parts) == 2:
        f = parse_morphism(load_doc(parts[1]))
        cls = funcalc.FP if kind == "fp" else funcalc.TC
        return cls(f, half_exact=half_exact)
    if kind in ("ext", "tor") and len(parts) == 3:
        m = load_module(parts[1])
        maker = funcalc.ExtFixedFirst if kind == "ext" else funcalc.TorFixedFirst
        return maker(m, int(parts[2]))
    raise SchemaError(f"cannot parse functor spec {spec!r}")


def report_to_json(rep: SequenceReport) -> dict:
    return {
        "nodes": [{"label": n.label, "kind": n.kind,
                   "invariants": format_invariants(n.module)}
                  for n in rep.nodes],
        "composite_zero": rep.composite_zero,
        "exact_at": rep.exact_at,
        "metadata": {k: v for k, v in rep.metadata.items()
                     if isinstance(v, (str, int, bool, type(None)))},
    }


def format_report(rep: SequenceReport) -> str:
    lines = [" -> ".join(f"{n.label}{format_invariants(n.module)}"
                         for n in rep.nodes)]
    lines += [f"  FAIL {line}" for line in rep.failures()]
    verdict = "exact" if rep.exact_everywhere() else (
        "complex (inexact nodes marked)" if rep.is_complex() else "NOT a complex")
    lines.append(f"  verdict: {verdict}")
    lines += [f"  {key}: {val}" for key, val in sorted(rep.metadata.items())
              if key != "display"]
    return "\n".join(lines)


def respond(args, text: str, payload, ok: bool) -> int:
    """Write ``payload`` to --json-out, then print ``text``; exit 0 iff
    ``ok``.  Writing first means a bad report path fails before any output."""
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(text)
    return 0 if ok else 1


def _module(m: FPModule):
    """The answer for a computed module: its invariants and its document."""
    return format_invariants(m), serialize_module(m), True


def _report(rep: SequenceReport, exact: bool | None = None):
    """The answer for a sequence report.  It passes when the sequence is
    exact (everywhere, unless the command gives its own ``exact`` verdict)
    and every ``*_iso`` and ``split`` verdict in its metadata holds."""
    if exact is None:
        exact = rep.exact_everywhere()
    ok = exact and all(v for k, v in rep.metadata.items()
                       if k.endswith("_iso") or k == "split")
    return format_report(rep), report_to_json(rep), ok


# ---------------------------------------------------------------------------
# command handlers; argparse has checked the action, so a handler's last
# branch is its default


def cmd_module(args):
    m = load_module(args.module)
    if args.action == "show":
        return (f"{m} (gens {m.gens}, relations {m.rel.cols})",
                serialize_module(m), True)
    if args.action == "invariants":
        return format_invariants(m), {"invariants": format_invariants(m)}, True
    if args.action == "dual":
        return _module(dual(m))
    if args.action == "transpose":
        return _module(transpose(m))
    build = hom_module if args.action == "hom" else tensor_module
    return _module(build(m, load_module(args.other)).module)


def cmd_resolve(args):
    if args.action in ("ext", "tor"):
        fn = resolve.ext if args.action == "ext" else resolve.tor
        return _module(fn(load_module(args.A), load_module(args.B), args.i))
    m = load_module(args.module)
    if args.action in ("proj", "inj"):
        build, name = ((resolve.proj_resolution, "P_") if args.action == "proj"
                       else (resolve.inj_resolution, "I^"))
        terms = build(m, args.depth).terms
        return ("\n".join(f"{name}{k}: {format_invariants(t)}"
                          for k, t in enumerate(terms)),
                {"terms": [serialize_module(t) for t in terms]}, True)
    if args.action == "syzygy":
        return _module(resolve.syzygy(m, args.k))
    return _module(resolve.cosyzygy(m, args.k))


def cmd_functor(args):
    if args.action == "fourterm":
        return _report(funcalc.auslander_four_term(
            load_module(args.A), load_module(args.X), args.which))
    if args.action == "torsionradical":
        return _module(funcalc.torsion_radical(load_module(args.A))[0])
    expr = parse_functor_spec(args.functor, half_exact=args.half_exact)
    if args.action == "defect":
        return _module(funcalc.defect(expr))
    if args.action in ("satellite", "derived"):
        fn = (funcalc.satellite if args.action == "satellite"
              else funcalc.derived_eval)
        return _module(fn(expr, args.i, args.side, load_module(args.at)))
    at = load_module(args.at)
    if args.action == "eval":
        return _module(expr.eval_obj(at))
    stabilize = (funcalc.sub_stabilize if args.action == "substab"
                 else funcalc.quot_stabilize)
    return _module(stabilize(expr, at)[0])


def cmd_seq(args):
    if args.action == "circular":
        return _report(fundseq.circular_sequence(
            parse_morphism(load_doc(args.f)), parse_morphism(load_doc(args.g))))
    if args.action == "split":
        rep = fundseq.short_exact(parse_morphism(load_doc(args.f)),
                                  parse_morphism(load_doc(args.g)))
        ok, _ = fundseq.splitting_test(rep)
        return f"split: {ok}", {"split": ok}, ok
    if args.action == "hereditary":
        expr = parse_functor_spec(args.functor, half_exact=True)
        spec = InstanceSpec(args.seed, ZZ, args.gens, args.rels, args.entries,
                            args.samples)
        rng = spec.rng()
        xs = [random_module(rng, ZZ, spec.max_gens, spec.max_rels,
                            spec.max_entry) for _ in range(args.samples)]
        dec = fundseq.hereditary_decomposition(expr, xs)
        ok = dec.all_ok()
        return (f"w(F): {format_invariants(dec.w)}; decomposition ok: {ok}",
                {"ok": ok, "w": serialize_module(dec.w)}, ok)
    expr = parse_functor_spec(args.functor, half_exact=args.half_exact)
    b = load_module(args.b)
    if args.action == "right-cov":
        rep = fundseq.right_fund_cov(expr, b, args.depth)
    elif args.action == "left-cov":
        rep = fundseq.left_fund_cov(expr, b, args.depth)
    else:
        rep = fundseq.contra_fund(expr, b, args.depth,
                                  args.action.removeprefix("contra-"))
    return _report(rep, rep.exact_everywhere() if expr.half_exact
                   else rep.exact_away_from("derived"))


def cmd_uct(args):
    c = parse_complex(load_doc(args.C))
    b = load_module(args.B)
    if args.action == "classical":
        return _report(uct.uct_classical(c, b, args.n, args.which))
    if args.action == "general":
        rep = uct.uct_general(c, b, args.n, args.depth, args.which)
        return _report(rep, rep.exact_away_from("derived"))
    if args.action == "delta-checks":
        checks = uct.delta_functor_checks(c, b, args.n)
        return ("\n".join(f"{k}: {v}" for k, v in sorted(checks.items())),
                checks, all(checks.values()))
    which = "cohomology" if args.action == "projective" else "homology"
    return _report(uct.uct_special(c, b, args.n, args.depth, which))


def cmd_ar(args):
    a = load_module(args.A)
    if args.action == "bidual":
        return _report(archeck.bidual_check(a))
    if args.action == "formula":
        result = archeck.ar_formula_check(a, load_module(args.B))
        text = (f"lhs {format_invariants(result['lhs'])} "
                f"rhs {format_invariants(result['rhs'])} "
                f"verdict {result['verdict']}")
    else:
        result = archeck.stab_adjunction_check(a, load_module(args.B),
                                               args.side)
        text = f"verdict {result['verdict']}"
    return text, {"verdict": result["verdict"]}, result["verdict"]


def cmd_suite(args):
    if args.action == "list":
        names = sorted(SUITES)
        return "\n".join(names), {"suites": names}, True
    spec = InstanceSpec(seed=args.seed, ring=parse_ring_flag(args.ring),
                        max_gens=args.gens, max_rels=args.rels,
                        max_entry=args.entries, count=args.count)
    report = run_suite(args.name, spec, workers=args.workers)
    lines = [report.summary()]
    lines += [f"  warning: {warning}" for warning in report.warnings]
    lines += [f"  counterexample at index {failure['index']}: {failure['node']}"
              for failure in report.failures[:3]]
    return "\n".join(lines), report.to_json(), report.ok


# ---------------------------------------------------------------------------
# argument parsing


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", metavar="PATH", default=argparse.SUPPRESS,
                        help="write a machine-readable report to PATH")
    common.add_argument("--ring", default=argparse.SUPPRESS,
                        help="base ring: Z or Z/n")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    return common


_GLOBAL_DEFAULTS = {"json_out": None, "ring": "Z", "seed": 0, "depth": 4,
                    "samples": 5}


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="fundseq", parents=[common],
        description="Exact homological algebra workbench over Z and Z/n: "
                    "modules, resolutions, functor stabilizations, "
                    "fundamental sequences, universal coefficient theorems.")
    sub = parser.add_subparsers(dest="group", required=True)

    p = sub.add_parser("module", help="module-level constructions",
                       parents=[common])
    p.add_argument("action", choices=["show", "invariants", "dual",
                                      "transpose", "hom", "tensor"])
    p.add_argument("module")
    p.add_argument("other", nargs="?")

    p = sub.add_parser("resolve", help="resolutions, syzygies, Ext/Tor",
                       parents=[common])
    p.add_argument("action", choices=["proj", "inj", "syzygy", "cosyzygy",
                                      "ext", "tor"])
    p.add_argument("module", nargs="?")
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("functor", help="functor calculus",
                       parents=[common])
    p.add_argument("action", choices=["eval", "substab", "quotstab",
                                      "satellite", "derived", "defect",
                                      "fourterm", "torsionradical"])
    p.add_argument("--functor", help="hom:M.json | tensor:M.json | "
                                     "homcontra:M.json | fp:f.json | tc:f.json "
                                     "| ext:M.json:i | tor:M.json:i")
    p.add_argument("--at", help="module file to evaluate at")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--side", choices=["right", "left"], default="right")
    p.add_argument("--A")
    p.add_argument("--X")
    p.add_argument("--which", choices=["tensor", "hom"], default="tensor")
    p.add_argument("--half-exact", action="store_true",
                   help="declare the functor half-exact (caller's assertion)")

    p = sub.add_parser("seq", help="circular and fundamental sequences",
                       parents=[common])
    p.add_argument("action", choices=["circular", "right-cov", "left-cov",
                                      "contra-right", "contra-left", "split",
                                      "hereditary"])
    p.add_argument("--f", help="morphism file")
    p.add_argument("--g", help="morphism file")
    p.add_argument("--functor")
    p.add_argument("--b", help="module file to evaluate at")
    p.add_argument("--half-exact", action="store_true")
    p.add_argument("--gens", type=int, default=3)
    p.add_argument("--rels", type=int, default=3)
    p.add_argument("--entries", type=int, default=6)

    p = sub.add_parser("uct", help="universal coefficient theorems",
                       parents=[common])
    p.add_argument("action", choices=["classical", "general", "projective",
                                      "flat", "delta-checks"])
    p.add_argument("--C", required=True, help="complex file")
    p.add_argument("--B", required=True, help="coefficient module file")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--which", choices=["cohomology", "homology"],
                   default="cohomology")

    p = sub.add_parser("ar", help="duality and adjunction checks",
                       parents=[common])
    p.add_argument("action", choices=["formula", "adjunction", "bidual"])
    p.add_argument("--A", required=True)
    p.add_argument("--B")
    p.add_argument("--side", choices=["right", "left"], default="right")

    p = sub.add_parser("suite", help="named property suites",
                       parents=[common])
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("name", nargs="?")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--gens", type=int, default=4)
    p.add_argument("--rels", type=int, default=4)
    p.add_argument("--entries", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    return parser


ALIASES = {"ext": ["resolve", "ext"], "tor": ["resolve", "tor"],
           "check": ["seq"]}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, token in enumerate(argv):
        if token.startswith("-"):
            continue
        if token in ALIASES:
            argv[i:i + 1] = ALIASES[token]
        break
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    handlers = {"module": cmd_module, "resolve": cmd_resolve,
                "functor": cmd_functor, "seq": cmd_seq, "uct": cmd_uct,
                "ar": cmd_ar, "suite": cmd_suite}
    try:
        return respond(args, *handlers[args.group](args))
    except (HomstabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
