"""Finite diagrams of modules with computed exactness verdicts.

A SequenceReport is a chain of modules and maps with, per consecutive pair,
a composite-zero verdict, and per interior node an exactness verdict
(im = ker decided by exact submodule membership, never by invariants).
Verdicts are computed at build time, never assumed.
"""

from __future__ import annotations

from .errors import NotAComplex
from .fpmod import FPModule, Morphism, in_span, kernel_generators


class SequenceNode:
    __slots__ = ("label", "module", "kind")

    def __init__(self, label: str, module: FPModule, kind: str = "plain"):
        self.label = label
        self.module = module
        self.kind = kind  # plain | stab | satellite | derived | zero


class SequenceReport:
    __slots__ = ("nodes", "maps", "composite_zero", "exact_at", "metadata")

    def __init__(self, nodes: list[SequenceNode], maps: list[Morphism],
                 composite_zero: list[bool] | None = None,
                 exact_at: list[bool | None] | None = None,
                 metadata: dict | None = None):
        self.nodes = nodes
        self.maps = maps
        self.composite_zero = [] if composite_zero is None else composite_zero
        self.exact_at = [] if exact_at is None else exact_at
        self.metadata = {} if metadata is None else metadata

    def is_complex(self) -> bool:
        return all(self.composite_zero)

    def exact_everywhere(self) -> bool:
        return self.is_complex() and all(v for v in self.exact_at if v is not None)

    def exact_away_from(self, kind: str) -> bool:
        if not self.is_complex():
            return False
        return all(v for node, v in zip(self.nodes, self.exact_at)
                   if v is not None and node.kind != kind)

    def failures(self) -> list[str]:
        out = []
        for i, ok in enumerate(self.composite_zero):
            if not ok:
                out.append(f"composite through {self.nodes[i + 1].label} is nonzero")
        for node, v in zip(self.nodes, self.exact_at):
            if v is False:
                out.append(f"not exact at {node.label}")
        return out

    def node_module(self, label: str) -> FPModule:
        for node in self.nodes:
            if node.label == label:
                return node.module
        raise KeyError(label)


def is_exact_at(f: Morphism, g: Morphism) -> bool:
    """True iff im f = ker g inside the middle object; requires g.f = 0."""
    if not g.compose(f).is_zero():
        raise NotAComplex("composite is nonzero")
    return _ker_in_im(f, g)


def _ker_in_im(f: Morphism, g: Morphism) -> bool:
    """ker g within im f; given g.f = 0, that is im f = ker g."""
    mid = f.target
    return in_span(f.mat.hstack(mid.rel), kernel_generators(g), mid.ring)


def build_report(nodes, maps, metadata=None) -> SequenceReport:
    """Assemble a report, computing all verdicts.

    ``nodes`` are (label, module[, kind]) tuples or SequenceNodes; endpoints
    get exactness verdict None (no two-sided test is possible there).
    """
    seq = []
    for n in nodes:
        if isinstance(n, SequenceNode):
            seq.append(n)
        else:
            label, module = n[0], n[1]
            kind = n[2] if len(n) > 2 else ("zero" if module.is_zero() else "plain")
            seq.append(SequenceNode(label, module, kind))
    if len(maps) != len(seq) - 1:
        raise NotAComplex("need one map per consecutive node pair")
    composite = []
    for g, f in zip(maps[1:], maps):
        composite.append(g.compose(f).is_zero())
    exact: list[bool | None] = [None] * len(seq)
    for i in range(1, len(seq) - 1):
        # a nonzero composite fails exactness; a zero one is not retested
        exact[i] = composite[i - 1] and _ker_in_im(maps[i - 1], maps[i])
    return SequenceReport(seq, list(maps), composite, exact, metadata or {})


def exactness_check(report: SequenceReport) -> list[bool | None]:
    """Recompute the per-node verdicts of an existing report."""
    fresh = build_report([(n.label, n.module, n.kind) for n in report.nodes],
                         report.maps, report.metadata)
    return fresh.exact_at
