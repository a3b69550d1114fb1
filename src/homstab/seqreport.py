"""Finite diagrams of modules with computed exactness verdicts.

A SequenceReport is a chain of modules and maps with, per consecutive pair,
a composite-zero verdict, and per interior node an exactness verdict
(im = ker decided by exact submodule membership, never by invariants).
Verdicts are computed at build time, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAComplex
from .exactlin import in_span
from .fpmod import FPModule, Morphism, kernel_generators


@dataclass(frozen=True, eq=False)
class SequenceNode:
    label: str
    module: FPModule
    kind: str = "plain"  # plain | stab | satellite | derived | zero


@dataclass(eq=False)
class SequenceReport:
    nodes: list[SequenceNode]
    maps: list[Morphism]
    composite_zero: list[bool] = field(default_factory=list)
    exact_at: list[bool | None] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

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
        if composite[i - 1]:
            exact[i] = is_exact_at(maps[i - 1], maps[i])
        else:
            exact[i] = False
    return SequenceReport(seq, list(maps), composite, exact, metadata or {})


def exactness_check(report: SequenceReport) -> list[bool | None]:
    """Recompute the per-node verdicts of an existing report."""
    fresh = build_report([(n.label, n.module, n.kind) for n in report.nodes],
                         report.maps, report.metadata)
    return fresh.exact_at
