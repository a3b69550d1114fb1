"""Seeded random instance generation.

Identical specs yield identical instance streams: everything is driven by
``random.Random(seed)`` and the deterministic constructors.  Morphisms are
sampled through Hom-module coordinates (decode of a random element), so every
sampled generator matrix is target-valid by construction and the
well-definedness witness always exists.
"""

from __future__ import annotations

import random

from .errors import WrongShape
from .exactlin import IntMat, RingDesc
from .fpmod import (
    FPModule, Morphism, free_module, hom_module, kernel, make_module,
)
from .uct import make_complex


class InstanceSpec:
    """Immutable by convention; compared and hashed by field value."""

    __slots__ = ("seed", "ring", "max_gens", "max_rels", "max_entry", "count")

    def __init__(self, seed: int, ring: RingDesc, max_gens: int = 4,
                 max_rels: int = 4, max_entry: int = 8, count: int = 100):
        if not (count >= 0 and max_gens >= 1 and max_rels >= 0
                and max_entry >= 0):
            raise WrongShape(
                "instance spec needs count >= 0, max_gens >= 1, max_rels >= 0 "
                f"and max_entry >= 0; got count {count}, max_gens "
                f"{max_gens}, max_rels {max_rels}, max_entry {max_entry}")
        self.seed = seed
        self.ring = ring
        self.max_gens = max_gens
        self.max_rels = max_rels
        self.max_entry = max_entry
        self.count = count

    def _fields(self) -> tuple:
        return (self.seed, self.ring, self.max_gens, self.max_rels,
                self.max_entry, self.count)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "InstanceSpec(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields())) + ")"

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def random_module(rng: random.Random, ring: RingDesc, max_gens=4, max_rels=4,
                  max_entry=8, allow_zero=True) -> FPModule:
    for _ in range(64):
        g = rng.randint(1, max_gens)
        r = rng.randint(0, max_rels)
        rel = IntMat.from_rows(
            [[rng.randint(-max_entry, max_entry) for _ in range(r)]
             for _ in range(g)])
        m = make_module(ring, rel, gens=g)
        if allow_zero or not m.is_zero():
            return m
    return free_module(ring, 1)


def random_morphism(rng: random.Random, source: FPModule, target: FPModule,
                    max_entry=8) -> Morphism:
    h = hom_module(source, target)
    coords = IntMat.column([rng.randint(-max_entry, max_entry)
                            for _ in range(h.module.gens)])
    return h.morphism(coords.mod(source.ring))


def random_composable_pair(rng: random.Random, ring: RingDesc, max_gens=3,
                           max_rels=3, max_entry=6):
    x = random_module(rng, ring, max_gens, max_rels, max_entry)
    y = random_module(rng, ring, max_gens, max_rels, max_entry)
    z = random_module(rng, ring, max_gens, max_rels, max_entry)
    return (random_morphism(rng, x, y, max_entry),
            random_morphism(rng, y, z, max_entry))


def random_complex(rng: random.Random, ring: RingDesc, length=4, max_gens=3,
                   max_rels=3, max_entry=4, free=False, lo=0):
    """Chain complex with d.d = 0 by construction: each differential factors
    through the kernel of the previous one."""
    def pick():
        if free:
            return free_module(ring, rng.randint(0, max_gens))
        return random_module(rng, ring, max_gens, max_rels, max_entry)

    terms = [pick()]
    diffs = []
    for _ in range(length - 1):
        nxt = pick()
        if not diffs:
            d = random_morphism(rng, nxt, terms[-1], max_entry)
        else:
            ker, include = kernel(diffs[-1])
            d = include.compose(random_morphism(rng, nxt, ker, max_entry))
        terms.append(nxt)
        diffs.append(d)
    return make_complex(ring, terms, diffs, lo=lo)
