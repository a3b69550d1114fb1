"""Independent answers for the benchmark's outputs.

Everything here is plain integer arithmetic on cyclic decompositions and
never calls homstab, so a fast-but-wrong change to the library shows up as
a failed check instead of a gain.

A module is described by the orders of its cyclic summands.  Over Z an
order of 0 is a free summand Z; over Z/n an order of n is the free summand
Z/n.  Answers are given in the form ``canonical_invariants`` returns:
(torsion invariant factors in divisibility order, free rank).
"""

from __future__ import annotations

from math import gcd
from random import Random

SCRAMBLE_STEPS = 4  # row or column additions per relation matrix


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariants(orders, modulus: int | None) -> tuple[tuple[int, ...], int]:
    """Invariant factors d_1 | d_2 | ... and free rank of a sum of cyclics."""
    free = sum(1 for o in orders if o == 0)
    exps: dict[int, list[int]] = {}
    for o in orders:
        if o > 1:
            for p, e in _factor(o).items():
                exps.setdefault(p, []).append(e)
    k = max((len(es) for es in exps.values()), default=0)
    chain = [1] * k
    for p, es in exps.items():
        for t, e in enumerate(sorted(es, reverse=True)):
            chain[k - 1 - t] *= p ** e
    if modulus is not None:
        free += sum(1 for d in chain if d == modulus)
        chain = [d for d in chain if d != modulus]
    return tuple(chain), free


def cyclic_answer(kind: str, a: int, b: int, modulus: int | None) -> int:
    """Order of Hom(R/a, R/b), Ext^1(R/a, R/b) or Tor_1(R/a, R/b), all cyclic.

    Over Z/n with a, b | n the degree-one groups have order
    gcd(n/a, b) * gcd(a, b) / b (homology of Z/b --a--> Z/b --n/a--> Z/b).
    """
    if modulus is not None:
        if kind == "hom":
            return gcd(a, b)
        return gcd(modulus // a, b) * gcd(a, b) // b
    if kind == "hom":
        if a == 0:
            return b
        return 1 if b == 0 else gcd(a, b)
    if kind == "ext":
        if a == 0:
            return 1
        return a if b == 0 else gcd(a, b)
    if kind == "tor":
        return 1 if a == 0 or b == 0 else gcd(a, b)
    raise ValueError(f"unknown kind {kind!r}")


def bifunctor_answer(kind: str, da, db, modulus: int | None):
    """Hom / Ext^1 / Tor_1 of two sums of cyclics, as invariants."""
    return invariants([cyclic_answer(kind, a, b, modulus)
                       for a in da for b in db], modulus)


def scrambled_relations(rng: Random, orders) -> list[list[int]]:
    """A non-diagonal relation matrix presenting the sum of cyclics.

    diag(orders) is scrambled by SCRAMBLE_STEPS unimodular row and column
    additions, which keep the cokernel's isomorphism class.
    """
    g = len(orders)
    rel = [[o if i == j else 0 for j in range(g)]
           for i, o in enumerate(orders)]
    if g < 2:
        return rel
    for _ in range(SCRAMBLE_STEPS):
        i, j = rng.sample(range(g), 2)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            rel[i] = [x + c * y for x, y in zip(rel[i], rel[j])]
        else:
            for row in rel:
                row[j] += c * row[i]
    return rel
