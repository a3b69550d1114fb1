"""Instance generation contracts: determinism, validity, degenerate bounds."""

import random

from homstab.errors import NotWellDefined
from homstab.exactlin import ZZ, Zmod
from homstab.fpmod import (
    FPModule, canonical_invariants, cokernel, image, in_span, is_free, iso_test,
    kernel, stably_iso_test, transpose,
)
from homstab.instances import (
    InstanceSpec, random_complex, random_module, random_morphism,
)


def test_zero_entry_bound_gives_free_modules_and_zero_maps():
    rng = random.Random(0)
    for _ in range(10):
        m = random_module(rng, Zmod(4), max_entry=0)
        assert is_free(m)
        n = random_module(rng, Zmod(4), max_entry=0)
        f = random_morphism(rng, m, n, max_entry=0)
        assert f.is_zero()


def test_fixed_seed_reproduces_streams():
    spec = InstanceSpec(seed=42, ring=Zmod(9), count=20)

    def stream():
        rng = spec.rng()
        return [canonical_invariants(random_module(
            rng, spec.ring, spec.max_gens, spec.max_rels, spec.max_entry))
            for _ in range(spec.count)]

    assert stream() == stream()


def test_random_morphisms_always_well_defined():
    rng = random.Random(7)
    for _ in range(100):
        m = random_module(rng, Zmod(4))
        n = random_module(rng, Zmod(4))
        f = random_morphism(rng, m, n)  # would raise NotWellDefined otherwise
        assert in_span(n.rel, (f.mat @ m.rel).mod(Zmod(4)), Zmod(4))


def test_random_complexes_square_to_zero():
    rng = random.Random(11)
    for ring in (ZZ, Zmod(6)):
        c = random_complex(rng, ring, length=5)
        for n in range(c.lo, c.hi + 1):
            assert c.differential(n).compose(c.differential(n + 1)).is_zero()


def test_image_of_kernel_complement():
    # cokernel(kernel inclusion) is isomorphic to the image, over both rings
    rng = random.Random(13)
    for ring in (ZZ, Zmod(8), Zmod(12)):
        for _ in range(8):
            m = random_module(rng, ring, 3, 3, 5)
            n = random_module(rng, ring, 3, 3, 5)
            f = random_morphism(rng, m, n)
            k, incl = kernel(f)
            assert iso_test(cokernel(incl)[0], image(f))


def test_double_transpose_stably_trivial():
    # Tr Tr M is stably isomorphic to M for torsion modules, across
    # redundant (non-minimal) presentations of the same module
    rng = random.Random(17)
    for n in (4, 8, 12):
        ring = Zmod(n)
        for _ in range(10):
            m = random_module(rng, ring, 3, 3, 6)
            divisors, free = canonical_invariants(m)
            if free or m.is_zero():
                continue
            pad = m.rel.hstack(m.rel).hstack(
                m.rel.scale(rng.randint(0, n - 1))).mod(ring)
            raw = FPModule(ring, m.gens, pad)
            again = transpose(transpose(raw))
            assert stably_iso_test(again, m), (str(m), n)
