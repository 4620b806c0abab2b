"""Reference implementations for the polarized complex constructions.

Before the second construction of `polarized_complex` computed minimal
transversals, and before the first grouped its candidates by size, the
library had these:

- `enumerated_complement_facet_masks`: `_complement_facet_masks` as a test
  of all 2^vars subsets of the polar variables against every polarized
  generator, followed by a scan for the faces no vertex extends;
- `pairwise_maximal_masks`: the candidate filter of `polarized_complex`,
  testing every mask against every other one.

The differential tests in test_polarization_paths.py compare the library
with them.
"""

from powerlat.stanley_reisner import polarize_monomial

from section_ring_oracles import pairwise_minimal_nonfaces


def enumerated_complement_facet_masks(delta, pos) -> set:
    n = len(pos)
    gen_masks = []
    for g in pairwise_minimal_nonfaces(delta).gens:
        gm = 0
        for v in polarize_monomial(g, delta.box):
            gm |= 1 << pos[v]
        gen_masks.append(gm)
    faces = set()
    for s in range(1 << n):
        if all(gm & s != gm for gm in gen_masks):
            faces.add(s)
    facets = set()
    for s in faces:
        for v in range(n):
            if not s & (1 << v) and s | (1 << v) in faces:
                break
        else:
            facets.add(s)
    return facets


def pairwise_maximal_masks(family) -> list:
    return [m for m in family if not any(m != w and m & w == m for w in family)]
