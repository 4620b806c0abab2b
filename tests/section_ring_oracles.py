"""Reference implementations for the section ring check and the generator
and facet filters it rests on.

Before the nonface ideal was read off a face table, the intersections
were taken one irreducible component at a time and the meet closure grew
one facet at a time, the library had these:

- `pairwise_minimal_nonfaces`: `_enumerate_minimal_nonfaces` as a test of
  every box monomial and its decrements against every facet, followed by a
  pairwise filter of the generators;
- `folded_section_check`: `section_ring_check` as a fold of
  `intersect_monomial_ideals` over the P_sigma of the facets and of their
  meet closure;
- `pairwise_meet_closure`: `meets_of_facets` as gcds of every pair of
  the closure found so far, until no new one appears;
- `pairwise_minimal` and `pairwise_maximal`: the filters of
  `MonomialIdeal.from_gens` and `Multicomplex.__init__`, testing every
  monomial against every other one.

The differential tests in test_section_ring_paths.py compare the library
with them.
"""

import itertools

from powerlat.stanley_reisner import (
    MonomialIdeal,
    divides,
    intersect_monomial_ideals,
    irreducible_ideal,
    monomial_gcd,
)


def pairwise_minimal(gens) -> list:
    seen = set(map(tuple, gens))
    return [g for g in seen if not any(h != g and divides(h, g) for h in seen)]


def pairwise_maximal(facets) -> list:
    fs = set(map(tuple, facets))
    return [f for f in fs if not any(g != f and divides(f, g) for g in fs)]


def pairwise_meet_closure(delta) -> tuple:
    closed = set(delta.facets)
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in closed.copy():
                m = monomial_gcd(a, b)
                if m not in closed:
                    closed.add(m)
                    nxt.append(m)
        frontier = nxt
    return tuple(sorted(closed, key=lambda m: (-sum(m),) + tuple(-v for v in m)))


def _is_face(delta, m) -> bool:
    return any(divides(m, f) for f in delta.facets)


def pairwise_minimal_nonfaces(delta) -> MonomialIdeal:
    box = delta.box
    gens = []
    for m in itertools.product(*(range(n + 1) for n in box)):
        if _is_face(delta, m):
            continue
        if all(
            _is_face(delta, m[:i] + (m[i] - 1,) + m[i + 1 :])
            for i in range(len(box))
            if m[i]
        ):
            gens.append(m)
    return MonomialIdeal(len(box), tuple(sorted(pairwise_minimal(gens), reverse=True)))


def _fold(nvars, components) -> MonomialIdeal:
    I = None
    for s in components:
        P = irreducible_ideal(s, nvars)
        I = P if I is None else intersect_monomial_ideals(I, P)
    return I


def folded_section_check(delta) -> tuple:
    """(equal, witness, A, B) as the fold computed them."""
    A = pairwise_minimal_nonfaces(delta)
    B = _fold(delta.nvars, delta.facets)
    C = _fold(delta.nvars, pairwise_meet_closure(delta))
    assert B.equals(C)
    assert all(B.contains(g) for g in A.gens)
    witness = next((g for g in B.gens if not A.contains(g)), None)
    return witness is None, witness, A, B
