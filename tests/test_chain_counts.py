"""The counts read off the face poset, against the walks that list what
they count.

- The faces of an order complex are the chains of the poset, counted by
  `order_complex`; the walk of `SimplicialComplex._link` lists them, as the
  link of the vertices on every facet.
- The maximal chains are counted by `PComplex._covers` before any is
  walked; `PComplex.chain_masks` lists them.
- The facet sort key of `SimplicialComplex` is read off the mask; the key
  it replaced built the tuple of each facet's vertices.

Every count is also checked where it gates: at the count a budget answers,
one below it refuses.
"""

import random

import pytest

from powerlat import (
    BudgetError,
    Multicomplex,
    PComplex,
    SimplicialComplex,
    bases,
    build_multiset,
    check_wedge,
    graphic_matroid,
    independence_complex,
    multicomplex_from_pcomplex,
    order_complex,
    reduced_betti_mod2,
    uniform_matroid,
)
from powerlat import stanley_reisner as sr
from powerlat.lattice import _bits
from powerlat.ordercomplex import _reduced_betti_work

from test_acceptance import HAND_MULTICOMPLEXES
from test_graphic import graph_of
from test_homology_paths import small_graph_classes

BIG = 10**9

# the hosts of the uniform matroids of the chain_shelling benchmark
CHAIN_SHELLING_BOXES = ((2, 2, 1), (2, 1, 1), (3, 2), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1), (2, 2), (3, 1, 1))


def fresh(C):
    return PComplex(C.lattice, C.facets)


def counted_complexes(corpus):
    """(tag, complex): the graph classes with at most 3 edges, the uniform
    matroids of the chain_shelling benchmark, and on every corpus lattice
    the whole lattice, the sphere below each element of rank at least 2 and
    seeded complexes of two or three generators, pure or not."""
    for combo in small_graph_classes():
        yield ("graph", combo), independence_complex(graphic_matroid(graph_of(combo)))
    for box in CHAIN_SHELLING_BOXES:
        L = build_multiset(box)
        for k in range(1, L.top_rank):
            yield ("uniform", box, k), independence_complex(uniform_matroid(L, k))
    rng = random.Random(17)
    for name, L in corpus.items():
        elements = list(L.elements())
        yield (name, "top"), PComplex(L, [L.top])
        for x in elements:
            if x.rank >= 2:
                yield (name, "sphere", L.label(x)), PComplex(L, L.lower_covers(x))
        for _ in range(10):
            gens = rng.sample(elements, rng.randint(2, 3))
            yield (name, tuple(map(L.label, gens))), PComplex(L, gens)


def walked_faces(sc) -> int:
    apex, link = sc._link(BIG)
    return len(link) << apex.bit_count()


class TestOrderComplexFaces:
    def test_chain_count_equals_the_link_walk(self, corpus):
        cones = 0
        for tag, C in counted_complexes(corpus):
            for bottom in (True, False):
                sc = order_complex(C, include_bottom=bottom)
                assert sc._face_count == walked_faces(sc), (tag, bottom)
                cones += bool(sc._apex())
        assert cones > 300

    def test_face_budget_answers_at_the_count(self, corpus):
        """On a fresh order complex, every time: the homology answers at the
        walked face count and refuses one below it."""
        for tag, C in counted_complexes(corpus):
            for bottom in (True, False):
                n = walked_faces(order_complex(C, include_bottom=bottom))
                sc = order_complex(C, include_bottom=bottom)
                betti, work = _reduced_betti_work(sc, n, mod2=True)
                assert work["faces"] == n, tag
                assert not sc._apex() or betti == (0,) * (sc.dim + 1), tag
                with pytest.raises(BudgetError, match=rf"^complex has more than {n - 1} faces$"):
                    reduced_betti_mod2(order_complex(C, include_bottom=bottom), n - 1)

    def test_only_a_cone_reads_the_count(self):
        # on a complex whose facets share no vertex the link walk gates and
        # reports the faces, whatever count is kept
        sc = SimplicialComplex("abc", [0b011, 0b110, 0b101])
        sc._face_count = 1
        assert check_wedge(sc).work["faces"] == 7 and check_wedge(sc).betti == (0, 1)
        # on a cone the kept count is read, so a wrong one would show
        cone = SimplicialComplex("abc", [0b011, 0b101])
        cone._face_count = 99
        assert check_wedge(cone, 99).work["faces"] == 99
        with pytest.raises(BudgetError, match=r"^complex has more than 98 faces$"):
            check_wedge(cone, 98)


class TestMaximalChains:
    def test_count_equals_the_walk(self, corpus):
        for tag, C in counted_complexes(corpus):
            C.faces(BIG)
            assert C._covers()[1] == len(C.chain_masks(BIG)[1]), tag

    def test_chain_budget_answers_at_the_count(self, corpus):
        """On a fresh complex: at the walked chain count the walk answers
        unless the faces are over it, and one below it refuses, the face
        budget first."""
        chain_refusals = 0
        for tag, C in counted_complexes(corpus):
            faces, chains = len(C.faces(BIG)), len(C.chain_masks(BIG)[1])
            for budget in (chains - 1, chains):
                if faces > budget:
                    want = f"complex has more than {budget} faces"
                elif chains > budget:
                    want = f"complex has more than {budget} maximal chains"
                    chain_refusals += 1
                else:
                    want = None
                copy = fresh(C)
                try:
                    got = len(copy.chain_masks(budget)[1])
                except BudgetError as e:
                    got = str(e)
                    assert copy._chains is None, tag  # refused before any walk
                assert got == (want or chains), (tag, budget)
        assert chain_refusals > 50

    def test_refusal_walks_no_chain(self):
        L = build_multiset((2, 2, 2))
        C = PComplex(L, [L.top])  # 27 faces, 90 maximal chains
        with pytest.raises(BudgetError, match=r"^complex has more than 89 maximal chains$"):
            C.chain_masks(89)
        assert C._chains is None and C._covers()[1] == 90


def old_facet_key(m):
    # the facet sort key before it was read off the mask
    return (m.bit_count(), tuple(_bits(m)))


def criterion_9_deltas():
    deltas = [Multicomplex(box, facets) for box, facets in HAND_MULTICOMPLEXES]
    L = build_multiset((2, 2, 1))
    deltas += [multicomplex_from_pcomplex(independence_complex(uniform_matroid(L, k))) for k in range(1, 5)]
    for combo in small_graph_classes():
        M = graphic_matroid(graph_of(combo))
        if all(b.key != M.host.top.key for b in bases(M)):
            deltas.append(multicomplex_from_pcomplex(independence_complex(M)))
    return deltas


class TestFacetOrder:
    def test_seeded_random_masks(self):
        rng = random.Random(23)
        sizes = set()
        for _ in range(3_000):
            n = rng.randint(0, 14)
            masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 40))] if n else [0]
            sc = SimplicialComplex([str(v) for v in range(n)], masks)
            assert list(sc.facet_masks) == sorted(sc.facet_masks, key=old_facet_key), masks
            sizes.add(len({m.bit_count() for m in sc.facet_masks}))
        assert max(sizes) >= 4  # non-pure families too

    def test_polarized_complexes_of_criterion_9(self):
        deltas = criterion_9_deltas()
        assert len(deltas) == 149
        for delta in deltas:
            sc = sr.polarized_complex(delta)
            assert list(sc.facet_masks) == sorted(sc.facet_masks, key=old_facet_key), delta.facets

    def test_order_complexes(self, corpus):
        for tag, C in counted_complexes(corpus):
            for bottom in (True, False):
                masks = order_complex(C, include_bottom=bottom).facet_masks
                assert list(masks) == sorted(masks, key=old_facet_key), tag
