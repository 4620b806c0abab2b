"""The order complex read off the walked chains, the restriction-set
verifier's bitset scan and the reverse lexicographic listing of the chains,
against the code they replaced.

- `order_complex` builds its complex from `PComplex.chain_masks` without
  the public constructor's checks; the constructor, given the same masks,
  is the oracle.
- `verify_nonpure_shelling` keeps, per vertex, a bitset of the earlier
  facets on it; `rarest_vertex_verify_nonpure_shelling` of
  shelling_oracles.py scanned index lists.
- the prescribed order lists the chains by a depth-first walk of its tree
  (`_chain_order_report`); `place_map_reverse_lex_chains` of
  chain_oracles.py sorted the walked chains by their rank-level places.
"""

import random

from powerlat import (
    PComplex,
    SimplicialComplex,
    build_multiset,
    find_nonpure_shelling,
    order_complex,
    sort_by_rank_lex,
    verify_nonpure_shelling,
    verify_pure_simplicial_shelling,
)
from powerlat.ordercomplex import _chain_order_report, _facet_order_refusal, _reduced_betti_work

from chain_oracles import place_map_reverse_lex_chains, walked_coatom_chains, walked_reverse_lex_chains
from shelling_oracles import rarest_vertex_verify_nonpure_shelling
from test_chain_counts import BIG, counted_complexes
from test_shelling_paths import masks_of, random_antichain, verdict

SMALL_FACES = 2_000  # rational Betti numbers too, up to this many faces


def chain_complexes(corpus):
    # the graph classes with at most 3 edges and the uniform matroids of the
    # chain_shelling benchmark
    for tag, C in counted_complexes(corpus):
        if tag[0] in ("graph", "uniform"):
            yield tag, C


# ---------------------------------------------------------------------------
# the order complex from the walk


def constructed(C, include_bottom):
    # the order complex through the public constructor, from the same walk
    labels = tuple(map(C.lattice.label, C.faces(BIG)))
    masks = [m for m, _ in C.chain_masks(BIG)]
    if include_bottom:
        return SimplicialComplex(labels, masks)
    return SimplicialComplex(labels[1:], [m >> 1 for m in masks])


class TestOrderComplexFromTheWalk:
    def test_matches_the_public_constructor(self, corpus):
        rational = 0
        for tag, C in counted_complexes(corpus):
            for bottom in (True, False):
                sc, ref = order_complex(C, include_bottom=bottom), constructed(C, bottom)
                assert sc.vertex_labels == ref.vertex_labels, (tag, bottom)
                assert sc.facet_masks == ref.facet_masks, (tag, bottom)
                assert sc.facets == ref.facets, (tag, bottom)
                assert sc.dim == ref.dim and sc.to_obj() == ref.to_obj(), (tag, bottom)
                got, want = (_reduced_betti_work(s, BIG, mod2=True) for s in (sc, ref))
                assert got[0] == want[0], (tag, bottom)
                assert got[1]["faces"] == want[1]["faces"], (tag, bottom)
                if want[1]["faces"] <= SMALL_FACES:
                    assert _reduced_betti_work(sc, BIG)[0] == _reduced_betti_work(ref, BIG)[0]
                    rational += 1
        assert rational > 500

    def test_non_pure_complexes_are_covered(self, corpus):
        # the stable sort by length matters only where chains differ in length
        lengths = {
            len({len(path) for _, path in C.chain_masks(BIG)})
            for _, C in counted_complexes(corpus)
        }
        assert max(lengths) > 1

    def test_facets_are_the_walked_paths(self):
        L = build_multiset((2, 1))
        C = PComplex(L, [L.element((2, 0)), L.element((1, 1))])
        sc = order_complex(C)
        assert sc.facets == tuple(frozenset(path) for _, path in C.chain_masks())


# ---------------------------------------------------------------------------
# the bitset scan of the verifier


def random_orders(rng):
    """(order, pure) pairs: shuffled and shelling orders of antichains of
    mixed sizes, equal-size draws with repeats, and distinct sets with
    containments."""
    for _ in range(1200):
        facets = random_antichain(rng)
        order = list(facets)
        rng.shuffle(order)
        yield order, len(set(map(len, order))) == 1
        found = find_nonpure_shelling(facets)
        if found is not None:
            yield list(found), len(set(map(len, found))) == 1
    for _ in range(1200):
        size = rng.randint(0, 4)
        yield [frozenset(rng.sample(range(7), size)) for _ in range(rng.randint(1, 12))], True
    for _ in range(800):
        drawn = {frozenset(rng.sample(range(6), rng.randint(0, 5))) for _ in range(rng.randint(1, 8))}
        order = list(drawn)
        rng.shuffle(order)
        yield order, len(set(map(len, order))) == 1


def holders(order, j):
    # the i < j with R_j <= F_i, R_j computed from its definition
    F = [frozenset(f) for f in order]
    R = {v for v in F[j] if any(F[j] - {v} <= F[k] and v not in F[k] for k in range(j))}
    return [i for i in range(j) if R <= F[i]]


class TestBitsetScan:
    def test_matches_the_rarest_vertex_scan_on_random_orders(self):
        rng = random.Random(53)
        seen, orders, several = set(), 0, 0
        for order, pure in random_orders(rng):
            rep = verify_nonpure_shelling(order)
            assert verdict(rep) == verdict(rarest_vertex_verify_nonpure_shelling(order)), order
            assert verdict(verify_nonpure_shelling(masks_of(order))) == verdict(rep), order
            seen.add((pure, rep.ok))
            orders += 1
            if rep.witness and "i" in rep.witness:
                # the witness is the least of several candidates
                several += len(holders(order, rep.witness["j"])) > 1
        assert orders >= 3_000
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        assert several > 100

    def test_matches_the_rarest_vertex_scan_on_chain_orders(self, corpus):
        verdicts = set()
        for tag, C in chain_complexes(corpus):
            orders = [walked_reverse_lex_chains(C, None, BIG)]
            if _facet_order_refusal(C, None) is None:
                facets = sort_by_rank_lex(C.lattice, C.facets)
                orders.append(walked_coatom_chains(C, facets, None, BIG))
            for chains in orders:
                masks = [m for m, _ in chains]
                rep = verify_pure_simplicial_shelling(masks)
                assert verdict(rep) == verdict(rarest_vertex_verify_nonpure_shelling(masks)), tag
                verdicts.add(rep.ok)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the reverse lexicographic listing


class TestReverseLexSort:
    def test_matches_the_place_map_sort(self, corpus):
        permuted = 0
        for tag, C in counted_complexes(corpus):
            if len({len(path) for _, path in C.chain_masks(BIG)}) > 1:
                continue
            faces, n = C.faces(BIG), len(C.lattice.atoms)
            shifted = tuple(range(1, n)) + (0,)
            for atom_order in (None, tuple(reversed(range(n))), shifted):
                got = _chain_order_report(C, atom_order, BIG).order
                want = place_map_reverse_lex_chains(C, atom_order, BIG)
                assert got == tuple(tuple(map(faces.__getitem__, path)) for _, path in want), (tag, atom_order)
                permuted += atom_order is not None and got != _chain_order_report(C, None, BIG).order
        assert permuted > 100

