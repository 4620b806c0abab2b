"""Weighted graphic matroids checked against a forest oracle.

Graphs on four labeled vertices with up to a handful of edges, loops and
parallels included, weights 1 or 2.  Every multiset of the edge lattice is
compared with a component-count forest test, both through the predicate
and through the matroid's independents, and the matroid laws are checked
on each sampled graph.  The exhaustive sweep over all such graphs up to
isomorphism runs in the acceptance suite.  Graphs outside that sweep
(weights up to 3, six edges, loops only, isolated vertices) are compared
with the earlier scan of the edge lattice.
"""

import functools
import itertools
import random

import pytest

from powerlat import (
    Edge,
    bases,
    check_equal_rank,
    graphic_matroid,
    is_independent_edge_multiset,
    matroid_shelling,
    verify_basis_axioms,
    verify_independence_axioms,
    weighted_graph,
)

from matroid_oracles import scanned_graphic_matroid

VERTS = ("a", "b", "c", "d")
SLOTS = tuple(itertools.combinations_with_replacement(range(4), 2))

NAMED_SPECS = {
    "complete": tuple(((i, j), 1) for i, j in itertools.combinations(range(4), 2)),
    "cycle_heavy_chord": (
        ((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1), ((0, 2), 2),
    ),
    "loop_parallel_bridge": (((0, 0), 1), ((0, 1), 1), ((0, 1), 2), ((1, 2), 1)),
    "triple_parallel": (((0, 1), 1), ((0, 1), 1), ((0, 1), 2)),
    "bowtie": (((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 3), 1), ((0, 3), 1)),
}


def graph_of(spec):
    """spec is a multiset of ((i, j), wt) slot pairs on the fixed vertices."""
    edges = [
        Edge(f"e{k}", VERTS[i], VERTS[j], wt) for k, ((i, j), wt) in enumerate(spec)
    ]
    return weighted_graph(VERTS, edges)


def canonical(spec):
    best = None
    for perm in itertools.permutations(range(4)):
        mapped = tuple(
            sorted(
                ((min(perm[i], perm[j]), max(perm[i], perm[j])), wt)
                for (i, j), wt in spec
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


def forest_oracle(G, mult):
    """Full-weight edges must have one fewer edge than vertices touched,
    component by component."""
    full = [e for e, m in zip(G.edges, mult) if m == e.wt]
    adj = {}
    for e in full:
        adj.setdefault(e.u, set())
        adj.setdefault(e.v, set())
        if e.u != e.v:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
    comps = 0
    seen = set()
    for v in adj:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            stack.extend(adj[w])
    return len(full) == len(adj) - comps


def check_graph(spec, shelling=True):
    G = graph_of(spec)
    M = graphic_matroid(G)
    L = M.host
    forests = set()
    for x in L.elements():
        forest = forest_oracle(G, x.key)
        assert is_independent_edge_multiset(G, x) == forest, spec
        if forest:
            forests.add(x)
    assert M.independents == forests, spec
    rep = verify_independence_axioms(M)
    assert rep.ok and rep.complete, spec
    B = bases(M)
    assert check_equal_rank(B), spec
    assert verify_basis_axioms(L, B).ok, spec
    if shelling:
        assert matroid_shelling(M).ok, spec


def all_specs(size):
    options = [(slot, wt) for slot in SLOTS for wt in (1, 2)]
    return itertools.combinations_with_replacement(options, size)


@functools.cache
def graph_classes():
    """One edge multiset per isomorphism class of weighted graphs with 1 to
    5 edges: the first of its class met when the multisets are listed by
    size, then in combination order.  Cached, since the 53,129 calls to
    `canonical` take seconds and three acceptance criteria use the list."""
    seen = set()
    reps = []
    for size in range(1, 6):
        for spec in all_specs(size):
            key = canonical(spec)
            if key not in seen:
                seen.add(key)
                reps.append(spec)
    return tuple(reps)


class TestSmallGraphClasses:
    def test_every_class_with_at_most_two_edges(self):
        classes = {canonical(s) for k in (1, 2) for s in all_specs(k)}
        for spec in sorted(classes):
            check_graph(spec)

    def test_sampled_three_edge_classes(self):
        rng = random.Random(31)
        classes = sorted({canonical(s) for s in all_specs(3)})
        for spec in rng.sample(classes, 40):
            check_graph(spec)

    def test_sampled_larger_graphs(self):
        rng = random.Random(37)
        options = [(slot, wt) for slot in SLOTS for wt in (1, 2)]
        seen = set()
        while len(seen) < 30:
            size = rng.choice([4, 5])
            spec = tuple(sorted(rng.choices(options, k=size)))
            if spec in seen:
                continue
            seen.add(spec)
            check_graph(spec, shelling=(size <= 4))


class TestNamedGraphs:
    def test_complete_graph(self):
        spec = NAMED_SPECS["complete"]
        G = graph_of(spec)
        M = graphic_matroid(G)
        assert len(bases(M)) == 16
        check_graph(spec)

    def test_cycle_with_heavy_chord(self):
        spec = NAMED_SPECS["cycle_heavy_chord"]
        check_graph(spec, shelling=False)
        G = graph_of(spec)
        assert not is_independent_edge_multiset(G, (1, 1, 1, 1, 0))
        assert is_independent_edge_multiset(G, (1, 0, 1, 0, 2))
        assert is_independent_edge_multiset(G, (1, 1, 1, 0, 1))

    def test_loop_parallel_bridge(self):
        spec = NAMED_SPECS["loop_parallel_bridge"]
        check_graph(spec)
        G = graph_of(spec)
        assert not is_independent_edge_multiset(G, (1, 0, 0, 0))
        assert not is_independent_edge_multiset(G, (0, 1, 2, 0))
        assert is_independent_edge_multiset(G, (0, 1, 1, 1))

    def test_triple_parallel(self):
        spec = NAMED_SPECS["triple_parallel"]
        check_graph(spec)
        G = graph_of(spec)
        B = bases(graphic_matroid(G))
        assert check_equal_rank(B) and B[0].rank == 2

    def test_bowtie(self):
        spec = NAMED_SPECS["bowtie"]
        check_graph(spec, shelling=False)


class TestAgainstTheScan:
    """The forest construction against the scan of the edge lattice."""

    @staticmethod
    def check(G):
        M = graphic_matroid(G)
        # only independents were interned: no dependent element was built
        assert len(M.host._cache) == len(M.independents)
        scan = scanned_graphic_matroid(G)
        assert {x.key for x in M.independents} == {x.key for x in scan.independents}

    def test_named_graphs(self):
        for spec in NAMED_SPECS.values():
            self.check(graph_of(spec))

    def test_six_edges_with_weights_up_to_three(self):
        rng = random.Random(43)
        options = [(slot, wt) for slot in SLOTS for wt in (1, 2, 3)]
        for _ in range(40):
            self.check(graph_of(rng.choices(options, k=6)))

    def test_loops_only(self):
        for spec in (
            (((0, 0), 1),),
            (((0, 0), 3), ((0, 0), 2)),
            (((0, 0), 1), ((1, 1), 2), ((2, 2), 3), ((3, 3), 1)),
        ):
            self.check(graph_of(spec))

    def test_parallel_full_weight_edges(self):
        for spec in (
            (((0, 1), 1), ((0, 1), 1)),
            (((0, 1), 3), ((0, 1), 2), ((0, 1), 1), ((1, 0), 3)),
            (((0, 1), 2), ((1, 0), 2), ((1, 2), 3), ((2, 1), 1), ((2, 2), 2)),
        ):
            self.check(graph_of(spec))

    def test_isolated_vertices(self):
        verts = ("a", "b", "c", "d", "e", "f")
        for edges in (
            [Edge("e0", "a", "b", 2)],
            [Edge("e0", "a", "b", 1), Edge("e1", "b", "c", 3), Edge("e2", "a", "c", 2)],
            [Edge("e0", "f", "f", 2), Edge("e1", "c", "d", 1), Edge("e2", "d", "c", 1)],
        ):
            self.check(weighted_graph(verts, edges))
