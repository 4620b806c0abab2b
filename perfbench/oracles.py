"""Independent answers the benchmark checks the library against.

Nothing here imports powerlat: each function works on plain tuples
(exponent vectors, vertex indices) and follows the mathematical definition
rather than the library's algorithm, so a wrong library answer cannot be
confirmed by the same code that produced it.
"""

from __future__ import annotations

import itertools
import math

# ---------------------------------------------------------------------------
# weighted graphs on four labelled vertices, up to isomorphism

VERTICES = ("a", "b", "c", "d")
SLOTS = tuple(itertools.combinations_with_replacement(range(4), 2))
OPTIONS = tuple((slot, wt) for slot in SLOTS for wt in (1, 2))


def _option_maps():
    index = {opt: i for i, opt in enumerate(OPTIONS)}
    maps = []
    for perm in itertools.permutations(range(4)):
        row = []
        for (i, j), wt in OPTIONS:
            a, b = perm[i], perm[j]
            row.append(index[((min(a, b), max(a, b)), wt)])
        maps.append(tuple(row))
    return maps


def graph_classes(max_edges: int = 5) -> list:
    """Canonical edge multisets, one per isomorphism class.

    A graph is a sorted tuple of indices into OPTIONS (slot and weight);
    it is canonical when no vertex relabelling maps it to a smaller tuple.
    With five edges this gives the 2924 classes of the acceptance sweep.
    """
    maps = _option_maps()
    out = []
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(range(len(OPTIONS)), size):
            if all(tuple(sorted(m[c] for c in combo)) >= combo for m in maps):
                out.append(combo)
    return out


def graph_edges(combo) -> list:
    """(u, v, wt) triples with vertex indices."""
    return [(OPTIONS[c][0][0], OPTIONS[c][0][1], OPTIONS[c][1]) for c in combo]


def _forest_rank(edges, subset) -> int:
    parent = list(range(len(VERTICES)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for k in subset:
        u, v, _ = edges[k]
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def graphic_bases(edges) -> list:
    """Bases of the weighted graphic matroid on (u, v, wt) edges, as
    exponent vectors in edge order.

    A multiset is independent when its full-weight edges form a forest, so
    a basis puts a spanning forest F at full weight and every other edge
    one below its weight (a loop or an edge closing a cycle with F).
    """
    full = _forest_rank(edges, range(len(edges)))
    out = []
    for forest in itertools.combinations(range(len(edges)), full):
        if _forest_rank(edges, forest) == full:
            out.append(
                tuple(wt if k in forest else wt - 1 for k, (_, _, wt) in enumerate(edges))
            )
    return out


def uniform_bases(box, k) -> list:
    return [m for m in itertools.product(*(range(n + 1) for n in box)) if sum(m) == k]


def multinomial(vec) -> int:
    out = math.factorial(sum(vec))
    for v in vec:
        out //= math.factorial(v)
    return out


def chain_count(facets) -> int:
    """Maximal chains from the bottom of a multiset complex: every element
    below a facet is a face, so the chains ending at a facet are its
    lattice paths, and distinct facets end distinct chains."""
    return sum(multinomial(f) for f in facets)


def down_set(facets) -> set:
    out = set()
    for f in facets:
        out.update(itertools.product(*(range(v + 1) for v in f)))
    return out


def order_complex_faces(facets) -> int:
    """Faces of the order complex (chains of faces, the empty chain
    included), counted by dynamic programming over the face poset."""
    faces = sorted(down_set(facets), key=sum)
    ending = {}
    for x in faces:
        ending[x] = 1 + sum(
            n for y, n in ending.items() if y != x and all(a <= b for a, b in zip(y, x))
        )
    return 1 + sum(ending.values())


# ---------------------------------------------------------------------------
# orders and shellings on multiset complexes


def position_sequence(x) -> tuple:
    """Factorization of an exponent vector under the default atom order."""
    return tuple(i for i, v in enumerate(x) for _ in range(v))


def rank_lex_sorted(elements) -> list:
    return sorted(elements, key=lambda x: (sum(x), position_sequence(x)))


def _meet(x, y):
    return tuple(map(min, x, y))


def _leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def is_multiset_shelling(order) -> bool:
    """The shelling definition on a pure facet order: every earlier meet
    with f_j lies under a meet of rank r - 1 with an earlier facet."""
    r = sum(order[0])
    for j in range(1, len(order)):
        fj = order[j]
        big = [_meet(order[k], fj) for k in range(j) if sum(_meet(order[k], fj)) == r - 1]
        for i in range(j):
            mij = _meet(order[i], fj)
            if not any(_leq(mij, m) for m in big):
                return False
    return True


def has_multiset_shelling(facets) -> bool:
    facets = list(facets)
    if len({sum(f) for f in facets}) > 1:
        return False
    return any(is_multiset_shelling(p) for p in itertools.permutations(facets))


def maximal_chains(facets) -> list:
    """All lattice paths from the bottom to each facet, bottom included."""
    chains = []
    for f in facets:
        steps = position_sequence(f)
        for perm in set(itertools.permutations(steps)):
            cur = [0] * len(f)
            chain = [tuple(cur)]
            for i in perm:
                cur[i] += 1
                chain.append(tuple(cur))
            chains.append(tuple(chain))
    return chains


def shelling_chain_order(chains) -> list:
    """The prescribed chain order: tops in the rank-level order, then the
    chains below the top compared from the largest index downward."""

    def key(chain):
        return tuple(position_sequence(x) for x in reversed(chain))

    return sorted(chains, key=key)


def is_simplicial_shelling(facets) -> bool:
    """Pure shelling by definition, in cubic time: for i < j some k < j has
    F_i n F_j inside F_k n F_j and |F_k n F_j| = |F_j| - 1."""
    sets = [frozenset(f) for f in facets]
    for j in range(1, len(sets)):
        fj = sets[j]
        big = [sets[k] & fj for k in range(j) if len(sets[k] & fj) == len(fj) - 1]
        for i in range(j):
            if not any((sets[i] & fj) <= m for m in big):
                return False
    return True


def prescribed_order_shells(facets) -> bool:
    """Verdict of the chain order check, computed from the definitions."""
    chains = shelling_chain_order(maximal_chains(facets))
    index = {}
    for chain in chains:
        for x in chain:
            index.setdefault(x, len(index))
    return is_simplicial_shelling([{index[x] for x in c} for c in chains])


# ---------------------------------------------------------------------------
# Stanley-Reisner side


def section_rings_equal(box, facets) -> bool:
    """The ceiling-power criterion: the nonface ideal equals the facet
    intersection exactly when no pure power x_i^{n_i} is a face."""
    return not any(f[i] == n for f in facets for i, n in enumerate(box))


def maximal_monomials(facets) -> list:
    fs = set(map(tuple, facets))
    return [f for f in fs if not any(g != f and _leq(f, g) for g in fs)]
