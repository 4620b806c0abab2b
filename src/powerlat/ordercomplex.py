"""Order complexes, chain orders, simplicial shellings, and homology.

The order complex of a complex S is the simplicial complex of chains in S;
its facets are the maximal chains.  They are counted on the face poset,
then walked once per complex (`PComplex.chain_masks`), as int masks over
the positions of `S.faces()`, the vertex indexes of `order_complex`, which
takes the walked chains as its facets with no second check.  The faces of
the order complex, the chains of S, are counted on the poset too, so the
homology of a cone lists none of them.

Two chain orders are provided.  The reverse lexicographic order
(`compare_reverse_lex`) compares position by position from the top in the
rank level order, and where two elements share a rank level key, by
`sort_key`.  It is also the prescribed shelling order
(`compare_shelling_order`), since comparing the tops first and then the
truncated chains is the same comparison.  The prescribed order is not
always a shelling, even when the facet order is
(``test_private_atom_before_shared_fails`` pins the smallest
counterexample); `complex_order_shelling` orders the chains by a recursive
coatom ordering instead, which does shell them.

Both orders are tree orders read down from a top adjoined above the
facets: two chains compare by the places of their elements among their
siblings, read from the top, and a node's sibling order depends only on
the node.  The prescribed order has one node per face.  The coatom order
has one per (z, S), S the lower covers of z under an earlier sibling of z,
which come first below z.  For c = (0 = c_0 < c_1 < ... < c_r),
restriction sets as in Bjorner and Wachs ("Shellable nonpure complexes and
posets I", 1996) are local: a chain holding c - c_i differs from c only at
rank i, and agrees with c above it, so c_i is in R(c) exactly when some
earlier sibling of c_i, at the node of c_{i+1}, lies above c_{i-1}.  The
order fails at c exactly when the earliest chain through R(c) and the
bottom, built greedily from the top, is not c: when at some level i
outside R(c) an earlier sibling of c_i lies above s_i, the highest element
of R(c) + {0} below rank i.  Both tests read only the node of c_{i+1},
c_{i-1}, c_i and s_i, so one pass up the node table over the states
(c_{i-1}, s_i) at each node gives the verdict, and a descent from the root
through the states that reach a failing step gives the first failing
chain; a chain's index sums the maximal-chain counts of [0, y] over the
earlier siblings y of its elements.  The report's `order` lists the chains
by a depth-first walk of the same table, with no chain walked or sorted.
`verify_nonpure_shelling` is the restriction-set verifier for simplicial
shellings with facets of any sizes, on int masks with one bitset of
earlier facets per vertex; `verify_pure_simplicial_shelling` first refuses
unequal sizes.

Reduced homology is computed over the rationals by exact integer
elimination, with a mod 2 variant for cross checks, on faces stored as int
bitmasks over the vertex indexes.  A complex whose facets share the vertex
set A is the join of the simplex on A with the link of A, so it has 2^|A|
times as many faces as the link and, when A is not empty, no reduced
homology: its faces are counted against the face budget, from the poset
for an order complex and otherwise by walking the link.  When A is empty
only the faces outside the closed star of the vertex on the most facets
are eliminated: the star is a cone, hence contractible, so the homology
relative to it is the reduced homology of the complex (the long exact
sequence of the pair; Hatcher, *Algebraic Topology*, section 2.1).  An
order complex that keeps the bottom is a cone over it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from math import gcd

from .instances import _is_int
from .lattice import (
    BudgetError,
    Element,
    LatticeInputError,
    PowerLattice,
    _bits,
    _rank_level_key,
    _with_verdict,
    rank_lex_compare,
)
from .pcomplex import PComplex, sphere, verify_shelling


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex:
    """Finite simplicial complex given by labeled vertices and facets.

    Facets are given as iterables of vertex indexes or as int bitmasks over
    them, and stored as masks in `facet_masks`; `facets` and `faces()` are
    frozenset views.  The constructor validates its input; `order_complex`
    sets the fields of one whose facets are known to be valid (`_set`).
    """

    def __init__(self, vertex_labels, facets):
        labels = tuple(vertex_labels)
        if len(set(labels)) != len(labels):
            raise LatticeInputError("vertex labels must be distinct")
        n = len(labels)
        by_size: dict[int, set] = {}  # the distinct masks, by size
        for f in facets:
            if _is_int(f):
                if f < 0 or f >> n:
                    raise LatticeInputError(f"facet mask {f!r} is not over the vertex indexes")
                m = f
            elif not isinstance(f, Iterable):
                raise LatticeInputError(f"facet {f!r} is neither a mask nor a set of vertex indexes")
            else:
                m = 0
                for v in f:
                    if not _is_int(v) or not 0 <= v < n:
                        raise LatticeInputError(f"facet vertex {v!r} is not a vertex index")
                    m |= 1 << v
            by_size.setdefault(m.bit_count(), set()).add(m)
        # a set can only lie in a strictly larger one, so each size is tested
        # against the maximal sets already kept; a pure family needs no test
        maximal = []
        for size in sorted(by_size, reverse=True):
            maximal += [m for m in by_size[size] if not any(m & g == m for g in maximal)]
        # facets of equal size in the lexicographic order of their vertex
        # tuples: where two first differ, the earlier one has the vertex, so
        # they sort by the binary digits of their complements read from
        # vertex 0 up
        full = (1 << n) - 1
        maximal.sort(key=lambda m: (m.bit_count(), bin(m ^ full)[:1:-1]))
        self._set(labels, tuple(maximal))

    def _set(self, labels, masks, face_count=None, paths=None):
        # `face_count`, where given, is the number of faces counted without
        # a walk; `paths`, where given, lists each facet's vertexes in
        # increasing order, as `order_complex` walked them
        self.vertex_labels = labels
        self.facet_masks = masks
        self._face_count = face_count
        self._paths = paths

    @property
    def facets(self) -> tuple:
        if self._paths is not None:
            return tuple(map(frozenset, self._paths))
        return tuple(frozenset(_bits(m)) for m in self.facet_masks)

    @property
    def dim(self) -> int:
        return max((m.bit_count() for m in self.facet_masks), default=0) - 1

    def faces(self, budget: int = 20_000) -> set:
        """All faces, the empty face included; refused when there are more
        than `budget`."""
        apex, link = self._link(budget)
        simplex = [0]  # the faces of the simplex on the apex set
        for v in _bits(apex):
            simplex += [s | 1 << v for s in simplex]
        return {frozenset(_bits(s | f)) for s in simplex for f in link}

    def _apex(self) -> int:
        # A, the vertices on every facet, as a mask
        apex = self.facet_masks[0] if self.facet_masks else 0
        for m in self.facet_masks:
            apex &= m
        return apex

    def _link(self, budget: int):
        # (A, the faces of lk A) for A = `_apex()`, faces as ints over the
        # vertex indexes.  The complex is the join of the simplex on A with
        # lk A, so it has more than `budget` faces exactly when lk A has
        # more than budget >> |A|; every face counts, the facets and the
        # empty face too.  Each facet's subsets are walked once, dropping
        # vertices in increasing order, and the walk stops at a face already
        # listed, which came with all of its subsets.
        apex = self._apex()
        cap = budget >> apex.bit_count()
        out = {0}
        if len(out) > cap:
            raise BudgetError(f"complex has more than {budget} faces")
        for facet in self.facet_masks:
            stack = [(facet ^ apex, facet ^ apex)]  # (face, vertices it may drop)
            while stack:
                f, free = stack.pop()
                if f in out:
                    continue
                if len(out) >= cap:
                    raise BudgetError(f"complex has more than {budget} faces")
                out.add(f)
                while free:
                    low = free & -free
                    free ^= low
                    stack.append((f ^ low, free))
        return apex, out

    @classmethod
    def from_obj(cls, obj) -> "SimplicialComplex":
        if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
            raise LatticeInputError(
                "a simplicial complex description needs 'vertices' and 'facets'"
            )
        labels = obj["vertices"]
        if not isinstance(labels, list) or any(not isinstance(s, str) for s in labels):
            raise LatticeInputError("'vertices' must be a list of strings")
        pos = {s: i for i, s in enumerate(labels)}
        if len(pos) != len(labels):
            raise LatticeInputError("vertex labels must be distinct")
        if not isinstance(obj["facets"], list):
            raise LatticeInputError("'facets' must be a list of facets")
        facets = []
        for f in obj["facets"]:
            if not isinstance(f, list):
                raise LatticeInputError("each facet must be a list of vertices")
            out = []
            for v in f:
                if isinstance(v, str):
                    if v not in pos:
                        raise LatticeInputError(f"unknown vertex {v!r}")
                    out.append(pos[v])
                elif _is_int(v) and 0 <= v < len(labels):
                    out.append(v)
                else:
                    raise LatticeInputError(f"unknown vertex {v!r}")
            facets.append(out)
        return cls(tuple(labels), facets)

    def to_obj(self) -> dict:
        return {
            "vertices": list(self.vertex_labels),
            "facets": [
                sorted(self.vertex_labels[v] for v in _bits(m)) for m in self.facet_masks
            ],
        }


# ---------------------------------------------------------------------------
# maximal chains and the order complex


def maximal_chains(C: PComplex, include_bottom: bool = True, budget: int = 10_000):
    """All maximal chains of the complex, as tuples from bottom upward, in
    the lexicographic order of their elements' `sort_key`s: the chains of
    `PComplex.chain_masks`, mapped back to elements."""
    _, chains = C.chain_masks(budget)
    element = C.faces(budget).__getitem__
    skip = 0 if include_bottom else 1  # the bottom is position 0
    return [tuple(map(element, path[skip:])) for _, path in chains]


def _chain_count(down) -> int:
    # the chains of the face poset minus its bottom (position 0), the empty
    # chain included, from the strict down-sets of `PComplex._poset`: the
    # chains with top x number 1 plus those with top y, summed over the y
    # below x.
    topped = [0] * len(down)  # 0 at the bottom, which is left out
    for x in range(1, len(down)):
        topped[x] = 1 + sum(map(topped.__getitem__, _bits(down[x])))
    return 1 + sum(topped)


def order_complex(
    C: PComplex, include_bottom: bool = True, budget: int = 10_000
) -> SimplicialComplex:
    """The order complex: vertices are faces of C, facets are maximal chains.

    Its faces are the chains of C (Stanley, *Enumerative Combinatorics 1*,
    section 3.8), so their number is counted on the poset and kept for the
    face budget of `_reduced_betti_work`; keeping the bottom doubles it.
    The walked chains are distinct, maximal and in the lexicographic order
    of their positions: stably sorted by length, they are its facets, and
    their walked paths are kept for the `facets` view.
    """
    _, chains = C.chain_masks(budget)
    labels = tuple(map(C.lattice.label, C.faces(budget)))
    masks = sorted((m for m, _ in chains), key=int.bit_count)
    paths = sorted((path for _, path in chains), key=len)  # the same stable sort
    faces = _chain_count(C._poset()[2])
    if include_bottom:
        faces <<= 1
    else:
        labels = labels[1:]
        masks = [m >> 1 for m in masks]
        paths = [tuple(p - 1 for p in path[1:]) for path in paths]
    sc = SimplicialComplex.__new__(SimplicialComplex)
    sc._set(labels, tuple(masks), faces, paths)
    return sc


# ---------------------------------------------------------------------------
# chain comparisons


def compare_reverse_lex(L: PowerLattice, X, Y, atom_order=None) -> int:
    """Reverse lexicographic chain order: compare at the largest index where
    the chains differ, in the rank level order, and where the two elements
    there share a rank-level key, by `L.sort_key`; so 0 only for equal
    chains.

    This is also the prescribed shelling order, `compare_shelling_order`:
    tops first, then the chains below the top.  It need not shell the order
    complex even when the facet order shells the complex; see
    ``test_private_atom_before_shared_fails`` for a counterexample and
    `complex_order_shelling` for an order that shells.
    """
    X, Y = tuple(X), tuple(Y)
    if len(X) != len(Y):
        raise LatticeInputError("chains must have equal length")
    for x, y in zip(reversed(X), reversed(Y)):
        if x != y:
            return rank_lex_compare(L, x, y, atom_order) or (-1 if L.sort_key(x) < L.sort_key(y) else 1)
    return 0


# The prescribed chain order for shellings compares the tops in the rank
# level order, then the chains below the top reverse lexicographically:
# that is the reverse lexicographic order itself.  The name stays public
# because the README, the tests and the perfbench tracer use it.
compare_shelling_order = compare_reverse_lex


# ---------------------------------------------------------------------------
# simplicial shellings


@dataclass
class SimplicialShellingReport:
    ok: bool
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        return _with_verdict({"ok": self.ok}, self.witness, self.detail)


def _facet_masks(facets) -> list:
    # int masks pass through; otherwise each facet is an iterable of
    # vertices, and each vertex gets one bit, in the order first met
    facets = list(facets)
    kinds = set()  # True for an int mask, False for an iterable of vertices
    for f in facets:
        if _is_int(f):
            kinds.add(True)
        elif isinstance(f, Iterable):
            kinds.add(False)
        else:
            raise LatticeInputError(f"facet {f!r} is neither a mask nor a set of vertices")
    if kinds == {True}:
        return facets
    if True in kinds:
        raise LatticeInputError("facets mix int masks with iterables of vertices")
    bit: dict = {}
    return [sum({bit.setdefault(v, 1 << len(bit)) for v in f}) for f in facets]


def verify_nonpure_shelling(facets_in_order) -> SimplicialShellingReport:
    """Check the shelling condition on an order of facets of any sizes.

    Facets are int bitmasks over vertex indexes, or iterables of vertices,
    which are converted to masks once.  F_1, ..., F_t is a shelling when
    for all i < j some k < j has F_i n F_j <= F_k n F_j with
    |F_k n F_j| = |F_j| - 1 (Bjorner and Wachs, "Shellable nonpure
    complexes and posets I", 1996).  Checked via the restriction sets
    R_j = {v in F_j : F_j - F_k = {v} for an earlier F_k}: the pair (i, j)
    fails exactly when R_j <= F_i.  F_j - v is looked up among the earlier
    facets and their faces of one size less, which finds every such F_k of
    size at most |F_j|; only an earlier facet larger than F_j is tested
    directly, so a pure order runs no subset test.  Each vertex keeps a
    bitset of the earlier facets on it, so the F_i with R_j <= F_i are the
    AND of the bitsets of R_j's vertices.  The witness names the first
    failing j and, for it, the least i: the lowest bit of that AND.
    Each facet is an int mask or an iterable of vertices, and one order
    does not mix the two.
    """
    return _verify_masks(_facet_masks(facets_in_order))


def _verify_masks(masks: list) -> SimplicialShellingReport:
    # `verify_nonpure_shelling` on facets already made int masks
    if not masks:
        raise LatticeInputError("a shelling needs at least one facet")
    if len(set(masks)) != len(masks):
        return SimplicialShellingReport(
            False, {"reason": "duplicate facet"}, "facets must be distinct"
        )
    seen: set = set()  # the earlier facets and their faces of one size less
    by_size: dict = {}  # size -> the earlier facets of that size
    on: dict = {}  # vertex bit -> the bitset of the earlier facets on it
    for j, fj in enumerate(masks):
        card = fj.bit_count()
        if j > 0:
            restriction, rest = 0, fj
            while rest:
                low = rest & -rest
                rest ^= low
                if fj ^ low in seen:
                    restriction |= low
            larger = [fk for size, fs in by_size.items() if size > card for fk in fs]
            for fk in larger:
                rest = fj & ~fk
                if rest and not rest & (rest - 1):
                    restriction |= rest
            if not restriction:
                return SimplicialShellingReport(
                    False,
                    {"i": 0, "j": j},
                    "facet meets no earlier facet in a face of size one less",
                )
            if restriction.bit_count() < card or larger:
                holding, rest = -1, restriction  # the earlier F_i with R_j <= F_i
                while rest and holding:
                    low = rest & -rest
                    rest ^= low
                    holding &= on.get(low, 0)
                if holding:
                    return SimplicialShellingReport(
                        False,
                        {"i": (holding & -holding).bit_length() - 1, "j": j},
                        "no earlier facet covers the intersection with facet i",
                    )
        seen.add(fj)
        by_size.setdefault(card, []).append(fj)
        bit, rest = 1 << j, fj
        while rest:
            low = rest & -rest
            rest ^= low
            seen.add(fj ^ low)
            on[low] = on.get(low, 0) | bit
    return SimplicialShellingReport(True)


def verify_pure_simplicial_shelling(facets_in_order) -> SimplicialShellingReport:
    """Check the shelling condition for an ordered list of equal-size facets:
    `verify_nonpure_shelling`, after refusing facets of different sizes."""
    masks = _facet_masks(facets_in_order)
    if len({m.bit_count() for m in masks}) > 1:
        raise LatticeInputError("the pure shelling condition needs equal-size facets")
    return _verify_masks(masks)


@dataclass
class OrderShellingReport:
    """Verdict on a chain order; `order` holds the chains in the order
    checked, bottom upward, and is left out of `to_obj` and of equality.
    It is listed when read, by `_order()`."""

    ok: bool
    chains: int
    witness: dict | None = None
    detail: str = ""
    _order: Callable = field(default=tuple, repr=False, compare=False)

    @property
    def order(self) -> tuple:
        return self._order()

    def to_obj(self) -> dict:
        return _with_verdict({"ok": self.ok, "chains": self.chains}, self.witness, self.detail)


def _chain_tree(C: PComplex, atom_order, budget, coatom: bool):
    # (maximal chain count, faces, face, kids) for a chain order, after the
    # face, chain-count and equal-length refusals.  The chains are the paths
    # down a tree of nodes from a top adjoined above the facets, compared by
    # the sibling places of their nodes read from the top.  Nodes are
    # numbered children first, the bottom 0 and the root last; face[v] is
    # the position of v's face (len(faces) at the root) and kids[v] lists
    # v's children in sibling order.  The prescribed order has one node per
    # face, its children in rank-level order, ties broken by `sort_key`
    # (the positions).  The recursive coatom order has one node per (z, S),
    # S the lower covers of z under an earlier sibling of z: those come
    # first, then the rest, each part by rank-level key, ties kept in the
    # host's lower-cover order; built top down, level by level.
    count = C._maximal_chain_count(budget)
    faces = C.faces(budget)
    below, _, _, tops = C._poset()
    n = len(faces)
    height = [0] * n
    for x in range(1, n):
        h = height[below[x][0]]
        if any(height[g] != h for g in below[x]):
            raise LatticeInputError("chains must have equal length")
        height[x] = h + 1
    if len({height[x] for x in tops}) > 1:
        raise LatticeInputError("chains must have equal length")
    # the faces come sorted by `sort_key`, which extends the default
    # rank-level key, so under the default atom order the places are the
    # positions
    by_place = keys = None
    if atom_order is not None or coatom:
        keys = list(map(_rank_level_key(C.lattice, atom_order), faces))
        if atom_order is not None:
            place = [0] * n
            for i, x in enumerate(sorted(range(n), key=keys.__getitem__)):
                place[x] = i
            by_place = place.__getitem__
    roots = sorted(tops, key=by_place)
    if not coatom:
        return count, faces, range(n + 1), [sorted(gs, key=by_place) for gs in below] + [roots]
    covers = [sum(1 << g for g in gs) for gs in below]
    face, held, kids, memo = [n], [0], [], {}
    for z, S in zip(face, held):  # grows as the nodes are made
        order = roots if z == n else sorted(below[z], key=lambda y: (not S >> y & 1, keys[y]))
        ids, shared = [], 0
        for y in order:
            k = (y, covers[y] & shared)
            if k not in memo:
                memo[k] = len(face)
                face.append(y)
                held.append(k[1])
            ids.append(memo[k])
            shared |= covers[y]
        kids.append(ids)
    last = len(face) - 1
    return count, faces, face[::-1], [[last - w for w in ids] for ids in reversed(kids)]


def _chain_order_report(C: PComplex, atom_order, budget, coatom=False) -> OrderShellingReport:
    # A chain order decided on the tree of `_chain_tree` (module docstring).
    # ups[v] lists the pairs (u, e) for the parents u of node v, e being the
    # union of the strict down-sets of the faces of the children of u
    # before v: an earlier sibling of v lies above t exactly when e has
    # bit t.  states[v] maps each state (c_{i-1}, s_i) of the chains
    # through v to whether some chain reaches it through a failing step.
    count, faces, face, kids = _chain_tree(C, atom_order, budget, coatom)
    _, through, down, _ = C._poset()
    root = len(kids) - 1
    ups = [[] for _ in kids]
    for u, vs in enumerate(kids):
        e = 0
        for v in vs:
            ups[v].append((u, e))
            e |= down[face[v]]

    def order():
        # the chains by a depth-first walk of the tree, bottom upward
        out, stack = [], [(root, ())]
        while stack:
            v, path = stack.pop()
            if not kids[v]:
                out.append(tuple(map(faces.__getitem__, reversed(path))))
            stack += [(w, path + (face[w],)) for w in reversed(kids[v])]
        return tuple(out)

    states = [{} for _ in kids]
    for a, _ in ups[0]:
        states[a][0, 0] = False
    failed = False
    for v in range(1, root):
        x, here = face[v], states[v]
        for u, e in ups[v]:
            there = states[u]
            for (p, s), f in here.items():
                if e >> p & 1:  # x is in R: s moves up to x
                    k = (x, x)
                else:
                    k = (x, s)
                    if e >> s & 1:  # an earlier sibling lies above s
                        f = failed = True
                if not there.get(k):
                    there[k] = f

    if not failed:
        return OrderShellingReport(True, count, None, "", order)
    chain = _first_failing_chain(states, ups, face, kids)
    # R(c) level by level, then the earliest chain through R(c) and the
    # bottom, greedily from the top
    r = len(chain) - 2
    restricted = [dict(ups[chain[k]])[chain[k + 1]] >> face[chain[k - 1]] & 1 for k in range(1, r + 1)]
    lows, low = [], 0  # lows[k - 1]: the highest element of R(c) + {0} below level k
    for k in range(1, r + 1):
        lows.append(low)
        if restricted[k - 1]:
            low = face[chain[k]]
    first = [root]
    for k in range(r, 0, -1):
        if restricted[k - 1]:
            first.append(next(w for w in kids[first[-1]] if face[w] == face[chain[k]]))
        else:
            first.append(next(w for w in kids[first[-1]] if down[face[w]] >> lows[k - 1] & 1))
    first.append(0)
    first.reverse()

    def index(c):
        # the chains before c: those through an earlier sibling of some c_k
        # that agree with c above it
        return sum(
            through[face[w]] for k in range(1, r + 1) for w in kids[c[k + 1]][: kids[c[k + 1]].index(c[k])]
        )

    label = C.lattice.label
    witness = {
        "i": index(first),
        "j": index(chain),
        "chain_i": [label(faces[face[v]]) for v in first[:-1]],
        "chain_j": [label(faces[face[v]]) for v in chain[:-1]],
    }
    if any(restricted):
        detail = "no earlier facet covers the intersection with facet i"
    else:
        detail = "facet meets no earlier facet in a face of size one less"
    return OrderShellingReport(False, count, witness, detail, order)


def _first_failing_chain(states, ups, face, kids) -> list:
    # The first failing chain of `_chain_order_report`, as nodes from the
    # bottom up to the root, found from the top down.  `cand` maps the
    # states (c_{i-1}, s_i) of the chains through the part chosen so far
    # to whether that part holds a failing step; a state is kept when a
    # failing chain runs through it, by a failing step above it or below it
    # (`states`), and the earliest child whose face is some c_{i-1} is taken.
    u = len(kids) - 1
    chain = [u]
    cand = {k: False for k, f in states[u].items() if f}
    while True:
        named = {q for q, _ in cand}
        v = next(w for w in kids[u] if face[w] in named)
        chain.append(v)
        if not v:
            return chain[::-1]
        p = face[v]
        mine = {s: above for (q, s), above in cand.items() if q == p}
        e = dict(ups[v])[u]
        cand = {}
        for (q, t), f in states[v].items():
            if e >> q & 1:
                s, step = p, False
            else:
                s, step = t, e >> t & 1 == 1
            above = mine.get(s)
            if above is not None and (above or step or f):
                cand[q, t] = above or step
        u = v


def sphere_order_shelling_check(
    L: PowerLattice, x: Element, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """Check that the reverse lexicographic order of the maximal chains of
    the sphere below x shells its order complex.

    Decided on the cover graph of the sphere, from its local restriction
    sets (module docstring); the report's `order` lists the chains when it
    is first read."""
    return _chain_order_report(sphere(L, x), atom_order, budget)


def _facet_order_refusal(C: PComplex, atom_order):
    # the refusal report, unless C is pure with a shelling rank-level facet
    # order
    if not C.is_pure():
        return OrderShellingReport(False, 0, {"reason": "not pure"}, "complex is not pure")
    srep = verify_shelling(C, None, atom_order)
    if not srep.ok:
        witness = dict(srep.witness or {})
        witness["reason"] = "facet order is not a shelling"
        return OrderShellingReport(False, 0, witness, srep.detail)
    return None


def complex_order_shelling_check(
    C: PComplex, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """For a complex whose rank-level facet order is a shelling, check that
    the prescribed (reverse lexicographic) order of the maximal chains
    shells the order complex.  The hypothesis on the facet order is checked
    first, then the face and chain budgets and the equal chain lengths.

    The verdict is decided on the cover graph, with no chain walked: each
    chain's restriction set is local, the order fails at a chain exactly
    when the earliest chain through its restriction set is another one,
    and one pass over the states (c_{i-1}, c_i, s_i) finds whether some
    chain fails, and which is first (module docstring).  The report's
    `order` lists the chains when it is first read.

    The prescribed order is not always a shelling: facets {a,c} and {b,c}
    in the Boolean lattice on three atoms are the smallest counterexample
    (``test_private_atom_before_shared_fails``).  `complex_order_shelling`
    orders the chains so that they do shell.
    """
    return _facet_order_refusal(C, atom_order) or _chain_order_report(C, atom_order, budget)


def complex_order_shelling(
    C: PComplex, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """Shell the order complex of C by a recursive coatom ordering.

    C must be pure with a rank-level facet order that shells; both are
    checked first, with the same refusals as `complex_order_shelling_check`.
    The facets come in rank-level order, and below each chain element z its
    lower covers come first when they lie under an earlier sibling of z (an
    earlier facet, for a facet; otherwise a lower cover of z's parent that
    precedes z), then the rest, each part in rank-level order (Bjorner and
    Wachs, "On lexicographically shellable posets", 1983, section 3).  The
    order is decided by the same pass as the prescribed order's, over one
    node per element and set of such lower covers (module docstring); the
    report's `order` lists the chains, depth first, when it is first read.
    """
    return _facet_order_refusal(C, atom_order) or _chain_order_report(C, atom_order, budget, coatom=True)


# ---------------------------------------------------------------------------
# homology


def _rank_int(rows) -> int:
    """Exact rank over the rationals of a sparse integer matrix.

    Rows are dicts column -> nonzero integer.  Elimination prefers unit
    pivots; when none divides, rows are combined fraction free and reduced
    by their content, so all arithmetic stays in the integers.
    """
    mat = {i: dict(r) for i, r in enumerate(rows) if r}
    cols: dict[int, set] = {}
    for i, r in mat.items():
        for c in r:
            cols.setdefault(c, set()).add(i)
    rank = 0
    while mat:
        rid = min(mat, key=lambda i: (len(mat[i]), i))
        row = mat.pop(rid)
        best = None
        for c, v in row.items():
            key = (abs(v) != 1, len(cols[c]), c)
            if best is None or key < best[0]:
                best = (key, c)
        c = best[1]
        pv = row[c]
        rank += 1
        for cc in row:
            cols[cc].discard(rid)
        for tid in list(cols.get(c, ())):
            trow = mat[tid]
            a = trow[c]
            if a % pv == 0:
                f = a // pv
                for cc, v in row.items():
                    nv = trow.get(cc, 0) - f * v
                    if nv:
                        if cc not in trow:
                            cols.setdefault(cc, set()).add(tid)
                        trow[cc] = nv
                    elif cc in trow:
                        del trow[cc]
                        cols[cc].discard(tid)
            else:
                for cc in trow:
                    trow[cc] *= pv
                for cc, v in row.items():
                    nv = trow.get(cc, 0) - a * v
                    if nv:
                        if cc not in trow:
                            cols.setdefault(cc, set()).add(tid)
                        trow[cc] = nv
                    elif cc in trow:
                        del trow[cc]
                        cols[cc].discard(tid)
                g = 0
                for v in trow.values():
                    g = gcd(g, v)
                if g > 1:
                    for cc in trow:
                        trow[cc] //= g
            if not trow:
                del mat[tid]
        cols.pop(c, None)
    return rank


def _rank_mod2(bitrows) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for r in bitrows:
        cur = r
        while cur:
            c = cur.bit_length() - 1
            if c in pivots:
                cur ^= pivots[c]
            else:
                pivots[c] = cur
                rank += 1
                break
    return rank


def _boundary_rows(faces, below, mod2: bool) -> list:
    # one row per relative k-face over the relative (k-1)-faces `below`:
    # dropping the t-th smallest vertex of f gives the face f ^ low with
    # sign (-1)^t, and a face in the star has no column.  Rows are dicts
    # column -> +-1 for `_rank_int`, or int bit rows for `_rank_mod2`.
    col = {g: i for i, g in enumerate(below)}
    rows = []
    for f in faces:
        row = 0 if mod2 else {}
        rest, t = f, 0
        while rest:
            low = rest & -rest
            rest ^= low
            c = col.get(f ^ low)
            if c is not None:
                if mod2:
                    row |= 1 << c
                else:
                    row[c] = -1 if t & 1 else 1
            t += 1
        rows.append(row)
    return rows


def _reduced_betti_work(sc: SimplicialComplex, budget: int, mod2: bool = False):
    """(reduced Betti numbers, work record), over the rationals or mod 2.

    When A, the vertices on every facet, is not empty and the faces were
    counted on a poset (`order_complex`), that count is the one held
    against the budget and recorded, and no face is walked.  Otherwise
    only the link of A is walked against the budget
    (`SimplicialComplex._link`), and the faces are the link's times 2^|A|.
    The closed star st(v) of a vertex is a cone, hence has no reduced
    homology, and the long exact sequence of the pair (Hatcher, *Algebraic
    Topology*, section 2.1) gives H~_k(D) = H_k(D, st v) for every k and
    every coefficient ring.  So only the faces s with s + v not in D are
    eliminated, v being the vertex on the most facets (the smallest index
    on ties).  When A is not empty, v lies in A, D is a cone over v and no
    face is left to eliminate.
    """
    apex = sc._apex()
    if apex and sc._face_count is not None:
        faces, link = sc._face_count, ()
        if faces > budget:
            raise BudgetError(f"complex has more than {budget} faces")
    else:
        apex, link = sc._link(budget)
        faces = len(link) << apex.bit_count()
    work = {"faces": faces, "budget": budget, "star": 0, "boundaries": []}
    top = sc.dim
    if top < 0:
        return (), work
    levels: dict[int, list] = {}  # the relative faces by dimension
    if not apex:
        on = Counter(v for m in sc.facet_masks for v in _bits(m))
        star = 1 << min(on, key=lambda v: (-on[v], v))
        for f in link:
            if f | star not in link:
                levels.setdefault(f.bit_count() - 1, []).append(f)
    work["star"] = faces - sum(map(len, levels.values()))
    for level in levels.values():
        level.sort()
    rank = _rank_mod2 if mod2 else _rank_int
    ranks = [0] * (top + 2)
    for k in range(top + 1):
        here, below = levels.get(k, []), levels.get(k - 1, [])
        ranks[k] = rank(_boundary_rows(here, below, mod2))
        work["boundaries"].append({"rows": len(here), "cols": len(below), "rank": ranks[k]})
    betti = tuple(
        len(levels.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    )
    return betti, work


def reduced_betti(sc: SimplicialComplex, budget: int = 20_000) -> tuple:
    """Reduced Betti numbers over the rationals, dimensions 0 through dim.

    Computed relative to the closed star of the busiest vertex, which is
    contractible (`_reduced_betti_work`); the empty face lies in that star,
    so the augmentation map drops out.  Exact integer elimination.
    """
    return _reduced_betti_work(sc, budget)[0]


def reduced_betti_mod2(sc: SimplicialComplex, budget: int = 20_000) -> tuple:
    """Reduced Betti numbers over the field with two elements, relative to
    the same star as `reduced_betti`."""
    return _reduced_betti_work(sc, budget, mod2=True)[0]


@dataclass
class WedgeReport:
    """`work` is the homology's work record: faces enumerated against the
    budget, the star's face count, and each boundary matrix's shape and
    rank."""

    ok: bool
    top_dim: int
    spheres: int
    betti: tuple
    work: dict

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "top_dim": self.top_dim,
            "spheres": self.spheres,
            "betti": list(self.betti),
            "work": self.work,
        }


def check_wedge(sc: SimplicialComplex, budget: int = 20_000) -> WedgeReport:
    """Check that the complex has the homology of a wedge of top spheres:
    reduced Betti numbers zero below the top dimension."""
    if len({m.bit_count() for m in sc.facet_masks}) > 1:
        raise LatticeInputError("check_wedge needs a pure complex")
    betti, work = _reduced_betti_work(sc, budget)
    if not betti:
        return WedgeReport(True, -1, 0, betti, work)
    ok = all(b == 0 for b in betti[:-1])
    return WedgeReport(ok, len(betti) - 1, betti[-1], betti, work)
