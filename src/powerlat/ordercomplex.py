"""Order complexes, chain orders, simplicial shellings, and homology.

The order complex of a complex S is the simplicial complex of chains in S;
its facets are the maximal chains.  One total order on maximal chains is
provided, under two names: the reverse lexicographic order
(`compare_reverse_lex`), which compares position by position from the top
in the rank level order, is also the prescribed shelling order
(`compare_shelling_order`), since comparing the tops first and then the
truncated chains is the same comparison.  The prescribed order is not
always a shelling, even when the facet order is
(``test_private_atom_before_shared_fails`` pins the smallest
counterexample); `complex_order_shelling` lists the chains by a recursive
coatom ordering instead, which does shell them.  One restriction-set
verifier, `verify_nonpure_shelling`, checks simplicial shellings with
facets of any sizes; `verify_pure_simplicial_shelling` is the same check
after refusing facets of different sizes.  Reduced homology is
computed over the rationals by exact integer elimination, with a mod 2
variant for cross checks, on faces stored as int bitmasks over the vertex
indexes.  Only the faces outside the closed star of the vertex on the most
facets are eliminated: the star is a cone, hence contractible, so the
homology relative to it is the reduced homology of the complex (the long
exact sequence of the pair; Hatcher, *Algebraic Topology*, section 2.1).
An order complex that keeps the bottom is a cone and leaves nothing to
eliminate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from .lattice import (
    BudgetError,
    Element,
    LatticeInputError,
    PowerLattice,
    _rank_level_key,
    rank_lex_compare,
)
from .pcomplex import PComplex, ShellingReport, sort_by_rank_lex, sphere, verify_shelling


# ---------------------------------------------------------------------------
# simplicial complexes


def _vertices(mask: int):
    # the vertex indexes of a face mask, ascending
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex:
    """Finite simplicial complex given by labeled vertices and facets."""

    def __init__(self, vertex_labels, facets):
        labels = tuple(vertex_labels)
        if len(set(labels)) != len(labels):
            raise LatticeInputError("vertex labels must be distinct")
        by_size: dict[int, set] = {}  # the distinct sets, by size
        for f in facets:
            fs = frozenset(f)
            for v in fs:
                if not isinstance(v, int) or v < 0 or v >= len(labels):
                    raise LatticeInputError(f"facet vertex {v!r} is not a vertex index")
            by_size.setdefault(len(fs), set()).add(fs)
        # a set can only lie in a strictly larger one, so each size is tested
        # against the maximal sets already kept; a pure family needs no test
        maximal = []
        for size in sorted(by_size, reverse=True):
            maximal += [f for f in by_size[size] if not any(f < g for g in maximal)]
        maximal.sort(key=lambda f: (len(f), sorted(f)))
        self.vertex_labels = labels
        self.facets = tuple(maximal)

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self, budget: int = 20_000) -> set:
        """All faces, the empty face included."""
        return {frozenset(_vertices(m)) for m in self._face_masks(budget)}

    def _face_masks(self, budget: int) -> set:
        # every face as an int over the vertex indexes, walked down from the
        # facets: the children of f are f ^ low for each set bit low.  The
        # facets and the empty face are seeded unchecked, and each new face
        # counts against the budget.
        facets = [sum(1 << v for v in f) for f in self.facets]
        out = set(facets)
        out.add(0)
        stack = facets
        while stack:
            f = stack.pop()
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                g = f ^ low
                if g not in out:
                    if len(out) >= budget:
                        raise BudgetError(f"complex has more than {budget} faces")
                    out.add(g)
                    stack.append(g)
        return out

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
                elif isinstance(v, int) and 0 <= v < len(labels):
                    out.append(v)
                else:
                    raise LatticeInputError(f"unknown vertex {v!r}")
            facets.append(out)
        return cls(tuple(labels), facets)

    def to_obj(self) -> dict:
        return {
            "vertices": list(self.vertex_labels),
            "facets": [sorted(self.vertex_labels[v] for v in f) for f in self.facets],
        }


# ---------------------------------------------------------------------------
# maximal chains and the order complex


def _lower_cover_map(C: PComplex, budget: int) -> dict:
    # face key -> the face's lower covers in the host lattice, which are
    # faces too, since a complex is downward closed
    L = C.lattice
    return {f.key: L.lower_covers(f) for f in C.faces(budget=budget)}


def maximal_chains(C: PComplex, include_bottom: bool = True, budget: int = 10_000):
    """All maximal chains of the complex, as tuples from bottom upward.

    Since a complex is downward closed, cover steps inside it are cover
    steps of the host lattice, so chains are walked down the lower covers
    from each facet to the bottom.
    """
    L = C.lattice
    below = _lower_cover_map(C, budget)
    chains = []
    stack = [(f,) for f in C.facets]
    while stack:
        path = stack.pop()
        children = below[path[-1].key]
        if not children:
            if len(chains) >= budget:
                raise BudgetError(f"complex has more than {budget} maximal chains")
            chains.append(path[::-1])
            continue
        for g in children:
            stack.append(path + (g,))
    if not include_bottom:
        chains = [c[1:] for c in chains]
    sort_keys = {f.key: L.sort_key(f) for f in C.faces(budget=budget)}
    chains.sort(key=lambda c: tuple(sort_keys[x.key] for x in c))
    return chains


def order_complex(
    C: PComplex, include_bottom: bool = True, budget: int = 10_000
) -> SimplicialComplex:
    """The order complex: vertices are faces of C, facets are maximal chains."""
    L = C.lattice
    chains = maximal_chains(C, include_bottom=include_bottom, budget=budget)
    verts = list(C.faces(budget=budget))
    if not include_bottom:
        verts = [v for v in verts if v.rank > 0 or v != L.bottom]
    index = {v.key: i for i, v in enumerate(verts)}
    labels = tuple(L.label(v) for v in verts)
    facet_sets = [frozenset(index[x.key] for x in chain) for chain in chains]
    if not facet_sets:
        facet_sets = [frozenset()]
    return SimplicialComplex(labels, facet_sets)


# ---------------------------------------------------------------------------
# chain comparisons


def compare_reverse_lex(L: PowerLattice, X, Y, atom_order=None) -> int:
    """Reverse lexicographic chain order: compare at the largest index where
    the chains differ, in the rank level order.

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
            return rank_lex_compare(L, x, y, atom_order)
    return 0


# The prescribed chain order for shellings compares the tops in the rank
# level order, then the chains below the top reverse lexicographically:
# that is the reverse lexicographic order itself.  The name stays public
# because the README, the tests and the perfbench tracer use it.
compare_shelling_order = compare_reverse_lex


def _sort_chains(L: PowerLattice, chains, atom_order) -> list:
    # the chains sorted in the reverse lexicographic order: by the
    # rank-level keys of their elements, read from the top down
    if len({len(c) for c in chains}) > 1:
        raise LatticeInputError("chains must have equal length")
    key = _rank_level_key(L, atom_order)
    elements = {x.key: x for c in chains for x in c}
    keys = {k: key(x) for k, x in elements.items()}
    return sorted(chains, key=lambda c: tuple(keys[x.key] for x in reversed(c)))


# ---------------------------------------------------------------------------
# simplicial shellings


@dataclass
class SimplicialShellingReport:
    ok: bool
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj = {"ok": self.ok}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj


def verify_nonpure_shelling(facets_in_order) -> SimplicialShellingReport:
    """Check the shelling condition on an order of facets of any sizes.

    F_1, ..., F_t is a shelling when for all i < j some k < j has
    F_i n F_j <= F_k n F_j with |F_k n F_j| = |F_j| - 1 (Bjorner and Wachs,
    "Shellable nonpure complexes and posets I", 1996).  Checked via the
    restriction sets R_j = {v in F_j : F_j - F_k = {v} for an earlier F_k}:
    the pair (i, j) fails exactly when R_j <= F_i.  F_j - v is looked up
    among the earlier facets and their faces of one size less, which finds
    every such F_k of size at most |F_j|; only an earlier facet larger than
    F_j is tested directly, so a pure order runs no subset test.  An F_i
    with R_j <= F_i holds every vertex of R_j, so only the earlier facets
    through the vertex of R_j on the fewest of them are scanned.  The
    witness names the first failing j and, for it, the least i.
    """
    sets = [frozenset(f) for f in facets_in_order]
    if not sets:
        raise LatticeInputError("a shelling needs at least one facet")
    if len(set(sets)) != len(sets):
        return SimplicialShellingReport(
            False, {"reason": "duplicate facet"}, "facets must be distinct"
        )
    seen: set = set()  # the earlier facets and their faces of one size less
    by_size: dict = {}  # size -> the earlier facets of that size
    through: dict = {}  # vertex -> ascending indexes of earlier facets on it
    for j, fj in enumerate(sets):
        if j > 0:
            card = len(fj)
            restriction = {v for v in fj if (fj - {v}) in seen}
            larger = [fk for size, fs in by_size.items() if size > card for fk in fs]
            for fk in larger:
                rest = fj - fk
                if len(rest) == 1:
                    restriction |= rest
            if not restriction:
                return SimplicialShellingReport(
                    False,
                    {"i": 0, "j": j},
                    "facet meets no earlier facet in a face of size one less",
                )
            if len(restriction) < card or larger:
                rf = frozenset(restriction)
                for i in min((through.get(v, ()) for v in rf), key=len):
                    if rf <= sets[i]:
                        return SimplicialShellingReport(
                            False,
                            {"i": i, "j": j},
                            "no earlier facet covers the intersection with facet i",
                        )
        seen.add(fj)
        by_size.setdefault(len(fj), []).append(fj)
        for v in fj:
            seen.add(fj - {v})
            through.setdefault(v, []).append(j)
    return SimplicialShellingReport(True)


def verify_pure_simplicial_shelling(facets_in_order) -> SimplicialShellingReport:
    """Check the shelling condition for an ordered list of equal-size facets:
    `verify_nonpure_shelling`, after refusing facets of different sizes."""
    sets = [frozenset(f) for f in facets_in_order]
    if len({len(f) for f in sets}) > 1:
        raise LatticeInputError("the pure shelling condition needs equal-size facets")
    return verify_nonpure_shelling(sets)


@dataclass
class OrderShellingReport:
    """Verdict on a chain order; `order` holds the chains in the order
    checked, bottom upward, and is left out of `to_obj`."""

    ok: bool
    chains: int
    witness: dict | None = None
    detail: str = ""
    order: tuple = field(default=(), repr=False)

    def to_obj(self) -> dict:
        obj = {"ok": self.ok, "chains": self.chains}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj


def _chains_to_sets(C: PComplex, chains, budget):
    index = {v.key: i for i, v in enumerate(C.faces(budget=budget))}
    return [frozenset(index[x.key] for x in chain) for chain in chains]


def _chain_labels(L, chain):
    return [L.label(x) for x in chain]


def _order_report(C: PComplex, chains, budget) -> OrderShellingReport:
    # check that the chains, in the given order, shell the order complex
    L = C.lattice
    rep = verify_pure_simplicial_shelling(_chains_to_sets(C, chains, budget))
    witness = rep.witness
    if witness is not None and "j" in witness:
        witness = dict(witness)
        witness["chain_i"] = _chain_labels(L, chains[witness["i"]])
        witness["chain_j"] = _chain_labels(L, chains[witness["j"]])
    return OrderShellingReport(rep.ok, len(chains), witness, rep.detail, tuple(chains))


def sphere_order_shelling_check(
    L: PowerLattice, x: Element, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """Sort the maximal chains of the sphere below x reverse
    lexicographically and check that this order shells its order complex."""
    S = sphere(L, x)
    chains = maximal_chains(S, include_bottom=True, budget=budget)
    return _order_report(S, _sort_chains(L, chains, atom_order), budget)


def _facet_order_refusal(C: PComplex, atom_order):
    # (refusal report, None) unless C is pure with a shelling rank-level
    # facet order, else (None, that facet order)
    if not C.is_pure():
        refusal = OrderShellingReport(
            False, 0, {"reason": "not pure"}, "complex is not pure"
        )
        return refusal, None
    srep = verify_shelling(C, None, atom_order)
    if not srep.ok:
        witness = dict(srep.witness or {})
        witness["reason"] = "facet order is not a shelling"
        return OrderShellingReport(False, 0, witness, srep.detail), None
    return None, srep.order


def complex_order_shelling_check(
    C: PComplex, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """For a complex whose rank-level facet order is a shelling, sort the
    maximal chains by the shelling order and check that this shells the
    order complex.  The hypothesis on the facet order is checked first.

    The prescribed order is not always a shelling: facets {a,c} and {b,c}
    in the Boolean lattice on three atoms are the smallest counterexample
    (``test_private_atom_before_shared_fails``).  `complex_order_shelling`
    orders the chains so that they do shell.
    """
    refusal, _ = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    chains = maximal_chains(C, include_bottom=True, budget=budget)
    return _order_report(C, _sort_chains(C.lattice, chains, atom_order), budget)


def complex_order_shelling(
    C: PComplex, atom_order=None, budget: int = 10_000
) -> OrderShellingReport:
    """Shell the order complex of C by a recursive coatom ordering.

    C must be pure with a rank-level facet order that shells; both are
    checked first, with the same refusals as `complex_order_shelling_check`.
    The facets come in rank-level order, and below each chain element z its
    lower covers come first when they lie under an earlier sibling of z (an
    earlier facet, for a facet; otherwise a lower cover of z's parent that
    precedes z), then the rest, each part in rank-level order.  A
    depth-first walk from the top lists the maximal chains in this order
    (Bjorner and Wachs, "On lexicographically shellable posets", 1983,
    section 3), and the order is then verified as a simplicial shelling.
    """
    L = C.lattice
    refusal, facets = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    key = _rank_level_key(L, atom_order)
    pos = {f.key: key(f) for f in C.faces(budget=budget)}
    below = _lower_cover_map(C, budget)
    chains = []

    def walk(path, siblings):
        z = path[-1]
        if z.rank == 0:
            if len(chains) >= budget:
                raise BudgetError(f"complex has more than {budget} maximal chains")
            chains.append(tuple(reversed(path)))
            return
        shared = {g.key for s in siblings for g in below[s.key]}
        order = sorted(below[z.key], key=lambda g: (g.key not in shared, pos[g.key]))
        for i, g in enumerate(order):
            walk(path + (g,), order[:i])

    for i, f in enumerate(facets):
        walk((f,), facets[:i])
    return _order_report(C, chains, budget)


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

    The closed star st(v) of a vertex is a cone, hence has no reduced
    homology, and the long exact sequence of the pair (Hatcher, *Algebraic
    Topology*, section 2.1) gives H~_k(D) = H_k(D, st v) for every k and
    every coefficient ring.  So only the faces s with s + v not in D are
    eliminated, v being the vertex on the most facets (the smallest index
    on ties).  A cone over v leaves no face to eliminate.
    """
    faces = sc._face_masks(budget)
    work = {"faces": len(faces), "budget": budget, "star": 0, "boundaries": []}
    top = sc.dim
    if top < 0:
        return (), work
    on = Counter(v for f in sc.facets for v in f)
    apex = 1 << min(on, key=lambda v: (-on[v], v))
    levels: dict[int, list] = {}  # the relative faces by dimension
    for f in faces:
        if f | apex not in faces:
            levels.setdefault(f.bit_count() - 1, []).append(f)
    work["star"] = len(faces) - sum(map(len, levels.values()))
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
    if len({len(f) for f in sc.facets}) > 1:
        raise LatticeInputError("check_wedge needs a pure complex")
    betti, work = _reduced_betti_work(sc, budget)
    if not betti:
        return WedgeReport(True, -1, 0, betti, work)
    ok = all(b == 0 for b in betti[:-1])
    return WedgeReport(ok, len(betti) - 1, betti[-1], betti, work)
