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
coatom ordering instead, which does shell them.  Reduced homology is
computed over the rationals by exact integer elimination, with a mod 2
variant for cross checks.
"""

from __future__ import annotations

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
        out = {frozenset()}
        stack = list(self.facets)
        out.update(self.facets)
        while stack:
            f = stack.pop()
            for v in f:
                g = f - {v}
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


def verify_pure_simplicial_shelling(facets_in_order) -> SimplicialShellingReport:
    """Check the shelling condition for an ordered list of equal-size facets.

    F_1, ..., F_t is a shelling when for all i < j some k < j has
    F_i n F_j <= F_k n F_j with |F_k n F_j| = |F_j| - 1.  Checked via the
    restriction sets R_j = {v in F_j : F_j - v is covered by an earlier
    facet}: the pair (i, j) fails exactly when R_j <= F_i.  Such an F_i
    holds every vertex of R_j, so only the earlier facets through the
    vertex of R_j on the fewest of them are scanned, at most t^2 tests in
    all.  The witness names the first failing j and, for it, the least i.
    """
    sets = [frozenset(f) for f in facets_in_order]
    t = len(sets)
    if t == 0:
        raise LatticeInputError("a shelling needs at least one facet")
    card = len(sets[0])
    if any(len(f) != card for f in sets):
        raise LatticeInputError("the pure shelling condition needs equal-size facets")
    if len(set(sets)) != t:
        return SimplicialShellingReport(
            False, {"reason": "duplicate facet"}, "facets must be distinct"
        )
    seen_subsets: set = set()
    through: dict = {}  # vertex -> ascending indexes of earlier facets on it
    for j, fj in enumerate(sets):
        if j > 0 and card > 0:
            restriction = {v for v in fj if (fj - {v}) in seen_subsets}
            if not restriction:
                return SimplicialShellingReport(
                    False,
                    {"i": 0, "j": j},
                    "facet meets no earlier facet in a face of size one less",
                )
            if len(restriction) < card:
                rf = frozenset(restriction)
                for i in min((through.get(v, ()) for v in rf), key=len):
                    if rf <= sets[i]:
                        return SimplicialShellingReport(
                            False,
                            {"i": i, "j": j},
                            "no earlier facet covers the intersection with facet i",
                        )
        for v in fj:
            seen_subsets.add(fj - {v})
            through.setdefault(v, []).append(j)
    return SimplicialShellingReport(True)


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


def _levels(sc: SimplicialComplex, budget: int):
    faces = sc.faces(budget=budget)
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    return by_dim


def _boundary_rows(by_dim, k):
    # one row per k-face: its boundary in the basis of (k-1)-faces
    below = {f: i for i, f in enumerate(by_dim.get(k - 1, ()))}
    rows = []
    for f in by_dim.get(k, ()):
        row = {}
        for t in range(len(f)):
            sub = f[:t] + f[t + 1 :]
            row[below[sub]] = 1 if t % 2 == 0 else -1
        rows.append(row)
    return rows


def reduced_betti(sc: SimplicialComplex, budget: int = 20_000) -> tuple:
    """Reduced Betti numbers over the rationals, dimensions 0 through dim.

    The reduced chain complex includes the empty face, so the augmentation
    map is the boundary from dimension 0.
    """
    by_dim = _levels(sc, budget)
    if 0 not in by_dim:
        return ()
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        ranks[k] = _rank_int(_boundary_rows(by_dim, k))
    ranks[top + 1] = 0
    return tuple(
        len(by_dim.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(0, top + 1)
    )


def reduced_betti_mod2(sc: SimplicialComplex, budget: int = 20_000) -> tuple:
    """Reduced Betti numbers over the field with two elements."""
    by_dim = _levels(sc, budget)
    if 0 not in by_dim:
        return ()
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        bitrows = []
        for row in _boundary_rows(by_dim, k):
            bits = 0
            for c in row:
                bits |= 1 << c
            bitrows.append(bits)
        ranks[k] = _rank_mod2(bitrows)
    ranks[top + 1] = 0
    return tuple(
        len(by_dim.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(0, top + 1)
    )


@dataclass
class WedgeReport:
    ok: bool
    top_dim: int
    spheres: int
    betti: tuple

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "top_dim": self.top_dim,
            "spheres": self.spheres,
            "betti": list(self.betti),
        }


def check_wedge(sc: SimplicialComplex, budget: int = 20_000) -> WedgeReport:
    """Check that the complex has the homology of a wedge of top spheres:
    reduced Betti numbers zero below the top dimension."""
    if len({len(f) for f in sc.facets}) > 1:
        raise LatticeInputError("check_wedge needs a pure complex")
    betti = reduced_betti(sc, budget)
    if not betti:
        return WedgeReport(True, -1, 0, betti)
    ok = all(b == 0 for b in betti[:-1])
    return WedgeReport(ok, len(betti) - 1, betti[-1], betti)
