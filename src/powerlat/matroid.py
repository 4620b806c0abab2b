"""Matroids on power lattices, and weighted graphic matroids.

A matroid here is a downward closed family of lattice elements containing
the bottom and satisfying the valuation exchange axiom: whenever x, y are
independent with rho(x) < rho(y), some atom a has v_a(x) < v_a(y) and
x v a^{v_a(x)+1} independent.  One implementation of each check serves
every host lattice: it reads lower covers, atom powers and joins only.
The independents are walked in `sort_key` order, so a failing check's
witness is the first one in rank-level order, whatever the hash seed.
The `ops` of an independence report counts the lower covers scanned, the
atoms tried and the pairs of independents compared.
`bases` returns the maximal independents of any family, downward closed
or not.  The basis axioms and the dual exchange theorem are checked as
stated, and the bases in the rank-level order are checked to shell the
independence complex.  Weighted graphs give matroids on multiset lattices
over their edges: a multiset is independent when its full-weight edges
are acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import MultisetLattice, _is_int, _sequence
from .lattice import (
    CheckResult,
    Element,
    LatticeInputError,
    PowerLattice,
    VerificationReport,
    _finish_report,
    _Meter,
    _OutOfBudget,
)
from .pcomplex import PComplex, ShellingReport, sort_by_rank_lex, verify_shelling


@dataclass(frozen=True)
class Matroid:
    """A matroid candidate: a host lattice and an explicit independent set."""

    host: PowerLattice
    independents: frozenset

    def __post_init__(self):
        for x in self.independents:
            if not isinstance(x, Element) or x.host is not self.host:
                raise LatticeInputError("independents must be elements of the host lattice")
        if not self.independents:
            raise LatticeInputError("a matroid needs at least one independent element")

    def contains(self, x: Element) -> bool:
        return x in self.independents


def uniform_matroid(L: PowerLattice, k: int) -> Matroid:
    """U_k: all elements of rank at most k."""
    if not isinstance(k, int) or k < 0 or k > L.top_rank:
        raise LatticeInputError(f"uniform matroid rank must lie in 0..{L.top_rank}")
    ind = [x for level in range(k + 1) for x in L.elements_of_rank(level)]
    return Matroid(L, frozenset(ind))


# ---------------------------------------------------------------------------
# independence axioms


def _raise(L: PowerLattice, x: Element, i: int):
    """x v a_i^{v_i(x)+1}, or None when atom a_i has no power that high."""
    p = L.atom_power(L.atoms[i], x.valuation[i] + 1)
    return None if p is None else L.join(x, p)


def _verify_independence(L: PowerLattice, ind, meter, results, names):
    order = sorted(ind, key=L.sort_key)

    passed = L.bottom in ind
    results.append(
        CheckResult(names[0], passed, True, None if passed else {"missing": L.label(L.bottom)})
    )

    # every element below x lies below one of its lower covers
    witness = None
    for x in order:
        below = L.lower_covers(x)
        meter.spend(len(below))
        missing = next((y for y in below if y not in ind), None)
        if missing is not None:
            witness = {"x": L.label(x), "missing": L.label(missing)}
            break
    results.append(CheckResult(names[1], witness is None, True, witness))

    # per independent x below the top rank level, the atoms a with
    # x v a^{v_a(x)+1} independent, with v_a(x)
    by_rank: dict[int, list] = {}
    for x in order:
        by_rank.setdefault(x.rank, []).append(x)
    levels = [by_rank[r] for r in sorted(by_rank)]
    nv = len(L.atoms)
    ups = {}
    for xs in levels[:-1]:
        for x in xs:
            meter.spend(nv)
            ups[x] = [(i, x.valuation[i]) for i in range(nv) if _raise(L, x, i) in ind]
    pair = _unaugmented_pair(levels, ups, meter)
    witness = None if pair is None else {"x": L.label(pair[0]), "y": L.label(pair[1])}
    results.append(
        CheckResult(
            names[2],
            witness is None,
            True,
            witness,
            "" if witness is None else "no atom augments x toward y inside the family",
        )
    )


def _unaugmented_pair(levels, ups, meter):
    """The first pair (x, y) with rho(x) < rho(y) for which no (i, v_i(x))
    in ups[x] has v_i(x) < v_i(y): the rank levels ascending, each pair of
    levels x's before y's.  None when there is no such pair."""
    for k, xs in enumerate(levels):
        for ys in levels[k + 1 :]:
            for x in xs:
                up = ups[x]
                for y in ys:
                    meter.spend(1)
                    yv = y.valuation
                    for i, xi in up:
                        if xi < yv[i]:
                            break
                    else:
                        return x, y
    return None


def verify_independence_axioms(L, independents=None, budget: int = 5_000_000) -> VerificationReport:
    """Check the matroid independence axioms with witnesses.

    I1: the bottom is independent.  I2: the family is downward closed.
    I3: for independents x, y with rho(x) < rho(y), some atom a has
    v_a(x) < v_a(y) and x v a^{v_a(x)+1} independent.  Accepts a Matroid or
    a lattice plus an iterable of its elements.

    The independents are taken in `sort_key` order, so a witness is the
    first failure in rank-level order.  `ops` counts the lower covers
    scanned (I2), the atoms tried (I3: every atom, for each independent
    below the family's top rank) and the pairs compared (I3).
    """
    if isinstance(L, Matroid):
        M = L
    else:
        M = Matroid(L, frozenset(independents))
    names = ("I1_bottom", "I2_downward_closed", "I3_exchange")
    meter = _Meter(budget)
    results: list[CheckResult] = []
    try:
        _verify_independence(M.host, M.independents, meter, results, names)
    except _OutOfBudget:
        pass
    return _finish_report(names, results, meter)


# ---------------------------------------------------------------------------
# bases


def bases(M: Matroid, atom_order=None) -> tuple:
    """Maximal independent elements, in rank-level order.

    Exact for any family, downward closed or not: an independent is a
    basis when no walk down lower covers from another independent reaches
    it.  The walk stops at independents, whose own covers start a walk.
    """
    L = M.host
    ind = M.independents
    stack = [y for x in ind for y in L.lower_covers(x)]
    below = set()
    while stack:
        y = stack.pop()
        if y not in below:
            below.add(y)
            if y not in ind:
                stack.extend(L.lower_covers(y))
    out = sorted((x for x in ind if x not in below), key=L.sort_key)
    return tuple(sort_by_rank_lex(L, out, atom_order))


def check_equal_rank(basis_elements) -> bool:
    ranks = {b.rank for b in basis_elements}
    return len(ranks) <= 1


def verify_basis_axioms(L, basis_elements, budget: int = 5_000_000) -> VerificationReport:
    """Check B1 (nonempty), B2 (antichain), and B3 with its quantifier as
    stated: for all x, y in B and every u <= x with rho(u) = rho(x) - 1 and
    x ^ y <= u, some atom a has v_a(u) < v_a(y) and u v a^{v_a(u)+1} in B."""
    B = list(basis_elements)
    B_set = frozenset(B)
    meter = _Meter(budget)
    results: list[CheckResult] = []
    names = ("B1_nonempty", "B2_antichain", "B3_exchange")

    results.append(CheckResult(names[0], bool(B), True, None if B else {}))
    if not B:
        results.append(CheckResult(names[1], True, True))
        results.append(CheckResult(names[2], True, True))
        return _finish_report(names, results, meter)

    try:
        witness = None
        for i, x in enumerate(B):
            for y in B[i + 1 :]:
                meter.spend(2)
                if L.leq(x, y) or L.leq(y, x):
                    witness = {"x": L.label(x), "y": L.label(y)}
                    break
            if witness:
                break
        results.append(CheckResult(names[1], witness is None, True, witness))

        witness = None
        nv = len(L.atoms)
        for x in B:
            covers_below = L.lower_covers(x)
            for y in B:
                meter.spend(1)
                xy = L.meet(x, y)
                for u in covers_below:
                    if not L.leq(xy, u):
                        continue
                    found = False
                    for i in range(nv):
                        if u.valuation[i] >= y.valuation[i]:
                            continue
                        meter.spend(2)
                        if _raise(L, u, i) in B_set:
                            found = True
                            break
                    if not found:
                        witness = {"x": L.label(x), "y": L.label(y), "u": L.label(u)}
                        break
                if witness:
                    break
            if witness:
                break
        results.append(
            CheckResult(
                names[2],
                witness is None,
                True,
                witness,
                "" if witness is None else "no atom rebuilds a basis from u toward y",
            )
        )
    except _OutOfBudget:
        pass
    return _finish_report(names, results, meter)


def dual_exchange_witness(L, basis_elements, x: Element, y: Element, a: Element):
    """Search for the dual exchange pair (u, b).

    Preconditions: x, y distinct bases and a an atom with v_a(y) > v_a(x).
    On success returns (u, b) with rho(u) = rho(x) - 1, x ^ y <= u,
    v_b(y) < v_b(x), x = u v b^{v_b(u)+1}, and u v a^{v_a(u)+1} a basis.
    Returns None when no pair exists, which would contradict the exchange
    theorem on a verified matroid.
    """
    B_set = frozenset(basis_elements)
    if x not in B_set or y not in B_set:
        raise LatticeInputError("x and y must be bases")
    if x == y:
        raise LatticeInputError("x and y must be distinct")
    ai = L.atom_index(a)
    if y.valuation[ai] <= x.valuation[ai]:
        raise LatticeInputError("the atom must satisfy v_a(y) > v_a(x)")
    xy = L.meet(x, y)
    for u in L.lower_covers(x):
        if not L.leq(xy, u) or _raise(L, u, ai) not in B_set:
            continue
        for bi, b in enumerate(L.atoms):
            if y.valuation[bi] < x.valuation[bi] and _raise(L, u, bi) == x:
                return (u, b)
    return None


def matroid_shelling(M: Matroid, atom_order=None) -> ShellingReport:
    """Check that the bases, in the rank-level order `bases` returns them,
    shell the independence complex."""
    B = bases(M, atom_order)
    return verify_shelling(PComplex(M.host, B), B, atom_order)


def independence_complex(M: Matroid, atom_order=None) -> PComplex:
    """The complex whose facets are the bases of the matroid."""
    return PComplex(M.host, bases(M, atom_order))


# ---------------------------------------------------------------------------
# weighted graphs


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    wt: int


@dataclass(frozen=True)
class WeightedGraph:
    vertices: tuple
    edges: tuple


def weighted_graph(vertices, edges) -> WeightedGraph:
    vertices = _sequence(vertices, "graph vertices")
    if any(not isinstance(v, str) or not v for v in vertices):
        raise LatticeInputError("vertex names must be nonempty strings")
    if len(set(vertices)) != len(vertices):
        raise LatticeInputError("vertex names must be distinct")
    vs = set(vertices)
    out = []
    ids = set()
    for e in _sequence(edges, "graph edges"):
        if not isinstance(e, Edge):
            raise LatticeInputError("edges must be Edge values")
        if not all(isinstance(name, str) for name in (e.id, e.u, e.v)):
            raise LatticeInputError("edge ids and endpoints must be strings")
        if e.id in ids:
            raise LatticeInputError(f"repeated edge id {e.id!r}")
        if e.u not in vs or e.v not in vs:
            raise LatticeInputError(f"edge {e.id!r} mentions an unknown vertex")
        if not _is_int(e.wt) or e.wt < 1:
            raise LatticeInputError(f"edge {e.id!r} needs a positive integer weight")
        ids.add(e.id)
        out.append(e)
    return WeightedGraph(vertices, tuple(out))


def graph_from_obj(obj) -> WeightedGraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise LatticeInputError("a graph description needs 'vertices' and 'edges'")
    edges = []
    for i, e in enumerate(_sequence(obj["edges"], "graph edges")):
        if not isinstance(e, dict) or "u" not in e or "v" not in e:
            raise LatticeInputError("each edge needs 'u' and 'v'")
        edges.append(
            Edge(
                id=e.get("id", f"e{i + 1}"),
                u=e["u"],
                v=e["v"],
                wt=e.get("wt", 1),
            )
        )
    return weighted_graph(obj["vertices"], edges)


def graph_to_obj(G: WeightedGraph) -> dict:
    return {
        "vertices": list(G.vertices),
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "wt": e.wt} for e in G.edges],
    }


def graph_lattice(G: WeightedGraph) -> MultisetLattice:
    """The multiset lattice over the edges, one variable per edge with the
    edge weight as exponent bound."""
    if not G.edges:
        raise LatticeInputError("the graph lattice needs at least one edge")
    return MultisetLattice(
        tuple(e.wt for e in G.edges), tuple(e.id for e in G.edges)
    )


def _multiplicities(G: WeightedGraph, H):
    if isinstance(H, Element):
        mult = H.key
    elif isinstance(H, dict):
        known = {e.id for e in G.edges}
        for k in H:
            if k not in known:
                raise LatticeInputError(f"unknown edge id {k!r}")
        mult = tuple(H.get(e.id, 0) for e in G.edges)
    else:
        mult = tuple(H)
        if len(mult) != len(G.edges):
            raise LatticeInputError(f"expected {len(G.edges)} multiplicities")
    for e, m in zip(G.edges, mult):
        if not isinstance(m, int) or m < 0 or m > e.wt:
            raise LatticeInputError(
                f"multiplicity of edge {e.id!r} must lie in 0..{e.wt}"
            )
    return mult


def is_independent_edge_multiset(G: WeightedGraph, H) -> bool:
    """True when the full-weight edges of H form an acyclic subgraph.

    An edge contributes only at multiplicity equal to its weight.  A
    full-weight self-loop is a cycle, and so are two full-weight parallel
    edges; acyclicity is decided by union-find over the endpoints.
    """
    mult = _multiplicities(G, H)
    parent = {v: v for v in G.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e, m in zip(G.edges, mult):
        if m != e.wt:
            continue
        if e.u == e.v:
            return False
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def graphic_matroid(G: WeightedGraph) -> Matroid:
    """The matroid of independent edge multisets on the graph lattice."""
    L = graph_lattice(G)
    ind = [x for x in L.elements() if is_independent_edge_multiset(G, x)]
    return Matroid(L, frozenset(ind))
