"""Reference implementations for the maximal chains and the chain orders.

Before the chains of a complex were walked once, as int masks over the
positions of its faces, the library had these, all on tuples of elements:

- `element_maximal_chains`: the chains walked down the lower covers from
  each facet, then sorted by `sort_key`;
- `element_order_complex`: the order complex built from those chains,
  turned into frozensets of face positions;
- `sort_chains`: the reverse lexicographic sort of the chains it is given,
  the second sort after the one in `element_maximal_chains`;
- `place_map_reverse_lex_chains`: the reverse lexicographic sort of the
  walked chains by a tuple of rank-level places per chain, for every atom
  order, before the places that equal the positions were sorted by the
  reversed positions themselves;
- `element_sphere_order_shelling_check`,
  `element_complex_order_shelling_check` and
  `element_complex_order_shelling`: the chain-order checks, the last with
  its own recursive walk of the chains, each verified on frozensets of
  face positions by the frozenset verifier of shelling_oracles.py, with
  the chains' elements held in the report (`ElementOrderReport`).

Before both chain orders were decided on one tree of nodes, the library
walked and sorted the chains of the complex and verified them as a
simplicial shelling on int masks:

- `walked_reverse_lex_chains`: the chains of `PComplex.chain_masks` in the
  reverse lexicographic order, chains with equal keys at every level kept
  in the walk order;
- `walked_coatom_chains`: the chains in the recursive coatom order of
  `complex_order_shelling`, each element placed among its siblings once
  per (element, lower covers of its earlier siblings);
- `walked_order_report`: `verify_pure_simplicial_shelling` on the chains
  in the order given, the witness naming both chains;
- `walked_complex_check` and `walked_complex_shelling`: the two checks of
  a complex, after the facet-order refusals.

The differential tests in test_chain_paths.py compare the library with
them.
"""

from dataclasses import dataclass

from powerlat import (
    BudgetError,
    LatticeInputError,
    OrderShellingReport,
    SimplicialComplex,
    sort_by_rank_lex,
    sphere,
    verify_pure_simplicial_shelling,
)
from powerlat.lattice import _rank_level_key
from powerlat.ordercomplex import _facet_order_refusal

from shelling_oracles import frozenset_verify_pure_simplicial_shelling


@dataclass
class ElementOrderReport:
    """The verdict fields of `OrderShellingReport`, with `order` the tuple
    of the chains' elements, built with the report."""

    ok: bool
    chains: int
    witness: dict | None = None
    detail: str = ""
    order: tuple = ()


def lower_cover_map(C, budget):
    L = C.lattice
    return {f.key: L.lower_covers(f) for f in C.faces(budget=budget)}


def element_maximal_chains(C, include_bottom=True, budget=10_000):
    L = C.lattice
    below = lower_cover_map(C, budget)
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


def element_order_complex(C, include_bottom=True, budget=10_000):
    L = C.lattice
    chains = element_maximal_chains(C, include_bottom=include_bottom, budget=budget)
    verts = list(C.faces(budget=budget))
    if not include_bottom:
        verts = [v for v in verts if v.rank > 0 or v != L.bottom]
    index = {v.key: i for i, v in enumerate(verts)}
    labels = tuple(L.label(v) for v in verts)
    facet_sets = [frozenset(index[x.key] for x in chain) for chain in chains]
    if not facet_sets:
        facet_sets = [frozenset()]
    return SimplicialComplex(labels, facet_sets)


def sort_chains(L, chains, atom_order):
    if len({len(c) for c in chains}) > 1:
        raise LatticeInputError("chains must have equal length")
    key = _rank_level_key(L, atom_order)
    elements = {x.key: x for c in chains for x in c}
    keys = {k: key(x) for k, x in elements.items()}
    return sorted(chains, key=lambda c: tuple(keys[x.key] for x in reversed(c)))


def place_map_reverse_lex_chains(C, atom_order, budget):
    chains = C.chain_masks(budget)
    if len({len(path) for _, path in chains}) > 1:
        raise LatticeInputError("chains must have equal length")
    key = _rank_level_key(C.lattice, atom_order)
    keys = [key(f) for f in C.faces(budget)]
    place = {k: i for i, k in enumerate(sorted(set(keys)))}
    places = [place[k] for k in keys]
    return sorted(chains, key=lambda chain: tuple(map(places.__getitem__, reversed(chain[1]))))


def chains_to_sets(C, chains, budget):
    index = {v.key: i for i, v in enumerate(C.faces(budget=budget))}
    return [frozenset(index[x.key] for x in chain) for chain in chains]


def order_report(C, chains, budget):
    L = C.lattice
    rep = frozenset_verify_pure_simplicial_shelling(chains_to_sets(C, chains, budget))
    witness = rep.witness
    if witness is not None and "j" in witness:
        witness = dict(witness)
        witness["chain_i"] = [L.label(x) for x in chains[witness["i"]]]
        witness["chain_j"] = [L.label(x) for x in chains[witness["j"]]]
    return ElementOrderReport(rep.ok, len(chains), witness, rep.detail, tuple(chains))


def element_sphere_order_shelling_check(L, x, atom_order=None, budget=10_000):
    S = sphere(L, x)
    chains = element_maximal_chains(S, include_bottom=True, budget=budget)
    return order_report(S, sort_chains(L, chains, atom_order), budget)


def element_complex_order_shelling_check(C, atom_order=None, budget=10_000):
    refusal = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    chains = element_maximal_chains(C, include_bottom=True, budget=budget)
    return order_report(C, sort_chains(C.lattice, chains, atom_order), budget)


def element_complex_order_shelling(C, atom_order=None, budget=10_000):
    L = C.lattice
    refusal = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    facets = sort_by_rank_lex(L, C.facets, atom_order)
    key = _rank_level_key(L, atom_order)
    pos = {f.key: key(f) for f in C.faces(budget=budget)}
    below = lower_cover_map(C, budget)
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
    return order_report(C, chains, budget)


def walked_reverse_lex_chains(C, atom_order, budget):
    # each key replaced by its place among the distinct keys; where the
    # places are the positions, as with the default atom order, by the
    # position
    chains = C.chain_masks(budget)
    if len({len(path) for _, path in chains}) > 1:
        raise LatticeInputError("chains must have equal length")
    key = _rank_level_key(C.lattice, atom_order)
    keys = [key(f) for f in C.faces(budget)]
    place = {k: i for i, k in enumerate(sorted(set(keys)))}
    places = [place[k] for k in keys]
    if places == list(range(len(places))):
        return sorted(chains, key=lambda chain: chain[1][::-1])
    return sorted(chains, key=lambda chain: tuple(map(places.__getitem__, reversed(chain[1]))))


def walked_coatom_chains(C, facets, atom_order, budget):
    # a depth-first order: the chains sort by each element's place among
    # its siblings, read from the top down.  The places below z depend only
    # on z and on the lower covers `shared` of z's earlier siblings, so they
    # are computed once per (z, shared); the facets are the children of
    # z = None.
    chains = C.chain_masks(budget)
    faces, below = C.faces(budget), C._poset.below
    key = _rank_level_key(C.lattice, atom_order)
    pos = [key(f) for f in faces]
    covers = [sum(1 << g for g in gs) for gs in below]

    def places(order):
        # each member's place in `order`, and the lower covers of the
        # members before it
        out, shared = {}, 0
        for i, g in enumerate(order):
            out[g] = (i, shared)
            shared |= covers[g]
        return out

    index = {f: p for p, f in enumerate(faces)}
    memo = {(None, 0): places([index[f] for f in facets])}

    def chain_key(chain):
        z, shared, out = None, 0, []
        for g in reversed(chain[1]):
            here = memo.get((z, shared))
            if here is None:
                order = sorted(below[z], key=lambda y: (not shared >> y & 1, pos[y]))
                here = memo[z, shared] = places(order)
            i, shared = here[g]
            out.append(i)
            z = g
        return out

    return sorted(chains, key=chain_key)


def walked_order_report(C, chains, budget):
    faces = C.faces(budget)
    paths = tuple(path for _, path in chains)
    rep = verify_pure_simplicial_shelling([m for m, _ in chains])
    witness = rep.witness
    if witness is not None and "j" in witness:
        label = C.lattice.label
        witness = dict(witness)
        witness["chain_i"] = [label(faces[p]) for p in paths[witness["i"]]]
        witness["chain_j"] = [label(faces[p]) for p in paths[witness["j"]]]

    def order():
        return tuple(tuple(map(faces.__getitem__, path)) for path in paths)

    return OrderShellingReport(rep.ok, len(chains), witness, rep.detail, order)


def walked_order_check(C, atom_order=None, budget=10_000):
    return walked_order_report(C, walked_reverse_lex_chains(C, atom_order, budget), budget)


def walked_complex_check(C, atom_order=None, budget=10_000):
    refusal = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    return walked_order_check(C, atom_order, budget)


def walked_complex_shelling(C, atom_order=None, budget=10_000):
    refusal = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    facets = sort_by_rank_lex(C.lattice, C.facets, atom_order)
    return walked_order_report(C, walked_coatom_chains(C, facets, atom_order, budget), budget)
