"""Reference implementations for the shelling searches and verifiers.

Before one subset search and one simplicial verifier served every case,
the library had these:

- `backtracking_find_shelling`: `find_shelling` as a backtracking search
  over facet prefixes, recomputing whether a facet may be appended from
  the meets of the prefix;
- `subset_find_nonpure_shelling`: `find_nonpure_shelling` as a backward
  search, memoized on the set of facets placed, that recomputes R_j
  against the placed facets for every candidate last facet;
- `naive_verify_nonpure_shelling`: the non-pure verifier recomputing R_j
  by set differences against every earlier facet;
- `pure_verify_simplicial_shelling`: the pure verifier, with its
  equal-size and duplicate refusals and its hashed restriction sets;
- `frozenset_verify_nonpure_shelling` and
  `frozenset_verify_pure_simplicial_shelling`: the restriction-set
  verifier before it ran on int masks, doing its set algebra on
  frozensets;
- `rarest_vertex_verify_nonpure_shelling`: the int-mask verifier before
  each vertex kept a bitset of the earlier facets on it, scanning the
  ascending index list of the vertex of R_j on the fewest earlier facets.

The differential tests in test_shelling_paths.py compare the library
with them.
"""

from powerlat import BudgetError, LatticeInputError, SimplicialShellingReport
from powerlat.instances import _is_int
from powerlat.lattice import _bits
from powerlat.pcomplex import sort_by_rank_lex


def backtracking_find_shelling(C, cap=12, atom_order=None):
    if not C.is_pure():
        raise LatticeInputError("only pure complexes can have a shelling")
    L = C.lattice
    facets = sort_by_rank_lex(L, C.facets, atom_order)
    t = len(facets)
    if t > cap:
        raise BudgetError(f"complex has {t} facets, over the search cap {cap}")
    r = C.rank
    meets: dict = {}

    def meet(i, j):
        if i > j:
            i, j = j, i
        m = meets.get((i, j))
        if m is None:
            m = L.meet(facets[i], facets[j])
            meets[(i, j)] = m
        return m

    def can_append(prefix, j):
        for i in prefix:
            mij = meet(i, j)
            if not any(
                meet(k, j).rank == r - 1 and L.leq(mij, meet(k, j)) for k in prefix
            ):
                return False
        return True

    used = [False] * t

    def rec(prefix):
        if len(prefix) == t:
            return tuple(facets[i] for i in prefix)
        for j in range(t):
            if used[j] or not can_append(prefix, j):
                continue
            used[j] = True
            prefix.append(j)
            res = rec(prefix)
            if res is not None:
                return res
            prefix.pop()
            used[j] = False
        return None

    return rec([])


def naive_verify_nonpure_shelling(facets_in_order):
    F = [frozenset(f) for f in facets_in_order]
    if not F:
        raise LatticeInputError("a shelling needs at least one facet")
    for j in range(1, len(F)):
        # R_j: vertices whose removal lands inside an earlier facet
        Rj = {
            v
            for v in F[j]
            if any(F[j] - {v} <= F[k] and v not in F[k] for k in range(j))
        }
        for i in range(j):
            if Rj <= F[i]:
                return SimplicialShellingReport(
                    False,
                    witness={"i": i, "j": j},
                    detail="no earlier facet meets facet j in a face of size |F_j|-1 over F_i",
                )
    return SimplicialShellingReport(True)


def _appendable(F, j, chosen):
    Rj = {
        v
        for v in F[j]
        if any(F[j] - {v} <= F[k] and v not in F[k] for k in chosen)
    }
    return all(not Rj <= F[i] for i in chosen)


def subset_find_nonpure_shelling(facets, cap=14):
    F = [frozenset(f) for f in facets]
    t = len(F)
    if t > cap:
        raise BudgetError(f"shelling search capped at {cap} facets")
    memo: dict = {0: ()}

    def solve(mask):
        if mask in memo:
            return memo[mask]
        out = None
        for j in range(t):
            if mask & (1 << j):
                prev = mask & ~(1 << j)
                chosen = [k for k in range(t) if prev & (1 << k)]
                if _appendable(F, j, chosen):
                    sub = solve(prev)
                    if sub is not None:
                        out = sub + (j,)
                        break
        memo[mask] = out
        return out

    order = solve((1 << t) - 1)
    if order is None:
        return None
    return tuple(F[j] for j in order)


def pure_verify_simplicial_shelling(facets_in_order):
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
    through: dict = {}
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


def frozenset_verify_nonpure_shelling(facets_in_order):
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


def frozenset_verify_pure_simplicial_shelling(facets_in_order):
    sets = [frozenset(f) for f in facets_in_order]
    if len({len(f) for f in sets}) > 1:
        raise LatticeInputError("the pure shelling condition needs equal-size facets")
    return frozenset_verify_nonpure_shelling(sets)


def _rarest_vertex_facet_masks(facets):
    facets = list(facets)
    if all(_is_int(f) for f in facets):
        return facets
    bit: dict = {}
    return [sum({bit.setdefault(v, 1 << len(bit)) for v in f}) for f in facets]


def rarest_vertex_verify_nonpure_shelling(facets_in_order):
    masks = _rarest_vertex_facet_masks(facets_in_order)
    if not masks:
        raise LatticeInputError("a shelling needs at least one facet")
    if len(set(masks)) != len(masks):
        return SimplicialShellingReport(
            False, {"reason": "duplicate facet"}, "facets must be distinct"
        )
    seen: set = set()  # the earlier facets and their faces of one size less
    by_size: dict = {}  # size -> the earlier facets of that size
    through: dict = {}  # vertex bit -> ascending indexes of earlier facets on it
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
                on = [through.get(1 << v, ()) for v in _bits(restriction)]
                for i in min(on, key=len):
                    if masks[i] & restriction == restriction:
                        return SimplicialShellingReport(
                            False,
                            {"i": i, "j": j},
                            "no earlier facet covers the intersection with facet i",
                        )
        seen.add(fj)
        by_size.setdefault(card, []).append(fj)
        rest = fj
        while rest:
            low = rest & -rest
            rest ^= low
            seen.add(fj ^ low)
            through.setdefault(low, []).append(j)
    return SimplicialShellingReport(True)
