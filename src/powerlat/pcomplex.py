"""Complexes inside a power lattice.

A complex is a downward closed subset of a lattice, stored by its facets
(the maximal elements).  This module covers purity, the shelling condition
on facet orders, exhaustive shelling search for small complexes, and the
sphere below an element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    BudgetError,
    Element,
    LatticeInputError,
    PowerLattice,
    _rank_level_key,
)


class PComplex:
    """Downward closed subset of a lattice, presented by its facets.

    Construction deduplicates and drops dominated elements, so the stored
    facets form an antichain.
    """

    def __init__(self, L: PowerLattice, facets):
        facets = list(facets)
        if not facets:
            raise LatticeInputError("a complex needs at least one element")
        for f in facets:
            if not isinstance(f, Element) or f.host is not L:
                raise LatticeInputError("complex elements must belong to the given lattice")
        uniq = []
        seen = set()
        for f in facets:
            if f.key not in seen:
                seen.add(f.key)
                uniq.append(f)
        maximal = [f for f in uniq if not any(g != f and L.leq(f, g) for g in uniq)]
        maximal.sort(key=L.sort_key)
        self.lattice = L
        self.facets = tuple(maximal)
        self._faces = None

    @property
    def rank(self) -> int:
        return max(f.rank for f in self.facets)

    def is_pure(self) -> bool:
        return all(f.rank == self.rank for f in self.facets)

    def contains(self, x: Element) -> bool:
        return any(self.lattice.leq(x, f) for f in self.facets)

    def faces(self, budget: int = 10_000) -> tuple:
        """Every element of the complex, by downward closure from the facets."""
        if self._faces is None:
            L = self.lattice
            seen = {f.key: f for f in self.facets}
            stack = list(self.facets)
            while stack:
                x = stack.pop()
                for y in L.lower_covers(x):
                    if y.key not in seen:
                        if len(seen) >= budget:
                            raise BudgetError(f"complex has more than {budget} faces")
                        seen[y.key] = y
                        stack.append(y)
            self._faces = tuple(sorted(seen.values(), key=L.sort_key))
        elif len(self._faces) > budget:
            raise BudgetError(
                f"complex has {len(self._faces)} faces, over the budget {budget}"
            )
        return self._faces

    def faces_of_rank(self, level: int, budget: int = 10_000) -> tuple:
        return tuple(f for f in self.faces(budget) if f.rank == level)

    def to_obj(self) -> dict:
        return {"facets": [self.lattice.element_to_obj(f) for f in self.facets]}


def generate(L: PowerLattice, elements) -> PComplex:
    """The complex generated by the given elements: their downward closure."""
    return PComplex(L, elements)


def sort_by_rank_lex(L: PowerLattice, elements, atom_order=None) -> list:
    """Sort elements by rank, then by the total order on each rank level."""
    return sorted(elements, key=_rank_level_key(L, atom_order))


@dataclass
class ShellingReport:
    ok: bool
    order: tuple
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        L = self.order[0].host if self.order else None
        obj = {
            "ok": self.ok,
            "order": [L.label(f) for f in self.order] if L else [],
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj


def verify_shelling(C: PComplex, order=None, atom_order=None) -> ShellingReport:
    """Check that a facet order is a shelling.

    The order f_1, ..., f_t of the facets of a pure rank r complex is a
    shelling when for all i < j there is k < j with f_i ^ f_j <= f_k ^ f_j
    and rho(f_k ^ f_j) = r - 1.  When no order is given the facets are taken
    in rank-level order.
    """
    L = C.lattice
    if order is None:
        order = sort_by_rank_lex(L, C.facets, atom_order)
    order = tuple(order)
    if len(order) != len(C.facets) or set(order) != set(C.facets):
        raise LatticeInputError("the order must be a permutation of the facets")
    if not C.is_pure():
        ranks = sorted({f.rank for f in C.facets})
        return ShellingReport(
            False, order, {"reason": "not pure", "facet_ranks": ranks}, "complex is not pure"
        )
    r = C.rank
    t = len(order)
    meets: dict = {}

    def meet(i, j):
        if i > j:
            i, j = j, i
        m = meets.get((i, j))
        if m is None:
            m = L.meet(order[i], order[j])
            meets[(i, j)] = m
        return m

    for j in range(1, t):
        ks = [k for k in range(j) if meet(k, j).rank == r - 1]
        for i in range(j):
            mij = meet(i, j)
            if not any(L.leq(mij, meet(k, j)) for k in ks):
                return ShellingReport(
                    False,
                    order,
                    {
                        "i": i,
                        "j": j,
                        "facet_i": L.label(order[i]),
                        "facet_j": L.label(order[j]),
                    },
                    "no earlier facet meets f_j in rank r-1 above its meet with f_i",
                )
    return ShellingReport(True, order)


def find_shelling(C: PComplex, cap: int = 12, atom_order=None):
    """Search every facet order for a shelling; None when none exists.

    The condition is prefix-checkable, so this is a backtracking search
    over facet prefixes.  Capped at `cap` facets.
    """
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


def sphere(L: PowerLattice, x: Element) -> PComplex:
    """The sphere below x: all elements strictly under x.

    Its facets are the lower covers of x; for x of rank l + 1 this is an
    l-sphere.
    """
    if not isinstance(x, Element) or x.host is not L:
        raise LatticeInputError("sphere needs an element of the given lattice")
    if x.rank < 1:
        raise LatticeInputError("sphere needs an element of rank at least 1")
    return PComplex(L, L.lower_covers(x))
