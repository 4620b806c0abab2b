"""Complexes inside a power lattice.

A complex is a downward closed subset of a lattice, stored by its facets
(the maximal elements).  This module covers purity, the shelling condition
on facet orders, and the sphere below an element.  A complex keeps its
faces, their lower covers with the number of maximal chains, counted
before any chain is walked, the strict down-sets of its faces once they
are asked for, and the maximal chains once they are walked (`faces`,
`_poset`, `chain_masks`); the order complexes and chain orders of
`ordercomplex` read them from there.  `find_shelling` decides
shellability of a small complex exactly, by a depth-first search over the
sets of facets already placed; the non-pure search of `stanley_reisner`
runs on the same search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    BudgetError,
    Element,
    LatticeInputError,
    PowerLattice,
    _rank_level_key,
    _with_verdict,
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
        by_rank: dict[int, set] = {}  # the distinct elements, by rank
        for f in facets:
            by_rank.setdefault(f.rank, set()).add(f)
        # an element can only lie below one of higher rank, so each rank is
        # tested against the maximal elements already kept; a pure family
        # needs no test
        maximal = []
        for rank in sorted(by_rank, reverse=True):
            maximal += [f for f in by_rank[rank] if not any(L.leq(f, g) for g in maximal)]
        maximal.sort(key=L.sort_key)
        self.lattice = L
        self.facets = tuple(maximal)
        self._faces = None
        self._lower = None
        self._below = None
        self._through = None
        self._tops = None
        self._down = None
        self._chains = None

    @property
    def rank(self) -> int:
        return max(f.rank for f in self.facets)

    def is_pure(self) -> bool:
        return all(f.rank == self.rank for f in self.facets)

    def contains(self, x: Element) -> bool:
        return any(self.lattice.leq(x, f) for f in self.facets)

    def faces(self, budget: int = 10_000) -> tuple:
        """Every element of the complex, by downward closure from the facets,
        in `sort_key` order; refused when there are more than `budget`."""
        if self._faces is None:
            L = self.lattice
            seen = set(self.facets)
            if len(seen) > budget:
                raise BudgetError(f"complex has more than {budget} faces")
            lower = {}  # each face's lower covers, kept for `_covers`
            stack = list(self.facets)
            while stack:
                x = stack.pop()
                lower[x] = L.lower_covers(x)
                for y in lower[x]:
                    if y not in seen:
                        if len(seen) >= budget:
                            raise BudgetError(f"complex has more than {budget} faces")
                        seen.add(y)
                        stack.append(y)
            self._faces = tuple(sorted(seen, key=L.sort_key))
            self._lower = lower
        elif len(self._faces) > budget:
            raise BudgetError(f"complex has more than {budget} faces")
        return self._faces

    def chain_masks(self, budget: int = 10_000) -> tuple:
        """(lower covers, maximal chains) over the positions of `faces()`.

        below[p] lists the lower covers of face p in the host's order.  A
        chain is a pair: its int mask of positions, and the positions from
        the bottom (position 0) upward.  A cover step inside a downward
        closed set is one of the host, so the walk up from the bottom
        through the upper covers, in position order, ends exactly at the
        facets and lists the chains in the lexicographic order of their
        `sort_key`s.  The face budget is checked first, then the chain
        budget, against the maximal chains counted before any is walked
        (`_maximal_chain_count`).  Walked once and kept.
        """
        self._maximal_chain_count(budget)
        if self._chains is None:
            below, _ = self._covers()
            above = [[] for _ in below]
            for p, gs in enumerate(below):
                for g in gs:
                    above[g].append(p)
            chains = []
            stack = [(1, (0,))]
            while stack:
                mask, path = stack.pop()
                ups = above[path[-1]]
                if not ups:
                    chains.append((mask, path))
                for q in reversed(ups):
                    stack.append((mask | 1 << q, path + (q,)))
            self._chains = (below, tuple(chains))
        return self._chains

    def _maximal_chain_count(self, budget) -> int:
        # the number of maximal chains, counted before any is walked, once
        # the face budget and then the chain budget are checked
        self.faces(budget)
        _, count = self._covers()
        if count > budget:
            raise BudgetError(f"complex has more than {budget} maximal chains")
        return count

    def _covers(self) -> tuple:
        # (below, the number of maximal chains), once the faces are listed,
        # from the lower covers their walk asked the host for.
        # Positions follow `sort_key`, which is rank-first, so the lower
        # covers of a face come before it: the maximal chains of [0, x]
        # number 1 at the bottom and otherwise the sum over x's lower
        # covers, and the maximal chains of the complex end at its facets.
        if self._below is None:
            index = {f: p for p, f in enumerate(self._faces)}
            below = [[index[g] for g in self._lower[f]] for f in self._faces]
            through = [1]
            for gs in below[1:]:
                through.append(sum(map(through.__getitem__, gs)))
            tops = [index[f] for f in self.facets]
            self._below = (below, sum(map(through.__getitem__, tops)))
            self._through, self._tops = through, tops
        return self._below

    def _poset(self) -> tuple:
        # (below, through, down, tops) over the positions of the listed
        # faces: the lower covers, the maximal chains of [0, x], the strict
        # down-set of x as an int mask over positions (the union of its
        # lower covers' down-sets and the covers themselves), and the
        # facets' positions.  Built once, after `_covers`.
        below, _ = self._covers()
        if self._down is None:
            down = [0] * len(below)
            for x in range(1, len(below)):
                d = 0
                for g in below[x]:
                    d |= down[g] | 1 << g
                down[x] = d
            self._down = down
        return below, self._through, self._down, self._tops

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
        return _with_verdict(obj, self.witness, self.detail)


def _meet_memo(L: PowerLattice, facets):
    # meet(i, j) of facets i and j, each pair computed once, on first use
    memo: dict = {}

    def meet(i, j):
        if i > j:
            i, j = j, i
        m = memo.get((i, j))
        if m is None:
            m = memo[(i, j)] = L.meet(facets[i], facets[j])
        return m

    return meet


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
    meet = _meet_memo(L, order)
    for j in range(1, len(order)):
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


def _subset_search(t: int, rescue):
    """The first order of the facets 0..t-1, depth first with the facets
    tried in ascending order, in which every pair i < j is rescued by some
    facet before j; None when there is none.

    rescue[i][j] is the bitmask of the facets k that rescue the pair (i, j),
    so j may follow the placed set S when rescue[i][j] & S is nonzero for
    every i in S.  That depends only on S, so the sets from which no order
    completes are remembered and never entered twice; the order found is
    the one a backtracking search over prefixes finds first.
    """
    full = (1 << t) - 1
    dead: set = set()
    order: list = []

    def extend(placed):
        if placed == full:
            return True
        if placed in dead:
            return False
        for j in range(t):
            if not placed >> j & 1 and all(rescue[i][j] & placed for i in order):
                order.append(j)
                if extend(placed | 1 << j):
                    return True
                order.pop()
        dead.add(placed)
        return False

    return order if extend(0) else None


def find_shelling(C: PComplex, cap: int = 12, atom_order=None):
    """Search every facet order for a shelling; None when none exists.

    Facet k rescues the pair (i, j) when rho(f_k ^ f_j) = r - 1 and
    f_i ^ f_j <= f_k ^ f_j; the subset search then finds the first shelling
    in the rank-level order of the facets.  Capped at `cap` facets.
    """
    if not C.is_pure():
        raise LatticeInputError("only pure complexes can have a shelling")
    L = C.lattice
    facets = sort_by_rank_lex(L, C.facets, atom_order)
    t = len(facets)
    if t > cap:
        raise BudgetError(f"complex has {t} facets, over the search cap {cap}")
    r = C.rank
    meet = _meet_memo(L, facets)
    ks = [[k for k in range(t) if meet(k, j).rank == r - 1] for j in range(t)]
    rescue = [
        [sum(1 << k for k in ks[j] if L.leq(meet(i, j), meet(k, j))) for j in range(t)]
        for i in range(t)
    ]
    order = _subset_search(t, rescue)
    return None if order is None else tuple(facets[j] for j in order)


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
