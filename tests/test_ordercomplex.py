"""Order complexes, chain orders, simplicial shellings, and homology."""

import itertools
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from powerlat import (
    BudgetError,
    LatticeInputError,
    PComplex,
    SimplicialComplex,
    build_boolean,
    build_hasse,
    build_multiset,
    build_subspace,
    check_wedge,
    graphic_matroid,
    independence_complex,
    compare_reverse_lex,
    compare_shelling_order,
    complex_order_shelling,
    complex_order_shelling_check,
    maximal_chains,
    min_rule_compare,
    order_complex,
    rank_lex_compare,
    reduced_betti,
    reduced_betti_mod2,
    sort_by_rank_lex,
    sphere,
    sphere_order_shelling_check,
    uniform_matroid,
    verify_pure_simplicial_shelling,
    verify_shelling,
)
from powerlat.ordercomplex import _sort_chains

from test_graphic import SLOTS, canonical, graph_of

# the unique 6 vertex triangulation of the real projective plane
RP2_FACETS = [
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
]


def labels_of(L, chains):
    return [[L.label(x) for x in chain] for chain in chains]


def u2_multiset():
    L = build_multiset((2, 2))
    C = PComplex(L, [L.element((2, 0)), L.element((1, 1)), L.element((0, 2))])
    return L, C


def simplicial(facets, n=None):
    n = n if n is not None else 1 + max((v for f in facets for v in f), default=0)
    return SimplicialComplex([str(i) for i in range(n)], [frozenset(f) for f in facets])


# --- independent homology oracle ------------------------------------------


def _closure_by_dim(facets):
    faces = set()
    for f in facets:
        fs = sorted(f)
        for r in range(len(fs) + 1):
            faces.update(itertools.combinations(fs, r))
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    return by_dim


def _boundary(by_dim, d):
    """Rows are d-faces, entries over the (d-1)-faces with signs."""
    lower = {f: i for i, f in enumerate(by_dim.get(d - 1, ()))}
    rows = []
    for f in by_dim.get(d, ()):
        row = [0] * len(lower)
        for idx in range(len(f)):
            row[lower[f[:idx] + f[idx + 1:]]] += (-1) ** idx
        rows.append(row)
    return rows


def _rank_q(rows):
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row, pivot_val = m[rank], m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                scale = m[r][col] / pivot_val
                m[r] = [a - scale * b for a, b in zip(m[r], pivot_row)]
        rank += 1
    return rank


def _rank_2(rows):
    basis: list[int] = []
    for row in rows:
        cur = 0
        for c, v in enumerate(row):
            if v % 2:
                cur |= 1 << c
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    return len(basis)


def betti_oracle(facets, rank_fn):
    by_dim = _closure_by_dim(facets)
    top = max(by_dim)
    ranks = {d: rank_fn(_boundary(by_dim, d)) for d in range(top + 2)}
    return tuple(
        len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(top + 1)
    )


# --- maximal chains and order complexes ------------------------------------


class TestMaximalChains:
    def test_sphere_of_pair(self):
        L = build_boolean(3)
        S = sphere(L, L.element_from_obj(["a", "b"]))
        assert labels_of(L, maximal_chains(S)) == [["{}", "{a}"], ["{}", "{b}"]]

    def test_without_bottom(self):
        L = build_boolean(3)
        S = sphere(L, L.element_from_obj(["a", "b"]))
        assert labels_of(L, maximal_chains(S, include_bottom=False)) == [
            ["{a}"],
            ["{b}"],
        ]

    def test_u2_has_four_chains(self):
        L, C = u2_multiset()
        chains = maximal_chains(C)
        assert len(chains) == 4
        assert labels_of(L, chains) == [
            ["1", "x_1", "x_1^2"],
            ["1", "x_1", "x_1*x_2"],
            ["1", "x_2", "x_1*x_2"],
            ["1", "x_2", "x_2^2"],
        ]

    def test_budget(self):
        L = build_boolean(5)
        C = PComplex(L, [L.top])
        with pytest.raises(BudgetError):
            maximal_chains(C, budget=50)

    def test_chain_structure(self, corpus):
        L = corpus["multiset(3,3)"]
        C = PComplex(L, [L.element((2, 1)), L.element((1, 2))])
        for chain in maximal_chains(C):
            assert chain[0] == L.bottom
            for a, b in zip(chain, chain[1:]):
                assert L.leq(a, b) and b.rank == a.rank + 1


class TestOrderComplex:
    def test_u2_complex_shape(self):
        L, C = u2_multiset()
        sc = order_complex(C)
        assert len(sc.vertex_labels) == 6
        assert len(sc.facets) == 4
        assert all(len(f) == 3 for f in sc.facets)

    def test_with_bottom_is_a_cone(self):
        L, C = u2_multiset()
        assert reduced_betti(order_complex(C)) == (0, 0, 0)

    def test_sphere_complex_without_bottom(self):
        L = build_multiset((2, 2))
        S = sphere(L, L.element((1, 1)))
        sc = order_complex(S, include_bottom=False)
        assert reduced_betti(sc) == (1,)


def maximal_sets_pairwise(facets):
    """The former maximality filter of `SimplicialComplex`: each distinct
    set tested against every other, then sorted by size and content."""
    sets = []
    for f in facets:
        if frozenset(f) not in sets:
            sets.append(frozenset(f))
    maximal = [f for f in sets if not any(f < g for g in sets)]
    maximal.sort(key=lambda f: (len(f), sorted(f)))
    return tuple(maximal)


class TestSimplicialComplexFacets:
    def test_matches_pairwise_filter(self):
        rng = random.Random(31)
        for _ in range(500):
            n = rng.randint(1, 6)
            facets = [
                rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(1, 10))
            ]
            want = maximal_sets_pairwise(facets)
            assert simplicial(facets, n=n).facets == want
            obj = {
                "vertices": [str(i) for i in range(n)],
                "facets": [[str(v) for v in f] for f in facets],
            }
            assert SimplicialComplex.from_obj(obj).facets == want


# --- chain comparisons ------------------------------------------------------


class TestChainComparators:
    def test_reverse_lex_example(self):
        L, C = u2_multiset()
        a, b, ab = L.element((2, 0)), L.element((0, 2)), L.element((1, 1))
        x1, x2 = L.element((1, 0)), L.element((0, 1))
        bot = L.bottom
        assert compare_reverse_lex(L, (bot, x1, a), (bot, x1, ab)) < 0
        assert compare_reverse_lex(L, (bot, x1, ab), (bot, x2, ab)) < 0
        assert compare_reverse_lex(L, (bot, x2, b), (bot, x2, b)) == 0

    def test_shelling_order_groups_by_top(self):
        L, C = u2_multiset()
        for X, Y in itertools.product(maximal_chains(C), repeat=2):
            assert compare_shelling_order(L, X, Y) == compare_reverse_lex(L, X, Y)

    def test_length_mismatch(self):
        L = build_boolean(3)
        x = L.element_from_obj(["a"])
        with pytest.raises(LatticeInputError):
            compare_reverse_lex(L, (x,), (x, L.top))
        with pytest.raises(LatticeInputError):
            compare_shelling_order(L, (x,), (x, L.top))

    def test_total_order_laws(self):
        L, C = u2_multiset()
        chains = maximal_chains(C)
        for X, Y in itertools.product(chains, repeat=2):
            cxy = compare_reverse_lex(L, X, Y)
            assert (cxy == 0) == (X == Y)
            assert (cxy < 0) == (compare_reverse_lex(L, Y, X) > 0)
        for X, Y, Z in itertools.product(chains, repeat=3):
            if compare_reverse_lex(L, X, Y) < 0 and compare_reverse_lex(L, Y, Z) < 0:
                assert compare_reverse_lex(L, X, Z) < 0

    def test_top_difference_decides(self):
        # the comparison must look at the largest differing index only
        L = build_boolean(4)
        C = PComplex(L, L.elements_of_rank(2))
        chains = maximal_chains(C)
        for X, Y in itertools.product(chains, repeat=2):
            diff = next(
                (p for p in range(len(X) - 1, -1, -1) if X[p] != Y[p]), None
            )
            expect = 0 if diff is None else rank_lex_compare(L, X[diff], Y[diff])
            got = compare_reverse_lex(L, X, Y)
            assert (got < 0, got == 0) == (expect < 0, expect == 0)


# --- pure simplicial shellings ---------------------------------------------


def shelling_ok_naive(sets):
    card = len(sets[0])
    for j in range(1, len(sets)):
        for i in range(j):
            inter = sets[i] & sets[j]
            if not any(
                len(sets[k] & sets[j]) == card - 1 and inter <= sets[k] & sets[j]
                for k in range(j)
            ):
                return False
    return True


def shelling_witness_scan(sets):
    """The restriction-set check scanning every earlier facet: the witness
    the indexed scan of verify_pure_simplicial_shelling must reproduce."""
    card = len(sets[0])
    seen = set()
    for j, fj in enumerate(sets):
        if j > 0 and card > 0:
            restriction = frozenset(v for v in fj if fj - {v} in seen)
            if not restriction:
                return {"i": 0, "j": j}
            if len(restriction) < card:
                for i in range(j):
                    if restriction <= sets[i]:
                        return {"i": i, "j": j}
        seen.update(fj - {v} for v in fj)
    return None


class TestVerifyPureSimplicialShelling:
    def test_triangle_every_order(self):
        edges = [frozenset(p) for p in [(0, 1), (1, 2), (0, 2)]]
        for perm in itertools.permutations(edges):
            assert verify_pure_simplicial_shelling(perm).ok

    def test_disjoint_edges_every_order(self):
        edges = [frozenset({0, 1}), frozenset({2, 3})]
        for perm in itertools.permutations(edges):
            rep = verify_pure_simplicial_shelling(perm)
            assert not rep.ok and rep.witness == {"i": 0, "j": 1}

    def test_hollow_tetrahedron_every_order(self):
        faces = [frozenset(f) for f in itertools.combinations(range(4), 3)]
        for perm in itertools.permutations(faces):
            assert verify_pure_simplicial_shelling(perm).ok

    def test_duplicate_facet(self):
        rep = verify_pure_simplicial_shelling([{0, 1}, {0, 1}])
        assert not rep.ok and rep.witness == {"reason": "duplicate facet"}

    def test_empty_rejected(self):
        with pytest.raises(LatticeInputError):
            verify_pure_simplicial_shelling([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(LatticeInputError):
            verify_pure_simplicial_shelling([{0, 1}, {2}])

    def test_matches_naive_definition(self):
        rng = random.Random(11)
        for _ in range(60):
            size = rng.randint(1, 4)
            pool = list(itertools.combinations(range(5), size))
            picks = rng.sample(pool, k=rng.randint(1, min(7, len(pool))))
            sets = [frozenset(p) for p in picks]
            rng.shuffle(sets)
            assert verify_pure_simplicial_shelling(sets).ok == shelling_ok_naive(sets)

    def test_witness_matches_full_scan(self):
        rng = random.Random(19)
        for _ in range(2000):
            size = rng.randint(1, 4)
            pool = list(itertools.combinations(range(6), size))
            sets = [frozenset(p) for p in rng.sample(pool, k=rng.randint(1, min(12, len(pool))))]
            rep = verify_pure_simplicial_shelling(sets)
            assert rep.witness == shelling_witness_scan(sets)
            assert rep.ok == (rep.witness is None)


# --- chain order shelling checks --------------------------------------------


class TestSphereOrderShellingCheck:
    def test_multiset_square(self):
        L = build_multiset((2, 2))
        for x in L.elements():
            if x.rank < 1:
                continue
            rep = sphere_order_shelling_check(L, x)
            assert rep.ok, L.label(x)

    def test_top_chain_count(self):
        L = build_multiset((2, 2))
        assert sphere_order_shelling_check(L, L.top).chains == 6

    def test_subspace_levels(self):
        L = build_subspace(2, 3)
        rep = sphere_order_shelling_check(L, L.top)
        assert rep.ok and rep.chains == 21
        for x in L.elements_of_rank(2):
            assert sphere_order_shelling_check(L, x).ok

    def test_atom_is_vacuous(self):
        L = build_multiset((2, 2))
        rep = sphere_order_shelling_check(L, L.element((1, 0)))
        assert rep.ok and rep.chains == 1

    def test_bottom_rejected(self):
        L = build_multiset((2, 2))
        with pytest.raises(LatticeInputError):
            sphere_order_shelling_check(L, L.bottom)

    def test_atom_order_keeps_verdict(self):
        L = build_multiset((2, 2))
        assert sphere_order_shelling_check(L, L.top, atom_order=(1, 0)).ok


class TestComplexOrderShellingCheck:
    def test_u2_multiset(self):
        L, C = u2_multiset()
        rep = complex_order_shelling_check(C)
        assert rep.ok and rep.chains == 4

    def test_u2_boolean(self):
        L = build_boolean(4)
        rep = complex_order_shelling_check(PComplex(L, L.elements_of_rank(2)))
        assert rep.ok and rep.chains == 12

    def test_single_facet(self):
        L = build_boolean(3)
        C = PComplex(L, [L.element_from_obj(["a", "b"])])
        rep = complex_order_shelling_check(C)
        assert rep.ok and rep.chains == 2

    def test_non_pure_reported(self):
        L = build_boolean(4)
        C = PComplex(L, [L.element_from_obj(["a", "b"]), L.element_from_obj(["c"])])
        rep = complex_order_shelling_check(C)
        assert not rep.ok and "pure" in rep.detail

    def test_private_atom_before_shared_fails(self):
        # smallest complex where the facet order shells but the chain order
        # does not: the second facet's first chain climbs through its private
        # atom b, so it meets the earlier facet's chains only at the bottom
        L = build_boolean(3)
        C = PComplex(L, [L.element_from_obj(["a", "c"]), L.element_from_obj(["b", "c"])])
        assert verify_shelling(C, None).ok
        rep = complex_order_shelling_check(C)
        assert not rep.ok and rep.chains == 4
        assert rep.witness["chain_j"] == ["{}", "{b}", "{b,c}"]
        # the verdict depends on the atom order: shared atom first repairs it
        assert complex_order_shelling_check(C, atom_order=(2, 0, 1)).ok
        # and the chains do shell in another order, so only the prescribed
        # chain order is at fault, not the order complex itself
        chains = maximal_chains(C, include_bottom=True)
        by_id = {(L.label(ch[2]), L.label(ch[1])): frozenset(x.key for x in ch) for ch in chains}
        want = [("{a,c}", "{a}"), ("{a,c}", "{c}"), ("{b,c}", "{c}"), ("{b,c}", "{b}")]
        assert verify_pure_simplicial_shelling([by_id[k] for k in want]).ok


def chain_sets(chains):
    return [frozenset(x.key for x in chain) for chain in chains]


def small_order_complexes():
    """Uniform matroids over four hosts, and the graph classes with at most
    three edges, as (tag, complex)."""
    for L in (
        build_multiset((2, 2, 1)),
        build_multiset((2, 2, 2)),
        build_subspace(2, 3),
        build_boolean(5),
    ):
        for k in range(1, L.top_rank + 1):
            yield (L.kind, k), independence_complex(uniform_matroid(L, k))
    options = [(slot, w) for slot in SLOTS for w in (1, 2)]
    seen = set()
    for size in range(1, 4):
        for combo in itertools.combinations_with_replacement(options, size):
            key = canonical(combo)
            if key not in seen:
                seen.add(key)
                yield ("graph", combo), independence_complex(graphic_matroid(graph_of(combo)))


class TestComplexOrderShelling:
    def test_private_atom_instance_shells_in_both_atom_orders(self):
        L = build_boolean(3)
        C = PComplex(L, [L.element_from_obj(["a", "c"]), L.element_from_obj(["b", "c"])])
        for atom_order in (None, (2, 0, 1)):
            rep = complex_order_shelling(C, atom_order=atom_order)
            assert rep.ok and rep.chains == 4 and rep.witness is None
        # the chains through the shared atom c come first below {b,c}
        assert labels_of(L, complex_order_shelling(C).order) == [
            ["{}", "{a}", "{a,c}"],
            ["{}", "{c}", "{a,c}"],
            ["{}", "{c}", "{b,c}"],
            ["{}", "{b}", "{b,c}"],
        ]

    def test_non_pure_refused(self):
        L = build_boolean(4)
        C = PComplex(L, [L.element_from_obj(["a", "b"]), L.element_from_obj(["c"])])
        rep = complex_order_shelling(C)
        assert not rep.ok and rep.chains == 0
        assert rep.witness == {"reason": "not pure"} and "pure" in rep.detail

    def test_non_shelling_facet_order_refused(self):
        # two disjoint edges: no facet order shells
        L = build_boolean(4)
        C = PComplex(L, [L.element_from_obj(["a", "b"]), L.element_from_obj(["c", "d"])])
        rep = complex_order_shelling(C)
        assert not rep.ok and rep.chains == 0
        assert rep.witness["reason"] == "facet order is not a shelling"
        assert rep.witness == complex_order_shelling_check(C).witness

    def test_budget(self):
        L = build_boolean(5)
        with pytest.raises(BudgetError):
            complex_order_shelling(PComplex(L, [L.top]), budget=50)

    def test_matches_definition_and_shells_where_prescribed_order_fails(self):
        prescribed_failures = 0
        for tag, C in small_order_complexes():
            L = C.lattice
            rep = complex_order_shelling(C)
            chains = maximal_chains(C)
            assert rep.chains == len(chains) == len(set(rep.order)), tag
            key = lambda c: tuple(L.sort_key(x) for x in c)
            assert sorted(rep.order, key=key) == chains, tag
            assert rep.ok == shelling_ok_naive(chain_sets(rep.order)), tag
            assert rep.ok, tag
            if not complex_order_shelling_check(C).ok:
                prescribed_failures += 1
        assert prescribed_failures > 0


class TestNonGradedHost:
    """The pentagon N5: 0 < a < b < 1 and 0 < c < 1.  The chain through c is
    a step shorter, so the cover c < 1 skips a rank level."""

    def pentagon(self):
        L = build_hasse(
            ["0", "a", "b", "c", "1"],
            [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]],
        )
        return L, PComplex(L, [L.top])

    def test_maximal_chains_follow_covers(self):
        L, C = self.pentagon()
        assert labels_of(L, maximal_chains(C)) == [["0", "a", "b", "1"], ["0", "c", "1"]]

    def test_order_complex_facets(self):
        L, C = self.pentagon()
        sc = order_complex(C)
        facets = {frozenset(sc.vertex_labels[v] for v in f) for f in sc.facets}
        assert facets == {frozenset({"0", "a", "b", "1"}), frozenset({"0", "c", "1"})}

    def test_chain_orders_refuse_unequal_chains(self):
        L, C = self.pentagon()
        with pytest.raises(LatticeInputError):
            complex_order_shelling(C)
        with pytest.raises(LatticeInputError):
            complex_order_shelling_check(C)


# --- the key sorts and the cover walk against the code they replaced ---------


def compare_shelling_order_two_step(L, X, Y, atom_order=None):
    """The former body of `compare_shelling_order`: tops in the rank level
    order first, then the chains below the top reverse lexicographically."""
    X, Y = tuple(X), tuple(Y)
    if len(X) != len(Y):
        raise LatticeInputError("chains must have equal length")
    if not X:
        return 0
    if X[-1] != Y[-1]:
        return rank_lex_compare(L, X[-1], Y[-1], atom_order)
    return compare_reverse_lex(L, X[:-1], Y[:-1], atom_order)


def maximal_chains_upward(C):
    """The former `maximal_chains`: chains grown from the bottom through the
    faces one rank level up that lie above, found by a pairwise leq scan.
    Right only on hosts whose covers raise the rank by one."""
    L = C.lattice
    faces = C.faces()
    by_rank: dict = {}
    for f in faces:
        by_rank.setdefault(f.rank, []).append(f)
    nxt = {f.key: [g for g in by_rank.get(f.rank + 1, ()) if L.leq(f, g)] for f in faces}
    chains = []
    stack = [(L.bottom,)]
    while stack:
        chain = stack.pop()
        children = nxt[chain[-1].key]
        if not children:
            chains.append(chain)
        for g in children:
            stack.append(chain + (g,))
    chains.sort(key=lambda c: tuple(L.sort_key(x) for x in c))
    return chains


def differential_complexes(corpus):
    """small_order_complexes() and the sphere below every element of rank at
    least 2 of the corpus, as criterion 5 checks them, as (tag, complex)."""
    yield from small_order_complexes()
    for name, L in corpus.items():
        for x in L.elements():
            if x.rank >= 2:
                yield (name, L.label(x)), sphere(L, x)


def differential_cases(corpus):
    """Each differential complex under the identity and the reversed atom
    order, as (tag, complex, atom order)."""
    for tag, C in differential_complexes(corpus):
        n = len(C.lattice.atoms)
        for atom_order in (None, tuple(reversed(range(n)))):
            yield tag, C, atom_order


class TestChainOrderOracles:
    def test_sort_chains_matches_comparator_sort(self, corpus):
        rng = random.Random(23)
        for tag, C, atom_order in differential_cases(corpus):
            L = C.lattice
            chains = maximal_chains(C)
            rng.shuffle(chains)
            cmp = lambda A, B: compare_reverse_lex(L, A, B, atom_order)
            want = sorted(chains, key=cmp_to_key(cmp))
            assert _sort_chains(L, chains, atom_order) == want, (tag, atom_order)

    def test_shelling_order_matches_two_step_body(self, corpus):
        for tag, C, atom_order in differential_cases(corpus):
            L = C.lattice
            chains = maximal_chains(C)
            for X, Y in itertools.product(chains, repeat=2):
                got = compare_shelling_order(L, X, Y, atom_order)
                assert got == compare_shelling_order_two_step(L, X, Y, atom_order), tag

    def test_sort_by_rank_lex_matches_comparator_sort(self, corpus):
        rng = random.Random(29)
        for tag, C, atom_order in differential_cases(corpus):
            L = C.lattice
            faces = list(C.faces())
            rng.shuffle(faces)
            levels = []
            for level in sorted({f.rank for f in faces}):
                elems = [f for f in faces if f.rank == level]
                got = sort_by_rank_lex(L, elems, atom_order)
                for compare in (rank_lex_compare, min_rule_compare):
                    cmp = lambda x, y: compare(L, x, y, atom_order)
                    assert got == sorted(elems, key=cmp_to_key(cmp)), (tag, level)
                levels += got
            assert sort_by_rank_lex(L, faces, atom_order) == levels, tag

    def test_cover_walk_matches_upward_scan(self, corpus):
        for tag, C in differential_complexes(corpus):
            want = maximal_chains_upward(C)
            assert maximal_chains(C) == want, tag
            assert maximal_chains(C, include_bottom=False) == [c[1:] for c in want], tag


# --- homology ----------------------------------------------------------------


class TestReducedBetti:
    def test_hollow_triangle(self):
        sc = simplicial([(0, 1), (1, 2), (0, 2)])
        assert reduced_betti(sc) == (0, 1)

    def test_hollow_tetrahedron(self):
        sc = simplicial(list(itertools.combinations(range(4), 3)))
        assert reduced_betti(sc) == (0, 0, 1)

    def test_disjoint_edges(self):
        sc = simplicial([(0, 1), (2, 3)])
        assert reduced_betti(sc) == (1, 0)

    def test_cone_vanishes(self):
        sc = simplicial([(0, 1, 2), (0, 2, 3), (0, 1, 3)])
        assert reduced_betti(sc) == (0, 0, 0)

    def test_point(self):
        sc = simplicial([(0,)])
        assert reduced_betti(sc) == (0,)

    def test_projective_plane_torsion(self):
        sc = simplicial(RP2_FACETS)
        assert reduced_betti(sc) == (0, 0, 0)
        assert reduced_betti_mod2(sc) == (0, 1, 1)

    def test_matches_rational_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice([3, 4, 5])
            count = rng.randint(2, 6)
            facets = {
                tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                for _ in range(count)
            }
            sc = simplicial(sorted(facets), n=n)
            assert reduced_betti(sc) == betti_oracle(sc.facets, _rank_q)

    def test_matches_mod2_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice([4, 5, 6])
            count = rng.randint(3, 8)
            facets = {
                tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
                for _ in range(count)
            }
            sc = simplicial(sorted(facets), n=n)
            assert reduced_betti_mod2(sc) == betti_oracle(sc.facets, _rank_2)

    def test_oracle_agreement_on_rp2(self):
        assert betti_oracle([frozenset(f) for f in RP2_FACETS], _rank_q) == (0, 0, 0)
        assert betti_oracle([frozenset(f) for f in RP2_FACETS], _rank_2) == (0, 1, 1)

    def test_budget(self):
        sc = simplicial(list(itertools.combinations(range(6), 4)))
        with pytest.raises(BudgetError):
            reduced_betti(sc, budget=5)


class TestCheckWedge:
    def test_hollow_triangle_is_one_sphere(self):
        rep = check_wedge(simplicial([(0, 1), (1, 2), (0, 2)]))
        assert rep.ok and rep.to_obj()["spheres"] == 1

    def test_hollow_tetrahedron(self):
        rep = check_wedge(simplicial(list(itertools.combinations(range(4), 3))))
        obj = rep.to_obj()
        assert rep.ok and obj["spheres"] == 1 and obj["top_dim"] == 2

    def test_cone_has_zero_spheres(self):
        rep = check_wedge(simplicial([(0, 1, 2), (0, 1, 3)]))
        assert rep.ok and rep.to_obj()["spheres"] == 0

    def test_disjoint_triangles_are_not_a_wedge(self):
        rep = check_wedge(simplicial([(0, 1, 2), (3, 4, 5)]))
        assert not rep.ok
