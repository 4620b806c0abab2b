"""Complexes in a lattice: generation, purity, shellings, spheres."""

import itertools
import random

import pytest

from powerlat import (
    BudgetError,
    LatticeInputError,
    PComplex,
    build_boolean,
    build_hasse,
    build_multiset,
    build_subspace,
    find_shelling,
    generate,
    sphere,
    verify_shelling,
)


def bool3():
    return build_boolean(3)


def complex_of(L, objs):
    return PComplex(L, [L.element_from_obj(o) for o in objs])


def shelling_holds_naive(L, order, r):
    """The shelling condition checked directly from its definition."""
    t = len(order)
    for j in range(1, t):
        for i in range(j):
            mij = L.meet(order[i], order[j])
            if not any(
                L.meet(order[k], order[j]).rank == r - 1
                and L.leq(mij, L.meet(order[k], order[j]))
                for k in range(j)
            ):
                return False
    return True


def pairwise_maximal(L, facets):
    """The earlier facet filter: distinct elements below no other one."""
    uniq = []
    seen = set()
    for f in facets:
        if f.key not in seen:
            seen.add(f.key)
            uniq.append(f)
    maximal = [f for f in uniq if not any(g != f and L.leq(f, g) for g in uniq)]
    return tuple(sorted(maximal, key=L.sort_key))


class TestGenerate:
    def test_dominated_elements_absorbed(self):
        L = bool3()
        C = complex_of(L, [["a", "b"], ["b", "c"], ["a"]])
        assert {L.label(f) for f in C.facets} == {"{a,b}", "{b,c}"}

    def test_incomparable_multiset_facets(self):
        L = build_multiset((3, 3))
        C = PComplex(L, [L.element((2, 1)), L.element((1, 2))])
        assert len(C.facets) == 2

    def test_bottom_only(self):
        L = bool3()
        C = PComplex(L, [L.bottom])
        assert C.facets == (L.bottom,)
        assert C.rank == 0

    def test_empty_rejected(self):
        with pytest.raises(LatticeInputError):
            PComplex(bool3(), [])

    def test_foreign_facet_rejected(self):
        L, M = bool3(), bool3()
        with pytest.raises(LatticeInputError):
            PComplex(L, [M.top])

    def test_facets_match_the_pairwise_filter(self, corpus):
        # random families, repeats included, on the corpus and on N5, whose
        # ranks are longest-chain lengths
        n5 = build_hasse(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
        )
        hosts = [*corpus.values(), n5]
        rng = random.Random(41)
        for _ in range(500):
            L = rng.choice(hosts)
            family = rng.choices(L.elements(), k=rng.randint(1, 8))
            assert PComplex(L, family).facets == pairwise_maximal(L, family)

    def test_idempotent(self):
        L = build_multiset((2, 2))
        C = PComplex(L, [L.element((2, 0)), L.element((1, 1))])
        again = generate(L, C.faces())
        assert again.facets == C.facets


class TestPurity:
    def test_pure_rank_two(self):
        C = complex_of(bool3(), [["a", "b"], ["b", "c"]])
        assert C.is_pure() and C.rank == 2

    def test_remark_facets_pure_rank_four(self):
        L = build_multiset((3, 3))
        C = PComplex(L, [L.element((2, 2)), L.element((1, 3))])
        assert C.is_pure() and C.rank == 4

    def test_mixed_ranks_not_pure(self):
        C = complex_of(build_boolean(4), [["a", "b"], ["c"]])
        assert not C.is_pure()

    def test_membership(self):
        L = bool3()
        C = complex_of(L, [["a", "b"], ["b", "c"]])
        assert C.contains(L.element_from_obj(["b"]))
        assert not C.contains(L.element_from_obj(["a", "c"]))


class TestVerifyShelling:
    def test_triangle_boundary(self):
        L = bool3()
        C = complex_of(L, [["a", "b"], ["b", "c"], ["a", "c"]])
        order = [
            L.element_from_obj(["a", "b"]),
            L.element_from_obj(["b", "c"]),
            L.element_from_obj(["a", "c"]),
        ]
        assert verify_shelling(C, order).ok

    def test_disjoint_edges_fail_with_witness(self):
        L = build_boolean(4)
        C = complex_of(L, [["a", "b"], ["c", "d"]])
        rep = verify_shelling(C)
        assert not rep.ok
        assert (rep.witness["i"], rep.witness["j"]) == (0, 1)

    def test_u2_multiset_in_level_order(self):
        L = build_multiset((2, 2))
        C = PComplex(L, [L.element((2, 0)), L.element((1, 1)), L.element((0, 2))])
        rep = verify_shelling(C)
        assert rep.ok
        assert [f.key for f in rep.order] == [(2, 0), (1, 1), (0, 2)]

    def test_non_pure_reported(self):
        C = complex_of(build_boolean(4), [["a", "b"], ["c"]])
        rep = verify_shelling(C)
        assert not rep.ok and "pure" in rep.detail

    def test_order_must_be_permutation(self):
        L = bool3()
        C = complex_of(L, [["a", "b"], ["b", "c"]])
        with pytest.raises(LatticeInputError):
            verify_shelling(C, [C.facets[0]])

    def test_matches_naive_definition_on_random_orders(self):
        rng = random.Random(7)
        hosts = [build_boolean(4), build_multiset((2, 2, 2))]
        for L in hosts:
            pool = [x for x in L.elements() if x.rank == 2]
            for _ in range(40):
                picks = rng.sample(pool, k=rng.randint(2, min(5, len(pool))))
                C = PComplex(L, picks)
                order = list(C.facets)
                rng.shuffle(order)
                rep = verify_shelling(C, order)
                assert rep.ok == shelling_holds_naive(L, order, C.rank)


class TestFindShelling:
    def test_triangle_found(self):
        C = complex_of(bool3(), [["a", "b"], ["b", "c"], ["a", "c"]])
        order = find_shelling(C)
        assert order is not None
        assert verify_shelling(C, order).ok

    def test_disjoint_edges_none(self):
        C = complex_of(build_boolean(4), [["a", "b"], ["c", "d"]])
        assert find_shelling(C) is None

    def test_single_facet(self):
        L = bool3()
        C = complex_of(L, [["a", "b"]])
        assert find_shelling(C) == C.facets

    def test_cap(self):
        L = build_boolean(5)
        C = PComplex(L, L.elements_of_rank(2))
        with pytest.raises(BudgetError):
            find_shelling(C, cap=4)

    def test_non_pure_rejected(self):
        C = complex_of(build_boolean(4), [["a", "b"], ["c"]])
        with pytest.raises(LatticeInputError):
            find_shelling(C)

    def test_none_verdict_agrees_with_all_permutations(self):
        rng = random.Random(19)
        L = build_multiset((2, 2))
        pool = [x for x in L.elements() if x.rank == 2]
        for _ in range(12):
            picks = rng.sample(pool, k=rng.randint(2, 3))
            C = PComplex(L, picks)
            found = find_shelling(C)
            brute = any(
                verify_shelling(C, perm).ok
                for perm in itertools.permutations(C.facets)
            )
            assert (found is not None) == brute


class TestSphere:
    def test_boolean_pair(self):
        L = bool3()
        S = sphere(L, L.element_from_obj(["a", "b"]))
        assert {L.label(f) for f in S.facets} == {"{a}", "{b}"}
        assert {L.label(x) for x in S.faces()} == {"{}", "{a}", "{b}"}

    def test_multiset_top(self):
        L = build_multiset((2, 1))
        S = sphere(L, L.element((2, 1)))
        assert {f.key for f in S.facets} == {(2, 0), (1, 1)}
        assert len(S.faces()) == 5

    def test_plane_sphere_is_three_lines(self):
        L = build_subspace(2, 2)
        S = sphere(L, L.top)
        assert len(S.facets) == 3
        assert all(f.rank == 1 for f in S.facets)

    def test_purity_everywhere(self, corpus):
        for L in corpus.values():
            for x in L.elements():
                if x.rank < 1:
                    continue
                S = sphere(L, x)
                assert S.is_pure() and S.rank == x.rank - 1

    def test_bottom_rejected(self):
        L = bool3()
        with pytest.raises(LatticeInputError):
            sphere(L, L.bottom)


class TestSpecializedDefinitions:
    def test_simplicial_rule_on_boolean_host(self):
        # set intersection with a cardinality bound is the meet condition
        rng = random.Random(23)
        L = build_boolean(4)
        pool = [x for x in L.elements() if x.rank == 2]

        def simplicial_ok(order, r):
            sets = [set(f.key) for f in order]
            for j in range(1, len(sets)):
                for i in range(j):
                    inter = sets[i] & sets[j]
                    if not any(
                        len(sets[k] & sets[j]) == r - 1 and inter <= (sets[k] & sets[j])
                        for k in range(j)
                    ):
                        return False
            return True

        for _ in range(30):
            picks = rng.sample(pool, k=rng.randint(2, 5))
            C = PComplex(L, picks)
            order = list(C.facets)
            rng.shuffle(order)
            assert verify_shelling(C, order).ok == simplicial_ok(order, C.rank)

    def test_multiplicity_rule_on_multiset_host(self):
        rng = random.Random(29)
        L = build_multiset((2, 2, 2))
        pool = [x for x in L.elements() if x.rank == 3]

        def multiset_ok(order, r):
            def inter(a, b):
                return tuple(min(u, v) for u, v in zip(a.key, b.key))

            for j in range(1, len(order)):
                for i in range(j):
                    mij = inter(order[i], order[j])
                    if not any(
                        sum(inter(order[k], order[j])) == r - 1
                        and all(
                            u <= v
                            for u, v in zip(mij, inter(order[k], order[j]))
                        )
                        for k in range(j)
                    ):
                        return False
            return True

        for _ in range(30):
            picks = rng.sample(pool, k=rng.randint(2, 5))
            C = PComplex(L, picks)
            order = list(C.facets)
            rng.shuffle(order)
            assert verify_shelling(C, order).ok == multiset_ok(order, C.rank)


class TestFaces:
    def test_budget(self):
        L = build_boolean(5)
        C = PComplex(L, [L.top])
        with pytest.raises(BudgetError):
            C.faces(budget=10)

    def test_closure_matches_membership(self):
        L = build_multiset((2, 2))
        C = PComplex(L, [L.element((2, 0)), L.element((1, 1))])
        listed = set(C.faces())
        for x in L.elements():
            assert (x in listed) == C.contains(x)
