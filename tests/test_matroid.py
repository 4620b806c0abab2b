"""Matroids on power lattices: axioms, bases, exchange, shellings, graphs."""

import itertools

import pytest

from powerlat import (
    Edge,
    LatticeInputError,
    Matroid,
    bases,
    build_boolean,
    build_hasse,
    build_multiset,
    build_subspace,
    check_equal_rank,
    covers,
    dual_exchange_witness,
    graph_from_obj,
    graph_lattice,
    graph_to_obj,
    graphic_matroid,
    independence_complex,
    is_independent_edge_multiset,
    matroid_shelling,
    uniform_matroid,
    verify_basis_axioms,
    verify_independence_axioms,
    weighted_graph,
)


def m22():
    return build_multiset((2, 2))


def hasse_copy(L):
    """L presented by its labels and cover relations."""
    return build_hasse(
        [L.label(x) for x in L.elements()],
        [[L.label(x), L.label(y)] for x in L.elements() for y in covers(L, x)],
    )


def triangle_graph():
    return weighted_graph(
        ["u", "v", "w"],
        [Edge("e", "u", "v", 1), Edge("f", "v", "w", 1), Edge("g", "u", "w", 1)],
    )


def exchange_conclusion_ok(L, B, x, y, a, u, b) -> bool:
    """The stated conclusion of the dual exchange theorem for a pair (u, b)."""
    ai, bi = L.atom_index(a), L.atom_index(b)
    if u.rank != x.rank - 1 or not L.leq(L.meet(x, y), u):
        return False
    if y.valuation[bi] >= x.valuation[bi]:
        return False
    pb = L.atom_power(b, u.valuation[bi] + 1)
    if pb is None or L.join(u, pb) != x:
        return False
    pa = L.atom_power(a, u.valuation[ai] + 1)
    return pa is not None and L.join(u, pa) in set(B)


class TestVerifyIndependence:
    def test_whole_lattice_is_a_matroid(self):
        L = m22()
        rep = verify_independence_axioms(L, L.elements())
        assert rep.ok and rep.complete

    def test_u1_boolean(self):
        L = build_boolean(2)
        ind = [L.bottom, *L.elements_of_rank(1)]
        assert verify_independence_axioms(L, ind).ok

    def test_not_downward_closed(self):
        L = m22()
        rep = verify_independence_axioms(L, [L.bottom, L.element((2, 0))])
        assert not rep.ok
        chk = rep.check("I2_downward_closed")
        assert not chk.passed
        assert chk.witness == {"x": "x_1^2", "missing": "x_1"}

    def test_missing_bottom(self):
        L = m22()
        rep = verify_independence_axioms(L, [L.element((1, 0))])
        assert not rep.check("I1_bottom").passed

    def test_exchange_failure(self):
        L = m22()
        ind = [L.bottom, L.element((1, 0)), L.element((0, 1)), L.element((2, 0))]
        rep = verify_independence_axioms(L, ind)
        chk = rep.check("I3_exchange")
        assert not chk.passed
        assert chk.witness == {"x": "x_2", "y": "x_1^2"}

    def test_accepts_matroid_value(self):
        M = uniform_matroid(m22(), 1)
        assert verify_independence_axioms(M).ok

    def test_budget_marks_incomplete(self):
        L = build_boolean(4)
        rep = verify_independence_axioms(L, L.elements(), budget=3)
        assert not rep.complete
        assert rep.ok
        assert [(c.name, c.complete, c.detail) for c in rep.checks] == [
            ("I1_bottom", True, ""),
            ("I2_downward_closed", False, "budget exhausted"),
            ("I3_exchange", False, "not run"),
        ]

    def test_generic_path_agrees_with_multiset_path(self):
        # the same lattice presented by its cover relations must give the
        # same verdicts
        L = m22()
        H = hasse_copy(L)
        families = [
            [t for t in L.elements()],
            [L.bottom, L.element((1, 0)), L.element((0, 1))],
            [L.bottom, L.element((2, 0))],
            [L.bottom, L.element((1, 0)), L.element((0, 1)), L.element((2, 0))],
        ]
        for fam in families:
            rep_m = verify_independence_axioms(L, fam)
            rep_h = verify_independence_axioms(
                H, [H.element_from_obj(L.label(x)) for x in fam]
            )
            for name in ("I1_bottom", "I2_downward_closed", "I3_exchange"):
                assert rep_m.check(name).passed == rep_h.check(name).passed


class TestUniformMatroid:
    def test_u0(self):
        L = m22()
        M = uniform_matroid(L, 0)
        assert M.independents == frozenset([L.bottom])

    def test_u2_multiset(self):
        M = uniform_matroid(m22(), 2)
        assert len(M.independents) == 6
        assert verify_independence_axioms(M).ok

    def test_u2_subspace(self):
        L = build_subspace(2, 3)
        M = uniform_matroid(L, 2)
        assert len(M.independents) == 15
        assert verify_independence_axioms(M).ok

    def test_every_level_is_a_matroid(self, corpus):
        for name in ("boolean(3)", "multiset(3,3)", "subspace(2,2)"):
            L = corpus[name]
            for k in range(L.top_rank + 1):
                assert verify_independence_axioms(uniform_matroid(L, k)).ok, (name, k)

    def test_rank_out_of_range(self):
        L = m22()
        for k in (-1, L.top_rank + 1):
            with pytest.raises(LatticeInputError):
                uniform_matroid(L, k)


class TestBases:
    def test_u2_bases_in_level_order(self):
        L = m22()
        B = bases(uniform_matroid(L, 2))
        assert [L.label(b) for b in B] == ["x_1^2", "x_1*x_2", "x_2^2"]
        assert check_equal_rank(B)

    def test_whole_lattice_single_basis(self):
        L = m22()
        B = bases(Matroid(L, frozenset(L.elements())))
        assert B == (L.top,)

    def test_equal_rank_detector(self):
        L = m22()
        assert check_equal_rank([])
        assert not check_equal_rank([L.bottom, L.top])

    def test_generic_host(self):
        L = build_subspace(2, 2)
        B = bases(uniform_matroid(L, 1))
        assert len(B) == 3 and check_equal_rank(B)

    def test_family_not_downward_closed(self):
        # 1 lies below x_1^2 though x_1 is missing: on either presentation
        # of the lattice it is not a basis, and the bases still shell
        L = m22()
        for host in (L, hasse_copy(L)):
            by_label = {host.label(x): x for x in host.elements()}
            M = Matroid(host, frozenset([by_label["1"], by_label["x_1^2"]]))
            assert [host.label(b) for b in bases(M)] == ["x_1^2"]
            rep = matroid_shelling(M)
            assert rep.ok and [host.label(f) for f in rep.order] == ["x_1^2"]

    def test_independence_complex_facets(self):
        M = uniform_matroid(m22(), 2)
        C = independence_complex(M)
        assert set(C.facets) == set(bases(M))


class TestBasisAxioms:
    def test_u2_passes(self):
        L = m22()
        rep = verify_basis_axioms(L, bases(uniform_matroid(L, 2)))
        assert rep.ok and rep.complete

    def test_b3_failure_witness(self):
        L = m22()
        rep = verify_basis_axioms(L, [L.element((2, 0)), L.element((0, 2))])
        chk = rep.check("B3_exchange")
        assert not chk.passed
        assert chk.witness == {"x": "x_1^2", "y": "x_2^2", "u": "x_1"}

    def test_antichain_violation(self):
        L = m22()
        rep = verify_basis_axioms(L, [L.element((1, 0)), L.element((2, 0))])
        assert not rep.check("B2_antichain").passed

    def test_empty_family(self):
        rep = verify_basis_axioms(m22(), [])
        assert not rep.ok
        assert not rep.check("B1_nonempty").passed

    def test_singleton_top(self):
        L = m22()
        assert verify_basis_axioms(L, [L.top]).ok

    def test_matroid_bases_always_pass(self, corpus):
        for name in ("boolean(3)", "multiset(3,3)", "subspace(2,2)"):
            L = corpus[name]
            for k in range(L.top_rank + 1):
                B = bases(uniform_matroid(L, k))
                assert verify_basis_axioms(L, B).ok, (name, k)


class TestDualExchange:
    def test_u2_example(self):
        L = m22()
        B = bases(uniform_matroid(L, 2))
        x, y = L.element((2, 0)), L.element((0, 2))
        a = L.element((0, 1))
        u, b = dual_exchange_witness(L, B, x, y, a)
        assert (L.label(u), L.label(b)) == ("x_1", "x_1")
        assert exchange_conclusion_ok(L, B, x, y, a, u, b)

    def test_exhaustive_over_small_matroids(self):
        hosts = [m22(), build_boolean(4), build_subspace(2, 2)]
        for L in hosts:
            for k in range(1, L.top_rank + 1):
                B = bases(uniform_matroid(L, k))
                for x, y in itertools.permutations(B, 2):
                    for a in L.atoms:
                        ai = L.atom_index(a)
                        if y.valuation[ai] <= x.valuation[ai]:
                            continue
                        got = dual_exchange_witness(L, B, x, y, a)
                        assert got is not None
                        assert exchange_conclusion_ok(L, B, x, y, a, *got)

    def test_no_pair_on_a_non_matroid_family(self):
        L = m22()
        B = [L.element((2, 0)), L.element((0, 2))]
        x, y = B
        a = L.element((0, 1))
        assert dual_exchange_witness(L, B, x, y, a) is None

    def test_preconditions(self):
        L = m22()
        B = bases(uniform_matroid(L, 2))
        x, y = L.element((2, 0)), L.element((0, 2))
        a1, a2 = L.element((1, 0)), L.element((0, 1))
        with pytest.raises(LatticeInputError):
            dual_exchange_witness(L, B, x, x, a2)
        with pytest.raises(LatticeInputError):
            dual_exchange_witness(L, B, x, L.element((1, 1)).host.bottom, a2)
        with pytest.raises(LatticeInputError):
            dual_exchange_witness(L, B, x, y, a1)


class TestMatroidShelling:
    def test_u2_multiset_order(self):
        L = m22()
        rep = matroid_shelling(uniform_matroid(L, 2))
        assert rep.ok
        assert [L.label(f) for f in rep.order] == ["x_1^2", "x_1*x_2", "x_2^2"]

    def test_u2_boolean(self):
        assert matroid_shelling(uniform_matroid(build_boolean(4), 2)).ok

    def test_whole_lattice(self):
        L = m22()
        assert matroid_shelling(Matroid(L, frozenset(L.elements()))).ok

    def test_all_uniform_levels(self, corpus):
        for name in ("boolean(4)", "multiset(3,3)", "subspace(2,3)"):
            L = corpus[name]
            for k in range(L.top_rank + 1):
                assert matroid_shelling(uniform_matroid(L, k)).ok, (name, k)


class TestWeightedGraphs:
    def test_triangle_lattice(self):
        L = graph_lattice(triangle_graph())
        assert L.exponents == (1, 1, 1)
        assert len(L.elements()) == 8
        assert L.labels == ("e", "f", "g")

    def test_heavy_edge_chain(self):
        G = weighted_graph(["u", "v"], [Edge("e", "u", "v", 2)])
        L = graph_lattice(G)
        assert [x.key for x in L.elements()] == [(0,), (1,), (2,)]

    def test_parallel_weights(self):
        G = weighted_graph(
            ["u", "v"], [Edge("e", "u", "v", 1), Edge("f", "u", "v", 2)]
        )
        assert len(graph_lattice(G).elements()) == 6

    def test_no_edges_rejected(self):
        with pytest.raises(LatticeInputError):
            graph_lattice(weighted_graph(["u"], []))

    def test_validation(self):
        with pytest.raises(LatticeInputError):
            weighted_graph(["u", "u"], [])
        with pytest.raises(LatticeInputError):
            weighted_graph(["u"], [Edge("e", "u", "x", 1)])
        with pytest.raises(LatticeInputError):
            weighted_graph(["u", "v"], [Edge("e", "u", "v", 0)])
        with pytest.raises(LatticeInputError):
            weighted_graph(
                ["u", "v"], [Edge("e", "u", "v", 1), Edge("e", "v", "u", 1)]
            )

    def test_obj_round_trip(self):
        G = triangle_graph()
        assert graph_from_obj(graph_to_obj(G)) == G
        with pytest.raises(LatticeInputError):
            graph_from_obj({"vertices": ["u"], "edges": [{"u": "u"}]})


class TestIndependentEdgeMultisets:
    def test_triangle(self):
        G = triangle_graph()
        assert not is_independent_edge_multiset(G, (1, 1, 1))
        assert is_independent_edge_multiset(G, (1, 1, 0))
        assert is_independent_edge_multiset(G, {"e": 1})

    def test_heavy_bridge_is_acyclic_at_full_weight(self):
        G = weighted_graph(["u", "v"], [Edge("e", "u", "v", 2)])
        assert is_independent_edge_multiset(G, (2,))
        assert is_independent_edge_multiset(G, (1,))

    def test_parallel_pair_is_a_cycle(self):
        G = weighted_graph(
            ["u", "v"], [Edge("e", "u", "v", 1), Edge("f", "u", "v", 2)]
        )
        assert not is_independent_edge_multiset(G, (1, 2))
        assert is_independent_edge_multiset(G, (1, 1))

    def test_self_loop(self):
        G = weighted_graph(["u"], [Edge("e", "u", "u", 2)])
        assert not is_independent_edge_multiset(G, (2,))
        assert is_independent_edge_multiset(G, (1,))

    def test_bad_multiplicities(self):
        G = triangle_graph()
        with pytest.raises(LatticeInputError):
            is_independent_edge_multiset(G, (2, 0, 0))
        with pytest.raises(LatticeInputError):
            is_independent_edge_multiset(G, (1, 1))
        with pytest.raises(LatticeInputError):
            is_independent_edge_multiset(G, {"h": 1})


class TestGraphicMatroid:
    def test_triangle(self):
        M = graphic_matroid(triangle_graph())
        L = M.host
        assert len(M.independents) == 7
        B = bases(M)
        assert {tuple(b.key) for b in B} == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert verify_independence_axioms(M).ok
        assert verify_basis_axioms(L, B).ok
        assert matroid_shelling(M).ok

    def test_weighted_parallel(self):
        G = weighted_graph(
            ["u", "v"], [Edge("e", "u", "v", 2), Edge("f", "u", "v", 1)]
        )
        M = graphic_matroid(G)
        L = M.host
        B = bases(M)
        assert [L.label(b) for b in B] == ["e^2", "e*f"]
        assert check_equal_rank(B)
        assert verify_independence_axioms(M).ok

    def test_heavy_path_is_the_whole_lattice(self):
        G = weighted_graph(
            ["u", "v", "w"], [Edge("e", "u", "v", 2), Edge("f", "v", "w", 1)]
        )
        M = graphic_matroid(G)
        assert len(M.independents) == 6
        assert bases(M) == (M.host.top,)

    def test_unit_weight_forest_oracle(self):
        def is_forest(G, picked):
            adj = {}
            for e in picked:
                adj.setdefault(e.u, []).append(e.v)
                adj.setdefault(e.v, []).append(e.u)
            seen = set()
            for start in adj:
                if start in seen:
                    continue
                verts, edge_ends = set(), 0
                stack = [start]
                while stack:
                    v = stack.pop()
                    if v in verts:
                        continue
                    verts.add(v)
                    edge_ends += len(adj[v])
                    stack.extend(adj[v])
                seen |= verts
                if edge_ends // 2 != len(verts) - 1:
                    return False
            return True

        verts = ["1", "2", "3", "4"]
        all_edges = [
            Edge(f"e{i}", a, b, 1)
            for i, (a, b) in enumerate(itertools.combinations(verts, 2))
        ]
        G = weighted_graph(verts, all_edges)
        for bits in itertools.product((0, 1), repeat=len(all_edges)):
            picked = [e for e, b in zip(all_edges, bits) if b]
            assert is_independent_edge_multiset(G, bits) == is_forest(G, picked)
