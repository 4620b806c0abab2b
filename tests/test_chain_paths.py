"""The chains walked once as int masks, and the mask verifier, against the
Element-tuple walk and the frozenset verifier they replaced
(chain_oracles.py, shelling_oracles.py); and both chain orders, decided
on one tree of nodes, against the walked checks they replaced.

Every complex is compared under the identity and the reversed atom order:
chains and their order, verdicts, witnesses (`chain_i` and `chain_j`
included), refusal messages, and the same answers whether the complex's
cached faces and chains are cold or warm.
"""

import itertools
import random
from functools import cmp_to_key

import pytest

from powerlat import (
    BudgetError,
    LatticeInputError,
    Multicomplex,
    PComplex,
    bases,
    build_boolean,
    build_hasse,
    build_multiset,
    build_subspace,
    compare_reverse_lex,
    compare_shelling_order,
    complex_order_shelling,
    complex_order_shelling_check,
    graphic_matroid,
    independence_complex,
    maximal_chains,
    multicomplex_from_pcomplex,
    order_complex,
    polarized_shelling,
    sort_by_rank_lex,
    sphere,
    sphere_order_shelling_check,
    uniform_matroid,
    verify_nonpure_shelling,
    verify_pure_simplicial_shelling,
)
from powerlat import stanley_reisner as sr
from powerlat.lattice import _bits
from powerlat.ordercomplex import _facet_order_refusal

from chain_oracles import (
    element_complex_order_shelling,
    element_complex_order_shelling_check,
    element_maximal_chains,
    element_order_complex,
    element_sphere_order_shelling_check,
    walked_coatom_chains,
    walked_complex_check,
    walked_complex_shelling,
    walked_order_check,
    walked_reverse_lex_chains,
)
from shelling_oracles import (
    frozenset_verify_nonpure_shelling,
    frozenset_verify_pure_simplicial_shelling,
)
from test_acceptance import HAND_MULTICOMPLEXES
from test_graphic import graph_classes, graph_of
from test_homology_paths import small_graph_classes
from test_lattice import q8_lattice
from test_ordercomplex import small_order_complexes


def fresh(C):
    return PComplex(C.lattice, C.facets)


def outcome(fn, *args, **kwargs):
    # the answer in comparable form, or the refusal as a string
    try:
        got = fn(*args, **kwargs)
    except (BudgetError, LatticeInputError) as e:
        return f"{type(e).__name__}: {e}"
    if hasattr(got, "vertex_labels"):
        return got.vertex_labels, got.facets
    if hasattr(got, "chains"):
        return got.ok, got.chains, got.witness, got.detail, got.order
    return got


PAIRS = [
    (lambda C, a, b: maximal_chains(C, budget=b), lambda C, a, b: element_maximal_chains(C, budget=b)),
    (
        lambda C, a, b: maximal_chains(C, include_bottom=False, budget=b),
        lambda C, a, b: element_maximal_chains(C, include_bottom=False, budget=b),
    ),
    (lambda C, a, b: order_complex(C, budget=b), lambda C, a, b: element_order_complex(C, budget=b)),
    (
        lambda C, a, b: order_complex(C, include_bottom=False, budget=b),
        lambda C, a, b: element_order_complex(C, include_bottom=False, budget=b),
    ),
    (complex_order_shelling_check, element_complex_order_shelling_check),
    (complex_order_shelling, element_complex_order_shelling),
]


def atom_orders(C):
    return (None, tuple(reversed(range(len(C.lattice.atoms)))))


def assert_agree(tag, C, budget=10_000):
    """Every pair on C, cold and then warm, against the oracle on a fresh
    copy; the answers, for the failure messages of the caller."""
    for atom_order in atom_orders(C):
        for fn, oracle in PAIRS:
            want = outcome(oracle, fresh(C), atom_order, budget)
            assert outcome(fn, fresh(C), atom_order, budget) == want, (tag, atom_order)
            assert outcome(fn, C, atom_order, budget) == want, (tag, atom_order)


def sphere_complexes(corpus):
    for name, L in corpus.items():
        for x in L.elements():
            if x.rank >= 2:
                yield (name, L.label(x)), L, x


def small_graph_complexes():
    # the complexes of criterion 5 with at most 3 edges
    for combo in small_graph_classes():
        yield ("graph", combo), independence_complex(graphic_matroid(graph_of(combo)))


class TestAgainstTheElementWalk:
    def test_small_order_complexes(self):
        # uniform matroids on multiset(2,2,1), multiset(2,2,2), subspace(2,3)
        # (rank-level keys tie there) and boolean(5), and the graph classes
        # with at most 3 edges
        verdicts = set()
        for tag, C in small_order_complexes():
            assert_agree(tag, C)
            verdicts.add(complex_order_shelling_check(C).ok)
        assert verdicts == {True, False}

    def test_corpus_sphere_intervals(self, corpus):
        for tag, L, x in sphere_complexes(corpus):
            C = PComplex(L, L.lower_covers(x))
            assert_agree(tag, C)
            for atom_order in atom_orders(C):
                want = outcome(element_sphere_order_shelling_check, L, x, atom_order)
                assert outcome(sphere_order_shelling_check, L, x, atom_order) == want, tag

    def test_witnesses_name_chains(self):
        # a prescribed-order failure carries both chains, as the oracle does
        failures = 0
        for tag, C in small_order_complexes():
            rep = complex_order_shelling_check(C)
            if not rep.ok and "j" in (rep.witness or {}):
                failures += 1
                old = element_complex_order_shelling_check(fresh(C))
                assert rep.witness == old.witness and "chain_i" in rep.witness, tag
        assert failures > 0


CHECKS = [
    (complex_order_shelling_check, walked_complex_check),
    (complex_order_shelling, walked_complex_shelling),
]


def pure_families(L, rng, count):
    # seeded antichains of one rank, one to five elements each
    for _ in range(count):
        level = L.elements_of_rank(rng.randint(1, L.top_rank))
        yield PComplex(L, rng.sample(level, rng.randint(1, min(5, len(level)))))


class TestStatePassAgainstTheWalk:
    """Both chain orders are decided on one tree of nodes: the prescribed
    order by `complex_order_shelling_check` and
    `sphere_order_shelling_check`, the recursive coatom order by
    `complex_order_shelling`.  The walked checks of chain_oracles.py are
    their oracles, `order` included."""

    def assert_checks_agree(self, tag, C, details):
        for atom_order in atom_orders(C):
            for fn, oracle in CHECKS:
                want = outcome(oracle, fresh(C), atom_order)
                assert outcome(fn, fresh(C), atom_order) == want, (tag, fn.__name__, atom_order)
                details.add((fn.__name__, want[3]))

    def test_graph_classes_with_at_most_four_edges(self):
        details = set()
        for spec in graph_classes():
            if len(spec) <= 4:
                self.assert_checks_agree(spec, independence_complex(graphic_matroid(graph_of(spec))), details)
        assert details == {
            ("complex_order_shelling_check", ""),
            ("complex_order_shelling_check", "facet meets no earlier facet in a face of size one less"),
            ("complex_order_shelling_check", "no earlier facet covers the intersection with facet i"),
            ("complex_order_shelling", ""),
        }

    def test_corpus_sphere_intervals(self, corpus):
        details = set()
        for tag, L, x in sphere_complexes(corpus):
            for atom_order in atom_orders(sphere(L, x)):
                want = outcome(walked_order_check, sphere(L, x), atom_order)
                assert outcome(sphere_order_shelling_check, L, x, atom_order) == want, (tag, atom_order)
            self.assert_checks_agree(tag, sphere(L, x), details)
        assert details == {("complex_order_shelling_check", ""), ("complex_order_shelling", "")}

    def test_seeded_pure_families(self):
        rng = random.Random(41)
        details = set()
        for L in (build_boolean(4), build_subspace(2, 3)):
            for C in pure_families(L, rng, 60):
                self.assert_checks_agree((L.kind, C.facets), C, details)
        assert {fn for fn, detail in details if detail} == {
            "complex_order_shelling_check",
            "complex_order_shelling",
        }

    def test_tied_rank_level_keys(self):
        # Q8's three rank-2 powers of its one atom share a key, at one rank
        # level only, so the tie rule does not move its chains
        L = q8_lattice()
        C = PComplex(L, [L.top])
        for fn, oracle in CHECKS:
            assert outcome(fn, C) == outcome(oracle, fresh(C)), fn.__name__
            assert len(fn(C).order) == 3
        assert C._chains is None  # no chain walked, `order` read or not

    def test_chains_walked_when_order_is_read(self):
        L = build_multiset((2, 2, 1))
        B = build_boolean(3)
        complexes = [independence_complex(uniform_matroid(L, k)) for k in (1, 2, 3)]
        # the smallest complex the prescribed order fails on
        # (test_private_atom_before_shared_fails)
        complexes.append(PComplex(B, [B.element_from_obj(["a", "c"]), B.element_from_obj(["b", "c"])]))
        verdicts = set()
        for C in complexes:
            for fn, oracle in CHECKS:
                rep = fn(C)
                assert rep.order == oracle(fresh(C)).order, (fn.__name__, C.facets)
                assert C._chains is None, C.facets  # listed off the tree, not walked
                verdicts.add((fn.__name__, rep.ok))
        assert verdicts == {
            ("complex_order_shelling_check", True),
            ("complex_order_shelling_check", False),
            ("complex_order_shelling", True),
        }


def tie_lattice():
    # two chains 0 < a < b < z < T and 0 < a < c < y < T whose elements
    # share rank-level keys at two levels (b, c and z, y)
    return build_hasse(
        list("0abcyzT"),
        [["0", "a"], ["a", "b"], ["a", "c"], ["b", "z"], ["c", "y"], ["z", "T"], ["y", "T"]],
    )


def labelled(L, chains):
    return [[L.label(x) for x in chain] for chain in chains]


class TestTiedKeys:
    """Where two elements share a rank-level key, `sort_key` breaks the tie
    at the highest level where two chains differ, in `compare_reverse_lex`
    and in the prescribed order of the checks alike."""

    def test_ties_at_two_levels(self):
        L = tie_lattice()
        C = PComplex(L, [L.top])
        rep = sphere_order_shelling_check(L, L.top)
        assert rep.to_obj() == {
            "ok": False,
            "chains": 2,
            "witness": {"i": 0, "j": 1, "chain_i": ["0", "a", "c", "y"], "chain_j": ["0", "a", "b", "z"]},
            "detail": "facet meets no earlier facet in a face of size one less",
        }
        assert labelled(L, rep.order) == [["0", "a", "c", "y"], ["0", "a", "b", "z"]]
        for fn in (complex_order_shelling_check, complex_order_shelling):
            rep = fn(C)
            assert not rep.ok and rep.witness["chain_i"] == ["0", "a", "c", "y", "T"], fn.__name__
            assert labelled(L, rep.order) == [["0", "a", "c", "y", "T"], ["0", "a", "b", "z", "T"]]

    def test_comparator_sort_gives_the_checks_order(self):
        for L in (q8_lattice(), tie_lattice()):
            for x in L.elements():
                if x.rank < 2:
                    continue
                chains = maximal_chains(sphere(L, x))
                for X, Y in itertools.product(chains, repeat=2):
                    assert (compare_reverse_lex(L, X, Y) == 0) == (X == Y), labelled(L, (X, Y))
                want = sorted(chains, key=cmp_to_key(lambda X, Y: compare_shelling_order(L, X, Y)))
                assert list(sphere_order_shelling_check(L, x).order) == want, L.label(x)
            C = PComplex(L, [L.top])
            want = sorted(maximal_chains(C), key=cmp_to_key(lambda X, Y: compare_shelling_order(L, X, Y)))
            assert list(complex_order_shelling_check(C).order) == want


def budget_cases():
    L = build_multiset((2, 2, 1))
    yield "U2 on multiset(2,2,1)", independence_complex(uniform_matroid(L, 2))
    for L in (build_subspace(2, 3), build_boolean(4)):
        yield (L.kind, "top"), PComplex(L, [L.top])
    for n, (tag, C) in enumerate(small_graph_complexes()):
        if n % 7 == 0:
            yield tag, C


class TestRefusals:
    def test_face_and_chain_budgets_cold_and_warm(self):
        """At and next to the face and chain counts, a complex refuses or
        answers as the oracle does: cold, warm from an answered call, and
        after a refused one."""
        for tag, C in budget_cases():
            faces, chains = len(C.faces()), len(maximal_chains(C))
            budgets = sorted({faces - 1, faces, chains - 1, chains, chains + 1} - {0})
            for budget in budgets:
                for fn, oracle in PAIRS:
                    want = outcome(oracle, fresh(C), None, budget)
                    refused = fresh(C)
                    outcome(fn, refused, None, 1)
                    for copy in (fresh(C), C, refused):
                        assert outcome(fn, copy, None, budget) == want, (tag, budget)

    def test_face_message_does_not_depend_on_the_cache(self):
        L = build_boolean(4)
        C = PComplex(L, [L.top])
        with pytest.raises(BudgetError, match=r"^complex has more than 5 faces$"):
            C.faces(budget=5)
        assert len(C.faces(budget=16)) == 16
        with pytest.raises(BudgetError, match=r"^complex has more than 5 faces$"):
            C.faces(budget=5)
        with pytest.raises(BudgetError, match=r"^complex has more than 15 faces$"):
            C.faces(budget=15)

    def test_chain_message_does_not_depend_on_the_cache(self):
        L = build_boolean(4)
        C = PComplex(L, [L.top])  # 16 faces, 24 maximal chains
        with pytest.raises(BudgetError, match=r"^complex has more than 23 maximal chains$"):
            maximal_chains(C, budget=23)
        assert len(maximal_chains(C, budget=24)) == 24
        with pytest.raises(BudgetError, match=r"^complex has more than 23 maximal chains$"):
            maximal_chains(C, budget=23)
        # the face budget is still checked first
        with pytest.raises(BudgetError, match=r"^complex has more than 15 faces$"):
            maximal_chains(C, budget=15)

    def test_walked_once(self):
        L = build_multiset((2, 2, 1))
        C = independence_complex(uniform_matroid(L, 2))
        walk = C.chain_masks()
        complex_order_shelling_check(C)
        complex_order_shelling(C)
        order_complex(C)
        assert C.chain_masks() is walk
        # each chain's mask holds its positions, bottom (position 0) first
        for mask, path in walk[1]:
            assert path[0] == 0 and list(path) == sorted(path) and mask == sum(1 << p for p in path)


# ---------------------------------------------------------------------------
# the mask verifier against the frozenset verifier


def as_sets(masks):
    return [frozenset(_bits(m)) for m in masks]


def verdict(rep):
    return rep.ok, rep.witness, rep.detail


class TestMaskVerifier:
    def test_both_chain_orders_of_small_criterion_5_complexes(self):
        verdicts = set()
        for tag, C in small_graph_complexes():
            if _facet_order_refusal(C, None) is not None:
                continue
            facets = sort_by_rank_lex(C.lattice, C.facets)
            for chains in (walked_reverse_lex_chains(C, None, 10_000), walked_coatom_chains(C, facets, None, 10_000)):
                masks = [m for m, _ in chains]
                rep = verify_pure_simplicial_shelling(masks)
                old = frozenset_verify_pure_simplicial_shelling(as_sets(masks))
                assert verdict(rep) == verdict(old), tag
                verdicts.add(rep.ok)
        assert verdicts == {True, False}

    def test_lifted_polarized_orders_of_criterion_9(self, monkeypatch):
        checked = []
        original = sr.verify_nonpure_shelling

        def compared(masks):
            rep = original(masks)
            assert verdict(rep) == verdict(frozenset_verify_nonpure_shelling(as_sets(masks))), masks
            checked.append(rep.ok)
            return rep

        monkeypatch.setattr(sr, "verify_nonpure_shelling", compared)
        deltas = [Multicomplex(box, facets) for box, facets in HAND_MULTICOMPLEXES]
        L = build_multiset((2, 2, 1))
        deltas += [
            multicomplex_from_pcomplex(independence_complex(uniform_matroid(L, k))) for k in range(1, 5)
        ]
        for tag, C in small_graph_complexes():
            M = graphic_matroid(graph_of(tag[1]))
            if all(b.key != M.host.top.key for b in bases(M)):
                deltas.append(multicomplex_from_pcomplex(C))
        for delta in deltas:
            assert polarized_shelling(delta).ok
        assert len(checked) == len(deltas) == 149
        assert set(checked) == {True, False}

    def test_mask_and_set_input_agree(self):
        facets = [frozenset({"b", "c"}), frozenset({"a", "c"}), frozenset({"a", "b"}), frozenset({"c", "d"})]
        bit = {"a": 1, "b": 2, "c": 4, "d": 8}
        masks = [sum(bit[v] for v in f) for f in facets]
        for order in (facets, facets[::-1], facets[1:] + facets[:1]):
            as_masks = [sum(bit[v] for v in f) for f in order]
            assert verdict(verify_nonpure_shelling(order)) == verdict(verify_nonpure_shelling(as_masks))
            assert verdict(verify_nonpure_shelling(order)) == verdict(frozenset_verify_nonpure_shelling(order))
        assert not verify_nonpure_shelling([masks[0], masks[0]]).ok
