"""The chains walked once as int masks, and the mask verifier, against the
Element-tuple walk and the frozenset verifier they replaced
(chain_oracles.py, shelling_oracles.py); and the prescribed order decided
on the cover graph against the walked check it replaced.

Every complex is compared under the identity and the reversed atom order:
chains and their order, verdicts, witnesses (`chain_i` and `chain_j`
included), refusal messages, and the same answers whether the complex's
cached faces and chains are cold or warm.
"""

import pytest

from powerlat import (
    BudgetError,
    LatticeInputError,
    Multicomplex,
    PComplex,
    bases,
    build_boolean,
    build_multiset,
    build_subspace,
    complex_order_shelling,
    complex_order_shelling_check,
    graphic_matroid,
    independence_complex,
    maximal_chains,
    multicomplex_from_pcomplex,
    order_complex,
    polarized_shelling,
    sphere,
    sphere_order_shelling_check,
    uniform_matroid,
    verify_nonpure_shelling,
    verify_pure_simplicial_shelling,
)
from powerlat import stanley_reisner as sr
from powerlat.lattice import _bits
from powerlat.ordercomplex import (
    _coatom_chains,
    _facet_order_refusal,
    _order_report,
    _reverse_lex_chains,
)

from chain_oracles import (
    element_complex_order_shelling,
    element_complex_order_shelling_check,
    element_maximal_chains,
    element_order_complex,
    element_sphere_order_shelling_check,
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


def walked_order_check(C, atom_order=None, budget=10_000):
    # the prescribed order as it was checked before the state pass: every
    # chain walked, sorted reverse lexicographically and verified as a
    # simplicial shelling
    return _order_report(C, _reverse_lex_chains(C, atom_order, budget), budget)


def walked_complex_check(C, atom_order=None, budget=10_000):
    refusal, _ = _facet_order_refusal(C, atom_order)
    if refusal is not None:
        return refusal
    return walked_order_check(C, atom_order, budget)


class TestStatePassAgainstTheWalk:
    """`complex_order_shelling_check` and `sphere_order_shelling_check`
    decide the prescribed order on the cover graph; the walked check is
    their oracle, `order` included."""

    def test_graph_classes_with_at_most_four_edges(self):
        details = set()
        for spec in graph_classes():
            if len(spec) > 4:
                continue
            C = independence_complex(graphic_matroid(graph_of(spec)))
            for atom_order in atom_orders(C):
                want = outcome(walked_complex_check, fresh(C), atom_order)
                assert outcome(complex_order_shelling_check, fresh(C), atom_order) == want, (spec, atom_order)
                details.add(want[3])
        assert details == {
            "",
            "facet meets no earlier facet in a face of size one less",
            "no earlier facet covers the intersection with facet i",
        }

    def test_corpus_sphere_intervals(self, corpus):
        for tag, L, x in sphere_complexes(corpus):
            for atom_order in atom_orders(sphere(L, x)):
                want = outcome(walked_order_check, sphere(L, x), atom_order)
                assert outcome(sphere_order_shelling_check, L, x, atom_order) == want, (tag, atom_order)

    def test_tied_rank_level_keys(self):
        # Q8's three rank-2 powers of its one atom share a key, and chains
        # through them keep their walk order
        L = q8_lattice()
        C = PComplex(L, [L.top])
        complex_order_shelling_check(C)
        assert C._chains is not None  # walked: ties are left to the walk order
        assert outcome(complex_order_shelling_check, C) == outcome(walked_complex_check, fresh(C))
        assert len(complex_order_shelling_check(C).order) == 3

    def test_chains_walked_when_order_is_read(self):
        L = build_multiset((2, 2, 1))
        B = build_boolean(3)
        complexes = [independence_complex(uniform_matroid(L, k)) for k in (1, 2, 3)]
        # the smallest complex the prescribed order fails on
        # (test_private_atom_before_shared_fails)
        complexes.append(PComplex(B, [B.element_from_obj(["a", "c"]), B.element_from_obj(["b", "c"])]))
        verdicts = set()
        for C in complexes:
            rep = complex_order_shelling_check(C)
            assert C._chains is None, C.facets
            assert rep.order == walked_complex_check(fresh(C)).order, C.facets
            assert C._chains is not None, C.facets
            verdicts.add(rep.ok)
        assert verdicts == {True, False}


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
            refusal, facets = _facet_order_refusal(C, None)
            if refusal is not None:
                continue
            for chains in (_reverse_lex_chains(C, None, 10_000), _coatom_chains(C, facets, None, 10_000)):
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
