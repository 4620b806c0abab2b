"""Core lattice layer: valuations, factorizations, rank-level orders, and
the exhaustive axiom verifier."""

import itertools

import pytest

from powerlat import (
    BooleanLattice,
    LatticeInputError,
    atom_power,
    build_boolean,
    build_hasse,
    build_multiset,
    build_subspace,
    covers,
    factorization,
    join_of_factorization,
    leq_valuationwise,
    min_rule_compare,
    rank_lex_compare,
    valuation,
    verify_power_lattice,
)

from verifier_oracles import oracle_verify

# Hasse diagram of the seven-element non-example: two rank-2 elements with
# different total valuations.
FIGURE_ELEMENTS = ["0", "4", "5", "6", "2", "3", "1"]
FIGURE_COVERS = [
    ["0", "4"],
    ["0", "5"],
    ["0", "6"],
    ["4", "2"],
    ["5", "2"],
    ["6", "2"],
    ["6", "3"],
    ["2", "1"],
    ["3", "1"],
]


def figure_lattice():
    return build_hasse(FIGURE_ELEMENTS, FIGURE_COVERS)


# Subgroups of the quaternion group: one atom with three distinct rank-2
# powers above it.
Q8_ELEMENTS = ["1", "Z", "I", "J", "K", "Q"]
Q8_COVERS = [
    ["1", "Z"],
    ["Z", "I"],
    ["Z", "J"],
    ["Z", "K"],
    ["I", "Q"],
    ["J", "Q"],
    ["K", "Q"],
]


def q8_lattice():
    return build_hasse(Q8_ELEMENTS, Q8_COVERS)


A, B = frozenset({0}), frozenset({1})


class JoinIsABC(BooleanLattice):
    """join({a},{b}) is the subset {a,b,c}: an upper bound but not the
    least one on three atoms, and not an element at all on two."""

    def join(self, x, y):
        if {x.key, y.key} == {A, B}:
            return self._make(frozenset({0, 1, 2}))
        return super().join(x, y)


class MissingRelation(BooleanLattice):
    """leq leaves out {} <= {a,b}, which meet({},{a,b}) = {} implies."""

    def leq(self, x, y):
        return super().leq(x, y) and not (not x.key and y.key == A | B)


class LopsidedMeet(BooleanLattice):
    """meet({a},{b}) is {a}, while meet({b},{a}) is {}."""

    def meet(self, x, y):
        if (x.key, y.key) == (A, B):
            return x
        return super().meet(x, y)


class SymmetricLeq(BooleanLattice):
    """leq also puts {a} and {b} below each other."""

    def leq(self, x, y):
        return super().leq(x, y) or {x.key, y.key} == {A, B}


def by_label(L, text):
    for x in L.elements():
        if L.label(x) == text:
            return x
    raise AssertionError(f"no element labelled {text}")


class TestValuation:
    def test_boolean_membership_indicator(self):
        L = build_boolean(3)
        x = L.element_from_obj(["a", "c"])
        assert valuation(L, x) == (1, 0, 1)

    def test_multiset_valuation_is_exponent(self):
        L = build_multiset((3, 3))
        assert valuation(L, L.element((2, 1))) == (2, 1)

    def test_full_plane_sees_all_three_lines(self):
        L = build_subspace(2, 2)
        assert valuation(L, L.top) == (1, 1, 1)

    def test_foreign_element_rejected(self):
        L = build_boolean(3)
        other = build_boolean(3)
        x = other.element_from_obj(["a"])
        with pytest.raises(LatticeInputError):
            valuation(L, x)


class TestFactorization:
    def test_boolean_set(self):
        L = build_boolean(3)
        x = L.element_from_obj(["a", "c"])
        assert factorization(L, x) == (0, 2)

    def test_multiset_with_multiplicity(self):
        L = build_multiset((3, 3))
        assert factorization(L, L.element((2, 1))) == (0, 0, 1)

    def test_join_of_factorization_reconstructs(self, corpus):
        for L in corpus.values():
            for x in L.elements():
                assert join_of_factorization(L, x) == x

    def test_injective_on_instances(self, corpus):
        for L in corpus.values():
            seen = {}
            for x in L.elements():
                v = valuation(L, x)
                assert v not in seen, "two elements share a valuation vector"
                seen[v] = x


class TestLeqValuationwise:
    def test_examples(self):
        L = build_boolean(2)
        a = L.element_from_obj(["a"])
        ab = L.element_from_obj(["a", "b"])
        assert leq_valuationwise(L, a, ab)
        M = build_multiset((2, 2))
        assert not leq_valuationwise(M, M.element((0, 2)), M.element((1, 1)))

    def test_subspace_containment(self):
        L = build_subspace(2, 2)
        line = L.element_from_obj([[1, 1]])
        assert leq_valuationwise(L, line, L.top)

    def test_agrees_with_leq_on_all_pairs(self, corpus):
        for L in corpus.values():
            elems = L.elements()
            for x in elems:
                for y in elems:
                    assert leq_valuationwise(L, x, y) == L.leq(x, y)


class TestRankLexCompare:
    def test_examples(self):
        L = build_multiset((2, 2))
        x = L.element((1, 1))
        y = L.element((0, 2))
        assert rank_lex_compare(L, x, y) < 0
        assert rank_lex_compare(L, x, x) == 0

    def test_unequal_ranks_rejected(self):
        L = build_multiset((2, 2))
        with pytest.raises(LatticeInputError):
            rank_lex_compare(L, L.element((1, 0)), L.element((1, 1)))

    def test_agrees_with_min_rule(self):
        # the lexicographic rule and the min-of-multiset-difference rule
        # pick the same order on every rank level
        for L in (build_multiset((3, 2)), build_subspace(2, 3)):
            for level in range(L.top_rank + 1):
                elems = L.elements_of_rank(level)
                for x in elems:
                    for y in elems:
                        lex = rank_lex_compare(L, x, y)
                        mn = min_rule_compare(L, x, y)
                        assert (lex < 0) == (mn < 0) and (lex == 0) == (mn == 0)

    def test_total_order_per_level(self, corpus):
        for L in corpus.values():
            for level in range(L.top_rank + 1):
                elems = L.elements_of_rank(level)
                for x in elems:
                    for y in elems:
                        c = rank_lex_compare(L, x, y)
                        assert c == -rank_lex_compare(L, y, x)
                        assert (c == 0) == (x == y)
                for x, y, z in itertools.product(elems, repeat=3):
                    if rank_lex_compare(L, x, y) <= 0 and rank_lex_compare(L, y, z) <= 0:
                        assert rank_lex_compare(L, x, z) <= 0

    def test_atom_order_parameter(self):
        L = build_multiset((2, 2))
        x = L.element((1, 1))
        y = L.element((0, 2))
        assert rank_lex_compare(L, x, y, atom_order=(1, 0)) > 0


class TestAtomPower:
    def test_multiset_power(self):
        L = build_multiset((3, 3))
        x1 = L.atoms[0]
        assert atom_power(L, x1, 2) == L.element((2, 0))

    def test_boolean_has_no_higher_powers(self):
        L = build_boolean(3)
        assert atom_power(L, L.atoms[0], 2) is None

    def test_unique_powers_chain(self):
        L = build_multiset((3, 3))
        x1 = L.atoms[0]
        chain = [atom_power(L, x1, r) for r in range(4)]
        assert [x.key for x in chain] == [(0, 0), (1, 0), (2, 0), (3, 0)]
        for lower, upper in zip(chain, chain[1:]):
            assert upper in covers(L, lower)

    def test_power_zero_and_one(self, corpus):
        for L in corpus.values():
            for w in L.atoms:
                assert atom_power(L, w, 0) == L.bottom
                assert atom_power(L, w, 1) == w

    def test_non_atom_rejected(self):
        L = build_multiset((2, 2))
        with pytest.raises(LatticeInputError):
            atom_power(L, L.top, 1)


class TestCovers:
    def test_boolean(self):
        L = build_boolean(3)
        a = L.element_from_obj(["a"])
        labels = sorted(L.label(y) for y in covers(L, a))
        assert labels == ["{a,b}", "{a,c}"]

    def test_multiset(self):
        L = build_multiset((2, 2))
        up = {y.key for y in covers(L, L.element((1, 1)))}
        assert up == {(2, 1), (1, 2)}

    def test_subspace_line_covered_by_plane(self):
        L = build_subspace(2, 2)
        line = L.element_from_obj([[1, 0]])
        assert covers(L, line) == (L.top,)

    def test_cover_raises_rank_by_one(self, corpus):
        for L in corpus.values():
            for x in L.elements():
                for y in covers(L, x):
                    assert y.rank == x.rank + 1 and L.lt(x, y)


class TestValuationLaws:
    def test_meet_is_pointwise_min(self, corpus):
        for L in corpus.values():
            elems = L.elements()
            for x in elems:
                for y in elems:
                    m = L.meet(x, y)
                    assert m.valuation == tuple(
                        min(a, b) for a, b in zip(x.valuation, y.valuation)
                    )

    def test_join_dominates_pointwise_max(self, corpus):
        for L in corpus.values():
            elems = L.elements()
            for x in elems:
                for y in elems:
                    j = L.join(x, y)
                    assert all(
                        v >= max(a, b)
                        for v, a, b in zip(j.valuation, x.valuation, y.valuation)
                    )

    def test_strict_join_inequality_in_subspace(self):
        # the sum of two distinct lines picks up the third line of the plane
        L = build_subspace(2, 2)
        e1 = L.element_from_obj([[1, 0]])
        e2 = L.element_from_obj([[0, 1]])
        j = L.join(e1, e2)
        assert j == L.top
        gained = [
            v > max(a, b)
            for v, a, b in zip(j.valuation, e1.valuation, e2.valuation)
        ]
        assert any(gained)


class TestVerifier:
    def test_boolean_passes(self):
        rep = verify_power_lattice(build_boolean(3))
        assert rep.ok and rep.complete

    def test_figure_fails_total_valuation(self):
        rep = verify_power_lattice(figure_lattice())
        assert not rep.ok
        check = rep.check("rank_by_total_valuation")
        assert not check.passed
        w = check.witness
        assert {w["x"], w["y"]} == {"2", "3"}
        assert sorted(w["totals"]) == [2, 3]

    def test_q8_fails_unique_powers(self):
        rep = verify_power_lattice(q8_lattice())
        check = rep.check("unique_atom_powers")
        assert not check.passed
        assert check.witness["atom"] == "Z"

    def test_failing_checks_always_carry_witnesses(self):
        for L in (figure_lattice(), q8_lattice()):
            rep = verify_power_lattice(L)
            for check in rep.checks:
                if not check.passed and check.complete:
                    assert check.witness is not None

    @pytest.mark.parametrize(
        "L, law, x, y",
        [
            (JoinIsABC(3), "least upper bound", "{a}", "{b}"),
            (MissingRelation(2), "transitivity", "{}", "{a}"),
            (LopsidedMeet(2), "greatest lower bound", "{a}", "{b}"),
            (JoinIsABC(2), "closure", "{a}", "{b}"),
            (SymmetricLeq(2), "antisymmetry", "{a}", "{b}"),
        ],
        ids=["loose join", "missing relation", "lopsided meet", "escaping join", "symmetric leq"],
    )
    def test_lattice_law_failures_carry_witnesses(self, L, law, x, y):
        rep = verify_power_lattice(L)
        check = rep.check("lattice_laws")
        assert not rep.ok and rep.complete
        assert not check.passed and check.detail
        assert (check.witness["law"], check.witness["x"], check.witness["y"]) == (law, x, y)
        assert not oracle_verify(L).check("lattice_laws").passed

    def test_budget_runs_out_while_reading_the_tables(self):
        # 64 < budget < 192: the n^2 gate lets the checks start, and the
        # 3n^2 queries of the table reading do not fit
        rep = verify_power_lattice(build_boolean(3), budget=100)
        assert rep.ok and not rep.complete and rep.ops <= 3 * 64
        assert [(c.name, c.complete, c.detail) for c in rep.checks] == [
            ("lattice_laws", False, "budget exhausted"),
            ("rank_covers", False, "not run"),
            ("semimodularity", False, "not run"),
            ("unique_atom_powers", False, "not run"),
            ("rank_by_total_valuation", False, "not run"),
            ("valuation_consistency", False, "not run"),
        ]

    def test_budget_marks_report_incomplete(self):
        rep = verify_power_lattice(build_boolean(4), budget=50)
        assert not rep.complete
        assert any(not c.complete for c in rep.checks)

    def test_corpus_instances_pass(self, corpus):
        for name, L in corpus.items():
            rep = verify_power_lattice(L)
            assert rep.ok and rep.complete, name
