"""Concrete lattice constructions and their JSON descriptions."""

import json

import pytest

from powerlat import (
    LatticeInputError,
    NotALatticeError,
    build_boolean,
    build_divisor,
    build_hasse,
    build_multiset,
    build_product,
    build_subspace,
    lattice_from_obj,
    verify_power_lattice,
)

from test_lattice import FIGURE_COVERS, FIGURE_ELEMENTS, Q8_COVERS, Q8_ELEMENTS

# JSON lattice descriptions of the wrong shape or type: each must be
# refused with LatticeInputError, never a TypeError
MALFORMED_SPECS = [
    {"type": "subspace", "q": 2.0, "n": 3},
    {"type": "subspace", "q": 2, "n": True},
    {"type": "boolean", "n": True},
    {"type": "boolean", "n": 3, "labels": 5},
    {"type": "boolean", "n": 2, "labels": [["a"], ["b"]]},
    {"type": "multiset", "exponents": 3},
    {"type": "multiset", "exponents": [True, 2]},
    {"type": "multiset", "exponents": [2.0, 2]},
    {"type": "divisor", "n": 12.0},
    {"type": "hasse", "elements": ["a", "b"], "covers": 5},
    {"type": "hasse", "elements": 5, "covers": []},
    {"type": "hasse", "elements": "ab", "covers": []},
    {"type": "hasse", "elements": ["a", "b"], "covers": [["a", ["b"]]]},
    {"type": "hasse", "elements": ["a", "b"], "covers": ["ab"]},
]


class TestBoolean:
    def test_sizes(self):
        L = build_boolean(3)
        assert L.element_count() == 8
        assert len(L.atoms) == 3

    def test_empty_ground_set_builds_trivial_lattice(self):
        # n=0 gives the one-point lattice; sizes below 1 atom are only useful
        # as a degenerate bottom, so the constructor keeps it but the lattice
        # has no atoms
        with pytest.raises(LatticeInputError):
            build_boolean(-1)

    def test_modular(self):
        L = build_boolean(4)
        elems = L.elements()
        for x in elems:
            for y in elems:
                assert (
                    L.join(x, y).rank + L.meet(x, y).rank == x.rank + y.rank
                )

    def test_out_of_range(self):
        with pytest.raises(LatticeInputError):
            build_boolean(21)


class TestMultiset:
    def test_sizes(self):
        assert build_multiset((3, 3)).element_count() == 16
        L = build_multiset((2, 1))
        assert L.element_count() == 6
        assert [L.label(a) for a in L.atoms] == ["x_1", "x_2"]

    def test_2_2_2_verifies(self):
        L = build_multiset((2, 2, 2))
        assert L.element_count() == 27
        assert verify_power_lattice(L).ok

    def test_zero_exponent_rejected(self):
        with pytest.raises(LatticeInputError):
            build_multiset((2, 0))

    def test_meet_join_pointwise(self):
        L = build_multiset((2, 2))
        x, y = L.element((2, 0)), L.element((1, 1))
        assert L.meet(x, y).key == (1, 0)
        assert L.join(x, y).key == (2, 1)


class TestSubspace:
    def test_f2_2_count(self):
        L = build_subspace(2, 2)
        assert L.element_count() == 5
        assert len(L.atoms) == 3

    def test_f2_3_count(self):
        L = build_subspace(2, 3)
        assert L.element_count() == 16
        assert len(L.elements_of_rank(1)) == 7
        assert len(L.elements_of_rank(2)) == 7

    def test_join_of_axes_is_plane(self):
        L = build_subspace(2, 2)
        e1 = L.element_from_obj([[1, 0]])
        e2 = L.element_from_obj([[0, 1]])
        assert L.join(e1, e2) == L.top

    def test_dimension_formula(self):
        # dim(U+V) + dim(U^V) = dim U + dim V on all pairs
        L = build_subspace(2, 3)
        elems = L.elements()
        for x in elems:
            for y in elems:
                assert L.join(x, y).rank + L.meet(x, y).rank == x.rank + y.rank

    def test_canonical_keys(self):
        L = build_subspace(2, 2)
        a = L.element_from_obj([[1, 0], [0, 1]])
        b = L.element_from_obj([[1, 1], [0, 1]])
        assert a == b == L.top

    def test_nonprime_rejected(self):
        with pytest.raises(LatticeInputError):
            build_subspace(4, 2)


class TestProduct:
    def test_boolean_square_matches_boolean_2(self):
        P = build_product([build_boolean(1), build_boolean(1)])
        B = build_boolean(2)
        assert P.element_count() == B.element_count() == 4
        assert len(P.atoms) == 2
        assert P.top_rank == 2

    def test_subspace_square(self):
        P = build_product([build_subspace(2, 2), build_subspace(2, 2)])
        assert P.element_count() == 25
        assert P.top_rank == 4
        assert len(P.atoms) == 6

    def test_valuations_concatenate(self):
        F = build_boolean(2)
        M = build_multiset((2, 1))
        P = build_product([F, M])
        for x in P.elements():
            parts = x.key
            fx = [e for e in F.elements() if e.key == parts[0]][0]
            mx = [e for e in M.elements() if e.key == parts[1]][0]
            assert x.valuation == fx.valuation + mx.valuation

    def test_single_factor_rejected(self):
        with pytest.raises(LatticeInputError):
            build_product([build_boolean(2)])


class TestHasse:
    def test_figure_builds_then_fails_axiom_two(self):
        L = build_hasse(FIGURE_ELEMENTS, FIGURE_COVERS)
        assert L.element_count() == 7
        rep = verify_power_lattice(L)
        assert not rep.ok
        assert not rep.check("rank_by_total_valuation").passed

    def test_q8_fails_axiom_one(self):
        L = build_hasse(Q8_ELEMENTS, Q8_COVERS)
        rep = verify_power_lattice(L)
        assert not rep.check("unique_atom_powers").passed
        w = rep.check("unique_atom_powers").witness
        assert w["rank"] == 2

    def test_diamond_passes(self):
        L = build_hasse(
            ["bot", "a", "b", "top"],
            [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
        )
        assert verify_power_lattice(L).ok

    def test_non_lattice_pair_reported(self):
        # a and b have two minimal upper bounds, so no join exists
        with pytest.raises(NotALatticeError) as info:
            build_hasse(
                ["0", "a", "b", "c", "d", "1"],
                [
                    ["0", "a"],
                    ["0", "b"],
                    ["a", "c"],
                    ["a", "d"],
                    ["b", "c"],
                    ["b", "d"],
                    ["c", "1"],
                    ["d", "1"],
                ],
            )
        assert set(info.value.pair) == {"a", "b"}

    def test_redundant_relations_tolerated(self):
        L = build_hasse(
            ["0", "a", "1"],
            [["0", "a"], ["a", "1"], ["0", "1"]],
        )
        assert verify_power_lattice(L).ok

    def test_cycle_rejected(self):
        with pytest.raises(LatticeInputError):
            build_hasse(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_non_graded_input_fails_rank_check(self):
        # pentagon: built fine, rejected by the verifier's grading check
        L = build_hasse(
            ["0", "a", "b", "c", "1"],
            [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]],
        )
        rep = verify_power_lattice(L)
        assert not rep.ok
        assert not rep.check("rank_covers").passed


class TestDivisor:
    def test_twelve(self):
        L = build_divisor(12)
        assert L.element_count() == 6
        assert sorted(L.exponents) == [1, 2]

    def test_thirty_is_boolean_like(self):
        L = build_divisor(30)
        assert L.exponents == (1, 1, 1)

    def test_prime_is_single_chain(self):
        L = build_divisor(7)
        assert L.element_count() == 2
        assert [L.label(a) for a in L.atoms] == ["7"]

    def test_small_n_rejected(self):
        with pytest.raises(LatticeInputError):
            build_divisor(1)

    def test_divisibility_isomorphism(self):
        # exponent-vector order mirrors integer divisibility
        L = build_divisor(360)
        assert L.exponents == (3, 2, 1)
        primes = [int(L.label(a)) for a in L.atoms]

        def value(x):
            out = 1
            for p, e in zip(primes, x.key):
                out *= p**e
            return out

        elems = L.elements()
        values = sorted(value(x) for x in elems)
        assert len(values) == 24 and len(set(values)) == 24
        for x in elems:
            for y in elems:
                assert L.leq(x, y) == (value(y) % value(x) == 0)


class TestFromObj:
    def test_round_trips(self):
        specs = [
            {"type": "boolean", "n": 3},
            {"type": "multiset", "exponents": [3, 3], "labels": ["x1", "x2"]},
            {"type": "subspace", "q": 2, "n": 3},
            {
                "type": "product",
                "factors": [
                    {"type": "boolean", "n": 2},
                    {"type": "multiset", "exponents": [2, 1]},
                ],
            },
            {
                "type": "hasse",
                "elements": ["0", "a", "1"],
                "covers": [["0", "a"], ["a", "1"]],
            },
            {"type": "divisor", "n": 12},
        ]
        for spec in specs:
            L = lattice_from_obj(spec)
            for x in L.elements():
                assert L.element_from_obj(L.element_to_obj(x)) == x

    def test_unknown_type_rejected(self):
        with pytest.raises(LatticeInputError):
            lattice_from_obj({"type": "zircon"})

    @pytest.mark.parametrize("spec", MALFORMED_SPECS, ids=json.dumps)
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(LatticeInputError):
            lattice_from_obj(spec)

    def test_element_encodings_of_the_wrong_type_rejected(self):
        B = build_boolean(2)
        H = build_hasse(["0", "a", "1"], [["0", "a"], ["a", "1"]])
        for L, obj in ((B, [["a"]]), (H, ["a"]), (build_multiset((2,)), [True])):
            with pytest.raises(LatticeInputError):
                L.element_from_obj(obj)

    def test_missing_type_rejected(self):
        with pytest.raises(LatticeInputError):
            lattice_from_obj(["boolean", 3])
