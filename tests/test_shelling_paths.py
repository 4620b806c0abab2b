"""The shelling search and the simplicial verifier against the code they
replaced, and the traced names the benchmark wraps.

`find_shelling` and `find_nonpure_shelling` run one subset search, and
`verify_nonpure_shelling` is the one simplicial verifier, on int masks,
behind the equal-size refusal of `verify_pure_simplicial_shelling`.  The
earlier implementations, the same verifier on frozensets among them, live
in shelling_oracles.py.
"""

import json
import random
import sys

import pytest

from powerlat import (
    BudgetError,
    LatticeInputError,
    Multicomplex,
    PComplex,
    build_boolean,
    build_multiset,
    build_subspace,
    complex_order_shelling,
    complex_order_shelling_check,
    find_nonpure_shelling,
    find_shelling,
    polarized_shelling,
    verify_nonpure_shelling,
    verify_pure_simplicial_shelling,
)
from powerlat import ordercomplex, pcomplex
from powerlat import stanley_reisner as sr
from powerlat.cli import main

from shelling_oracles import (
    backtracking_find_shelling,
    frozenset_verify_nonpure_shelling,
    frozenset_verify_pure_simplicial_shelling,
    naive_verify_nonpure_shelling,
    pure_verify_simplicial_shelling,
    subset_find_nonpure_shelling,
)


def criterion_10_complexes():
    # the complexes of test_criterion_10_search_agreement, drawn alike
    L4, L5, LM = build_boolean(4), build_boolean(5), build_multiset((2, 2, 2))
    cases = [
        PComplex(L4, [L4.element_from_obj(list(p)) for p in (("a", "b"), ("b", "c"), ("a", "c"))]),
        PComplex(L4, [L4.element_from_obj(list(p)) for p in (("a", "b"), ("c", "d"))]),
    ]
    rng = random.Random(97)
    pools = [
        (L4, list(L4.elements_of_rank(2))),
        (L5, list(L5.elements_of_rank(2))),
        (LM, list(LM.elements_of_rank(2))),
    ]
    for _ in range(12):
        L, pool = pools[rng.randrange(len(pools))]
        count = rng.randint(3, min(7, len(pool)))
        cases.append(PComplex(L, rng.sample(pool, count)))
    return cases


def random_complexes(count_per_host=110, seed=23):
    rng = random.Random(seed)
    hosts = [
        (build_boolean(5), 2),
        (build_boolean(6), 3),
        (build_multiset((2, 2, 2)), 3),
        (build_subspace(2, 3), 1),
    ]
    out = []
    for L, rank in hosts:
        pool = list(L.elements_of_rank(rank))
        for _ in range(count_per_host):
            out.append(PComplex(L, rng.sample(pool, rng.randint(1, min(9, len(pool))))))
    return out


def random_antichain(rng, n=6, most=8):
    # the maximal sets among a few random subsets of range(n), mixed sizes
    drawn = {frozenset(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(1, most))}
    return [f for f in drawn if not any(f < g for g in drawn)]


class TestFindShelling:
    def test_criterion_10_complexes(self):
        for C in criterion_10_complexes():
            assert find_shelling(C) == backtracking_find_shelling(C)

    def test_random_complexes(self):
        verdicts = set()
        complexes = random_complexes()
        assert len(complexes) >= 400
        for C in complexes:
            found = find_shelling(C)
            assert found == backtracking_find_shelling(C), [f.key for f in C.facets]
            verdicts.add(found is None)
        assert verdicts == {True, False}

    def test_cap_message_unchanged(self):
        L = build_boolean(5)
        C = PComplex(L, L.elements_of_rank(2))
        with pytest.raises(BudgetError, match="complex has 10 facets, over the search cap 4"):
            find_shelling(C, cap=4)
        L = build_boolean(6)
        with pytest.raises(BudgetError, match="complex has 20 facets, over the search cap 12"):
            find_shelling(PComplex(L, L.elements_of_rank(3)))


class TestFindNonpureShelling:
    def test_random_antichains(self):
        rng = random.Random(31)
        verdicts = set()
        for _ in range(400):
            facets = random_antichain(rng)
            rng.shuffle(facets)
            found = find_nonpure_shelling(facets)
            assert (found is None) == (subset_find_nonpure_shelling(facets) is None), facets
            verdicts.add(found is None)
            if found is not None:
                assert sorted(map(sorted, found)) == sorted(map(sorted, facets))
                assert naive_verify_nonpure_shelling(found).ok
        assert verdicts == {True, False}

    def test_empty_family(self):
        assert find_nonpure_shelling([]) == subset_find_nonpure_shelling([]) == ()

    def test_cap_message_unchanged(self):
        with pytest.raises(BudgetError, match="shelling search capped at 14 facets"):
            find_nonpure_shelling([{i, 100} for i in range(15)])


def orders_to_check(rng, facets):
    # a random order, and a shelling order when there is one, so that
    # both verdicts occur
    order = list(facets)
    rng.shuffle(order)
    found = find_nonpure_shelling(facets)
    return [order] + ([list(found)] if found is not None else [])


def verdict(rep):
    return rep.ok, rep.witness, rep.detail


def masks_of(order):
    return [sum(1 << v for v in f) for f in order]


class TestVerifier:
    def test_matches_nonpure_oracle_on_antichains(self):
        rng = random.Random(37)
        verdicts = set()
        for _ in range(1500):
            for order in orders_to_check(rng, random_antichain(rng)):
                rep = verify_nonpure_shelling(order)
                old = naive_verify_nonpure_shelling(order)
                assert (rep.ok, rep.witness) == (old.ok, old.witness), order
                assert verdict(rep) == verdict(frozenset_verify_nonpure_shelling(order)), order
                assert verdict(verify_nonpure_shelling(masks_of(order))) == verdict(rep), order
                verdicts.add(rep.ok)
        assert verdicts == {True, False}

    def test_matches_nonpure_oracle_on_distinct_sets(self):
        # families with containments too: an earlier facet holding F_j
        # puts no vertex in R_j
        rng = random.Random(41)
        for _ in range(1500):
            drawn = {frozenset(rng.sample(range(5), rng.randint(0, 4))) for _ in range(rng.randint(1, 6))}
            order = list(drawn)
            rng.shuffle(order)
            rep = verify_nonpure_shelling(order)
            old = naive_verify_nonpure_shelling(order)
            assert (rep.ok, rep.witness) == (old.ok, old.witness), order
            assert verdict(rep) == verdict(frozenset_verify_nonpure_shelling(order)), order
            assert verdict(verify_nonpure_shelling(masks_of(order))) == verdict(rep), order

    def test_matches_pure_oracle_on_equal_sizes(self):
        rng = random.Random(43)
        verdicts = set()
        for _ in range(2000):
            size = rng.randint(0, 4)
            draws = rng.randint(1, 10)
            # draws with replacement, so duplicates are refused sometimes
            order = [frozenset(rng.sample(range(6), size)) for _ in range(draws)]
            new = verify_pure_simplicial_shelling(order)
            old = pure_verify_simplicial_shelling(order)
            assert (new.ok, new.witness, new.detail) == (old.ok, old.witness, old.detail), order
            assert verdict(new) == verdict(frozenset_verify_pure_simplicial_shelling(order)), order
            verdicts.add(str(new.witness))
        assert "None" in verdicts and str({"reason": "duplicate facet"}) in verdicts

    def test_refusals(self):
        for verify in (
            verify_pure_simplicial_shelling,
            pure_verify_simplicial_shelling,
            frozenset_verify_pure_simplicial_shelling,
        ):
            with pytest.raises(LatticeInputError, match="at least one facet"):
                verify([])
            with pytest.raises(LatticeInputError, match="equal-size facets"):
                verify([{0, 1}, {2}])
        with pytest.raises(LatticeInputError, match="at least one facet"):
            verify_nonpure_shelling([])
        for verify in (verify_nonpure_shelling, verify_pure_simplicial_shelling):
            for order in ([3, {0, 1}], [{0, 1}, 3], [[2], 1, [0]]):
                with pytest.raises(LatticeInputError, match="mix int masks with iterables of vertices"):
                    verify(order)
            for order in ([True], [1.5], [[0], None]):
                with pytest.raises(LatticeInputError, match="neither a mask nor a set of vertices"):
                    verify(order)

    def test_duplicate_facet_in_both_verifiers(self):
        for verify in (verify_nonpure_shelling, verify_pure_simplicial_shelling):
            rep = verify([{0, 1}, {1, 2}, {0, 1}])
            assert not rep.ok and rep.witness == {"reason": "duplicate facet"}


# ---------------------------------------------------------------------------
# the names the benchmark's tracer wraps


TRACED = [
    (ordercomplex, "verify_pure_simplicial_shelling"),
    (sr, "find_nonpure_shelling"),
    (pcomplex, "verify_shelling"),
    (pcomplex, "find_shelling"),
]


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers on the traced names, rebound in every powerlat
    module that holds the same function, as the benchmark's tracer does."""
    counts = {}
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "powerlat"]
    for owner, attr in TRACED:
        original = owner.__dict__[attr]
        key = f"{owner.__name__.split('.')[-1]}.{attr}"
        counts[key] = 0

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if mod.__dict__.get(attr) is original:
                monkeypatch.setattr(mod, attr, counted)
    return counts


class TestTracedNamesAreReached:
    def test_complex_order_shelling_check(self, calls):
        L = build_boolean(3)
        C = PComplex(L, [L.element_from_obj(p) for p in (["a", "b"], ["b", "c"], ["a", "c"])])
        assert complex_order_shelling_check(C).ok
        # both chain orders are decided on the cover graph, with no
        # simplicial verification
        assert calls["ordercomplex.verify_pure_simplicial_shelling"] == 0
        assert calls["pcomplex.verify_shelling"] == 1
        assert complex_order_shelling(C).ok
        assert calls["ordercomplex.verify_pure_simplicial_shelling"] == 0
        assert calls["pcomplex.verify_shelling"] == 2

    def test_polarized_shelling_when_the_lifted_order_fails(self, calls):
        rep = polarized_shelling(Multicomplex((3, 3), [(2, 2), (1, 3)]))
        assert rep.ok and not rep.constructed_ok
        assert calls["stanley_reisner.find_nonpure_shelling"] == 1
        assert calls["pcomplex.verify_shelling"] == 1
        # the lifted order is checked by verify_nonpure_shelling, which the
        # tracer does not wrap
        assert calls["ordercomplex.verify_pure_simplicial_shelling"] == 0

    def test_complex_shell_search(self, calls, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"lattice": {"type": "boolean", "n": 4}, "facets": [["a", "b"], ["b", "c"], ["a", "c"]]})
        )
        assert main(["complex", "shell", str(path), "--search"]) == 0
        assert json.loads(capsys.readouterr().out)["found_by"] == "search"
        assert calls["pcomplex.find_shelling"] == 1
        assert calls["pcomplex.verify_shelling"] == 0
