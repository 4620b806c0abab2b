"""The section ring check and the generator and facet filters against the
code they replaced.

`section_ring_check` reads the nonface ideal off a face table of the box
and intersects the irreducible ideals one component at a time;
`meets_of_facets` extends the closure one facet at a time, and
`MonomialIdeal.from_gens` and `Multicomplex.__init__` filter by degree.
The earlier implementations, a box scan against every facet, a fold of
`intersect_monomial_ideals`, a pairwise gcd closure and two pairwise
filters, live in section_ring_oracles.py.
"""

import itertools
import random

import pytest

from powerlat import (
    BudgetError,
    MonomialIdeal,
    Multicomplex,
    section_ring_check,
)
from powerlat import stanley_reisner as sr

from section_ring_oracles import (
    folded_section_check,
    pairwise_maximal,
    pairwise_meet_closure,
    pairwise_minimal,
)
from test_polarization_paths import PLAN_SHAPES, criterion_8_multicomplexes, criterion_9_multicomplexes
from test_stanleyreisner import random_multicomplex


def criterion_7_multicomplexes():
    # the random inputs of test_criterion_7_section_rings, drawn alike
    rng = random.Random(73)
    return [random_multicomplex(rng) for _ in range(100)]


def plan_multicomplexes():
    # the boxes and exponent patterns of the benchmark's sr_polarize items,
    # 8 to 18 polar variables; facets are two to four permutations of each
    # shape's pattern
    rng = random.Random(109)
    shapes = PLAN_SHAPES + (((3,) * 6, (3, 2, 2, 1, 1, 0)),)
    deltas = []
    for box, pattern in shapes:
        for _ in range(8):
            facets = [tuple(rng.sample(pattern, len(pattern))) for _ in range(rng.randint(2, 4))]
            deltas.append(Multicomplex(box, facets))
    return deltas


def random_box_multicomplexes():
    rng = random.Random(107)
    deltas = []
    while len(deltas) < 2000:
        box = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        facets = [tuple(rng.randint(0, n) for n in box) for _ in range(rng.randint(1, 6))]
        facets = [f for f in facets if f != box]
        if facets:
            deltas.append(Multicomplex(box, facets))
    return deltas


FAMILIES = {
    "criterion 7": criterion_7_multicomplexes,
    "criterion 8": criterion_8_multicomplexes,
    "criterion 9": criterion_9_multicomplexes,
    "sr_polarize plan": plan_multicomplexes,
    "random boxes": random_box_multicomplexes,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_section_check_matches_fold(family):
    for delta in FAMILIES[family]():
        sec = section_ring_check(delta)
        equal, witness, A, B = folded_section_check(delta)
        assert (sec.equal, sec.witness) == (equal, witness), delta.to_obj()
        assert sec.nonface_ideal.gens == A.gens, delta.to_obj()
        assert sec.facet_intersection.gens == B.gens, delta.to_obj()
        assert sr.meets_of_facets(delta) == pairwise_meet_closure(delta), delta.to_obj()


def squarefree_over_cap():
    # the first seeded squarefree multicomplex on 19 variables whose facet
    # intersection passes the generator cap before its last facet
    rng = random.Random(114)
    while True:
        facets = [
            tuple(int(rng.random() < 0.6) for _ in range(19)) for _ in range(rng.randint(40, 60))
        ]
        delta = Multicomplex((1,) * 19, [f for f in facets if 0 in f])
        try:
            sr._intersect_irreducibles(19, delta.facets)
        except BudgetError:
            return delta


def test_generator_cap_is_hit_where_the_fold_hits_it():
    delta = squarefree_over_cap()
    message = "ideal intersection capped at 1000 generators"
    with pytest.raises(BudgetError, match=message):
        section_ring_check(delta)
    l, facets = delta.nvars, delta.facets

    def refused(k):
        try:
            sr._intersect_irreducibles(l, facets[:k])
        except BudgetError as e:
            assert str(e) == message
            return True
        return False

    # the first k + 1 facets are refused and the first k are not
    lo, hi = 1, len(facets)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid + 1, hi)
    k = lo - 1
    before = sr._intersect_irreducibles(l, facets[: k - 1])[0]
    after = sr._intersect_irreducibles(l, facets[:k])[0]
    assert len(before.gens) <= 1000 < len(after.gens)
    # from the same ideal, one step of the fold gives the same ideal, and
    # the fold refuses the next step
    assert sr.intersect_monomial_ideals(before, sr.irreducible_ideal(facets[k - 1], l)) == after
    with pytest.raises(BudgetError, match=message):
        sr.intersect_monomial_ideals(after, sr.irreducible_ideal(facets[k], l))


def test_meet_cap_reaches_the_check():
    perms = sorted(set(itertools.permutations((2, 2, 1, 0, 0))))
    delta = Multicomplex((2,) * 5, perms[:21])
    with pytest.raises(BudgetError, match="meet closure capped at 20 facets"):
        section_ring_check(delta)


def test_from_gens_matches_pairwise_filter():
    rng = random.Random(127)
    for _ in range(400):
        nvars = rng.randint(0, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 30))]
        expect = tuple(sorted(pairwise_minimal(gens), reverse=True))
        assert MonomialIdeal.from_gens(nvars, gens).gens == expect, gens


def test_multicomplex_facets_match_pairwise_filter():
    rng = random.Random(131)
    for _ in range(400):
        box = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        facets = [tuple(rng.randint(0, n) for n in box) for _ in range(rng.randint(1, 30))]
        facets = [f for f in facets if f != box] or [(0,) * len(box)]
        assert set(Multicomplex(box, facets).facets) == set(pairwise_maximal(facets)), facets
