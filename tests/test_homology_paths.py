"""Homology on face bitmasks, on the link of the vertices every facet
holds and relative to the star of one vertex, against the frozenset walk
and full-complex elimination it replaced (homology_oracles.py).

Every cone leaves nothing to eliminate, so the order complexes without
their bottom and the random complexes keep the elimination itself under
test.
"""

import itertools
import random

import pytest

from powerlat import (
    BudgetError,
    build_multiset,
    check_wedge,
    graphic_matroid,
    independence_complex,
    order_complex,
    reduced_betti,
    reduced_betti_mod2,
    sphere,
    uniform_matroid,
)

from homology_oracles import frozenset_faces, full_reduced_betti, full_reduced_betti_mod2
from test_graphic import all_specs, canonical, graph_of
from test_ordercomplex import RP2_FACETS, simplicial

PATHS = [
    (lambda sc, b: sc.faces(budget=b), frozenset_faces),
    (reduced_betti, full_reduced_betti),
    (reduced_betti_mod2, full_reduced_betti_mod2),
]


def outcome(fn, sc, budget):
    # the answer, or the refusal's message as a string
    try:
        return fn(sc, budget)
    except BudgetError as e:
        return f"BudgetError: {e}"


def agree(sc, budget=20_000) -> bool:
    """Assert that every path matches its oracle; False when they refused."""
    for fn, oracle in PATHS:
        got = outcome(fn, sc, budget)
        assert got == outcome(oracle, sc, budget), (sc.facets, budget, fn)
    return not isinstance(got, str)


def random_complexes(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        pure = rng.random() < 0.5
        size = rng.randint(1, n)
        facets = [
            rng.sample(range(n), size if pure else rng.randint(1, n))
            for _ in range(rng.randint(1, 8))
        ]
        yield simplicial(facets, n=n)


@pytest.mark.parametrize("budget", [20_000, 17])
def test_random_complexes(budget):
    answered = refused = 0
    for sc in random_complexes(3_000, 101):
        if agree(sc, budget):
            answered += 1
        else:
            refused += 1
    assert answered > 1_000
    assert (refused > 500) == (budget == 17)


def test_projective_plane_and_simplex_boundaries():
    assert agree(simplicial(RP2_FACETS))
    for n in range(1, 9):
        assert agree(simplicial(list(itertools.combinations(range(n), n - 1)), n=n))


def small_graph_classes():
    # the classes of criterion 5 with at most 3 edges, first met in the
    # same enumeration order as `graph_classes`
    seen = set()
    for size in (1, 2, 3):
        for spec in all_specs(size):
            key = canonical(spec)
            if key not in seen:
                seen.add(key)
                yield spec


def criterion_5_complexes():
    L = build_multiset((2, 2, 1))
    for k in range(1, L.top_rank + 1):
        yield independence_complex(uniform_matroid(L, k))
    for spec in small_graph_classes():
        yield independence_complex(graphic_matroid(graph_of(spec)))


def test_order_complexes_with_and_without_bottom():
    checked = 0
    for C in criterion_5_complexes():
        for bottom in (True, False):
            try:
                sc = order_complex(C, include_bottom=bottom)
            except BudgetError:
                continue  # over the chain budget, before any homology
            agree(sc)
            checked += 1
    assert checked > 200


def test_corpus_sphere_intervals_without_bottom(corpus):
    for L in corpus.values():
        for x in L.elements():
            if x.rank >= 2:
                assert agree(order_complex(sphere(L, x), include_bottom=False))


# --- the face budget, at and past its limit ----------------------------------

TRIANGLE = [(0, 1), (1, 2), (0, 2)]  # 7 faces, the empty face included


@pytest.mark.parametrize("fn", [fn for fn, _ in PATHS])
def test_face_budget_boundary(fn):
    assert len(simplicial(TRIANGLE).faces()) == 7
    fn(simplicial(TRIANGLE), 7)
    with pytest.raises(BudgetError, match=r"^complex has more than 7 faces$"):
        fn(simplicial(TRIANGLE + [(3,)]), 7)


# --- the work record -----------------------------------------------------------


def test_cone_eliminates_nothing():
    rep = check_wedge(simplicial([(0, 1, 2), (0, 1, 3), (0, 2, 3)]))
    assert rep.betti == (0, 0, 0)
    work = rep.to_obj()["work"]
    assert work["faces"] == 14 and work["budget"] == 20_000 and work["star"] == 14
    assert [b["rows"] for b in work["boundaries"]] == [0, 0, 0]


def test_hollow_triangle_eliminates_one_edge():
    # vertex 0 is on two facets, like every vertex; its star leaves edge 12
    work = check_wedge(simplicial(TRIANGLE)).work
    assert (work["faces"], work["star"]) == (7, 6)
    assert work["boundaries"] == [
        {"rows": 0, "cols": 0, "rank": 0},
        {"rows": 1, "cols": 0, "rank": 0},
    ]


# --- the link of the vertices on every facet -----------------------------------

FIVE_POINTS = [(v,) for v in range(5)]  # 6 faces, five of them facets


@pytest.mark.parametrize("fn", [fn for fn, _ in PATHS] + [oracle for _, oracle in PATHS])
def test_seeded_faces_count_against_the_budget(fn):
    for budget in (3, 5):
        with pytest.raises(BudgetError, match=rf"^complex has more than {budget} faces$"):
            fn(simplicial(FIVE_POINTS), budget)
    fn(simplicial(FIVE_POINTS), 6)


def cone(base, apex_size):
    """The join of `base` with the simplex on `apex_size` new vertices."""
    start = 1 + max(v for f in base for v in f)
    apex = tuple(range(start, start + apex_size))
    return simplicial([tuple(f) + apex for f in base])


CONE_BASES = [
    [(0, 1), (2, 3)],  # two components: 7 faces
    TRIANGLE,  # a circle: 7 faces
    RP2_FACETS,  # 32 faces, torsion in its homology
]


@pytest.mark.parametrize("apex_size", [1, 2, 3])
@pytest.mark.parametrize("base", CONE_BASES, ids=["edges", "triangle", "rp2"])
def test_cone_face_budget_boundary(base, apex_size):
    sc = cone(base, apex_size)
    n = len(frozenset_faces(sc, 10**6))
    assert n == len(frozenset_faces(simplicial(base), 10**6)) << apex_size
    zeros = (0,) * (sc.dim + 1)
    for budget in (n, n + 1):  # n + 1 is odd
        assert len(sc.faces(budget)) == n
        assert reduced_betti(sc, budget) == zeros == reduced_betti_mod2(sc, budget)
        assert agree(sc, budget)
        assert check_wedge(sc, budget).work == {
            "faces": n,
            "budget": budget,
            "star": n,
            "boundaries": [{"rows": 0, "cols": 0, "rank": 0}] * (sc.dim + 1),
        }
    for budget in (n - 1, (n >> 1) + 1):  # n - 1 is odd
        for fn, _ in PATHS:
            with pytest.raises(BudgetError, match=rf"^complex has more than {budget} faces$"):
                fn(sc, budget)
        with pytest.raises(BudgetError, match=rf"^complex has more than {budget} faces$"):
            check_wedge(sc, budget)
        assert not agree(sc, budget)
