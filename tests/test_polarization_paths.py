"""The polarized complex constructions against the code they replaced, and
the self-check that compares them.

`polarized_complex` builds its facets twice: as the maximal members of a
per-face candidate family, filtered size by size, and as the complements
of the minimal transversals of the polarized generators.  The earlier
implementations, a 2^vars subset enumeration and a pairwise filter, live in
polarization_oracles.py.
"""

import random

import pytest

from powerlat import (
    LatticeError,
    Multicomplex,
    bases,
    build_multiset,
    graphic_matroid,
    independence_complex,
    multicomplex_from_pcomplex,
    polarized_complex,
    uniform_matroid,
)
from powerlat import stanley_reisner as sr
from powerlat.cli import main

from polarization_oracles import enumerated_complement_facet_masks, pairwise_maximal_masks
from test_acceptance import HAND_MULTICOMPLEXES
from test_graphic import graph_classes, graph_of
from test_stanleyreisner import random_multicomplex

# the boxes and exponent patterns of the benchmark's sr_polarize items, 8 to
# 16 polar variables
PLAN_SHAPES = (
    ((2, 2, 2, 2), (2, 1, 1, 0)),
    ((2,) * 5, (2, 2, 1, 0, 0)),
    ((3, 3, 3, 3), (3, 2, 1, 0)),
    ((2,) * 7, (2, 2, 1, 1, 1, 0, 0)),
    ((3,) * 5, (3, 2, 1, 1, 0)),
    ((4, 4, 4, 4), (4, 3, 1, 0)),
)


def criterion_8_multicomplexes():
    # the random inputs of test_criterion_8_polarization, drawn alike
    rng = random.Random(79)
    return [random_multicomplex(rng) for _ in range(30)]


def criterion_9_multicomplexes():
    # the hand built, uniform and graphic inputs of
    # test_criterion_9_polarized_shellings
    deltas = [Multicomplex(box, facets) for box, facets in HAND_MULTICOMPLEXES]
    L = build_multiset((2, 2, 1))
    for k in range(1, 5):
        deltas.append(multicomplex_from_pcomplex(independence_complex(uniform_matroid(L, k))))
    for combo in graph_classes():
        if len(combo) > 3:
            continue
        M = graphic_matroid(graph_of(combo))
        if any(b.key == M.host.top.key for b in bases(M)):
            continue
        deltas.append(multicomplex_from_pcomplex(independence_complex(M)))
    return deltas


def plan_multicomplexes():
    # facets are two to four distinct permutations of each shape's pattern
    rng = random.Random(101)
    deltas = []
    for box, pattern in PLAN_SHAPES:
        for _ in range(5):
            facets = [tuple(rng.sample(pattern, len(pattern))) for _ in range(rng.randint(2, 4))]
            deltas.append(Multicomplex(box, facets))
    return deltas


def all_ones_multicomplexes():
    rng = random.Random(103)
    deltas = []
    for n in range(1, 11):
        for _ in range(4):
            pool = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            facets = [f for f in pool if 0 in f] or [(0,) * n]
            deltas.append(Multicomplex((1,) * n, facets))
    return deltas


FAMILIES = {
    "criterion 8": criterion_8_multicomplexes,
    "criterion 9": criterion_9_multicomplexes,
    "sr_polarize plan": plan_multicomplexes,
    "all-ones boxes": all_ones_multicomplexes,
}


def polar_positions(delta):
    return {v: k for k, v in enumerate(sr.polar_universe(delta.box))}


def facet_masks(sc):
    return {sum(1 << k for k in f) for f in sc.facets}


@pytest.mark.parametrize("family", FAMILIES)
def test_transversal_construction_matches_enumeration(family):
    for delta in FAMILIES[family]():
        pos = polar_positions(delta)
        assert sr._complement_facet_masks(delta, pos) == enumerated_complement_facet_masks(
            delta, pos
        ), delta.to_obj()


@pytest.mark.parametrize("family", FAMILIES)
def test_candidate_filter_matches_pairwise_filter(family):
    for delta in FAMILIES[family]():
        family_masks = sr._facet_family_masks(delta, polar_positions(delta))
        assert facet_masks(polarized_complex(delta)) == set(
            pairwise_maximal_masks(family_masks)
        ), delta.to_obj()


def test_all_ones_boxes_polarize_to_their_facets():
    # with one copy per variable, polarization is the identity
    for delta in all_ones_multicomplexes():
        expected = {sum(1 << i for i, v in enumerate(f) if v) for f in delta.facets}
        assert sr._complement_facet_masks(delta, polar_positions(delta)) == expected
        assert facet_masks(polarized_complex(delta)) == expected


def test_nonface_ideal_is_computed_once(monkeypatch):
    calls = []
    enumerate_ = sr._enumerate_minimal_nonfaces
    monkeypatch.setattr(
        sr, "_enumerate_minimal_nonfaces", lambda d: calls.append(d) or enumerate_(d)
    )
    delta = Multicomplex((3, 3), [(2, 2), (1, 3)])
    sr.section_ring_check(delta)
    polarized_complex(delta)
    sr.polarized_shelling(delta)
    assert calls == [delta]
    assert sr.minimal_nonfaces(delta) is sr.section_ring_check(delta).nonface_ideal


def test_polarized_complex_is_built_once(monkeypatch):
    calls = []
    complement = sr._complement_facet_masks
    monkeypatch.setattr(
        sr, "_complement_facet_masks", lambda d, pos: calls.append(d) or complement(d, pos)
    )
    delta = Multicomplex((3, 3), [(2, 2), (1, 3)])
    sc = polarized_complex(delta)
    rep = sr.polarized_shelling(delta)
    assert calls == [delta] and rep.ok
    assert polarized_complex(delta) is sc


def drop_one_facet(monkeypatch):
    complement = sr._complement_facet_masks
    monkeypatch.setattr(
        sr, "_complement_facet_masks", lambda d, pos: set(sorted(complement(d, pos))[1:])
    )


def test_self_check_catches_a_missing_facet(monkeypatch):
    drop_one_facet(monkeypatch)
    with pytest.raises(LatticeError, match="polarized facet constructions disagree"):
        polarized_complex(Multicomplex((3, 3), [(2, 2), (1, 3)]))


def test_cli_reports_an_internal_failure_with_exit_3(monkeypatch, capsys, tmp_path):
    drop_one_facet(monkeypatch)
    path = tmp_path / "d.json"
    path.write_text('{"box": [3, 3], "facets": [[2, 2], [1, 3]]}')
    assert main(["sr", "polarize", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "LatticeError: polarized facet constructions disagree" in err
    assert "Traceback" not in err
