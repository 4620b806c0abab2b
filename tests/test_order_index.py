"""The indexed verifier and HasseLattice against the per-call references.

`verify_power_lattice` reads leq, join and meet once into tables and
`HasseLattice` derives everything from up-set bitsets.  Both are compared
here with the earlier implementations kept in verifier_oracles.py, over the
bundled corpus, the near misses, every lattice family shape of the
benchmark's `lattice_axioms` workload under five seeds, and random bounded
posets: the same refusal pairs, the same ranks, valuations, covers, meets
and joins, and the same verdict, completeness, witness and detail for every
check.
"""

import itertools
import random
import string

import pytest

from powerlat import (
    BooleanLattice,
    MultisetLattice,
    NotALatticeError,
    build_hasse,
    lattice_from_obj,
    verify_power_lattice,
)

from test_lattice import FIGURE_COVERS, FIGURE_ELEMENTS, Q8_COVERS, Q8_ELEMENTS
from verifier_oracles import oracle_hasse, oracle_verify

# near misses, each with the check it fails; the two-top poset is refused
NEAR_MISSES = {
    "N5": (
        (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
        "rank_covers",
    ),
    "hexagon": (
        (
            ["0", "a", "b", "c", "d", "e", "1"],
            [
                ("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("c", "d"),
                ("b", "e"), ("c", "e"), ("d", "1"), ("e", "1"),
            ],
        ),
        "semimodularity",
    ),
    "Q8": ((Q8_ELEMENTS, Q8_COVERS), "unique_atom_powers"),
    "figure": ((FIGURE_ELEMENTS, FIGURE_COVERS), "rank_by_total_valuation"),
    "two tops": (
        (
            ["0", "a", "b", "c", "d"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")],
        ),
        None,
    ),
}


class ReversedValuation(MultisetLattice):
    """Caches each valuation vector reversed."""

    def _make(self, t):
        return self._new(t, sum(t), t[::-1])


class FlatRank(BooleanLattice):
    """Gives every nonempty set rank 1."""

    def _make(self, idxs):
        return self._new(idxs, min(len(idxs), 1), [int(i in idxs) for i in range(self.n)])


class ShiftedRank(BooleanLattice):
    """Counts ranks from 1."""

    def _make(self, idxs):
        return self._new(idxs, len(idxs) + 1, [int(i in idxs) for i in range(self.n)])


def assert_same_report(L, tag):
    new = verify_power_lattice(L)
    old = oracle_verify(L)
    n = L.element_count()
    assert new.complete and new.ops == 3 * n * n, tag
    assert [c.name for c in new.checks] == [c.name for c in old.checks]
    for a, b in zip(new.checks, old.checks):
        if a.name == "lattice_laws" and not b.passed:
            # the law that fails first differs between the two sweeps
            assert not a.passed and a.witness is not None, tag
            continue
        assert (a.passed, a.complete, a.witness, a.detail) == (
            b.passed,
            b.complete,
            b.witness,
            b.detail,
        ), (tag, a.name)
    assert new.ok == old.ok
    return new


def assert_same_hasse(names, relations, tag):
    """Build both ways; None when both refuse with the same pair."""
    try:
        want = oracle_hasse(names, relations)
    except NotALatticeError as exc:
        with pytest.raises(NotALatticeError) as info:
            build_hasse(names, relations)
        assert info.value.pair == exc.pair, tag
        return None
    L = build_hasse(names, relations)
    els = [L.element_from_obj(s) for s in names]
    got = {
        x.key: {
            "rank": x.rank,
            "valuation": x.valuation,
            "covers": [y.key for y in L.covers(x)],
            "lower_covers": [y.key for y in L.lower_covers(x)],
            "meets": [L.meet(x, y).key for y in els],
            "joins": [L.join(x, y).key for y in els],
        }
        for x in els
    }
    assert got == want, tag
    for x, y in itertools.product(els, repeat=2):
        assert L.leq(x, y) == (L.meet(x, y) == x), tag
    return L


def _names(rng, count):
    pool = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)]
    return rng.sample(pool, count)


def _renamed(rng, shape):
    elements, covers = shape
    name = dict(zip(elements, _names(rng, len(elements))))
    rel = [[name[a], name[b]] for a, b in covers]
    rng.shuffle(rel)
    order = list(name.values())
    rng.shuffle(order)
    return {"type": "hasse", "elements": order, "covers": rel}


def _hasse_from_box(rng, box):
    elems = list(itertools.product(*(range(n + 1) for n in box)))
    covers = [
        (x, x[:i] + (x[i] + 1,) + x[i + 1 :])
        for x in elems
        for i in range(len(box))
        if x[i] < box[i]
    ]
    return _renamed(rng, (elems, covers))


def _diamond(k):
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]


def family_specs(seed):
    """The lattice shapes of the lattice_axioms workload, presented under
    one seed: labels, exponent and factor orders, names and relation
    orders."""
    rng = random.Random(seed)

    def perm(t):
        t = list(t)
        rng.shuffle(t)
        return t

    def boolean(n):
        return {"type": "boolean", "n": n, "labels": _names(rng, n)}

    def multiset(exps):
        return {"type": "multiset", "exponents": perm(exps)}

    specs = [boolean(n) for n in (1, 2, 3, 4, 5)]
    specs += [multiset(e) for e in ((2,), (2, 1), (2, 2), (3, 2), (3, 3), (2, 2, 1), (2, 2, 2))]
    specs += [
        {"type": "divisor", "n": rng.choice(ns)}
        for ns in ((12, 18, 20, 28, 45, 50), (60, 84, 90, 126, 140, 150), (360, 504, 540, 600, 756))
    ]
    specs += [{"type": "subspace", "q": q, "n": n} for q, n in ((2, 2), (3, 2), (5, 2), (2, 3))]
    specs += [
        {"type": "product", "factors": perm([boolean(b), multiset(m)])}
        for b, m in ((1, (2,)), (1, (2, 1)), (2, (2, 1)))
    ]
    specs += [_hasse_from_box(rng, box) for box in ((1, 1), (1, 1, 1), (2, 1), (2, 2), (3,))]
    specs += [_renamed(rng, _diamond(k)) for k in (3, 4)]
    specs += [_renamed(rng, shape) for shape, _ in NEAR_MISSES.values()]
    return specs


def random_bounded_poset(rng):
    """A bottom, a top and up to eight elements between them with random
    relations, under shuffled names and relation order.  Redundant
    relations are common; many of these posets are not lattices."""
    k = rng.randint(1, 8)
    inner = [f"v{i}" for i in range(k)]
    p = rng.uniform(0.15, 0.6)
    rel = [("0", v) for v in inner] + [(v, "1") for v in inner]
    rel += [(a, b) for a, b in itertools.combinations(inner, 2) if rng.random() < p]
    return _renamed(rng, (["0", "1", *inner], rel))


def check_spec(spec, tag):
    if spec["type"] == "hasse":
        L = assert_same_hasse(spec["elements"], spec["covers"], tag)
        if L is None:
            return None
    else:
        L = lattice_from_obj(spec)
    return assert_same_report(L, tag)


def test_corpus(corpus):
    for name, L in corpus.items():
        assert assert_same_report(L, name).ok, name


def test_near_misses():
    for name, ((elements, covers), check) in NEAR_MISSES.items():
        L = assert_same_hasse(elements, covers, name)
        if check is None:
            assert L is None, name
            continue
        rep = assert_same_report(L, name)
        assert not rep.check(check).passed and rep.check(check).witness, name


@pytest.mark.parametrize(
    "L, check, detail",
    [
        (ReversedValuation((2, 1)), "valuation_consistency", "cached valuation disagrees"),
        (FlatRank(3), "rank_covers", "rank is not strictly monotone"),
        (ShiftedRank(2), "rank_covers", "no rank 0 element"),
    ],
    ids=["reversed valuation", "flat rank", "shifted rank"],
)
def test_misranked_and_misvalued_presentations(L, check, detail):
    rep = assert_same_report(L, check)
    assert not rep.check(check).passed and rep.check(check).detail.startswith(detail)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lattice_axioms_family_shapes(seed):
    refused = 0
    for spec in family_specs(seed):
        if check_spec(spec, (seed, spec)) is None:
            refused += 1
    assert refused == 1  # the two-top poset


def test_random_bounded_posets():
    rng = random.Random(2024)
    outcomes = {"refused": 0, "accepted": 0, "rejected": 0}
    for _ in range(400):
        spec = random_bounded_poset(rng)
        rep = check_spec(spec, spec)
        if rep is None:
            outcomes["refused"] += 1
        else:
            outcomes["accepted" if rep.ok else "rejected"] += 1
    # every outcome is exercised: refused at construction, accepted, and
    # failing some check
    assert min(outcomes.values()) > 0, outcomes
