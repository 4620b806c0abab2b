"""The lattice kernels against their earlier forms, and the verifier's query
count.

The library's `_make` looks the intern cache up before it builds a rank or
valuation, the multiset kernels run on `map`, the subspace meet is looked
up by line set, the product's covers are one component-step walk, and
`atom_power` is one rule in `PowerLattice` with a closed form per family
from rank 2 on, read off the order index for a Hasse lattice
(kernel_oracles.py keeps the earlier kernels, the Hasse element scan
included).  On every ordered pair of the bundled corpus, of the
`lattice_axioms` family shapes under five seeds, of Hasse copies of those
shapes and of the near misses, join, meet, covers, lower covers and atom
powers must be the very objects the earlier kernels give on the same host,
leq must agree, atom powers of every element at every rank from -1 to one
above the top must raise the same errors, and the verifier's report must be
equal on a copy built with the earlier kernels.  Separately,
`verify_power_lattice` must ask the lattice under test for every ordered
pair's leq, join and meet, each exactly once: no fast path may skip the
kernel being judged.
"""

import collections
import itertools
import random

import pytest

from powerlat import (
    BooleanLattice,
    DivisorLattice,
    HasseLattice,
    MultisetLattice,
    NotALatticeError,
    ProductLattice,
    SubspaceLattice,
    build_hasse,
    lattice_from_obj,
    verify_power_lattice,
)

from conftest import corpus_lattices
from kernel_oracles import oracle_copy, oracle_view
from test_order_index import NEAR_MISSES, family_specs


def _same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _outcome(call, *args):
    # the answer, or the type and message of the error raised
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    return got is want or (type(got) is tuple and got == want)


def assert_same_kernels(L, tag):
    els = L.elements()
    interned = len(L._cache)
    old = oracle_view(L)
    for x, y in itertools.product(els, repeat=2):
        assert L.join(x, y) is old.join(x, y), (tag, "join", x, y)
        assert L.meet(x, y) is old.meet(x, y), (tag, "meet", x, y)
        assert L.leq(x, y) == old.leq(x, y), (tag, "leq", x, y)
    for x in els:
        assert _same(L.covers(x), old.covers(x)), (tag, "covers", x)
        assert _same(L.lower_covers(x), old.lower_covers(x)), (tag, "lower_covers", x)
    for w, k in itertools.product(els, range(-1, L.top_rank + 2)):
        got, want = _outcome(L.atom_power, w, k), _outcome(old.atom_power, w, k)
        assert _same_outcome(got, want), (tag, "atom_power", w, k, got, want)
    assert len(L._cache) == interned, tag  # no kernel made an element anew
    assert verify_power_lattice(L).to_obj() == verify_power_lattice(oracle_copy(L)).to_obj(), tag


def test_corpus_kernels():
    for name, L in corpus_lattices().items():
        assert_same_kernels(L, name)


def hasse_copy(L, rng):
    """L as a Hasse lattice: its labels, in a shuffled name order, and its
    cover relations."""
    els = L.elements()
    names = [L.label(x) for x in els]
    rng.shuffle(names)
    return build_hasse(names, [(L.label(x), L.label(y)) for x in els for y in L.covers(x)])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_family_shape_kernels(seed):
    rng = random.Random(seed)
    refused = 0
    for spec in family_specs(seed):
        try:
            L = lattice_from_obj(spec)
        except NotALatticeError:
            refused += 1
            continue
        assert_same_kernels(L, (seed, spec))
        if not isinstance(L, HasseLattice):
            assert_same_kernels(hasse_copy(L, rng), (seed, "Hasse copy", spec))
    assert refused == 1  # the two-top poset


def test_near_miss_kernels():
    # each in both name orders: Q8's one atom has three powers of rank 2,
    # and the one reported is the first by name
    for name, ((elements, covers), check) in NEAR_MISSES.items():
        if check is not None:  # the two-top poset is refused
            for names in (elements, elements[::-1]):
                assert_same_kernels(build_hasse(names, covers), (name, names))


def _counting(family):
    class Counting(family):
        def __init__(self, *args):
            self.calls = collections.Counter()
            super().__init__(*args)

        def leq(self, x, y):
            self.calls["leq"] += 1
            return super().leq(x, y)

        def join(self, x, y):
            self.calls["join"] += 1
            return super().join(x, y)

        def meet(self, x, y):
            self.calls["meet"] += 1
            return super().meet(x, y)

    return Counting


@pytest.mark.parametrize(
    "family, args",
    [
        (BooleanLattice, (3,)),
        (MultisetLattice, ((2, 1, 2),)),
        (DivisorLattice, (360,)),
        (SubspaceLattice, (2, 3)),
        (ProductLattice, ([BooleanLattice(2), MultisetLattice((2, 1))],)),
        (HasseLattice, NEAR_MISSES["N5"][0]),
        (HasseLattice, NEAR_MISSES["hexagon"][0]),
    ],
    ids=["boolean", "multiset", "divisor", "subspace", "product", "N5", "hexagon"],
)
def test_verifier_asks_every_pair_once(family, args):
    L = _counting(family)(*args)
    n = L.element_count()
    rep = verify_power_lattice(L)
    assert rep.complete and rep.ops == 3 * n * n
    assert L.calls == {"leq": n * n, "join": n * n, "meet": n * n}
