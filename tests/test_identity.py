"""Element identity by interning, and the subspace meet.

Every handle comes from its host's `PowerLattice._new`, so equality and
hashing are by identity: these tests pin that interning holds for every
way the library hands out elements, that `sort_key` tells elements apart
(the total order every set walk ends in) and is the rank-level key then
the label, that an element of another host is refused, and that the
line-span subspace meet agrees with the earlier null-space meet
(subspace_oracles.py).
"""

import itertools

import pytest

from powerlat import (
    LatticeInputError,
    ProductLattice,
    atom_power,
    build_boolean,
    build_hasse,
    build_multiset,
    build_product,
    build_subspace,
)
from powerlat.lattice import _rank_level_key

from subspace_oracles import nullspace_meet


def _handles(L):
    """Every element L hands out through its element operations."""
    els = L.elements()
    yield from els
    for x, y in itertools.product(els, repeat=2):
        yield L.join(x, y)
        yield L.meet(x, y)
    for x in els:
        yield from L.lower_covers(x)
        yield L.element_from_obj(L.element_to_obj(x))
    for w in L.atoms:
        for k in range(L.top_rank + 1):
            p = L.atom_power(w, k)
            if p is not None:
                yield p


def test_equal_keys_are_one_object(corpus):
    for name, L in corpus.items():
        canon = {x.key: x for x in L.elements()}
        assert len(canon) == L.element_count(), name
        for x in _handles(L):
            assert x.host is L and canon[x.key] is x, (name, x)
        if isinstance(L, ProductLattice):
            for x in L.elements():
                for f, c in zip(L.factors, L.components(x)):
                    assert c.host is f and f.element_from_obj(f.element_to_obj(c)) is c


def test_sort_key_is_injective(corpus):
    for name, L in corpus.items():
        keys = {L.sort_key(x) for x in L.elements()}
        assert len(keys) == L.element_count(), name


def test_sort_key_is_the_rank_level_key_then_the_label(corpus):
    # the host builds its rank-level key once and keeps it
    for name, L in corpus.items():
        for x in L.elements():
            assert L.sort_key(x) == _rank_level_key(L, None)(x) + (L.label(x),), (name, x)
        key = L._level_key
        L.sort_key(L.top)
        assert L._level_key is key, name


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_boolean(2),
        lambda: build_multiset((2, 1)),
        lambda: build_subspace(2, 2),
        lambda: build_product([build_boolean(1), build_multiset((2,))]),
        lambda: build_hasse(
            ["0", "a", "b", "1"], [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]
        ),
    ],
    ids=["boolean", "multiset", "subspace", "product", "hasse"],
)
def test_atom_of_another_host_refused(build):
    # the two hosts are equal lattices with equal keys, but not the same host
    L1, L2 = build(), build()
    foreign = L2.atoms[0]
    assert foreign.key == L1.atoms[0].key and foreign is not L1.atoms[0]
    with pytest.raises(LatticeInputError):
        L1.atom_index(foreign)
    with pytest.raises(LatticeInputError):
        atom_power(L1, foreign, 1)
    assert atom_power(L1, L1.atoms[0], 1) is L1.atoms[0]


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_subspace_meet_matches_nullspace_oracle(q, n):
    L = build_subspace(q, n)
    els = L.elements()
    for x, y in itertools.product(els, repeat=2):
        assert L.meet(x, y) is nullspace_meet(L, x, y), (L.label(x), L.label(y))
