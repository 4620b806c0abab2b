"""Non-modular power lattices for the chain layer: the lattices of flats of
rank-3 simple matroids, the paper's equicardinal geometric lattices.

Every other corpus lattice is modular, so there semimodularity holds with
equality and any two lower covers of a face meet one rank down.  Here two
lines may meet only in the bottom.  On U_{3,4} (12 elements), U_{3,5} (17)
and the affine plane AG(2,3) (23) the chain checks run against the walked
oracles of chain_oracles.py, and the top sphere's order complex is a wedge
of |mu| circles.
"""

import itertools

import pytest

from powerlat import (
    PComplex,
    build_hasse,
    check_wedge,
    complex_order_shelling,
    complex_order_shelling_check,
    independence_complex,
    order_complex,
    sphere,
    uniform_matroid,
    verify_power_lattice,
)
from powerlat.ordercomplex import _facet_order_refusal

from chain_oracles import walked_complex_check, walked_complex_shelling
from test_chain_paths import atom_orders, fresh, outcome

# the twelve lines of AG(2,3) on the points 1..9, in four parallel classes
AG23_LINES = ["123", "456", "789", "147", "258", "369", "159", "267", "348", "168", "249", "357"]


def flats_lattice(points, lines=()):
    """The lattice of flats of the rank-3 simple matroid on `points` whose
    lines of three or more points are `lines`; every other pair of points
    is a line of its own.  Flats are named by their points, the bottom "0"
    and the top "E"."""
    lines = [frozenset(line) for line in lines]
    for p, q in itertools.combinations(points, 2):
        if not any(p in line and q in line for line in lines):
            lines.append(frozenset((p, q)))
    names = ["".join(sorted(line)) for line in lines]
    covers = [("0", p) for p in points]
    covers += [(p, name) for name in names for p in name]
    covers += [(name, "E") for name in names]
    return build_hasse(["0", *points, *names, "E"], covers)


HOSTS = {
    "U_{3,4}": (lambda: flats_lattice("1234"), 12, (0, 3)),
    "U_{3,5}": (lambda: flats_lattice("12345"), 17, (0, 6)),
    "AG(2,3)": (lambda: flats_lattice("123456789", AG23_LINES), 23, (0, 16)),
}


def modular_defect(L, x, y) -> int:
    # rank x + rank y - rank(x v y) - rank(x ^ y): 0 for a modular pair
    return x.rank + y.rank - L.join(x, y).rank - L.meet(x, y).rank


@pytest.mark.parametrize("name", HOSTS)
class TestFlatLattices:
    def test_power_lattice_and_not_modular(self, name):
        build, size, _ = HOSTS[name]
        L = build()
        assert len(L.elements()) == size and L.top_rank == 3
        assert verify_power_lattice(L).ok
        lines = L.elements_of_rank(2)
        assert any(modular_defect(L, x, y) > 0 for x, y in itertools.combinations(lines, 2))

    def test_uniform_complexes_pass_both_chain_checks(self, name):
        L = HOSTS[name][0]()
        for k in range(1, L.top_rank + 1):
            C = independence_complex(uniform_matroid(L, k))
            for atom_order in atom_orders(C):
                for fn, oracle in (
                    (complex_order_shelling_check, walked_complex_check),
                    (complex_order_shelling, walked_complex_shelling),
                ):
                    got = outcome(fn, C, atom_order)
                    assert got[0] is True, (k, fn.__name__, atom_order)
                    want = outcome(oracle, fresh(C), atom_order)
                    assert got == want, (k, fn.__name__, atom_order)

    def test_top_sphere_is_a_wedge_of_mobius_many_circles(self, name):
        build, _, betti = HOSTS[name]
        L = build()
        rep = check_wedge(order_complex(sphere(L, L.top), include_bottom=False))
        assert rep.ok and rep.betti == betti


def test_parallel_lines_of_ag23_are_not_a_modular_pair():
    L = flats_lattice("123456789", AG23_LINES)
    x, y = L.element_from_obj("123"), L.element_from_obj("456")
    assert L.meet(x, y) == L.bottom and L.join(x, y) == L.top
    assert L.join(x, y).rank + L.meet(x, y).rank < x.rank + y.rank


def test_ag23_line_families_against_the_walked_checks():
    """The AG(2,3) families of 1-4 and 10-12 lines (872 complexes), under
    the default and the reversed atom order: both chain checks answer as
    the walked oracles do, and the recursive coatom order certifies every
    complex whose rank-level facet order shells.  How often the prescribed
    order fails there is reported, not asserted."""
    L = flats_lattice("123456789", AG23_LINES)
    lines = [L.element_from_obj(line) for line in AG23_LINES]
    families = [fam for size in (1, 2, 3, 4, 10, 11, 12) for fam in itertools.combinations(lines, size)]
    assert len(families) == 872
    compared = hypothesis = prescribed_ok = 0
    for fam in families:
        C = PComplex(L, fam)
        for atom_order in atom_orders(C):
            check = outcome(complex_order_shelling_check, C, atom_order)
            assert check == outcome(walked_complex_check, fresh(C), atom_order), fam
            coatom = outcome(complex_order_shelling, C, atom_order)
            assert coatom == outcome(walked_complex_shelling, fresh(C), atom_order), fam
            compared += 1
            if _facet_order_refusal(C, atom_order) is None:
                hypothesis += 1
                assert coatom[0] is True, (fam, atom_order)
                prescribed_ok += check[0]
    assert compared == 1744
    print(
        f"\nAG(2,3) line families: the coatom order certifies {hypothesis} of"
        f" {hypothesis} complexes whose facet order shells; the prescribed"
        f" order passes {prescribed_ok} of them"
    )
