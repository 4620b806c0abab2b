"""End to end acceptance checks.

One test per criterion, each printing a single PASS or FAIL verdict line
(run with -s to see them).  Timed criteria assert their wall clock bounds.
"""

import itertools
import math
import random
import time

from powerlat import (
    BudgetError,
    Multicomplex,
    PComplex,
    bases,
    build_boolean,
    build_multiset,
    build_subspace,
    check_equal_rank,
    check_wedge,
    complex_order_shelling,
    complex_order_shelling_check,
    depolarize,
    dual_exchange_witness,
    find_shelling,
    graphic_matroid,
    independence_complex,
    matroid_shelling,
    min_rule_compare,
    multicomplex_from_pcomplex,
    order_complex,
    polarize_monomial,
    polarized_complex,
    polarized_shelling,
    rank_lex_compare,
    reduced_betti,
    reduced_betti_mod2,
    section_ring_check,
    sphere,
    sphere_order_shelling_check,
    uniform_matroid,
    verify_basis_axioms,
    verify_independence_axioms,
    verify_nonpure_shelling,
    verify_power_lattice,
    verify_shelling,
)

from test_graphic import SLOTS, check_graph, graph_classes, graph_of
from test_lattice import figure_lattice, q8_lattice
from test_matroid import exchange_conclusion_ok
from test_ordercomplex import RP2_FACETS, simplicial
from test_stanleyreisner import random_multicomplex


def verdict(num, text, ok, started):
    stamp = f" ({time.perf_counter() - started:.1f}s)"
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}{stamp}")


def box_monomials(box):
    return itertools.product(*(range(n + 1) for n in box))


def test_criterion_1_lattice_verifier(corpus):
    t0 = time.perf_counter()
    bad = []
    for name, L in corpus.items():
        rep = verify_power_lattice(L)
        if not (rep.ok and rep.complete):
            bad.append(name)
    rep = verify_power_lattice(figure_lattice())
    c = rep.check("rank_by_total_valuation")
    if rep.ok or c.passed:
        bad.append("figure accepted")
    elif {c.witness["x"], c.witness["y"]} != {"2", "3"} or sorted(c.witness["totals"]) != [2, 3]:
        bad.append(("figure witness", c.witness))
    rep = verify_power_lattice(q8_lattice())
    c = rep.check("unique_atom_powers")
    if rep.ok or c.passed:
        bad.append("q8 accepted")
    elif c.witness["atom"] != "Z" or c.witness["rank"] != 2:
        bad.append(("q8 witness", c.witness))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        f"verifier accepts all {len(corpus)} corpus lattices and pins both counterexamples",
        not bad and elapsed < 30.0,
        t0,
    )
    assert not bad, bad[:5]
    assert elapsed < 30.0


def test_criterion_2_valuation_laws(corpus):
    t0 = time.perf_counter()
    bad = []
    pairs = 0
    for name, L in corpus.items():
        elems = L.elements()
        for x in elems:
            for y in elems:
                vm = L.meet(x, y).valuation
                vj = L.join(x, y).valuation
                if vm != tuple(map(min, x.valuation, y.valuation)):
                    bad.append((name, "meet", x.key, y.key))
                if any(j < max(a, b) for j, a, b in zip(vj, x.valuation, y.valuation)):
                    bad.append((name, "join", x.key, y.key))
                pairs += 1
    S = corpus["subspace(2,2)"]
    gained = any(
        S.join(x, y).valuation != tuple(map(max, x.valuation, y.valuation))
        for x in S.elements()
        for y in S.elements()
    )
    if not gained:
        bad.append("no strict join gain in subspace(2,2)")
    for L in (build_multiset((3, 2)), build_subspace(2, 3)):
        for level in range(L.top_rank + 1):
            elems = L.elements_of_rank(level)
            for x in elems:
                for y in elems:
                    lex = rank_lex_compare(L, x, y)
                    mn = min_rule_compare(L, x, y)
                    if (lex < 0) != (mn < 0) or (lex == 0) != (mn == 0):
                        bad.append(("comparators", x.key, y.key))
    verdict(
        2,
        f"valuations meet by minimum and join above maximum on {pairs} pairs;"
        " level comparators agree",
        not bad,
        t0,
    )
    assert not bad, bad[:5]


def test_criterion_3_uniform_matroids():
    t0 = time.perf_counter()
    bad = []
    triples = 0
    for L in (build_multiset((2, 2, 1)), build_subspace(2, 3)):
        for k in range(L.top_rank + 1):
            M = uniform_matroid(L, k)
            rep = verify_independence_axioms(M)
            if not (rep.ok and rep.complete):
                bad.append((L.kind, k, "independence axioms"))
            B = bases(M)
            if not check_equal_rank(B) or any(b.rank != k for b in B):
                bad.append((L.kind, k, "basis ranks"))
            brep = verify_basis_axioms(L, B)
            if not (brep.ok and brep.complete):
                bad.append((L.kind, k, "basis axioms"))
            if not matroid_shelling(M).ok:
                bad.append((L.kind, k, "shelling"))
            for x in B:
                for y in B:
                    if x == y:
                        continue
                    for a in L.atoms:
                        ai = L.atom_index(a)
                        if y.valuation[ai] <= x.valuation[ai]:
                            continue
                        w = dual_exchange_witness(L, B, x, y, a)
                        if w is None or not exchange_conclusion_ok(L, B, x, y, a, *w):
                            bad.append((L.kind, k, "exchange", x.key, y.key, a.key))
                        triples += 1
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        "uniform matroids on two hosts pass axioms, bases, shelling and"
        f" {triples} dual exchange checks",
        not bad and elapsed < 60.0,
        t0,
    )
    assert not bad, bad[:5]
    assert elapsed < 60.0


def test_criterion_4_weighted_graph_sweep():
    t0 = time.perf_counter()
    bad = []
    classes = graph_classes()
    options = len(SLOTS) * 2  # each slot with weight 1 or 2
    total = sum(math.comb(options + size - 1, size) for size in range(1, 6))
    for combo in classes:
        try:
            check_graph(combo, shelling=False)
        except AssertionError:
            bad.append(combo)
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        f"{len(classes)} weighted graph classes (from {total} edge multisets, up to"
        " 5 edges, weights 1..2, 4 vertices) all match the forest oracle",
        not bad and len(classes) == 2924 and elapsed < 300.0,
        t0,
    )
    assert not bad, bad[:3]
    assert len(classes) == 2924
    assert elapsed < 300.0


def test_criterion_5_order_shellings(corpus):
    t0 = time.perf_counter()
    bad = []
    spheres = 0
    for name, L in corpus.items():
        for x in L.elements():
            if x.rank < 2:
                continue
            if not sphere_order_shelling_check(L, x).ok:
                bad.append((name, "sphere", x.key))
            spheres += 1

    # every shellable independence complex produced by criteria 3 and 4
    # must have a shellable order complex.  The certifier checks the
    # facet-order hypothesis itself, then decides the recursive coatom
    # ordering of the chains on the cover graph, so hypothesis failures and
    # chain order failures are reported apart.  The prescribed chain order
    # (tops in facet order, reverse lexicographic below) is not a shelling
    # in general; how often it fails is reported, not asserted.
    checked = 0
    chain_skips = 0
    not_shelled = []
    prescribed_fails = 0
    betti_done = 0
    betti_skips = 0

    def check_complex(tag, C, rational):
        nonlocal checked, chain_skips, prescribed_fails, betti_done, betti_skips
        try:
            rep = complex_order_shelling(C)
            prescribed = complex_order_shelling_check(C)
        except BudgetError:
            chain_skips += 1
            return
        checked += 1
        if (rep.witness or {}).get("reason") == "facet order is not a shelling":
            bad.append((tag, "hypothesis"))
        else:
            if not rep.ok:
                not_shelled.append(tag)
            if not prescribed.ok:
                prescribed_fails += 1
        # the order complex keeps the bottom, so it is a cone: every reduced
        # Betti number must vanish.  The big sweep complexes are certified
        # mod 2, which bounds the rational numbers from above; the small
        # ones get the rational wedge report directly.
        try:
            if rational:
                wrep = check_wedge(order_complex(C))
                ok = wrep.ok and wrep.spheres == 0
            else:
                ok = not any(reduced_betti_mod2(order_complex(C)))
        except BudgetError:
            betti_skips += 1
            return
        betti_done += 1
        if not ok:
            bad.append((tag, "cone betti"))

    for L in (build_multiset((2, 2, 1)), build_subspace(2, 3)):
        for k in range(1, L.top_rank + 1):
            check_complex(
                (L.kind, k), independence_complex(uniform_matroid(L, k)), True
            )
    for combo in graph_classes():
        check_complex(
            ("graph", combo),
            independence_complex(graphic_matroid(graph_of(combo))),
            len(combo) <= 3,
        )
    if not_shelled:
        bad.append(
            (
                "recursive coatom order is not a shelling order",
                f"{len(not_shelled)} of {checked} complexes within budget",
                "first failures",
                not_shelled[:3],
            )
        )
    verdict(
        5,
        f"{spheres} sphere intervals shell; the recursive coatom order shells"
        f" {checked - len(not_shelled)} of {checked} shellable independence"
        f" complexes within the chain budget, the prescribed chain order fails"
        f" {prescribed_fails} ({chain_skips} over budget; cone homology"
        f" vanishes on {betti_done}, {betti_skips} over the face budget)",
        not bad,
        t0,
    )
    assert not bad, bad[:5]


def test_criterion_6_homology(corpus):
    t0 = time.perf_counter()
    bad = []
    named = [
        ([(0, 1), (1, 2), (0, 2)], (0, 1)),
        ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], (0, 0, 1)),
        ([(0, 1), (2, 3)], (1, 0)),
        ([(0, 1, 2)], (0, 0, 0)),
    ]
    for facets, expect in named:
        if reduced_betti(simplicial(facets)) != expect:
            bad.append(("betti", facets))
    rp2 = simplicial(RP2_FACETS)
    if reduced_betti(rp2) != (0, 0, 0):
        bad.append("projective plane over the rationals")
    if reduced_betti_mod2(rp2) != (0, 1, 1):
        bad.append("projective plane mod 2")
    wedges = 0
    for name, L in corpus.items():
        for x in L.elements():
            if x.rank < 2:
                continue
            sc = order_complex(sphere(L, x), include_bottom=False)
            rep = check_wedge(sc, budget=2_000_000)
            if not rep.ok:
                bad.append((name, "wedge", x.key))
            elif L.kind == "boolean" and (rep.spheres != 1 or rep.top_dim != x.rank - 2):
                bad.append((name, "boolean interval", x.key))
            elif L.kind == "multiset" and sum(1 for v in x.valuation if v) == 1:
                # pure power: the open interval is a chain, hence contractible
                if rep.spheres != 0 or any(rep.betti):
                    bad.append((name, "pure power interval", x.key))
            wedges += 1
    verdict(
        6,
        "named betti numbers exact (torsion included) and"
        f" {wedges} interval complexes decompose as wedges",
        not bad,
        t0,
    )
    assert not bad, bad[:5]


def test_criterion_7_section_rings():
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(73)
    unequal = 0
    for _ in range(100):
        delta = random_multicomplex(rng)
        sec = section_ring_check(delta)
        ceiling_faces = any(
            delta.contains(tuple(n if k == i else 0 for k, n in enumerate(delta.box)))
            for i, n in enumerate(delta.box)
        )
        if sec.equal != (not ceiling_faces):
            bad.append(("ceiling criterion", delta.box, delta.facets))
        for m in box_monomials(delta.box):
            inside = not delta.contains(m)
            if sec.nonface_ideal.contains(m) != inside or sec.facet_intersection.contains(m) != inside:
                bad.append(("box membership", delta.box, m))
                break
        if sec.witness is not None:
            unequal += 1
            if not any(w > n for w, n in zip(sec.witness, delta.box)):
                bad.append(("witness inside box", delta.box, sec.witness))
    sec = section_ring_check(Multicomplex((3, 3), [(2, 2), (1, 3)]))
    if sec.equal or sec.witness != (0, 4):
        bad.append("frozen witness x_2^4")
    sec = section_ring_check(Multicomplex((1, 1, 1), [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    if sec.equal or sec.witness != (2, 0, 0):
        bad.append("frozen witness x_1^2")
    verdict(
        7,
        "section ring comparison matches the ceiling power criterion on 100"
        f" random multicomplexes ({unequal} unequal) and both frozen witnesses",
        not bad,
        t0,
    )
    assert not bad, bad[:5]


def test_criterion_8_polarization():
    t0 = time.perf_counter()
    bad = []
    box = (3, 3, 2)
    monomials = 0
    for m in box_monomials(box):
        if depolarize(polarize_monomial(m, box), len(box)) != m:
            bad.append(("round trip", m))
        monomials += 1
    rng = random.Random(79)
    built = 0
    for _ in range(30):
        # construction computes the complex by two routes and compares them
        polarized_complex(random_multicomplex(rng))
        built += 1
    sc = polarized_complex(Multicomplex((3, 3), [(2, 2), (1, 3)]))
    named = {frozenset(sc.vertex_labels[v] for v in f) for f in sc.facets}
    if len(named) != 5:
        bad.append(("facet count", len(named)))
    if frozenset({"x_{1,1}", "x_{1,2}", "x_{2,1}", "x_{2,2}"}) not in named:
        bad.append("square facet missing")
    if frozenset({"x_{1,1}", "x_{1,3}", "x_{2,1}", "x_{2,2}", "x_{2,3}"}) not in named:
        bad.append("five vertex facet missing")
    verdict(
        8,
        f"polarization reversible on {monomials} monomials; polarized complex"
        f" double construction agrees on {built} random inputs",
        not bad,
        t0,
    )
    assert not bad, bad[:5]


HAND_MULTICOMPLEXES = (
    ((2, 2), ((2, 0), (1, 1))),
    ((2, 2), ((1, 1), (0, 2))),
    ((2, 2), ((2, 0), (1, 1), (0, 2))),
    ((2, 2), ((2, 1), (1, 2))),
    ((3, 3), ((2, 2), (1, 3))),
    ((3, 3), ((3, 1), (2, 2))),
    ((3, 3), ((2, 2),)),
    ((3, 3), ((3, 2), (2, 3))),
    ((2, 2, 2), ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
    ((2, 2, 2), ((2, 1, 0), (1, 1, 1))),
    ((2, 2, 2), ((1, 1, 1),)),
    ((2, 2, 2), ((2, 2, 0), (2, 1, 1), (1, 2, 1))),
    ((2, 1), ((2, 0), (1, 1))),
    ((3, 2), ((2, 1), (1, 2), (3, 0))),
    ((3, 2), ((3, 1), (2, 2))),
    ((1, 1, 1), ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
    ((1, 1, 1, 1), ((1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1))),
    ((2, 2, 1), ((2, 1, 0), (1, 2, 0), (1, 1, 1))),
    ((2, 2, 1), ((2, 2, 0), (2, 1, 1))),
    ((4, 4), ((3, 3), (2, 4))),
)


def test_criterion_9_polarized_shellings():
    t0 = time.perf_counter()
    bad = []
    deltas = [Multicomplex(box, facets) for box, facets in HAND_MULTICOMPLEXES]
    L = build_multiset((2, 2, 1))
    for k in range(1, 5):
        deltas.append(multicomplex_from_pcomplex(independence_complex(uniform_matroid(L, k))))
    graphic = 0
    for combo in graph_classes():
        if len(combo) > 3:
            continue
        M = graphic_matroid(graph_of(combo))
        B = bases(M)
        top = M.host.top
        if any(b.key == top.key for b in B):
            continue
        deltas.append(multicomplex_from_pcomplex(independence_complex(M)))
        graphic += 1
    for delta in deltas:
        rep = polarized_shelling(delta)
        if not (rep.ok and verify_nonpure_shelling(rep.order).ok):
            bad.append((delta.box, delta.facets))
    elapsed = time.perf_counter() - t0
    verdict(
        9,
        f"all {len(deltas)} polarized multicomplexes shell"
        f" ({len(HAND_MULTICOMPLEXES)} hand built, 4 uniform, {graphic} graphic)",
        not bad and graphic == 125 and elapsed < 120.0,
        t0,
    )
    assert not bad, bad[:5]
    assert graphic == 125
    assert elapsed < 120.0


def test_criterion_10_search_agreement():
    t0 = time.perf_counter()
    bad = []
    L4 = build_boolean(4)
    L5 = build_boolean(5)
    LM = build_multiset((2, 2, 2))
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
    found_n = 0
    none_n = 0
    for C in cases:
        found = find_shelling(C)
        brute = any(
            verify_shelling(C, list(p)).ok for p in itertools.permutations(C.facets)
        )
        if found is None:
            none_n += 1
            if brute:
                bad.append(("missed shelling", [f.key for f in C.facets]))
        else:
            found_n += 1
            if not brute or not verify_shelling(C, found).ok:
                bad.append(("bogus shelling", [f.key for f in C.facets]))
    verdict(
        10,
        f"shelling search agrees with exhaustive permutation search on"
        f" {len(cases)} complexes ({found_n} shellable, {none_n} not)",
        not bad and found_n > 0 and none_n > 0,
        t0,
    )
    assert not bad, bad[:5]
    assert found_n > 0 and none_n > 0
