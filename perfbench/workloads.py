"""The four benchmark workloads.

Each workload turns a seed into a list of items before the clock starts,
answers one item per call through the public powerlat API (`run`), and
judges each answer afterwards against the oracles (`check`).  `run`
returns a small summary of what the library said; `check` returns None
for a correct answer or a short reason.  Expected "no" verdicts (a chain
order that fails, a multicomplex that is not shellable, a near miss that
is rejected, an exit code of 1 or 2) are correct answers.

The item lists are built so that their cost mix does not depend on the
seed: the seed picks labels, orders, presentations and contents inside
fixed cost classes.  With freely sampled items the run-to-run spread of
the medians was about 10% at 150 items, wider than any useful bound.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import string

import oracles
import powerlat as P
import powerlat.cli  # noqa: F401  (the package does not import its CLI)

# ---------------------------------------------------------------------------
# lattice_axioms


def _names(rng, count):
    pool = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)]
    return rng.sample(pool, count)


def _hasse_from_box(rng, box):
    """Explicit Hasse data of the multiset lattice on a box, renamed."""
    elems = list(itertools.product(*(range(n + 1) for n in box)))
    name = dict(zip(elems, _names(rng, len(elems))))
    covers = [
        [name[x], name[x[:i] + (x[i] + 1,) + x[i + 1 :]]]
        for x in elems
        for i in range(len(box))
        if x[i] < box[i]
    ]
    rng.shuffle(covers)
    order = list(name.values())
    rng.shuffle(order)
    return {"type": "hasse", "elements": order, "covers": covers}


def _hasse(rng, shape):
    """Rename a fixed Hasse diagram given on letters."""
    elements, covers = shape
    name = dict(zip(elements, _names(rng, len(elements))))
    rel = [[name[a], name[b]] for a, b in covers]
    rng.shuffle(rel)
    order = list(name.values())
    rng.shuffle(order)
    return {"type": "hasse", "elements": order, "covers": rel}


def _diamond(k):
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]


# Near misses with the verifier check each must fail.  N5 breaks the
# grading; the hexagon has two atoms whose join sits at rank 3; in the
# subgroup lattice of the quaternion group one atom has three rank-2
# powers; in the valuation figure two rank-2 elements have valuation
# totals 3 and 2.  The two-top poset is not a lattice at all.
_N5 = (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
_HEXAGON = (
    ["0", "a", "b", "c", "d", "e", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("c", "d"), ("b", "e"), ("c", "e"), ("d", "1"), ("e", "1")],
)
_Q8 = (
    ["1", "Z", "I", "J", "K", "Q"],
    [("1", "Z"), ("Z", "I"), ("Z", "J"), ("Z", "K"), ("I", "Q"), ("J", "Q"), ("K", "Q")],
)
_FIGURE = (
    ["0", "p", "q", "r", "x", "y", "1"],
    [("0", "p"), ("0", "q"), ("0", "r"), ("p", "x"), ("q", "x"), ("r", "x"), ("r", "y"), ("x", "1"), ("y", "1")],
)
_TWO_TOPS = (["0", "a", "b", "c", "d"], [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])

# divisors with the same exponent pattern have isomorphic lattices
_DIVISORS = {(2, 1): (12, 18, 20, 28, 45, 50), (2, 1, 1): (60, 84, 90, 126, 140, 150), (3, 2, 1): (360, 504, 540, 600, 756)}


def lattice_items(seed: int) -> list:
    rng = random.Random(seed)

    def perm(t):
        t = list(t)
        rng.shuffle(t)
        return t

    def boolean(n):
        return {"type": "boolean", "n": n, "labels": _names(rng, n)}

    def multiset(exps):
        return {"type": "multiset", "exponents": perm(exps)}

    def divisor(pattern):
        return {"type": "divisor", "n": rng.choice(_DIVISORS[pattern])}

    def fam(spec):
        return {"spec": spec, "expect": None}

    def near(shape, check):
        return {"spec": _hasse(rng, shape), "expect": check}

    items = [
        # the median falls in the middle of the boolean(3) copies
        *(fam(boolean(3)) for _ in range(5)),
        *(fam(boolean(4)) for _ in range(2)),
        fam(boolean(5)),
        fam(multiset((2, 1))),
        fam(multiset((2, 2))),
        fam(multiset((3, 2))),
        fam(multiset((3, 3))),
        fam(multiset((2, 2, 1))),
        # two copies each of the two members that set the 90th
        # percentile, so that it rests on more samples than one per pass
        fam(multiset((2, 2, 2))),
        fam(multiset((2, 2, 2))),
        fam(divisor((2, 1))),
        fam(divisor((2, 1, 1))),
        fam(divisor((3, 2, 1))),
        fam({"type": "subspace", "q": 2, "n": 2}),
        fam({"type": "subspace", "q": 3, "n": 2}),
        fam({"type": "subspace", "q": 5, "n": 2}),
        fam({"type": "subspace", "q": 2, "n": 3}),
        fam({"type": "subspace", "q": 2, "n": 3}),
        fam({"type": "product", "factors": perm([boolean(1), multiset((2,))])}),
        fam({"type": "product", "factors": perm([boolean(1), multiset((2, 1))])}),
        fam({"type": "product", "factors": perm([boolean(2), multiset((2, 1))])}),
        fam(_hasse_from_box(rng, (1, 1))),
        fam(_hasse_from_box(rng, (1, 1, 1))),
        fam(_hasse_from_box(rng, (2, 1))),
        fam(_hasse_from_box(rng, (2, 2))),
        fam(_hasse_from_box(rng, (3,))),
        # diamonds M3 and M4 are the subspace lattices of GF(2)^2 and GF(3)^2
        fam(_hasse(rng, _diamond(3))),
        fam(_hasse(rng, _diamond(4))),
        # every near miss twice, under different names, so that as many
        # items cost less than the boolean(3) copies as cost more
        *(
            near(shape, check)
            for shape, check in (
                (_N5, "rank_covers"),
                (_HEXAGON, "semimodularity"),
                (_Q8, "unique_atom_powers"),
                (_FIGURE, "rank_by_total_valuation"),
                (_TWO_TOPS, "construction"),
            )
            for _ in range(2)
        ),
    ]
    rng.shuffle(items)
    return items


def lattice_run(item):
    try:
        L = P.lattice_from_obj(item["spec"])
    except P.NotALatticeError:
        return {"rejected": True}
    rep = P.verify_power_lattice(L)
    return {
        "ok": rep.ok,
        "complete": rep.complete,
        "failed": [c.name for c in rep.checks if not c.passed],
        "ops": rep.ops,
    }


def lattice_check(item, ans):
    expect = item["expect"]
    if expect is None:
        if ans.get("rejected") or not (ans["ok"] and ans["complete"]) or ans["failed"]:
            return "family member not accepted in full"
        return None
    if expect == "construction":
        return None if ans.get("rejected") else "non-lattice input was built"
    if ans.get("rejected") or ans["ok"] or expect not in ans["failed"]:
        return f"near miss did not fail {expect}"
    return None


# ---------------------------------------------------------------------------
# chain_shelling

CHAIN_BUDGET = 10_000  # the library's default chain budget
FACE_BUDGET = 20_000  # the library's default face budget for homology
SMALL_CHAINS = 60  # items this small also get the rational Betti numbers and the oracle verdict
CHAIN_CLASSES = 100
# Extra classes around two percentiles of the chain-count order, as
# (percentile, count).  Without them the median and the 90th percentile
# each fell beside a 25% gap between neighbouring item costs, and a small
# change in machine speed moved them across it.  The seed moves the cost
# of each class near the median by its atom order; 24 classes there
# rather than 12 cut the spread of the median between seeds from about
# 11% to about 7%.
CHAIN_DENSE = ((50, 24), (86, 8))


def _by_chain_count(max_edges: int, keep=lambda combo: True) -> list:
    return [
        c
        for _, c in sorted(
            (oracles.chain_count(oracles.graphic_bases(oracles.graph_edges(c))), c)
            for c in oracles.graph_classes(max_edges)
            if keep(c)
        )
    ]


def _spread(ordered: list, count: int) -> list:
    """`count` members from the middles of equal slices of the list."""
    return [ordered[(2 * k + 1) * len(ordered) // (2 * count)] for k in range(count)]


def _spread_classes(max_edges: int, count: int, keep=lambda combo: True) -> list:
    """`count` fixed graph classes evenly spread over their chain counts."""
    return _spread(_by_chain_count(max_edges, keep), count)


def _chain_classes() -> list:
    ordered = _by_chain_count(5)
    n = len(ordered)
    sample = _spread(ordered, CHAIN_CLASSES)
    for pct, extra in CHAIN_DENSE:
        at = pct * n // 100
        sample += [c for c in ordered[at - extra : at + extra : 2] if c not in sample]
    return sample


def chain_items(seed: int) -> list:
    """Graph classes in a seeded presentation (vertex names and edge order;
    the edge order is the atom order, which moves the chain-order verdict)
    plus uniform matroids on permuted multiset hosts."""
    rng = random.Random(seed)
    items = []
    for combo in _chain_classes():
        names = list(oracles.VERTICES)
        rng.shuffle(names)
        edges = [(names[u], names[v], wt) for u, v, wt in oracles.graph_edges(combo)]
        rng.shuffle(edges)
        items.append({"graph": edges})
    for box in ((2, 2, 1), (2, 1, 1), (3, 2), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1), (2, 2), (3, 1, 1)):
        box = tuple(rng.sample(box, len(box)))
        items.append({"uniform": box, "k": rng.randint(1, sum(box) - 1)})
    rng.shuffle(items)
    return items


def _chain_facets(item):
    if "graph" in item:
        index = {v: i for i, v in enumerate(sorted({x for u, v, _ in item["graph"] for x in (u, v)}))}
        return oracles.graphic_bases([(index[u], index[v], wt) for u, v, wt in item["graph"]])
    return oracles.uniform_bases(item["uniform"], item["k"])


def chain_run(item):
    if "graph" in item:
        edges = [P.Edge(f"e{k}", u, v, wt) for k, (u, v, wt) in enumerate(item["graph"])]
        M = P.graphic_matroid(P.weighted_graph(oracles.VERTICES, edges))
    else:
        M = P.uniform_matroid(P.build_multiset(item["uniform"]), item["k"])
    C = P.independence_complex(M)
    ans = {"facets": sorted(f.key for f in C.facets)}
    try:
        rep = P.complex_order_shelling_check(C)
    except P.BudgetError:
        ans["order"] = "over budget"
        return ans
    ans["order"] = rep.ok
    ans["hypothesis"] = (rep.witness or {}).get("reason") != "facet order is not a shelling"
    ans["chains"] = rep.chains
    try:
        sc = P.order_complex(C)
        ans["oc_facets"] = len(sc.facets)
        small = rep.chains <= SMALL_CHAINS
        ans["betti"] = list(P.reduced_betti(sc) if small else P.reduced_betti_mod2(sc))
    except P.BudgetError:
        ans["betti"] = "over budget"
    return ans


def chain_check(item, ans):
    facets = _chain_facets(item)
    if sorted(facets) != ans["facets"]:
        return "independence complex has the wrong facets"
    chains = oracles.chain_count(facets)
    if ans["order"] == "over budget":
        return None if chains > CHAIN_BUDGET else "in-budget complex reported over budget"
    if chains > CHAIN_BUDGET:
        return "over-budget complex was checked"
    if not ans["hypothesis"]:
        # bases in rank-level order shell every matroid complex
        return "facet-order hypothesis rejected"
    if ans["chains"] != chains or ans.get("oc_facets", chains) != chains:
        return "wrong maximal chain count"
    if ans["betti"] == "over budget":
        return None if oracles.order_complex_faces(facets) > FACE_BUDGET else "in-budget homology refused"
    if any(ans["betti"]):
        return "the order complex is a cone but has reduced homology"
    if chains <= SMALL_CHAINS and ans["order"] != oracles.prescribed_order_shells(facets):
        return "chain-order verdict disagrees with the definition"
    return None


# ---------------------------------------------------------------------------
# sr_polarize

# Multicomplexes by polar variable count, 8 to 18: a box, an exponent
# pattern, and how many copies of a shellable and of a non-shellable facet
# set a pass holds.  The facets are permutations of the pattern, drawn
# once with a fixed seed (a freshly drawn set moved a level's cost by up
# to 20%); each copy gets its own coordinate permutation from the run's
# seed, which moves the rank-level orders, the lifted order and the
# searches, and the cost by up to 20%.  The counts put the median in the
# middle of the copies of the non-shellable 12-variable set and the 90th
# percentile in the middle of those of the non-shellable 16-variable set,
# so that neither lands on the edge between two costs.  The 18-variable
# sets, which cost four to seven times as much, appear once a pass, so
# that a pass takes about 5 s and the 90th percentile of a run rests on
# several passes.
_SR_PLAN = (
    ((2, 2, 2, 2), (2, 1, 1, 0), 2, 2),
    ((2,) * 5, (2, 2, 1, 0, 0), 2, 2),
    ((3, 3, 3, 3), (3, 2, 1, 0), 2, 57),
    ((2,) * 7, (2, 2, 1, 1, 1, 0, 0), 1, 1),
    ((3,) * 5, (3, 2, 1, 1, 0), 1, 1),
    ((4, 4, 4, 4), (4, 3, 1, 0), 1, 8),
    ((3,) * 6, (3, 2, 2, 1, 1, 0), 1, 1),
)
NONPURE_SEARCH_CAP = 14  # the library's facet cap for the non-pure shelling search


def _random_pure(rng, box):
    """Two to four distinct monomials of one degree inside the box."""
    while True:
        degree = rng.randint(2, sum(box) - 2)
        pool = [
            m for m in itertools.product(*(range(n + 1) for n in box)) if sum(m) == degree
        ]
        if len(pool) >= 2:
            return rng.sample(pool, min(len(pool), rng.randint(2, 4)))


def _pattern_facets(rng, pattern, shellable: bool):
    """Three distinct permutations of the pattern, shellable or not as
    asked.  Shellable candidates grow by swapping two coordinates that
    differ by one (a one-unit move); the oracle decides which are kept."""
    for _ in range(1000):
        facets = [tuple(rng.sample(pattern, len(pattern)))]
        while len(facets) < 3:
            f = list(rng.choice(facets) if shellable else rng.sample(pattern, len(pattern)))
            if shellable:
                i, j = rng.sample(range(len(f)), 2)
                if abs(f[i] - f[j]) != 1:
                    continue
                f[i], f[j] = f[j], f[i]
            if tuple(f) not in facets:
                facets.append(tuple(f))
        if oracles.has_multiset_shelling(facets) == shellable:
            rng.shuffle(facets)
            return facets
    raise RuntimeError(f"no {'shellable' if shellable else 'non-shellable'} facets from {pattern}")


def _not_forest(combo) -> bool:
    edges = oracles.graph_edges(combo)
    return tuple(w for _, _, w in edges) not in oracles.graphic_bases(edges)


def sr_items(seed: int) -> list:
    """Fixed kinds and sizes; the seed permutes coordinates, so each pass
    costs about the same."""
    rng = random.Random(seed)
    items = []
    # shellable: independence complexes of graphic matroids on at most
    # three edges (not forests, so the bases avoid the box top) and of
    # uniform matroids
    for combo in _spread_classes(3, 4, _not_forest):
        edges = oracles.graph_edges(combo)
        rng.shuffle(edges)
        box = tuple(wt for _, _, wt in edges)
        items.append({"box": box, "facets": oracles.graphic_bases(edges), "shellable": True})
    for box in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 3)):
        box = tuple(rng.sample(box, len(box)))
        items.append({"box": box, "facets": oracles.uniform_bases(box, sum(box) // 2), "shellable": True})
    draw = random.Random(0)
    for box, pattern, yes, no in _SR_PLAN:
        for shellable, copies in ((True, yes), (False, no)):
            facets = _pattern_facets(draw, pattern, shellable)
            for _ in range(copies):
                perm = rng.sample(range(len(box)), len(box))
                permuted = [tuple(f[p] for p in perm) for f in facets]
                items.append({"box": box, "facets": permuted, "shellable": shellable})
    rng.shuffle(items)
    return items


def sr_run(item):
    delta = P.Multicomplex(item["box"], item["facets"])
    sec = P.section_ring_check(delta)
    sc = P.polarized_complex(delta)
    universe = P.polar_universe(delta.box)
    ans = {
        "equal": sec.equal,
        "polar_facets": sorted(sorted(universe[k] for k in f) for f in sc.facets),
    }
    try:
        rep = P.polarized_shelling(delta)
    except P.LatticeInputError:
        ans["shelled"] = None  # the multicomplex has no shelling
        return ans
    except P.BudgetError:
        ans["shelled"] = "over budget"  # the lifted order failed, too many facets to search
        ans["lifted_ok"] = False
        return ans
    ans["shelled"] = rep.ok
    ans["lifted_ok"] = rep.constructed_ok
    ans["order"] = [sorted(f) for f in rep.order]
    return ans


def sr_check(item, ans):
    facets = oracles.maximal_monomials(item["facets"])
    if ans["equal"] != oracles.section_rings_equal(item["box"], facets):
        return "section ring verdict disagrees with the ceiling-power criterion"
    if (ans["shelled"] is None) == item["shellable"]:
        return "shellability verdict is wrong"
    if ans["shelled"] is None:
        return None
    if ans["shelled"] == "over budget":
        if len(ans["polar_facets"]) <= NONPURE_SEARCH_CAP:
            return "search refused a complex within its cap"
        return None
    if not ans["shelled"]:
        return "polarization of a shellable multicomplex did not shell"
    order = [frozenset(tuple(v) for v in f) for f in ans["order"]]
    if sorted(sorted(f) for f in order) != sorted(sorted(tuple(v) for v in f) for f in ans["polar_facets"]):
        return "shelling order is not a permutation of the polarized facets"
    if not P.verify_nonpure_shelling(order).ok:
        return "returned order fails the non-pure shelling condition"
    return None


# ---------------------------------------------------------------------------
# cli_requests


class CliRequests:
    """Request files are written under `root` at generation time; the run
    calls powerlat.cli.main in-process with stdout and stderr captured."""

    def __init__(self, root: str):
        self.root = root

    def items(self, seed: int) -> list:
        rng = random.Random(seed)
        os.makedirs(self.root, exist_ok=True)
        counter = itertools.count()
        out = []

        def put(obj, raw=None):
            path = os.path.join(self.root, f"r{next(counter)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(raw if raw is not None else json.dumps(obj))
            return path

        def add(argv, expect):
            out.append({"argv": argv, "expect": expect})

        for combo in _spread_classes(3, 8):
            names = list(oracles.VERTICES)
            rng.shuffle(names)
            edges = oracles.graph_edges(combo)
            rng.shuffle(edges)
            graph = {
                "vertices": list(oracles.VERTICES),
                "edges": [{"u": names[u], "v": names[v], "wt": w} for u, v, w in edges],
            }
            gpath = put(graph)
            mpath = put({"graph": graph})
            for action in ("verify", "bases", "shelling"):
                add(["matroid", action, mpath], 0)
            add(["graph", "matroid", gpath], 0)
            bases = oracles.graphic_bases(edges)
            host = {"type": "multiset", "exponents": [w for _, _, w in edges]}
            cpath = put({"lattice": host, "facets": [list(b) for b in bases]})
            add(["complex", "homology", cpath], 0)
            add(["complex", "order", cpath, "--chain-order", "shelling"], 0)
            box = tuple(w for _, _, w in edges)
            if box not in bases:
                dpath = put({"box": list(box), "facets": [list(b) for b in bases]})
                add(["sr", "shell-polarized", dpath], 0)
        for box in ((2, 2), (3, 2), (2, 2, 1), (2, 1, 1)) * 2:
            box = tuple(rng.sample(box, len(box)))
            facets = _random_pure(rng, box)
            host = {"type": "multiset", "exponents": list(box)}
            cpath = put({"lattice": host, "facets": [list(f) for f in facets]})
            maximal = oracles.maximal_monomials(facets)
            add(["complex", "shell", cpath], 0 if oracles.is_multiset_shelling(oracles.rank_lex_sorted(maximal)) else 1)
            add(["complex", "shell", cpath, "--search"], 0 if oracles.has_multiset_shelling(maximal) else 1)
            dpath = put({"box": list(box), "facets": [list(f) for f in facets]})
            add(["sr", "section-check", dpath], 0 if oracles.section_rings_equal(box, maximal) else 1)
            add(["sr", "polarize", dpath], 0)
            add(["sr", "ideal", dpath], 0)
            add(["export", dpath, "--format", "json"], 0)
        for spec, code in (
            ({"type": "boolean", "n": 3, "labels": _names(rng, 3)}, 0),
            ({"type": "multiset", "exponents": rng.sample([2, 1, 1], 3)}, 0),
            ({"type": "divisor", "n": rng.choice(_DIVISORS[(2, 1)])}, 0),
            ({"type": "subspace", "q": 2, "n": 2}, 0),
            ({"type": "subspace", "q": 3, "n": 2}, 0),
            (_hasse(rng, _diamond(3)), 0),
            (_hasse(rng, _N5), 1),
            (_hasse(rng, _HEXAGON), 1),
            (_hasse(rng, _Q8), 1),
        ):
            lpath = put(spec)
            add(["lattice", "info", lpath], 0)
            add(["lattice", "verify", lpath], code)
        # malformed input must exit 2
        add(["lattice", "verify", put(None, raw='{"type": "boolean", "n": ')], 2)
        add(["lattice", "info", put({"type": "torus", "n": 3})], 2)
        add(["lattice", "verify", put(_hasse(rng, _TWO_TOPS))], 2)
        add(["complex", "shell", put({"lattice": {"type": "boolean", "n": 2}, "facets": [["z"]]})], 2)
        add(["sr", "polarize", put({"box": [2, 2], "facets": [[2, 2]]})], 2)
        add(["matroid", "verify", put({"vertices": ["a"]})], 2)
        add(["lattice", "verify", os.path.join(self.root, "missing.json")], 2)
        add(["complex", "twist", put({"type": "boolean", "n": 2})], 2)
        rng.shuffle(out)
        return out

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def cli_run(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = P.cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return {"code": code, "stdout": out.getvalue()}


def cli_check(item, ans):
    if ans["code"] != item["expect"]:
        return f"exit code {ans['code']}, expected {item['expect']}"
    if ans["code"] in (0, 1):
        try:
            json.loads(ans["stdout"])
        except json.JSONDecodeError:
            return "stdout is not JSON"
    return None
