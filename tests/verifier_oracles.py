"""Reference implementations for the indexed lattice verifier.

`oracle_verify` is the earlier `verify_power_lattice`: every check queries
the lattice through per-call `leq`, `join` and `meet`, the lattice laws by
an O(n^3) sweep.  `oracle_hasse` is the earlier `HasseLattice`
construction: reach sets by DFS, meet and join tables from the maximal
common lower and minimal common upper bounds of every pair, covers by a
pairwise filter, longest-chain ranks and valuations by a support scan.
The differential tests in test_order_index.py compare the library with
both.
"""

import itertools

from powerlat import CheckResult, LatticeInputError, NotALatticeError, VerificationReport
from powerlat.lattice import _Meter, _OutOfBudget


def _check_lattice_laws(L, elems, meter):
    for x in elems:
        meter.spend(2)
        if L.join(x, x) != x or L.meet(x, x) != x:
            return False, {"law": "idempotence", "x": L.label(x)}, ""
    for x, y in itertools.combinations(elems, 2):
        meter.spend(8)
        j = L.join(x, y)
        m = L.meet(x, y)
        if L.join(y, x) != j or L.meet(y, x) != m:
            return False, {"law": "commutativity", "x": L.label(x), "y": L.label(y)}, ""
        if L.meet(x, j) != x or L.join(x, m) != x or L.meet(y, j) != y or L.join(y, m) != y:
            return False, {"law": "absorption", "x": L.label(x), "y": L.label(y)}, ""
        for a, b in ((x, y), (y, x)):
            le = L.leq(a, b)
            if le != (m == a) or le != (j == b):
                return (
                    False,
                    {"law": "order consistency", "x": L.label(a), "y": L.label(b)},
                    "leq disagrees with join/meet",
                )
    for x, y, z in itertools.product(elems, repeat=3):
        meter.spend(4)
        if L.join(L.join(x, y), z) != L.join(x, L.join(y, z)):
            return (
                False,
                {"law": "join associativity", "x": L.label(x), "y": L.label(y), "z": L.label(z)},
                "",
            )
        if L.meet(L.meet(x, y), z) != L.meet(x, L.meet(y, z)):
            return (
                False,
                {"law": "meet associativity", "x": L.label(x), "y": L.label(y), "z": L.label(z)},
                "",
            )
    return True, None, ""


def _check_rank_covers(L, elems, meter):
    bot = min(elems, key=lambda e: e.rank)
    if bot.rank != 0:
        return False, {"x": L.label(bot), "rank": bot.rank}, "no rank 0 element"
    ups = {}
    for x in elems:
        ux = []
        for y in elems:
            if y is x:
                continue
            meter.spend(1)
            if L.leq(x, y):
                if y.rank <= x.rank:
                    return (
                        False,
                        {"x": L.label(x), "y": L.label(y), "ranks": [x.rank, y.rank]},
                        "rank is not strictly monotone",
                    )
                ux.append(y)
        ups[id(x)] = ux
    for x in elems:
        ux = ups[id(x)]
        for y in ux:
            meter.spend(len(ux))
            if any(z != y and L.leq(z, y) for z in ux):
                continue  # not a cover of x
            if y.rank != x.rank + 1:
                return (
                    False,
                    {"x": L.label(x), "y": L.label(y), "ranks": [x.rank, y.rank]},
                    "cover does not raise rank by one",
                )
    return True, None, ""


def _check_semimodularity(L, elems, meter):
    for x, y in itertools.combinations(elems, 2):
        meter.spend(2)
        if L.join(x, y).rank + L.meet(x, y).rank > x.rank + y.rank:
            return False, {"x": L.label(x), "y": L.label(y)}, ""
    return True, None, ""


def _atom_supports(L, elems, meter):
    atoms = L.atoms
    supports = {}
    for z in elems:
        meter.spend(len(atoms))
        supports[id(z)] = [i for i, a in enumerate(atoms) if L.leq(a, z)]
    return supports


def _check_unique_atom_powers(L, elems, meter):
    supports = _atom_supports(L, elems, meter)
    seen: dict = {}
    for z in elems:
        if z.rank < 1:
            continue
        sup = supports[id(z)]
        if len(sup) != 1:
            continue
        key = (sup[0], z.rank)
        other = seen.get(key)
        if other is not None:
            return (
                False,
                {
                    "atom": L.label(L.atoms[sup[0]]),
                    "rank": z.rank,
                    "x": L.label(other),
                    "y": L.label(z),
                },
                "two distinct powers of one atom at the same rank",
            )
        seen[key] = z
    return True, None, ""


def _scan_valuations(L, elems, meter):
    # powers found by support scan, then v_w(x) = max rank of a power of w
    # below x
    atoms = L.atoms
    supports = _atom_supports(L, elems, meter)
    powers = [[] for _ in atoms]
    for z in elems:
        sup = supports[id(z)]
        if z.rank >= 1 and len(sup) == 1:
            powers[sup[0]].append(z)
    table = {}
    for x in elems:
        vec = []
        for i in range(len(atoms)):
            best = 0
            for z in powers[i]:
                meter.spend(1)
                if L.leq(z, x) and z.rank > best:
                    best = z.rank
            vec.append(best)
        table[id(x)] = tuple(vec)
    return table


def _check_rank_by_total_valuation(L, elems, meter):
    vals = _scan_valuations(L, elems, meter)
    by_rank: dict = {}
    by_total: dict = {}
    for x in elems:
        total = sum(vals[id(x)])
        firsts = by_rank.setdefault(x.rank, {})
        if total not in firsts:
            firsts[total] = x
            if len(firsts) > 1:
                (t1, e1), (t2, e2) = list(firsts.items())[:2]
                return (
                    False,
                    {"x": L.label(e1), "y": L.label(e2), "rank": x.rank, "totals": [t1, t2]},
                    "equal rank but different valuation totals",
                )
        firsts = by_total.setdefault(total, {})
        if x.rank not in firsts:
            firsts[x.rank] = x
            if len(firsts) > 1:
                (r1, e1), (r2, e2) = list(firsts.items())[:2]
                return (
                    False,
                    {"x": L.label(e1), "y": L.label(e2), "total": total, "ranks": [r1, r2]},
                    "equal valuation totals but different ranks",
                )
    return True, None, ""


def _check_valuation_consistency(L, elems, meter):
    vals = _scan_valuations(L, elems, meter)
    for x in elems:
        if vals[id(x)] != x.valuation:
            return (
                False,
                {"x": L.label(x), "cached": list(x.valuation), "scanned": list(vals[id(x)])},
                "cached valuation disagrees with the definition",
            )
    return True, None, ""


_CHECKS = (
    ("lattice_laws", _check_lattice_laws),
    ("rank_covers", _check_rank_covers),
    ("semimodularity", _check_semimodularity),
    ("unique_atom_powers", _check_unique_atom_powers),
    ("rank_by_total_valuation", _check_rank_by_total_valuation),
    ("valuation_consistency", _check_valuation_consistency),
)


def oracle_verify(L, budget: int = 10**9) -> VerificationReport:
    """The six checks in order, each by per-call queries."""
    elems = L.elements()
    meter = _Meter(budget)
    results = []
    names = [name for name, _ in _CHECKS]
    for pos, (name, fn) in enumerate(_CHECKS):
        try:
            passed, witness, detail = fn(L, elems, meter)
            results.append(CheckResult(name, passed, True, witness, detail))
        except _OutOfBudget:
            results.append(CheckResult(name, True, False, None, "budget exhausted"))
            for rest in names[pos + 1 :]:
                results.append(CheckResult(rest, True, False, None, "not run"))
            break
    ok = all(r.passed for r in results)
    complete = all(r.complete for r in results)
    return VerificationReport(ok=ok, complete=complete, ops=meter.spent, checks=results)


def oracle_hasse(names, relations) -> dict:
    """Ranks, valuations, covers, meets and joins by element name, as the
    earlier HasseLattice computed them.  Raises NotALatticeError with the
    first pair (i <= j in name order, meet before join) that has no unique
    meet or join."""
    names = tuple(names)
    idx = {s: i for i, s in enumerate(names)}
    n = len(names)
    succ = [set() for _ in range(n)]
    for a, b in relations:
        if a != b:
            succ[idx[a]].add(idx[b])
    reach = []
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)
    for i in range(n):
        for j in reach[i]:
            if j != i and i in reach[j]:
                raise LatticeInputError("relations contain a cycle")
    meet_tbl = [[0] * n for _ in range(n)]
    join_tbl = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if i in reach[k] and j in reach[k]]
            maxima = [k for k in lower if not any(m != k and m in reach[k] for m in lower)]
            if len(maxima) != 1:
                raise NotALatticeError("no unique meet", pair=(names[i], names[j]))
            meet_tbl[i][j] = meet_tbl[j][i] = maxima[0]
            upper = [k for k in range(n) if k in reach[i] and k in reach[j]]
            minima = [k for k in upper if not any(m != k and k in reach[m] for m in upper)]
            if len(minima) != 1:
                raise NotALatticeError("no unique join", pair=(names[i], names[j]))
            join_tbl[i][j] = join_tbl[j][i] = minima[0]
    strict = [[j for j in reach[i] if j != i] for i in range(n)]
    cover_up = [
        sorted(j for j in strict[i] if not any(k != j and j in reach[k] for k in strict[i]))
        for i in range(n)
    ]
    cover_down = [[] for _ in range(n)]
    for i in range(n):
        for j in cover_up[i]:
            cover_down[j].append(i)
    ranks = [0] * n
    for i in sorted(range(n), key=lambda i: -len(reach[i])):
        ranks[i] = 1 + max((ranks[j] for j in cover_down[i]), default=-1)
    atom_idxs = [i for i in range(n) if ranks[i] == 1]
    supports = [[a for a in atom_idxs if i in reach[a]] for i in range(n)]
    powers = {a: [] for a in atom_idxs}
    for i in range(n):
        if ranks[i] >= 1 and len(supports[i]) == 1:
            powers[supports[i][0]].append(i)
    vals = []
    for i in range(n):
        vec = []
        for a in atom_idxs:
            best = 0
            for p in powers[a]:
                if i in reach[p] and ranks[p] > best:
                    best = ranks[p]
            vec.append(best)
        vals.append(tuple(vec))
    return {
        names[i]: {
            "rank": ranks[i],
            "valuation": vals[i],
            "covers": [names[j] for j in cover_up[i]],
            "lower_covers": [names[j] for j in cover_down[i]],
            "meets": [names[meet_tbl[i][j]] for j in range(n)],
            "joins": [names[join_tbl[i][j]] for j in range(n)],
        }
        for i in range(n)
    }
