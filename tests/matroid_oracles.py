"""Reference implementations for the matroid checks.

Before one path served every host, `verify_independence_axioms` had two
implementations of I1-I3, chosen by the host's type.
`multiset_independence` is the one for multiset hosts: I2 by the
decrements of exponent vectors, I3 by the increments.
`generic_independence` is the one for every other host: I2 by a scan of
all elements below each independent, I3 by joining atom powers per pair.
`oracle_bases` is the earlier `bases` with its own multiset fork, which is
exact only on downward closed families, and `maximal_independents` its
generic branch: the independents below no other independent.  The
forks iterate sets, so their witnesses may depend on the hash seed; the
differential tests in test_matroid_paths.py compare verdicts with them,
and witnesses only for validity.
"""

from powerlat import MultisetLattice, VerificationReport
from powerlat.lattice import CheckResult, _finish_report, _Meter, _OutOfBudget
from powerlat.pcomplex import sort_by_rank_lex

NAMES = ("I1_bottom", "I2_downward_closed", "I3_exchange")


def _independence_multiset(L, ind, meter, results, names):
    keys = {x.key for x in ind}
    bounds = L.exponents
    nv = len(bounds)

    passed = (0,) * nv in keys
    results.append(
        CheckResult(names[0], passed, True, None if passed else {"missing": "1"})
    )

    witness = None
    for t in keys:
        meter.spend(nv)
        for i in range(nv):
            if t[i] and t[:i] + (t[i] - 1,) + t[i + 1 :] not in keys:
                witness = {
                    "x": L.label(L.element(t)),
                    "missing": L.label(L.element(t[:i] + (t[i] - 1,) + t[i + 1 :])),
                }
                break
        if witness:
            break
    results.append(CheckResult(names[1], witness is None, True, witness))

    by_rank: dict[int, list] = {}
    for t in keys:
        by_rank.setdefault(sum(t), []).append(t)
    incs = {}
    for t in keys:
        entries = []
        for i in range(nv):
            if t[i] < bounds[i]:
                up = t[:i] + (t[i] + 1,) + t[i + 1 :]
                entries.append((i, t[i], up in keys))
        incs[t] = tuple(entries)
    witness = None
    ranks = sorted(by_rank)
    for ri, r1 in enumerate(ranks):
        if witness:
            break
        for r2 in ranks[ri + 1 :]:
            if witness:
                break
            for x in by_rank[r1]:
                ix = incs[x]
                for y in by_rank[r2]:
                    meter.spend(1)
                    for i, xi, up_in in ix:
                        if xi < y[i] and up_in:
                            break
                    else:
                        witness = {
                            "x": L.label(L.element(x)),
                            "y": L.label(L.element(y)),
                        }
                        break
                if witness:
                    break
    results.append(
        CheckResult(
            names[2],
            witness is None,
            True,
            witness,
            "" if witness is None else "no atom augments x toward y inside the family",
        )
    )


def _independence_generic(L, ind, meter, results, names):
    ind_set = frozenset(ind)

    passed = L.bottom in ind_set
    results.append(
        CheckResult(names[0], passed, True, None if passed else {"missing": L.label(L.bottom)})
    )

    witness = None
    elems = L.elements()
    for x in ind:
        for y in elems:
            meter.spend(1)
            if y not in ind_set and L.lt(y, x):
                witness = {"x": L.label(x), "missing": L.label(y)}
                break
        if witness:
            break
    results.append(CheckResult(names[1], witness is None, True, witness))

    by_rank: dict[int, list] = {}
    for x in ind:
        by_rank.setdefault(x.rank, []).append(x)
    witness = None
    ranks = sorted(by_rank)
    atoms = L.atoms
    for ri, r1 in enumerate(ranks):
        if witness:
            break
        for r2 in ranks[ri + 1 :]:
            if witness:
                break
            for x in by_rank[r1]:
                for y in by_rank[r2]:
                    found = False
                    for i, a in enumerate(atoms):
                        if x.valuation[i] >= y.valuation[i]:
                            continue
                        meter.spend(2)
                        p = L.atom_power(a, x.valuation[i] + 1)
                        if p is not None and L.join(x, p) in ind_set:
                            found = True
                            break
                    if not found:
                        witness = {"x": L.label(x), "y": L.label(y)}
                        break
                if witness:
                    break
    results.append(
        CheckResult(
            names[2],
            witness is None,
            True,
            witness,
            "" if witness is None else "no atom augments x toward y inside the family",
        )
    )


def _report(check, L, independents, budget) -> VerificationReport:
    meter = _Meter(budget)
    results: list = []
    try:
        check(L, frozenset(independents), meter, results, NAMES)
    except _OutOfBudget:
        pass
    return _finish_report(NAMES, results, meter)


def multiset_independence(L, independents, budget: int = 5_000_000) -> VerificationReport:
    return _report(_independence_multiset, L, independents, budget)


def generic_independence(L, independents, budget: int = 5_000_000) -> VerificationReport:
    return _report(_independence_generic, L, independents, budget)


def oracle_bases(M, atom_order=None) -> tuple:
    """The earlier `bases`: on a multiset host, the independents none of
    whose upper covers is independent; elsewhere, the independents below
    no other independent."""
    L = M.host
    ind = M.independents
    if isinstance(L, MultisetLattice):
        keys = {x.key for x in ind}
        bounds = L.exponents
        out = []
        for x in ind:
            t = x.key
            for i in range(len(bounds)):
                if t[i] < bounds[i] and t[:i] + (t[i] + 1,) + t[i + 1 :] in keys:
                    break
            else:
                out.append(x)
    else:
        out = [x for x in ind if not any(y != x and L.leq(x, y) for y in ind)]
    return tuple(sort_by_rank_lex(L, out, atom_order))


def maximal_independents(M, atom_order=None) -> tuple:
    L = M.host
    ind = M.independents
    out = [x for x in ind if not any(y != x and L.leq(x, y) for y in ind)]
    return tuple(sort_by_rank_lex(L, out, atom_order))
