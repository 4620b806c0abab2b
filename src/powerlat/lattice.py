"""Ranked lattices with atom powers, valuations, and rank-level orders.

A power lattice is a finite ranked semimodular lattice in which every atom
has at most one power of each rank (a power of an atom w is an element whose
only atom below it is w) and in which two elements have the same rank exactly
when their valuation totals agree.  This module holds the element model, the
abstract lattice interface, valuations and factorizations, the two equivalent
comparison rules on a rank level, and the axiom verifier that everything
downstream trusts.
"""

from __future__ import annotations

import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import compress, repeat


class LatticeError(Exception):
    """Base class for errors raised by this package."""


class LatticeInputError(LatticeError):
    """Malformed construction input, or an argument outside an op's domain."""


class NotALatticeError(LatticeInputError):
    """The input order is not a lattice.  Carries an offending pair."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class BudgetError(LatticeError):
    """An enumeration exceeded its operation, face, or chain budget."""


_brief = reprlib.Repr()  # `_brief.repr(value)` names an input value in an error message,
_brief.maxlevel = 1  # in a few hundred bytes at most, however long or deep the value


class Element:
    """Handle for a lattice element with rank and valuation cached.

    Keys are instance specific: index sets, exponent tuples, reduced basis
    matrices, names.  Every handle is made by its host's `PowerLattice._new`,
    which interns it per (host, key), so two handles are equal exactly when
    they are the same object: equality and hashing are by identity, and an
    element of another host is never equal to one of this host.  Interning
    is cache first (see `_new`); a handle is always true, so `_make` may
    write `cache.get(key) or self._new(...)`.  The valuation vector is
    stored in the host's atom enumeration order.
    """

    __slots__ = ("host", "key", "rank", "valuation")

    def __init__(self, host: "PowerLattice", key, rank: int, valuation):
        self.host = host
        self.key = key
        self.rank = rank
        self.valuation = tuple(valuation)

    def __repr__(self):
        return f"<{self.host.label(self)}>"


class PowerLattice(ABC):
    """Finite ranked lattice presented by rank levels plus join and meet.

    Subclasses supply the combinatorics.  This base class provides element
    interning, cover computation against rank levels, the one atom-power
    rule (`atom_power`; a family gives its powers of rank 2 and up in
    `_higher_power`), and the encodings shared with the CLI.  Nothing here
    assumes the power lattice axioms hold; `verify_power_lattice` is the
    judge, and instances built from raw user input are routinely fed to it
    in a broken state.
    """

    kind = "lattice"

    def __init__(self):
        self._cache: dict = {}
        self._levels: dict[int, tuple] = {}
        self._atoms = None
        self._atom_pos = None
        self._level_key = None

    # interface each instance fills in

    @property
    @abstractmethod
    def top_rank(self) -> int:
        """Rank of the top element."""

    @abstractmethod
    def _build_level(self, level: int) -> list:
        """All elements of the given rank, in a deterministic order."""

    @abstractmethod
    def join(self, x: Element, y: Element) -> Element: ...

    @abstractmethod
    def meet(self, x: Element, y: Element) -> Element: ...

    @abstractmethod
    def leq(self, x: Element, y: Element) -> bool: ...

    @abstractmethod
    def label(self, x: Element) -> str: ...

    @abstractmethod
    def element_to_obj(self, x: Element):
        """JSON-ready encoding of an element."""

    @abstractmethod
    def element_from_obj(self, obj) -> Element: ...

    def describe(self) -> str:
        return self.kind

    # shared machinery

    def _new(self, key, rank: int, valuation) -> Element:
        """The element interned under `key`, made when the key is new.
        Cache first: a `_make` looks `self._cache` up before it builds a
        rank or valuation, and join and meet still go through `_make`."""
        el = self._cache.get(key)
        if el is None:
            el = Element(self, key, rank, valuation)
            self._cache[key] = el
        return el

    def elements_of_rank(self, level: int) -> tuple:
        if level < 0 or level > self.top_rank:
            return ()
        cached = self._levels.get(level)
        if cached is None:
            cached = tuple(self._build_level(level))
            self._levels[level] = cached
        return cached

    def elements(self) -> list:
        out = []
        for level in range(self.top_rank + 1):
            out.extend(self.elements_of_rank(level))
        return out

    def element_count(self) -> int:
        return sum(len(self.elements_of_rank(l)) for l in range(self.top_rank + 1))

    @property
    def bottom(self) -> Element:
        level = self.elements_of_rank(0)
        if len(level) != 1:
            raise NotALatticeError("rank level 0 does not have a unique element")
        return level[0]

    @property
    def top(self) -> Element:
        level = self.elements_of_rank(self.top_rank)
        if len(level) != 1:
            raise NotALatticeError("the top rank level does not have a unique element")
        return level[0]

    @property
    def atoms(self) -> tuple:
        if self._atoms is None:
            self._atoms = tuple(self.elements_of_rank(1))
        return self._atoms

    def atom_index(self, w: Element) -> int:
        if self._atom_pos is None:
            self._atom_pos = {a: i for i, a in enumerate(self.atoms)}
        try:
            return self._atom_pos[w]
        except KeyError:
            raise LatticeInputError(f"{w.host.label(w)} is not an atom") from None

    def lt(self, x: Element, y: Element) -> bool:
        return x != y and self.leq(x, y)

    def covers(self, x: Element) -> tuple:
        """Upper covers, read off the rank level above.

        Correct whenever the rank function is the lattice's grading, which
        the verifier checks separately.  Instances with a non-graded input
        order override this.
        """
        return tuple(y for y in self.elements_of_rank(x.rank + 1) if self.leq(x, y))

    def lower_covers(self, x: Element) -> tuple:
        return tuple(y for y in self.elements_of_rank(x.rank - 1) if self.leq(y, x))

    def atom_power(self, w: Element, power_rank: int):
        """The rank `power_rank` power of atom w, or None when absent: the
        bottom at rank 0, w itself at rank 1, and from rank 2 on the
        family's `_higher_power`."""
        idx = self.atom_index(w)
        if power_rank < 0:
            raise LatticeInputError("a power rank must be nonnegative")
        if power_rank == 0:
            return self.bottom
        if power_rank == 1:
            return self.atoms[idx]
        return self._higher_power(idx, power_rank)

    def _higher_power(self, idx: int, power_rank: int):
        """The power of atom `idx` of a rank from 2 on, or None.  A family
        with such powers overrides this; Boolean and subspace lattices have
        none."""
        return None

    def sort_key(self, x: Element):
        """Deterministic total order: rank, then factorization, then label."""
        if self._level_key is None:
            self._level_key = _rank_level_key(self, None)
        return self._level_key(x) + (self.label(x),)


# ---------------------------------------------------------------------------
# valuations, factorizations, and the orders on a rank level


def valuation(L: PowerLattice, x: Element) -> tuple:
    """Valuation vector of x: per atom, the largest rank of a power of that
    atom lying below x, zero when the atom is not below x."""
    if not isinstance(x, Element) or x.host is not L:
        raise LatticeInputError("the element does not belong to the given lattice")
    return x.valuation


def _atom_sequence(L: PowerLattice, atom_order) -> tuple:
    n = len(L.atoms)
    if atom_order is None:
        return tuple(range(n))
    seq = tuple(atom_order)
    if sorted(seq) != list(range(n)):
        raise LatticeInputError(f"atom order must be a permutation of 0..{n - 1}")
    return seq


def _rank_level_key(L: PowerLattice, atom_order):
    # Sort key of the rank-level order: x -> (rank, factorization of x
    # written as positions in the atom order, ascending).  The atom order
    # is checked here, once per key.
    seq = _atom_sequence(L, atom_order)

    def key(x: Element) -> tuple:
        out = []
        for pos, i in enumerate(seq):
            out.extend([pos] * x.valuation[i])
        return (x.rank, tuple(out))

    return key


def factorization(L: PowerLattice, x: Element, atom_order=None) -> tuple:
    """Atoms below x repeated by valuation, sorted by the atom order.

    Returned as a tuple of atom indexes into ``L.atoms``.
    """
    seq = _atom_sequence(L, atom_order)
    return tuple(i for i in seq for _ in range(x.valuation[i]))


def join_of_factorization(L: PowerLattice, x: Element) -> Element:
    """Recombine x from its factorization: the join of atom powers a^{v_a(x)}."""
    acc = L.bottom
    for i, v in enumerate(x.valuation):
        if v == 0:
            continue
        p = L.atom_power(L.atoms[i], v)
        if p is None:
            raise LatticeInputError(
                f"atom {L.label(L.atoms[i])} has no power of rank {v}"
            )
        acc = L.join(acc, p)
    return acc


def leq_valuationwise(L: PowerLattice, x: Element, y: Element) -> bool:
    """Pointwise comparison of valuation vectors."""
    return all(a <= b for a, b in zip(x.valuation, y.valuation))


def rank_lex_compare(L: PowerLattice, x: Element, y: Element, atom_order=None) -> int:
    """Total order on a rank level: compare factorizations lexicographically.

    Returns -1, 0, or 1.  The elements must have equal rank.
    """
    if x == y:
        return 0
    if x.rank != y.rank:
        raise LatticeInputError("rank_lex_compare needs elements of equal rank")
    key = _rank_level_key(L, atom_order)
    px, py = key(x), key(y)
    if px == py:
        return 0
    return -1 if px < py else 1


def min_rule_compare(L: PowerLattice, x: Element, y: Element, atom_order=None) -> int:
    """Equivalent form of the rank-level order via multiset differences.

    x precedes y iff the smallest atom occurring more often in x's
    factorization than in y's precedes the smallest one occurring more
    often in y's than in x's.  Multiplicities matter.
    """
    if x == y:
        return 0
    if x.rank != y.rank:
        raise LatticeInputError("min_rule_compare needs elements of equal rank")
    seq = _atom_sequence(L, atom_order)
    dx = dy = None
    for pos, i in enumerate(seq):
        vx, vy = x.valuation[i], y.valuation[i]
        if vx > vy and dx is None:
            dx = pos
        if vy > vx and dy is None:
            dy = pos
    if dx is None and dy is None:
        return 0
    if dx is None:
        return -1
    if dy is None:
        return 1
    return -1 if dx < dy else 1


def covers(L: PowerLattice, x: Element) -> tuple:
    return L.covers(x)


def atom_power(L: PowerLattice, w: Element, power_rank: int):
    return L.atom_power(w, power_rank)


# ---------------------------------------------------------------------------
# verification


def _with_verdict(obj: dict, witness, detail: str) -> dict:
    """A report's encoding: `obj`, then the witness when there is one and
    the detail when it is not empty."""
    if witness is not None:
        obj["witness"] = witness
    if detail:
        obj["detail"] = detail
    return obj


@dataclass
class CheckResult:
    name: str
    passed: bool
    complete: bool
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj = {"name": self.name, "passed": self.passed, "complete": self.complete}
        return _with_verdict(obj, self.witness, self.detail)


@dataclass
class VerificationReport:
    ok: bool
    complete: bool
    ops: int
    checks: list[CheckResult] = field(default_factory=list)
    detail: str = ""

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_obj(self) -> dict:
        obj = {
            "ok": self.ok,
            "complete": self.complete,
            "ops": self.ops,
            "checks": [c.to_obj() for c in self.checks],
        }
        if self.detail:
            obj["detail"] = self.detail
        return obj


class _OutOfBudget(Exception):
    pass


class _Meter:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, n: int = 1):
        self.spent += n
        if self.spent > self.limit:
            raise _OutOfBudget


def _finish_report(names, results: list, meter: _Meter) -> VerificationReport:
    """Report on the checks `names`, of which `results` holds the first
    ones run.  When fewer ran, the budget ran out during the next check:
    it is marked "budget exhausted" and those after it "not run"."""
    ran = len(results)
    for pos in range(ran, len(names)):
        detail = "budget exhausted" if pos == ran else "not run"
        results.append(CheckResult(names[pos], True, False, None, detail))
    ok = all(r.passed for r in results)
    complete = all(r.complete for r in results)
    return VerificationReport(ok=ok, complete=complete, ops=meter.spent, checks=results)


# ---------------------------------------------------------------------------
# order index


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: list) -> list:
    out = [0] * len(rows)
    for i, mask in enumerate(rows):
        for j in _bits(mask):
            out[j] |= 1 << i
    return out


class _OrderIndex:
    """A finite order on positions 0..n-1, given by up-set bitsets: bit j of
    up[i] is set when i <= j.  Derives the down-sets, the upper and lower
    cover bitsets (j covers i when i < j with nothing strictly between),
    longest-chain ranks and valuations."""

    def __init__(self, up: list):
        self.up = up
        self.down = _transpose(up)
        self.upper = []
        for i, mask in enumerate(up):
            strict = mask & ~(1 << i)
            cover = 0
            for j in _bits(strict):
                if strict & self.down[j] == 1 << j:
                    cover |= 1 << j
            self.upper.append(cover)
        self.lower = _transpose(self.upper)

    def chain_ranks(self) -> list:
        """Length of the longest chain down from each position.  Needs an
        acyclic order: a strictly smaller element has a smaller down-set."""
        ranks = [0] * len(self.up)
        for i in sorted(range(len(ranks)), key=lambda i: self.down[i].bit_count()):
            ranks[i] = 1 + max((ranks[j] for j in _bits(self.lower[i])), default=-1)
        return ranks

    def powers(self, ranks: list, atoms: list) -> list:
        """(z, k) for each position z, ascending, that is a power of atom
        atoms[k]: z has positive rank and atoms[k] is the only atom below it."""
        which = {1 << a: k for k, a in enumerate(atoms)}
        atom_mask = sum(which)
        return [
            (z, which[below])
            for z, below in enumerate(d & atom_mask for d in self.down)
            if ranks[z] >= 1 and below in which
        ]

    def valuations(self, ranks: list, powers: list, count: int) -> list:
        """Per position x, per atom k of `count` atoms: the largest rank of
        a power of k below x, zero when there is none.  `powers` is the
        list `powers` gives."""
        vals = [[0] * count for _ in self.up]
        for z, k in powers:
            for x in _bits(self.up[z]):
                vals[x][k] = max(vals[x][k], ranks[z])
        return [tuple(v) for v in vals]


class _Tables:
    """leq, join and meet of L read once per ordered pair of L.elements(),
    on positions in that list.  A join or meet outside the list is given
    the next free position, from n on."""

    def __init__(self, L: PowerLattice, meter: _Meter):
        inside = L.elements()
        n = len(inside)
        els = list(inside)
        pos = {x: i for i, x in enumerate(els)}

        def at(x) -> int:
            if x not in pos:
                pos[x] = len(els)
                els.append(x)
            return pos[x]

        def row(results) -> list:
            # one lookup per result; `at` only when one lies outside
            results = list(results)
            found = list(map(pos.get, results))
            return found if None not in found else [at(z) for z in results]

        leq, join, meet = L.leq, L.join, L.meet
        bits = [1 << j for j in range(n)]
        up, self.join, self.meet = [], [], []
        for x in inside:
            meter.spend(3 * n)
            up.append(sum(compress(bits, map(leq, repeat(x), inside))))
            self.join.append(row(map(join, repeat(x), inside)))
            self.meet.append(row(map(meet, repeat(x), inside)))
        self.L = L
        self.n = n
        self.els = els
        self.ranks = [x.rank for x in els]
        self.index = _OrderIndex(up)
        atoms = [pos[a] for a in L.atoms]
        self.powers = self.index.powers(self.ranks, atoms)
        self.vals = self.index.valuations(self.ranks, self.powers, len(atoms))

    def label(self, i: int) -> str:
        return self.L.label(self.els[i])


def _check_lattice_laws(t: _Tables):
    # leq is a partial order and join and meet give least upper and
    # greatest lower bounds under it: equivalent to idempotence,
    # commutativity, associativity, absorption and the order being the one
    # of join and meet (Davey & Priestley, Introduction to Lattices and
    # Order, 2002, Ch. 2), in O(n^2) bitset operations
    n, up, down = t.n, t.index.up, t.index.down

    def fail(law, detail, *where):
        return False, {"law": law, **dict(zip("xyz", map(t.label, where)))}, detail

    for i in range(n):
        if not up[i] >> i & 1:
            return fail("reflexivity", "leq is not reflexive", i)
        if up[i] & down[i] != 1 << i:
            other = next(_bits(up[i] & down[i] & ~(1 << i)))
            return fail("antisymmetry", "leq is not antisymmetric", i, other)
    for i in range(n):
        for j in _bits(up[i]):
            beyond = up[j] & ~up[i]
            if beyond:
                return fail("transitivity", "leq is not transitive", i, j, next(_bits(beyond)))
    for law, op, table, sets in (
        ("least upper bound", "join", t.join, up),
        ("greatest lower bound", "meet", t.meet, down),
    ):
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                if k >= n:
                    return fail("closure", f"{op} leaves the element set", i, j)
                if sets[k] != sets[i] & sets[j]:
                    return fail(law, f"{op} is not the {law} under leq", i, j)
    return True, None, ""


def _check_rank_covers(t: _Tables):
    ranks, up = t.ranks, t.index.up
    bot = min(range(t.n), key=ranks.__getitem__)
    if ranks[bot] != 0:
        return False, {"x": t.label(bot), "rank": ranks[bot]}, "no rank 0 element"
    for i in range(t.n):
        for j in _bits(up[i] & ~(1 << i)):
            if ranks[j] <= ranks[i]:
                witness = {"x": t.label(i), "y": t.label(j), "ranks": [ranks[i], ranks[j]]}
                return False, witness, "rank is not strictly monotone"
    for i in range(t.n):
        for j in _bits(t.index.upper[i]):
            if ranks[j] != ranks[i] + 1:
                witness = {"x": t.label(i), "y": t.label(j), "ranks": [ranks[i], ranks[j]]}
                return False, witness, "cover does not raise rank by one"
    return True, None, ""


def _check_semimodularity(t: _Tables):
    ranks = t.ranks
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if ranks[t.join[i][j]] + ranks[t.meet[i][j]] > ranks[i] + ranks[j]:
                return False, {"x": t.label(i), "y": t.label(j)}, ""
    return True, None, ""


def _check_unique_atom_powers(t: _Tables):
    seen: dict = {}
    for z, k in t.powers:
        rank = t.ranks[z]
        other = seen.setdefault((k, rank), z)
        if other != z:
            witness = {
                "atom": t.L.label(t.L.atoms[k]),
                "rank": rank,
                "x": t.label(other),
                "y": t.label(z),
            }
            return False, witness, "two distinct powers of one atom at the same rank"
    return True, None, ""


def _check_rank_by_total_valuation(t: _Tables):
    # the first element of each rank and of each total is the one that a
    # later element disagreeing with it is reported against
    totals = [sum(v) for v in t.vals]
    first_of_rank: dict[int, int] = {}
    first_of_total: dict[int, int] = {}
    for x in range(t.n):
        rank, total = t.ranks[x], totals[x]
        e = first_of_rank.setdefault(rank, x)
        if totals[e] != total:
            witness = {"x": t.label(e), "y": t.label(x), "rank": rank, "totals": [totals[e], total]}
            return False, witness, "equal rank but different valuation totals"
        e = first_of_total.setdefault(total, x)
        if t.ranks[e] != rank:
            witness = {"x": t.label(e), "y": t.label(x), "total": total, "ranks": [t.ranks[e], rank]}
            return False, witness, "equal valuation totals but different ranks"
    return True, None, ""


def _check_valuation_consistency(t: _Tables):
    for x in range(t.n):
        cached = t.els[x].valuation
        if t.vals[x] != cached:
            return (
                False,
                {"x": t.label(x), "cached": list(cached), "scanned": list(t.vals[x])},
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
_CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def verify_power_lattice(L: PowerLattice, budget: int = 5_000_000) -> VerificationReport:
    """Check every power lattice axiom, with witnesses for failures.

    `leq`, `join` and `meet` are queried once per ordered pair of elements:
    3n^2 queries, counted in the report's `ops`.  A budget too small for
    them leaves the checks incomplete rather than failed.  The checks read
    those tables: lattice laws (join and meet stay in the element set and
    give least upper and greatest lower bounds under the partial order
    leq; a failure names its law: closure, reflexivity, antisymmetry,
    transitivity, least upper bound or greatest lower bound), rank grading
    by covers, semimodularity, at most one power per atom and rank, rank
    determined by valuation totals, and cached valuations against their
    definition.
    """
    count = L.element_count()
    if count * count > budget:
        return VerificationReport(
            ok=True,
            complete=False,
            ops=0,
            checks=[CheckResult(name, True, False, None, "not run") for name in _CHECK_NAMES],
            detail=f"{count} elements exceed the pairwise budget; nothing was checked",
        )
    meter = _Meter(budget)
    results: list[CheckResult] = []
    try:
        t = _Tables(L, meter)
        for name, fn in _CHECKS:
            passed, witness, detail = fn(t)
            results.append(CheckResult(name, passed, True, witness, detail))
    except _OutOfBudget:
        pass
    return _finish_report(_CHECK_NAMES, results, meter)
