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

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field


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


class Element:
    """Handle for a lattice element with rank and valuation cached.

    Identity is (host lattice, key).  Keys are instance specific: index sets,
    exponent tuples, reduced basis matrices, names.  The valuation vector is
    stored in the host's atom enumeration order.
    """

    __slots__ = ("host", "key", "rank", "valuation")

    def __init__(self, host: "PowerLattice", key, rank: int, valuation):
        self.host = host
        self.key = key
        self.rank = rank
        self.valuation = tuple(valuation)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.host is other.host and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<{self.host.label(self)}>"

    @property
    def total_valuation(self) -> int:
        return sum(self.valuation)


class PowerLattice(ABC):
    """Finite ranked lattice presented by rank levels plus join and meet.

    Subclasses supply the combinatorics.  This base class provides element
    interning, cover computation against rank levels, atom powers by scan,
    and the encodings shared with the CLI.  Nothing here assumes the power
    lattice axioms hold; `verify_power_lattice` is the judge, and instances
    built from raw user input are routinely fed to it in a broken state.
    """

    kind = "lattice"

    def __init__(self):
        self._cache: dict = {}
        self._levels: dict[int, tuple] = {}
        self._atoms = None
        self._atom_pos = None
        self._powers = None

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
            self._atom_pos = {a.key: i for i, a in enumerate(self.atoms)}
        try:
            return self._atom_pos[w.key]
        except KeyError:
            raise LatticeInputError(f"{self.label(w)} is not an atom") from None

    def leq(self, x: Element, y: Element) -> bool:
        return self.meet(x, y) == x

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
        """The rank `power_rank` power of atom w, or None when absent."""
        idx = self.atom_index(w)
        if power_rank < 0:
            raise LatticeInputError("a power rank must be nonnegative")
        if power_rank == 0:
            return self.bottom
        if power_rank == 1:
            return self.atoms[idx]
        return self._power_table().get((idx, power_rank))

    def _power_table(self) -> dict:
        # Generic scan over all elements; instances with closed forms override
        # atom_power instead of paying for this.
        if self._powers is None:
            table = {}
            for z in self.elements():
                if z.rank < 2:
                    continue
                support = [i for i, v in enumerate(z.valuation) if v > 0]
                if len(support) == 1:
                    table.setdefault((support[0], z.rank), z)
            self._powers = table
        return self._powers

    def sort_key(self, x: Element):
        """Deterministic total order: rank, then factorization, then label."""
        return _rank_level_key(self, None)(x) + (self.label(x),)


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    complete: bool
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj = {"name": self.name, "passed": self.passed, "complete": self.complete}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj


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
    # Independent of the cached vectors: powers found by support scan, then
    # v_w(x) = max rank of a power of w below x.
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
    by_rank: dict[int, dict[int, Element]] = {}
    by_total: dict[int, dict[int, Element]] = {}
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


def verify_power_lattice(L: PowerLattice, budget: int = 5_000_000) -> VerificationReport:
    """Check every power lattice axiom, with witnesses for failures.

    Checks: lattice laws (idempotence, commutativity, absorption, order
    consistency, associativity), rank grading by covers, semimodularity,
    at most one power per atom and rank, rank determined by valuation
    totals, and cached valuations against their definition.  Join, meet,
    and order queries count against the budget; when it runs out the
    remaining checks are reported as incomplete rather than failed.
    """
    count = L.element_count()
    if count * count > budget:
        return VerificationReport(
            ok=True,
            complete=False,
            ops=0,
            checks=[CheckResult(name, True, False, None, "not run") for name, _ in _CHECKS],
            detail=f"{count} elements exceed the pairwise budget; nothing was checked",
        )
    elems = L.elements()
    meter = _Meter(budget)
    results: list[CheckResult] = []
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
