"""Concrete lattice families.

Boolean lattices, multiset (divisor-box) lattices, subspace lattices over
small prime fields, finite products, lattices read from explicit Hasse data,
and divisor lattices of an integer.  Each family fixes a deterministic atom
order and element encoding; none of them is assumed to satisfy the power
lattice axioms until `verify_power_lattice` says so.
"""

from __future__ import annotations

import itertools
import operator
import string

from .lattice import (
    BudgetError,
    Element,
    LatticeInputError,
    NotALatticeError,
    PowerLattice,
    _bits,
    _OrderIndex,
    _brief,
)

_MAX_ELEMENTS = 10**6


def _check_count(count: int, what: str):
    if count > _MAX_ELEMENTS:
        raise LatticeInputError(f"{what} has {count} elements, over the 10^6 bound")


def _is_int(value) -> bool:
    # JSON true and 2.0 are not integers here, though bool is an int
    return isinstance(value, int) and not isinstance(value, bool)


def _sequence(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise LatticeInputError(f"{what} must be a list")
    return tuple(value)


def _distinct_names(names, count: int) -> bool:
    return (
        len(names) == count
        and all(isinstance(s, str) for s in names)
        and len(set(names)) == count
    )


# ---------------------------------------------------------------------------
# boolean


class BooleanLattice(PowerLattice):
    """Subsets of a finite ground set ordered by inclusion."""

    kind = "boolean"

    def __init__(self, n: int, labels=None):
        super().__init__()
        if not _is_int(n) or n < 0 or n > 20:
            raise LatticeInputError("boolean lattice needs an integer n with 0 <= n <= 20")
        if labels is None:
            labels = tuple(string.ascii_lowercase[:n])
        labels = _sequence(labels, "boolean lattice labels")
        if not _distinct_names(labels, n):
            raise LatticeInputError("boolean lattice needs n distinct string labels")
        self.n = n
        self.labels = labels

    @property
    def top_rank(self) -> int:
        return self.n

    def element_count(self) -> int:
        return 1 << self.n

    def describe(self) -> str:
        return f"boolean lattice on {self.n} elements"

    def _make(self, idxs: frozenset) -> Element:
        el = self._cache.get(idxs)
        return el or self._new(idxs, len(idxs), [int(i in idxs) for i in range(self.n)])

    def _build_level(self, level: int):
        return [self._make(frozenset(c)) for c in itertools.combinations(range(self.n), level)]

    def join(self, x, y):
        return self._make(x.key | y.key)

    def meet(self, x, y):
        return self._make(x.key & y.key)

    def leq(self, x, y):
        return x.key <= y.key

    def covers(self, x):
        rest = sorted(set(range(self.n)) - x.key)
        return tuple(self._make(x.key | {i}) for i in rest)

    def lower_covers(self, x):
        return tuple(self._make(x.key - {i}) for i in sorted(x.key))

    def label(self, x):
        return "{" + ",".join(self.labels[i] for i in sorted(x.key)) + "}"

    def element_to_obj(self, x):
        return [self.labels[i] for i in sorted(x.key)]

    def element_from_obj(self, obj):
        if not isinstance(obj, list):
            raise LatticeInputError("a boolean element is a list of labels")
        pos = {lab: i for i, lab in enumerate(self.labels)}
        idxs = set()
        for lab in obj:
            if not isinstance(lab, str) or lab not in pos:
                raise LatticeInputError(f"unknown label {_brief.repr(lab)}")
            if pos[lab] in idxs:
                raise LatticeInputError(f"repeated label {lab!r}")
            idxs.add(pos[lab])
        return self._make(frozenset(idxs))


# ---------------------------------------------------------------------------
# multiset


def _bounded_sums(bounds, total):
    # all tuples t with 0 <= t_i <= bounds_i and sum(t) == total, in
    # descending lexicographic order, so that rank level 1 lists the atoms
    # e_1, e_2, ... in variable order
    n = len(bounds)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]

    def rec(i, rem):
        if i == n:
            if rem == 0:
                yield ()
            return
        lo = max(0, rem - suffix[i + 1])
        hi = min(bounds[i], rem)
        for v in range(hi, lo - 1, -1):
            for rest in rec(i + 1, rem - v):
                yield (v,) + rest

    return rec(0, total)


class MultisetLattice(PowerLattice):
    """Exponent vectors below a fixed bound, ordered coordinatewise.

    The lattice of monomials dividing x_1^{n_1} ... x_l^{n_l}.
    """

    kind = "multiset"

    def __init__(self, exponents, labels=None):
        super().__init__()
        exponents = _sequence(exponents, "multiset lattice exponents")
        if any(not _is_int(e) or e < 1 for e in exponents):
            raise LatticeInputError("multiset lattice exponents must be integers >= 1")
        count = 1
        for e in exponents:
            count *= e + 1
        _check_count(count, "multiset lattice")
        if labels is None:
            labels = tuple(f"x_{i + 1}" for i in range(len(exponents)))
        labels = _sequence(labels, "multiset lattice labels")
        if not _distinct_names(labels, len(exponents)):
            raise LatticeInputError("multiset lattice needs one distinct string label per variable")
        self.exponents = exponents
        self.labels = labels
        self._count = count

    @property
    def top_rank(self) -> int:
        return sum(self.exponents)

    def element_count(self) -> int:
        return self._count

    def describe(self) -> str:
        return f"multiset lattice with exponent bound {list(self.exponents)}"

    def element(self, exponents) -> Element:
        t = tuple(exponents)
        if len(t) != len(self.exponents):
            raise LatticeInputError(f"exponent vector has length {len(t)}, not {len(self.exponents)}")
        for i, (v, b) in enumerate(zip(t, self.exponents)):
            if not _is_int(v) or v < 0 or v > b:
                raise LatticeInputError(f"exponent {i + 1} is {_brief.repr(v)}, outside 0..{b}")
        return self._make(t)

    def _make(self, t: tuple) -> Element:
        return self._cache.get(t) or self._new(t, sum(t), t)

    def _build_level(self, level: int):
        return [self._make(t) for t in _bounded_sums(self.exponents, level)]

    def join(self, x, y):
        return self._make(tuple(map(max, x.key, y.key)))

    def meet(self, x, y):
        return self._make(tuple(map(min, x.key, y.key)))

    def leq(self, x, y):
        return all(map(operator.le, x.key, y.key))

    def covers(self, x):
        out = []
        for i, (v, b) in enumerate(zip(x.key, self.exponents)):
            if v < b:
                out.append(self._make(x.key[:i] + (v + 1,) + x.key[i + 1 :]))
        return tuple(out)

    def lower_covers(self, x):
        out = []
        for i, v in enumerate(x.key):
            if v > 0:
                out.append(self._make(x.key[:i] + (v - 1,) + x.key[i + 1 :]))
        return tuple(out)

    def _higher_power(self, idx, power_rank):
        if power_rank > self.exponents[idx]:
            return None
        t = [0] * len(self.exponents)
        t[idx] = power_rank
        return self._make(tuple(t))

    def label(self, x):
        parts = []
        for lab, v in zip(self.labels, x.key):
            if v == 1:
                parts.append(lab)
            elif v > 1:
                parts.append(f"{lab}^{v}")
        return "*".join(parts) if parts else "1"

    def element_to_obj(self, x):
        return list(x.key)

    def element_from_obj(self, obj):
        if not isinstance(obj, list):
            raise LatticeInputError("a multiset element is a list of exponents")
        return self.element(obj)


# ---------------------------------------------------------------------------
# subspace


def _rref(rows, q):
    """Reduced row echelon form mod q.  Returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return (), ()
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c] % q:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [(v * inv) % q for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


class SubspaceLattice(PowerLattice):
    """Subspaces of F_q^n ordered by inclusion, for small prime q.

    A subspace is fixed by the lines it contains, marked in its valuation.
    `_make` also indexes each subspace by those marks, and `meet`, whose
    lines are those both arguments contain, is looked up there first.
    """

    kind = "subspace"

    def __init__(self, q: int, n: int):
        super().__init__()
        if not _is_int(q) or q not in (2, 3, 5, 7):
            raise LatticeInputError("subspace lattice needs a prime q with q <= 7")
        if not _is_int(n) or n < 1 or n > 4:
            raise LatticeInputError("subspace lattice needs an integer n with 1 <= n <= 4")
        self.q = q
        self.n = n
        lines = []
        index = {}
        for vec in itertools.product(range(q), repeat=n):
            if not any(vec):
                continue
            norm = self._normalize(vec)
            if norm not in index:
                index[norm] = len(lines)
                lines.append(norm)
        self._lines = tuple(lines)
        self._line_index = index
        self._by_marks: dict = {}

    def _normalize(self, vec):
        lead = next(v for v in vec if v)
        inv = pow(lead, self.q - 2, self.q)
        return tuple((v * inv) % self.q for v in vec)

    @property
    def top_rank(self) -> int:
        return self.n

    def element_count(self) -> int:
        total = 0
        for k in range(self.n + 1):
            num = 1
            for i in range(k):
                num *= (self.q**self.n - self.q**i)
            den = 1
            for i in range(k):
                den *= (self.q**k - self.q**i)
            total += num // den if k else 1
        return total

    def describe(self) -> str:
        return f"subspaces of F_{self.q}^{self.n}"

    def _make(self, rows: tuple) -> Element:
        cached = self._cache.get(rows)
        if cached is not None:
            return cached
        q = self.q
        k = len(rows)
        marks = [0] * len(self._lines)
        for coeffs in itertools.product(range(q), repeat=k):
            if not any(coeffs):
                continue
            vec = tuple(
                sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(self.n)
            )
            marks[self._line_index[self._normalize(vec)]] = 1
        el = self._new(rows, k, marks)
        self._by_marks[el.valuation] = el
        return el

    def _build_level(self, level: int):
        q, n = self.q, self.n
        if level == 1:
            # atoms must come in the same order as the valuation index
            return [self._make((line,)) for line in self._lines]
        out = []
        for pivots in itertools.combinations(range(n), level):
            free_cells = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_cells.append((i, c))
            for values in itertools.product(range(q), repeat=len(free_cells)):
                rows = [[0] * n for _ in range(level)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), v in zip(free_cells, values):
                    rows[i][c] = v
                out.append(self._make(tuple(tuple(r) for r in rows)))
        return out

    def join(self, x, y):
        rr, _ = _rref(list(x.key) + list(y.key), self.q)
        return self._make(rr)

    def meet(self, x, y):
        # the span of the lines both contain; valuations mark those lines
        marks = tuple(map(min, x.valuation, y.valuation))
        return self._by_marks.get(marks) or self._make(
            _rref([line for line, m in zip(self._lines, marks) if m], self.q)[0]
        )

    def leq(self, x, y):
        # inclusion of subspaces is containment of their line sets
        return all(map(operator.le, x.valuation, y.valuation))

    def label(self, x):
        if not x.key:
            return "<0>"
        return "<" + ",".join("".join(str(v) for v in row) for row in x.key) + ">"

    def element_to_obj(self, x):
        return [list(row) for row in x.key]

    def element_from_obj(self, obj):
        if not isinstance(obj, list):
            raise LatticeInputError("a subspace element is a list of basis rows")
        rows = []
        for row in obj:
            if not isinstance(row, list) or len(row) != self.n:
                raise LatticeInputError(f"each basis row must have {self.n} entries")
            if any(not _is_int(v) for v in row):
                raise LatticeInputError("basis entries must be integers")
            rows.append(tuple(v % self.q for v in row))
        rr, _ = _rref(rows, self.q)
        return self._make(rr)


# ---------------------------------------------------------------------------
# product


class ProductLattice(PowerLattice):
    """Direct product of lattices, ordered componentwise."""

    kind = "product"

    def __init__(self, factors):
        super().__init__()
        factors = tuple(factors)
        if len(factors) < 2:
            raise LatticeInputError("a product lattice needs at least two factors")
        if any(not isinstance(f, PowerLattice) for f in factors):
            raise LatticeInputError("product factors must be lattices")
        count = 1
        for f in factors:
            count *= f.element_count()
        _check_count(count, "product lattice")
        self.factors = factors
        self._count = count
        self._components: dict = {}
        # atom i of the product is an atom of one factor, bottoms elsewhere
        self._atom_map = []
        for fi, f in enumerate(factors):
            for ai in range(len(f.atoms)):
                self._atom_map.append((fi, ai))

    @property
    def top_rank(self) -> int:
        return sum(f.top_rank for f in self.factors)

    def element_count(self) -> int:
        return self._count

    def describe(self) -> str:
        return "product of " + ", ".join(f.describe() for f in self.factors)

    def _make(self, components: tuple) -> Element:
        key = tuple(c.key for c in components)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rank = sum(c.rank for c in components)
        val = tuple(v for c in components for v in c.valuation)
        el = self._new(key, rank, val)
        self._components[key] = tuple(components)
        return el

    def components(self, x: Element) -> tuple:
        return self._components[x.key]

    def _build_level(self, level: int):
        bounds = [f.top_rank for f in self.factors]
        out = []
        for split in _bounded_sums(bounds, level):
            levels = [f.elements_of_rank(s) for f, s in zip(self.factors, split)]
            for combo in itertools.product(*levels):
                out.append(self._make(combo))
        return out

    def join(self, x, y):
        cx, cy = self.components(x), self.components(y)
        return self._make(tuple(f.join(a, b) for f, a, b in zip(self.factors, cx, cy)))

    def meet(self, x, y):
        cx, cy = self.components(x), self.components(y)
        return self._make(tuple(f.meet(a, b) for f, a, b in zip(self.factors, cx, cy)))

    def leq(self, x, y):
        cx, cy = self.components(x), self.components(y)
        return all(f.leq(a, b) for f, a, b in zip(self.factors, cx, cy))

    def covers(self, x):
        return self._steps(x, "covers")

    def lower_covers(self, x):
        return self._steps(x, "lower_covers")

    def _steps(self, x, step: str):
        # x with one component moved by a cover step of its factor, the
        # factors in order
        cx = self.components(x)
        return tuple(
            self._make(cx[:i] + (c,) + cx[i + 1 :])
            for i, f in enumerate(self.factors)
            for c in getattr(f, step)(cx[i])
        )

    def _higher_power(self, idx, power_rank):
        fi, ai = self._atom_map[idx]
        f = self.factors[fi]
        p = f.atom_power(f.atoms[ai], power_rank)
        if p is None:
            return None
        return self._make(tuple(p if i == fi else g.bottom for i, g in enumerate(self.factors)))

    def label(self, x):
        cx = self.components(x)
        return "(" + ",".join(f.label(c) for f, c in zip(self.factors, cx)) + ")"

    def element_to_obj(self, x):
        cx = self.components(x)
        return [f.element_to_obj(c) for f, c in zip(self.factors, cx)]

    def element_from_obj(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.factors):
            raise LatticeInputError(
                f"a product element is a list of {len(self.factors)} component encodings"
            )
        comps = tuple(f.element_from_obj(o) for f, o in zip(self.factors, obj))
        return self._make(comps)


# ---------------------------------------------------------------------------
# explicit Hasse data


class HasseLattice(PowerLattice):
    """Lattice built from named elements and order relations.

    Relations are read as `a <= b`; redundant (non-cover) relations are
    tolerated.  Construction fails with an offending pair when the input is
    not a lattice.  Ranks are longest-chain lengths from the bottom, so a
    non-graded lattice still gets built and can then fail verification.
    """

    kind = "hasse"

    def __init__(self, names, relations):
        super().__init__()
        names = _sequence(names, "Hasse elements")
        if not names:
            raise LatticeInputError("a Hasse lattice needs at least one element")
        if len(names) > 500:
            raise LatticeInputError("a Hasse lattice is limited to 500 elements")
        if not _distinct_names(names, len(names)) or not all(names):
            raise LatticeInputError("Hasse element names must be distinct nonempty strings")
        self.names = names
        idx = {s: i for i, s in enumerate(names)}
        n = len(names)
        succ = [set() for _ in range(n)]
        for pair in _sequence(relations, "Hasse relations"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise LatticeInputError("each relation must be a pair [low, high]")
            a, b = pair
            if not isinstance(a, str) or not isinstance(b, str) or a not in idx or b not in idx:
                raise LatticeInputError(f"relation ({a!r}, {b!r}) mentions an unknown element")
            if a == b:
                continue
            succ[idx[a]].add(idx[b])
        # up[i] has bit j set when i <= j, by DFS
        up = []
        for i in range(n):
            seen = 1 << i
            stack = [i]
            while stack:
                for nxt in succ[stack.pop()]:
                    if not seen >> nxt & 1:
                        seen |= 1 << nxt
                        stack.append(nxt)
            up.append(seen)
        index = _OrderIndex(up)
        for i in range(n):
            others = up[i] & index.down[i] & ~(1 << i)
            if others:
                j = next(_bits(others))
                raise LatticeInputError(
                    f"relations contain a cycle through {names[i]!r} and {names[j]!r}"
                )
        # the common lower bounds of a pair are the down-set of their meet,
        # and the common upper bounds the up-set of their join, exactly
        # when that meet and join exist
        self._by_down = {d: k for k, d in enumerate(index.down)}
        self._by_up = {u: k for k, u in enumerate(up)}
        for i in range(n):
            for j in range(i, n):
                if index.down[i] & index.down[j] not in self._by_down:
                    what = "meet"
                elif up[i] & up[j] not in self._by_up:
                    what = "join"
                else:
                    continue
                raise NotALatticeError(
                    f"pair ({names[i]!r}, {names[j]!r}) has no unique {what}",
                    pair=(names[i], names[j]),
                )
        self._index = index
        ranks = index.chain_ranks()
        self._max_rank = max(ranks)
        atoms = [i for i in range(n) if ranks[i] == 1]
        powers = index.powers(ranks, atoms)
        vals = index.valuations(ranks, powers, len(atoms))
        self._els = [self._new(names[i], ranks[i], vals[i]) for i in range(n)]
        self._by_name = {names[i]: self._els[i] for i in range(n)}
        self._name_pos = idx
        # the first power by name at each (atom, rank); the verifier
        # reports an atom with two
        self._power_at = {}
        for z, k in powers:
            self._power_at.setdefault((k, ranks[z]), self._els[z])

    @property
    def top_rank(self) -> int:
        return self._max_rank

    def element_count(self) -> int:
        return len(self.names)

    def describe(self) -> str:
        return f"lattice from Hasse data on {len(self.names)} elements"

    def _build_level(self, level: int):
        return [e for e in self._els if e.rank == level]

    def join(self, x, y):
        up = self._index.up
        return self._els[self._by_up[up[self._pos(x)] & up[self._pos(y)]]]

    def meet(self, x, y):
        down = self._index.down
        return self._els[self._by_down[down[self._pos(x)] & down[self._pos(y)]]]

    def leq(self, x, y):
        return bool(self._index.up[self._pos(x)] >> self._pos(y) & 1)

    def _pos(self, x: Element) -> int:
        return self._name_pos[x.key]

    def _higher_power(self, idx, power_rank):
        return self._power_at.get((idx, power_rank))

    def covers(self, x):
        return tuple(self._els[j] for j in _bits(self._index.upper[self._pos(x)]))

    def lower_covers(self, x):
        return tuple(self._els[j] for j in _bits(self._index.lower[self._pos(x)]))

    def label(self, x):
        return x.key

    def element_to_obj(self, x):
        return x.key

    def element_from_obj(self, obj):
        el = self._by_name.get(obj) if isinstance(obj, str) else None
        if el is None:
            raise LatticeInputError(f"unknown element {_brief.repr(obj)}")
        return el


# ---------------------------------------------------------------------------
# divisor


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class DivisorLattice(MultisetLattice):
    """Divisors of a positive integer ordered by divisibility.

    Stored as the multiset lattice of prime exponent vectors; labels are the
    divisors themselves.
    """

    kind = "divisor"

    def __init__(self, n: int):
        if not _is_int(n) or n < 2:
            raise LatticeInputError("divisor lattice needs an integer of at least 2")
        if n > 10**9:
            raise LatticeInputError("divisor lattice argument is limited to 10^9")
        factors = _factorize(n)
        if len(factors) > 6:
            raise LatticeInputError("divisor lattice supports at most 6 distinct primes")
        self.number = n
        self.primes = tuple(p for p, _ in factors)
        super().__init__(
            tuple(e for _, e in factors), tuple(str(p) for p, _ in factors)
        )

    def divisor_of(self, x: Element) -> int:
        d = 1
        for p, e in zip(self.primes, x.key):
            d *= p**e
        return d

    def label(self, x):
        return str(self.divisor_of(x))

    def describe(self) -> str:
        return f"divisor lattice of {self.number}"


# ---------------------------------------------------------------------------
# builders and JSON specs


def build_boolean(n: int, labels=None) -> BooleanLattice:
    return BooleanLattice(n, labels)


def build_multiset(exponents, labels=None) -> MultisetLattice:
    return MultisetLattice(exponents, labels)


def build_subspace(q: int, n: int) -> SubspaceLattice:
    return SubspaceLattice(q, n)


def build_product(factors) -> ProductLattice:
    return ProductLattice(factors)


def build_hasse(names, relations) -> HasseLattice:
    return HasseLattice(names, relations)


def build_divisor(n: int) -> DivisorLattice:
    return DivisorLattice(n)


def lattice_from_obj(obj) -> PowerLattice:
    """Build a lattice from its JSON description."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise LatticeInputError("a lattice description is an object with a 'type' field")
    kind = obj["type"]
    if kind == "boolean":
        if "n" not in obj:
            raise LatticeInputError("boolean lattice description needs 'n'")
        return BooleanLattice(obj["n"], obj.get("labels"))
    if kind == "multiset":
        if "exponents" not in obj:
            raise LatticeInputError("multiset lattice description needs 'exponents'")
        return MultisetLattice(obj["exponents"], obj.get("labels"))
    if kind == "subspace":
        if "q" not in obj or "n" not in obj:
            raise LatticeInputError("subspace lattice description needs 'q' and 'n'")
        return SubspaceLattice(obj["q"], obj["n"])
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise LatticeInputError("product lattice description needs a 'factors' list")
        return ProductLattice([lattice_from_obj(f) for f in factors])
    if kind == "hasse":
        if "elements" not in obj or "covers" not in obj:
            raise LatticeInputError("hasse lattice description needs 'elements' and 'covers'")
        return HasseLattice(obj["elements"], obj["covers"])
    if kind == "divisor":
        if "n" not in obj:
            raise LatticeInputError("divisor lattice description needs 'n'")
        return DivisorLattice(obj["n"])
    raise LatticeInputError(f"unknown lattice type {_brief.repr(kind)}")
