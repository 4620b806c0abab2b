"""Monomial ideals of multicomplexes and polarization.

A multicomplex is a downward closed family of monomials inside a box
x_1^{n_1}...x_l^{n_l}, given by its facets and excluding the top.  Its
nonface ideal is generated by the box monomials outside the family, and
its minimal generators are read off one table of the faces over the box.
Each face sigma has an irreducible ideal P_sigma of pure powers
x_i^{v_i+1}.  The section-ring check compares the nonface ideal against
the intersection of the P_sigma over the facets, and that against the
intersection over their meet closure, each intersection taken one
component at a time in time that grows with its generators (Miller and
Sturmfels, Combinatorial Commutative Algebra, Ch. 5); it reports a witness
generator when the nonface ideal and the facet intersection differ, and
counts its work.  Polarization lifts monomials to squarefree ones over
doubly indexed variables.  The polarized complex is built twice, and the
facet sets must agree: as the maximal per-face candidates, and as the
complements of the minimal transversals of the polarized generators
(ibid., Ch. 1).  The polarized complex of a shellable multicomplex is
checked to be shellable in the non-pure sense, first under the lifted
facet order with `verify_nonpure_shelling` (the simplicial shelling
verifier of `ordercomplex`, which serves pure and non-pure orders alike)
and then, when the lifted order fails, by `find_nonpure_shelling`, an
exact search over the sets of facets already placed.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .instances import MultisetLattice, _is_int, _sequence
from .lattice import BudgetError, Element, LatticeError, LatticeInputError, _with_verdict
from .ordercomplex import SimplicialComplex, verify_nonpure_shelling
from .pcomplex import PComplex, _subset_search, find_shelling, verify_shelling

_BOX_VOLUME_LIMIT = 10**6
_GENERATOR_LIMIT = 10**3
_FACET_MEET_LIMIT = 20
_POLAR_VARIABLE_LIMIT = 20


def divides(a, b) -> bool:
    return all(map(operator.le, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_gcd(a, b):
    return tuple(map(min, a, b))


def monomial_label(m) -> str:
    parts = []
    for i, v in enumerate(m):
        if v == 1:
            parts.append(f"x_{i + 1}")
        elif v > 1:
            parts.append(f"x_{i + 1}^{v}")
    return "*".join(parts) if parts else "1"


def _as_exponents(m, nvars=None):
    m = m.key if isinstance(m, Element) else _sequence(m, "an exponent vector")
    if any(not _is_int(v) or v < 0 for v in m):
        raise LatticeInputError("exponents must be non-negative integers")
    if nvars is not None and len(m) != nvars:
        raise LatticeInputError(f"expected {nvars} exponents, got {len(m)}")
    return m


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators.

    Generators form an antichain under divisibility and are kept in
    descending lexicographic order of exponent vectors.
    """

    nvars: int
    gens: tuple

    @classmethod
    def from_gens(cls, nvars: int, gens) -> "MonomialIdeal":
        if not _is_int(nvars) or nvars < 0:
            raise LatticeInputError("the variable count must be a non-negative integer")
        by_degree: dict[int, set] = {}  # the distinct generators, by degree
        for g in _sequence(gens, "the generators"):
            g = _as_exponents(g, nvars)
            by_degree.setdefault(sum(g), set()).add(g)
        # a distinct divisor has strictly smaller degree, so each degree is
        # tested against the minimal generators already kept
        minimal = []
        for degree in sorted(by_degree):
            minimal += [g for g in by_degree[degree] if not any(divides(h, g) for h in minimal)]
        return cls(nvars, tuple(sorted(minimal, reverse=True)))

    def contains(self, m) -> bool:
        return self._contains(_as_exponents(m, self.nvars))

    def _contains(self, m: tuple) -> bool:
        # m is an exponent vector already checked against nvars
        return any(divides(g, m) for g in self.gens)

    def equals(self, other: "MonomialIdeal") -> bool:
        # mutual generator membership, not generator-list identity
        if self.nvars != other.nvars:
            return False
        return all(other._contains(g) for g in self.gens) and all(
            self._contains(g) for g in other.gens
        )

    def is_squarefree(self) -> bool:
        return all(all(v <= 1 for v in g) for g in self.gens)

    def labels(self) -> list:
        return [monomial_label(g) for g in self.gens]

    def to_obj(self) -> dict:
        return {"vars": self.nvars, "gens": [list(g) for g in self.gens]}


class Multicomplex:
    """Facet-presented downward closed monomial family, top excluded."""

    def __init__(self, box, facets):
        box = _sequence(box, "the box")
        if not box or any(not _is_int(n) or n < 1 for n in box):
            raise LatticeInputError("the box needs positive integer bounds")
        vol = 1
        for n in box:
            vol *= n + 1
        if vol > _BOX_VOLUME_LIMIT:
            raise BudgetError(f"box volume {vol} exceeds {_BOX_VOLUME_LIMIT}")
        by_degree: dict[int, set] = {}  # the distinct facets, by degree
        for f in _sequence(facets, "the facets"):
            f = _as_exponents(f, len(box))
            if any(v > n for v, n in zip(f, box)):
                raise LatticeInputError(
                    f"facet {monomial_label(f)} leaves the box"
                )
            by_degree.setdefault(sum(f), set()).add(f)
        if not by_degree:
            raise LatticeInputError("a multicomplex needs at least one facet")
        if box in by_degree.get(sum(box), ()):
            raise LatticeInputError("the top multiset cannot be a face")
        # a monomial can only divide one of strictly larger degree, so each
        # degree is tested against the maximal facets already kept
        maximal = []
        for degree in sorted(by_degree, reverse=True):
            maximal += [f for f in by_degree[degree] if not any(divides(f, g) for g in maximal)]
        self.box = box
        self.facets = tuple(
            sorted(maximal, key=lambda f: (sum(f),) + tuple(-v for v in f))
        )
        self._host = None
        self._nonfaces = None
        self._polarized = None

    @property
    def nvars(self) -> int:
        return len(self.box)

    def contains(self, m) -> bool:
        return self._contains(_as_exponents(m, self.nvars))

    def _contains(self, m: tuple) -> bool:
        # m is an exponent vector already checked against the box
        return any(divides(m, f) for f in self.facets)

    def faces(self) -> list:
        out = set()
        for f in self.facets:
            out.update(itertools.product(*(range(v + 1) for v in f)))
        return sorted(out, key=lambda m: (sum(m),) + tuple(-v for v in m))

    def host(self) -> MultisetLattice:
        if self._host is None:
            self._host = MultisetLattice(self.box)
        return self._host

    def pcomplex(self) -> PComplex:
        L = self.host()
        return PComplex(L, [L.element(f) for f in self.facets])

    @classmethod
    def from_obj(cls, obj) -> "Multicomplex":
        if not isinstance(obj, dict) or "box" not in obj or "facets" not in obj:
            raise LatticeInputError(
                "a multicomplex description needs 'box' and 'facets'"
            )
        return cls(obj["box"], obj["facets"])

    def to_obj(self) -> dict:
        return {"box": list(self.box), "facets": [list(f) for f in self.facets]}


def multicomplex_from_pcomplex(C: PComplex) -> Multicomplex:
    if not isinstance(C.lattice, MultisetLattice):
        raise LatticeInputError("only complexes on multiset lattices polarize")
    return Multicomplex(C.lattice.exponents, [f.key for f in C.facets])


# ---------------------------------------------------------------------------
# nonface ideals and irreducible intersections


def minimal_nonfaces(delta: Multicomplex) -> MonomialIdeal:
    """Minimal generators of the nonface ideal: box monomials outside the
    family all of whose decrements are faces.

    The faces are marked in one byte table over the box, indexed by
    mixed-radix position, and one scan of its rows reads off the generators:
    each is the first nonface of its row.  Every proper divisor of a
    generator is a face, so the generators form an antichain with no
    filter.  Computed once per multicomplex and cached on it, as `host()`
    caches its lattice: the facets never change and the ideal is frozen.
    """
    if delta._nonfaces is None:
        delta._nonfaces = _enumerate_minimal_nonfaces(delta)
    return delta._nonfaces


def _enumerate_minimal_nonfaces(delta: Multicomplex) -> MonomialIdeal:
    box = delta.box
    # mixed-radix strides, last exponent fastest, as itertools.product runs
    strides = [1] * len(box)
    for i in range(len(box) - 2, -1, -1):
        strides[i] = strides[i + 1] * (box[i + 1] + 1)
    width = box[-1] + 1  # a row: the positions that differ in the last exponent
    face = bytearray(strides[0] * (box[0] + 1))
    for f in delta.facets:
        # the down-set of f is a run of f[-1] + 1 positions from each of these
        starts = [0]
        for v, s in zip(f[:-1], strides):
            starts = [p + k * s for p in starts for k in range(v + 1)]
        run = b"\x01" * (f[-1] + 1)
        for p in starts:
            face[p : p + len(run)] = run
    # the faces of a row are a prefix of it, so a generator is the first
    # nonface of its row, when its decrements in the other exponents are faces
    gens = []
    for row, q in enumerate(itertools.product(*(range(n + 1) for n in box[:-1]))):
        p = face.find(0, row * width, (row + 1) * width)
        if p >= 0 and all(face[p - s] for v, s in zip(q, strides) if v):
            gens.append(q + (p - row * width,))
    # rows ascend in lexicographic order; ideals keep descending order
    return MonomialIdeal(len(box), tuple(reversed(gens)))


def irreducible_ideal(sigma, nvars=None) -> MonomialIdeal:
    """P_sigma: pure powers x_i^{v_i(sigma)+1}."""
    sigma = _as_exponents(sigma, nvars)
    l = len(sigma)
    gens = []
    for i, v in enumerate(sigma):
        g = [0] * l
        g[i] = v + 1
        gens.append(tuple(g))
    return MonomialIdeal.from_gens(l, gens)


def intersect_monomial_ideals(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if I.nvars != J.nvars:
        raise LatticeInputError("ideals live in different variable counts")
    if len(I.gens) > _GENERATOR_LIMIT or len(J.gens) > _GENERATOR_LIMIT:
        raise BudgetError(f"ideal intersection capped at {_GENERATOR_LIMIT} generators")
    gens = [monomial_lcm(g, h) for g in I.gens for h in J.gens]
    return MonomialIdeal.from_gens(I.nvars, gens)


def _intersect_irreducibles(nvars: int, components) -> tuple:
    """The intersection of the P_s over the components s, one component at a
    time (Miller and Sturmfels, Ch. 5), and the largest generator count it
    held.  Refused, as `intersect_monomial_ideals` refuses, when an ideal
    about to be intersected has more than _GENERATOR_LIMIT generators.
    """
    gens = [(0,) * nvars]
    peak = 1
    for s in components:
        if len(gens) > _GENERATOR_LIMIT:
            raise BudgetError(f"ideal intersection capped at {_GENERATOR_LIMIT} generators")
        # a generator above s in some row lies in P_s and stays minimal; the
        # others are raised to x_i^{s_i+1} in each row i.  Only a generator
        # above s in row i alone, by one, or one raised in row i, can divide
        # a monomial raised in row i, and a divisor has smaller degree.
        kept = []
        divisors = [[] for _ in s]
        raised = []
        for g in gens:
            over = [i for i, (v, c) in enumerate(zip(g, s)) if v > c]
            if not over:
                raised += [(g[:i] + (c + 1,) + g[i + 1 :], i) for i, c in enumerate(s)]
                continue
            kept.append(g)
            if len(over) == 1 and g[over[0]] == s[over[0]] + 1:
                divisors[over[0]].append(g)
        raised.sort(key=lambda hi: sum(hi[0]))
        for h, i in raised:
            if not any(divides(d, h) for d in divisors[i]):
                divisors[i].append(h)
                kept.append(h)
        gens = kept
        peak = max(peak, len(gens))
    return MonomialIdeal(nvars, tuple(sorted(gens, reverse=True))), peak


def meets_of_facets(delta: Multicomplex) -> tuple:
    """Closure of the facet set under pairwise gcd, facets included."""
    if len(delta.facets) > _FACET_MEET_LIMIT:
        raise BudgetError(f"meet closure capped at {_FACET_MEET_LIMIT} facets")
    # the gcds of the subsets of the first facets, extended one facet at a time
    closed: set = set()
    for f in delta.facets:
        closed |= {monomial_gcd(f, m) for m in closed}
        closed.add(f)
    return tuple(sorted(closed, key=lambda m: (-sum(m),) + tuple(-v for v in m)))


@dataclass(frozen=True)
class SectionCheck:
    """Outcome of the section ring check.

    work counts what the check did: the positions of the face table the
    nonface ideal is read from (the box volume), the size of the meet
    closure, and the largest generator count either intersection held,
    against the limit on the ideals it intersects.
    """

    equal: bool
    witness: tuple | None
    nonface_ideal: MonomialIdeal
    facet_intersection: MonomialIdeal
    work: dict

    def to_obj(self) -> dict:
        obj = {
            "equal": self.equal,
            "nonface_ideal": self.nonface_ideal.labels(),
            "facet_intersection": self.facet_intersection.labels(),
            "work": dict(self.work),
        }
        if self.witness is not None:
            obj["witness"] = monomial_label(self.witness)
            obj["witness_exponents"] = list(self.witness)
        return obj


def section_ring_check(delta: Multicomplex) -> SectionCheck:
    """Compare the nonface ideal against the intersection of the P_sigma.

    A = nonface ideal, B = intersection over the facets, C = intersection
    over the gcd closure of the facets, each computed on its own: A from the
    face table of the box, B and C one irreducible component at a time.
    B = C and A inside B always hold and are asserted; the check reports
    equality of A and B, or the first generator of B missing from A as
    witness.
    """
    A = minimal_nonfaces(delta)
    l = delta.nvars
    B, peak_b = _intersect_irreducibles(l, delta.facets)
    meets = meets_of_facets(delta)
    C, peak_c = _intersect_irreducibles(l, meets)
    if not B.equals(C):
        raise LatticeError(
            "facet intersection and meet-closure intersection disagree"
        )
    for g in A.gens:
        if not B._contains(g):
            raise LatticeError("the nonface ideal escapes the facet intersection")
    witness = None
    for g in B.gens:
        if not A._contains(g):
            witness = g
            break
    work = {
        "box_positions": math.prod(n + 1 for n in delta.box),
        "meet_closure": len(meets),
        "peak_generators": max(peak_b, peak_c),
        "generator_limit": _GENERATOR_LIMIT,
    }
    return SectionCheck(witness is None, witness, A, B, work)


# ---------------------------------------------------------------------------
# polarization


def polar_label(v) -> str:
    i, j = v
    return "x_{%d,%d}" % (i, j)


def polar_monomial_label(p) -> str:
    if not p:
        return "1"
    return "*".join(polar_label(v) for v in sorted(p))


def polarize_monomial(m, box) -> frozenset:
    """x_i^a becomes x_{i,1}...x_{i,a}; pairs are 1-based (variable, copy)."""
    box = tuple(box)
    m = _as_exponents(m, len(box))
    if any(v > n for v, n in zip(m, box)):
        raise LatticeInputError(f"{monomial_label(m)} leaves the box")
    return frozenset(
        (i + 1, j + 1) for i, v in enumerate(m) for j in range(v)
    )


def depolarize(p, nvars=None):
    """Substitute x_{i,j} back to x_i: exponent = copies present per row."""
    if nvars is None:
        nvars = max((i for i, _ in p), default=0)
    counts = [0] * nvars
    for i, _ in p:
        if not 1 <= i <= nvars:
            raise LatticeInputError(f"polar variable row {i} out of range")
        counts[i - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class PolarizedIdeal:
    """Squarefree lift of a monomial ideal over (variable, copy) pairs."""

    ranges: tuple
    gens: tuple

    def labels(self) -> list:
        return [polar_monomial_label(g) for g in self.gens]

    def to_obj(self) -> dict:
        return {
            "ranges": list(self.ranges),
            "gens": [[list(v) for v in sorted(g)] for g in self.gens],
        }


def polarize_ideal(I: MonomialIdeal) -> PolarizedIdeal:
    if len(I.gens) > _GENERATOR_LIMIT:
        raise BudgetError(f"polarization capped at {_GENERATOR_LIMIT} generators")
    ranges = tuple(
        max((g[i] for g in I.gens), default=0) for i in range(I.nvars)
    )
    gens = tuple(polarize_monomial(g, ranges) for g in I.gens)
    # prefix lifts preserve divisibility, so minimality must survive
    for g in gens:
        if any(h != g and h <= g for h in gens):
            raise LatticeError("polarization broke generator minimality")
    return PolarizedIdeal(ranges, gens)


def polar_universe(box) -> tuple:
    return tuple((i + 1, j + 1) for i, n in enumerate(box) for j in range(n))


def _facet_family_masks(delta: Multicomplex, pos) -> set:
    # the candidate family: for each face b of a facet, keep every copy
    # except x_{i,b_i+1} in each row
    box = delta.box
    full = (1 << len(pos)) - 1
    out = set()
    for b in delta.faces():
        mask = full
        for i, v in enumerate(b):
            if v < box[i]:
                mask &= ~(1 << pos[(i + 1, v + 1)])
        out.add(mask)
    return out


def _complement_facet_masks(delta: Multicomplex, pos) -> set:
    # the facets are the complements of the minimal transversals of the
    # polarized generators' supports, found by Berge's algorithm: the
    # minimal transversals of the generators seen so far, extended by one
    # generator at a time, smaller generators first
    gen_masks = []
    for g in minimal_nonfaces(delta).gens:
        gm = 0
        for v in polarize_monomial(g, delta.box):
            gm |= 1 << pos[v]
        gen_masks.append(gm)
    transversals = [0]
    for gm in sorted(gen_masks, key=int.bit_count):
        bits = [1 << k for k in range(gm.bit_length()) if gm >> k & 1]
        hit = [t for t in transversals if t & gm]
        grown = {t | b for t in transversals if not t & gm for b in bits}
        # a grown transversal never contains another grown one, and it can
        # only contain a smaller one that already met the generator
        by_size: dict[int, list] = {}
        for t in hit:
            by_size.setdefault(t.bit_count(), []).append(t)
        for c in grown:
            size = c.bit_count()
            if not any(
                t & c == t for s, ts in by_size.items() if s < size for t in ts
            ):
                hit.append(c)
        transversals = hit
    full = (1 << len(pos)) - 1
    return {full & ~t for t in transversals}


def polarized_complex(delta: Multicomplex) -> SimplicialComplex:
    """The simplicial complex whose nonface ideal is the polarized nonface
    ideal of the multicomplex.

    Built twice, as the maximal members of the per-face candidate family
    and as the complements of the minimal transversals of the polarized
    generators, and the two facet sets must coincide.  Built once per
    multicomplex and cached on it, as `minimal_nonfaces` caches the ideal.
    """
    if delta._polarized is None:
        delta._polarized = _build_polarized_complex(delta)
    return delta._polarized


def _build_polarized_complex(delta: Multicomplex) -> SimplicialComplex:
    universe = polar_universe(delta.box)
    if len(universe) > _POLAR_VARIABLE_LIMIT:
        raise BudgetError(
            f"polarization capped at {_POLAR_VARIABLE_LIMIT} variables"
        )
    pos = {v: k for k, v in enumerate(universe)}
    # SimplicialComplex keeps the maximal members of the candidate family
    sc = SimplicialComplex([polar_label(v) for v in universe], _facet_family_masks(delta, pos))
    if set(sc.facet_masks) != _complement_facet_masks(delta, pos):
        raise LatticeError("polarized facet constructions disagree")
    return sc


# ---------------------------------------------------------------------------
# non-pure shellability


_NONPURE_SEARCH_LIMIT = 14


def find_nonpure_shelling(facets, cap: int = _NONPURE_SEARCH_LIMIT):
    """Search for a non-pure shelling order over all facet orders.

    Facet k rescues the pair (i, j) when F_j - F_k = {v} with v not in F_i,
    and the subset search of `pcomplex` finds the first order, facets tried
    in the given order, in which every pair is rescued.  Returns a tuple of
    facets or None.
    """
    F = [frozenset(f) for f in facets]
    t = len(F)
    if t > cap:
        raise BudgetError(f"shelling search capped at {cap} facets")
    rescue = [[0] * t for _ in range(t)]
    for j in range(t):
        for k in range(t):
            rest = F[j] - F[k]
            if len(rest) == 1:
                (v,) = rest
                for i in range(t):
                    if v not in F[i]:
                        rescue[i][j] |= 1 << k
    order = _subset_search(t, rescue)
    return None if order is None else tuple(F[j] for j in order)


@dataclass(frozen=True)
class PolarizedShellingReport:
    """Outcome of shelling the polarized complex.

    constructed_ok reports whether the order lifted from the multicomplex
    shelling already works; when it does not, ok still holds if a shelling
    was found by search, and the witness points at the lifted order's
    failure.
    """

    ok: bool
    order: tuple
    multicomplex_order: tuple
    constructed_ok: bool
    witness: dict | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj = {
            "ok": self.ok,
            "constructed_order_ok": self.constructed_ok,
            "order": [sorted(polar_label(v) for v in f) for f in self.order],
            "multicomplex_order": [monomial_label(f) for f in self.multicomplex_order],
        }
        return _with_verdict(obj, self.witness, self.detail)


def _shelling_order_for(delta: Multicomplex, order):
    L = delta.host()
    C = delta.pcomplex()
    if order is not None:
        order = [L.element(_as_exponents(f, delta.nvars)) for f in order]
        rep = verify_shelling(C, order)
        if not rep.ok:
            raise LatticeInputError("the given facet order is not a shelling")
        return [f.key for f in order]
    rep = verify_shelling(C)
    if rep.ok:
        return [f.key for f in rep.order]
    found = find_shelling(C)
    if found is None:
        raise LatticeInputError("the multicomplex is not shellable")
    return [f.key for f in found]


def polarized_shelling(delta: Multicomplex, order=None) -> PolarizedShellingReport:
    """Shell the polarized complex of a shellable multicomplex.

    The first candidate orders the polarized facets by their host facet's
    position in the multicomplex shelling, larger copy vectors first on
    ties.  That order can fail the non-pure condition even though a
    shelling exists, so on failure an exhaustive search runs and the
    report carries both verdicts.
    """
    dorder = _shelling_order_for(delta, order)
    dpos = {f: k for k, f in enumerate(dorder)}
    sc = polarized_complex(delta)
    universe = polar_universe(delta.box)
    box = delta.box
    keyed = []
    for mask, facet in zip(sc.facet_masks, sc.facets):
        vars_present = frozenset(universe[k] for k in facet)
        b = []
        for i, n in enumerate(box):
            copies = {j for (row, j) in vars_present if row == i + 1}
            missing = set(range(1, n + 1)) - copies
            if len(missing) > 1:
                raise LatticeError("a polarized facet skips two copies in one row")
            b.append(min(missing) - 1 if missing else n)
        b = tuple(b)
        host = None
        for f in dorder:
            if divides(b, f):
                host = f
                break
        if host is None:
            raise LatticeError("a polarized facet has no hosting facet")
        keyed.append(((dpos[host],) + tuple(-v for v in b), mask, vars_present))
    keyed.sort(key=lambda kv: kv[0])
    constructed = tuple(v for _, _, v in keyed)
    rep = verify_nonpure_shelling([m for _, m, _ in keyed])
    if rep.ok:
        return PolarizedShellingReport(True, constructed, tuple(dorder), True)
    found = find_nonpure_shelling(constructed)
    if found is not None:
        return PolarizedShellingReport(
            True,
            found,
            tuple(dorder),
            False,
            rep.witness,
            "the order lifted from the multicomplex shelling fails; a shelling was found by search",
        )
    return PolarizedShellingReport(
        False,
        constructed,
        tuple(dorder),
        False,
        rep.witness,
        "no facet order is a shelling",
    )


# ---------------------------------------------------------------------------
# export


def export_ideal(I: MonomialIdeal, fmt: str) -> str:
    vars_ = ",".join(f"x_{i + 1}" for i in range(I.nvars))
    if fmt == "m2":
        if not I.gens:
            return f"R = QQ[{vars_}]\nI = monomialIdeal(0_R)"
        return (
            f"R = QQ[{vars_}]\nI = monomialIdeal("
            + ", ".join(I.labels())
            + ")"
        )
    if fmt == "singular":
        body = ", ".join(I.labels()) if I.gens else "0"
        return f"ring R = 0, ({vars_}), dp;\nideal I = {body};"
    if fmt == "json":
        import json

        return json.dumps(I.to_obj())
    raise LatticeInputError(f"unknown export format {fmt!r}")
