"""The earlier per-family lattice kernels, kept as test oracles.

Before interning became cache first, `_make` built an element's rank and
valuation on every call and only then found the element already interned,
the multiset kernels ran generator expressions, `atom_power` built its
exponent tuple coordinate by coordinate, and the subspace meet reduced the
shared lines to echelon form on every call.  The classes here restore those
kernels verbatim; the Boolean join, meet and leq and the product kernels did
not change and are inherited.  test_kernels.py compares the library with
them: on a view of one host, through its intern cache (`oracle_view`), and
on a fresh copy built with these kernels alone (`oracle_copy`).
"""

import copy
import itertools

from powerlat import (
    BooleanLattice,
    DivisorLattice,
    LatticeInputError,
    MultisetLattice,
    ProductLattice,
    SubspaceLattice,
)
from powerlat.instances import _rref


class OracleBoolean(BooleanLattice):
    def _make(self, idxs):
        val = tuple(1 if i in idxs else 0 for i in range(self.n))
        return self._new(idxs, len(idxs), val)


class OracleMultiset(MultisetLattice):
    def _make(self, t):
        return self._new(t, sum(t), t)

    def join(self, x, y):
        return self._make(tuple(max(a, b) for a, b in zip(x.key, y.key)))

    def meet(self, x, y):
        return self._make(tuple(min(a, b) for a, b in zip(x.key, y.key)))

    def leq(self, x, y):
        return all(a <= b for a, b in zip(x.key, y.key))

    def atom_power(self, w, power_rank):
        idx = self.atom_index(w)
        if power_rank < 0:
            raise LatticeInputError("a power rank must be nonnegative")
        if power_rank > self.exponents[idx]:
            return None
        t = tuple(power_rank if i == idx else 0 for i in range(len(self.exponents)))
        return self._make(t)


class OracleDivisor(DivisorLattice):
    _make = OracleMultiset._make
    join = OracleMultiset.join
    meet = OracleMultiset.meet
    leq = OracleMultiset.leq
    atom_power = OracleMultiset.atom_power


class OracleSubspace(SubspaceLattice):
    def _make(self, rows):
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
        return self._new(rows, k, tuple(marks))

    def meet(self, x, y):
        shared = [
            line for line, a, b in zip(self._lines, x.valuation, y.valuation) if a and b
        ]
        return self._make(_rref(shared, self.q)[0])

    def leq(self, x, y):
        return all(a <= b for a, b in zip(x.valuation, y.valuation))


# library family -> (its oracle, the constructor arguments of a copy); the
# more specific family first
_ORACLES = (
    (DivisorLattice, OracleDivisor, lambda L: (L.number,)),
    (MultisetLattice, OracleMultiset, lambda L: (L.exponents, L.labels)),
    (BooleanLattice, OracleBoolean, lambda L: (L.n, L.labels)),
    (SubspaceLattice, OracleSubspace, lambda L: (L.q, L.n)),
    (ProductLattice, ProductLattice, lambda L: ([oracle_copy(f) for f in L.factors],)),
)


def _oracle(L):
    for family, oracle, args in _ORACLES:
        if isinstance(L, family):
            return oracle, args
    raise TypeError(f"no kernel oracle for {type(L).__name__}")


def oracle_view(L):
    """L under the oracle kernels: a shallow copy that shares L's intern
    cache, rank levels and atom index, so the oracle's results are L's own
    interned elements.  A product's factors are viewed the same way.  Make
    every element of L first (`L.elements()`), so that a correct kernel
    only ever finds elements in the cache."""
    view = copy.copy(L)
    view.__class__ = _oracle(L)[0]
    if isinstance(L, ProductLattice):
        view.factors = tuple(oracle_view(f) for f in L.factors)
    return view


def oracle_copy(L):
    """A fresh lattice equal to L, built with the oracle kernels only."""
    oracle, args = _oracle(L)
    return oracle(*args(L))
