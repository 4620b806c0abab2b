"""Reference implementations for the homology of a simplicial complex.

Before faces were int bitmasks and elimination ran relative to the star of
one vertex, the library had these:

- `frozenset_faces`: `SimplicialComplex.faces` as a walk down from the
  facets by frozenset differences, with the same face budget, which
  counts the facets and the empty face too;
- `tuple_levels`: the faces re-sorted into tuples, grouped by dimension;
- `tuple_boundary_rows`: the boundary rows of one dimension, each face's
  subfaces looked up by tuple slices;
- `full_reduced_betti` and `full_reduced_betti_mod2`: elimination of the
  whole reduced chain complex, the empty face included.

The differential tests in test_homology_paths.py compare the library with
them.
"""

from powerlat import BudgetError
from powerlat.ordercomplex import _rank_int, _rank_mod2


def frozenset_faces(sc, budget=20_000) -> set:
    out = {frozenset()}
    stack = list(sc.facets)
    out.update(sc.facets)
    if len(out) > budget:
        raise BudgetError(f"complex has more than {budget} faces")
    while stack:
        f = stack.pop()
        for v in f:
            g = f - {v}
            if g not in out:
                if len(out) >= budget:
                    raise BudgetError(f"complex has more than {budget} faces")
                out.add(g)
                stack.append(g)
    return out


def tuple_levels(sc, budget):
    by_dim: dict[int, list] = {}
    for f in frozenset_faces(sc, budget):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    return by_dim


def tuple_boundary_rows(by_dim, k):
    # one row per k-face: its boundary in the basis of (k-1)-faces
    below = {f: i for i, f in enumerate(by_dim.get(k - 1, ()))}
    rows = []
    for f in by_dim.get(k, ()):
        row = {}
        for t in range(len(f)):
            sub = f[:t] + f[t + 1 :]
            row[below[sub]] = 1 if t % 2 == 0 else -1
        rows.append(row)
    return rows


def _betti(by_dim, rank_of) -> tuple:
    if 0 not in by_dim:
        return ()
    top = max(by_dim)
    ranks = {k: rank_of(tuple_boundary_rows(by_dim, k)) for k in range(top + 1)}
    ranks[top + 1] = 0
    return tuple(
        len(by_dim.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    )


def full_reduced_betti(sc, budget=20_000) -> tuple:
    return _betti(tuple_levels(sc, budget), _rank_int)


def _rank_bits(rows) -> int:
    bitrows = []
    for row in rows:
        bits = 0
        for c in row:
            bits |= 1 << c
        bitrows.append(bits)
    return _rank_mod2(bitrows)


def full_reduced_betti_mod2(sc, budget=20_000) -> tuple:
    return _betti(tuple_levels(sc, budget), _rank_bits)
