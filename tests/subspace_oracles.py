"""Reference implementation of the subspace meet.

`nullspace_meet` is the earlier `SubspaceLattice.meet`: the intersection
of the row spaces of x and y, from the null space of the stacked matrix
[x; -y] transposed (a w with w_x . x = w_y . y gives the common vector
w_x . x).  The library now takes the span of the lines both contain;
test_identity.py compares the two on every pair of small subspace
lattices.
"""

from powerlat.instances import _rref


def _nullspace(rows, q, n):
    """Basis of {w in F_q^n : rows . w = 0}."""
    rr, pivots = _rref(rows, q)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        w = [0] * n
        w[f] = 1
        for i, p in enumerate(pivots):
            w[p] = (-rr[i][f]) % q
        basis.append(tuple(w))
    return basis


def nullspace_meet(L, x, y):
    if not x.key or not y.key:
        return L.bottom
    q = L.q
    k1 = len(x.key)
    stacked = list(x.key) + [tuple((-v) % q for v in row) for row in y.key]
    transposed = [tuple(row[j] for row in stacked) for j in range(L.n)]
    vecs = []
    for w in _nullspace(transposed, q, len(stacked)):
        vec = tuple(sum(w[i] * x.key[i][j] for i in range(k1)) % q for j in range(L.n))
        if any(vec):
            vecs.append(vec)
    rr, _ = _rref(vecs, q)
    return L._make(rr)
