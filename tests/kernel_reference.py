"""Reference constructions the tests hold the package's kernels against."""

import itertools

import numpy as np

from ncgalois.errors import OrderBoundExceeded
from ncgalois.groups import SUBGROUP_ORDER_BOUND, FiniteGroup, Subgroup
from ncgalois.linalg import dagger


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + dagger(a)) / 2.0


def sylvester_gram(mats: np.ndarray) -> np.ndarray:
    """Normal matrix sum_i L_i* L_i of the maps L_i: X -> B_i X - X B_i.

    This is the unreduced n^2 x n^2 form that ``linalg.commutant_kernel``
    solves on a block-diagonal subspace.

    Expanding the Kronecker form of L_i (row-major vec) gives

        L_i* L_i = (B_i* B_i) x I  +  I x conj(B_i B_i*)
                   - B_i* x B_i^T  -  B_i x conj(B_i),

    and the cross terms collapse to one dense matmul over the family.
    """
    k, n, _ = mats.shape
    bd = dagger(mats)
    p1 = np.einsum("iab,ibc->ac", bd, mats)   # sum B*B
    p2 = np.einsum("iab,ibc->ac", mats, bd)   # sum BB*
    z = bd.reshape(k, n * n).T @ mats.transpose(0, 2, 1).reshape(k, n * n)
    x = z.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    eye = np.eye(n, dtype=np.complex128)
    return np.kron(p1, eye) + np.kron(eye, p2.conj()) - x - dagger(x)


def closure(group: FiniteGroup, seed) -> tuple:
    """Smallest subgroup member set containing ``seed``, one product at a time."""
    members = {group.identity}
    members.update(int(s) for s in seed)
    frontier = list(members)
    while frontier:
        new = []
        for a in frontier:
            inv = group.inv(a)
            if inv not in members:
                members.add(inv)
                new.append(inv)
        for a in list(members):
            for b in list(members):
                c = group.op(a, b)
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(members))


def enumerate_subgroups(group: FiniteGroup, order_bound: int = SUBGROUP_ORDER_BOUND):
    """All subgroups, each exactly once, sorted by (size, member list).

    Exact brute force: close every cyclic subgroup, then saturate under
    pairwise joins.  Every subgroup is the join of the cyclic subgroups of
    its elements, so the fixpoint contains the full lattice.
    """
    if group.order > order_bound:
        raise OrderBoundExceeded(
            f"group order {group.order} exceeds bound {order_bound}"
        )
    found = {closure(group, [a]) for a in range(group.order)}
    found.add((group.identity,))
    while True:
        fresh = set()
        for h1, h2 in itertools.combinations(sorted(found), 2):
            j = closure(group, h1 + h2)
            if j not in found:
                fresh.add(j)
        if not fresh:
            break
        found |= fresh
    members_sorted = sorted(found, key=lambda m: (len(m), m))
    return [Subgroup(group, m) for m in members_sorted]
