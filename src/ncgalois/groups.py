"""Finite groups as multiplication tables.

A group element is its index into the table.  The uniform weight
``1/order`` plays the role of the invariant (Haar) average, so group
functions and finitely supported measures coincide as complex weight
vectors of length ``order``.

Two convolution conventions coexist and every call site names the one it
uses: ``"measure"`` is the plain sum (``delta_e`` is the unit) and
``"function"`` carries the ``1/order`` weight of the normalized average.
Mixing them is the classic source of silent factor-of-``order`` bugs.

Subgroup lattices are enumerated up to conjugacy by frontier closures
(``enumerate_subgroups``), for groups up to ``SUBGROUP_ORDER_BOUND``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    OrderBoundExceeded,
    ParentMismatch,
)

SUBGROUP_ORDER_BOUND = 240
# the associativity check compares (a*b)*c with a*(b*c) this many table
# entries at a time, so its transients stay a few MB at any order
_PANEL_ENTRIES = 2 ** 19


class FiniteGroup:
    """Multiplication-table group with identity and inverses precomputed.

    Parameters
    ----------
    mult : (n, n) integer array
        ``mult[a, b]`` is the index of the product ``a * b``.
    labels : optional list of display names, one per element.

    All group axioms are checked on construction; violations raise an
    error naming the axiom and a witness triple.
    """

    def __init__(self, mult, labels=None):
        table = np.asarray(mult, dtype=np.intp)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotLatinSquare(f"table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise NoIdentity("empty table")
        if table.min() < 0 or table.max() >= n:
            raise NotLatinSquare("table entries must lie in 0..n-1")

        # a row or column is a permutation exactly when it sorts to 0..n-1;
        # row a is reported before column a, and both before row a + 1
        idx = np.arange(n)
        bad_rows = np.any(np.sort(table, axis=1) != idx, axis=1)
        bad_cols = np.any(np.sort(table, axis=0) != idx[:, None], axis=0)
        if bad_rows.any() or bad_cols.any():
            a = int(np.argmax(bad_rows | bad_cols))
            what = "row" if bad_rows[a] else "column"
            raise NotLatinSquare(f"{what} {a} repeats an element")

        # cheap axioms first: identity and inverses are reachable failures
        # even on tables whose associativity never gets examined
        is_identity = np.all(table == idx, axis=1) & np.all(table == idx[:, None], axis=0)
        if not is_identity.any():
            raise NoIdentity("no two-sided identity element")
        identity = int(np.argmax(is_identity))

        # rows are Latin, so each a has exactly one right inverse; it must be a left one too
        inverse = np.argmax(table == identity, axis=1)
        one_sided = table[inverse, idx] != identity
        if one_sided.any():
            raise NoInverse(f"element {int(np.argmax(one_sided))} has no two-sided inverse")

        # (a*b)*c == a*(b*c) for all triples, a panel of rows a at a time; the
        # first failing triple is the least (a, b, c), as over the whole cube
        rows = max(1, _PANEL_ENTRIES // (n * n))
        for start in range(0, n, rows):
            panel = table[start:start + rows]
            # left[a, b, c] = (a*b)*c and right[a, b, c] = a*(b*c), a in the panel
            bad = np.argwhere(table[panel, :] != panel[:, table])
            if bad.size:
                a, b, c = map(int, bad[0])
                a += start
                raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

        self.mult = table
        self.mult.setflags(write=False)
        # the table as nested lists: closures grow Python sets of ints, which
        # beat numpy indexing at these sizes
        self._rows = table.tolist()
        self.order = n
        self.identity = identity
        self.inverse = inverse
        self.inverse.setflags(write=False)
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ParentMismatch("labels length does not match group order")
        self.generators = generating_set(self, range(n))

    # -- basic operations --------------------------------------------------
    def op(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.op(self.op(g, x), self.inv(g))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            k += 1
        return k

    def key(self) -> bytes:
        return self.mult.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.mult, other.mult)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as a sorted member tuple, with its ``generating_set``."""

    parent: FiniteGroup
    members: tuple = field(default=())
    generators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", members)
        g = self.parent
        if members and (members[0] < 0 or members[-1] >= g.order):
            raise ParentMismatch(f"subgroup members must lie in 0..{g.order - 1}")
        if g.identity not in members:
            raise NoIdentity("subgroup does not contain the identity")
        # the first failing member a, its inverse checked before its products a*b
        m = np.array(members, dtype=np.intp)
        inside = np.zeros(g.order, dtype=bool)
        inside[m] = True
        closed = inside[g.mult[np.ix_(m, m)]]
        has_inverse = inside[g.inverse[m]]
        failing = ~has_inverse | ~closed.all(axis=1)
        if failing.any():
            i = int(np.argmax(failing))
            if not has_inverse[i]:
                raise NoInverse(f"subgroup not closed under inverse at {members[i]}")
            b = members[int(np.argmin(closed[i]))]
            raise NotAssociative(
                f"subgroup not closed under product at ({members[i]},{b})"
            )
        object.__setattr__(self, "generators", generating_set(g, members))

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, other: "Subgroup") -> bool:
        return set(other.members) <= set(self.members)

    def __le__(self, other: "Subgroup") -> bool:
        return other.contains(self)


def closure(group: FiniteGroup, seed) -> tuple:
    """Smallest subgroup member set containing ``seed``.

    In a finite group a nonempty set closed under products is a subgroup,
    and the set reached from the identity by right multiplication by the
    seed is closed under products.  So only the members found in the last
    round are multiplied, each by every seed element: O(|J| |S|) for a
    closure J of a seed S.
    """
    return _grown(group, {group.identity}, {group.identity}, [int(s) for s in seed])


def _grown(group: FiniteGroup, members: set, frontier: set, gens) -> tuple:
    """Sorted ``members`` once closed under right multiplication by ``gens``,
    where every member outside ``frontier`` has already been multiplied by
    each of ``gens``; ``members`` is grown in place."""
    rows = group._rows
    while frontier:
        frontier = {rows[x][s] for x in frontier for s in gens}
        frontier -= members
        members |= frontier
    return tuple(sorted(members))


def generating_set(group: FiniteGroup, members) -> tuple:
    """Greedy generators: each ascending member not in the closure of those kept,
    which is taken again only when a generator is kept."""
    kept: list = []
    span = {group.identity}
    for a in members:
        if a not in span:
            kept.append(a)
            span = set(closure(group, kept))
    return tuple(kept)


def enumerate_subgroups(group: FiniteGroup, order_bound: int = SUBGROUP_ORDER_BOUND):
    """All subgroups, each exactly once, sorted by (size, member list).

    Exact cyclic extension (Neubüser 1960): every subgroup is the join of
    the cyclic subgroups of its elements, so joining each subgroup found
    with each cyclic subgroup, once, from a worklist reaches the full lattice.
    It runs up to conjugacy: gHg^-1 joined with <a> is the conjugate by g of
    H joined with <g^-1 a g>, so only the first subgroup found in each class
    is joined, and all its conjugates are read off ``conjugation_table``
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005).
    That subgroup H is kept with the generators it was found from, and its
    join with <a> grows H by right multiplication by them and a, starting
    from H a (``closure``), so no member of H is multiplied by H's own
    generators again.
    """
    if group.order > order_bound:
        raise OrderBoundExceeded(
            f"group order {group.order} exceeds bound {order_bound}"
        )
    rows = group._rows
    conj = conjugation_table(group)
    cyclic: dict = {}   # members of <a> -> its least generator a
    for a in range(group.order):
        cyclic.setdefault(closure(group, [a]), a)
    found: set = set()
    work = []           # (members, generators) of the first subgroup found in each class

    def add(members: tuple, gens: tuple) -> None:
        if members not in found:
            found.update(map(tuple, np.sort(conj[:, list(members)], axis=1).tolist()))
            work.append((members, gens))

    add((group.identity,), ())
    for c, a in cyclic.items():
        add(c, (a,))
    while work:
        h, gens = work.pop()
        members = set(h)
        for a in cyclic.values():
            if a not in members:
                frontier = {rows[x][a] for x in h}
                add(_grown(group, members | frontier, frontier, gens + (a,)), gens + (a,))
    members_sorted = sorted(found, key=lambda m: (len(m), m))
    return [Subgroup(group, m) for m in members_sorted]


def conjugation_table(group: FiniteGroup) -> np.ndarray:
    """conj[g, x] = g * x * g^-1 for every pair."""
    return group.mult[group.mult, group.inverse[:, None]]


def conjugacy_classes(group: FiniteGroup):
    """Partition of the element set into conjugacy classes."""
    # each element is labelled by the least member of its class, and the
    # least members are the elements that label themselves
    least = conjugation_table(group).min(axis=0)
    classes = [tuple(np.flatnonzero(least == r).tolist())
               for r in np.flatnonzero(least == np.arange(group.order))]
    classes.sort(key=lambda c: (len(c), c))
    return classes


def subgroup_classes(group: FiniteGroup, subgroups) -> list:
    """(representative index, g) for each subgroup H, with g * R * g^-1 = H.

    The representative R is the first of the given subgroups in H's
    conjugacy class, and maps to itself by the identity; for every other H,
    g is the least element that carries R onto H.  Only the given subgroups
    are compared, by their exact member sets under the conjugation table.
    """
    conj = conjugation_table(group)
    found: dict = {}   # members of a conjugate of a representative -> (index, g)
    out = []
    for j, h in enumerate(subgroups):
        if h.parent != group:
            raise ParentMismatch("subgroup of another group")
        if h.members not in found:
            found[h.members] = (j, group.identity)
            images = np.sort(conj[:, list(h.members)], axis=1)
            for g, image in enumerate(images):
                found.setdefault(tuple(image.tolist()), (j, g))
        out.append(found[h.members])
    return out


def is_normal(subgroup: Subgroup) -> bool:
    """True iff the subgroup is a union of conjugacy classes."""
    g = subgroup.parent
    members = list(subgroup.members)
    inside = np.zeros(g.order, dtype=bool)
    inside[members] = True
    return bool(inside[conjugation_table(g)[:, members]].all())


# ---------------------------------------------------------------------------
# group functions (== finitely supported measures) and convolution


def _check_parent(group: FiniteGroup, *functions) -> list:
    out = []
    for f in functions:
        v = np.asarray(f, dtype=np.complex128).reshape(-1)
        if v.shape[0] != group.order:
            raise ParentMismatch(
                f"group function has length {v.shape[0]}, expected {group.order}"
            )
        out.append(v)
    return out


def convolve(group: FiniteGroup, x, y, kind: str) -> np.ndarray:
    """Convolution on the group, in the named convention.

    ``kind="measure"``:  (x * y)(g) = sum_h x(h) y(h^-1 g); delta_e is the unit.
    ``kind="function"``: the same sum weighted by 1/order, matching the
    normalized invariant average.
    """
    x, y = _check_parent(group, x, y)
    if kind not in ("measure", "function"):
        raise ValueError(f"unknown convolution kind {kind!r}")
    # out[g] = sum_h x[h] * y[inv(h) g]
    hg = group.mult[group.inverse, :]          # hg[h, g] = inv(h) * g
    out = x @ y[hg]
    if kind == "function":
        out = out / group.order
    return out


def involute(group: FiniteGroup, x) -> np.ndarray:
    """Adjoint weight vector: x*(g) = conj(x(g^-1))."""
    (x,) = _check_parent(group, x)
    return np.conj(x[group.inverse])


# ---------------------------------------------------------------------------
# named groups used throughout the test-bench


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n,
                       labels=[f"r{k}" for k in range(n)])


def _perm_group(perms, labels):
    """The group of the permutations ``perms``, listed in lexicographic order.

    Element i * j acts with perms[j] first, then perms[i]: every product is
    one fancy-indexed composition, and its index is its lexicographic rank
    among ``perms``, read off their base-degree codes by ``np.searchsorted``.
    """
    p = np.asarray(perms, dtype=np.intp)
    weights = p.shape[1] ** np.arange(p.shape[1] - 1, -1, -1)
    products = p[:, p]                 # products[i, j, k] = p[i][p[j][k]]
    table = np.searchsorted(p @ weights, products @ weights)
    return FiniteGroup(table, labels=labels)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    return _perm_group(perms, labels=["".join(map(str, p)) for p in perms])


def symmetric_action(n: int) -> np.ndarray:
    """Point images of S_n elements, in the element order of symmetric_group."""
    return np.array(sorted(itertools.permutations(range(n))), dtype=np.intp)


def alternating_group(n: int) -> FiniteGroup:
    def parity(p):
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        return inv % 2

    perms = sorted(p for p in itertools.permutations(range(n)) if parity(p) == 0)
    return _perm_group(perms, labels=["".join(map(str, p)) for p in perms])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element (k, s) = rot^k * flip^s."""
    elems = [(k, s) for s in (0, 1) for k in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    order = 2 * n
    table = np.zeros((order, order), dtype=np.intp)
    for i, (k1, s1) in enumerate(elems):
        for j, (k2, s2) in enumerate(elems):
            # (r^k1 f^s1)(r^k2 f^s2) = r^(k1 + k2*(-1)^s1) f^(s1+s2)
            k = (k1 + (k2 if s1 == 0 else -k2)) % n
            table[i, j] = index[(k, (s1 + s2) % 2)]
    labels = [f"r{k}" if s == 0 else f"r{k}f" for (k, s) in elems]
    return FiniteGroup(table, labels=labels)


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # encode q = (sign, axis) with axis in {1, i, j, k}
    def decode(m):
        return (-1 if m % 2 else 1, m // 2)

    def encode(sign, axis):
        return 2 * axis + (0 if sign == 1 else 1)

    mul = {  # quaternion axis products: (axis, axis) -> (sign, axis)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = np.zeros((8, 8), dtype=np.intp)
    for a in range(8):
        for b in range(8):
            s1, x1 = decode(a)
            s2, x2 = decode(b)
            s3, x3 = mul[(x1, x2)]
            table[a, b] = encode(s1 * s2 * s3, x3)
    return FiniteGroup(table, labels=labels)


FIXTURE_GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z4": lambda: cyclic_group(4),
    "Z6": lambda: cyclic_group(6),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": lambda: alternating_group(4),
    "S4": lambda: symmetric_group(4),
}
