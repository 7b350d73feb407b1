"""Reference constructions the tests hold the package's kernels against."""

import itertools

import numpy as np

from ncgalois import algebras, galois
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import OrderBoundExceeded
from ncgalois.groups import SUBGROUP_ORDER_BOUND, FiniteGroup, Subgroup
from ncgalois.linalg import DEFAULT_TOL, Tolerance, dagger, frob


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


# ---------------------------------------------------------------------------
# group-image checks on every pair or every member, which the package runs
# on generators instead


def is_homomorphism_all_pairs(group: FiniteGroup, mats: np.ndarray) -> bool:
    """Unitarity, U(e) = 1 and U(a)U(b) = U(ab) on all |G|^2 pairs, at the package's bounds."""
    d = mats.shape[1]
    eye = np.eye(d)
    unitary = max(frob(dagger(m) @ m - eye) for m in mats) <= 1e-8 * max(1.0, d)
    identity = frob(mats[group.identity] - eye) <= 1e-8
    pairs = float(np.max(np.abs(mats[:, None] @ mats[None] - mats[group.mult]))) <= 1e-8
    return bool(unitary and identity and pairs)


def ad_group_law_all_pairs(group: FiniteGroup, basis: np.ndarray, unitaries) -> float:
    """Worst |U_a U_b B (U_a U_b)* - U_ab B U_ab*|_F over all pairs (a, b) and basis B."""
    u = np.asarray(unitaries, dtype=np.complex128)
    moved = u[:, None] @ basis[None] @ dagger(u)[:, None]            # (a, B)
    twice = u[:, None, None] @ moved[None] @ dagger(u)[:, None, None]  # (a, b, B)
    return float(np.max(np.linalg.norm(twice - moved[group.mult], axis=(-2, -1))))


def all_members_certificate(rep, subgroup: Subgroup, basis: np.ndarray) -> float:
    """Worst |U_h X - X U_h|_F / max(|U_h|_F, 1) over every member h and basis element X."""
    worst = 0.0
    for h in subgroup.members:
        b = rep.matrices[h]
        moved = np.linalg.norm(b @ basis - basis @ b, axis=(1, 2))
        worst = max(worst, float(np.max(moved, initial=0.0)) / max(frob(b), 1.0))
    return worst


def every_row(report, m: StarAlgebra, pi, subgroups, tol: Tolerance = DEFAULT_TOL) -> None:
    """``galois._fill_rows`` with a fixed-point kernel and a bicommutant test on every row."""
    mode = report.mode

    def row(j):
        fixed = algebras.fixed_point_algebra(m, pi, subgroups[j], tol)
        if mode == "inner":
            once = algebras.relative_commutant(fixed, m, tol)
            twice = algebras.relative_commutant(once, m, tol)
        else:
            once = algebras.commutant(fixed, tol)
            twice = algebras.commutant(once, tol)
        residual = twice.subspace().distance(fixed.subspace())
        ok = residual <= galois._RESIDUAL_BOUND and twice.dim == fixed.dim
        return fixed, (ok, float(residual))

    galois._stream_rows(report, m, pi, subgroups, row)


class StoringInterner:
    """``galois._Interner`` as it was before rows were streamed: it keeps every
    interned subspace and confirms a match by ``Subspace.equals`` on the stored one."""

    def __init__(self, ambient_dim: int, tol: Tolerance = DEFAULT_TOL):
        rng = np.random.default_rng(galois._PROBE_SEED)
        self._probe = rng.standard_normal(ambient_dim) + 1j * rng.standard_normal(ambient_dim)
        self._bound = galois._FINGERPRINT_MATCH * np.linalg.norm(self._probe)
        self._tol = tol
        self._seen: list = []   # (fingerprint, subspace) of each id

    def id_of(self, space, key=None, contains=None) -> int:
        fp = space.project(self._probe)
        for i, (fp0, space0) in enumerate(self._seen):
            if (space0.dim == space.dim and np.linalg.norm(fp - fp0) <= self._bound
                    and space.equals(space0, self._tol)):
                return i
        self._seen.append((fp, space))
        return len(self._seen) - 1


def record_fixed_algebras(monkeypatch) -> dict:
    """Patch the two builders of fixed algebras that ``galois`` calls so that
    each result is recorded, by its subgroup's members, in the returned dict.

    ``galois_map`` keeps no fixed basis; tests that compare the bases read
    them here.
    """
    built: dict = {}
    for name, at in (("fixed_point_algebra", 2), ("transported_fixed_algebra", 3)):
        def recording(*args, _honest=getattr(algebras, name), _at=at, **kwargs):
            fixed = _honest(*args, **kwargs)
            built[args[_at].members] = fixed
            return fixed
        monkeypatch.setattr(algebras, name, recording)
    return built


def anti_monotone_by_generators(pi, fixed_algebras: dict, subgroups, bound: float = 1e-9) -> list:
    """``galois_map``'s audit before rows were streamed, H1 outer and H2 inner:
    (pair, residual) for each H1 < H2 whose M^{H2} fails to commute with H1's generators."""
    flagged = []
    for s1 in subgroups:
        gens = pi.matrices[list(s1.generators)]
        for s2 in subgroups:
            if s1.members == s2.members or not s2.contains(s1):
                continue
            res = algebras.commutator_residual(gens, fixed_algebras[s2.members].basis)
            if res > bound:
                flagged.append(((s1.members, s2.members), float(res)))
    return flagged


def anti_monotone_by_projection(fixed_algebras: dict, subgroups, bound: float = 1e-9) -> list:
    """Pairs (H1, H2), H1 < H2, with M^{H2} outside M^{H1} by a projection residual > bound."""
    flagged = []
    for s1 in subgroups:
        small = fixed_algebras[s1.members].subspace()
        for s2 in subgroups:
            if s1.members != s2.members and s2.contains(s1):
                res = small.containment_residual(fixed_algebras[s2.members].subspace())
                if res > bound:
                    flagged.append((s1.members, s2.members))
    return flagged


# ---------------------------------------------------------------------------
# the crossed path built generically, which the package replaces by the
# canonical basis P_j U_g, fixed coordinates in a non-full M, and the base's
# own fixed coordinates


def generated_crossed_algebra(cp, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """The crossed algebra grown as the closure of the pi(B_k) and every U_g."""
    family = np.concatenate([cp.base_images, cp.translation.matrices])
    return algebras.algebra_from_generators(family, cp.carrier_dim, tol)


def fixed_point_by_intersection(m: StarAlgebra, rep, subgroup: Subgroup,
                                tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """M^H as the n^2 commutant kernel of every member's unitary, intersected with M."""
    n = rep.dim
    fixed = algebras.commutant_of_matrices(rep.matrices[list(subgroup.members)], n, tol)
    inter = fixed.subspace().intersect(m.subspace(), tol)
    return StarAlgebra(n, inter.basis.T.reshape(-1, n, n))


def pullbacks_by_intersection(cp, fixed_algebras: dict, tol: Tolerance = DEFAULT_TOL) -> dict:
    """M^H intersected with the span of the embedded base, per subgroup's members."""
    base_span = StarAlgebra.from_span(cp.base_images, cp.carrier_dim, tol=tol).subspace()
    return {members: fixed.subspace().intersect(base_span, tol)
            for members, fixed in fixed_algebras.items()}
