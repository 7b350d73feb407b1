"""Reference constructions the tests hold the package's kernels against, and
test inputs (the Klein four-group, trivial representations, states) that the
package itself never builds."""

import itertools

import numpy as np

from ncgalois import algebras, galois, groups, linalg, modular, reps
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import NotAHomomorphism, NotInvariantAlgebra, OrderBoundExceeded
from ncgalois.groups import SUBGROUP_ORDER_BOUND, FiniteGroup, Subgroup
from ncgalois.linalg import DEFAULT_TOL, Subspace, Tolerance, dagger, frob
from ncgalois.ncprob import State
from ncgalois.reps import UnitaryRep


def klein_four_group() -> FiniteGroup:
    return FiniteGroup(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        labels=["e", "a", "b", "ab"],
    )


def trivial_rep(group: FiniteGroup, dim: int = 1) -> UnitaryRep:
    mats = np.broadcast_to(np.eye(dim, dtype=np.complex128),
                           (group.order, dim, dim)).copy()
    return UnitaryRep(group, mats, check=False)


def maximally_mixed(dim: int) -> State:
    return State(np.eye(dim, dtype=np.complex128) / dim)


def random_faithful(dim: int, rng: np.random.Generator, floor: float = 0.05) -> State:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ dagger(a) + floor * np.eye(dim)
    return State(rho / np.trace(rho).real)


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


# ---------------------------------------------------------------------------
# the kernel, the subspace distance and the commutator certificate with the
# whole answer in one product, which the package writes a panel at a time


def commutant_kernel_in_one_shot(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``linalg.commutant_kernel`` deciding on the formed gram and lifting
    every kernel vector in one conjugation."""
    mats = np.asarray(mats, dtype=np.complex128)
    n = mats.shape[1]
    scale = float(np.sqrt(np.sum(np.abs(mats) ** 2)))
    blocks = linalg.random_split(mats, np.random.default_rng(linalg._SPLIT_SEED))
    v = np.hstack(blocks)
    sizes = [q.shape[1] for q in blocks]
    gram = linalg._reduced_sylvester_gram(linalg.compress(mats, v), sizes)
    y = linalg.kernel_of_gram(gram, tol, scale=scale)
    rows, cols = linalg._block_coordinates(sizes)
    full = np.zeros((y.shape[1], n, n), dtype=np.complex128)
    full[:, rows, cols] = y.T
    return linalg.compress(full, dagger(v)).reshape(-1, n * n).T


def _worst_column(r: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(r, axis=0))) if r.shape[1] else 0.0


def distance_in_one_shot(a: Subspace, b: Subspace) -> float:
    """``Subspace.distance`` with the whole cross-Gram and both residuals formed at once."""
    p, q = a.basis, b.basis
    c = dagger(p) @ q
    return max(_worst_column(q - p @ c), _worst_column(p - q @ dagger(c)))


def commutator_residual_in_one_shot(family: np.ndarray, basis: np.ndarray) -> float:
    """``algebras.commutator_residual`` against the whole basis, one member at a time."""
    worst = 0.0
    for b in family:
        moved = np.linalg.norm(b @ basis - basis @ b, axis=(1, 2))
        worst = max(worst, float(np.max(moved, initial=0.0)) / max(frob(b), 1.0))
    return worst


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


def closure_all_pairs(group: FiniteGroup, seed) -> tuple:
    """``groups.closure`` that multiplies every pair of members in every round."""
    mask = np.zeros(group.order, dtype=bool)
    mask[group.identity] = True
    mask[np.asarray(list(seed), dtype=np.intp)] = True
    while True:
        m = np.flatnonzero(mask)
        mask[group.mult[np.ix_(m, m)]] = True
        if mask.sum() == m.size:
            return tuple(m.tolist())


def enumerate_subgroups_by_all_pairs(group: FiniteGroup, order_bound: int = SUBGROUP_ORDER_BOUND):
    """``groups.enumerate_subgroups`` over every subgroup rather than up to
    conjugacy: each subgroup found is joined with each cyclic subgroup by the
    all-pairs closure of its members and the cyclic subgroup's."""
    if group.order > order_bound:
        raise OrderBoundExceeded(
            f"group order {group.order} exceeds bound {order_bound}"
        )
    cyclic = sorted({closure_all_pairs(group, [a]) for a in range(group.order)})
    found = {(group.identity,), *cyclic}
    work = list(found)
    while work:
        h = work.pop()
        members = set(h)
        for c in cyclic:
            if not members.issuperset(c):
                j = closure_all_pairs(group, h + c)
                if j not in found:
                    found.add(j)
                    work.append(j)
    return [Subgroup(group, m) for m in sorted(found, key=lambda m: (len(m), m))]


def associativity_witness_by_cube(table: np.ndarray, columns=None):
    """The least (a, b, c) with (a*b)*c != a*(b*c), over the whole n^3 cube at
    once, or None; with ``columns``, the least whose c is one of them."""
    bad = np.argwhere(table[table, :] != table[:, table])
    if columns is not None:
        bad = bad[np.isin(bad[:, 2], list(columns))]
    return tuple(map(int, bad[0])) if bad.size else None


def subgroup_equivalence_by_irrep_matrices(group: FiniteGroup, subgroups, irrep_indices,
                                           tol: Tolerance = DEFAULT_TOL) -> tuple:
    """``galois.subgroup_equivalence`` on the joint images of the irrep matrices
    themselves: row g holds each retained irrep's matrix of g, flattened."""
    irrep_indices = list(irrep_indices)
    if not irrep_indices:
        return (tuple(range(len(subgroups))),)
    table = reps.irrep_table(group)
    images = np.concatenate([table.irreps[i].matrices.reshape(group.order, -1)
                             for i in irrep_indices], axis=1)
    interner = galois._Interner(images.shape[1])
    classes: dict = {}
    for j, h in enumerate(subgroups):
        span = Subspace.from_span(images[list(h.members)], images.shape[1], tol)
        span_id = interner.id_of(
            span.project(interner.probe), span.dim, j,
            lambda i: all(span.residual(v) <= tol.rank_threshold(max(frob(v), 1.0))
                          for v in images[list(subgroups[i].generators)]))
        classes.setdefault(span_id, []).append(j)
    return tuple(tuple(c) for c in classes.values())


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


def check_action_all_pairs(group: FiniteGroup, action) -> None:
    """``reps.permutation_rep``'s checks of an action table with the law
    ``action[a*b] == action[a][action[b]]`` tested on every pair (a, b),
    an |G|^2 n index array, raising ``NotAHomomorphism`` at the least pair."""
    act = np.asarray(action, dtype=np.intp)
    npts = act.shape[1]
    points = np.arange(npts)
    bad_rows = np.any(np.sort(act, axis=1) != points, axis=1)
    if bad_rows.any():
        raise NotAHomomorphism(f"row {int(np.argmax(bad_rows))} of the action is not a permutation")
    if np.any(act[group.identity] != points):
        raise NotAHomomorphism("the identity element moves a point")
    elements = np.arange(group.order)
    broken = np.any(act[group.mult] != act[elements[:, None, None], act[None]], axis=2)
    if broken.any():
        a, b = map(int, np.argwhere(broken)[0])
        raise NotAHomomorphism(f"action[{a}*{b}] != action[{a}][action[{b}]]")


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


def seeded_unitary(n: int, seed: int = 41) -> np.ndarray:
    """The n x n unitary that ``rotated`` conjugates by at ``seed``."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(rep: UnitaryRep, seed: int = 41) -> UnitaryRep:
    """``rep`` conjugated by ``seeded_unitary(rep.dim, seed)``: an equivalent
    representation whose matrices are not permutation matrices, so that a
    full M^H takes the Sylvester kernel."""
    w = seeded_unitary(rep.dim, seed)
    return UnitaryRep(rep.group, w @ rep.matrices @ w.conj().T)


def conditional_expectation_by_loop(a: np.ndarray, rep: UnitaryRep,
                                    subgroup: Subgroup) -> np.ndarray:
    """E_H(a) = (1/|H|) sum_h U_h a U_h*, one member and one matrix of the
    stack at a time, for any representation."""
    a = np.asarray(a, dtype=np.complex128)
    out = np.zeros_like(a)
    for h in subgroup.members:
        u = rep.matrices[h]
        for i in np.ndindex(a.shape[:-2]):
            out[i] += u @ a[i] @ u.conj().T
    return out / subgroup.order


def fixed_point_by_kernel(m: StarAlgebra, rep, subgroup: Subgroup,
                          tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """``algebras.fixed_point_algebra`` in a full M on the Sylvester path, for
    a permutation representation too: the kernel of U(H) by
    ``linalg.commutant_kernel``, certified by ``algebras._certified_fixed``."""
    assert m.is_full
    basis = linalg.commutant_kernel(rep.matrices[list(subgroup.members)], tol).T
    return algebras._certified_fixed(m, rep, subgroup, basis.reshape(-1, rep.dim, rep.dim))


def conjugation_maps(m: StarAlgebra, rep, elements) -> np.ndarray:
    """The d x d coordinate map of Ad U_h on M for each element h, once M is
    invariant: the check a non-full M once made per class and per conjugate
    row, which ``algebras._ad_character`` makes once per lattice."""
    flat = m.basis.reshape(m.dim, -1)
    maps = np.empty((len(elements), m.dim, m.dim), dtype=np.complex128)
    for i, h in enumerate(elements):
        moved = linalg.compress(m.basis, dagger(rep.matrices[h]))
        maps[i] = m.coordinates(moved)    # row j: the coordinates of U B_j U*
        residual = moved.reshape(m.dim, -1) - maps[i] @ flat
        res = float(np.max(np.linalg.norm(residual, axis=1)))
        if res > 1e-8:
            raise NotInvariantAlgebra(
                f"conjugation by element {h} leaves the algebra (residual {res:.3e})")
    return maps


def fixed_point_by_coordinates(m: StarAlgebra, rep, subgroup: Subgroup,
                               tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """M^H in any M, in M's own coordinates when M is not full: the joint
    ``algebras.fixed_coordinates`` of the d x d maps of H's generators
    (``conjugation_maps``), certified by ``algebras._certified_fixed``.  A
    full M takes ``algebras.fixed_point_algebra``."""
    if m.is_full:
        return algebras.fixed_point_algebra(m, rep, subgroup, tol)
    maps = conjugation_maps(m, rep, subgroup.generators)
    basis = algebras.fixed_coordinates(maps, tol).T @ m.basis.reshape(m.dim, -1)
    return algebras._certified_fixed(m, rep, subgroup, basis.reshape(-1, rep.dim, rep.dim))


def own_classes(group: FiniteGroup, subgroups) -> list:
    """``groups.subgroup_classes`` with every subgroup its own representative:
    patched into ``galois``, it has ``galois_map`` solve a fixed dimension
    and a bicommutant test on every row."""
    return [(j, group.identity) for j in range(len(subgroups))]


def _both_commutants(fixed: StarAlgebra, m: StarAlgebra, mode: str, tol: Tolerance) -> tuple:
    """(once, twice): the first and second relative commutants in M in inner
    mode, the plain commutants in spatial mode, each solved on a whole basis
    (``relative_commutant_by_intersection``)."""
    if mode == "inner":
        once = relative_commutant_by_intersection(fixed, m, tol)
        return once, relative_commutant_by_intersection(once, m, tol)
    once = commutant_by_whole_family(fixed, tol)
    return once, commutant_by_whole_family(once, tol)


def bicommutant_by_basis_pair(fixed: StarAlgebra, m: StarAlgebra, pi, subgroup, mode: str,
                              tol: Tolerance = DEFAULT_TOL):
    """(ok, residual, dim once) of the double (relative) commutant test on a
    basis of M^H: in a full M ``once`` is solved on the seeded pair of
    ``fixed``'s basis, ``algebras._generating_pair``, and certified by
    ``galois._first_commutant_certificate``; in a non-full M both (relative)
    commutants are solved, and ``twice`` must commute with the unitaries of
    H's generators and lie in M.  ``galois`` draws its pair as E_H of two
    Gaussian matrices and forms no basis of M^H."""
    if m.is_full:
        once = algebras._solve_commutant(algebras._generating_pair(fixed.basis), tol)
        return (*galois._first_commutant_certificate(once, pi, subgroup), once.dim)
    once, twice = _both_commutants(fixed, m, mode, tol)
    residual = max(algebras.commutator_residual(pi.matrices[list(subgroup.generators)],
                                                twice.basis),
                   m.subspace().containment_residual(twice.subspace()))
    return residual <= galois._RESIDUAL_BOUND and twice.dim == fixed.dim, residual, once.dim


def bicommutant_by_distance(fixed: StarAlgebra, m: StarAlgebra, pi, subgroup, mode: str,
                            tol: Tolerance = DEFAULT_TOL):
    """The double (relative) commutant test on a basis of M^H, with the residual
    the subspace distance in C^{n^2} between the second (relative) commutant
    and the fixed algebra."""
    once, twice = _both_commutants(fixed, m, mode, tol)
    residual = float(twice.subspace().distance(fixed.subspace()))
    return residual <= galois._RESIDUAL_BOUND and twice.dim == fixed.dim, residual, once.dim


def bicommutant_by_two_solves(fixed: StarAlgebra, m: StarAlgebra, pi, subgroup, mode: str,
                              tol: Tolerance = DEFAULT_TOL):
    """The double commutant test on a basis of M^H with a second commutant in
    a full M too: there ``twice`` is solved from ``once`` by
    ``algebras._solve_commutant``, ``once`` must pass its character-rank
    certificate, and the residual is twice's commutator residual on the
    unitaries of H's generators, at the dimension of ``fixed``.  ``galois``
    reads (M^H)'' = U(H)' as M^H instead.  A non-full M solves both
    (relative) commutants on either path."""
    if not m.is_full:
        return bicommutant_by_basis_pair(fixed, m, pi, subgroup, mode, tol)
    once = algebras._solve_commutant(fixed.basis, tol)
    twice = algebras._solve_commutant(once.basis, tol)
    once_ok = galois._first_commutant_certificate(once, pi, subgroup)[0]
    residual = algebras.commutator_residual(pi.matrices[list(subgroup.generators)], twice.basis)
    ok = once_ok and residual <= galois._RESIDUAL_BOUND and twice.dim == fixed.dim
    return ok, residual, once.dim


def solved_from_basis(bicommutant):
    """A stand-in for ``galois._solve_class`` that solves M^K by
    ``fixed_point_by_coordinates``, ignores the character count, and tests
    M^K by ``bicommutant(fixed, m, pi, subgroup, mode, tol)``, one of the
    above.  With ``bicommutant_by_basis_pair`` in a non-full M it is
    ``_solve_class``'s former non-full branch (``solved_by_two_commutants``)."""
    def solve(m: StarAlgebra, pi, subgroup, mode: str, count: float,
              tol: Tolerance = DEFAULT_TOL):
        fixed = fixed_point_by_coordinates(m, pi, subgroup, tol)
        return (fixed.dim, *bicommutant(fixed, m, pi, subgroup, mode, tol))
    return solve


solved_by_two_commutants = solved_from_basis(bicommutant_by_basis_pair)


def fill_rows_by_basis(report, m: StarAlgebra, pi, subgroups, tol: Tolerance = DEFAULT_TOL):
    """``galois._fill_rows`` from a basis of every row's M^H, as the rows were
    once made: M^H solved on the row's own subgroup (``fixed_point_by_kernel``
    in a full M, a permutation representation included;
    ``fixed_point_by_coordinates`` in a non-full M), tested by
    ``bicommutant_by_basis_pair``, numbered by ``Subspace.equals`` against
    the algebras before it, and audited by projection on every pair
    H1 < H2, H1 outer; an anti-monotone violation carries no residual."""
    fixed = {h.members: (fixed_point_by_kernel if m.is_full else fixed_point_by_coordinates)(
        m, pi, h, tol) for h in subgroups}
    ids = _numbered([f.subspace() for f in fixed.values()], tol)
    for h, fixed_id in zip(subgroups, ids):
        f = fixed[h.members]
        ok, residual, dim = bicommutant_by_basis_pair(f, m, pi, h, report.mode, tol)
        if not ok:
            report.violations.append(("bicommutant", h.members, residual))
        report.rows.append(galois.GaloisRow(h, f.dim, fixed_id, ok, residual, dim))
    report.anti_monotone_pairs = sum(high.contains(low) for low in subgroups
                                     for high in subgroups if low.members != high.members)
    report.violations += [("anti-monotone", pair, None)
                          for pair in anti_monotone_by_projection(fixed, subgroups)]


def orbital_lattice(group: FiniteGroup, action, subgroups) -> list:
    """(dim M^H, id) per subgroup H, M = M_N under the permutation
    representation of the action table, in integer arithmetic only.

    M^H is spanned by the indicators of the orbits of H on pairs of points
    (orbitals; Wielandt, *Finite Permutation Groups*, 1964, ch. V), so its
    dimension is their number, and two subgroups have equal fixed algebras
    exactly when they have the same orbitals.  The pair (x, y) is labelled
    by min over h in H of act[h, x] N + act[h, y], the least code of its
    orbit, and the ids follow the first appearance of each labelling, as
    ``galois._Interner``'s do."""
    act = np.asarray(action).reshape(group.order, -1)
    n = act.shape[1]
    ids, rows = {}, []
    for h in subgroups:
        moved = act[list(h.members)]
        labels = np.min(moved[:, :, None] * n + moved[:, None, :], axis=0)
        rows.append((len(np.unique(labels)), ids.setdefault(labels.tobytes(), len(ids))))
    return rows


def interned_by_equality(m: StarAlgebra, rep, subgroups, irrep_indices,
                         tol: Tolerance = DEFAULT_TOL) -> tuple:
    """(fixed ids, equivalence classes) as ``galois_map`` interns them, with no
    fingerprint and nothing streamed: every row's M^H solved on its own
    subgroup, and every subgroup's span of joint images in the given irreps
    (as ``galois.subgroup_equivalence`` forms it), each numbered by
    ``Subspace.equals`` against the spaces before it, in order of first
    appearance.  A class lists its subgroups' indices, ascending."""
    fixed = [fixed_point_by_coordinates(m, rep, h, tol).subspace() for h in subgroups]
    table = reps.irrep_table(rep.group)
    images = np.concatenate([table.irreps[i].matrices.reshape(rep.group.order, -1)
                             for i in irrep_indices], axis=1)
    spans = [Subspace.from_span(images[list(h.members)], images.shape[1], tol)
             for h in subgroups]
    classes: dict = {}
    for j, span_id in enumerate(_numbered(spans, tol)):
        classes.setdefault(span_id, []).append(j)
    return _numbered(fixed, tol), list(classes.values())


def _numbered(spaces, tol: Tolerance) -> list:
    """Ids of the spaces by ``Subspace.equals`` against the distinct ones
    before them, in order of first appearance."""
    seen, ids = [], []
    for space in spaces:
        ids.append(next((i for i, s in enumerate(seen) if s.equals(space, tol)), len(seen)))
        if ids[-1] == len(seen):
            seen.append(space)
    return ids


def transported_fixed_algebra(fixed: StarAlgebra, m: StarAlgebra, rep,
                              subgroup: Subgroup, g: int) -> StarAlgebra:
    """M^H as the basis U_g M^K U_g*, for the fixed algebra M^K of K = g^-1 H g,
    certified as a solved fixed-point basis is (``algebras._certified_fixed``);
    a non-full M must be invariant under Ad U_g.  ``galois`` builds no basis
    of M^H."""
    if not m.is_full:
        conjugation_maps(m, rep, (g,))
    moved = linalg.compress(fixed.basis, dagger(rep.matrices[g]))
    return algebras._certified_fixed(m, rep, subgroup, moved)


def record_fixed_algebras(monkeypatch) -> dict:
    """Patch ``galois`` so that the fixed algebra of each row it writes is
    recorded, by its subgroup's members, in the returned dict.

    ``galois_map`` forms no basis of M^H, so a class representative's
    algebra is solved here by ``fixed_point_by_coordinates`` as its row is
    written, and a conjugate row's is rebuilt by ``transported_fixed_algebra``
    from the representative's, with the classes ``galois.subgroup_classes``
    gave; a row that raises is not recorded.  Tests that compare the bases
    read them here.
    """
    built: dict = {}
    inputs: list = []       # (M, representation) of each lattice
    conjugates: dict = {}   # members -> (representative's members, g)

    def filling(report, m, rep, *args, _honest=galois._fill_rows):
        inputs.append((m, rep))
        return _honest(report, m, rep, *args)

    def classes(group, subgroups, _honest=galois.subgroup_classes):
        found = _honest(group, subgroups)
        conjugates.update((h.members, (subgroups[r].members, g))
                          for h, (r, g) in zip(subgroups, found))
        return found

    def written(subgroup, *fields, _honest=galois.GaloisRow):
        r, g = conjugates[subgroup.members]
        m, rep = inputs[-1]
        built[subgroup.members] = (
            fixed_point_by_coordinates(m, rep, subgroup) if r == subgroup.members
            else transported_fixed_algebra(built[r], m, rep, subgroup, g))
        return _honest(subgroup, *fields)

    monkeypatch.setattr(galois, "_fill_rows", filling)
    monkeypatch.setattr(galois, "subgroup_classes", classes)
    monkeypatch.setattr(galois, "GaloisRow", written)
    return built


def anti_monotone_by_generators(pi, elements: dict, subgroups, bound: float = 1e-9) -> list:
    """``galois_map``'s audit before rows were streamed, H1 outer and H2 inner:
    (pair, residual) for each H1 < H2 whose stack ``elements[H2's members]``
    of elements of M^{H2} fails to commute with H1's generators."""
    flagged = []
    for s1 in subgroups:
        gens = pi.matrices[list(s1.generators)]
        for s2 in subgroups:
            if s1.members == s2.members or not s2.contains(s1):
                continue
            res = algebras.commutator_residual(gens, elements[s2.members])
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


# ---------------------------------------------------------------------------
# commutants of algebras as once solved: the whole basis as the Sylvester
# family, and a meeting with M as an intersection in the n^2-dimensional
# matrix space, where the package solves on a generating pair and joins M'
# to the family


def commutant_by_whole_family(a: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """A' as the Sylvester kernel of A's whole basis, certified by its
    commutator residual on that basis (``algebras._commutant``)."""
    return algebras._commutant(a.basis, tol)


def relative_commutant_by_intersection(a: StarAlgebra, m: StarAlgebra,
                                       tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """A' cap M: ``commutant_by_whole_family`` met with M by ``Subspace.intersect``."""
    whole = commutant_by_whole_family(a, tol)
    if m.is_full:
        return whole
    n = a.ambient_dim
    return StarAlgebra(n, whole.subspace().intersect(m.subspace(), tol).basis.T.reshape(-1, n, n))


def center_by_intersection(m: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    return relative_commutant_by_intersection(m, m, tol)


def ad_character_per_element(m: StarAlgebra, rep, seed=()) -> np.ndarray:
    """tr(Ad U_g on M) for every g of the group, each g moving M's whole basis,
    and M's invariance checked on the generators of the subgroup ``seed``
    generates, as ``algebras._ad_character`` once read it on a non-full M."""
    checked = groups.generating_set(rep.group, groups.closure(rep.group, seed))
    chi = np.zeros(rep.group.order)
    for g in range(rep.group.order):
        moved = linalg.compress(m.basis, dagger(rep.matrices[g]))
        chi[g] = np.vdot(m.basis, moved).real
        if g in checked and (res := m.subspace().residual(
                moved.reshape(m.dim, -1).T)) > 1e-8:
            raise NotInvariantAlgebra(
                f"conjugation by element {g} leaves the algebra (residual {res:.3e})")
    return chi


# ---------------------------------------------------------------------------
# the Tomita-Takesaki check on the whole family of left multiplications, which
# the package solves on a generating pair and moves by a conjugated basis


def tomita_takesaki_by_whole_family(md, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """(M' as a Subspace, residuals) of ``modular.tomita_takesaki_residuals``
    with M' the commutant of all d left multiplications, certified on all of
    them, and each moved span orthonormalized by its own SVD."""
    space = md.gns_space
    d = space.dim
    left = np.array([space.left_mult_matrix(b) for b in space.algebra.basis])
    left_span = Subspace.from_span(left.reshape(d, -1), d * d, tol)
    comm_span = algebras.commutant_of_matrices(left, d, tol).subspace()
    jmj = np.array([md.j_conj @ x.conj() @ md.j_conj.conj() for x in left])
    flow = 0.0
    for t in modular._FLOW_GRID:
        moved = linalg.compress(left, dagger(md.delta_power(1j * t)))
        flow = max(flow, left_span.distance(Subspace.from_span(moved.reshape(d, -1), d * d, tol)))
    return comm_span, {"jmj_in_commutant": float(comm_span.residual(jmj.reshape(d, -1).T)),
                       "flow_invariance": float(flow)}


def perm_group_table_by_loop(perms) -> np.ndarray:
    """The multiplication table of a group of permutations, element i * j acting
    with perms[j] first: every pair composed in a Python double loop and looked
    up by tuple."""
    index = {tuple(p): i for i, p in enumerate(perms)}
    table = np.zeros((len(perms), len(perms)), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(len(p)))]
    return table
