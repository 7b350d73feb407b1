"""Subgroups versus fixed-point algebras: the correspondence engine.

For an action of a finite group on a matrix algebra, every subgroup H is
mapped to the subalgebra of H-invariant elements.  The report collects,
per subgroup, the fixed algebra, its double-(relative-)commutant test,
anti-monotonicity along the subgroup lattice, and the partition of
subgroups into span-equivalence classes; when the action is proper the
map must be injective across classes and any failure is recorded as a
violation rather than silently accepted.  Subgroup checks use generators.

In a full M the bicommutant test solves one commutant, (M^H)', by the
Sylvester kernel on a seeded pair a, b of random elements of M^H and
their adjoints (two generic elements generate a semisimple matrix
algebra: Dixon, Math. Comp. 1970; Murota, Kanno, Kojima and Kojima, JJIAM
2010), and certifies it to be span U(H), the commutant of U(H)' (double
commutant theorem): its dimension must be the rank of the |H| x |H|
character matrix K[a, b] = chi(a^-1 b) (Serre, 2.4-2.6), and every U(h),
h in H, must lie in it; the worst membership residual is the row's.
{a, b, a*, b*}' contains (M^H)', so a pair that fails to generate M^H
only enlarges the solved space and fails on rank.  Then (M^H)'' = U(H)'
is M^H by definition, which ``algebras.fixed_point_algebra`` has solved
and certified, so no second commutant is solved and no basis of M^H is
walked.  In a non-full M both commutants come from ``algebras`` (relative
ones in inner mode), and the second must commute with the unitaries of
H's generators and lie in M, so at the dimension of M^H it is
M^H = U(H)' cap M.  No distance in the
n^2-dimensional matrix space is formed.

The map is equivariant: M^{gKg^-1} = U_g M^K U_g*.  So one fixed-point
algebra and one bicommutant test are built per conjugacy class of the given
subgroups, on its first member K, and no other row builds a basis: a
conjugate H = gKg^-1 is read through M^K.  Ad U_g is a Hilbert-Schmidt
isometry, so the commutator residual of U_s on U_g M^K U_g* is that of
U_{g^-1 s g} on M^K, and one memo per class holds each element's residual
on M^K once, seeded with K's own generators' from its fixed-point
certificate.  A miss on an M^K that carries its orbitals (a permutation
representation in a full M) is read off them in O(n^2) by
``algebras.partition_residual``, the same number as the dense residual,
which any other algebra takes.  H's certificate on its own generators,
its anti-monotone audit and the interner's confirmation all read that
memo, and its fingerprint reads H's own unitaries, not M^K (below).  In
a non-full M each conjugating g must leave M invariant.  A conjugate
row's ``bicommutant_residual`` and ``commutant_dim`` are its
representative's, which Ad U_g carries.

Rows are streamed: each row is certified, interned and audited for
anti-monotonicity against the subgroups below it as soon as it is
reached, so nothing dense outlives the conjugacy class whose
representative's basis it reads, and the report holds no basis.  The
interner keeps a fingerprint, a dimension and a row index per id.  A row's
fingerprint is E_H P_M r for the seeded probe r, with E_H = (1/|H|) sum_h
Ad U_h the conditional expectation (``ncprob.conditional_expectation``):
E_H is the Hilbert-Schmidt projection onto U(H)', and it commutes with P_M
because each Ad U_h preserves M and the inner product, so E_H P_M r is
P_{M^H} r.  The probe is projected onto M once per lattice.  A match is
confirmed by the anti-monotone audit's own test, M^{H_j} commuting with
the unitaries of the earlier H_i's generators, which at equal dimension is
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import algebras as alg
from . import ncprob
from . import reps as rp
from .algebras import StarAlgebra
from .errors import ClosureFailed
from .groups import (FiniteGroup, Subgroup, conjugation_table, enumerate_subgroups,
                     subgroup_classes)
from .linalg import DEFAULT_TOL, Subspace, Tolerance, commutant_kernel, frob

_RESIDUAL_BOUND = 1e-9
# fingerprints of equal subspaces agree far closer than this, relative to the probe
_FINGERPRINT_MATCH = 1e-6
# the interning probe is drawn from a generator with this seed
_PROBE_SEED = 0


@dataclass(frozen=True)
class GaloisRow:
    subgroup: Subgroup
    fixed_dim: int
    fixed_id: int                 # intern id; equal ids <=> equal fixed algebras
    bicommutant_ok: bool
    bicommutant_residual: float
    commutant_dim: int            # dim of the first (relative) commutant of M^H


@dataclass
class GaloisReport:
    group: FiniteGroup
    mode: str                     # "inner" or "spatial"
    proper: bool
    present: tuple                # Sigma' as irrep indices
    missing: tuple                # Sigma^0
    rows: list = field(default_factory=list)
    equivalence_classes: list = field(default_factory=list)
    collision_candidates: list = field(default_factory=list)
    anti_monotone_pairs: int = 0
    violations: list = field(default_factory=list)

    @property
    def injective(self) -> bool:
        ids = [r.fixed_id for r in self.rows]
        return len(set(ids)) == len(ids)


def subgroup_equivalence(group: FiniteGroup, subgroups, irrep_indices,
                         tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Partition subgroups by the span of their images in the given irreps.

    Two subgroups are equivalent when the elements span the same subspace
    through the direct sum of the retained irreps.  The comparison is joint
    across irreps: componentwise spans would never separate subgroups seen
    through one-dimensional irreps, where every span is the scalar line, and
    the correspondence between classes and fixed algebras would fail on
    abelian groups.  The joint span is exactly the group-algebra image whose
    commutant is the fixed algebra, so equal spans and equal fixed algebras
    are the same thing.  The classes, tuples of subgroup indices, are the
    ``_Interner`` ids of the joint spans, in order of first appearance, with
    ascending members.  A span's fingerprint is its projection of the
    interner's probe, and it matches an earlier span when it holds the
    joint images of the earlier subgroup's generators, which with 1
    generate the earlier span as an algebra.
    """
    table = rp.irrep_table(group, tol)
    irrep_indices = list(irrep_indices)
    if not irrep_indices:
        return (tuple(range(len(subgroups))),)
    # row g is the joint image of g: each retained irrep's matrix, flattened
    images = np.concatenate([table.irreps[i].matrices.reshape(group.order, -1)
                             for i in irrep_indices], axis=1)
    interner = _Interner(images.shape[1])
    classes: dict = {}
    for j, h in enumerate(subgroups):
        span = Subspace.from_span(images[list(h.members)], images.shape[1], tol)
        span_id = interner.id_of(
            span.project(interner.probe), span.dim, j,
            lambda i: all(   # as StarAlgebra.contains_matrix
                span.residual(v) <= tol.rank_threshold(max(frob(v), 1.0))
                for v in images[list(subgroups[i].generators)]))
        classes.setdefault(span_id, []).append(j)
    return tuple(tuple(c) for c in classes.values())


class _Interner:
    """Ids of equal subspaces, in order of first appearance.

    A candidate must have the same dimension and nearly the same
    fingerprint P r, the orthogonal projection of the seeded ``probe`` r
    onto the subspace, which does not depend on a basis: ``id_of`` takes
    that vector, however the caller computed it.  ``contains(key)`` then
    confirms the match by a containment between the candidate and the
    space first interned under ``key``, which at equal dimension is
    equality, so no rounding boundary can split equal subspaces.  Only
    (fingerprint, dim, key) is kept per id.
    """

    def __init__(self, ambient_dim: int):
        rng = np.random.default_rng(_PROBE_SEED)
        self.probe = rng.standard_normal(ambient_dim) + 1j * rng.standard_normal(ambient_dim)
        self._bound = _FINGERPRINT_MATCH * np.linalg.norm(self.probe)
        self._seen: list = []     # (fingerprint, dim, key) of each id

    def id_of(self, fp: np.ndarray, dim: int, key, contains) -> int:
        for i, (fp0, dim0, key0) in enumerate(self._seen):
            if dim0 == dim and np.linalg.norm(fp - fp0) <= self._bound and contains(key0):
                return i
        self._seen.append((fp, dim, key))
        return len(self._seen) - 1


def galois_map(m: StarAlgebra, pi: rp.UnitaryRep, mode: str = "auto", subgroups=None,
               tol: Tolerance = DEFAULT_TOL) -> GaloisReport:
    """Compute H -> M^H over the whole subgroup lattice of ``pi.group`` and audit it.

    ``mode="inner"`` tests the double relative commutant identity
    ``(M^H)'' cap M twice == M^H``; ``mode="spatial"`` tests the plain
    double commutant.  ``"auto"`` picks "inner" exactly when the generators'
    unitaries lie in M (always in a full M).  Equal fixed algebras share an
    id (``_Interner``), so distinctness checks are exact set operations on ids.
    """
    group = pi.group
    if mode == "auto":
        inside = m.is_full or all(m.contains_matrix(pi.matrices[s], tol)
                                  for s in group.generators)
        mode = "inner" if inside else "spatial"
    if mode not in ("inner", "spatial"):
        raise ValueError(f"unknown mode {mode!r}")
    if subgroups is None:
        subgroups = enumerate_subgroups(group)
    if len({h.members for h in subgroups}) != len(subgroups):
        raise ValueError("a subgroup is given twice")

    table = rp.irrep_table(group, tol)
    properness = rp.is_proper(pi, table, tol)
    report = GaloisReport(
        group=group,
        mode=mode,
        proper=properness.proper,
        present=properness.present,
        missing=properness.missing,
    )

    _fill_rows(report, m, pi, subgroups, tol)

    # equivalence classes over Sigma'; over all of Sigma each class is one
    # subgroup, since C[G] is the direct sum of the End(V_rho) (Fourier
    # injectivity) and the subgroups are distinct, so every pair within a
    # class is a collision candidate
    classes = subgroup_equivalence(group, subgroups, properness.present, tol)
    report.equivalence_classes = [list(c) for c in classes]
    report.collision_candidates = [(subgroups[a].members, subgroups[b].members)
                                   for cls in classes for a, b in combinations(cls, 2)]

    # within a class the fixed algebras must agree ...
    for cls in classes:
        ids = {report.rows[j].fixed_id for j in cls}
        if len(ids) > 1:
            report.violations.append(
                ("class-not-constant", tuple(subgroups[j].members for j in cls), None)
            )
    # ... and across classes they must differ whenever the action is proper
    if properness.proper:
        first: dict = {}   # fixed id -> first subgroup of the first class with it
        for cls in classes:
            j = first.setdefault(report.rows[cls[0]].fixed_id, cls[0])
            if j != cls[0]:
                report.violations.append(
                    ("injectivity", (subgroups[j].members, subgroups[cls[0]].members), None))
    return report


def _fill_rows(report: GaloisReport, m: StarAlgebra, pi: rp.UnitaryRep, subgroups,
               tol: Tolerance) -> None:
    """Rows and their violations, one kernel per conjugacy class, in order, keeping no basis.

    The first subgroup K of each class (``subgroup_classes``) gets its fixed
    algebra and bicommutant test computed, and its basis is kept, with one
    memo of its elements' residuals, seeded with those of K's generators that
    certified M^K, until the last row of its class.  A conjugate H = gKg^-1
    builds no basis: M^H = U_g M^K U_g* (Ad U_g is a *-automorphism of M,
    checked on g in a non-full M), and
    ||[U_s, U_g X U_g*]||_F = ||[U_{g^-1 s g}, X]||_F, so H's certificate on
    its own generators reads the memo at the conjugated elements.  H takes
    its representative's ``_bicommutant`` triple, which Ad U_g carries with
    the (relative) commutants.

    Anti-monotonicity of every pair H1 < H2 is checked when the row of H2
    is reached: M^{H2} lies in M, so it lies in M^{H1} exactly when it
    commutes with the unitaries of H1's generators.  The interner confirms
    a match with an earlier row by the same test, and fingerprints M^H by
    the conditional expectation E_H of the probe, projected onto M once.
    Bicommutant violations come in row order, then anti-monotone ones with
    H1 outer and H2 inner.
    """
    group = report.group
    conj = conjugation_table(group)
    classes = subgroup_classes(group, subgroups)
    last = {r: j for j, (r, _) in enumerate(classes)}
    # representative index -> (M^K, element -> its residual on M^K, _bicommutant triple)
    kept: dict = {}
    n = m.ambient_dim
    interner = _Interner(n * n)
    # E_H commutes with P_M, so E_H P_M r = P_{M^H} r
    probe = (interner.probe if m.is_full else m.subspace().project(interner.probe)).reshape(n, n)
    residuals: dict = {}   # (index of H1, index of H2) -> commutator residual
    for j, (sub, (r, g)) in enumerate(zip(subgroups, classes)):
        if r == j:
            fixed = alg.fixed_point_algebra(m, pi, sub, tol, residuals=(memo := {}))
            kept[j] = fixed, memo, _bicommutant(fixed, m, pi, sub, report.mode, tol)
        elif not m.is_full:   # every unitary preserves the full algebra
            alg._conjugation_maps(m, pi, (g,))
        fixed, memo, (ok, residual, commutant_dim) = kept.pop(r) if last[r] == j else kept[r]
        to_k = conj[group.inverse[g]]   # s -> g^-1 s g

        def residual_to(i: int) -> float:
            """``commutator_residual`` of H_i's generators on M^H: the worst of
            their conjugates' own residuals on M^K, each computed once per class,
            and read off M^K's orbitals when it carries them."""
            gens = [int(to_k[s]) for s in subgroups[i].generators]
            for t in gens:
                if t not in memo:
                    memo[t] = (alg.commutator_residual(pi.matrices[[t]], fixed.basis)
                               if fixed.orbitals is None
                               else alg.partition_residual(fixed.orbitals, pi.action[t]))
            return max((memo[t] for t in gens), default=0.0)

        if r != j and (worst := residual_to(j)) > _RESIDUAL_BOUND:
            raise ClosureFailed(
                f"conjugated fixed-point algebra fails to commute with the unitaries of "
                f"its subgroup's generators, residual {worst:.3e}")
        for i, low in enumerate(subgroups):
            if low.members != sub.members and sub.contains(low):
                residuals[i, j] = residual_to(i)
        fixed_id = interner.id_of(ncprob.conditional_expectation(probe, pi, sub).reshape(-1),
                                  fixed.dim, j, lambda i: residual_to(i) <= _RESIDUAL_BOUND)
        if not ok:
            report.violations.append(("bicommutant", sub.members, residual))
        report.rows.append(GaloisRow(sub, fixed.dim, fixed_id, ok, residual, commutant_dim))
        del fixed, memo   # before the next row is built
    for (i, j), res in sorted(residuals.items()):
        report.anti_monotone_pairs += 1
        if res > _RESIDUAL_BOUND:
            report.violations.append(
                ("anti-monotone", (subgroups[i].members, subgroups[j].members), float(res))
            )


def _bicommutant(fixed: StarAlgebra, m: StarAlgebra, pi: rp.UnitaryRep, subgroup: Subgroup,
                 mode: str, tol: Tolerance):
    """(ok, residual, dim once) of the double (relative) commutant test on fixed = M^H.

    In a full M ``once`` is the bare kernel of a, b, a*, b*, the seeded
    generating pair ``algebras._generating_pair`` of ``fixed``'s basis,
    and ``_first_commutant_certificate`` gives the verdict
    and residual.  M^H lies in U(H)', as its fixed-point certificate
    showed, so ``once`` contains (M^H)', which contains span U(H): at rank K
    with every U(h) inside it is span U(H) for every draw, and a pair that
    does not generate M^H fails on rank.  As span U(H), its commutant is
    U(H)' = ``fixed``, so no ``twice`` is solved.  In a non-full M ``once``
    is solved from ``fixed`` and ``twice`` from ``once``, and the residual
    is ``twice``'s commutator residual on the unitaries of H's generators
    maxed with its containment residual in M: under the bound it lies in
    U(H)' cap M = M^H, which at the dimension of ``fixed`` it is.
    """
    if m.is_full:
        once = _solve_commutant(alg._generating_pair(fixed.basis), tol)
        return (*_first_commutant_certificate(once, pi, subgroup), once.dim)
    if mode == "inner":
        once = alg.relative_commutant(fixed, m, tol)
        twice = alg.relative_commutant(once, m, tol)
    else:
        once = alg.commutant(fixed, tol)
        twice = alg.commutant(once, tol)
    residual = max(alg.commutator_residual(pi.matrices[list(subgroup.generators)], twice.basis),
                   m.subspace().containment_residual(twice.subspace()))
    return residual <= _RESIDUAL_BOUND and twice.dim == fixed.dim, residual, once.dim


def _solve_commutant(family: np.ndarray, tol: Tolerance) -> StarAlgebra:
    """The Sylvester kernel of a *-closed family as an algebra, with no
    commutator certificate: ``_bicommutant`` passes a generating pair of
    M^H and its adjoints, and certifies the kernel by the character rank."""
    n = family.shape[1]
    return StarAlgebra(n, commutant_kernel(family, tol).T.reshape(-1, n, n))


def _character_matrix(pi: rp.UnitaryRep, subgroup: Subgroup) -> np.ndarray:
    """K[a, b] = chi(a^-1 b) over the members a, b of H, chi the character of ``pi``.

    K is convolution by chi on C[H]: its eigenvalue is |H| m_rho / d_rho,
    at least 1, on the d_rho^2 functions of each constituent rho of U|_H,
    and 0 elsewhere (Serre, 2.4-2.6).  So its rank, read at the cut 1/2,
    is dim span U(H).
    """
    group, h = pi.group, np.asarray(subgroup.members)
    return pi.character()[group.mult[np.ix_(group.inverse[h], h)]]


def _first_commutant_certificate(once: StarAlgebra, pi: rp.UnitaryRep, subgroup: Subgroup):
    """(ok, residual): whether ``once`` is span U(H) = (M^H)' in a full M, that is
    of dimension rank K (``_character_matrix``) with every U(h)/||U_h||_F, h in
    H, in it within the bound, and the worst of those membership residuals.
    ``once`` need only contain span U(H), as any commutant of elements of
    M^H does: the rank then decides equality."""
    rank = int(np.sum(np.linalg.eigvalsh(_character_matrix(pi, subgroup)) > 0.5))
    units = pi.matrices[list(subgroup.members)].reshape(subgroup.order, -1)
    units = units / np.linalg.norm(units, axis=1)[:, None]
    residual = once.subspace().residual(units.T)
    return once.dim == rank and residual <= _RESIDUAL_BOUND, residual


def is_minimal_action(report: GaloisReport):
    """``(flag, witness_dim)`` read off the last row, which must be G's; solves nothing.

    In a full M or in inner mode a row's first commutant is (M^H)' cap M, so
    G's row holds dim (M^G)' cap M: the action is minimal exactly when it is 1.
    """
    if not report.rows or report.rows[-1].subgroup.order != report.group.order:
        raise ValueError("the report's last row is not the whole group")
    return report.rows[-1].commutant_dim == 1, report.rows[-1].commutant_dim
