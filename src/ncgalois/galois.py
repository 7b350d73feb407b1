"""Subgroups versus fixed-point algebras: the correspondence engine.

For an action of a finite group on a matrix algebra, every subgroup H is
mapped to the subalgebra of H-invariant elements.  The report collects,
per subgroup, the fixed algebra, its double-(relative-)commutant test,
anti-monotonicity along the subgroup lattice, and the partition of
subgroups into span-equivalence classes; when the action is proper the
map must be injective across classes and any failure is recorded as a
violation rather than silently accepted.  Subgroup checks use generators.

The map is equivariant: M^{gHg^-1} = U_g M^H U_g*.  So one fixed-point
kernel and one bicommutant test run per conjugacy class of the given
subgroups, on its first member; every other row is transported by one
conjugation and re-certified on its own generators (and, in a full M, by
its character count).  A transported row's ``bicommutant_residual`` is
its representative's, which Ad U_g leaves unchanged.

Rows are streamed: each fixed algebra is certified, interned and audited
for anti-monotonicity against the subgroups below it as soon as it is
built, and then dropped, so nothing dense outlives the conjugacy class
that transports it and the report holds no basis.  The interner keeps a
fingerprint, a dimension and a row index per id; a match is confirmed by
the anti-monotone audit's own test, M^{H_j} commuting with the unitaries
of the earlier H_i's generators, which at equal dimension is equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebras as alg
from . import reps as rp
from .algebras import StarAlgebra
from .groups import FiniteGroup, Subgroup, enumerate_subgroups, subgroup_classes
from .linalg import DEFAULT_TOL, Subspace, Tolerance, frob

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


@dataclass(frozen=True)
class SubgroupEquivalence:
    classes: tuple  # tuple of tuples of subgroup indices


def subgroup_equivalence(group: FiniteGroup, subgroups, irrep_indices=None,
                         tol: Tolerance = DEFAULT_TOL) -> SubgroupEquivalence:
    """Partition subgroups by the span of their images in the retained irreps.

    Two subgroups are equivalent when the elements span the same subspace
    through the direct sum of the retained irreps (defaults to all of
    them).  The comparison is joint across irreps: componentwise spans
    would never separate subgroups seen through one-dimensional irreps,
    where every span is the scalar line, and the correspondence between
    classes and fixed algebras would fail on abelian groups.  The joint
    span is exactly the group-algebra image whose commutant is the fixed
    algebra, so equal spans and equal fixed algebras are the same thing.
    Classes are the ``_Interner`` ids of the joint spans, in order of first
    appearance, with ascending members.  A span matches an earlier one when
    it holds the joint images of the earlier subgroup's generators, which
    with 1 generate the earlier span as an algebra.
    """
    table = rp.irrep_table(group, tol)
    if irrep_indices is None:
        irrep_indices = range(len(table.irreps))
    irrep_indices = list(irrep_indices)
    if not irrep_indices:
        return SubgroupEquivalence((tuple(range(len(subgroups))),))

    def joint_image(g: int) -> np.ndarray:
        return np.concatenate([table.irreps[i].matrices[g].reshape(-1) for i in irrep_indices])

    ambient_dim = sum(table.irreps[i].dim ** 2 for i in irrep_indices)
    interner = _Interner(ambient_dim)
    classes: dict = {}
    for j, h in enumerate(subgroups):
        span = Subspace.from_span([joint_image(g) for g in h.members], ambient_dim, tol)
        span_id = interner.id_of(span, j, lambda i: all(   # as StarAlgebra.contains_matrix
            span.residual(v) <= tol.rank_threshold(max(frob(v), 1.0))
            for v in map(joint_image, subgroups[i].generators)))
        classes.setdefault(span_id, []).append(j)
    return SubgroupEquivalence(tuple(tuple(c) for c in classes.values()))


class _Interner:
    """Ids of equal subspaces, in order of first appearance.

    A candidate must have the same dimension and nearly the same
    fingerprint P r, the projection of one seeded probe r, which costs
    O(n^2 d) and does not depend on the basis; ``contains(key)`` then
    confirms the match by a containment between the candidate and the
    space first interned under ``key``, which at equal dimension is
    equality, so no rounding boundary can split equal subspaces.  Only
    (fingerprint, dim, key) is kept per id.
    """

    def __init__(self, ambient_dim: int):
        rng = np.random.default_rng(_PROBE_SEED)
        self._probe = rng.standard_normal(ambient_dim) + 1j * rng.standard_normal(ambient_dim)
        self._bound = _FINGERPRINT_MATCH * np.linalg.norm(self._probe)
        self._seen: list = []     # (fingerprint, dim, key) of each id

    def id_of(self, space: Subspace, key, contains) -> int:
        fp = space.project(self._probe)
        for i, (fp0, dim0, key0) in enumerate(self._seen):
            if (dim0 == space.dim and np.linalg.norm(fp - fp0) <= self._bound
                    and contains(key0)):
                return i
        self._seen.append((fp, space.dim, key))
        return len(self._seen) - 1


def galois_map(m: StarAlgebra, pi: rp.UnitaryRep, group: FiniteGroup,
               mode: str = "auto", subgroups=None,
               tol: Tolerance = DEFAULT_TOL) -> GaloisReport:
    """Compute H -> M^H over the whole subgroup lattice and audit it.

    ``mode="inner"`` tests the double relative commutant identity
    ``(M^H)'' cap M twice == M^H``; ``mode="spatial"`` tests the plain
    double commutant.  ``"auto"`` picks "inner" exactly when the generators'
    unitaries lie in M.  Equal fixed algebras share an id (``_Interner``),
    so distinctness checks are exact set operations on ids.
    """
    if pi.group != group:
        raise ValueError("representation and group disagree")
    if mode == "auto":
        inside = all(m.contains_matrix(pi.matrices[s], tol) for s in group.generators)
        mode = "inner" if inside else "spatial"
    if mode not in ("inner", "spatial"):
        raise ValueError(f"unknown mode {mode!r}")
    if subgroups is None:
        subgroups = enumerate_subgroups(group)

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

    # equivalence classes over Sigma' and collision candidates versus full Sigma
    eq_present = subgroup_equivalence(group, subgroups, properness.present, tol)
    if properness.missing:
        eq_full = subgroup_equivalence(group, subgroups, None, tol)
    else:
        eq_full = eq_present  # Sigma' is already every irrep
    report.equivalence_classes = [list(c) for c in eq_present.classes]
    full_class_of = {}
    for ci, cls in enumerate(eq_full.classes):
        for j in cls:
            full_class_of[j] = ci
    for cls in eq_present.classes:
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                if full_class_of[cls[a]] != full_class_of[cls[b]]:
                    report.collision_candidates.append(
                        (subgroups[cls[a]].members, subgroups[cls[b]].members)
                    )

    # within a class the fixed algebras must agree ...
    for cls in eq_present.classes:
        ids = {report.rows[j].fixed_id for j in cls}
        if len(ids) > 1:
            report.violations.append(
                ("class-not-constant", tuple(subgroups[j].members for j in cls), None)
            )
    # ... and across classes they must differ whenever the action is proper
    if properness.proper:
        first: dict = {}   # fixed id -> first subgroup of the first class with it
        for cls in eq_present.classes:
            j = first.setdefault(report.rows[cls[0]].fixed_id, cls[0])
            if j != cls[0]:
                report.violations.append(
                    ("injectivity", (subgroups[j].members, subgroups[cls[0]].members), None))
    return report


def _fill_rows(report: GaloisReport, m: StarAlgebra, pi: rp.UnitaryRep, subgroups,
               tol: Tolerance) -> None:
    """Rows and their violations, one kernel per conjugacy class, streamed.

    The first subgroup of each class (``subgroup_classes``) gets its fixed
    algebra and bicommutant test computed; every conjugate H = gKg^-1 takes
    U_g M^K U_g* (``transported_fixed_algebra``), re-certified on its own
    generators, and its representative's bicommutant verdict and residual:
    Ad U_g is a *-automorphism of M, so it carries (relative) commutants to
    (relative) commutants, and the Hilbert-Schmidt distance is unitarily
    invariant.  A representative's basis is kept, for transport only, until
    the last row of its class.
    """
    classes = subgroup_classes(report.group, subgroups)
    last = {r: j for j, (r, _) in enumerate(classes)}
    kept: dict = {}       # representative index -> fixed algebra, until its last row
    verdicts: dict = {}   # representative index -> (ok, residual)

    def row(j: int):
        r, g = classes[j]
        if r == j:
            fixed = kept[j] = alg.fixed_point_algebra(m, pi, subgroups[j], tol)
            verdicts[j] = _bicommutant(fixed, m, report.mode, tol)
        else:
            fixed = alg.transported_fixed_algebra(kept[r], m, pi, subgroups[j], g)
        if last[r] == j:
            del kept[r]
        return fixed, verdicts[r]

    _stream_rows(report, m, pi, subgroups, row)


def _stream_rows(report: GaloisReport, m: StarAlgebra, pi: rp.UnitaryRep, subgroups,
                 row) -> None:
    """Intern, audit and record row j from ``row(j) -> (fixed, (ok, residual))``,
    in order, keeping no basis.

    Anti-monotonicity of every pair H1 < H2 is checked when M^{H2} is
    built: M^{H2} lies in M, so it lies in M^{H1} exactly when it commutes
    with the unitaries of H1's generators.  The interner confirms a match
    with an earlier row by the same test.  Bicommutant violations come in
    row order, then anti-monotone ones with H1 outer and H2 inner.
    """
    def residual_to(i: int, basis: np.ndarray) -> float:
        return alg.commutator_residual(pi.matrices[list(subgroups[i].generators)], basis)

    interner = _Interner(m.ambient_dim ** 2)
    residuals: dict = {}   # (index of H1, index of H2) -> commutator residual
    for j, sub in enumerate(subgroups):
        fixed, (ok, residual) = row(j)
        for i, low in enumerate(subgroups):
            if low.members != sub.members and sub.contains(low):
                residuals[i, j] = residual_to(i, fixed.basis)
        fixed_id = interner.id_of(
            fixed.subspace(), j, lambda i: residual_to(i, fixed.basis) <= _RESIDUAL_BOUND)
        if not ok:
            report.violations.append(("bicommutant", sub.members, residual))
        report.rows.append(GaloisRow(sub, fixed.dim, fixed_id, ok, residual))
        del fixed   # before the next row is built
    for (i, j), res in sorted(residuals.items()):
        report.anti_monotone_pairs += 1
        if res > _RESIDUAL_BOUND:
            report.violations.append(
                ("anti-monotone", (subgroups[i].members, subgroups[j].members), float(res))
            )


def _bicommutant(fixed: StarAlgebra, m: StarAlgebra, mode: str, tol: Tolerance):
    """(ok, residual) of the double (relative) commutant test on one fixed algebra."""
    if mode == "inner":
        once = alg.relative_commutant(fixed, m, tol)
        twice = alg.relative_commutant(once, m, tol)
    else:
        once = alg.commutant(fixed, tol)
        twice = alg.commutant(once, tol)
    residual = float(twice.subspace().distance(fixed.subspace()))
    return residual <= _RESIDUAL_BOUND and twice.dim == fixed.dim, residual


def is_minimal_action(m: StarAlgebra, pi: rp.UnitaryRep, group: FiniteGroup,
                      tol: Tolerance = DEFAULT_TOL):
    """Whether the relative commutant of the full fixed algebra is scalar.

    Returns ``(flag, witness_dim)``: the dimension of ``(M^G)' cap M`` is
    the witness; the action is minimal exactly when it equals 1.
    """
    top = Subgroup(group, tuple(range(group.order)))
    fixed = alg.fixed_point_algebra(m, pi, top, tol)
    rc = alg.relative_commutant(fixed, m, tol)
    return rc.dim == 1, rc.dim
