"""Subgroups versus fixed-point algebras: the correspondence engine.

For an action of a finite group on a matrix algebra, every subgroup H is
mapped to the subalgebra of H-invariant elements.  The report collects,
per subgroup, the fixed algebra, its double-(relative-)commutant test,
anti-monotonicity along the subgroup lattice, and the partition of
subgroups into span-equivalence classes; when the action is proper the
map must be injective across classes and any failure is recorded as a
violation rather than silently accepted.  Subgroup checks use generators.

Each row reads one element of M^H: y = E_H P_M r, the conditional
expectation E_H = (1/|H|) sum_h Ad U_h (``ncprob.conditional_expectation``)
of a seeded probe r projected onto M once per lattice.  E_H is the
Hilbert-Schmidt projection onto U(H)', and it commutes with P_M because
each Ad U_h preserves M and the inner product, so y is P_{M^H} r, whose
coordinates in any orthonormal basis of M^H are i.i.d. complex Gaussians.
So y alone decides, with probability 1, what a basis of M^H would: the
row is certified by the commutator residual of y on the unitaries of H's
generators, M^{H2} lies in M^{H1} exactly when y_2 commutes with the
unitaries of H1's generators (the anti-monotone audit of H1 < H2, and the
interner's confirmation of a match, which at equal dimension is equality),
and y is the interner's fingerprint.  No row forms a basis of M^H.

The map is equivariant: M^{gKg^-1} = U_g M^K U_g*.  So the dimension and
the bicommutant test are computed once per conjugacy class of the given
subgroups, on its first member K, and a conjugate row takes them; M must
be invariant under the subgroup that the given subgroups and their
conjugating elements generate, which a non-full M checks once per
lattice (``algebras._ad_character``).  dim M^K is the character count
(1/|K|) sum_k tr(Ad U_k on M) (Serre, 2.3), |chi(k)|^2 in a full M.  The
test solves ``once`` = (M^K)' by the Sylvester kernel on a seeded pair
a, b = E_K P_M(G1), E_K P_M(G2) of random elements of M^K and their
adjoints (two generic elements generate a semisimple matrix algebra:
Dixon, Math. Comp. 1970; Murota, Kanno, Kojima and Kojima, JJIAM 2010).
In a full M, ``once`` must be span U(K) = U(K)'' (the rank of the
character matrix K[a, b] = chi(a^-1 b), Serre, 2.4-2.6, and every U(k)
in it), so (M^K)'' = U(K)' = M^K with no second commutant, and the count
is certified by the isotypic multiplicities of span U(K), sum m_rho^2.
In a non-full M, ``twice``, the kernel of ``once``, must commute with
the unitaries of K's generators, lie in M and have the count as its
dimension: then it is M^K = U(K)' cap M.  In inner mode M' joins both
families, (F cup M')' = F' cap M, so no intersection in the
n^2-dimensional matrix space and no basis of M^K is formed.

Rows are streamed, each certified, interned and audited as it is
reached; the interner keeps a fingerprint, a dimension and a row per id.

The group side reads the multiplication table only: properness and its
Sigma' come from the class-sum characters (``reps.character_table``),
and the equivalence classes from translates by the central idempotent of
Sigma' (``subgroup_equivalence``), so no irrep matrix and no regular
representation is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import algebras as alg
from . import ncprob
from . import reps as rp
from .algebras import StarAlgebra
from .errors import ClosureFailed, DecompositionFailed
from .groups import FiniteGroup, Subgroup, enumerate_subgroups, subgroup_classes
from .linalg import (_MAX_RESAMPLES, DEFAULT_TOL, Subspace, Tolerance, compress, dagger, frob,
                     random_split)

_RESIDUAL_BOUND = 1e-9
# fingerprints of equal subspaces agree far closer than this, relative to the probe
_FINGERPRINT_MATCH = 1e-6
# the interning probe is drawn from a generator with this seed
_PROBE_SEED = 0
# an interner keeps this many seeded coordinates of each id's fingerprint
_KEPT_COORDINATES = 64


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
    are the same thing.

    No irrep matrix is formed.  With e = sum_rho (d_rho/|G|) conj(chi_rho)
    the central idempotent of the retained irreps (``reps.character_table``,
    indices in its order), C[G] e is isomorphic to the direct sum of their
    End(V_rho), by an isomorphism that takes the translate h e to the joint
    image of h.  So the span of H's joint images is the span of its
    translates h e, whose entry at x is e(h^-1 x): |G| coordinates read off
    ``mult``, with e at unit norm.  The classes, tuples of subgroup indices,
    are the ``_Interner`` ids of these spans, in order of first appearance,
    with ascending members.  A span's fingerprint is its projection of the
    interner's probe, and it matches an earlier span when it holds the
    translates of the earlier subgroup's generators, which with 1 generate
    the earlier span as an algebra.
    """
    irrep_indices = list(irrep_indices)
    if not irrep_indices:
        return (tuple(range(len(subgroups))),)
    table = rp.character_table(group)
    e = np.asarray(table.dims)[irrep_indices] @ table.characters[irrep_indices].conj()
    images = (e / np.linalg.norm(e))[group.mult[group.inverse]]   # row h: h e
    interner = _Interner(group.order)
    classes: dict = {}
    for j, h in enumerate(subgroups):
        span = Subspace.from_span(images[list(h.members)], group.order, tol)
        span_id = interner.id_of(
            span.project(interner.probe), span.dim, j,
            lambda i: all(   # as StarAlgebra.contains_matrix, on unit vectors
                span.residual(v) <= tol.rank_threshold(1.0)
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
    equality, so no rounding boundary can split equal subspaces.  Per id
    the dim, the key and ``_KEPT_COORDINATES`` seeded coordinates of the
    fingerprint are kept, whose distance is at most the whole one.
    """

    def __init__(self, ambient_dim: int):
        rng = np.random.default_rng(_PROBE_SEED)
        self.probe = rng.standard_normal(ambient_dim) + 1j * rng.standard_normal(ambient_dim)
        # drawn after the probe, so the probe does not depend on them
        self._kept = rng.permutation(ambient_dim)[:_KEPT_COORDINATES]
        self._bound = _FINGERPRINT_MATCH * np.linalg.norm(self.probe)
        self._seen: list = []     # (kept fingerprint coordinates, dim, key) of each id

    def id_of(self, fp: np.ndarray, dim: int, key, contains) -> int:
        fp = fp[self._kept]
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

    properness = rp.is_proper(pi)
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
    """Rows and their violations, one class solve per conjugacy class, in order, keeping no basis.

    The first subgroup K of each class (``subgroup_classes``) gets its
    fixed dimension and bicommutant test from ``_solve_class``, and a
    conjugate H = gKg^-1 takes them (module docstring).  Every row reads
    y = E_H P_M r at unit Frobenius norm: its commutator residual on H's
    generators certifies the row, that on the generators of each H1 < H is
    the anti-monotone audit of the pair, and the interner fingerprints M^H
    by y and confirms a match by the audit's test.  Bicommutant violations
    come in row order, then anti-monotone ones with H1 outer and H2 inner.
    """
    classes = subgroup_classes(report.group, subgroups)
    # M must be invariant under every subgroup and every conjugation that carries a row
    chi = alg._ad_character(m, pi, {s for sub in subgroups for s in sub.generators}
                            | {g for _, g in classes})
    solved: dict = {}   # representative index -> _solve_class's (dim, ok, residual, dim once)
    n = m.ambient_dim
    interner = _Interner(n * n)
    # E_H commutes with P_M, so E_H P_M r = P_{M^H} r
    probe = (interner.probe if m.is_full else m.subspace().project(interner.probe)).reshape(n, n)
    residuals: dict = {}   # (index of H1, index of H2) -> commutator residual
    for j, (sub, (r, _)) in enumerate(zip(subgroups, classes)):
        if r == j:
            solved[j] = _solve_class(m, pi, sub, report.mode, alg._character_count(chi, sub), tol)
        fixed_dim, ok, residual, commutant_dim = solved[r]
        y = ncprob.conditional_expectation(probe, pi, sub)
        unit = y[None] / frob(y)

        def residual_on(i: int) -> float:
            """``commutator_residual`` of H_i's generators on y / ||y||_F."""
            return alg.commutator_residual(pi.matrices[list(subgroups[i].generators)], unit)

        if (worst := residual_on(j)) > _RESIDUAL_BOUND:
            raise ClosureFailed(
                f"the conditional expectation fails to commute with the unitaries of "
                f"its subgroup's generators, residual {worst:.3e}")
        for i, low in enumerate(subgroups):
            if low.members != sub.members and sub.contains(low):
                residuals[i, j] = residual_on(i)
        fixed_id = interner.id_of(y.reshape(-1), fixed_dim, j,
                                  lambda i: residual_on(i) <= _RESIDUAL_BOUND)
        if not ok:
            report.violations.append(("bicommutant", sub.members, residual))
        report.rows.append(GaloisRow(sub, fixed_dim, fixed_id, ok, residual, commutant_dim))
    for (i, j), res in sorted(residuals.items()):
        report.anti_monotone_pairs += 1
        if res > _RESIDUAL_BOUND:
            report.violations.append(
                ("anti-monotone", (subgroups[i].members, subgroups[j].members), float(res))
            )


def _solve_class(m: StarAlgebra, pi: rp.UnitaryRep, subgroup: Subgroup, mode: str,
                 count: float, tol: Tolerance) -> tuple:
    """(dim M^K, ok, residual, dim once) of a class representative K whose
    character count is ``count`` (module docstring).  The pair is drawn from
    a generator seeded with ``algebras._PAIR_SEED``.  In a full M ``once``
    is judged by ``_first_commutant_certificate``, and a passing one
    certifies the count by ``_require_isotypic_count``; in a non-full M the
    residual is the worse of twice's commutator residual and its distance
    from M.
    """
    rng = np.random.default_rng(alg._PAIR_SEED)
    shape = (2, pi.dim, pi.dim)
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not m.is_full:
        draw = m.subspace().project(draw.reshape(2, -1).T).T.reshape(shape)
    pair = ncprob.conditional_expectation(draw, pi, subgroup)
    # in inner mode M' joins each family of a non-full M: (F cup M')' = F' cap M
    outside = alg.commutant(m, tol).basis if mode == "inner" and not m.is_full else pair[:0]
    once = alg._solve_commutant(np.concatenate([pair, dagger(pair), outside]), tol)
    if m.is_full:
        ok, residual = _first_commutant_certificate(once, pi, subgroup)
        if ok:
            _require_isotypic_count(once, pi, subgroup, count, rng, tol)
        return round(count), ok, residual, once.dim
    twice = alg._solve_commutant(np.concatenate([once.basis, outside]), tol)
    residual = max(alg.commutator_residual(pi.matrices[list(subgroup.generators)], twice.basis),
                   m.subspace().containment_residual(twice.subspace()))
    ok = residual <= _RESIDUAL_BOUND and abs(twice.dim - count) <= 1e-6
    return round(count), ok, residual, once.dim


def _require_isotypic_count(once: StarAlgebra, pi: rp.UnitaryRep, subgroup: Subgroup,
                            count: float, rng: np.random.Generator, tol: Tolerance) -> None:
    """Raise ``DecompositionFailed`` unless sum_rho m_rho^2 over the constituents
    rho of U|_H, read off ``once`` = span U(H), is ``count``.

    z = E_H(sum_h c_h U_h) weighs each H-class of U(H) at random, so it is
    central in span U(H): its spectral blocks are the isotypic components,
    of rank d_rho m_rho, and span U(H) compressed to one is End(V_rho) (x) 1,
    of dimension d_rho^2 (Serre, 2.6).  A draw whose split merges two
    components fails and is redrawn, up to ``_MAX_RESAMPLES`` draws.
    """
    members = list(subgroup.members)
    for _ in range(_MAX_RESAMPLES):
        c = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
        z = ncprob.conditional_expectation(np.tensordot(c, pi.matrices[members], axes=1), pi,
                                           subgroup)
        total = 0
        for q in random_split(z[None], rng):
            e = q.shape[1]
            d2 = Subspace.from_span(compress(once.basis, q).reshape(once.dim, -1), e * e, tol).dim
            d = math.isqrt(d2)
            if d * d != d2 or e % d:
                failure = (f"an isotypic block of rank {e} carries a span of dimension {d2}, "
                           f"not d^2 for a d that divides {e}")
                break
            total += (e // d) ** 2
        else:
            if abs(total - count) <= 1e-6:
                return
            failure = (f"the isotypic multiplicities give dim M^H = {total}, "
                       f"the character formula gives {count:.6g}")
    raise DecompositionFailed(failure)


def _first_commutant_certificate(once: StarAlgebra, pi: rp.UnitaryRep, subgroup: Subgroup):
    """(ok, residual): whether ``once`` is span U(H) = (M^H)' in a full M, that is
    of dimension ``reps._span_rank`` with every U(h)/||U_h||_F, h in H, in it
    within the bound, and the worst of those membership residuals.
    ``once`` need only contain span U(H), as any commutant of elements of
    M^H does: the rank then decides equality."""
    rank = rp._span_rank(pi, subgroup.members)
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
