"""Matrix *-algebras as computable objects.

An algebra is stored as an orthonormal basis (Hilbert-Schmidt inner
product) of a subspace of the n^2-dimensional matrix space, which turns
algebra comparisons and intersections into numerically stable projection
arithmetic.  Commutants are joint kernels of Sylvester maps, computed by
``linalg.commutant_kernel`` from a single normal matrix so at most one
eigendecomposition does the whole job even for large bases; the same
kernel serves the Schur test in ``reps``.  None runs for an abelian
*-closed family (U(H) for abelian H, and the commutant of an abelian
algebra): its split blocks are joint eigenspaces, the block-diagonal
subspace is the whole commutant, and the normal matrix is null up to
rounding, which ``linalg.kernel_of_gram`` recognizes below the lowest
cut its rank rule can choose, so the decision is the one eigh would
make.  A fixed-point algebra of the full matrix algebra is the commutant
of the subgroup image, so it takes the same kernel; in a non-full M it is
solved in M's own coordinates, as the SVD nullspace of the d x d maps of
the generators (``fixed_coordinates``), with no n^2 kernel and no
intersection.
Commutants of *-closed families are solved on the block-diagonal subspace
of a seeded Hermitian element (``linalg.random_split``) instead of all n^2
coordinates; the same split of a center and of a multiplicity commutant
gives the block structure.  Membership is measured by projection
residuals of the algebra's ``Subspace``, and multiplicity copies are
aligned by ``linalg.intertwiner``, the finder ``reps.decompose`` uses too.

Each algebra is certified where it is built.  Closure residuals
(``_require_closed``) run only where closure is not a theorem: on outside
spans (``from_span``), grown spans (``algebra_from_generators``) and
commutants of families that are not *-closed.  Every commutant kernel is
checked against its defining equation BX = XB (``commutator_residual``),
a fixed-point basis on its subgroup's generators, together with the
character count in a full M (``_certified_fixed``); intersections of two
*-algebras are not re-checked.  A fixed algebra of a conjugate subgroup is
transported by one conjugation (``transported_fixed_algebra``) and takes
the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CenterSplitFailed,
    ClosureFailed,
    DecompositionFailed,
    DimensionMismatch,
    NotContained,
    NotInvariantAlgebra,
    ParentMismatch,
)
from .groups import Subgroup
from .linalg import DEFAULT_TOL, Subspace, Tolerance, dagger, frob
from .reps import UnitaryRep, average_conjugation

_CLOSURE_RESIDUAL = 1e-9


class StarAlgebra:
    """A unital *-subalgebra of the n-by-n matrices.

    ``basis`` is an (k, n, n) array of Hilbert-Schmidt orthonormal
    matrices.  The constructor checks shapes only; every construction path
    certifies its own result (see the module docstring).
    """

    def __init__(self, ambient_dim: int, basis):
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1] != ambient_dim or b.shape[2] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} does not fit ambient dimension {ambient_dim}"
            )
        self.ambient_dim = int(ambient_dim)
        self.basis = b
        self.basis.setflags(write=False)
        self._subspace = Subspace(ambient_dim * ambient_dim, b.reshape(b.shape[0], -1).T)

    # -- construction ------------------------------------------------------
    @staticmethod
    def from_span(matrices, ambient_dim: int,
                  tol: Tolerance = DEFAULT_TOL) -> "StarAlgebra":
        mats = np.asarray(matrices, dtype=np.complex128).reshape(-1, ambient_dim,
                                                                 ambient_dim)
        span = Subspace.from_span(mats.reshape(mats.shape[0], -1), ambient_dim ** 2, tol)
        basis = span.basis.T.reshape(-1, ambient_dim, ambient_dim)
        return _require_closed(StarAlgebra(ambient_dim, basis))

    @staticmethod
    def full(ambient_dim: int) -> "StarAlgebra":
        basis = np.eye(ambient_dim ** 2, dtype=np.complex128).reshape(
            ambient_dim ** 2, ambient_dim, ambient_dim
        )
        return StarAlgebra(ambient_dim, basis)

    @staticmethod
    def scalars(ambient_dim: int) -> "StarAlgebra":
        eye = np.eye(ambient_dim, dtype=np.complex128) / np.sqrt(ambient_dim)
        return StarAlgebra(ambient_dim, eye[None])

    @staticmethod
    def diagonal(ambient_dim: int) -> "StarAlgebra":
        basis = np.zeros((ambient_dim, ambient_dim, ambient_dim), dtype=np.complex128)
        for i in range(ambient_dim):
            basis[i, i, i] = 1.0
        return StarAlgebra(ambient_dim, basis)

    # -- views ---------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim ** 2

    def subspace(self) -> Subspace:
        return self._subspace

    # -- membership ----------------------------------------------------------
    def membership_residual(self, a: np.ndarray) -> float:
        return self._subspace.residual(np.asarray(a, dtype=np.complex128).reshape(-1))

    def contains_matrix(self, a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        scale = max(frob(np.asarray(a)), 1.0)
        return self.membership_residual(a) <= tol.rank_threshold(scale)

    def coordinates(self, a: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt coefficients of ``a``, or of each matrix of a stack, in the basis."""
        a = np.asarray(a, dtype=np.complex128)
        flat = a.reshape(*a.shape[:-2], self.ambient_dim ** 2)
        return flat @ self.basis.reshape(self.dim, -1).conj().T

    def from_coordinates(self, c: np.ndarray) -> np.ndarray:
        """The matrix, or stack of matrices, with coefficients ``c`` (last axis)."""
        return np.einsum("...k,kij->...ij", np.asarray(c, dtype=np.complex128), self.basis)

    def equals(self, other: "StarAlgebra", tol: Tolerance = DEFAULT_TOL) -> bool:
        return self._subspace.equals(other._subspace, tol)

    def contains_algebra(self, other: "StarAlgebra", tol: Tolerance = DEFAULT_TOL) -> bool:
        return self._subspace.contains(other._subspace, tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StarAlgebra(dim={self.dim}, ambient={self.ambient_dim})"


def _require_closed(a: StarAlgebra) -> StarAlgebra:
    """Closure axioms of a span that is not an algebra by construction."""
    n, b, k = a.ambient_dim, a.basis, a.dim
    eye = np.eye(n, dtype=np.complex128)
    if a.membership_residual(eye) > _CLOSURE_RESIDUAL * np.sqrt(n):
        raise ClosureFailed("identity matrix is not in the span")
    res = a.subspace().residual(dagger(b).reshape(k, n * n).T)
    if res > _CLOSURE_RESIDUAL:
        raise ClosureFailed(f"not closed under adjoints, residual {res:.3e}")
    # all pairwise products when affordable, a seeded sample otherwise
    if k * k <= 1024:
        prods = (b[:, None] @ b[None]).reshape(k * k, n * n)
    else:
        rng = np.random.default_rng(0)
        left = rng.integers(0, k, size=256)
        right = rng.integers(0, k, size=256)
        prods = (b[left] @ b[right]).reshape(-1, n * n)
    res = a.subspace().residual(prods.T)
    if res > _CLOSURE_RESIDUAL:
        raise ClosureFailed(f"not closed under products, residual {res:.3e}")
    return a


# ---------------------------------------------------------------------------
# generated closure


def algebra_from_generators(generators, ambient_dim: int,
                            tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators.

    Grows the span of words in the generators (and their adjoints); the
    dimension is monotone and bounded by n^2, so a non-stabilizing
    iteration is an internal error, not a tolerance knob.
    """
    n = ambient_dim
    gens = [np.asarray(g, dtype=np.complex128) for g in generators]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator shape {g.shape}, expected {(n, n)}")
    gens = gens + [dagger(g) for g in gens]
    seed = [np.eye(n, dtype=np.complex128)] + gens
    span = Subspace.from_span(np.array(seed).reshape(len(seed), -1), n * n, tol)
    if not gens:
        return StarAlgebra.from_span(seed, n, tol=tol)
    gen_stack = np.array(gens)
    for _ in range(n * n + 1):
        basis = span.basis.T.reshape(-1, n, n)
        words = (basis[:, None] @ gen_stack[None]).reshape(-1, n * n)
        grown = Subspace.from_span(np.vstack([span.basis.T, words]), n * n, tol)
        if grown.dim == span.dim:
            return _require_closed(StarAlgebra(n, grown.basis.T.reshape(-1, n, n)))
        span = grown
    raise ClosureFailed("span growth did not stabilize within n^2 steps")


# ---------------------------------------------------------------------------
# commutants


def commutant_of_matrices(mats, ambient_dim: int,
                          tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """All matrices commuting with every element of the given family.

    The kernel is reduced to a block-diagonal subspace only when the span
    of the family is closed under adjoints; otherwise the full Sylvester
    gram is solved, and since the commutant of such a family need not be
    a *-algebra, its closure is checked.
    """
    mats = np.asarray(mats, dtype=np.complex128).reshape(-1, ambient_dim, ambient_dim)
    if mats.shape[0] == 0:
        return StarAlgebra.full(ambient_dim)
    if _is_star_closed(mats, tol):
        return _commutant(mats, True, tol)
    return _require_closed(_commutant(mats, False, tol))


def _is_star_closed(mats: np.ndarray, tol: Tolerance) -> bool:
    """Whether the adjoint of every matrix lies in the span of the family."""
    k, n, _ = mats.shape
    span = Subspace.from_span(mats.reshape(k, -1), n * n, tol)
    adj = dagger(mats).reshape(k, -1).T
    norms = np.linalg.norm(adj, axis=0)
    return span.residual(adj[:, norms > 0] / norms[norms > 0]) <= _CLOSURE_RESIDUAL


def commutator_residual(family: np.ndarray, basis: np.ndarray) -> float:
    """Worst ||BX - XB||_F / max(||B||_F, 1) over members B and basis X, one B at a time."""
    worst = 0.0
    for b in family:
        moved = np.linalg.norm(b @ basis - basis @ b, axis=(1, 2))
        worst = max(worst, float(np.max(moved, initial=0.0)) / max(frob(b), 1.0))
    return worst


def _commutant(mats: np.ndarray, star_closed: bool, tol: Tolerance) -> StarAlgebra:
    """Commutant of ``mats``, certified on ``mats``."""
    n = mats.shape[1]
    basis = linalg.commutant_kernel(mats, tol, star_closed=star_closed).T.reshape(-1, n, n)
    return StarAlgebra(n, _require_commuting(mats, basis))


def _require_commuting(family: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The basis of a commutant kernel, once it commutes with the family."""
    worst = commutator_residual(family, basis)
    if worst > _CLOSURE_RESIDUAL:
        raise ClosureFailed(
            f"commutant basis fails to commute with the family, residual {worst:.3e}"
        )
    return basis


def commutant(a: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """The commutant algebra, certified by its commutator residual.

    A *-algebra's basis spans a *-closed space, so the kernel is always
    solved on the reduced block-diagonal subspace, and the commutant is a
    unital *-algebra by construction.
    """
    return _commutant(a.basis, True, tol)


def bicommutant_check(a: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Finite-dimensional double-commutant self-test: A'' == A as subspaces."""
    return commutant(commutant(a, tol), tol).equals(a, tol)


def relative_commutant(a: StarAlgebra, m: StarAlgebra,
                       tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """A' intersected with M, re-closed as an algebra."""
    if a.ambient_dim != m.ambient_dim:
        raise DimensionMismatch("algebras live on different spaces")
    if m.is_full:
        return commutant(a, tol)
    if not m.contains_algebra(a, tol):
        raise NotContained("first algebra is not contained in the second")
    c = commutant(a, tol)
    inter = c.subspace().intersect(m.subspace(), tol)
    basis = inter.basis.T.reshape(-1, a.ambient_dim, a.ambient_dim)
    return StarAlgebra(a.ambient_dim, basis)


def center(m: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    return relative_commutant(m, m, tol)


def is_factor(m: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    return center(m, tol).dim == 1


# ---------------------------------------------------------------------------
# block (type-I) structure


@dataclass(frozen=True)
class BlockStructure:
    """Shape [(block_dim, multiplicity), ...] plus the conjugating unitary.

    Conjugation by ``unitary`` maps the algebra to an exact direct sum in
    which central block b carries matrices ``kron(A_b, eye(multiplicity))``.
    """

    blocks: tuple
    unitary: np.ndarray

    @property
    def total_dim(self) -> int:
        return sum(n * m for n, m in self.blocks)


def _factor_structure(basis: np.ndarray, rng, tol: Tolerance):
    """Unitary taking a factor on C^r to exact kron(M_n, eye_m) form."""
    r = basis.shape[1]
    block_dim = int(round(np.sqrt(basis.shape[0])))
    if block_dim * block_dim != basis.shape[0]:
        raise DecompositionFailed(
            f"central block of dimension {basis.shape[0]} is not a full matrix algebra"
        )
    mult = r // block_dim
    if block_dim * mult != r:
        raise DecompositionFailed("block carrier size is not divisible by block dim")

    comm = commutant_of_matrices(basis, r, tol)
    if comm.dim != mult * mult:
        raise DecompositionFailed(
            f"commutant dimension {comm.dim} disagrees with multiplicity {mult}"
        )
    if mult == 1:
        isoms = [np.eye(r, dtype=np.complex128)]
    else:
        isoms = linalg.random_split(comm.basis, rng, mult, tol)
        if any(q.shape[1] != block_dim for q in isoms):
            raise CenterSplitFailed(
                f"multiplicity copies of sizes {[q.shape[1] for q in isoms]}, "
                f"expected {block_dim} each"
            )

    # restricted actions on each copy; align copies to the first one
    act = [linalg.compress(basis, q) for q in isoms]
    columns = np.zeros((r, block_dim, mult), dtype=np.complex128)
    columns[:, :, 0] = isoms[0]
    for j in range(1, mult):
        s = linalg.intertwiner(act[j], act[0], rng)
        columns[:, :, j] = isoms[j] @ s
    # carrier index (a, j) with a slow: conjugation gives kron(A, eye(mult))
    unitary = columns.reshape(r, block_dim * mult)
    return block_dim, mult, unitary


def block_structure(m: StarAlgebra, seed: int = 0,
                    tol: Tolerance = DEFAULT_TOL) -> BlockStructure:
    """Unique type-I shape of the algebra: direct sum of kron(M_n, 1_m) blocks.

    Minimal central projections come from spectrally splitting a generic
    element of the center; inside each central block the block dimension
    is the irreducible size and the multiplicity comes from the commutant.
    """
    rng = np.random.default_rng(seed)
    n = m.ambient_dim
    z = center(m, tol)
    pieces = linalg.random_split(z.basis, rng, z.dim, tol) if z.dim > 1 else [
        np.eye(n, dtype=np.complex128)
    ]

    found = []
    for q in pieces:
        compressed = linalg.compress(m.basis, q)
        span = Subspace.from_span(
            compressed.reshape(m.dim, -1), q.shape[1] ** 2, tol
        )
        local_basis = span.basis.T.reshape(-1, q.shape[1], q.shape[1])
        block_dim, mult, w = _factor_structure(local_basis, rng, tol)
        found.append((block_dim, mult, q @ w))

    found.sort(key=lambda t: (t[0], t[1]))
    unitary = np.hstack([w for _, _, w in found])
    blocks = tuple((b, mu) for b, mu, _ in found)
    if sum(b * mu for b, mu in blocks) != n:
        raise DecompositionFailed("block sizes do not add up to the ambient dimension")
    return BlockStructure(blocks, unitary)


def block_structure_residual(m: StarAlgebra, structure: BlockStructure) -> float:
    """How far conjugated basis elements are from exact block-kron form."""
    c = linalg.compress(m.basis, structure.unitary)
    rebuilt = np.zeros_like(c)
    at = 0
    for bd, mu in structure.blocks:
        size = bd * mu
        blk = c[:, at:at + size, at:at + size].reshape(-1, bd, mu, bd, mu)
        small = np.einsum("kajbj->kab", blk) / mu
        rebuilt[:, at:at + size, at:at + size] = np.kron(small, np.eye(mu))
        at += size
    return float(np.max(np.linalg.norm(c - rebuilt, axis=(1, 2))))


# ---------------------------------------------------------------------------
# fixed-point algebras and averaging


def fixed_point_algebra(m: StarAlgebra, rep: UnitaryRep, subgroup: Subgroup,
                        tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Elements of M invariant under conjugation by the subgroup's unitaries.

    For a full M, U X U* = X for a unitary U exactly when X commutes with U,
    so the fixed algebra is the commutant U(H)', of dimension the character
    count (1/|H|) sum_h |chi_U(h)|^2 (Serre, 2.3).  A non-full M is solved in
    its own coordinates: one compression of its basis by each generator's
    unitary checks that M is invariant and gives the d x d map of Ad U_s,
    and M^H is their joint ``fixed_coordinates``.  Either basis is certified
    by ``_certified_fixed``.
    """
    if rep.dim != m.ambient_dim:
        raise DimensionMismatch("representation does not act on the algebra's space")
    if subgroup.parent != rep.group:
        raise ParentMismatch("subgroup of another group than the representation's")
    n = rep.dim
    if not m.is_full:
        maps = _conjugation_maps(m, rep, subgroup.generators)
        basis = fixed_coordinates(maps, tol).T @ m.basis.reshape(m.dim, -1)
    else:
        mats = rep.matrices[list(subgroup.members)]
        basis = linalg.commutant_kernel(mats, tol, star_closed=True).T
    return _certified_fixed(m, rep, subgroup, basis.reshape(-1, n, n))


def transported_fixed_algebra(fixed: StarAlgebra, m: StarAlgebra, rep: UnitaryRep,
                              subgroup: Subgroup, g: int) -> StarAlgebra:
    """M^H as U_g M^K U_g*, for the fixed algebra M^K of K = g^-1 H g.

    Ad U_g is a *-automorphism of an invariant M that carries M^K onto
    M^{gKg^-1} (conjugate the equation U_k X U_k* = X by U_g), so one
    compression replaces the kernel.  The result keeps its own certificate
    (``_certified_fixed``), and a non-full M must be invariant under Ad U_g.
    """
    if not m.is_full:   # every unitary preserves the full algebra
        _conjugation_maps(m, rep, (g,))
    moved = linalg.compress(fixed.basis, dagger(rep.matrices[g]))
    return _certified_fixed(m, rep, subgroup, moved)


def _conjugation_maps(m: StarAlgebra, rep: UnitaryRep, elements) -> np.ndarray:
    """The d x d coordinate map of Ad U_h on M for each element h, once M is invariant."""
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


def _certified_fixed(m: StarAlgebra, rep: UnitaryRep, subgroup: Subgroup,
                     basis: np.ndarray) -> StarAlgebra:
    """M^H from its basis, once the basis commutes with the unitaries of H's
    generators and, in a full M, its size is the character count."""
    _require_commuting(rep.matrices[list(subgroup.generators)], basis)
    if m.is_full:
        chi = np.trace(rep.matrices[list(subgroup.members)], axis1=1, axis2=2)
        expected = float(np.sum(np.abs(chi) ** 2)) / subgroup.order
        if abs(len(basis) - expected) > 1e-6:
            raise DecompositionFailed(
                f"fixed-point algebra has dimension {len(basis)}, "
                f"the character formula gives {expected:.6g}"
            )
    return StarAlgebra(rep.dim, basis)


def fixed_coordinates(maps: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns c with c A = c for every map A of the stack.

    Row j of a map holds the coordinates of the image of basis element j, so
    these are the fixed coordinate vectors: the SVD nullspace of the stacked
    A^T - 1 under the global rank rule.  An empty stack fixes everything.
    """
    d = maps.shape[-1]
    return linalg.nullspace((maps.swapaxes(-1, -2) - np.eye(d)).reshape(-1, d), tol).basis


@dataclass(frozen=True)
class AveragingReport:
    invariant_part: np.ndarray
    fluctuation: np.ndarray
    state_residuals: tuple


def averaging_projection(a, rep: UnitaryRep, invariant_states=(),
                         tol: Tolerance = DEFAULT_TOL) -> AveragingReport:
    """Split a into its invariant average and the state-annihilated rest.

    Returns ``(a_avg, a - a_avg)`` where ``a_avg`` is the group average of
    the conjugates; every supplied invariant state must kill the
    fluctuation part, and the residuals are reported.
    """
    a = np.asarray(a, dtype=np.complex128)
    avg = average_conjugation(rep, a)
    rest = a - avg
    residuals = tuple(
        float(abs(np.trace(np.asarray(rho) @ rest))) for rho in invariant_states
    )
    return AveragingReport(avg, rest, residuals)
