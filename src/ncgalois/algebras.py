"""Matrix *-algebras as computable objects.

An algebra is stored as an orthonormal basis (Hilbert-Schmidt inner
product) of a subspace of the n^2-dimensional matrix space, which turns
algebra comparisons into numerically stable projection arithmetic.  The
full algebra M_n (``StarAlgebra.full``) is stored by its size and builds
its basis, the n^2 x n^2 identity, only on first read.  Commutants are
joint kernels of Sylvester maps of *-closed families,
``linalg.commutant_kernel`` (its docstring has the mechanism, and the
abelian case that forms no normal matrix), the kernel the Schur test in
``reps`` uses too.  An algebra's commutant A' (``commutant``) is the
kernel of its seeded generating pair, certified by A'' = A and kept on
the algebra per tolerance, so a crossed algebra's self-test and its
``center`` share one kernel; meeting M joins M' to the family, as
A' cap M = (A cup M')'.  ``commutant_of_matrices`` takes any other
family and rejects one whose span is not closed under adjoints.  A
fixed-point algebra of the full matrix algebra is the commutant of the
subgroup image, unless every unitary is a permutation matrix: then it is
spanned by the normalized indicators of the subgroup's orbitals
(``UnitaryRep.orbitals``), read off in integers with no kernel.  In a
non-full M no fixed-point algebra is built: its dimension is the
character count of Ad U on M (``_ad_character``), whose moved basis
(``UnitaryRep.conjugate``) also checks that M is invariant.  The same
split of a center and of a multiplicity commutant gives the block
structure.  Membership is measured by projection residuals of the
algebra's ``Subspace``, and multiplicity copies are aligned by
``linalg.intertwiner``, the finder ``reps.decompose`` uses too.

Each algebra is certified where it is built.  A span that is not an
algebra by construction (``from_span``, ``algebra_from_generators``)
must hold the identity and its adjoints (``_require_closed``) and pass
A'' = A, which a span not closed under products fails.  Any other
family's kernel is checked against BX = XB (``commutator_residual``) on
the family, a fixed-point basis on its subgroup's generators, together
with the character count (``_certified_fixed``).
"""

from __future__ import annotations

import functools
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
from .groups import Subgroup, closure, conjugation_table, generating_set
from .linalg import DEFAULT_TOL, Subspace, Tolerance, dagger, frob
from .reps import UnitaryRep

_CLOSURE_RESIDUAL = 1e-9
# largest distance from M of a conjugated basis element that an invariance check forgives
_INVARIANCE_RESIDUAL = 1e-8
# each generating pair of an algebra is drawn from a generator with this seed
_PAIR_SEED = 1


class StarAlgebra:
    """A unital *-subalgebra of the n-by-n matrices.

    ``basis`` is an (k, n, n) array of Hilbert-Schmidt orthonormal
    matrices.  The constructor checks shapes only; every construction path
    certifies its own result (see the module docstring).  A basis of None is
    the full algebra M_n (``full``), stored by its size ``dim`` = n^2: its
    basis, the n^2 x n^2 identity, and the ``Subspace`` behind ``subspace``
    and ``contains_algebra`` are built on first read, so a caller
    that reads only ``ambient_dim``, ``dim`` and ``is_full`` never holds them.
    """

    def __init__(self, ambient_dim: int, basis=None):
        self.ambient_dim = int(ambient_dim)
        if basis is None:
            self.dim = self.ambient_dim ** 2
            return
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1] != ambient_dim or b.shape[2] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} does not fit ambient dimension {ambient_dim}"
            )
        b.setflags(write=False)
        self.dim = b.shape[0]
        # instance attributes shadow the cached properties, which build M_n's
        self.basis = b
        self._subspace = Subspace(ambient_dim * ambient_dim, b.reshape(self.dim, -1).T)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The full algebra's basis, the matrix units in row-major order."""
        n = self.ambient_dim
        b = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
        b.setflags(write=False)
        return b

    @functools.cached_property
    def _commutants(self) -> dict:
        """Tolerance -> commutant, filled by ``commutant``."""
        return {}

    @functools.cached_property
    def _subspace(self) -> Subspace:
        return Subspace(self.ambient_dim ** 2, self.basis.reshape(self.dim, -1).T)

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
        return StarAlgebra(ambient_dim)

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
        c = np.asarray(c, dtype=np.complex128)
        flat = c @ self.basis.reshape(self.dim, -1)
        return flat.reshape(*c.shape[:-1], self.ambient_dim, self.ambient_dim)

    def contains_algebra(self, other: "StarAlgebra", tol: Tolerance = DEFAULT_TOL) -> bool:
        return self._subspace.contains(other._subspace, tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StarAlgebra(dim={self.dim}, ambient={self.ambient_dim})"


def _require_closed(a: StarAlgebra) -> StarAlgebra:
    """The identity and the adjoints in the span, then products by
    ``commutant``'s certificate A'' = A."""
    n, k = a.ambient_dim, a.dim
    if a.membership_residual(np.eye(n, dtype=np.complex128)) > _CLOSURE_RESIDUAL * np.sqrt(n):
        raise ClosureFailed("identity matrix is not in the span")
    res = a.subspace().residual(dagger(a.basis).reshape(k, n * n).T)
    if res > _CLOSURE_RESIDUAL:
        raise ClosureFailed(f"not closed under adjoints, residual {res:.3e}")
    commutant(a)
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
    """All matrices commuting with every element of a *-closed family.

    The span of the family must be closed under adjoints, which makes the
    commutant a unital *-algebra and lets the kernel be solved on the
    block-diagonal subspace of a split; any other family is rejected.
    """
    mats = np.asarray(mats, dtype=np.complex128).reshape(-1, ambient_dim, ambient_dim)
    if mats.shape[0] == 0:
        return StarAlgebra.full(ambient_dim)
    if not _is_star_closed(mats, tol):
        raise ClosureFailed("the family is not closed under adjoints")
    return _commutant(mats, tol)


def _generating_pair(basis: np.ndarray) -> np.ndarray:
    """a, b, a*, b* for two complex Gaussian combinations a, b of ``basis``,
    drawn from a generator seeded with ``_PAIR_SEED``.

    Two generic elements generate a matrix *-algebra (Dixon, Math. Comp.
    1970), so the commutant of these four is the commutant of the span of
    ``basis``; a caller that relies on it certifies the generation, by a
    rank or a dimension, since a pair that does not generate only enlarges
    the commutant.
    """
    rng = np.random.default_rng(_PAIR_SEED)
    c = rng.standard_normal((2, len(basis))) + 1j * rng.standard_normal((2, len(basis)))
    pair = np.tensordot(c, basis, axes=1)
    return np.concatenate([pair, dagger(pair)])


def _is_star_closed(mats: np.ndarray, tol: Tolerance) -> bool:
    """Whether the adjoint of every matrix lies in the span of the family."""
    k, n, _ = mats.shape
    span = Subspace.from_span(mats.reshape(k, -1), n * n, tol)
    adj = dagger(mats).reshape(k, -1).T
    norms = np.linalg.norm(adj, axis=0)
    return span.residual(adj[:, norms > 0] / norms[norms > 0]) <= _CLOSURE_RESIDUAL


def commutator_residual(family: np.ndarray, basis: np.ndarray) -> float:
    """Worst ||BX - XB||_F / max(||B||_F, 1) over members B and basis X,
    one B and one panel of ``linalg._PANEL`` basis elements at a time."""
    worst = 0.0
    for at in range(0, len(basis), linalg._PANEL):
        panel = basis[at:at + linalg._PANEL]
        for b in family:
            moved = np.linalg.norm(b @ panel - panel @ b, axis=(1, 2))
            worst = max(worst, float(np.max(moved)) / max(frob(b), 1.0))
    return worst


def _solve_commutant(family: np.ndarray, tol: Tolerance) -> StarAlgebra:
    """The Sylvester kernel of a *-closed family as an algebra, uncertified:
    each caller certifies it, by a commutator residual, a count or A'' = A."""
    n = family.shape[1]
    return StarAlgebra(n, linalg.commutant_kernel(family, tol).T.reshape(-1, n, n))


def _commutant(mats: np.ndarray, tol: Tolerance) -> StarAlgebra:
    """Commutant of the *-closed family ``mats``, certified on ``mats``."""
    c = _solve_commutant(mats, tol)
    _require_commuting(commutator_residual(mats, c.basis))
    return c


def _require_commuting(worst: float) -> None:
    """Refuse a commutant kernel whose commutator residual on its family is ``worst``."""
    if worst > _CLOSURE_RESIDUAL:
        raise ClosureFailed(
            f"commutant basis fails to commute with the family, residual {worst:.3e}"
        )


def commutant(a: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """A', the kernel of A's ``_generating_pair``, kept on ``a`` per tolerance.

    Certified by the double commutant: the kernel of A' must have dimension
    dim A and, unless A is full, equal A, else ``ClosureFailed``.  A pair's
    commutant holds A', so its own commutant lies in the algebra the pair
    generates, inside A; at dim A it is A, and the pair's kernel is A'.  A
    span not closed under products fails too, as its pair generates more.
    """
    if tol not in a._commutants:
        first = _solve_commutant(_generating_pair(a.basis), tol)
        second = _solve_commutant(first.basis, tol)
        if second.dim != a.dim or not (a.is_full or a.subspace().equals(second.subspace(), tol)):
            raise ClosureFailed(f"the double commutant, of dimension {second.dim}, is not the "
                                f"span, of dimension {a.dim}: it failed its bicommutant test A'' = A "
                                f"and is not closed under products")
        a._commutants[tol] = first
    return a._commutants[tol]


def relative_commutant(a: StarAlgebra, m: StarAlgebra,
                       tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """A' cap M = (A cup M')', the ``_commutant`` of A's pair (certified by
    ``commutant(a)``) and M''s basis; A in M is checked unless A is M (``center``)."""
    if a.ambient_dim != m.ambient_dim:
        raise DimensionMismatch("algebras live on different spaces")
    if m.is_full:
        return commutant(a, tol)
    if a is not m and not m.contains_algebra(a, tol):
        raise NotContained("first algebra is not contained in the second")
    commutant(a, tol)
    return _commutant(np.concatenate([_generating_pair(a.basis), commutant(m, tol).basis]), tol)


def center(m: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Z(M) = (M cup M')' (``relative_commutant``)."""
    return relative_commutant(m, m, tol)


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

    comm = commutant(StarAlgebra(r, basis), tol)
    if comm.dim != mult * mult:
        raise DecompositionFailed(
            f"commutant dimension {comm.dim} disagrees with multiplicity {mult}"
        )
    if mult == 1:
        isoms = [np.eye(r, dtype=np.complex128)]
    else:
        isoms = linalg.random_split(comm.basis, rng, mult)
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
    pieces = linalg.random_split(z.basis, rng, z.dim) if z.dim > 1 else [
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
# fixed-point algebras


def fixed_point_algebra(m: StarAlgebra, rep: UnitaryRep, subgroup: Subgroup,
                        tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Elements of M = M_n invariant under conjugation by the subgroup's
    unitaries: U(H)', since U X U* = X exactly when X commutes with U.

    When every U_g is a permutation matrix (``UnitaryRep.action``), U(H)'
    is spanned by the indicators of the orbits of H on pairs of points, its
    orbitals (``UnitaryRep.orbitals``; Wielandt, *Finite Permutation
    Groups*, 1964, ch. V): disjoint, so normalized they are Hilbert-Schmidt
    orthonormal, and no kernel is solved.  Any other representation takes
    the Sylvester kernel of U(H).  Every basis is certified by
    ``_certified_fixed``.
    """
    if rep.dim != m.ambient_dim:
        raise DimensionMismatch("representation does not act on the algebra's space")
    if subgroup.parent != rep.group:
        raise ParentMismatch("subgroup of another group than the representation's")
    if not m.is_full:
        raise ValueError("a fixed-point algebra is built in a full matrix algebra only")
    if rep.action is not None:
        basis = _orbital_indicators(rep.orbitals(subgroup.members))
    else:
        basis = linalg.commutant_kernel(rep.matrices[list(subgroup.members)], tol).T
    return _certified_fixed(m, rep, subgroup, basis.reshape(-1, rep.dim, rep.dim))


def _orbital_indicators(orbitals: np.ndarray) -> np.ndarray:
    """The (k, n, n) normalized indicators of the k classes of ``orbitals``, in class order."""
    n = orbitals.shape[0]
    flat = orbitals.ravel()
    sizes = np.bincount(flat)
    basis = np.zeros((len(sizes), n * n), dtype=np.complex128)
    basis[flat, np.arange(n * n)] = 1.0 / np.sqrt(sizes)[flat]
    return basis.reshape(-1, n, n)


def _ad_character(m: StarAlgebra, rep: UnitaryRep, seed=()) -> np.ndarray:
    """chi(g) = tr(Ad U_g on M), real as Ad U_g and P_M commute with the
    adjoint: |chi_U(g)|^2 for every g in a full M (Ad U = U (x) conj U).

    Else chi is NaN outside L, the subgroup ``seed`` generates.  M moved by
    each generator s of L must stay in M within ``_INVARIANCE_RESIDUAL``,
    else ``NotInvariantAlgebra`` names s; so chi is a class function of L,
    and each L-class takes sum_j <B_j, U_g B_j U_g*> at its least member g,
    one ``linalg._PANEL`` of M's basis at a time (``UnitaryRep.conjugate``,
    an index move on a permutation carrier).
    """
    if m.is_full:
        return np.abs(rep.character()) ** 2
    members = list(closure(rep.group, seed))
    checked = set(generating_set(rep.group, members))
    least = conjugation_table(rep.group)[np.ix_(members, members)].min(axis=0)
    traces = np.zeros(rep.group.order)
    for g in sorted(checked | set(least.tolist())):
        for at in range(0, m.dim, linalg._PANEL):
            panel = m.basis[at:at + linalg._PANEL]
            moved = rep.conjugate(panel, g)
            traces[g] += np.vdot(panel, moved).real
            if g in checked and (res := m.subspace().residual(
                    moved.reshape(len(panel), -1).T)) > _INVARIANCE_RESIDUAL:
                raise NotInvariantAlgebra(
                    f"conjugation by element {g} leaves the algebra (residual {res:.3e})")
    chi = np.full(rep.group.order, np.nan)
    chi[members] = traces[least]
    return chi


def _character_count(chi: np.ndarray, subgroup: Subgroup) -> float:
    """(1/|H|) sum_h chi(h), dim of H's fixed vectors for the character chi
    (Serre, 2.3): dim M^H for ``_ad_character``; in a full M, dim U(H)', for
    a permutation character the number of orbitals (Burnside)."""
    return float(np.sum(chi[list(subgroup.members)])) / subgroup.order


def _certified_fixed(m: StarAlgebra, rep: UnitaryRep, subgroup: Subgroup,
                     basis: np.ndarray) -> StarAlgebra:
    """M^H from its basis, once the basis commutes with the unitaries of H's
    generators and its size is ``_character_count``, which checks an
    orbital basis independently."""
    _require_commuting(commutator_residual(rep.matrices[list(subgroup.generators)], basis))
    expected = _character_count(_ad_character(m, rep, subgroup.generators), subgroup)
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

