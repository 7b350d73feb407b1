"""Unitary representations of finite groups and the Peter-Weyl toolkit.

Everything about the irreducibles starts from the character table, which
comes from the multiplication table alone by a randomized split of the
class-sum algebra (``character_table``); it fixes the canonical order of
the irreducibles and is all that ``is_proper`` and the Galois
correspondence read.  The irreducible matrices (``irrep_table``) are read
off the left-regular action by index, with no |G| x |G| x |G| stack: each
is the compression of the left translations to one copy of its isotypic
component, split into copies by a seeded element of the right-regular
action.  A representation is decomposed (``invariant_isometries``,
``decompose``) by the multiplicities of character pairing and, for each
copy, an intertwiner averaged over the group (Schur's lemma), so no
commutant is solved and nothing is split recursively.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DecompositionFailed,
    IncompleteTable,
    NotAHomomorphism,
    NotIrreducible,
    ParentMismatch,
)
from .groups import FiniteGroup, conjugacy_classes
from .linalg import DEFAULT_TOL, Tolerance, dagger, frob

_CHARACTER_MATCH = 1e-8
_TABLE_SEED = 0x5EED


class UnitaryRep:
    """A homomorphism from a finite group into unitary matrices.

    ``matrices`` has shape ``(order, dim, dim)``.  Construction verifies
    unitarity, U(e) = 1 and U(a)U(s) = U(as) for every element a and every
    generator s in ``group.generators``, which is the whole homomorphism.
    """

    def __init__(self, group: FiniteGroup, matrices, check: bool = True):
        mats = np.asarray(matrices, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise ParentMismatch(
                f"need {group.order} square matrices, got shape {mats.shape}"
            )
        self.group = group
        self.dim = mats.shape[1]
        self.matrices = mats
        self.matrices.setflags(write=False)
        # subgroup members -> H's orbital labels, filled by ``orbitals``
        self._orbitals: dict = {}
        if check:
            self._validate()

    def _validate(self) -> None:
        # each check passes only on a residual <= its bound, so NaN fails
        err = max(frob(dagger(m) @ m - np.eye(self.dim)) for m in self.matrices)
        if not err <= 1e-8 * max(1.0, self.dim):
            raise NotAHomomorphism(f"matrices not unitary, residual {err:.3e}")
        _check_homomorphism(self.group, self.matrices)

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    @cached_property
    def action(self) -> np.ndarray | None:
        """The point table act[g, x], U_g e_x = e_{act[g, x]}, when every matrix
        is exactly a 0/1 permutation matrix, else None: an exact scan, once per
        representation, of matrices that arrive dense (``permutation_rep`` sets
        the table it checked instead)."""
        mats = self.matrices
        if not (np.all((mats == 0) | (mats == 1)) and np.all(mats.sum(axis=1) == 1)
                and np.all(mats.sum(axis=2) == 1)):
            return None
        act = np.argmax(mats.real, axis=1)
        act.setflags(write=False)
        return act

    def orbitals(self, members) -> np.ndarray:
        """The (n, n) orbital of each pair (x, y) of points under the subgroup
        of ``members`` on a permutation carrier, numbered 0, 1, ... by least
        code min_h act[h, x] n + act[h, y]; kept per member tuple."""
        if members not in self._orbitals:
            moved, n = self.action[list(members)], self.dim
            least = np.min(moved[:, :, None] * n + moved[:, None, :], axis=0)
            labels = np.unique(least, return_inverse=True)[1].reshape(n, n)
            labels.setflags(write=False)
            self._orbitals[members] = labels
        return self._orbitals[members]

    def conjugate(self, stack: np.ndarray, g: int) -> np.ndarray:
        """U_g X U_g* for every X of the stack: on a permutation carrier the
        index move (U X U*)[act x, act y] = X[x, y], else ``linalg.compress``."""
        if self.action is None:
            return linalg.compress(stack, dagger(self.matrices[g]))
        back = self.action[self.group.inverse[g]]
        return stack[..., back[:, None], back]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnitaryRep(order={self.group.order}, dim={self.dim})"


def _check_homomorphism(group: FiniteGroup, mats: np.ndarray) -> None:
    """U(e) = 1 and U(a)U(s) = U(as) for every a and generator s, one |G| stack
    per generator."""
    if not frob(mats[group.identity] - np.eye(mats.shape[1])) <= 1e-8:
        raise NotAHomomorphism("identity element does not map to identity matrix")
    err = float(np.max([np.max(np.abs(mats @ mats[s] - mats[group.mult[:, s]]))
                        for s in group.generators], initial=0.0))
    if not err <= 1e-8:
        raise NotAHomomorphism(f"homomorphism violated, residual {err:.3e}")


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation on C^order: U_a e_b = e_{a*b}."""
    return permutation_rep(group, group.mult)


def permutation_rep(group: FiniteGroup, action) -> UnitaryRep:
    """Representation by permutation matrices for a given action table.

    ``action[g][i]`` is the image of point ``i`` under element ``g``, and
    U_g e_i = e_{action[g][i]}.  The table is checked exactly: every row is
    a permutation, the identity fixes every point, and
    ``action[a*s] == action[a][action[s]]`` for every element a and every
    generator s, the whole homomorphism (``_check_homomorphism``).  The
    representation keeps a read-only copy of the table as its ``action``.
    """
    act = np.array(action, dtype=np.intp)
    if act.ndim != 2 or act.shape[0] != group.order:
        raise ParentMismatch(f"need one row of point images per element, got shape {act.shape}")
    npts = act.shape[1]
    points = np.arange(npts)
    bad_rows = np.any(np.sort(act, axis=1) != points, axis=1)
    if bad_rows.any():
        raise NotAHomomorphism(f"row {int(np.argmax(bad_rows))} of the action is not a permutation")
    if np.any(act[group.identity] != points):
        raise NotAHomomorphism("the identity element moves a point")
    gens = list(group.generators)
    broken = np.any(act[group.mult[:, gens]] != act[:, act[gens]], axis=2)
    if broken.any():
        a, j = map(int, np.argwhere(broken)[0])
        raise NotAHomomorphism(f"action[{a}*{gens[j]}] != action[{a}][action[{gens[j]}]]")
    mats = np.zeros((group.order, npts, npts), dtype=np.complex128)
    mats[np.arange(group.order)[:, None], act, points] = 1.0
    rep = UnitaryRep(group, mats, check=False)
    act.setflags(write=False)
    rep.action = act   # shadows the cached property, which scans the matrices
    return rep


def direct_sum(*reps: UnitaryRep) -> UnitaryRep:
    group = reps[0].group
    total = sum(r.dim for r in reps)
    mats = np.zeros((group.order, total, total), dtype=np.complex128)
    at = 0
    for r in reps:
        if r.group != group:
            raise ParentMismatch("direct sum of representations of different groups")
        mats[:, at:at + r.dim, at:at + r.dim] = r.matrices
        at += r.dim
    return UnitaryRep(group, mats, check=False)


# ---------------------------------------------------------------------------
# unitarization


def unitarize(group: FiniteGroup, matrices, tol: Tolerance = DEFAULT_TOL) -> UnitaryRep:
    """Turn an invertible-matrix representation into a unitary one.

    Conjugates with the square root of the averaged Gram matrix
    ``G = (1/order) sum_g M_g* M_g``, which realizes the invariant inner
    product ``<u, v> = (1/order) sum_g <M_g u, M_g v>``.
    """
    mats = np.asarray(matrices, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
        raise ParentMismatch(f"need {group.order} square matrices, got shape {mats.shape}")
    _check_homomorphism(group, mats)
    gram = np.einsum("gji,gjk->ik", mats.conj(), mats) / group.order
    root = linalg.matrix_real_power(gram, 0.5, tol)
    root_inv = linalg.matrix_real_power(gram, -0.5, tol)
    return UnitaryRep(group, root @ mats @ root_inv)


# ---------------------------------------------------------------------------
# irreducible tables, canonicalized per group


@dataclass(frozen=True)
class IrrepTable:
    """Complete list of pairwise-inequivalent irreducibles of one group."""

    group: FiniteGroup
    irreps: tuple  # of UnitaryRep
    characters: np.ndarray  # shape (len(irreps), order)

    @property
    def dims(self) -> tuple:
        return tuple(r.dim for r in self.irreps)


def _nearest_character(characters, chi) -> tuple:
    """(index, distance) of the row of ``characters`` nearest chi in the max norm,
    the index None when that distance exceeds ``_CHARACTER_MATCH``: the one rule
    by which two characters are equal, so a distance at the bound is a match."""
    diffs = np.max(np.abs(np.asarray(characters) - np.asarray(chi)), axis=1)
    best = int(np.argmin(diffs))
    return (best if diffs[best] <= _CHARACTER_MATCH else None), float(diffs[best])


@dataclass(frozen=True)
class CharacterTable:
    """The irreducible characters of one group, one row each, in canonical order."""

    group: FiniteGroup
    characters: np.ndarray  # shape (number of irreps, order)
    dims: tuple


_TABLE_CACHE: dict = {}
_CHARACTER_CACHE: dict = {}
_TABLE_LOCK = threading.Lock()
# a class sum's eigenvector residual is held to this, relative to the class size
_EIGENVECTOR_MATCH = 1e-9


def character_table(group: FiniteGroup) -> CharacterTable:
    """All irreducible characters of the group, from its multiplication table alone.

    Burnside's class-sum method (Dixon, Numer. Math. 10, 1967; Schneider,
    J. Symb. Comput. 9, 1990).  The class sums K_i span the center of C[G].
    Left multiplication by K_i, in the orthonormal basis K_j / sqrt|C_j|
    (``_class_matrices``), is a commuting family closed under adjoints,
    since K_i* is the sum of the inverse class.  ``linalg.random_split``
    into k parts, for k classes, gives its k common eigenvectors: the
    primitive central idempotents e_rho = (d_rho/|G|) sum_g conj(chi_rho(g)) g
    at unit norm, whose coordinate on K_i / sqrt|C_i| is
    conj(chi_rho(C_i)) sqrt(|C_i|/|G|), up to the phase that makes
    chi_rho(e) = d_rho positive.  The table is certified: each vector must be
    an eigenvector of every class matrix, within ``_EIGENVECTOR_MATCH``
    times the class size, and the characters must be orthonormal, with
    integer degrees and sum d^2 = |G|.  Rows are sorted by (degree,
    lexicographic character rounded to 6 digits): the one order rule, which
    ``irrep_table`` follows.  Memoized on the multiplication table.
    """
    key = group.key()
    with _TABLE_LOCK:
        cached = _CHARACTER_CACHE.get(key)
    if cached is not None:
        return cached

    labels, sizes, stack = _class_matrices(group)
    n, k = group.order, len(sizes)
    vectors = np.hstack(linalg.random_split(stack, np.random.default_rng(_TABLE_SEED), k))
    moved = stack @ vectors                                  # moved[i, :, r] = K_i v_r
    values = np.einsum("jr,ijr->ir", vectors.conj(), moved)
    residual = np.linalg.norm(moved - values[:, None, :] * vectors, axis=1) / sizes[:, None]
    if not float(np.max(residual)) <= _EIGENVECTOR_MATCH:
        raise DecompositionFailed(
            f"the class sums share no eigenbasis (residual {float(np.max(residual)):.3e})")
    one = labels[group.identity]
    vectors = vectors * (np.abs(vectors[one]) / vectors[one])
    characters = (vectors.conj() * np.sqrt(n / sizes)[:, None]).T[:, labels]
    degrees = characters[:, group.identity].real
    dims = np.rint(degrees).astype(int)
    gram = characters @ characters.conj().T / n
    # each bound passes only on a residual within it, so NaN fails
    if not (np.max(np.abs(degrees - dims)) <= 1e-6 and dims.min() >= 1
            and int(np.sum(dims ** 2)) == n and np.max(np.abs(gram - np.eye(k))) <= 1e-9):
        raise DecompositionFailed(
            f"the class-sum characters are not an orthonormal table of degrees "
            f"summing in squares to {n}: degrees {np.round(degrees, 6).tolist()}")

    def sort_key(r: int) -> tuple:
        return (dims[r], tuple((round(c.real, 6), round(c.imag, 6)) for c in characters[r]))

    order = sorted(range(k), key=sort_key)
    characters = characters[order]
    characters.setflags(write=False)
    table = CharacterTable(group, characters, tuple(int(d) for d in dims[order]))
    with _TABLE_LOCK:
        _CHARACTER_CACHE.setdefault(key, table)
    return table


def _class_matrices(group: FiniteGroup) -> tuple:
    """(labels, sizes, stack): the class of each element, in ``conjugacy_classes``
    order, the class sizes, and the k x k matrix of left multiplication by each
    class sum K_i in the basis K_j / sqrt|C_j|.  K_i K_j = sum_l c_ijl K_l, where
    c_ijl counts the x in C_i with x^-1 z_l in C_j, for one z_l in C_l."""
    classes = conjugacy_classes(group)
    k = len(classes)
    labels = np.empty(group.order, dtype=np.intp)
    for i, members in enumerate(classes):
        labels[list(members)] = i
    sizes = np.array([len(members) for members in classes])
    # y[x, l] is the class of x^-1 z_l
    y = labels[group.mult[group.inverse[:, None], [members[0] for members in classes]]]
    codes = (labels[:, None] * k + y) * k + np.arange(k)
    c = np.bincount(codes.ravel(), minlength=k ** 3).reshape(k, k, k)
    # column j of matrix i: K_i K_j / sqrt|C_j| = sum_l c_ijl sqrt(|C_l| / |C_j|) K_l / sqrt|C_l|
    root = np.sqrt(sizes)
    return labels, sizes, c.transpose(0, 2, 1) * root[:, None] / root


def irrep_table(group: FiniteGroup) -> IrrepTable:
    """All irreducibles of the group, one per row of ``character_table``, in its order.

    The left-regular action L_g e_y = e_{gy} is read off ``mult`` and never
    formed.  For a character chi of degree d, its isotypic component is the
    range of p = (d/|G|) sum_g conj(chi(g)) L_g (Serre, Linear Representations
    of Finite Groups, section 2.6), whose entry [x, y] is
    (d/|G|) conj(chi(x y^-1)); it holds d copies of the irrep.  The
    right-regular action R_h e_y = e_{y h^-1} commutes with every L_g, and
    the seeded element sum_h c_h R_h, whose entry [x, y] is c(x^-1 y), acts on
    the component as a generic element of the copies' d x d commutant:
    ``linalg.random_split`` of it must give d blocks of size d, the copies,
    so a range of the wrong rank (p's is cut at ``DEFAULT_TOL``) fails here.
    The irrep's matrices are the left translations compressed to the first
    copy q, with (L_g q)[x] = q[g^-1 x].  Each is certified as a
    ``UnitaryRep`` and by its character, which must match the table's row
    within ``_CHARACTER_MATCH``; the table's characters are the irreps' own
    traces.  Memoized on the multiplication table; the cached value is
    shared by every group object with the same table.
    """
    key = group.key()
    with _TABLE_LOCK:
        cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    chars = character_table(group)
    n = group.order
    quotient = group.mult[:, group.inverse]    # quotient[x, y] = x y^-1
    moved = group.mult[group.inverse]          # moved[x, y] = x^-1 y
    rng = np.random.default_rng(_TABLE_SEED)
    irreps = []
    for chi, d in zip(chars.characters, chars.dims):
        p = (d / n) * chi.conj()[quotient]
        # from_span spans rows, so p.T gives p's range; p's own rows span the conjugate
        basis = linalg.Subspace.from_span(p.T, n).basis
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        right = dagger(basis) @ c[moved] @ basis
        copies = linalg.random_split(right[None], rng, d)
        if [q.shape[1] for q in copies] != [d] * d:
            raise DecompositionFailed(
                f"the isotypic component of a degree-{d} character splits into copies "
                f"of sizes {[q.shape[1] for q in copies]}")
        q = basis @ copies[0]
        irrep = UnitaryRep(group, np.stack([dagger(q) @ q[row] for row in moved]))
        match, distance = _nearest_character(chi[None], irrep.character())
        if match is None:
            raise DecompositionFailed(
                f"an irreducible's character misses its table row (distance {distance:.3e})")
        irreps.append(irrep)
    table = IrrepTable(group, tuple(irreps), np.array([r.character() for r in irreps]))
    with _TABLE_LOCK:
        _TABLE_CACHE.setdefault(key, table)
    return table


def invariant_isometries(rep: UnitaryRep, seed: int) -> list:
    """(table index, isometry) of every irreducible copy in ``rep``, in table order.

    Each irrep rho of ``irrep_table`` appears as often as its multiplicity m
    from character pairing (``multiplicities``).  Its m isometries q are
    drawn by ``linalg.intertwiner`` (U(g) q = q rho(g)) and made orthogonal
    in the intertwiner space: by Schur's lemma q_i* s is a scalar for any
    intertwiner s, so subtracting the projection onto the earlier copies
    leaves an intertwiner.  Every copy is certified: U(s) q - q rho(s) on
    each generator s, and q*[earlier copies, q] - [0, 1], must stay within
    1e-9 times the dimension of ``rep``, else ``DecompositionFailed``.
    """
    table = irrep_table(rep.group)
    rng = np.random.default_rng(seed)
    gens = list(rep.group.generators)
    out = []
    found = np.zeros((rep.dim, 0), dtype=np.complex128)
    for index, (irrep, m) in enumerate(zip(table.irreps, multiplicities(rep, table))):
        for _ in range(m):
            s = linalg.intertwiner(rep.matrices, irrep.matrices, rng)
            s = s - found @ (dagger(found) @ s)
            q = s / np.sqrt(np.vdot(s[:, 0], s[:, 0]).real)
            found = np.hstack([found, q])
            moved = rep.matrices[gens] @ q - q @ irrep.matrices[gens]
            width = found.shape[1]
            overlap = dagger(q) @ found - np.eye(irrep.dim, width, width - irrep.dim)
            res = max(float(np.max(np.linalg.norm(moved, axis=(1, 2)))), frob(overlap))
            if not res <= 1e-9 * rep.dim:
                raise DecompositionFailed(
                    f"copy of irrep {index} does not intertwine (residual {res:.3e})")
            out.append((index, q))
    return out


# ---------------------------------------------------------------------------
# full decomposition with canonical blocks


@dataclass(frozen=True)
class Decomposition:
    """Block data for a representation: which irreps, how often, and the basis."""

    source: UnitaryRep
    table: IrrepTable
    blocks: tuple  # of (irrep index, multiplicity)
    intertwiner: np.ndarray  # unitary; conjugation gives exact canonical blocks


def decompose(rep: UnitaryRep, seed: int) -> Decomposition:
    """Decompose into canonical irreducible blocks.

    The intertwiner stacks the copies of ``invariant_isometries``; it is
    unitary and conjugation by it maps the source to an exact direct sum of
    table irreps, sorted by table index with equal blocks adjacent.  Raises
    DecompositionFailed when the character norm <chi, chi> of the source,
    which is the commutant dimension (Serre, section 2.3), disagrees with
    the copies found, or their dimensions do not sum to the source's; that
    signals a tolerance problem rather than bad input.
    """
    table = irrep_table(rep.group)
    pieces = invariant_isometries(rep, seed)
    blocks = tuple((i, len(list(run))) for i, run in itertools.groupby(i for i, _ in pieces))
    squares = sum(m * m for _, m in blocks)
    chi = rep.character()
    norm = character_inner(rep.group, chi, chi).real
    if abs(norm - squares) > 1e-6:
        raise DecompositionFailed(
            f"character norm <chi, chi> = {norm:.6g} (the commutant dimension) "
            f"!= sum of squared multiplicities {squares}"
        )
    if sum(table.irreps[i].dim * m for i, m in blocks) != rep.dim:
        raise DecompositionFailed("block dimensions do not sum to the source dimension")
    return Decomposition(rep, table, blocks, np.hstack([q for _, q in pieces]))


def multiplicities(rep: UnitaryRep, table: IrrepTable | None = None) -> np.ndarray:
    """Multiplicity of each table irrep in ``rep`` via character pairing; with no
    table given, of each row of ``character_table``, which has the same order."""
    if table is None:
        table = character_table(rep.group)
    chi = rep.character()
    pair = table.characters.conj() @ chi / rep.group.order
    counts = np.rint(pair.real).astype(int)
    if np.max(np.abs(pair - counts)) > 1e-8:
        raise DecompositionFailed("character pairing is not integral")
    return counts


# ---------------------------------------------------------------------------
# characters and Schur orthogonality


def character_inner(group: FiniteGroup, chi1, chi2) -> complex:
    """(1/order) sum_g chi1(g) conj(chi2(g)); counts common multiplicities."""
    chi1 = np.asarray(chi1, dtype=np.complex128)
    chi2 = np.asarray(chi2, dtype=np.complex128)
    return complex(np.sum(chi1 * chi2.conj()) / group.order)


@dataclass(frozen=True)
class SchurReport:
    """All pairwise coefficient inner products of two irreducibles."""

    values: np.ndarray        # shape (d1, d1, d2, d2); [i,j,k,l] = <D1_ij, D2_kl>
    equivalent: bool          # character match between the two inputs
    matches_delta_pattern: bool
    matches_zero: bool
    max_deviation: float


def schur_check(rep1: UnitaryRep, rep2: UnitaryRep,
                tol: float = 1e-10) -> SchurReport:
    """Check the coefficient orthogonality relations on two irreducibles.

    For identical irreducibles the inner products must equal
    ``(1/d) delta_ik delta_jl``; for inequivalent ones they vanish.  Each
    input is certified irreducible by its character norm <chi, chi> = 1,
    the commutant dimension (Serre, section 2.3).
    """
    for r in (rep1, rep2):
        chi = r.character()
        norm = character_inner(r.group, chi, chi).real
        if abs(norm - 1.0) > 1e-6:
            raise NotIrreducible(f"schur_check needs irreducible inputs: <chi, chi> = {norm:.6g}")
    if rep1.group != rep2.group:
        raise ParentMismatch("representations of different groups")
    order = rep1.group.order
    values = np.einsum("gij,gkl->ijkl", rep1.matrices, rep2.matrices.conj()) / order
    equivalent = _nearest_character([rep1.character()], rep2.character())[0] is not None
    d1, d2 = rep1.dim, rep2.dim
    if equivalent and d1 == d2:
        eye = np.eye(d1)
        pattern = np.einsum("ik,jl->ijkl", eye, eye) / d1
        dev = float(np.max(np.abs(values - pattern)))
        return SchurReport(values, True, dev <= tol, False, dev)
    dev = float(np.max(np.abs(values)))
    return SchurReport(values, equivalent, False, dev <= tol, dev)


# ---------------------------------------------------------------------------
# Peter-Weyl basis and the group Fourier transform


def peter_weyl_basis(table: IrrepTable) -> tuple:
    """The scaled coefficient functions sqrt(d) * D_jk as rows.

    Returns ``(basis, labels)`` where basis has shape (order, order) and
    row ``(sigma, j, k)`` is ``sqrt(d_sigma) * D^sigma_jk``; the rows are
    orthonormal under the normalized average, which is exactly the
    completeness statement at finite order.
    """
    order = table.group.order
    if sum(d * d for d in table.dims) != order:
        raise IncompleteTable("irrep dimensions do not sum to the group order")
    basis = np.vstack([np.sqrt(r.dim) * r.matrices.reshape(order, r.dim * r.dim).T
                       for r in table.irreps])
    labels = [(s, j, k) for s, r in enumerate(table.irreps)
              for j in range(r.dim) for k in range(r.dim)]
    return basis, labels


def fourier(table: IrrepTable, f) -> list:
    """Per-irrep blocks ``fhat(sigma) = sum_g f(g) sigma(g)`` (measure convention)."""
    return [measure_rep(rep, f) for rep in table.irreps]


def inverse_fourier(table: IrrepTable, blocks) -> np.ndarray:
    """Reconstruct f(g) = (1/order) sum_sigma d_sigma tr(sigma(g^-1) fhat(sigma))."""
    group = table.group
    if len(blocks) != len(table.irreps):
        raise IncompleteTable(f"expected {len(table.irreps)} blocks, got {len(blocks)}")
    f = np.zeros(group.order, dtype=np.complex128)
    for rep, block in zip(table.irreps, blocks):
        inv_mats = rep.matrices[group.inverse]
        f += rep.dim * np.einsum("gij,ji->g", inv_mats, np.asarray(block))
    return f / group.order


def plancherel_residual(table: IrrepTable, f) -> float:
    """|  (1/n) sum |f|^2  -  sum_s (d_s/n^2) ||fhat(s)||^2  |."""
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    n = table.group.order
    lhs = float(np.sum(np.abs(f) ** 2) / n)
    rhs = sum(
        rep.dim * float(np.sum(np.abs(block) ** 2)) / n ** 2
        for rep, block in zip(table.irreps, fourier(table, f))
    )
    return abs(lhs - rhs)


def measure_rep(carrier: UnitaryRep, mu) -> np.ndarray:
    """sum_g mu(g) carrier(g); a homomorphism from the measure algebra."""
    mu = np.asarray(mu, dtype=np.complex128).reshape(-1)
    if mu.shape[0] != carrier.group.order:
        raise ParentMismatch("weight vector length does not match group order")
    return np.einsum("g,gij->ij", mu, carrier.matrices)


@dataclass(frozen=True)
class PropernessReport:
    proper: bool
    rank: int
    present: tuple  # irrep indices with nonzero multiplicity (Sigma')
    missing: tuple  # the rest (Sigma^0)
    multiplicities: tuple


def is_proper(pi: UnitaryRep) -> PropernessReport:
    """Whether the measure representation through ``pi`` is injective.

    Equivalent formulations are cross-checked: the flattened matrices
    ``pi(g)`` must be linearly independent, by the rank of their Gram
    matrix (``_span_rank`` over the whole group), and every irreducible of
    the group must appear in ``pi``, by its multiplicity against the rows of
    ``character_table``, so no irrep matrix is formed.
    """
    rank = _span_rank(pi, range(pi.group.order))
    mults = multiplicities(pi, character_table(pi.group))
    present = tuple(int(i) for i in np.nonzero(mults)[0])
    missing = tuple(int(i) for i in np.nonzero(mults == 0)[0])
    proper = rank == pi.group.order
    if proper != (not missing):
        raise DecompositionFailed("properness checks disagree: rank test vs multiplicity test")
    return PropernessReport(proper, rank, present, missing, tuple(int(m) for m in mults))


def _character_matrix(pi: UnitaryRep, members) -> np.ndarray:
    """K[a, b] = chi(a^-1 b) = <U_a, U_b> over the members a, b of a subgroup H,
    chi the character of ``pi``.  K is convolution by chi on C[H]: its eigenvalue
    is |H| m_rho / d_rho, at least 1, on the d_rho^2 functions of each
    constituent rho of U|_H, and 0 elsewhere (Serre, 2.4-2.6)."""
    group, h = pi.group, np.asarray(members)
    return pi.character()[group.mult[np.ix_(group.inverse[h], h)]]


def _span_rank(pi: UnitaryRep, members) -> int:
    """dim span U(H): the rank of ``_character_matrix``, read at the cut 1/2."""
    return int(np.sum(np.linalg.eigvalsh(_character_matrix(pi, members)) > 0.5))
