"""Dense complex linear algebra with one global rank rule.

Every rank decision in the package (nullspaces, subspace comparisons,
algebra dimensions) goes through a single threshold,

    abs_eps + rel_eps * (largest singular value),

so subspace dimensions are consistent across modules.  Eigen-routines
return ascending eigenvalues and phase-fixed eigenvectors, which makes
reports reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CenterSplitFailed,
    DecompositionFailed,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
)

# eigenvalues of a generic Hermitian closer than this belong to one block
_EIGENVALUE_GAP = 1e-8
# commutant_kernel splits with a generator of this seed, so results repeat
_SPLIT_SEED = 0
# randomized steps (splits, intertwiners) give up after this many draws
_MAX_RESAMPLES = 8


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative pair feeding the global rank rule."""

    abs_eps: float = 1e-12
    rel_eps: float = 1e-9

    def rank_threshold(self, largest_singular_value: float) -> float:
        return self.abs_eps + self.rel_eps * largest_singular_value

    @property
    def subspace_eps(self) -> float:
        # projection residual of a unit vector; sigma_max == 1 for orthonormal bases
        return self.rank_threshold(1.0)


DEFAULT_TOL = Tolerance()


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def is_hermitian(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return frob(a - dagger(a)) <= tol.rank_threshold(max(frob(a), 1.0))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    v = v.copy()
    idx = np.argmax(np.abs(v), axis=0)
    for j, i in enumerate(idx):
        pivot = v[i, j]
        if abs(pivot) > 0:
            v[:, j] *= pivot.conjugate() / abs(pivot)
    return v


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with ``w`` ascending and ``v`` unitary such that
    ``a = v @ diag(w) @ v*``.  Eigenvector phases are fixed so the output
    is reproducible for identical inputs.

    Raises
    ------
    NotHermitian
        if ``norm(a - a*)`` exceeds the tolerance.
    NoConvergence
        if the underlying iteration fails.
    """
    a = as_complex_matrix(a)
    if not is_hermitian(a, tol):
        raise NotHermitian(
            f"matrix is not Hermitian: ||A - A*|| = {frob(a - dagger(a)):.3e}"
        )
    try:
        w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w, _fix_phases(v)


def nullspace(a, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
    """Orthonormal basis of ``{x : a @ x = 0}`` under the global rank rule."""
    a = as_complex_matrix(a)
    if a.size == 0 or frob(a) == 0.0:
        return Subspace(a.shape[1], np.eye(a.shape[1], dtype=np.complex128))
    # the reduced SVD already has every row of V* when a is not wide
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cut = tol.rank_threshold(s[0] if s.size else 0.0)
    rank = int(np.sum(s > cut))
    basis = vh[rank:].conj().T
    return Subspace(a.shape[1], basis)


def kernel_of_gram(gram: np.ndarray, tol: Tolerance = DEFAULT_TOL,
                   scale: float = 0.0) -> np.ndarray:
    """Kernel basis of a stacked map given its normal matrix ``S* S``.

    ``gram`` must be Hermitian PSD; singular values of the stacked map are
    the square roots of its eigenvalues.  Squaring costs half the digits,
    so ranks are resolvable only down to sqrt(machine eps): the rank rule
    is floored at ``1e-5 * sigma_scale``, which keeps kernel eigenvalues
    (at eps * lambda_max) far below the structural spectral gaps seen in
    practice.  ``scale`` supplies the natural magnitude of the stacked map
    for the degenerate case where the map itself (not just its kernel
    directions) vanishes and the gram is all rounding noise.  Returns
    kernel vectors as columns.

    No eigendecomposition runs when ``frob(gram) <= floor**2``, with
    ``floor`` the cut at ``s_ref = scale``: since ``s_ref >= scale``, no
    cut is lower, and every eigenvalue is at most ``frob(gram)``, so the
    rule would keep every direction.  The kernel is then the whole space,
    returned as the identity columns.  This is the case of an abelian
    *-closed stack, whose block-diagonal subspace is its whole commutant.
    """
    floor = max(tol.rank_threshold(scale), 1e-5 * scale)
    if frob(gram) <= floor * floor:
        return np.eye(gram.shape[0], dtype=np.complex128)
    w, v = np.linalg.eigh((gram + dagger(gram)) / 2.0)
    s = np.sqrt(np.clip(w, 0.0, None))
    smax = s[-1] if s.size else 0.0
    s_ref = max(smax, scale)
    cut = max(tol.rank_threshold(s_ref), 1e-5 * s_ref)
    keep = s <= cut
    return _fix_phases(v[:, keep])


def matrix_real_power(p, exponent: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``p ** exponent`` for positive-definite ``p`` via spectral calculus."""
    p = as_complex_matrix(p)
    w, v = hermitian_eig(p, tol)
    if w[0] <= tol.rank_threshold(float(w[-1])):
        raise NotPositiveDefinite(f"min eigenvalue {w[0]:.3e} is not positive")
    return (v * (w ** exponent)) @ dagger(v)


def matrix_imaginary_power(p, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``p ** (i t)`` for positive-definite ``p``; the result is unitary."""
    p = as_complex_matrix(p)
    w, v = hermitian_eig(p, tol)
    if w[0] <= tol.rank_threshold(float(w[-1])):
        raise NotPositiveDefinite(f"min eigenvalue {w[0]:.3e} is not positive")
    phases = np.exp(1j * t * np.log(w))
    return (v * phases) @ dagger(v)


def _worst_column(r: np.ndarray) -> float:
    """Largest column norm of r; 0 when r has no columns."""
    return float(np.max(np.linalg.norm(r, axis=0))) if r.shape[1] else 0.0


class Subspace:
    """A subspace of C^n stored as an orthonormal column basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match ambient dim {ambient_dim}"
            )
        self.ambient_dim = int(ambient_dim)
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def from_span(vectors, ambient_dim: int, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize a spanning set (rows or list of vectors).

        The row space basis is the leading rows of V* laid out as columns
        plainly transposed; conjugating here would silently swap the span
        for its complex conjugate.
        """
        m = np.asarray(vectors, dtype=np.complex128).reshape(-1, ambient_dim)
        if m.shape[0] == 0 or frob(m) == 0.0:
            return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        cut = tol.rank_threshold(s[0])
        rank = int(np.sum(s > cut))
        return Subspace(ambient_dim, _fix_phases(vh[:rank].T))

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (dagger(self.basis) @ x)

    def residual(self, x: np.ndarray) -> float:
        """Distance of (each column of) x from the subspace, worst case."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim == 1:
            x = x[:, None]
        return _worst_column(x - self.project(x))

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        self._check_ambient(other)
        return self.containment_residual(other) <= tol.subspace_eps

    def containment_residual(self, other: "Subspace") -> float:
        """Worst projection residual of other's basis vectors onto self."""
        self._check_ambient(other)
        if other.dim == 0:
            return 0.0
        return self.residual(other.basis)

    def distance(self, other: "Subspace") -> float:
        """Worst containment residual in either direction; 0 for equal subspaces.

        Both directions share the cross-Gram c = P* Q of the two bases:
        Q - P c and P - Q c* are the residuals of each basis on the other.
        """
        self._check_ambient(other)
        p, q = self.basis, other.basis
        c = dagger(p) @ q
        return max(_worst_column(q - p @ c), _worst_column(p - q @ dagger(c)))

    def equals(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        self._check_ambient(other)
        return self.dim == other.dim and self.distance(other) <= tol.subspace_eps

    def intersect(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Intersection from the nullspace of [B1, -B2] under the global rank rule.

        A unit null vector (a, b) has B1 a = B2 b, and since both bases are
        orthonormal |a| = |b| = 1/sqrt(2); so the vectors (B1 a + B2 b)/sqrt(2)
        are already an orthonormal basis of the intersection.
        """
        self._check_ambient(other)
        null = nullspace(np.hstack([self.basis, -other.basis]), tol).basis
        d = self.dim
        joined = self.basis @ null[:d] + other.basis @ null[d:]
        return Subspace(self.ambient_dim, joined / np.sqrt(2.0))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def spectral_blocks(h, tol: Tolerance = DEFAULT_TOL) -> list:
    """Eigenvector blocks of a Hermitian matrix, one per eigenvalue cluster.

    A new block starts wherever consecutive ascending eigenvalues differ by
    more than the collision gap.  Applied to a generic Hermitian element of
    a commutant or center, this is the split step of the randomized
    decomposition (Dixon, Math. Comp. 1970).
    """
    w, v = hermitian_eig(h, tol)
    edges = np.nonzero(np.diff(w) > _EIGENVALUE_GAP)[0]
    bounds = [0, *(e + 1 for e in edges), len(w)]
    return [v[:, bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]


def random_split(stack, rng: np.random.Generator, parts: int = 1,
                 tol: Tolerance = DEFAULT_TOL) -> list:
    """Spectral blocks of h = b + b* for a random combination b of the stack.

    The span of the stack must be closed under adjoints.  Then every X
    that commutes with the whole stack commutes with b and b*, hence with
    h, and so preserves each eigenspace V_j of h: the commutant lies in
    the block-diagonal subspace sum_j V_j M_{e_j} V_j*.  This holds for
    every draw; a generic draw makes the blocks small (Dixon, Math. Comp.
    1970; Murota, Kanno, Kojima and Kojima, JJIAM 2010).  Applied to a
    basis of a commutant or a center, the blocks are invariant subspaces
    or central supports.  Redraws until there are at least ``parts``
    blocks; fewer means eigenvalues collided in this draw.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    k = stack.shape[0]
    for _ in range(_MAX_RESAMPLES):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        b = np.tensordot(coeff, stack, axes=1)
        h = b + dagger(b)
        # at unit norm the absolute collision gap of spectral_blocks is far
        # above the rounding of h, so no true eigenspace is cut
        blocks = spectral_blocks(h / max(frob(h), 1.0), tol)
        if len(blocks) >= parts:
            return blocks
    raise CenterSplitFailed(
        f"could not separate {parts} spectral components after {_MAX_RESAMPLES} draws"
    )


def _block_coordinates(sizes) -> tuple:
    """Index pairs ``(rows, cols)`` of the block-diagonal coordinates.

    With v = hstack(blocks), coordinate i is entry (rows[i], cols[i]) of a
    matrix in the rotated basis v: the entries (p, q) of each block, block
    by block, row-major.  There are sum_j e_j^2 of them.
    """
    starts = np.cumsum([0, *sizes[:-1]])
    rows, cols = np.hstack([np.indices((e, e)).reshape(2, -1) + s
                            for s, e in zip(starts, sizes)])
    return rows, cols


def _reduced_sylvester_gram(rot: np.ndarray, sizes) -> np.ndarray:
    """Normal matrix sum_k L_k* L_k of the maps L_k: X -> R_k X - X R_k.

    Restricted to the block-diagonal coordinates of the rotated stack R,
    entry (pq, rs) is

        delta_qs (sum R*R)_pr + delta_pr conj(sum RR*)_qs - x - x*,

    with x[(pq), (rs)] = sum_k conj(R_k[r, p]) R_k[s, q].  The rows of x
    that belong to one block of size e are one (n e) x (n e) matmul over
    the stack, gathered at the coordinates, so no n^2 x n^2 array is formed
    unless the block is everything.
    """
    k, n, _ = rot.shape
    rows, cols = _block_coordinates(sizes)
    x = np.empty((len(rows), len(rows)), dtype=np.complex128)
    start = at = 0
    for e in sizes:
        u = rot[:, :, start:start + e].reshape(k, n * e)
        # z[p, c, q, d] = x[(rs), (pq)] with r, s = start + c, start + d
        z = (dagger(u) @ u).reshape(n, e, n, e)
        x[at:at + e * e] = z[rows, :, cols, :].reshape(-1, e * e).T
        start, at = start + e, at + e * e
    gram = -x
    gram -= dagger(x)
    p1 = np.sum(dagger(rot) @ rot, axis=0)   # sum R*R
    p2 = np.sum(rot @ dagger(rot), axis=0)   # sum RR*
    i, j = np.nonzero(cols[:, None] == cols)   # delta_qs
    gram[i, j] += p1[rows[i], rows[j]]
    i, j = np.nonzero(rows[:, None] == rows)   # delta_pr
    gram[i, j] += p2[cols[i], cols[j]].conj()
    return gram


def commutant_kernel(mats, tol: Tolerance = DEFAULT_TOL,
                     star_closed: bool = True) -> np.ndarray:
    """Joint kernel of the Sylvester maps X -> B X - X B over a matrix stack.

    Returns the row-major vecs of a commutant basis as columns.  When the
    span of the stack is closed under adjoints, the kernel is solved only
    on the block-diagonal subspace of ``random_split`` (drawn with the
    fixed ``_SPLIT_SEED``), in the coordinates ``(rows, cols)`` of
    ``_block_coordinates``, whose number is sum_j e_j^2 instead of n^2.
    ``star_closed=False`` uses the trivial split h = 1: one block, the
    full n^2 x n^2 gram.  A kernel vector y lifts to V Y V* by writing
    it at (rows, cols) and conjugating by v.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    n = mats.shape[1]
    scale = float(np.sqrt(np.sum(np.abs(mats) ** 2)))
    blocks = (random_split(mats, np.random.default_rng(_SPLIT_SEED), tol=tol)
              if star_closed else [np.eye(n, dtype=np.complex128)])
    v = np.hstack(blocks)
    sizes = [q.shape[1] for q in blocks]
    y = kernel_of_gram(_reduced_sylvester_gram(compress(mats, v), sizes), tol, scale=scale)
    rows, cols = _block_coordinates(sizes)
    full = np.zeros((y.shape[1], n, n), dtype=np.complex128)
    full[:, rows, cols] = y.T
    del y   # freed before the conjugation's two temporaries of the same size
    return compress(full, dagger(v)).reshape(-1, n * n).T


def compress(stack: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q* B q for every B in the stack: the restriction to range(q).

    With a unitary u, ``compress(stack, dagger(u))`` is the conjugation
    u B u* of every element.
    """
    return dagger(q) @ stack @ q


def sandwich_sum(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k L_k X R_k over two stacks: group averages and intertwiner sums.

    X is one matrix or a stack of them; the sum runs member by member, so
    a stack never meets the whole family in one product array.
    """
    out = left[0] @ x @ right[0]
    for lk, rk in zip(left[1:], right[1:]):
        out += lk @ x @ rk
    return out


def intertwiner(left: np.ndarray, right: np.ndarray, rng) -> np.ndarray:
    """Unitary s with L_k s = s R_k for all k, for two equivalent irreducible stacks.

    ``left`` and ``right`` are images of one family (a group, or a basis of
    a full matrix algebra) under two equivalent irreducible actions of
    dimension d.  Then X -> sum_k L_k X R_k* maps every X into the
    intertwiner space, which is one-dimensional by Schur's lemma; a random
    X lands on a nonzero multiple of a unitary almost surely.
    """
    d = left.shape[1]
    right_adj = dagger(right)
    for _ in range(_MAX_RESAMPLES):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s = sandwich_sum(left, x, right_adj)
        gram = dagger(s) @ s
        scale = float(gram[0, 0].real)
        if scale < 1e-10:
            continue
        if frob(gram - scale * np.eye(d)) > 1e-8 * max(scale, 1.0):
            raise DecompositionFailed("intertwiner is not a multiple of a unitary")
        return s / np.sqrt(scale)
    raise DecompositionFailed("averaged intertwiner vanished repeatedly")
