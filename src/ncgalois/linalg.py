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

# eigenvectors of a unit-norm Hermitian whose eigenvalues lie g apart mix at
# about u / g, u the unit roundoff (Davis and Kahan, SIAM J. Numer. Anal.
# 1970), so eigenvalues within this gap share a block: past it the mixing
# between blocks stays under 1e-11
_MIXING_GAP = 2.0 ** -53 / 1e-11
# commutant_kernel splits with a generator of this seed, so results repeat
_SPLIT_SEED = 0
# randomized steps (splits, intertwiners) give up after this many draws
_MAX_RESAMPLES = 8
# kernel rotations and lifts, subspace distances and commutator certificates
# run over this many vectors at a time, so their transients stay a panel wide
_PANEL = 64


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
    return Subspace(a.shape[1], vh[_rank(s, tol):].conj().T)


def _rank(s: np.ndarray, tol: Tolerance) -> int:
    """Number of the descending singular values ``s`` above the global rank rule's cut."""
    return int(np.sum(s > tol.rank_threshold(s[0] if s.size else 0.0)))


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
    ``floor = _gram_floor(scale, tol)`` the cut at ``s_ref = scale``: since
    ``s_ref >= scale``, no cut is lower, and every eigenvalue is at most
    ``frob(gram)``, so the rule would keep every direction.  The kernel is
    then the whole space, returned as the identity columns.
    ``commutant_kernel`` makes the same decision on the gram's trace
    before forming it, so the grams it hands over are mostly not null.
    """
    floor = _gram_floor(scale, tol)
    if frob(gram) <= floor * floor:
        return np.eye(gram.shape[0], dtype=np.complex128)
    w, v = np.linalg.eigh((gram + dagger(gram)) / 2.0)
    s = np.sqrt(np.clip(w, 0.0, None))
    smax = s[-1] if s.size else 0.0
    s_ref = max(smax, scale)
    cut = max(tol.rank_threshold(s_ref), 1e-5 * s_ref)
    keep = s <= cut
    return _fix_phases(v[:, keep])


def _gram_floor(scale: float, tol: Tolerance) -> float:
    """The lowest cut ``kernel_of_gram`` can choose for a map of this scale."""
    return max(tol.rank_threshold(scale), 1e-5 * scale)


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
        return Subspace(ambient_dim, _fix_phases(vh[:_rank(s, tol)].T))

    def project(self, x: np.ndarray) -> np.ndarray:
        """B B* x for a vector or columns x; B* x is formed as (x* B)*, so only
        x is conjugated and the basis is never copied."""
        return self.basis @ (x.conj().T @ self.basis).conj().T

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
        return self.residual(other.basis)

    def distance(self, other: "Subspace") -> float:
        """Worst containment residual in either direction; 0 for equal subspaces.

        Both directions share the cross-Gram c = P* Q of the two bases:
        Q - P c and P - Q c* are the residuals of each basis on the other.
        c is built a panel of P's columns at a time, and each residual a
        panel of its columns at a time, so besides c no transient is wider
        than a panel.
        """
        self._check_ambient(other)
        p, q = self.basis, other.basis
        c = np.empty((p.shape[1], q.shape[1]), dtype=np.complex128)
        for i in range(0, p.shape[1], _PANEL):
            c[i:i + _PANEL] = dagger(p[:, i:i + _PANEL]) @ q
        worst = 0.0
        for j in range(0, q.shape[1], _PANEL):
            panel = slice(j, j + _PANEL)
            worst = max(worst, _worst_column(q[:, panel] - p @ c[:, panel]))
        for i in range(0, p.shape[1], _PANEL):
            panel = slice(i, i + _PANEL)
            worst = max(worst, _worst_column(p[:, panel] - q @ dagger(c[panel])))
        return worst

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


def spectral_blocks(h) -> list:
    """Eigenvector blocks of a Hermitian matrix, one per eigenvalue cluster.

    A new block starts wherever consecutive ascending eigenvalues differ by
    more than ``_MIXING_GAP``, so each block is accurate to u / gap < 1e-11
    and nearly colliding eigenvalues share one.  Applied to a generic
    Hermitian element of a commutant or center, this is the split step of
    the randomized decomposition (Dixon, Math. Comp. 1970).
    """
    w, v = hermitian_eig(h)
    edges = np.nonzero(np.diff(w) > _MIXING_GAP)[0]
    bounds = [0, *(e + 1 for e in edges), len(w)]
    return [v[:, bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]


def random_split(stack, rng: np.random.Generator, parts: int = 1) -> list:
    """Spectral blocks of h = b + b* for a random combination b of the stack.

    The span of the stack must be closed under adjoints.  Then every X
    that commutes with the whole stack commutes with b and b*, hence with
    h, and so preserves each eigenspace V_j of h: the commutant lies in
    the block-diagonal subspace sum_j V_j M_{e_j} V_j*, and in the coarser
    one of any union of blocks.  This holds for every draw; a generic draw
    makes the blocks small (Dixon, Math. Comp. 1970; Murota, Kanno, Kojima
    and Kojima, JJIAM 2010).  Applied to a basis of a commutant or a
    center, the blocks are invariant subspaces or central supports.
    Redraws until there are at least ``parts`` blocks, fewer meaning that
    eigenvalues (nearly) collided in this draw.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    k = stack.shape[0]
    for _ in range(_MAX_RESAMPLES):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        b = np.tensordot(coeff, stack, axes=1)
        h = b + dagger(b)
        # at unit norm the gap of spectral_blocks is far above the rounding
        # of h, so no true eigenspace is cut
        blocks = spectral_blocks(h / max(frob(h), 1.0))
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
    p1 = dagger(rot[0]) @ rot[0]   # sum R*R, one member at a time
    p2 = rot[0] @ dagger(rot[0])   # sum RR*
    for r in rot[1:]:
        p1 += dagger(r) @ r
        p2 += r @ dagger(r)
    i, j = np.nonzero(cols[:, None] == cols)   # delta_qs
    gram[i, j] += p1[rows[i], rows[j]]
    i, j = np.nonzero(rows[:, None] == rows)   # delta_pr
    gram[i, j] += p2[cols[i], cols[j]].conj()
    return gram


def _gram_trace(rot: np.ndarray, sizes) -> float:
    """Trace of ``_reduced_sylvester_gram(rot, sizes)`` in O(k n^2), with no D x D array.

    Summed over the coordinates (p, q) of a block J of size e, the diagonal
    of the closed form gives, for each member R of the stack,

        e (||R[:, J]||^2 + ||R[J, :]||^2) - 2 |tr R[J, J]|^2.
    """
    starts = np.cumsum([0, *sizes[:-1]])
    squares = np.abs(rot[0]) ** 2
    for r in rot[1:]:
        squares += np.abs(r) ** 2
    norms = np.add.reduceat(squares.sum(axis=0) + squares.sum(axis=1), starts)
    traces = np.add.reduceat(rot.diagonal(axis1=1, axis2=2), starts, axis=1)
    return float(np.dot(sizes, norms) - 2.0 * np.sum(np.abs(traces) ** 2))


def commutant_kernel(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Joint kernel of the Sylvester maps X -> B X - X B over a matrix stack.

    Returns the row-major vecs of a commutant basis as columns.  The span
    of the stack must be closed under adjoints: the kernel is solved only
    on the block-diagonal subspace of ``random_split`` (drawn with the
    fixed ``_SPLIT_SEED``), in the coordinates ``(rows, cols)`` of
    ``_block_coordinates``, whose number is sum_j e_j^2 instead of n^2.

    The reduced gram is PSD, so its Frobenius norm is at most its trace.
    When ``_gram_trace`` is within ``kernel_of_gram``'s lowest cut squared,
    the kernel is the whole block-diagonal subspace and no gram is formed.
    This is the case of an abelian stack, whose split blocks are joint
    eigenspaces, and of a one-element stack.  The stack is rotated into
    v's basis, and a kernel vector y lifts to V Y V* by writing it at
    (rows, cols) and conjugating by v; both are written into one
    preallocated array a panel of ``_PANEL`` matrices at a time.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    n = mats.shape[1]
    scale = float(np.sqrt(np.sum(np.abs(mats) ** 2)))
    blocks = random_split(mats, np.random.default_rng(_SPLIT_SEED))
    v = np.hstack(blocks)
    sizes = [q.shape[1] for q in blocks]
    rows, cols = _block_coordinates(sizes)
    rot = np.empty_like(mats)
    for at in range(0, len(mats), _PANEL):
        rot[at:at + _PANEL] = compress(mats[at:at + _PANEL], v)
    floor = _gram_floor(scale, tol)
    y = None   # the identity columns: every block-diagonal coordinate
    if _gram_trace(rot, sizes) > floor * floor:
        y = kernel_of_gram(_reduced_sylvester_gram(rot, sizes), tol, scale=scale)
    del rot
    count = len(rows) if y is None else y.shape[1]
    back = dagger(v)
    out = np.empty((count, n, n), dtype=np.complex128)
    for at in range(0, count, _PANEL):
        panel = np.zeros((min(_PANEL, count - at), n, n), dtype=np.complex128)
        if y is None:
            here = slice(at, at + len(panel))
            panel[np.arange(len(panel)), rows[here], cols[here]] = 1.0
        else:
            panel[:, rows, cols] = y[:, at:at + len(panel)].T
        out[at:at + len(panel)] = compress(panel, back)
    return out.reshape(count, n * n).T


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
    """Isometry s with L_k s = s R_k for all k, for an irreducible stack R inside L.

    ``left`` and ``right`` are images of one family (a group, or a basis of
    a full matrix algebra) under two unitary actions, ``right`` irreducible
    of dimension d and contained in ``left``, of dimension n >= d.  Then
    X -> sum_k L_k X R_k* maps every n x d matrix X into the intertwiner
    space, whose dimension is the multiplicity of R in L.  By Schur's lemma
    s* s is a scalar for every intertwiner s, so a random X lands on a
    nonzero multiple of an isometry almost surely; for n = d it is a unitary,
    unique up to phase.
    """
    n, d = left.shape[1], right.shape[1]
    right_adj = dagger(right)
    for _ in range(_MAX_RESAMPLES):
        x = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        s = sandwich_sum(left, x, right_adj)
        gram = dagger(s) @ s
        scale = float(gram[0, 0].real)
        if scale < 1e-10:
            continue
        if frob(gram - scale * np.eye(d)) > 1e-8 * max(scale, 1.0):
            raise DecompositionFailed("intertwiner is not a multiple of an isometry")
        return s / np.sqrt(scale)
    raise DecompositionFailed("averaged intertwiner vanished repeatedly")
