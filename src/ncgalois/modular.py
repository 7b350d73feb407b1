"""Finite-dimensional modular theory on the GNS space of a faithful state.

The GNS space of a matrix algebra with state ``phi`` is the algebra
itself under ``<A, B> = phi(A* B)``; on a full matrix block the canonical
coordinates are the matrix entries (row-major), the adjoint map has the
closed form ``Delta(X) = rho X rho^-1`` for its linear polar part and
``J(X) = rho^(1/2) X* rho^(-1/2)`` for the conjugation, and every claimed
identity is re-verified numerically instead of assumed.

Anti-linear operators are stored in the normal form ``x -> M conj(x)``
as the complex matrix ``M``, which composes by matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import StarAlgebra, _generating_pair, commutant_of_matrices
from .errors import ClosureFailed, NotFaithful, NotPositiveDefinite, ParentMismatch
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    compress,
    dagger,
    frob,
    matrix_imaginary_power,
    matrix_real_power,
)
from .ncprob import State

# the times t at which ``tomita_takesaki_residuals`` tests the flow invariance of M
_FLOW_GRID = (-2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0)


# ---------------------------------------------------------------------------
# anti-linear operators


def apply_antilinear(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return m @ np.conj(x)


# ---------------------------------------------------------------------------
# GNS construction


@dataclass(frozen=True)
class GNSSpace:
    """Cyclic representation data of (algebra, state).

    Coordinates are coefficients in the algebra's orthonormal basis; the
    inner product is ``x* gram y`` and the cyclic vector is the identity's
    coordinate vector.
    """

    algebra: StarAlgebra
    state: State
    gram: np.ndarray
    cyclic: np.ndarray

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.conj(x) @ self.gram @ y)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of X -> a X on coordinates."""
        basis = self.algebra.basis
        products = np.einsum("ij,kjl->kil", np.asarray(a, dtype=np.complex128), basis)
        flat = self.algebra.basis.reshape(self.dim, -1)
        return (flat.conj() @ products.reshape(self.dim, -1).T)


def gns(m: StarAlgebra, phi: State, tol: Tolerance = DEFAULT_TOL) -> GNSSpace:
    """GNS space of a faithful state on a matrix algebra.

    The Gram matrix ``phi(B_i* B_j)`` must be positive definite, which is
    exactly faithfulness of the state on the algebra; left multiplication
    is verified to be a *-homomorphism for the induced inner product.
    """
    if m.ambient_dim != phi.dim:
        raise ParentMismatch("state and algebra act on different spaces")
    basis = m.basis
    rho = phi.density
    # gram[i, j] = phi(B_i* B_j) = sum rho[a,b] conj(B_i[c,b]) B_j[c,a]
    gram = np.einsum("ab,icb,jca->ij", rho, basis.conj(), basis, optimize=True)
    w = np.linalg.eigvalsh((gram + dagger(gram)) / 2.0)
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        raise NotFaithful(
            f"state is not faithful on the algebra (Gram min eig {w[0]:.3e})"
        )
    cyclic = m.coordinates(np.eye(m.ambient_dim))
    space = GNSSpace(m, phi, gram, cyclic)

    # left multiplication must be a homomorphism and adjoint-compatible; a
    # failure is numerical, since every algebra's left action is one
    probe = basis[: min(len(basis), 6)]
    lefts = [space.left_mult_matrix(a) for a in probe]
    for a, la in zip(probe, lefts):
        for b, lb in zip(probe, lefts):
            lab = space.left_mult_matrix(a @ b)
            if frob(la @ lb - lab) > 1e-8 * max(1.0, frob(lab)):
                raise ClosureFailed("left multiplication failed to be multiplicative")
        lad = space.left_mult_matrix(dagger(a))
        if frob(gram @ lad - dagger(la) @ gram) > 1e-8:
            raise ClosureFailed("left multiplication failed the adjoint relation")
    return space


# ---------------------------------------------------------------------------
# modular data on a full matrix block


def _transpose_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending vec(X) to vec(X^T) (row-major)."""
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1.0
    return p


@dataclass(frozen=True)
class ModularData:
    """S, F, Delta, J on the GNS coordinates of a full matrix block.

    ``delta`` is complex-linear and stored as a complex matrix; the
    anti-linear trio is stored as the complex matrices ``M`` of the
    normal form ``x -> M conj(x)`` (``*_conj``).
    """

    gns_space: GNSSpace
    rho: np.ndarray
    delta: np.ndarray
    s_conj: np.ndarray
    f_conj: np.ndarray
    j_conj: np.ndarray

    def delta_power(self, z: complex) -> np.ndarray:
        """Complex matrix of Delta^z via the closed form rho^z (x) rho^-z."""
        if z == 0:
            return np.eye(self.delta.shape[0], dtype=np.complex128)
        if np.isreal(z):
            left = matrix_real_power(self.rho, float(np.real(z)))
            right = matrix_real_power(self.rho, -float(np.real(z)))
        else:
            if np.real(z) != 0:
                raise NotPositiveDefinite("only real or purely imaginary powers")
            t = float(np.imag(z))
            left = matrix_imaginary_power(self.rho, t)
            right = matrix_imaginary_power(self.rho, -t)
        return np.kron(left, right.T)

    def apply_s(self, x: np.ndarray) -> np.ndarray:
        return apply_antilinear(self.s_conj, x)

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        return apply_antilinear(self.j_conj, x)


def tomita(space: GNSSpace, tol: Tolerance = DEFAULT_TOL) -> ModularData:
    """Modular operators of a faithful state on a full matrix block.

    The adjoint map ``A xi -> A* xi`` is assembled directly; its polar
    pieces are produced from the closed forms and then *verified* against
    the definition: ``S = J Delta^(1/2)`` must reproduce the adjoint map,
    and ``F`` must be the adjoint map of the commutant (right
    multiplications).
    """
    m = space.algebra
    n = m.ambient_dim
    if not m.is_full:
        raise ParentMismatch(
            "modular data is built per full matrix block; decompose the algebra "
            "into blocks first"
        )
    rho = space.state.density
    perm = _transpose_permutation(n).astype(np.complex128)

    # S(vec X) = vec(X*) = P conj(vec X)
    s_conj = perm
    root = matrix_real_power(rho, 0.5, tol)
    root_inv = matrix_real_power(rho, -0.5, tol)
    rho_inv = matrix_real_power(rho, -1.0, tol)
    delta = np.kron(rho, rho_inv.T)
    j_conj = np.kron(root, root_inv.T) @ perm
    f_conj = np.kron(rho, rho_inv.T) @ perm

    md = ModularData(
        gns_space=space,
        rho=rho,
        delta=delta,
        s_conj=s_conj,
        f_conj=f_conj,
        j_conj=j_conj,
    )

    # the closed forms must satisfy the definitions, not just the algebra
    half = md.delta_power(0.5)
    polar = j_conj @ half.conj()          # J Delta^(1/2) as an anti-linear M-part
    if frob(polar - s_conj) > 1e-9 * n:
        raise NotPositiveDefinite("polar decomposition failed to reproduce S")
    probe = np.eye(n * n, dtype=np.complex128)[:, : min(n * n, 8)]
    for k in range(probe.shape[1]):
        x = probe[:, k]
        a = x.reshape(n, n)
        if frob(md.apply_s(x).reshape(n, n) - dagger(a)) > 1e-10:
            raise NotPositiveDefinite("S does not implement the adjoint map")
    return md


def modular_identity_residuals(md: ModularData) -> dict:
    """The eight relations between S, F, Delta and J, as residuals."""
    d = md.delta.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    half = md.delta_power(0.5)
    half_inv = md.delta_power(-0.5)
    inv = md.delta_power(-1.0)
    s, f, j = md.s_conj, md.f_conj, md.j_conj
    inner, apply_j = md.gns_space.inner, md.apply_j

    # composition rules: anti(M1) o anti(M2) = linear M1 conj(M2);
    #                    anti(M1) o linear(M2) = anti(M1 conj(M2));
    #                    linear(M1) o anti(M2) = anti(M1 M2)
    # and the adjoint of an anti-linear T, in the linear-in-second-slot
    # convention, obeys <T* x, y> = conj(<x, T y>), so J = J* on a seeded panel
    res = {
        "delta_equals_fs": frob(f @ s.conj() - md.delta),
        "s_squared": frob(s @ s.conj() - eye),
        "j_squared": frob(j @ j.conj() - eye),
        "j_selfadjoint": _j_pair_residual(
            md, 7, lambda x, y: inner(apply_j(x), y) - np.conj(inner(x, apply_j(y)))),
        "j_halfpower_j": frob(j @ np.conj(half @ j) - half_inv),
        "f_equals_j_halfinv": frob(j @ half_inv.conj() - f),
        "sf_equals_delta_inv": frob(s @ f.conj() - inv),
        "s_equals_halfinv_j": frob(half_inv @ j - s),
    }
    return {k: float(v) for k, v in res.items()}


def _j_pair_residual(md: ModularData, seed: int, gap) -> float:
    """The worst ``|gap(x, y)|`` over 12 pairs of random GNS vectors, drawn x
    then y from a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    d = md.delta.shape[0]
    worst = 0.0
    for _ in range(12):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        worst = max(worst, abs(gap(x, y)))
    return worst


def antiunitarity_residual(md: ModularData) -> float:
    """| <Jx, Jy> - <y, x> | over a seeded panel."""
    inner, j = md.gns_space.inner, md.apply_j
    return _j_pair_residual(md, 11, lambda x, y: inner(j(x), j(y)) - inner(y, x))


def tomita_takesaki_residuals(md: ModularData, tol: Tolerance = DEFAULT_TOL) -> dict:
    """J M J inside the commutant, and flow invariance of M at each t of ``_FLOW_GRID``.

    M here is the left-multiplication algebra on the GNS space; its
    commutant is solved independently (``_left_commutant``: a Sylvester
    kernel on a generating pair, certified by dim M' = n^2), so the
    containment JMJ <= M' is a genuine cross-check.  tr(L_A* L_B) =
    n tr(A* B) on M = M_n, so the left multiplications of M's orthonormal
    basis, scaled by 1/sqrt(n), are an orthonormal basis Q of the left span
    with no SVD.  Ad Delta^(it) is a Hilbert-Schmidt isometry, so it
    carries Q to an orthonormal basis u Q_k u* of the moved span, whose
    distance from the left span is the flow residual.
    """
    space = md.gns_space
    d = space.dim
    left = np.array([space.left_mult_matrix(b) for b in space.algebra.basis])
    left_span = Subspace(d * d, left.reshape(d, -1).T / np.sqrt(space.algebra.ambient_dim))
    comm_span = _left_commutant(space, tol).subspace()

    jmj = md.j_conj @ left.conj() @ md.j_conj.conj()
    jmj_res = comm_span.residual(jmj.reshape(d, -1).T)

    q = left_span.basis.T.reshape(-1, d, d)
    flow_res = 0.0
    for t in _FLOW_GRID:
        moved = compress(q, dagger(md.delta_power(1j * t))).reshape(len(q), -1).T
        flow_res = max(flow_res, left_span.distance(Subspace(d * d, moved)))
    return {"jmj_in_commutant": float(jmj_res), "flow_invariance": float(flow_res)}


def _left_commutant(space: GNSSpace, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """M' on the GNS space of a full block M = M_n, from a generating pair of M.

    The kernel is solved on the left multiplications of the seeded pair
    a, b of ``algebras._generating_pair`` and of a*, b*, and certified by
    its commutator residual on those four.  M acts as M_n (x) 1, so
    dim M' = n^2 = ``space.dim``; a pair that fails to generate M only
    enlarges the kernel, so a dimension other than n^2 raises.
    """
    pair = np.array([space.left_mult_matrix(x) for x in _generating_pair(space.algebra.basis)])
    comm = commutant_of_matrices(pair, space.dim, tol)
    if comm.dim != space.dim:
        raise ClosureFailed(
            f"the generating pair's commutant has dim {comm.dim}, not dim M' = {space.dim}"
        )
    return comm


# ---------------------------------------------------------------------------
# modular flow, KMS condition, cocycles


def modular_flow(rho, t: float, a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """rho^(it) a rho^(-it); a *-automorphism for every t, trivial for t=0."""
    u = matrix_imaginary_power(rho, t, tol)
    return u @ np.asarray(a, dtype=np.complex128) @ dagger(u)


def kms_residual(rho, a, b, beta: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Equilibrium test of the flow at inverse temperature beta.

    Analytic continuation of the flow convention gives
    ``sigma^(i beta/2)(A) = rho^(-beta/2) A rho^(beta/2)``, so the
    residual ``|omega(sigma^(i b/2)(A) sigma^(-i b/2)(B)) - omega(BA)|``
    vanishes exactly at beta = 1 and is generically large elsewhere.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    plus = matrix_real_power(rho, beta / 2.0, tol)
    minus = matrix_real_power(rho, -beta / 2.0, tol)
    lhs = np.trace(rho @ (minus @ a @ plus) @ (plus @ b @ minus))
    rhs = np.trace(rho @ b @ a)
    return float(abs(lhs - rhs))


@dataclass(frozen=True)
class CocycleReport:
    cocycle: np.ndarray
    unitarity: float
    intertwining: float
    cocycle_identity: float
    inverse_relation: float
    chain_rule: float
    balanced_weight: float

    @property
    def worst(self) -> float:
        return max(self.unitarity, self.intertwining, self.cocycle_identity,
                   self.inverse_relation, self.chain_rule, self.balanced_weight)


def connes_cocycle(rho1, rho2, t: float, rho3=None,
                   tol: Tolerance = DEFAULT_TOL) -> CocycleReport:
    """The unitary connecting the modular flows of two faithful states.

    ``Gamma_t = rho2^(it) rho1^(-it)`` intertwines the flows and obeys the
    cocycle law ``Gamma_(s+t) = Gamma_s sigma1^s(Gamma_t)``.  The report
    cross-validates against the balanced-weight construction: the flow of
    ``diag(rho1, rho2)/2`` applied to the lower-left block unit must
    reproduce Gamma_t in that corner.
    """
    rho1 = np.asarray(rho1, dtype=np.complex128)
    rho2 = np.asarray(rho2, dtype=np.complex128)
    n = rho1.shape[0]
    if rho2.shape != rho1.shape:
        raise ParentMismatch("densities have different shapes")

    def gamma(r2, r1, s):
        return matrix_imaginary_power(r2, s, tol) @ matrix_imaginary_power(r1, -s, tol)

    g_t = gamma(rho2, rho1, t)
    unitarity = frob(dagger(g_t) @ g_t - np.eye(n))

    intertwining = 0.0
    for k in range(n * n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[k // n, k % n] = 1.0
        lhs = modular_flow(rho2, t, e, tol)
        rhs = g_t @ modular_flow(rho1, t, e, tol) @ dagger(g_t)
        intertwining = max(intertwining, frob(lhs - rhs))

    cocycle_identity = 0.0
    for s in (t, 0.5 * t):
        lhs = gamma(rho2, rho1, s + t)
        rhs = gamma(rho2, rho1, s) @ modular_flow(rho1, s, g_t, tol)
        cocycle_identity = max(cocycle_identity, frob(lhs - rhs))

    inverse_relation = frob(gamma(rho1, rho2, t) - dagger(g_t))

    if rho3 is None:
        mid = (rho1 + rho2) / 2.0
        rho3 = mid / np.trace(mid).real
    rho3 = np.asarray(rho3, dtype=np.complex128)
    chain_rule = frob(
        gamma(rho3, rho1, t) - gamma(rho3, rho2, t) @ gamma(rho2, rho1, t)
    )

    balanced = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    balanced[:n, :n] = rho1 / 2.0
    balanced[n:, n:] = rho2 / 2.0
    corner = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    corner[n:, :n] = np.eye(n)
    moved = modular_flow(balanced, t, corner, tol)
    extraction = frob(moved[n:, :n] - g_t)
    off_blocks = max(frob(moved[:n, :n]), frob(moved[:n, n:]), frob(moved[n:, n:]))
    balanced_weight = max(extraction, off_blocks)

    return CocycleReport(
        cocycle=g_t,
        unitarity=float(unitarity),
        intertwining=float(intertwining),
        cocycle_identity=float(cocycle_identity),
        inverse_relation=float(inverse_relation),
        chain_rule=float(chain_rule),
        balanced_weight=float(balanced_weight),
    )

