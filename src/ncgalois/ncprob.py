"""States, averaged conditional expectations, and martingales.

A state is a unit-trace positive density; the expectation of an
observable is ``trace(rho A)``.  Conditional expectations onto fixed
algebras are uniform averages of unitary conjugates over a subgroup, and
a decreasing chain of subgroups produces an increasing chain of fixed
algebras: the filtration carrying the martingales.  On a permutation
representation (``UnitaryRep.action``) the average is a mean over each
orbital of the subgroup (``UnitaryRep.orbitals``), in O(n^2) per matrix
with no matrix product; any other representation sums the |H| conjugates.
The axiom audit applies E to a fixed seeded panel and to seeded elements
of the filtration's own fixed algebra, so its cost does not grow with the
n^2 matrix units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebras as alg
from .algebras import StarAlgebra
from .errors import ClosureFailed, NotAState, NotFaithful, ParentMismatch
from .groups import Subgroup
from .linalg import DEFAULT_TOL, Tolerance, dagger, frob, sandwich_sum
from .reps import UnitaryRep

_FAITHFUL_EPS = 1e-10


@dataclass(frozen=True)
class State:
    """Density matrix with unit trace; faithful iff strictly positive."""

    density: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise NotAState(f"density must be square, got {rho.shape}")
        if frob(rho - dagger(rho)) > 1e-10 * max(1.0, frob(rho)):
            raise NotAState("density is not Hermitian")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-10:
            raise NotAState(f"trace is {tr}, expected 1")
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
        if w[0] < -1e-12:
            raise NotAState(f"density has negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "_min_eig", float(w[0]))

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    @property
    def faithful(self) -> bool:
        return self._min_eig > _FAITHFUL_EPS

    def expect(self, a) -> complex:
        return complex(np.trace(self.density @ np.asarray(a)))

    def require_faithful(self) -> "State":
        if not self.faithful:
            raise NotFaithful(f"min eigenvalue {self._min_eig:.3e}")
        return self

    def is_invariant(self, rep: UnitaryRep, members) -> bool:
        """Invariance under the subgroup of ``members``: the density commutes with
        their unitaries to within 1e-10."""
        return all(frob(u @ self.density - self.density @ u) <= 1e-10
                   for u in rep.matrices[list(members)])


def average_state(psi: State, rep: UnitaryRep) -> State:
    """Group average of a state; the result is invariant under the action.

    The density transforms contragradiently: averaging ``U* rho U`` makes
    ``trace(rho' U A U*)`` independent of the group element.  Over the whole
    group that is the sum of ``U rho U*`` reindexed by inverses, so the
    average is E_G of the density.  Positivity survives convex combination,
    so strictly positive input stays faithful.
    """
    if psi.dim != rep.dim:
        raise ParentMismatch("state dimension does not match the representation")
    whole = Subgroup(rep.group, tuple(range(rep.group.order)))
    return State(conditional_expectation(psi.density, rep, whole))


def conditional_expectation(a, rep: UnitaryRep, subgroup: Subgroup) -> np.ndarray:
    """Uniform average of ``U_h a U_h*`` over the subgroup members.

    A unital idempotent map onto the fixed-point algebra of the subgroup
    action.  ``a`` is one matrix or a (k, n, n) stack.  When every U_h is a
    permutation matrix (``rep.action``), U_h a U_h* moves the entry (x, y)
    of ``a`` to (h x, h y), and the sum over H visits each pair of an orbital
    of H |H|/|orbital| times: the average is the mean of ``a`` over each
    orbital (``UnitaryRep.orbitals``, labelled once per subgroup), in
    O(k n^2).  Any other representation takes the sandwich sum of the |H|
    conjugates.
    """
    if subgroup.parent != rep.group:
        raise ParentMismatch("subgroup of another group than the representation's")
    a = np.asarray(a, dtype=np.complex128)
    if rep.action is None:
        mats = rep.matrices[list(subgroup.members)]
        return sandwich_sum(mats, a, dagger(mats)) / subgroup.order
    labels = rep.orbitals(subgroup.members).ravel()
    sizes = np.bincount(labels)
    flat = a.reshape(-1, labels.size)
    # one bin per (matrix, orbital) pair of the stack
    bins = (labels + len(sizes) * np.arange(len(flat))[:, None]).ravel()
    sums = np.bincount(bins, flat.real.ravel()) + 1j * np.bincount(bins, flat.imag.ravel())
    return (sums.reshape(len(flat), len(sizes)) / sizes)[:, labels].reshape(a.shape)


@dataclass
class CondExpReport:
    residuals: dict
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_cond_exp_axioms(filtration: Filtration, t: int, phi: State,
                           seed: int = 0, samples: int = 20,
                           bound: float = 1e-9) -> CondExpReport:
    """Audit the conditional expectation onto the filtration's t-th algebra.

    Checks operator-norm contraction, state preservation, idempotence and
    positivity of the Schwarz gap ``E(X*X) - E(X)* E(X)`` on a panel of
    ``samples`` seeded random matrices, which has a component along every
    matrix direction; unitality on the identity; and the identity on the
    fixed algebra and the bimodule property E(a x b) = a E(x) b on
    ``samples`` seeded elements a, b of M^{H_t}, random combinations of the
    filtration's certified basis (an independent source of M^{H_t}, not
    images of E).  No call applies E to more than ``samples`` matrices.  The
    representation, the subgroup H_t and M^{H_t} are the filtration's own,
    so no algebra is solved again.  A non-invariant state shows up as a
    recorded violation of state preservation; nothing passes silently.
    """
    rep, subgroup, fixed = filtration.rep, filtration.chain[t], filtration.algebras[t]
    n = rep.dim
    rng = np.random.default_rng(seed)
    e = lambda x: conditional_expectation(x, rep, subgroup)
    norms = lambda x: np.linalg.norm(x, axis=(1, 2))

    # the seeded panel, then the bimodule samples: a, b in the fixed algebra, x anywhere
    panel = np.reshape([random_matrix(n, rng) for _ in range(samples)], (-1, n, n))
    e_panel = e(panel)
    left, right, middle = [], [], []
    for _ in range(samples):
        left.append(fixed.from_coordinates(rng.standard_normal(fixed.dim)
                                           + 1j * rng.standard_normal(fixed.dim)))
        right.append(fixed.from_coordinates(rng.standard_normal(fixed.dim)
                                            + 1j * rng.standard_normal(fixed.dim)))
        middle.append(random_matrix(n, rng))
    a, b, x = (np.reshape(t, (-1, n, n)) for t in (left, right, middle))
    expect = lambda x: np.trace(phi.density @ x, axis1=1, axis2=2)

    # (violation, residual, value) in check order, each a violation above ``bound``
    table = (
        ("contraction", "contraction_gap",
         max(float(np.max(np.linalg.norm(e_panel, 2, axis=(1, 2))
                          - np.linalg.norm(panel, 2, axis=(1, 2)))), 0.0)),
        ("identity_on_subalgebra", "identity_on_subalgebra",
         max(float(np.max(norms(e(y) - y), initial=0.0)) for y in (a, b))),
        ("state_preservation", "state_preservation",
         float(np.max(np.abs(expect(e_panel) - expect(panel))))),
        ("idempotence", "idempotence", float(np.max(norms(e(e_panel) - e_panel)))),
        ("unitality", "unitality", frob(e(np.eye(n)) - np.eye(n))),
        ("bimodule", "bimodule",
         float(np.max(norms(e(a @ x @ b) - a @ e(x) @ b), initial=0.0))),
    )
    residuals = {name: value for _, name, value in table}
    violations = [(check, value) for check, _, value in table if value > bound]

    gap = e(dagger(panel) @ panel) - dagger(e_panel) @ e_panel
    w = np.linalg.eigvalsh((gap + dagger(gap)) / 2.0)
    schwarz = min(0.0, float(np.min(w[:, 0])))
    residuals["schwarz_min_eig"] = schwarz
    if schwarz < -1e-10:
        violations.append(("schwarz", schwarz))

    return CondExpReport(residuals, violations)


def random_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    e_independent: bool
    commutation_residual: float
    factorization_residual: float
    e_factorization_residual: float
    implication_ok: bool


def independence_check(alg1: StarAlgebra, alg2: StarAlgebra, phi: State,
                       expectation=None, bound: float = 1e-9) -> IndependenceReport:
    """Test commutation plus state factorization between two subalgebras.

    ``independent`` needs ``[a, b] = 0`` and ``phi(ab) = phi(a) phi(b)``
    on all basis pairs; ``e_independent`` replaces the state by the
    supplied conditional expectation (default: the state itself, viewed
    as the expectation onto the scalars).  Independence must imply
    E-independence; ``implication_ok`` records whether it did.
    """
    if alg1.ambient_dim != alg2.ambient_dim or alg1.ambient_dim != phi.dim:
        raise ParentMismatch("algebras and state act on different spaces")
    n = alg1.ambient_dim
    if expectation is None:
        expectation = lambda x: phi.expect(x) * np.eye(n, dtype=np.complex128)

    comm = alg.commutator_residual(alg1.basis, alg2.basis)
    second = [(b, phi.expect(b), expectation(b)) for b in alg2.basis]
    fact = e_fact = 0.0
    for a in alg1.basis:
        phi_a, e_a = phi.expect(a), expectation(a)
        for b, phi_b, e_b in second:
            ab = a @ b
            fact = max(fact, abs(phi.expect(ab) - phi_a * phi_b))
            e_fact = max(e_fact, frob(expectation(ab) - e_a @ e_b))
    independent = comm <= bound and fact <= bound
    e_independent = e_fact <= bound
    implication_ok = (not independent) or e_independent
    return IndependenceReport(independent, e_independent, float(comm),
                              float(fact), float(e_fact), implication_ok)


@dataclass(frozen=True)
class Filtration:
    """Decreasing subgroups paired with their increasing fixed algebras."""

    rep: UnitaryRep
    chain: tuple          # of Subgroup, H_0 >= H_1 >= ... >= H_T
    algebras: tuple       # of StarAlgebra, increasing
    dense_in_ambient: bool


def filtration_from_chain(m: StarAlgebra, rep: UnitaryRep, chain,
                          tol: Tolerance = DEFAULT_TOL) -> Filtration:
    """Build the fixed-algebra filtration of a decreasing subgroup chain in M = M_n.

    Rejects chains that do not decrease.  Whether the top algebra exhausts
    the ambient one is recorded instead of enforced; chains whose last
    subgroup acts non-trivially simply stop short of it.
    """
    chain = tuple(chain)
    for s, t in zip(chain, chain[1:]):
        if not s.contains(t):
            raise ParentMismatch(
                f"chain is not decreasing at {s.members} !> {t.members}"
            )
    algebras_list = tuple(
        alg.fixed_point_algebra(m, rep, h, tol) for h in chain
    )
    for a, b in zip(algebras_list, algebras_list[1:]):
        if not b.contains_algebra(a, tol):
            raise ClosureFailed("fixed algebras failed to increase along the chain")
    dense = algebras_list[-1].dim == m.dim
    return Filtration(rep, chain, algebras_list, dense)


@dataclass(frozen=True)
class Martingale:
    """An adapted sequence X_t = E_{H_t}(X) with the tower property."""

    source: np.ndarray
    filtration: Filtration
    elements: tuple


def martingale_from(x, filtration: Filtration) -> Martingale:
    """Project one observable through the whole filtration.

    Verifies adaptedness and the martingale property
    ``E_{H_s}(X_t) = X_s`` for every s < t before returning, within 1e-9·max(1, norm).
    """
    x = np.asarray(x, dtype=np.complex128)
    rep = filtration.rep
    elements = tuple(
        conditional_expectation(x, rep, h) for h in filtration.chain
    )
    for a, xt in zip(filtration.algebras, elements):
        res = a.membership_residual(xt)
        if res > 1e-9 * max(1.0, frob(xt)):
            raise ClosureFailed(f"element is not adapted, residual {res:.3e}")
    for s in range(len(elements)):
        for t in range(s + 1, len(elements)):
            res = frob(
                conditional_expectation(elements[t], rep, filtration.chain[s])
                - elements[s]
            )
            if res > 1e-9 * max(1.0, frob(x)):
                raise ClosureFailed(
                    f"martingale property failed at ({s},{t}): {res:.3e}"
                )
    return Martingale(x, filtration, elements)


@dataclass(frozen=True)
class ConvergenceReport:
    moments: tuple
    nondecreasing: bool
    terminal_residual: float | None
    chain_ends_trivially: bool
    state_invariant: bool


def convergence_check(mart: Martingale, phi: State) -> ConvergenceReport:
    """Monotone second moments and exact terminal recovery.

    ``phi(X_t* X_t)`` must be nondecreasing in t up to 1e-10; when the last
    subgroup is trivial the final element must reproduce the source observable.
    Monotonicity is guaranteed only for a state invariant under the top
    subgroup; non-invariant states are reported, not rejected, so they
    can serve as negative controls.
    """
    top = mart.filtration.chain[0]
    invariant = phi.is_invariant(mart.filtration.rep, top.members)
    moments = tuple(
        float(phi.expect(dagger(xt) @ xt).real) for xt in mart.elements
    )
    nondecreasing = all(
        moments[i] <= moments[i + 1] + 1e-10 for i in range(len(moments) - 1)
    )
    trivial_end = mart.filtration.chain[-1].order == 1
    terminal = (
        float(frob(mart.elements[-1] - mart.source)) if trivial_end else None
    )
    return ConvergenceReport(moments, nondecreasing, terminal, trivial_end,
                             invariant)
