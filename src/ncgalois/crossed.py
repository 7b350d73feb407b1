"""Crossed products of a matrix algebra by a finite group action.

The carrier stacks one copy of the base space per group element
(group-slot-major).  The base acts block-diagonally through the inverse
action, the group acts by left-translation permutation blocks, and the
two fit together covariantly:

    U_g pi(A) U_g* = pi(alpha_g(A)).

Actions may be given spatially (conjugation by unitaries) or abstractly
(linear maps on the base's basis coordinates); the abstract form is the
reason crossed products are here at all, since it becomes spatial on the
carrier.

The crossed algebra has the canonical basis P_j U_g, so no closure is
grown: covariance and its commutant's A'' = A (``algebras.commutant``)
certify it.  Its fixed algebras are counted by the trace of the
translations on it (``galois``), and their pull-backs to the base are
nullspaces of the base's coordinate maps (``algebras.fixed_coordinates``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebras as alg
from . import galois as gal
from .algebras import StarAlgebra
from .errors import NotInvariantAlgebra, ParentMismatch
from .groups import FiniteGroup
from .linalg import DEFAULT_TOL, Subspace, Tolerance, compress, dagger
from .reps import UnitaryRep, permutation_rep

# largest Frobenius residual an automorphism check forgives, per matrix
_ACTION_RESIDUAL = 1e-8


class GroupAction:
    """A *-automorphism of the base algebra for every group element.

    ``kind="ad"``: ``matrices[g]`` are unitaries on the base's space and
    the action is conjugation.  ``kind="table"``: ``tables[g]`` act on
    Hilbert-Schmidt coordinates of the base algebra.  Both forms are
    validated as automorphism families: base-preserving, multiplicative
    on every pair of basis elements, adjoint-preserving, the identity at
    the identity, and compatible with the group law: alpha_a alpha_s =
    alpha_{as} for every element a and every generator s of the group.
    """

    def __init__(self, group: FiniteGroup, base: StarAlgebra, kind: str, data):
        if kind not in ("ad", "table"):
            raise ValueError(f"unknown action kind {kind!r}")
        self.group = group
        self.base = base
        self.kind = kind
        data = np.asarray(data, dtype=np.complex128)
        if kind == "ad" and data.shape != (group.order, base.ambient_dim, base.ambient_dim):
            raise ParentMismatch(f"need one unitary per element, got {data.shape}")
        if kind == "table" and data.shape != (group.order, base.dim, base.dim):
            raise ParentMismatch(f"need one coordinate map per element, got {data.shape}")
        self.data = data
        self._validate()

    def images(self, stack, elements=None) -> np.ndarray:
        """alpha_h(B) for each listed element h (default: all) and each B in the stack.

        Returns shape (elements, stack, n, n).
        """
        data = self.data if elements is None else self.data[elements]
        stack = np.asarray(stack, dtype=np.complex128)
        if self.kind == "ad":
            return compress(stack[None], dagger(data)[:, None])
        return self.base.from_coordinates(self.base.coordinates(stack) @ data.swapaxes(1, 2))

    def _validate(self) -> None:
        """Every check on every element and basis element, as stacked arrays.

        A residual is the Frobenius norm of one matrix; an error names the
        worst one by its index: group element(s) first, then basis element(s).
        """
        g, base = self.group, self.base
        basis, k, n = base.basis, base.dim, base.ambient_dim
        gens = list(g.generators)
        moved = self.images(basis)                       # moved[h, i] = alpha_h(B_i)
        flat = moved.reshape(-1, n * n).T
        products = (basis[:, None] @ basis[None]).reshape(k * k, n, n)
        law = np.zeros((g.order, g.order, k))      # [a, s, i], filled at generators s
        law[:, gens] = _frobs(self.images(moved[gens].reshape(-1, n, n))
                              .reshape(g.order, len(gens), k, n, n) - moved[g.mult[:, gens]])
        checks = {
            "does not preserve the base algebra":
                np.linalg.norm(flat - base.subspace().project(flat), axis=0)
                .reshape(g.order, k),
            "is not multiplicative": _frobs(self.images(products).reshape(g.order, k, k, n, n)
                                            - moved[:, :, None] @ moved[:, None]),
            "is not *-preserving": _frobs(self.images(dagger(basis)) - dagger(moved)),
            "violates the group law": law,
            "is not trivial at the identity": _frobs(moved[g.identity] - basis),
        }
        for what, res in checks.items():
            if np.max(res) > _ACTION_RESIDUAL:
                worst = tuple(map(int, np.unravel_index(np.argmax(res), res.shape)))
                raise NotInvariantAlgebra(
                    f"action {what}: residual {np.max(res):.3e} at {worst}")


def _frobs(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack."""
    return np.linalg.norm(stack, axis=(-2, -1))


def ad_action(group: FiniteGroup, base: StarAlgebra, unitaries) -> GroupAction:
    return GroupAction(group, base, "ad", unitaries)


def table_action(group: FiniteGroup, base: StarAlgebra, tables) -> GroupAction:
    return GroupAction(group, base, "table", tables)


def _embed_base(action: GroupAction, stack: np.ndarray) -> np.ndarray:
    """pi(A) for each A in the stack: block-diagonal with blocks alpha_{g^-1}(A), slot-major."""
    group = action.group
    n = action.base.ambient_dim
    out = np.zeros((len(stack), group.order, n, group.order, n), dtype=np.complex128)
    slots = np.arange(group.order)
    out[:, slots, :, slots, :] = action.images(stack, group.inverse)
    return out.reshape(len(stack), n * group.order, n * group.order)


@dataclass(frozen=True)
class CrossedProduct:
    base: StarAlgebra
    group: FiniteGroup
    action: GroupAction
    carrier_dim: int
    base_images: np.ndarray       # pi(B_k) on the carrier, one per base basis element
    translation: UnitaryRep       # U_g, left-translation permutation blocks
    algebra: StarAlgebra          # canonical basis P_j U_g, group-element-major


def crossed_product(base: StarAlgebra, action: GroupAction,
                    tol: Tolerance = DEFAULT_TOL) -> CrossedProduct:
    """Assemble the carrier, both families, and the algebra on its canonical basis.

    The products P_j U_g, with P_j an orthonormal basis of pi(M), are
    orthonormal (for h != g, U_h U_g* moves every slot of the block-diagonal
    pi(M)) and span a closed space, since pi(A) U_g pi(B) U_h =
    pi(A alpha_g(B)) U_{gh} (Williams, Crossed Products of C*-Algebras, 2007).
    Covariance and the commutant's A'' = A (``algebras.commutant``) certify
    the construction; a violation is a hard error because nothing
    downstream makes sense without it.
    """
    group = action.group
    n = base.ambient_dim
    carrier = n * group.order

    # U_g moves carrier point (s, i), at index s*n + i, to (g*s, i)
    moved = group.mult[:, :, None] * n + np.arange(n)
    translation = permutation_rep(group, moved.reshape(group.order, carrier))

    images = _embed_base(action, base.basis)
    span = Subspace.from_span(images.reshape(base.dim, -1), carrier ** 2, tol)
    canonical = span.basis.T.reshape(1, -1, carrier, carrier) @ translation.matrices[:, None]
    algebra = StarAlgebra(carrier, canonical.reshape(-1, carrier, carrier))
    cp = CrossedProduct(
        base=base, group=group, action=action, carrier_dim=carrier,
        base_images=images, translation=translation, algebra=algebra,
    )
    residual = covariance_check(cp)
    if residual > 1e-10:
        raise NotInvariantAlgebra(f"covariance violated, residual {residual:.3e}")
    alg.commutant(cp.algebra, tol)
    return cp


def covariance_check(cp: CrossedProduct) -> float:
    """max over g and base basis A of |U_g pi(A) U_g* - pi(alpha_g(A))|."""
    lhs = compress(cp.base_images[None], dagger(cp.translation.matrices)[:, None])
    moved = cp.action.images(cp.base.basis)
    rhs = _embed_base(cp.action, moved.reshape(-1, *moved.shape[2:])).reshape(lhs.shape)
    return float(np.max(_frobs(lhs - rhs)))


def crossed_galois(cp: CrossedProduct, tol: Tolerance = DEFAULT_TOL):
    """Spatial-case correspondence on the crossed product, with pull-backs.

    Runs the subgroup-to-fixed-algebra analysis for the translation action
    on the crossed algebra.  Since U_h pi(A) U_h* = pi(alpha_h(A)) and pi is
    injective, each fixed algebra meets the embedded base in pi(M^{alpha(H)}),
    whose dimension comes from the base's own maps at H's generators.
    """
    report = gal.galois_map(cp.algebra, cp.translation, mode="spatial", tol=tol)
    maps = cp.base.coordinates(cp.action.images(cp.base.basis))
    return report, {row.subgroup.members: alg.fixed_coordinates(
        maps[list(row.subgroup.generators)], tol).shape[1] for row in report.rows}
