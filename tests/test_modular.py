import dataclasses

import kernel_reference
import numpy as np
import pytest
from kernel_reference import maximally_mixed, random_faithful

from ncgalois import algebras, modular
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import ClosureFailed, NotFaithful, ParentMismatch
from ncgalois.linalg import dagger, frob
from ncgalois.modular import (
    connes_cocycle,
    gns,
    kms_residual,
    modular_flow,
    modular_identity_residuals,
    tomita,
    tomita_takesaki_residuals,
)
from ncgalois.ncprob import State


def unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# -- GNS ----------------------------------------------------------------------


def test_gns_dimensions_and_gram():
    space = gns(StarAlgebra.full(2), maximally_mixed(2))
    assert space.dim == 4
    np.testing.assert_allclose(space.gram, np.eye(4) / 2.0, atol=1e-14)

    diag_space = gns(StarAlgebra.diagonal(2), State(np.diag([0.7, 0.3])))
    assert diag_space.dim == 2


def test_gns_rejects_unfaithful():
    with pytest.raises((NotFaithful, Exception)):
        gns(StarAlgebra.full(2), State(np.diag([1.0, 0.0])))


def test_gns_left_multiplication_homomorphism(rng):
    phi = random_faithful(3, rng)
    space = gns(StarAlgebra.full(3), phi)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    la, lb = space.left_mult_matrix(a), space.left_mult_matrix(b)
    lab = space.left_mult_matrix(a @ b)
    assert frob(la @ lb - lab) < 1e-10
    # acting on the cyclic vector recovers coordinates of the element
    np.testing.assert_allclose(la @ space.cyclic, space.algebra.coordinates(a), atol=1e-12)


# -- tomita data ---------------------------------------------------------------


def test_tracial_state_trivial_modular_data():
    md = tomita(gns(StarAlgebra.full(3), maximally_mixed(3)))
    np.testing.assert_allclose(md.delta, np.eye(9), atol=1e-13)
    # J reduces to the plain adjoint, S = J
    assert frob(md.j_conj - md.s_conj) < 1e-13
    for t in (0.3, 1.0):
        a = unit(3, 0, 2)
        np.testing.assert_allclose(modular_flow(np.eye(3) / 3.0, t, a), a,
                                   atol=1e-13)


def test_delta_eigenvalues_on_matrix_units():
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    md = tomita(gns(StarAlgebra.full(2), State(rho)))
    eigs = sorted(np.linalg.eigvals(md.delta).real)
    np.testing.assert_allclose(eigs, [0.5, 1.0, 1.0, 2.0], atol=1e-12)


def test_s_implements_adjoint(rng):
    phi = random_faithful(2, rng)
    md = tomita(gns(StarAlgebra.full(2), phi))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = md.apply_s(a.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out, dagger(a), atol=1e-13)


def test_tomita_requires_full_block():
    with pytest.raises(ParentMismatch):
        tomita(gns(StarAlgebra.diagonal(2), State(np.diag([0.7, 0.3]))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eight_identities_random_states(n, rng):
    for _ in range(5):
        phi = random_faithful(n, rng)
        md = tomita(gns(StarAlgebra.full(n), phi))
        res = modular_identity_residuals(md)
        assert max(res.values()) < 1e-9, res
        assert modular.antiunitarity_residual(md) < 1e-9
        # J and S act anti-linearly: T(ix) = -i T(x)
        x = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        np.testing.assert_allclose(md.apply_j(1j * x), -1j * md.apply_j(x))
        # delta positive for the GNS product
        quad = md.gns_space.inner(x, md.delta @ x).real
        assert quad > 0


def test_tomita_takesaki_theorem(rng):
    for n in (2, 3):
        phi = random_faithful(n, rng)
        md = tomita(gns(StarAlgebra.full(n), phi))
        res = tomita_takesaki_residuals(md)
        assert res["jmj_in_commutant"] < 1e-9
        assert res["flow_invariance"] < 1e-9


def _seeded_modular_data(n):
    return tomita(gns(StarAlgebra.full(n), random_faithful(n, np.random.default_rng(100 + n))))


def _agrees_with_whole_family(n):
    # the pair's commutant is the whole family's, and both paths' residuals pass
    md = _seeded_modular_data(n)
    reference, whole = kernel_reference.tomita_takesaki_by_whole_family(md)
    pair = modular._left_commutant(md.gns_space).subspace()
    assert pair.dim == reference.dim == n * n
    assert pair.distance(reference) <= 1e-9
    for res in (whole, tomita_takesaki_residuals(md)):
        assert res["jmj_in_commutant"] <= 1e-9
        assert res["flow_invariance"] <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tomita_takesaki_agrees_with_the_whole_family(n):
    _agrees_with_whole_family(n)


@pytest.mark.slow
def test_tomita_takesaki_agrees_with_the_whole_family_at_n10():
    _agrees_with_whole_family(10)


def test_a_pair_that_does_not_generate_fails_on_the_commutant_dimension(monkeypatch):
    # a pair from the diagonal subalgebra has the commutant D_n (x) M_n, of dim n^3
    monkeypatch.setattr(modular, "_generating_pair",
                        lambda basis: algebras._generating_pair(StarAlgebra.diagonal(3).basis))
    with pytest.raises(ClosureFailed, match="commutant has dim 27, not dim M' = 9"):
        tomita_takesaki_residuals(_seeded_modular_data(3))


def test_a_conjugation_that_keeps_m_fails_jmj_in_commutant():
    # the plain coordinate conjugation maps each left multiplication L_a to L_conj(a), in M
    md = _seeded_modular_data(3)
    plain = dataclasses.replace(md, j_conj=np.eye(9, dtype=complex))
    res = tomita_takesaki_residuals(plain)
    assert res["jmj_in_commutant"] > 1e-3
    assert res["flow_invariance"] < 1e-9


def test_a_random_unitary_flow_fails_flow_invariance(monkeypatch):
    md = _seeded_modular_data(3)
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    monkeypatch.setattr(modular.ModularData, "delta_power", lambda self, z: u)
    res = tomita_takesaki_residuals(md)
    assert res["flow_invariance"] > 1e-3
    assert res["jmj_in_commutant"] < 1e-9


def test_gns_takes_each_probe_left_multiplication_once(monkeypatch):
    # 6 probe elements, 36 products and 6 adjoints
    calls = []
    honest = modular.GNSSpace.left_mult_matrix
    monkeypatch.setattr(modular.GNSSpace, "left_mult_matrix",
                        lambda self, a: calls.append(a) or honest(self, a))
    gns(StarAlgebra.full(3), random_faithful(3, np.random.default_rng(1)))
    assert len(calls) == 48


# -- flow and KMS --------------------------------------------------------------


def test_flow_basics(rng):
    rho = random_faithful(3, rng).density
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(modular_flow(rho, 0.0, a), a, atol=1e-13)
    # group law and automorphism property
    s, t = 0.7, -1.3
    lhs = modular_flow(rho, s, modular_flow(rho, t, a))
    np.testing.assert_allclose(lhs, modular_flow(rho, s + t, a), atol=1e-9)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(
        modular_flow(rho, t, a @ b),
        modular_flow(rho, t, a) @ modular_flow(rho, t, b),
        atol=1e-10,
    )


def test_flow_phase_example():
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    out = modular_flow(rho, 1.0, unit(2, 0, 1))
    assert abs(out[0, 1] - np.exp(1j * np.log(2.0))) < 1e-12


def test_flow_fixed_points_are_centralizer(rng):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    commuting = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def residuals(a):   # max_t |sigma^t(a) - a| and |[rho, a]|: both vanish or neither
        flow = max(frob(modular_flow(rho, t, a) - a) for t in (0.5, 1.0, 2.0))
        return flow, frob(rho @ a - a @ rho)

    assert max(residuals(commuting)) < 1e-12
    assert min(residuals(unit(3, 0, 1))) > 1e-3


def test_kms_at_beta_one(rng):
    for n in (2, 3, 4):
        rho = random_faithful(n, rng).density
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert kms_residual(rho, a, b, 1.0) < 1e-10


def test_kms_tracial_all_beta(rng):
    rho = np.eye(3, dtype=complex) / 3.0
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for beta in (0.5, 1.0, 2.0, 3.7):
        assert kms_residual(rho, a, b, beta) < 1e-12


def test_kms_beta_two_explicit():
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    res = kms_residual(rho, unit(2, 0, 1), unit(2, 1, 0), 2.0)
    np.testing.assert_allclose(res, 1 / 6, atol=1e-12)


# -- cocycles ------------------------------------------------------------------


def test_cocycle_equal_states_is_identity(rng):
    rho = random_faithful(3, rng).density
    report = connes_cocycle(rho, rho, 1.1)
    np.testing.assert_allclose(report.cocycle, np.eye(3), atol=1e-12)
    assert report.worst < 1e-9


def test_cocycle_diagonal_closed_form():
    p = 0.7
    rho1 = np.eye(2, dtype=complex) / 2.0
    rho2 = np.diag([p, 1 - p]).astype(complex)
    t = 0.9
    report = connes_cocycle(rho1, rho2, t)
    expected = np.diag([(2 * p) ** (1j * t), (2 * (1 - p)) ** (1j * t)])
    np.testing.assert_allclose(report.cocycle, expected, atol=1e-12)
    assert report.worst < 1e-9


def test_cocycle_chain_rule_commuting_diagonals(rng):
    d1 = np.sort(rng.uniform(0.1, 1.0, 3)); d1 /= d1.sum()
    d2 = np.sort(rng.uniform(0.1, 1.0, 3)); d2 /= d2.sum()
    d3 = np.sort(rng.uniform(0.1, 1.0, 3)); d3 /= d3.sum()
    report = connes_cocycle(np.diag(d1).astype(complex),
                            np.diag(d2).astype(complex), 1.7,
                            rho3=np.diag(d3).astype(complex))
    assert report.chain_rule < 1e-10
    assert report.worst < 1e-9


def test_cocycle_noncommuting_random(rng):
    for n in (2, 3, 4):
        rho1 = random_faithful(n, rng).density
        rho2 = random_faithful(n, rng).density
        report = connes_cocycle(rho1, rho2, 0.8)
        assert report.worst < 1e-9, (n, report)
        assert report.balanced_weight < 1e-9
