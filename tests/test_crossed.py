import kernel_reference
import numpy as np
import pytest

from ncgalois import crossed, groups, reps
from ncgalois.algebras import StarAlgebra, block_structure, is_factor
from ncgalois.errors import NotInvariantAlgebra
from ncgalois.linalg import frob


@pytest.fixture(scope="module")
def z2():
    return groups.cyclic_group(2)


@pytest.fixture(scope="module")
def swap_action(z2):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return crossed.ad_action(z2, StarAlgebra.diagonal(2),
                             np.array([np.eye(2), swap]))


def test_action_validation_rejects_non_preserving(z2):
    # a rotation does not preserve the diagonal algebra
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    with pytest.raises(NotInvariantAlgebra):
        crossed.ad_action(z2, StarAlgebra.diagonal(2),
                          np.array([np.eye(2), rot]))


def test_action_validation_rejects_non_action(z2):
    # element of order 4 cannot implement a Z2 action on the full algebra
    quarter = np.diag([1.0, 1.0j])
    with pytest.raises(NotInvariantAlgebra):
        crossed.ad_action(z2, StarAlgebra.full(2),
                          np.array([np.eye(2), quarter]))


def test_trivial_group_keeps_base():
    z1 = groups.cyclic_group(1)
    base = StarAlgebra.diagonal(2)
    act = crossed.ad_action(z1, base, np.eye(2, dtype=complex)[None])
    cp = crossed.crossed_product(base, act)
    assert cp.carrier_dim == 2
    assert cp.algebra.dim == base.dim
    assert cp.algebra.equals(base)


def test_scalars_by_z2_gives_group_algebra(z2):
    base = StarAlgebra.scalars(1)
    act = crossed.ad_action(z2, base, np.ones((2, 1, 1), dtype=complex))
    cp = crossed.crossed_product(base, act)
    assert cp.carrier_dim == 2
    assert cp.algebra.dim == 2
    # the group algebra of Z2 is abelian: two one-dimensional blocks
    assert block_structure(cp.algebra, seed=0).blocks == ((1, 1), (1, 1))


def test_swap_crossed_product_is_factor(z2, swap_action):
    cp = crossed.crossed_product(StarAlgebra.diagonal(2), swap_action)
    assert cp.carrier_dim == 4
    assert cp.algebra.dim == 4
    assert is_factor(cp.algebra)
    structure = block_structure(cp.algebra, seed=1)
    assert len(structure.blocks) == 1
    assert structure.blocks[0][0] == 2      # one M2 block with multiplicity 2
    assert crossed.covariance_check(cp) < 1e-12


def test_covariance_detector_catches_corruption(z2, swap_action):
    cp = crossed.crossed_product(StarAlgebra.diagonal(2), swap_action)
    bad_mats = cp.translation.matrices.copy()
    bad_mats[1] = np.roll(bad_mats[1], 1, axis=0)   # corrupt U_s
    bad = crossed.CrossedProduct(
        base=cp.base, group=cp.group, action=cp.action,
        carrier_dim=cp.carrier_dim, base_images=cp.base_images,
        translation=reps.UnitaryRep(z2, bad_mats, check=False),
        algebra=cp.algebra,
    )
    assert crossed.covariance_check(bad) >= 0.1


def test_trivial_action_commutes(z2):
    base = StarAlgebra.full(2)
    act = crossed.ad_action(z2, base, np.array([np.eye(2), np.eye(2)]))
    cp = crossed.crossed_product(base, act)
    for image in cp.base_images:
        for u in cp.translation.matrices:
            assert frob(image @ u - u @ image) < 1e-12


def test_inner_action_dimension(z2):
    # full M2 with inner Z2 action: generated dim = 4 * |G| = 8 on C4
    base = StarAlgebra.full(2)
    act = crossed.ad_action(z2, base,
                            np.array([np.eye(2), np.diag([1.0, -1.0])]))
    cp = crossed.crossed_product(base, act)
    assert cp.algebra.dim == 8
    properness = reps.is_proper(cp.translation)
    assert properness.proper


def test_crossed_galois_inner_z2(z2):
    base = StarAlgebra.full(2)
    act = crossed.ad_action(z2, base,
                            np.array([np.eye(2), np.diag([1.0, -1.0])]))
    cp = crossed.crossed_product(base, act)
    report, pullbacks = crossed.crossed_galois(cp)
    assert len(report.rows) == 2
    dims = {r.subgroup.members: r.fixed_dim for r in report.rows}
    assert dims[(0,)] == 8                  # whole crossed algebra
    assert dims[(0, 1)] < 8                 # proper fixed subalgebra
    assert report.injective
    assert not report.violations
    # pulled-back subalgebras of the embedded base
    assert pullbacks[(0,)] == 4
    assert pullbacks[(0, 1)] == 2


def test_crossed_galois_trivial_group():
    z1 = groups.cyclic_group(1)
    base = StarAlgebra.diagonal(2)
    act = crossed.ad_action(z1, base, np.eye(2, dtype=complex)[None])
    cp = crossed.crossed_product(base, act)
    report, pullbacks = crossed.crossed_galois(cp)
    assert len(report.rows) == 1
    assert report.rows[0].fixed_dim == cp.algebra.dim


def test_table_action_equivalent_to_spatial(z2):
    # the same swap action given abstractly on coordinates
    base = StarAlgebra.diagonal(2)
    tables = np.array([np.eye(2), [[0, 1], [1, 0]]], dtype=complex)
    act = crossed.table_action(z2, base, tables)
    cp = crossed.crossed_product(base, act)
    assert cp.algebra.dim == 4
    assert is_factor(cp.algebra)


def test_crossed_galois_s3_swap_factor(s3):
    # abelian base, S3 permuting three diagonal coordinates: ergodic shadow
    base = StarAlgebra.diagonal(3)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    act = crossed.ad_action(s3, base, perm.matrices)
    cp = crossed.crossed_product(base, act)
    assert cp.carrier_dim == 18
    report, pullbacks = crossed.crossed_galois(cp)
    assert all(r.bicommutant_ok for r in report.rows)
    assert report.anti_monotone_pairs > 0
    assert not report.violations


def test_group_law_on_generators_matches_all_pairs(s3, rng):
    # the crossed-s3-m3 action: S3 permuting C^3 in a seeded random basis;
    # element 4 is a 3-cycle, not one of the generators (1, 2)
    base = StarAlgebra.full(3)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3)).matrices
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    good = q @ perm @ q.conj().T
    phased = good.copy()
    phased[4] *= 1j                 # Ad of a phase is the same automorphism
    corrupted = good.copy()
    corrupted[4] = good[5]          # two elements share one automorphism
    assert s3.generators == (1, 2)
    for unitaries, valid in ((good, True), (phased, True), (corrupted, False)):
        reference = kernel_reference.ad_group_law_all_pairs(s3, base.basis, unitaries)
        assert (reference <= 1e-8) == valid
        if valid:
            crossed.ad_action(s3, base, unitaries)
        else:
            with pytest.raises(NotInvariantAlgebra, match="violates the group law"):
                crossed.ad_action(s3, base, unitaries)


def test_action_validation_checks_every_basis_pair(z2):
    # swapping the coordinates of E21 and E22 of M3 is an involution that
    # preserves M3, but alpha(E22)^2 = E21^2 = 0 != alpha(E22^2) = E21
    swap = np.eye(9, dtype=complex)[[0, 1, 2, 3, 4, 5, 6, 8, 7]]
    with pytest.raises(NotInvariantAlgebra, match="not multiplicative"):
        crossed.table_action(z2, StarAlgebra.full(3), np.array([np.eye(9), swap]))


def test_carrier_matrices_equal_the_slot_by_slot_construction(s3):
    # U_g has the identity block at (slot, g^-1 * slot); pi(A) has the block
    # alpha_{g^-1}(A) at (slot, slot)
    base = StarAlgebra.diagonal(3)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    act = crossed.ad_action(s3, base, perm.matrices)
    cp = crossed.crossed_product(base, act)
    n, order = 3, s3.order
    u_mats = np.zeros((order, 18, 18))
    images = np.zeros((base.dim, 18, 18), dtype=complex)
    for g in range(order):
        for slot in range(order):
            src = s3.op(s3.inv(g), slot)
            u_mats[g, slot * n:(slot + 1) * n, src * n:(src + 1) * n] = np.eye(n)
    for k, b in enumerate(base.basis):
        for slot in range(order):
            block = act.images(b[None], [s3.inv(slot)])[0, 0]
            images[k, slot * n:(slot + 1) * n, slot * n:(slot + 1) * n] = block
    assert np.array_equal(cp.translation.matrices, u_mats)
    assert np.array_equal(cp.base_images, images)
