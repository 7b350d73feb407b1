import tracemalloc

import numpy as np
import pytest
from kernel_reference import (
    all_members_certificate,
    commutator_residual_in_one_shot,
    fixed_point_by_intersection,
    random_hermitian,
    rotated,
)

from ncgalois import groups, linalg, ncprob, reps
from ncgalois.algebras import (
    StarAlgebra,
    _ad_character,
    _character_count,
    algebra_from_generators,
    bicommutant_check,
    block_structure,
    block_structure_residual,
    center,
    commutant,
    commutant_of_matrices,
    commutator_residual,
    fixed_coordinates,
    fixed_point_algebra,
    relative_commutant,
)
from ncgalois.errors import (
    CenterSplitFailed,
    ClosureFailed,
    DecompositionFailed,
    DimensionMismatch,
    NotContained,
    NotInvariantAlgebra,
    ParentMismatch,
)
from ncgalois.linalg import DEFAULT_TOL, Tolerance, dagger, frob


@pytest.fixture(scope="module")
def s3_perm(s3):
    return reps.permutation_rep(s3, groups.symmetric_action(3))


@pytest.fixture(scope="module")
def s3_perm_algebra(s3_perm):
    return algebra_from_generators(s3_perm.matrices, s3_perm.dim)


def unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_generated_by_nothing_is_scalars():
    a = algebra_from_generators([], 3)
    assert a.dim == 1
    assert a.contains_matrix(np.eye(3) / np.sqrt(3))


def test_generated_by_matrix_units_is_full():
    gens = [unit(2, 0, 1), unit(2, 1, 0)]
    a = algebra_from_generators(gens, 2)
    assert a.dim == 4 and a.is_full


def test_generators_of_mixed_shapes_are_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="generator shape"):
        algebra_from_generators([np.eye(2), np.eye(3)], 2)


def test_s3_permutation_image_dimension(s3_perm_algebra):
    # brute-force span closure gives 1 + 4 = 5 (trivial block + 2x2 block)
    assert s3_perm_algebra.dim == 5


def test_the_full_algebra_builds_its_basis_on_first_read():
    # M_3 is held by its size until a caller reads its basis, which is then
    # the matrix units, and its subspace the whole of C^9
    m = StarAlgebra.full(3)
    assert vars(m) == {"ambient_dim": 3, "dim": 9} and m.is_full
    units = algebra_from_generators([unit(3, i, j) for i in range(3) for j in range(3)], 3)
    assert m.contains_algebra(units) and units.equals(m)
    assert np.array_equal(m.basis.reshape(9, 9), np.eye(9)) and not m.basis.flags.writeable
    assert m.subspace().dim == 9 and m.basis is m.basis


def test_coordinates_of_an_empty_stack():
    # the trivial subgroup has no generators: an empty stack of images has
    # no coordinates, and an empty stack of maps fixes every coordinate
    assert StarAlgebra.full(2).coordinates(np.zeros((0, 2, 2))).shape == (0, 4)
    assert np.array_equal(fixed_coordinates(np.zeros((0, 4, 4))), np.eye(4))


def test_star_algebra_rejects_non_closed_span():
    # span{I, e01} is not closed under adjoints
    with pytest.raises(ClosureFailed):
        StarAlgebra.from_span([np.eye(2), unit(2, 0, 1)], 2)


def test_star_algebra_rejects_span_without_identity():
    with pytest.raises(ClosureFailed, match="identity"):
        StarAlgebra.from_span([np.diag([1.0, 0.0])], 2)


def test_star_algebra_rejects_span_not_closed_under_products():
    # sigma_x sigma_z = -i sigma_y lies outside span{1, sigma_x, sigma_z}
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    with pytest.raises(ClosureFailed, match="products"):
        StarAlgebra.from_span([np.eye(2), sx, sz], 2)


def test_star_algebra_rejects_sampled_products_outside_a_large_span():
    # 41 basis elements give 41^2 > 1024 pairs, so only a seeded sample of
    # products is checked; 41 of the 49 dimensions leave products outside
    rng = np.random.default_rng(23)
    mats = [np.eye(7)] + [random_hermitian(7, rng) for _ in range(40)]
    with pytest.raises(ClosureFailed, match="products"):
        StarAlgebra.from_span(mats, 7)


def test_commutant_of_scalars_and_full():
    assert commutant(StarAlgebra.scalars(3)).dim == 9
    assert commutant(StarAlgebra.full(3)).dim == 1


def test_commutant_of_s3_image(s3_perm_algebra):
    c = commutant(s3_perm_algebra)
    assert c.dim == 2
    assert c.contains_matrix(np.eye(3) / np.sqrt(3))
    assert c.contains_matrix(np.ones((3, 3)) / 3.0)


def test_the_commutant_is_solved_once_per_algebra_and_tolerance(s3_perm_algebra, monkeypatch):
    # a second call on the same algebra and tolerance reads the memo; another
    # tolerance, or another algebra with the same basis, solves again
    m = StarAlgebra(3, s3_perm_algebra.basis)
    calls = []
    honest = linalg.commutant_kernel
    monkeypatch.setattr(linalg, "commutant_kernel",
                        lambda mats, tol: calls.append(tol) or honest(mats, tol))
    loose = Tolerance(abs_eps=1e-12, rel_eps=1e-8)
    first = commutant(m)
    assert commutant(m) is first and center(m).dim == 2 and len(calls) == 1
    assert commutant(m, loose).equals(first) and calls == [DEFAULT_TOL, loose]
    assert commutant(StarAlgebra(3, m.basis)) is not first and len(calls) == 3


def test_commutant_of_non_star_closed_family_is_not_reduced():
    # the commutant kernel is solved only on a split of a *-closed span, so
    # a family whose span is not closed under adjoints is rejected: for the
    # Jordan block J, reducing by a split of J + J* would drop span{1, J}
    # to the scalars
    with pytest.raises(ClosureFailed):
        commutant_of_matrices([[[0, 1], [0, 0]]], 2)
    # span{E11, E12} is rejected too, though its commutant is the scalars
    with pytest.raises(ClosureFailed, match="not closed under adjoints"):
        commutant_of_matrices([unit(2, 0, 0), unit(2, 0, 1)], 2)


def test_commutant_certificate_catches_a_kernel_vector_that_does_not_commute(
        s3, s3_perm, s3_perm_algebra, monkeypatch):
    # one stray unit vector appended to the Sylvester kernel must be caught
    # by the kernel's own commutator residual, before any count or closure;
    # the fixed-point algebra is that of S3 on its points in a rotated basis,
    # since on permutation matrices it is read off the orbitals, with no kernel
    honest = linalg.commutant_kernel
    turned = rotated(s3_perm)

    def padded(mats, tol=DEFAULT_TOL):
        kernel = honest(mats, tol)
        n = mats.shape[1]
        stray = ((unit(n, 0, 1) + unit(n, 1, 0)) / np.sqrt(2)).reshape(-1, 1)
        return np.hstack([kernel, stray])

    top = groups.Subgroup(s3, tuple(range(6)))
    monkeypatch.setattr(linalg, "commutant_kernel", padded)
    with pytest.raises(ClosureFailed, match="commute"):   # a fresh copy: no memo to read
        commutant(StarAlgebra(3, s3_perm_algebra.basis))
    with pytest.raises(ClosureFailed, match="commute"):
        fixed_point_algebra(StarAlgebra.full(3), turned, top)


def test_generator_certificate_matches_the_all_members_reference(s3):
    # the fixed algebras of the regular S3 lattice pass both certificates;
    # with one stray vector appended, both give the same verdict
    reg = reps.regular_rep(s3)
    stray = (unit(6, 0, 1) + unit(6, 1, 0))[None] / np.sqrt(2)
    caught = []
    for sub in groups.enumerate_subgroups(s3):
        basis = fixed_point_algebra(StarAlgebra.full(6), reg, sub).basis
        gens = reg.matrices[list(sub.generators)]
        assert commutator_residual(gens, basis) <= 1e-9
        assert all_members_certificate(reg, sub, basis) <= 1e-9
        padded = np.concatenate([basis, stray])
        verdict = commutator_residual(gens, padded) > 1e-9
        assert verdict == (all_members_certificate(reg, sub, padded) > 1e-9), sub.members
        caught.append(verdict)
    # the stray vector commutes with the images of {0} and {0, 1} only
    assert caught == [False, False, True, True, True, True]


@pytest.mark.parametrize("order", [1, 2, 6], ids=["trivial", "Z2", "S3"])
def test_commutator_residual_in_panels_is_the_one_shot_residual(s4, order, rng):
    # fixed bases of S4 regular subgroups (576, 288 and 96 elements, all
    # wider than one panel) and a random basis, against every member of S4
    reg = reps.regular_rep(s4)
    sub = next(h for h in groups.enumerate_subgroups(s4) if h.order == order)
    fixed = fixed_point_algebra(StarAlgebra.full(24), reg, sub).basis
    noise = rng.standard_normal((130, 24, 24)) + 1j * rng.standard_normal((130, 24, 24))
    for basis in (fixed, noise):
        assert len(basis) > linalg._PANEL
        residual = commutator_residual(reg.matrices, basis)
        assert residual == commutator_residual_in_one_shot(reg.matrices, basis)
    assert commutator_residual(reg.matrices, np.zeros((0, 24, 24))) == 0.0


def test_the_commutant_of_a_whole_basis_holds_little_beside_its_input():
    # M32's 1024-element basis is the stack: its rotated copy is the one
    # transient of its size, written a panel at a time (twice the input, the
    # copy and its matmul temporary, before); a full M builds its basis on
    # first read, so the input is read before tracing starts
    m = StarAlgebra.full(32)
    m.basis
    commutant(StarAlgebra.full(4))   # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scalars = commutant(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scalars.dim == 1
    assert peak - before <= 1.25 * m.basis.nbytes


def test_a_subgroup_of_another_group_is_rejected(s3_perm):
    # a Z6 subgroup read on S3's table would give a 1-dimensional "fixed algebra"
    foreign = groups.Subgroup(groups.cyclic_group(6), (0, 3))
    with pytest.raises(ParentMismatch):
        fixed_point_algebra(StarAlgebra.diagonal(3), s3_perm, foreign)
    with pytest.raises(ParentMismatch):
        ncprob.conditional_expectation(np.eye(3), s3_perm, foreign)


def test_commutant_is_order_reversing(s3_perm_algebra):
    scalars = StarAlgebra.scalars(3)
    big = commutant(scalars)
    small = commutant(s3_perm_algebra)
    assert big.contains_algebra(small)


def test_bicommutant_on_standard_algebras(s3_perm_algebra):
    assert bicommutant_check(StarAlgebra.full(4))
    assert bicommutant_check(StarAlgebra.diagonal(2))
    assert bicommutant_check(s3_perm_algebra)


def test_bicommutant_random_generated(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(k)]
        a = algebra_from_generators(gens, n)
        assert bicommutant_check(a)


def test_relative_commutant_and_center(s3_perm_algebra):
    m = StarAlgebra.full(3)
    assert relative_commutant(StarAlgebra.scalars(3), m).equals(m)
    assert center(StarAlgebra.full(4)).dim == 1

    # M2 + M1 block algebra inside M3: center has two minimal projections
    basis = [unit(3, i, j) for i in range(2) for j in range(2)] + [unit(3, 2, 2)]
    block = StarAlgebra.from_span(basis, 3)
    assert center(block).dim == 2

    with pytest.raises(NotContained):
        relative_commutant(m, StarAlgebra.diagonal(3))


def test_block_structure_full_and_diagonal():
    assert block_structure(StarAlgebra.full(3)).blocks == ((3, 1),)
    assert block_structure(StarAlgebra.diagonal(2)).blocks == ((1, 1), (1, 1))


def test_block_structure_s3_image(s3_perm_algebra):
    structure = block_structure(s3_perm_algebra, seed=2)
    assert structure.blocks == ((1, 1), (2, 1))
    assert block_structure_residual(s3_perm_algebra, structure) < 1e-9
    u = structure.unitary
    assert frob(dagger(u) @ u - np.eye(3)) < 1e-10


def test_block_structure_with_multiplicity(s3):
    # regular-rep image of S3: blocks (1,1), (1,1), (2,2)
    reg = reps.regular_rep(s3)
    reg_alg = algebra_from_generators(reg.matrices, reg.dim)
    assert reg_alg.dim == 6
    structure = block_structure(reg_alg, seed=5)
    assert structure.blocks == ((1, 1), (1, 1), (2, 2))
    assert sum(n * m for n, m in structure.blocks) == 6
    assert block_structure_residual(reg_alg, structure) < 1e-9


def test_random_split_gives_up_after_max_resamples():
    # every element of the scalars has one eigenvalue, so no draw can split
    rng = np.random.default_rng(11)
    with pytest.raises(CenterSplitFailed):
        linalg.random_split(StarAlgebra.scalars(3).basis, rng, 2)
    # each draw takes a real and an imaginary coordinate
    replay = np.random.default_rng(11)
    replay.standard_normal(2 * linalg._MAX_RESAMPLES)
    assert rng.standard_normal() == replay.standard_normal()


def test_fixed_point_trivial_subgroup(s3_perm, s3):
    m = StarAlgebra.full(3)
    trivial = groups.Subgroup(s3, (s3.identity,))
    assert fixed_point_algebra(m, s3_perm, trivial).equals(m)


def test_fixed_point_s3_action(s3_perm, s3):
    m = StarAlgebra.full(3)
    top = groups.Subgroup(s3, tuple(range(6)))
    fixed = fixed_point_algebra(m, s3_perm, top)
    assert fixed.dim == 2
    assert fixed.contains_matrix(np.ones((3, 3)))


def test_fixed_point_sign_action():
    z2 = groups.cyclic_group(2)
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), np.diag([1.0, -1.0])]))
    m = StarAlgebra.full(2)
    fixed = fixed_point_algebra(m, rep, groups.Subgroup(z2, (0, 1)))
    assert fixed.equals(StarAlgebra.diagonal(2))


def test_fixed_point_dimension_certificate_catches_a_cut_eigenspace(s3, monkeypatch):
    # cutting one eigenspace of the split in two drops commutant elements
    # that mix its halves, so the dimension misses the character count; the
    # regular representation is rotated, so that the kernel is solved at all
    reg = rotated(reps.regular_rep(s3))
    honest = linalg.random_split

    def cut(stack, rng, parts=1, tol=DEFAULT_TOL):
        blocks = honest(stack, rng, parts, tol)
        j = max(range(len(blocks)), key=lambda i: blocks[i].shape[1])
        return blocks[:j] + [blocks[j][:, :1], blocks[j][:, 1:]] + blocks[j + 1:]

    top = groups.Subgroup(s3, tuple(range(6)))
    assert fixed_point_algebra(StarAlgebra.full(6), reg, top).dim == 6
    monkeypatch.setattr(linalg, "random_split", cut)
    with pytest.raises(DecompositionFailed, match="dimension 4.*gives 6"):
        fixed_point_algebra(StarAlgebra.full(6), reg, top)


def test_non_full_character_counts_equal_the_kernel_intersection_reference(
        s3, d4, s3_perm, s3_perm_algebra):
    # dim M^H by the trace of Ad U on M against the n^2 commutant kernel
    # intersected with M, on every subgroup of each invariant non-full algebra
    reg = reps.regular_rep(s3)
    d4_table = reps.irrep_table(d4)
    d4_rep = reps.direct_sum(d4_table.irreps[0], d4_table.irreps[4], d4_table.irreps[4])
    cases = [(StarAlgebra.diagonal(3), s3_perm), (s3_perm_algebra, s3_perm),
             (algebra_from_generators(reg.matrices, reg.dim), reg),
             (algebra_from_generators(d4_rep.matrices, d4_rep.dim), d4_rep)]
    for m, rep in cases:
        assert not m.is_full
        chi = _ad_character(m, rep, rep.group.generators)
        for sub in groups.enumerate_subgroups(rep.group):
            reference = fixed_point_by_intersection(m, rep, sub).dim
            assert abs(_character_count(chi, sub) - reference) <= 1e-9, sub.members


def test_the_ad_character_requires_invariance(s3_perm, s3):
    # span{1, E01 + E10, E00 + E11} is invariant under the swap of 0 and 1
    # (element 2), but not under that of 1 and 2 (element 1); a fixed-point
    # algebra is built in a full M only
    basis = [np.eye(3) / np.sqrt(3),
             (unit(3, 0, 1) + unit(3, 1, 0)) / np.sqrt(2)]
    sub = StarAlgebra.from_span(
        basis + [unit(3, 0, 0) + unit(3, 1, 1)], 3
    )
    swap01 = groups.Subgroup(s3, (0, 2))
    assert abs(_character_count(_ad_character(sub, s3_perm, (2,)), swap01) - 3) <= 1e-12
    with pytest.raises(NotInvariantAlgebra, match="conjugation by element 1 "):
        _ad_character(sub, s3_perm, s3.generators)
    with pytest.raises(ValueError, match="full matrix algebra only"):
        fixed_point_algebra(sub, s3_perm, groups.Subgroup(s3, tuple(range(6))))


def test_averaging_projection(s3_perm, s3, rng):
    # the averaging projection onto M^G is the conditional expectation of the whole group
    whole = groups.Subgroup(s3, tuple(range(6)))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    avg = ncprob.conditional_expectation(a, s3_perm, whole)
    # idempotent as a map
    again = ncprob.conditional_expectation(avg, s3_perm, whole)
    assert frob(again - avg) < 1e-12
    # trace preserved, fluctuation annihilated by the invariant state
    assert abs(np.trace(avg) - np.trace(a)) < 1e-12
    assert abs(np.trace(np.eye(3) / 3 @ (a - avg))) < 1e-12

    e11 = unit(3, 0, 0)
    avg = ncprob.conditional_expectation(e11, s3_perm, whole)
    np.testing.assert_allclose(avg, np.eye(3) / 3.0, atol=1e-13)


def test_averaging_image_equals_fixed_algebra(s3_perm, s3, rng):
    m = StarAlgebra.full(3)
    top = groups.Subgroup(s3, tuple(range(6)))
    fixed = fixed_point_algebra(m, s3_perm, top)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        avg = ncprob.conditional_expectation(a, s3_perm, top)
        assert fixed.membership_residual(avg) < 1e-9


def test_commutant_dim_equals_sum_of_squared_multiplicities(d4):
    table = reps.irrep_table(d4)
    rep = reps.direct_sum(table.irreps[0], table.irreps[4], table.irreps[4])
    alg = algebra_from_generators(rep.matrices, rep.dim)
    c = commutant(alg)
    assert c.dim == 1 + 4  # multiplicities 1 and 2
