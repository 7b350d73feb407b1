import collections
import json
import os
import subprocess
import sys
import time
import tracemalloc

import kernel_reference
import numpy as np
import pytest
from test_galois import _CLI_IN_A_PROCESS

from ncgalois import algebras, crossed, groups, reporting, reps
from ncgalois.algebras import StarAlgebra, block_structure, center
from ncgalois.errors import NotInvariantAlgebra
from ncgalois.linalg import Subspace, frob


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
    assert center(cp.algebra).dim == 1
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


@pytest.mark.parametrize("doctor, message", [
    ("covariance_check", "covariance violated"),
    ("bicommutant_check", "failed its bicommutant test"),
])
def test_a_failed_self_test_is_a_hard_error(swap_action, monkeypatch, doctor, message):
    if doctor == "covariance_check":
        monkeypatch.setattr(crossed, "covariance_check", lambda cp: 1.0)
    else:
        monkeypatch.setattr(algebras, "bicommutant_check", lambda a, tol: False)
    with pytest.raises(NotInvariantAlgebra, match=message):
        crossed.crossed_product(StarAlgebra.diagonal(2), swap_action)


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
    assert center(cp.algebra).dim == 1


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


_CROSSED_FIXTURES = ("Z1-diag2", "Z2-scalars", "Z2-swap-ad", "Z2-swap-table",
                     "Z2-inner-M2", "S3-diag3", "crossed-s3-m3")


def _crossed_fixture(name, s3, crossed_s3_m3):
    z1, z2 = groups.cyclic_group(1), groups.cyclic_group(2)
    eye2, swap = np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)
    diag2, diag3 = StarAlgebra.diagonal(2), StarAlgebra.diagonal(3)
    if name == "Z1-diag2":
        return diag2, crossed.ad_action(z1, diag2, eye2[None])
    if name == "Z2-scalars":
        return StarAlgebra.scalars(1), crossed.ad_action(z2, StarAlgebra.scalars(1),
                                                         np.ones((2, 1, 1), dtype=complex))
    if name == "Z2-swap-ad":
        return diag2, crossed.ad_action(z2, diag2, np.array([eye2, swap]))
    if name == "Z2-swap-table":
        return diag2, crossed.table_action(z2, diag2, np.array([eye2, swap]))
    if name == "Z2-inner-M2":
        m2 = StarAlgebra.full(2)
        return m2, crossed.ad_action(z2, m2, np.array([eye2, np.diag([1.0, -1.0])]))
    if name == "S3-diag3":
        perm = reps.permutation_rep(s3, groups.symmetric_action(3))
        return diag3, crossed.ad_action(s3, diag3, perm.matrices)
    return crossed_s3_m3


@pytest.mark.parametrize("name", _CROSSED_FIXTURES)
def test_crossed_path_equals_the_generic_reference(name, s3, crossed_s3_m3, monkeypatch):
    # the canonical basis against the generated closure, each fixed algebra
    # against the n^2 kernel intersected with the crossed algebra, and each
    # pull-back pi(M^{alpha(H)}) against the intersection with the embedded base
    base, action = _crossed_fixture(name, s3, crossed_s3_m3)
    cp = crossed.crossed_product(base, action)
    generated = kernel_reference.generated_crossed_algebra(cp)
    assert cp.algebra.dim == generated.dim == base.dim * action.group.order
    assert cp.algebra.equals(generated)
    flat = cp.algebra.basis.reshape(cp.algebra.dim, -1)
    assert frob(flat.conj() @ flat.T - np.eye(cp.algebra.dim)) < 1e-12

    fixed_algebras = kernel_reference.record_fixed_algebras(monkeypatch)
    report, pullbacks = crossed.crossed_galois(cp)
    reference = kernel_reference.pullbacks_by_intersection(cp, fixed_algebras)
    maps = base.coordinates(action.images(base.basis))
    images = cp.base_images.reshape(base.dim, -1)
    for row in report.rows:
        members = row.subgroup.members
        fixed = fixed_algebras[members]
        by_kernel = kernel_reference.fixed_point_by_intersection(
            cp.algebra, cp.translation, row.subgroup)
        assert fixed.dim == by_kernel.dim and fixed.equals(by_kernel), members
        coords = algebras.fixed_coordinates(maps[list(row.subgroup.generators)])
        pulled = Subspace.from_span(coords.T @ images, cp.carrier_dim ** 2)
        assert pullbacks[members] == pulled.dim == reference[members].dim, members
        assert pulled.equals(reference[members]), members


def test_crossed_path_grows_no_closure_and_intersects_nothing(crossed_s3_m3, monkeypatch):
    # the canonical basis is closed by covariance and the fixed algebras and
    # pull-backs are coordinate nullspaces, so none of the generic paths runs
    calls = collections.Counter()

    def count(owner, name, wrap=lambda f: f):
        honest = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(
            lambda *args, **kwargs: calls.update([name]) or honest(*args, **kwargs)))

    count(algebras, "_require_closed")
    count(algebras, "algebra_from_generators")
    count(StarAlgebra, "from_span", staticmethod)
    count(Subspace, "intersect")
    cp = crossed.crossed_product(*crossed_s3_m3)
    report, pullbacks = crossed.crossed_galois(cp)
    assert [r.fixed_dim for r in report.rows] == [54, 28, 28, 28, 18, 10]
    assert pullbacks == {(0,): 9, (0, 1): 5, (0, 2): 5, (0, 5): 5, (0, 3, 4): 3,
                         (0, 1, 2, 3, 4, 5): 2}
    assert not report.violations
    assert calls == {}
    StarAlgebra.from_span([np.eye(2)], 2)   # the counters do see a boundary
    assert calls == {"from_span": 1, "_require_closed": 1}


def test_the_crossed_algebra_commutant_is_solved_once(crossed_s3_m3, monkeypatch):
    # the crossed command's bicommutant self-test and block_structure's center
    # share the commutant of the 54-element crossed algebra, kept on it
    sizes, honest = [], algebras._commutant
    monkeypatch.setattr(algebras, "_commutant",
                        lambda mats, tol: sizes.append(len(mats)) or honest(mats, tol))
    cp = crossed.crossed_product(*crossed_s3_m3)
    assert block_structure(cp.algebra, seed=0).blocks == ((3, 1), (3, 1), (6, 2))
    assert sizes.count(54) == 1


def _closed_form_counts(cp, subgroups) -> list:
    """dim (B x| G)^H = (1/|H|) sum_h |C_G(h)| tr(alpha_h on B) per subgroup H:
    Ad U_h sends P_j U_g to pi(alpha_h(P_j)) U_{hgh^-1}, so only the |C_G(h)|
    slots g that h fixes by conjugation add to its trace.  The traces come
    from the base's k x k maps, as ``crossed_galois`` forms them."""
    group = cp.group
    maps = cp.base.coordinates(cp.action.images(cp.base.basis))
    traces = np.trace(maps, axis1=1, axis2=2).real
    centralizers = np.sum(groups.conjugation_table(group) == np.arange(group.order), axis=0)
    return [sum(centralizers[h] * traces[h] for h in sub.members) / sub.order
            for sub in subgroups]


def _trace_counts(cp, subgroups, seed=()) -> list:
    """``algebras._character_count`` of the crossed algebra's Ad character per subgroup."""
    chi = algebras._ad_character(cp.algebra, cp.translation, seed)
    return [algebras._character_count(chi, sub) for sub in subgroups]


_S4_M4_DIMS = [384, 200, 200, 200, 200, 192, 200, 192, 200, 192, 130, 130, 130, 130, 104, 104,
               104, 96, 96, 96, 96, 73, 73, 73, 73, 52, 52, 52, 34, 21]


def test_the_trace_count_is_the_closed_form_of_the_base_maps(crossed_s3_m3):
    # the count galois reads off tr(Ad U_h on M), one element at a time,
    # against the count from the base's own maps, on the benchmark input
    cp = crossed.crossed_product(*crossed_s3_m3)
    subs = groups.enumerate_subgroups(cp.group)
    counts = _trace_counts(cp, subs, cp.group.generators)
    assert np.allclose(counts, _closed_form_counts(cp, subs), rtol=0.0, atol=1e-9)
    assert [round(c) for c in counts] == [54, 28, 28, 28, 18, 10]
    assert [r.fixed_dim for r in crossed.crossed_galois(cp)[0].rows] == [54, 28, 28, 28, 18, 10]


@pytest.mark.parametrize("name, n", [("Z2", 2), ("S3", 3), ("S4", 4)])
def test_full_base_under_ad_gives_the_packer_raeburn_blocks(name, n, fixture_groups):
    # M_n x|_Ad G is M_n (x) C[G] (Packer and Raeburn, 1989): one block
    # (n d, d) for each irrep of dimension d; S4 on M4 has dimension 384, and
    # on it the trace count of every subgroup is the closed form of the base
    # maps (about 1 s, the invariance check left to the lattice tests)
    g = fixture_groups[name]
    if name == "Z2":
        unitaries = np.array([np.eye(2), [[0, 1], [1, 0]]], dtype=complex)
    else:
        unitaries = reps.permutation_rep(g, groups.symmetric_action(n)).matrices
    expected = sorted((n * r.dim, r.dim) for r in reps.irrep_table(g).irreps)
    base = StarAlgebra.full(n)
    tracemalloc.start()
    try:
        cp = crossed.crossed_product(base, crossed.ad_action(g, base, unitaries))
        blocks = block_structure(cp.algebra, seed=0).blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.algebra.dim == n * n * g.order
    assert list(blocks) == expected
    assert peak <= 400 * 2 ** 20
    if name == "S4":
        subs = groups.enumerate_subgroups(g)
        counts = _trace_counts(cp, subs)
        assert np.allclose(counts, _closed_form_counts(cp, subs), rtol=0.0, atol=1e-9)
        assert [round(c) for c in counts] == _S4_M4_DIMS


@pytest.mark.slow
def test_crossed_s4_m4_through_the_cli(tmp_path):
    # M4 under S4's permutation unitaries (carrier 96, dimension 384):
    # `crossed` in its own process, the 30 rows at their reference dims
    # with no violation, in under 60 s and 0.5 GB max RSS (about 22 s and
    # 0.39 GB at one BLAS thread on a 2-core host)
    s4 = groups.symmetric_group(4)
    perm = reps.permutation_rep(s4, groups.symmetric_action(4))
    (tmp_path / "spec.json").write_text(json.dumps({
        "group": reporting.group_to_json(s4), "base": {"kind": "full", "dim": 4},
        "action": {"kind": "ad",
                   "unitaries": [reporting.matrix_to_json(u) for u in perm.matrices]},
        "seed": 0}))
    src = os.path.dirname(os.path.dirname(crossed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CLI_IN_A_PROCESS, "crossed",
                           str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert seconds < 60.0
    assert int(proc.stderr.split()[-1]) < 0.5e9 / 1024          # KiB
    out = json.loads((tmp_path / "out.json").read_text())
    rows = out["report"]["galois_rows"]
    assert out["violations"] == [] and all(r["bicommutant_ok"] for r in rows)
    assert [r["fixed_dim"] for r in rows] == _S4_M4_DIMS
