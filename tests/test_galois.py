import collections
import json
import tracemalloc

import kernel_reference
import numpy as np
import pytest

from ncgalois import algebras, cli, crossed, galois, groups, reporting, reps
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import ClosureFailed, NotInvariantAlgebra
from ncgalois.linalg import DEFAULT_TOL


@pytest.fixture(scope="module")
def z2_sign_action():
    z2 = groups.cyclic_group(2)
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), np.diag([1.0, -1.0])]))
    return z2, rep


def test_galois_z2_on_m2(z2_sign_action):
    z2, rep = z2_sign_action
    report = galois.galois_map(StarAlgebra.full(2), rep, z2)
    assert report.mode == "inner"
    assert report.proper
    dims = {r.subgroup.members: r.fixed_dim for r in report.rows}
    assert dims == {(0,): 4, (0, 1): 2}
    assert report.injective
    assert not report.violations
    assert all(r.bicommutant_ok for r in report.rows)


def test_galois_s3_regular_injective(s3, monkeypatch):
    reg = reps.regular_rep(s3)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    report = galois.galois_map(StarAlgebra.full(6), reg, s3)
    assert report.proper
    assert len(report.rows) == 6
    assert report.injective
    assert not report.violations
    # dims |G|^2 / |H| for the regular action
    for row in report.rows:
        assert row.fixed_dim == 36 // row.subgroup.order
    # fixed algebras pairwise distinct as subspaces, not just by id
    algs = list(fixed.values())
    for i in range(len(algs)):
        for j in range(i + 1, len(algs)):
            assert not algs[i].equals(algs[j])


def test_galois_s3_permutation_not_proper(s3):
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    report = galois.galois_map(StarAlgebra.full(3), perm, s3)
    assert not report.proper
    assert len(report.missing) == 1     # the sign representation is invisible
    assert report.collision_candidates == []
    assert not report.violations
    dims = sorted(r.fixed_dim for r in report.rows)
    assert dims == [2, 3, 5, 5, 5, 9]


def test_anti_monotonicity_top_bottom(s3, monkeypatch):
    reg = reps.regular_rep(s3)
    m = StarAlgebra.full(6)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    report = galois.galois_map(m, reg, s3)
    subs = groups.enumerate_subgroups(s3)
    whole = fixed[tuple(range(6))]
    trivial = fixed[(s3.identity,)]
    assert trivial.equals(m)
    for s in subs:
        assert fixed[s.members].contains_algebra(whole)
        assert m.contains_algebra(fixed[s.members])
    assert report.anti_monotone_pairs > 0


def _anti_monotone(report) -> list:
    return [v[1] for v in report.violations if v[0] == "anti-monotone"]


def test_anti_monotone_audit_matches_the_projection_reference(fixture_groups, s3,
                                                              monkeypatch):
    # generator audit against the projection audit on every fixture's regular
    # lattice and on S3 acting on M3 (crossed); neither flags a pair
    cases = []
    for g in fixture_groups.values():
        with monkeypatch.context() as patch:
            fixed = kernel_reference.record_fixed_algebras(patch)
            report = galois.galois_map(StarAlgebra.full(g.order), reps.regular_rep(g), g)
        cases.append((report, fixed, groups.enumerate_subgroups(g)))
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    cp = crossed.crossed_product(StarAlgebra.full(3),
                                 crossed.ad_action(s3, StarAlgebra.full(3), perm.matrices))
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    cases.append((crossed.crossed_galois(cp)[0], fixed, groups.enumerate_subgroups(s3)))
    for report, fixed, subs in cases:
        assert report.anti_monotone_pairs > 0
        assert _anti_monotone(report) == kernel_reference.anti_monotone_by_projection(
            fixed, subs) == []


def test_anti_monotone_violation_is_recorded_with_its_commutator_residual(s3, monkeypatch):
    # negative control: M^{S3} replaced by the full algebra lies in no M^{H1}
    # of a nontrivial H1 < S3; the audit records each pair and does not raise
    top = tuple(range(6))
    honest = algebras.fixed_point_algebra

    def patched(m, rep, sub, tol=DEFAULT_TOL):
        return StarAlgebra.full(6) if sub.members == top else honest(m, rep, sub, tol)

    monkeypatch.setattr(algebras, "fixed_point_algebra", patched)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    subs = groups.enumerate_subgroups(s3)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), s3)
    flagged = [v for v in report.violations if v[0] == "anti-monotone"]
    assert [v[1] for v in flagged] == [(s.members, top) for s in subs[1:-1]]
    assert _anti_monotone(report) == kernel_reference.anti_monotone_by_projection(
        fixed, subs)
    assert all(v[2] > 1e-9 for v in flagged)


def test_several_anti_monotone_violations_come_in_the_h1_outer_order(d4, monkeypatch):
    # negative control: the fixed algebras of D4's three (normal) order-4
    # subgroups replaced by the full algebra fail against every nontrivial
    # H1 below them; the streamed audit lists the pairs, their order and
    # residuals as the loop over H1 then H2 does.  No patched subgroup lies
    # below another, so the projection reference reads honest M^{H1}
    m, rep = StarAlgebra.full(8), reps.regular_rep(d4)
    honest = algebras.fixed_point_algebra

    def patched(m, rep, sub, tol=DEFAULT_TOL):
        return m if sub.order == 4 else honest(m, rep, sub, tol)

    monkeypatch.setattr(algebras, "fixed_point_algebra", patched)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    subs = groups.enumerate_subgroups(d4)
    report = galois.galois_map(m, rep, d4)
    streamed = [(v[1], v[2]) for v in report.violations if v[0] == "anti-monotone"]
    assert streamed == kernel_reference.anti_monotone_by_generators(rep, fixed, subs)
    pairs = [pair for pair, _ in streamed]
    assert pairs == kernel_reference.anti_monotone_by_projection(fixed, subs)
    assert len(pairs) == 7 and len({top for _, top in pairs}) == 3
    assert all(res > galois._RESIDUAL_BOUND for _, res in streamed)
    # the center lies below all three, so H2 outer would give another order
    position = {s.members: i for i, s in enumerate(subs)}
    assert pairs != sorted(pairs, key=lambda p: (position[p[1]], position[p[0]]))


def test_galois_map_runs_no_closure_check(s3, monkeypatch):
    # fixed points and (bi)commutants are certified by their commutator
    # residuals, the character count and the bicommutant residual
    calls = []
    honest = algebras._require_closed
    monkeypatch.setattr(algebras, "_require_closed",
                        lambda a: calls.append(a.dim) or honest(a))
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), s3)
    assert report.injective and not report.violations
    assert calls == []
    StarAlgebra.from_span([np.eye(6)], 6)   # the counter does see a boundary
    assert calls == [1]


def test_subgroup_equivalence_full_sigma(fixture_groups):
    # with every irrep retained, fixture subgroups fall into singleton classes
    for name in ("Z2", "Z4", "Z6", "S3", "D4", "Q8"):
        g = fixture_groups[name]
        subs = groups.enumerate_subgroups(g)
        eq = galois.subgroup_equivalence(g, subs)
        assert all(len(c) == 1 for c in eq.classes), name


def test_subgroup_equivalence_trivial_only(s3):
    subs = groups.enumerate_subgroups(s3)
    table = reps.irrep_table(s3)
    trivial_index = next(
        i for i, chi in enumerate(table.characters)
        if np.allclose(chi, np.ones(6))
    )
    eq = galois.subgroup_equivalence(s3, subs, [trivial_index])
    assert len(eq.classes) == 1         # every span is the scalar line


def test_subgroup_equivalence_classes_follow_first_appearance(s3):
    # through the trivial and sign irreps, S3's subgroups split by
    # whether they contain an odd permutation; order is first appearance
    subs = groups.enumerate_subgroups(s3)
    table = reps.irrep_table(s3)
    one_dim = [i for i, d in enumerate(table.dims) if d == 1]
    eq = galois.subgroup_equivalence(s3, subs, one_dim)
    odd = [any(s3.element_order(a) == 2 for a in h.members) for h in subs]
    expected: dict = {}
    for j, flag in enumerate(odd):
        expected.setdefault(flag, []).append(j)
    assert eq.classes == tuple(tuple(c) for c in expected.values())
    assert len(eq.classes) == 2
    assert galois.subgroup_equivalence(s3, [], one_dim).classes == ()


def test_conjugate_subgroups_inequivalent(s3):
    subs = [s for s in groups.enumerate_subgroups(s3) if s.order == 2]
    eq = galois.subgroup_equivalence(s3, subs)
    assert all(len(c) == 1 for c in eq.classes)


def test_minimal_action_cases(s3):
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    flag, witness = galois.is_minimal_action(StarAlgebra.full(3), perm, s3)
    assert not flag and witness == 5    # commutant of span{1, ones} is M1 + M2

    # trivial group: relative commutant of M in M is all of M
    z1 = groups.cyclic_group(1)
    triv = reps.trivial_rep(z1, dim=2)
    diag = StarAlgebra.diagonal(2)
    flag, witness = galois.is_minimal_action(diag, triv, z1)
    assert not flag and witness == 2

    # inner actions with scalar fixed algebra are never minimal on M_n, n>1:
    # pauli conjugations on M2 fix only scalars, whose relative commutant is M2.
    # the paulis form a projective (not linear) representation of the klein
    # group; conjugation is still an honest action, so skip the linear check
    z2z2 = groups.klein_four_group()
    paulis = np.array([
        np.eye(2),
        [[0, 1], [1, 0]],
        [[1, 0], [0, -1]],
        [[0, 1], [-1, 0]],
    ], dtype=complex)
    rep = reps.UnitaryRep(z2z2, paulis, check=False)
    for a in range(4):
        for b in range(4):
            lhs = paulis[a] @ paulis[b] @ paulis[z2z2.op(a, b)].conj().T
            assert abs(abs(np.trace(lhs)) - 2.0) < 1e-12  # equal up to phase
    fixed = algebras.fixed_point_algebra(
        StarAlgebra.full(2), rep, groups.Subgroup(z2z2, (0, 1, 2, 3))
    )
    assert fixed.dim == 1
    flag, witness = galois.is_minimal_action(StarAlgebra.full(2), rep, z2z2)
    assert not flag and witness == 4


def test_spatial_mode_uses_plain_commutant(s3):
    # permutation unitaries viewed as acting on M3 but compared spatially
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    report = galois.galois_map(StarAlgebra.full(3), perm, s3, mode="spatial")
    assert report.mode == "spatial"
    assert all(r.bicommutant_ok for r in report.rows)


def test_mode_detection_spatial():
    # action unitaries that are NOT inside the (diagonal) algebra
    z2 = groups.cyclic_group(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), swap]))
    report = galois.galois_map(StarAlgebra.diagonal(2), rep, z2)
    assert report.mode == "spatial"
    dims = {r.subgroup.members: r.fixed_dim for r in report.rows}
    assert dims == {(0,): 2, (0, 1): 1}


def _rotated_regular(group):
    """The regular representation conjugated by a unitary drawn at seed 41."""
    reg = reps.regular_rep(group)
    rng = np.random.default_rng(41)
    q, r = np.linalg.qr(rng.standard_normal((group.order,) * 2)
                        + 1j * rng.standard_normal((group.order,) * 2))
    w = q * (np.diag(r) / np.abs(np.diag(r)))
    return reps.UnitaryRep(group, w @ reg.matrices @ w.conj().T)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_galois_verdicts_survive_a_unitary_change_of_basis(name):
    # metamorphic: conjugating the regular representation by a seeded
    # random unitary must change no dimension, class or verdict
    group = groups.FIXTURE_GROUPS[name]()
    reg = reps.regular_rep(group)
    turned = _rotated_regular(group)

    m = StarAlgebra.full(group.order)
    plain = galois.galois_map(m, reg, group)
    rotated = galois.galois_map(m, turned, group)
    assert not plain.violations and not rotated.violations
    assert [r.fixed_dim for r in rotated.rows] == [r.fixed_dim for r in plain.rows]
    assert rotated.equivalence_classes == plain.equivalence_classes
    assert (rotated.proper, rotated.injective) == (plain.proper, plain.injective)



def test_interning_joins_equal_algebras_across_a_rounding_boundary():
    # A = span{e, 1 - e}, e the projection onto (cos theta, sin theta); its
    # projector entry P[0, 0] = cos^4 + sin^4 = 1 - sin^2(2 theta) / 2 is put
    # just above 0.7500005.  B is A conjugated by exp(i eps H), H = -sigma_y,
    # the rotation by eps = 1e-11, which lowers that entry just below it.
    target = 0.7500005 + 4e-12
    theta = np.arcsin(np.sqrt(2.0 * (1.0 - target))) / 2.0
    v = np.array([np.cos(theta), np.sin(theta)])
    e = np.outer(v, v)
    a = StarAlgebra.from_span([e, np.eye(2) - e], 2)
    eps = 1e-11
    u = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    b = StarAlgebra.from_span(u @ a.basis @ u.conj().T, 2)
    pa, pb = a.subspace().projector(), b.subspace().projector()
    assert np.round(pa, 6)[0, 0] != np.round(pb, 6)[0, 0]
    assert a.equals(b)

    spaces = [x.subspace() for x in (a, b, StarAlgebra.diagonal(2), b)]
    interner = galois._Interner(4)
    ids = [interner.id_of(space, k, lambda key: space.contains(spaces[key]))
           for k, space in enumerate(spaces)]
    assert ids == [0, 0, 1, 0]


def test_galois_map_holds_no_fixed_basis(s4):
    # the S4 regular lattice's fixed bases are 5,616 matrices of 24 x 24 (52 MB);
    # streamed rows keep the traced peak near one class and the report small
    m, rep = StarAlgebra.full(24), reps.regular_rep(s4)
    galois.galois_map(m, rep, s4)     # warm-up: the irrep table memo
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = galois.galois_map(m, rep, s4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 30 and report.injective and not report.violations
    assert peak <= 32 * 2 ** 20
    assert held - before < 2 ** 20


# ---------------------------------------------------------------------------
# one kernel per conjugacy class: transported rows against the direct path

_DIRECT_CASES = ([f"regular-{name}" for name in groups.FIXTURE_GROUPS]
                 + ["permutation-S4"] + [f"rotated-{name}" for name in ("S3", "D4", "Q8", "A4")]
                 + ["crossed-S3-M3"])
# improper lattices where fixed algebras coincide: S3 on its points has no two
# equal ones, S4 on its points gives A4 and S4 the same span{1, J}, and S3
# through the trivial and sign characters has two algebras for six rows
_IMPROPER_CASES = ["permutation-S3", "permutation-S4", "sign-S3"]


def _galois_case(name):
    """A thunk that runs the case's lattice and returns its GaloisReport."""
    kind, _, group_name = name.partition("-")
    if kind == "crossed":
        s3 = groups.symmetric_group(3)
        perm = reps.permutation_rep(s3, groups.symmetric_action(3))
        cp = crossed.crossed_product(StarAlgebra.full(3),
                                     crossed.ad_action(s3, StarAlgebra.full(3), perm.matrices))
        return lambda: crossed.crossed_galois(cp)[0]
    group = groups.FIXTURE_GROUPS[group_name]()
    if kind == "regular":
        rep = reps.regular_rep(group)
    elif kind == "rotated":
        rep = _rotated_regular(group)
    else:   # on its points, or through trivial and sign: improper
        rep = reps.permutation_rep(group, groups.symmetric_action(int(group_name[1])))
        if kind == "sign":
            signs = np.linalg.det(rep.matrices).real
            rep = reps.UnitaryRep(group, np.array([np.diag([1.0, s]) for s in signs]))
    return lambda: galois.galois_map(StarAlgebra.full(rep.dim), rep, group)


@pytest.mark.parametrize("name", _DIRECT_CASES)
def test_transported_rows_equal_the_direct_path(name, monkeypatch):
    # every field but the transported rows' residuals agrees with a run that
    # solves a fixed-point kernel and a bicommutant test on every row, and
    # every transported fixed algebra equals the directly computed one
    run = _galois_case(name)
    with monkeypatch.context() as patch:
        fast_fixed = kernel_reference.record_fixed_algebras(patch)
        fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_fill_rows", kernel_reference.every_row)
        direct_fixed = kernel_reference.record_fixed_algebras(patch)
        direct = run()

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok)
                for r in report.rows]
        return (rows, report.equivalence_classes, report.collision_candidates,
                report.anti_monotone_pairs, report.injective, report.proper,
                [v[:2] for v in report.violations])

    assert verdicts(fast) == verdicts(direct)
    assert fast_fixed.keys() == direct_fixed.keys()
    for members, fixed in direct_fixed.items():
        assert fast_fixed[members].equals(fixed), members
    if name == "permutation-S4":
        assert not fast.proper and not fast.injective
    classes = groups.subgroup_classes(fast.group, [r.subgroup for r in fast.rows])
    transported = sum(r != j for j, (r, _) in enumerate(classes))
    assert transported == {"S3": 2, "D4": 2, "A4": 5, "S4": 19}.get(name.split("-")[1], 0)


@pytest.mark.parametrize("name", list(dict.fromkeys(_DIRECT_CASES + _IMPROPER_CASES)))
def test_the_containment_confirmation_alone_interns_exactly(name, monkeypatch):
    # with the fingerprint filter open, every earlier id of equal dimension
    # reaches the containment test; the ids, classes and collision candidates
    # are those of the interner that stores every space and compares by
    # Subspace.equals, and one fixed-point kernel runs per conjugacy class
    run = _galois_case(name)

    def interned(report):
        return ([r.fixed_id for r in report.rows], report.equivalence_classes,
                report.collision_candidates, report.injective)

    kernels = []
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_FINGERPRINT_MATCH", np.inf)
        honest = algebras.fixed_point_algebra
        patch.setattr(algebras, "fixed_point_algebra",
                      lambda *a, **k: kernels.append(a[2]) or honest(*a, **k))
        confirmed = run()
    monkeypatch.setattr(galois, "_Interner", kernel_reference.StoringInterner)
    assert interned(confirmed) == interned(run())
    classes = groups.subgroup_classes(confirmed.group, [r.subgroup for r in confirmed.rows])
    per_class = sum(r == j for j, (r, _) in enumerate(classes))
    assert len(kernels) == per_class == {"sign-S3": 4, "permutation-S4": 11}.get(name, per_class)
    if name in _IMPROPER_CASES:
        assert not confirmed.proper and not confirmed.violations


@pytest.mark.parametrize("name", ["S3", "D4", "S4"])
def test_seeded_noise_of_norm_1e_12_changes_no_verdict(name):
    # each regular matrix moved by a seeded perturbation of Frobenius norm
    # 1e-12, well inside UnitaryRep's validation, must change no dimension,
    # id, class, verdict, violation kind or pair count
    group = groups.FIXTURE_GROUPS[name]()
    reg = reps.regular_rep(group)
    rng = np.random.default_rng(12)
    noise = rng.standard_normal(reg.matrices.shape) + 1j * rng.standard_normal(reg.matrices.shape)
    noise *= 1e-12 / np.linalg.norm(noise, axis=(1, 2), keepdims=True)
    noisy = reps.UnitaryRep(group, reg.matrices + noise)

    def verdicts(report):
        rows = [(r.fixed_dim, r.fixed_id, r.bicommutant_ok) for r in report.rows]
        return (rows, report.equivalence_classes, report.collision_candidates,
                report.injective, report.proper, [v[0] for v in report.violations],
                report.anti_monotone_pairs)

    m = StarAlgebra.full(group.order)
    assert verdicts(galois.galois_map(m, noisy, group)) == verdicts(
        galois.galois_map(m, reg, group))


def test_one_kernel_and_two_relative_commutants_per_class_on_s4(s4, monkeypatch):
    # S4's 30 subgroups fall into 11 conjugacy classes
    def counted():
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            for fn in ("fixed_point_algebra", "relative_commutant"):
                honest = getattr(algebras, fn)
                patch.setattr(algebras, fn, lambda *a, _f=honest, _n=fn, **k:
                              calls.update([_n]) or _f(*a, **k))
            report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4), s4)
        assert len(report.rows) == 30 and not report.violations
        return calls

    assert counted() == {"fixed_point_algebra": 11, "relative_commutant": 22}
    monkeypatch.setattr(galois, "_fill_rows", kernel_reference.every_row)
    assert counted() == {"fixed_point_algebra": 30, "relative_commutant": 60}


def test_no_null_gram_is_diagonalized_on_s4(s4, monkeypatch):
    # the abelian classes' commutants and second commutants have null reduced
    # grams, which once cost eigensolves of sizes up to 576 = 24^2
    sizes = []
    honest = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args: sizes.append(a.shape[0]) or honest(a, *args))
    report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4), s4)
    assert report.injective and not report.violations
    assert max(sizes) <= 160


@pytest.mark.slow
def test_the_order_48_regular_lattice(s4_times_z2):
    # S4 x Z2 on 48 points: about half a minute and 0.55 GB at one BLAS
    # thread; the streamed rows keep the traced peak under 1 GB, where the
    # stored bases alone once took 1.95 GiB
    rep = reps.regular_rep(s4_times_z2)
    tracemalloc.start()
    try:
        report = galois.galois_map(StarAlgebra.full(48), rep, s4_times_z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 30
    subgroups = [r.subgroup for r in report.rows]
    assert len(report.rows) == 98
    assert len({r for r, _ in groups.subgroup_classes(s4_times_z2, subgroups)}) == 33
    assert report.violations == [] and report.injective and report.proper
    assert report.anti_monotone_pairs == 727
    assert all(r.bicommutant_ok for r in report.rows)
    assert max(r.bicommutant_residual for r in report.rows) <= galois._RESIDUAL_BOUND


def _with_identity_for_the_first_transported_row(group, subgroups):
    classes = groups.subgroup_classes(group, subgroups)
    j = next(j for j, (r, _) in enumerate(classes) if r != j)
    classes[j] = (classes[j][0], group.identity)
    return classes


def test_a_transported_row_with_the_wrong_element_raises_and_is_not_written(
        s3, monkeypatch, tmp_path):
    # negative control: carried by the identity, the fixed algebra of the
    # first order-2 subgroup does not commute with the generator of the
    # second, its conjugate
    monkeypatch.setattr(galois, "subgroup_classes",
                        _with_identity_for_the_first_transported_row)
    made = []

    class Recorded(galois.GaloisReport):
        def __init__(self, **fields):
            super().__init__(**fields)
            made.append(self)

    monkeypatch.setattr(galois, "GaloisReport", Recorded)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    subs = groups.enumerate_subgroups(s3)
    with pytest.raises(ClosureFailed, match="fails to commute"):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), s3)
    # rows before the bad one were written, the bad one and later ones were not
    assert [r.subgroup.members for r in made[0].rows] == [s.members for s in subs[:2]]
    assert list(fixed) == [s.members for s in subs[:2]]

    # through the CLI: a numerical failure, and no report file
    (tmp_path / "reg.json").write_text(json.dumps(reporting.rep_to_json(reps.regular_rep(s3))))
    (tmp_path / "spec.json").write_text(json.dumps({"representation": "reg.json"}))
    out = tmp_path / "report.json"
    assert cli.main(["galois", str(tmp_path / "spec.json"), "--out", str(out)]) == 2
    assert not out.exists()


def test_a_failing_representative_fails_each_transported_row(s3, monkeypatch):
    # negative control: the bicommutant test of the representative of S3's
    # three order-2 subgroups fails; each of the three rows records its own
    # violation with its own members, and the run completes
    honest = galois._bicommutant
    calls = []

    def failing(fixed, m, mode, tol):
        calls.append(fixed.dim)
        return (False, 0.5) if fixed.dim == 18 else honest(fixed, m, mode, tol)

    monkeypatch.setattr(galois, "_bicommutant", failing)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), s3)
    order_two = [r.subgroup.members for r in report.rows if r.subgroup.order == 2]
    assert calls == [36, 18, 12, 6]
    assert report.violations == [("bicommutant", members, 0.5) for members in order_two]
    assert [(r.bicommutant_ok, r.bicommutant_residual) for r in report.rows
            if r.subgroup.order == 2] == [(False, 0.5)] * 3
    assert all(r.bicommutant_ok for r in report.rows if r.subgroup.order != 2)


def test_transport_into_a_non_invariant_algebra_is_refused(s3):
    # M = M2 + C on the points {0, 1} | {2} is invariant under the swap of 0
    # and 1 but not under the elements that carry it to the swap of 1 and 2,
    # so M^{<(12)>} is not U_g M^{<(01)>} U_g*; the transport refuses it
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    e = np.eye(3)
    m = StarAlgebra.from_span([np.outer(e[a], e[b]) for a in (0, 1) for b in (0, 1)]
                              + [np.outer(e[2], e[2])], 3)
    swap01, swap12 = groups.Subgroup(s3, (0, 2)), groups.Subgroup(s3, (0, 1))
    assert [r for r, _ in groups.subgroup_classes(s3, [swap01, swap12])] == [0, 0]
    alone = galois.galois_map(m, perm, s3, subgroups=[swap01])
    assert [r.fixed_dim for r in alone.rows] == [3]
    with pytest.raises(NotInvariantAlgebra, match="conjugation by element"):
        galois.galois_map(m, perm, s3, subgroups=[swap01, swap12])
