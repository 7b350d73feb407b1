import collections
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import kernel_reference
import numpy as np
import pytest

from ncgalois import algebras, cli, crossed, galois, groups, linalg, ncprob, reporting, reps
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import ClosureFailed, DecompositionFailed, NotInvariantAlgebra
from ncgalois.linalg import DEFAULT_TOL


@pytest.fixture(scope="module")
def z2_sign_action():
    z2 = groups.cyclic_group(2)
    return reps.UnitaryRep(z2, np.array([np.eye(2), np.diag([1.0, -1.0])]))


def test_galois_z2_on_m2(z2_sign_action):
    report = galois.galois_map(StarAlgebra.full(2), z2_sign_action)
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
    report = galois.galois_map(StarAlgebra.full(6), reg)
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
    report = galois.galois_map(StarAlgebra.full(3), perm)
    assert not report.proper
    assert len(report.missing) == 1     # the sign representation is invisible
    assert report.collision_candidates == []
    assert not report.violations
    dims = sorted(r.fixed_dim for r in report.rows)
    assert dims == [2, 3, 5, 5, 5, 9]


def test_a_class_with_two_fixed_ids_is_recorded_once(s3, monkeypatch):
    # negative control: a doctored partition merges the singleton classes of
    # the trivial subgroup and an order-2 subgroup, whose fixed algebras differ
    honest = galois.subgroup_equivalence

    def merged(group, subgroups, irrep_indices, tol=DEFAULT_TOL):
        classes = honest(group, subgroups, irrep_indices, tol)
        return ((*classes[0], *classes[1]), *classes[2:])

    monkeypatch.setattr(galois, "subgroup_equivalence", merged)
    subs = groups.enumerate_subgroups(s3)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
    assert report.rows[0].fixed_id != report.rows[1].fixed_id
    assert report.violations == [("class-not-constant", (subs[0].members, subs[1].members), None)]


def test_an_unknown_mode_is_a_value_error(s3):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), mode="bogus")


def test_anti_monotonicity_top_bottom(s3, monkeypatch):
    reg = reps.regular_rep(s3)
    m = StarAlgebra.full(6)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    report = galois.galois_map(m, reg)
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
            report = galois.galois_map(StarAlgebra.full(g.order), reps.regular_rep(g))
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

    def patched(m, rep, sub, tol=DEFAULT_TOL, residuals=None):
        return StarAlgebra.full(6) if sub.members == top else honest(m, rep, sub, tol, residuals)

    monkeypatch.setattr(algebras, "fixed_point_algebra", patched)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    subs = groups.enumerate_subgroups(s3)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
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

    def patched(m, rep, sub, tol=DEFAULT_TOL, residuals=None):
        return m if sub.order == 4 else honest(m, rep, sub, tol, residuals)

    monkeypatch.setattr(algebras, "fixed_point_algebra", patched)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    subs = groups.enumerate_subgroups(d4)
    report = galois.galois_map(m, rep)
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
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
    assert report.injective and not report.violations
    assert calls == []
    StarAlgebra.from_span([np.eye(6)], 6)   # the counter does see a boundary
    assert calls == [1]


def test_subgroup_equivalence_full_sigma(fixture_groups):
    # with every irrep retained, fixture subgroups fall into singleton classes
    for name, g in fixture_groups.items():
        subs = groups.enumerate_subgroups(g)
        every = range(len(reps.irrep_table(g).irreps))
        classes = galois.subgroup_equivalence(g, subs, every)
        assert all(len(c) == 1 for c in classes), name


def test_subgroup_equivalence_trivial_only(s3):
    subs = groups.enumerate_subgroups(s3)
    table = reps.irrep_table(s3)
    trivial_index = next(
        i for i, chi in enumerate(table.characters)
        if np.allclose(chi, np.ones(6))
    )
    classes = galois.subgroup_equivalence(s3, subs, [trivial_index])
    assert len(classes) == 1            # every span is the scalar line


def test_subgroup_equivalence_classes_follow_first_appearance(s3):
    # through the trivial and sign irreps, S3's subgroups split by
    # whether they contain an odd permutation; order is first appearance
    subs = groups.enumerate_subgroups(s3)
    table = reps.irrep_table(s3)
    one_dim = [i for i, d in enumerate(table.dims) if d == 1]
    classes = galois.subgroup_equivalence(s3, subs, one_dim)
    odd = [any(s3.element_order(a) == 2 for a in h.members) for h in subs]
    expected: dict = {}
    for j, flag in enumerate(odd):
        expected.setdefault(flag, []).append(j)
    assert classes == tuple(tuple(c) for c in expected.values())
    assert len(classes) == 2
    assert galois.subgroup_equivalence(s3, [], one_dim) == ()


def test_conjugate_subgroups_inequivalent(s3):
    subs = [s for s in groups.enumerate_subgroups(s3) if s.order == 2]
    classes = galois.subgroup_equivalence(s3, subs, range(len(reps.irrep_table(s3).irreps)))
    assert all(len(c) == 1 for c in classes)


def test_minimal_action_cases(s3):
    # the witness dim (M^G)' cap M is the first commutant of the top row
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    report = galois.galois_map(StarAlgebra.full(3), perm)
    assert report.rows[-1].subgroup.order == 6
    # commutant of span{1, ones} is M1 + M2
    assert galois.is_minimal_action(report) == (False, 5)
    # a report without G's row last has no witness
    lower = [r.subgroup for r in report.rows if r.subgroup.order < 6]
    below = galois.galois_map(StarAlgebra.full(3), perm, subgroups=lower)
    with pytest.raises(ValueError, match="whole group"):
        galois.is_minimal_action(below)

    # trivial group: relative commutant of M in M is all of M
    z1 = groups.cyclic_group(1)
    triv = kernel_reference.trivial_rep(z1, dim=2)
    diag = StarAlgebra.diagonal(2)
    report = galois.galois_map(diag, triv, mode="inner")
    assert galois.is_minimal_action(report) == (False, 2)

    # inner actions with scalar fixed algebra are never minimal on M_n, n>1:
    # pauli conjugations on M2 fix only scalars, whose relative commutant is M2.
    # the paulis form a projective (not linear) representation of the klein
    # group; conjugation is still an honest action, so skip the linear check
    z2z2 = kernel_reference.klein_four_group()
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
    assert algebras.relative_commutant(fixed, StarAlgebra.full(2)).dim == 4


def test_spatial_mode_uses_plain_commutant(s3):
    # permutation unitaries viewed as acting on M3 but compared spatially
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    report = galois.galois_map(StarAlgebra.full(3), perm, mode="spatial")
    assert report.mode == "spatial"
    assert all(r.bicommutant_ok for r in report.rows)


def test_mode_detection_spatial():
    # action unitaries that are NOT inside the (diagonal) algebra
    z2 = groups.cyclic_group(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), swap]))
    report = galois.galois_map(StarAlgebra.diagonal(2), rep)
    assert report.mode == "spatial"
    dims = {r.subgroup.members: r.fixed_dim for r in report.rows}
    assert dims == {(0,): 2, (0, 1): 1}


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_galois_verdicts_survive_a_unitary_change_of_basis(name):
    # metamorphic: conjugating the regular representation by a seeded
    # random unitary must change no dimension, class or verdict
    group = groups.FIXTURE_GROUPS[name]()
    reg = reps.regular_rep(group)
    turned = kernel_reference.rotated(reg)

    m = StarAlgebra.full(group.order)
    plain = galois.galois_map(m, reg)
    rotated = galois.galois_map(m, turned)
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
    pa, pb = (x.basis @ x.basis.conj().T for x in (a.subspace(), b.subspace()))
    assert np.round(pa, 6)[0, 0] != np.round(pb, 6)[0, 0]
    assert a.equals(b)

    spaces = [x.subspace() for x in (a, b, StarAlgebra.diagonal(2), b)]
    interner = galois._Interner(4)
    ids = [interner.id_of(space.project(interner.probe), space.dim, k,
                          lambda key: space.contains(spaces[key]))
           for k, space in enumerate(spaces)]
    assert ids == [0, 0, 1, 0]


def test_galois_map_holds_no_fixed_basis(s4):
    # the S4 regular lattice's fixed bases are 5,616 matrices of 24 x 24 (52 MB);
    # streamed rows keep the traced peak near one class and the report small
    m, rep = StarAlgebra.full(24), reps.regular_rep(s4)
    galois.galois_map(m, rep)     # warm-up: the irrep table memo
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = galois.galois_map(m, rep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 30 and report.injective and not report.violations
    assert peak <= 14 * 2 ** 20
    assert held - before < 2 ** 20


def test_galois_map_forms_no_subspace_distance_on_s4(s4, monkeypatch):
    # each bicommutant row is certified on its subgroup's generators; the
    # distance in C^576 once cost three products with the 576-wide bases
    def refuse(*args, **kwargs):
        raise AssertionError("a subspace distance was formed")
    monkeypatch.setattr(linalg.Subspace, "distance", refuse)
    report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4))
    assert len(report.rows) == 30 and report.injective and not report.violations
    assert all(r.bicommutant_ok for r in report.rows)


# ---------------------------------------------------------------------------
# one kernel per conjugacy class: conjugate rows against the direct path

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
        rep = kernel_reference.rotated(reps.regular_rep(group))
    else:   # on its points, or through trivial and sign: improper
        rep = reps.permutation_rep(group, groups.symmetric_action(int(group_name[1])))
        if kind == "sign":
            signs = np.linalg.det(rep.matrices).real
            rep = reps.UnitaryRep(group, np.array([np.diag([1.0, s]) for s in signs]))
    return lambda: galois.galois_map(StarAlgebra.full(rep.dim), rep)


def _recorded_inputs(patch) -> list:
    """Patch ``galois.galois_map`` to append its (M, representation) to the list returned."""
    inputs, honest = [], galois.galois_map
    patch.setattr(galois, "galois_map",
                  lambda m, pi, *a, **k: inputs.append((m, pi)) or honest(m, pi, *a, **k))
    return inputs


@pytest.mark.parametrize("name", _DIRECT_CASES)
def test_transported_rows_equal_the_direct_path(name, monkeypatch):
    # every field but the conjugate rows' residuals agrees with a run that
    # solves a fixed-point kernel and a bicommutant test on every row, and
    # every conjugate algebra, U_g M^K U_g* by the reference transport,
    # equals the directly solved one
    run = _galois_case(name)
    with monkeypatch.context() as patch:
        fast_fixed = kernel_reference.record_fixed_algebras(patch)
        fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(galois, "subgroup_classes", kernel_reference.own_classes)
        direct_fixed = kernel_reference.record_fixed_algebras(patch)
        direct = run()

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok,
                 r.commutant_dim) for r in report.rows]
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
    # reaches the containment test; the ids and classes are those of the
    # reference that solves every row's space and compares by Subspace.equals,
    # and one fixed-point kernel runs per conjugacy class
    run = _galois_case(name)
    kernels = []
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_FINGERPRINT_MATCH", np.inf)
        honest = algebras.fixed_point_algebra
        patch.setattr(algebras, "fixed_point_algebra",
                      lambda *a, **k: kernels.append(a[2]) or honest(*a, **k))
        inputs = _recorded_inputs(patch)
        confirmed = run()
    subgroups = [r.subgroup for r in confirmed.rows]
    ids, spans = kernel_reference.interned_by_equality(*inputs[0], subgroups, confirmed.present)
    assert [r.fixed_id for r in confirmed.rows] == ids
    assert confirmed.equivalence_classes == spans
    assert confirmed.injective == (len(set(ids)) == len(ids))
    classes = groups.subgroup_classes(confirmed.group, subgroups)
    per_class = sum(r == j for j, (r, _) in enumerate(classes))
    assert len(kernels) == per_class == {"sign-S3": 4, "permutation-S4": 11}.get(name, per_class)
    if name in _IMPROPER_CASES:
        assert not confirmed.proper and not confirmed.violations
    # the pairs within a class over the present irreps: none on a proper lattice
    candidates = {"permutation-S4": 1, "sign-S3": 7}.get(name, 0)
    assert len(confirmed.collision_candidates) == candidates


@pytest.mark.parametrize("name", list(dict.fromkeys(_DIRECT_CASES + _IMPROPER_CASES)))
def test_the_generator_certificate_agrees_with_the_distance_reference(name, monkeypatch):
    # the bicommutant rows certified on generators (and containment in a
    # non-full M) give the verdicts, dims, ids and classes of the subspace
    # distance to the fixed algebra, and both residuals stay in the bound
    run = _galois_case(name)

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok)
                for r in report.rows]
        return rows, report.equivalence_classes, report.violations

    certified = run()
    monkeypatch.setattr(galois, "_bicommutant", kernel_reference.bicommutant_by_distance)
    reference = run()
    assert verdicts(certified) == verdicts(reference)
    assert all(r.bicommutant_ok for r in certified.rows)
    for report in (certified, reference):
        assert max(r.bicommutant_residual for r in report.rows) <= galois._RESIDUAL_BOUND


def _bicommutant_verdicts(report):
    """Each row's test verdict, first commutant, fixed dimension and id, the
    classes and the violation kinds: what one commutant must keep of two."""
    rows = [(r.subgroup.members, r.bicommutant_ok, r.commutant_dim, r.fixed_dim, r.fixed_id)
            for r in report.rows]
    return rows, report.equivalence_classes, [v[0] for v in report.violations]


def _against_two_solves(report, run, monkeypatch, reference_bound: float = 1e-11) -> None:
    """A report against ``run()``'s with ``galois._bicommutant`` solving (M^H)'
    on M^H's whole basis and (M^H)'' too
    (``kernel_reference.bicommutant_by_two_solves``): the same verdicts and
    ``commutant_dim`` on every row, the report's worst residual within 1e-11
    and the reference's within ``reference_bound``."""
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_bicommutant", kernel_reference.bicommutant_by_two_solves)
        two = run()
    assert _bicommutant_verdicts(report) == _bicommutant_verdicts(two)
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11
    assert max(r.bicommutant_residual for r in two.rows) <= reference_bound


@pytest.mark.parametrize("name", list(dict.fromkeys(_DIRECT_CASES + _IMPROPER_CASES)))
def test_one_commutant_gives_the_two_solve_verdicts(name, monkeypatch):
    # in a full M the first commutant, solved on a seeded pair of M^H and
    # certified, stands for the one solved on M^H's basis and for the second;
    # a non-full M (crossed-S3-M3) solves both on either path
    run = _galois_case(name)
    _against_two_solves(run(), run, monkeypatch)


def _permutation_lattice(group, action):
    """The report on M_N through the permutation representation of the
    action table, over every subgroup, past the order bound too."""
    rep = reps.permutation_rep(group, action)
    subgroups = groups.enumerate_subgroups(group, order_bound=group.order)
    return galois.galois_map(StarAlgebra.full(rep.dim), rep, subgroups=subgroups)


def _orbital_mismatches(report, action) -> list:
    """Rows whose (fixed_dim, fixed_id) differ from the exact orbital
    reference's, and the injectivity verdict when it differs."""
    exact = kernel_reference.orbital_lattice(report.group, action,
                                             [r.subgroup for r in report.rows])
    found = [(r.subgroup.members, (r.fixed_dim, r.fixed_id), e)
             for r, e in zip(report.rows, exact) if (r.fixed_dim, r.fixed_id) != e]
    ids = [i for _, i in exact]
    if report.injective != (len(set(ids)) == len(ids)):
        found.append(("injective", report.injective))
    return found


@pytest.mark.parametrize("name", [*groups.FIXTURE_GROUPS, "S4-on-points"])
def test_the_lattice_equals_the_exact_orbital_reference(name):
    # regular lattices and S4 on its points: dims are orbital counts and ids
    # orbital partitions, decided in integers
    group = groups.FIXTURE_GROUPS[name.split("-")[0]]()
    action = groups.symmetric_action(4) if name == "S4-on-points" else group.mult
    report = _permutation_lattice(group, action)
    assert _orbital_mismatches(report, action) == []
    assert report.injective == (name != "S4-on-points")


@pytest.mark.parametrize("field, value", [
    ("fixed_id", lambda rows: rows[2].fixed_id),
    ("fixed_id", lambda rows: len(rows)),
    ("fixed_dim", lambda rows: rows[1].fixed_dim + 1),
], ids=["merged-with-the-next-row", "a-fresh-id", "dim-off-by-one"])
def test_a_doctored_report_differs_from_the_orbital_reference(s4, field, value):
    # negative controls on S4 regular's row 1: an id merged with the next
    # row's, which also makes the lattice not injective, an id out of the
    # order of first appearance, or a dimension one too large
    report = _permutation_lattice(s4, s4.mult)
    report.rows[1] = dataclasses.replace(report.rows[1], **{field: value(report.rows)})
    assert _orbital_mismatches(report, s4.mult) != []


def test_the_orbital_reference_tells_the_actions_apart(s4):
    # negative control: S4 regular's report read against S4 on its points
    report = _permutation_lattice(s4, s4.mult)
    assert _orbital_mismatches(report, groups.symmetric_action(4)) != []


_ORBITAL_CASES = [f"regular-{name}" for name in groups.FIXTURE_GROUPS] + [
    "permutation-S3", "permutation-S4"]


@pytest.mark.parametrize("name", _ORBITAL_CASES)
def test_the_orbital_path_gives_the_kernel_paths_verdicts(name, monkeypatch):
    # every permutation lattice of the fixtures through its orbital fixed
    # algebras and through the Sylvester kernel of U(H), whose memo is then
    # dense: the same rows, commutants, classes and violations, and both
    # equal to the exact orbital reference
    run = _galois_case(name)
    kind, _, group_name = name.partition("-")
    group = groups.FIXTURE_GROUPS[group_name]()
    action = group.mult if kind == "regular" else groups.symmetric_action(int(group_name[1]))
    carried = []
    honest = algebras.fixed_point_algebra

    def solving(*args, **kwargs):
        fixed = honest(*args, **kwargs)
        carried.append(fixed.orbitals is not None)
        return fixed

    with monkeypatch.context() as patch:
        patch.setattr(algebras, "fixed_point_algebra", solving)
        orbital = run()
    with monkeypatch.context() as patch:
        patch.setattr(algebras, "fixed_point_algebra", kernel_reference.fixed_point_by_kernel)
        kernel = run()

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok,
                 r.commutant_dim) for r in report.rows]
        return (rows, report.equivalence_classes, report.collision_candidates,
                report.anti_monotone_pairs, report.injective, report.proper,
                report.violations)

    assert carried and all(carried)
    assert verdicts(orbital) == verdicts(kernel)
    assert _orbital_mismatches(orbital, action) == _orbital_mismatches(kernel, action) == []
    assert max(r.bicommutant_residual for r in orbital.rows) <= 1e-11


def test_the_memo_residual_read_off_the_orbitals_is_the_dense_one(s4):
    # for every S4 regular representative K and every t in G, in K or not,
    # the closed form sqrt(|C delta tC| / |C|) / sqrt(n), maxed over the
    # orbitals C, is commutator_residual on the orbital basis, zero exactly
    # for t in K (194 nonzero of 264); it holds for the indicators of any
    # partition, here a seeded one with five classes
    rep, m = reps.regular_rep(s4), StarAlgebra.full(24)
    subs = groups.enumerate_subgroups(s4)
    labels = np.random.default_rng(3).integers(0, 5, (24, 24))
    cases = [(None, labels, algebras._orbital_indicators(labels))]
    for r in sorted({r for r, _ in groups.subgroup_classes(s4, subs)}):
        fixed = algebras.fixed_point_algebra(m, rep, subs[r])
        cases.append((subs[r], fixed.orbitals, fixed.basis))
    moved = 0
    for sub, orbitals, basis in cases:
        for t in range(s4.order):
            dense = algebras.commutator_residual(rep.matrices[[t]], basis)
            assert abs(algebras.partition_residual(orbitals, rep.action[t]) - dense) <= 1e-15
            if sub is not None:
                assert (dense == 0) == (t in sub.members)
                moved += dense > 0
    assert moved == 194


@pytest.mark.parametrize("doctor, error, match", [
    (lambda orbitals, sub: np.where(orbitals == 1, 0, orbitals - (orbitals > 1)),
     DecompositionFailed, "the character formula gives"),
    (lambda orbitals, sub: algebras._orbital_partition(groups.symmetric_group(4).mult.T, sub),
     ClosureFailed, "fails to commute"),
], ids=["two-orbitals-merged", "right-translations"])
def test_a_doctored_partition_fails_the_fixed_point_certificate(s4, doctor, error, match):
    # negative controls on each non-trivial class of S4 regular: the first two
    # orbitals merged, an invariant set one orbital short of the character
    # count, or the orbitals of H acting by right translations x -> x h, a
    # partition of the same size whose indicators U(H) moves
    rep, m = reps.regular_rep(s4), StarAlgebra.full(24)
    subs = groups.enumerate_subgroups(s4)
    for r in sorted({r for r, _ in groups.subgroup_classes(s4, subs)} - {0}):
        sub = subs[r]
        honest = algebras.fixed_point_algebra(m, rep, sub)
        basis = algebras._orbital_indicators(doctor(honest.orbitals, sub))
        with pytest.raises(error, match=match):
            algebras._certified_fixed(m, rep, sub, basis)


def test_non_permutation_carriers_take_the_sylvester_kernel(s3):
    # U_g must be exactly 0/1: rotated, signed or noisy carriers keep the
    # kernel path and carry no orbitals, as does a non-full M
    reg = reps.regular_rep(s3)
    noisy = reps.UnitaryRep(s3, reg.matrices + 1e-13 * np.eye(6))
    signs = np.linalg.det(reps.permutation_rep(s3, groups.symmetric_action(3)).matrices).real
    signed = reps.UnitaryRep(s3, np.array([np.diag([1.0, s]) for s in signs]))
    top = groups.Subgroup(s3, tuple(range(6)))
    assert np.array_equal(reg.action, s3.mult)
    for rep in (kernel_reference.rotated(reg), noisy, signed):
        assert rep.action is None
        assert algebras.fixed_point_algebra(StarAlgebra.full(rep.dim), rep, top).orbitals is None
    image = algebras.algebra_from_generators(reg.matrices, 6)
    assert algebras.fixed_point_algebra(image, reg, top).orbitals is None


def _doctor_second_commutants(monkeypatch, basis_of) -> None:
    """Give the second of each pair of ``algebras.commutant`` calls, a spatial
    bicommutant test's ``twice`` solved from ``once``, the basis ``basis_of(twice)``."""
    honest, made = algebras.commutant, []

    def solve(*args, **kwargs):
        made.append(honest(*args, **kwargs))
        if len(made) % 2:
            return made[-1]
        return StarAlgebra(made[-1].ambient_dim, basis_of(made[-1]))
    monkeypatch.setattr(algebras, "commutant", solve)


_E01 = np.zeros((1, 6, 6), dtype=complex)
_E01[0, 0, 1] = 1.0


def test_a_second_commutant_outside_a_non_full_algebra_is_a_violation(monkeypatch):
    # negative control, spatial mode on the diagonal M of M2 under the swap:
    # each twice has its last element swapped for the swap itself, outside M
    # but commuting with the generator, so only the containment in M fails it
    z2 = groups.cyclic_group(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), swap]))
    _doctor_second_commutants(monkeypatch, lambda twice: np.concatenate(
        [twice.basis[:-1], swap[None] / np.sqrt(2.0)]))
    report = galois.galois_map(StarAlgebra.diagonal(2), rep)
    assert report.mode == "spatial"
    assert [v[:2] for v in report.violations] == [("bicommutant", (0,)), ("bicommutant", (0, 1))]
    assert all(abs(v[2] - 1.0) <= 1e-12 for v in report.violations)


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
    assert verdicts(galois.galois_map(m, noisy)) == verdicts(
        galois.galois_map(m, reg))


def test_one_kernel_and_one_commutant_per_class_on_s4(s4, monkeypatch):
    # S4's 30 subgroups fall into 11 conjugacy classes; in a full M each
    # bicommutant test solves one galois._solve_commutant kernel, (M^H)', on
    # a pair of M^H and its adjoints, never on M^H's basis (576 matrices on
    # the trivial row), and algebras.relative_commutant is never called
    families = []

    def counted():
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            for module, fn in ((algebras, "fixed_point_algebra"),
                               (algebras, "relative_commutant"), (galois, "_solve_commutant")):
                honest = getattr(module, fn)
                patch.setattr(module, fn, lambda *a, _f=honest, _n=fn, **k:
                              calls.update([_n]) or _f(*a, **k))
            solve = galois._solve_commutant
            patch.setattr(galois, "_solve_commutant",
                          lambda family, tol: families.append(len(family)) or solve(family, tol))
            report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4))
        assert len(report.rows) == 30 and not report.violations
        return calls

    assert counted() == {"fixed_point_algebra": 11, "_solve_commutant": 11}
    assert families == [4] * 11
    monkeypatch.setattr(galois, "subgroup_classes", kernel_reference.own_classes)
    assert counted() == {"fixed_point_algebra": 30, "_solve_commutant": 30}
    assert families == [4] * 41


@pytest.mark.parametrize("name", ["regular-S4", "regular-A4", "regular-D4", "permutation-S4"])
def test_the_character_rank_is_the_first_commutant_dimension(name):
    # rank K, K[a, b] = chi(a^-1 b) on H, is dim (M^H)' on every subgroup, and
    # the cut at 1/2 has a margin: kept eigenvalues |H| m / d >= 1, dropped
    # ones rounding zeros
    kind, _, group_name = name.partition("-")
    group = groups.FIXTURE_GROUPS[group_name]()
    rep = (reps.regular_rep(group) if kind == "regular"
           else reps.permutation_rep(group, groups.symmetric_action(4)))
    m = StarAlgebra.full(rep.dim)
    for sub in groups.enumerate_subgroups(group):
        eig = np.linalg.eigvalsh(galois._character_matrix(rep, sub))
        kept, dropped = eig[eig > 0.5], eig[eig <= 0.5]
        fixed = algebras.fixed_point_algebra(m, rep, sub)
        assert len(kept) == algebras.commutant(fixed).dim, sub.members
        assert np.min(kept) >= 1.0
        assert np.max(np.abs(dropped), initial=0.0) <= 1e-9


def _doctor_first_commutants(monkeypatch, basis_of) -> None:
    """Give each ``galois._solve_commutant`` call, a full bicommutant test's
    ``once``, the basis ``basis_of(once)``."""
    honest = galois._solve_commutant

    def solve(family, tol):
        once = honest(family, tol)
        return StarAlgebra(once.ambient_dim, basis_of(once))
    monkeypatch.setattr(galois, "_solve_commutant", solve)


def _with_e01_added(basis):
    """The basis and E_01 made orthogonal to it, normalized."""
    flat = basis.reshape(len(basis), -1)
    e = _E01.reshape(-1) - flat.T @ (flat.conj() @ _E01.reshape(-1))
    return np.concatenate([basis, (e / np.linalg.norm(e)).reshape(_E01.shape)])


@pytest.mark.parametrize("doctor, dim, leaves", [
    (lambda basis: np.concatenate([_E01, basis[1:]]), 2, True),
    (lambda basis: basis[1:], 1, True),
    (_with_e01_added, 3, False),
], ids=["E01-swapped-in", "one-element-short", "one-element-extra"])
def test_a_doctored_first_commutant_fails_its_class(s3, monkeypatch, doctor, dim, leaves):
    # negative controls on the once of S3's order-2 class, span U(H) of
    # dimension 2: with E_01 swapped in, U(h) leaves it; with one element
    # dropped, it falls below rank K and U(h) leaves it too, both above the
    # bound; with one orthonormal element added, it holds U(H) within the
    # bound and only rank K fails it.  Each is a recorded violation at the
    # worst membership residual, and the run completes
    _doctor_first_commutants(monkeypatch, lambda once: (
        doctor(once.basis) if once.dim == 2 else once.basis))
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
    order_two = [r.subgroup.members for r in report.rows if r.subgroup.order == 2]
    assert [v[:2] for v in report.violations] == [("bicommutant", h) for h in order_two]
    assert all((v[2] > galois._RESIDUAL_BOUND) == leaves for v in report.violations)
    assert [(r.bicommutant_ok, r.commutant_dim) for r in report.rows
            if r.subgroup.order == 2] == [(False, dim)] * 3
    assert all(r.bicommutant_ok for r in report.rows if r.subgroup.order != 2)


def test_a_pair_that_misses_m_h_fails_every_class_of_s4(s4):
    # negative controls for the seeded pair on each non-trivial class of S4
    # regular: drawn from the scalars, a pair that does not generate M^H, its
    # commutant is all of M_24, which holds U(H), so rank K alone fails it;
    # drawn from M^H's basis with E_01 swapped in, it generates M_24, whose
    # commutant, the scalars, leaves each U(h), h != e, above the bound
    rep, m = reps.regular_rep(s4), StarAlgebra.full(24)
    subs = groups.enumerate_subgroups(s4)
    e01 = np.zeros((1, 24, 24), dtype=complex)
    e01[0, 0, 1] = 1.0
    classes = sorted({r for r, _ in groups.subgroup_classes(s4, subs)})
    for sub in [subs[r] for r in classes if subs[r].order > 1]:
        ok, residual, dim = galois._bicommutant(StarAlgebra.scalars(24), m, rep, sub,
                                                "inner", DEFAULT_TOL)
        assert (ok, dim) == (False, 576) and residual <= galois._RESIDUAL_BOUND, sub.members
        fixed = algebras.fixed_point_algebra(m, rep, sub)
        swapped = StarAlgebra(24, np.concatenate([e01, fixed.basis[1:]]))
        ok, residual, dim = galois._bicommutant(swapped, m, rep, sub, "inner", DEFAULT_TOL)
        assert not ok and residual > galois._RESIDUAL_BOUND, sub.members


def test_no_commutator_certificate_walks_a_basis_on_s4(s4, monkeypatch):
    # every commutator_residual family is a subgroup's generators or one
    # element of the memoized audit; the bicommutant kernels once walked up
    # to 576 elements of M^H
    sizes = []
    honest = algebras.commutator_residual
    monkeypatch.setattr(algebras, "commutator_residual",
                        lambda family, basis: sizes.append(len(family)) or honest(family, basis))
    report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4))
    assert len(report.rows) == 30 and not report.violations
    assert sizes and max(sizes) <= max(len(r.subgroup.generators) for r in report.rows)


def test_conjugate_rows_are_read_through_their_representative_on_s4(s4, monkeypatch):
    # every commutator residual is a representative's fixed-point certificate,
    # one call per generator of K; every other residual is one element t of
    # a representative K on M^K, read off its orbitals at most once per
    # (class, t) and never for a generator of K, whose residual the
    # certificate seeded, and no fixed basis is conjugated by a group
    # unitary; the 19 conjugate rows once took 3600 conjugated basis
    # elements, 113 calls and 14448 element x basis products, with a twice
    # residual per class and an unseeded memo 66 calls and 7872 products,
    # and with each memo miss a dense residual 44 calls and 3456 products
    rep = reps.regular_rep(s4)
    representatives = {}   # id of M^K's orbitals -> (K, the orbitals, kept alive)
    honest_fixed = algebras.fixed_point_algebra

    def solving(m, pi, sub, tol=DEFAULT_TOL, residuals=None):
        fixed = honest_fixed(m, pi, sub, tol, residuals)
        representatives[id(fixed.orbitals)] = sub, fixed.orbitals
        return fixed

    calls, on_classes = [], collections.Counter()
    honest = algebras.commutator_residual
    honest_partition = algebras.partition_residual

    def counting(family, basis):
        calls.append(len(family) * len(basis))
        return honest(family, basis)

    def reading(orbitals, perm):
        sub = representatives[id(orbitals)][0]
        t = int(np.flatnonzero((rep.action == perm).all(axis=1))[0])
        assert t in sub.members and t not in sub.generators
        on_classes[sub.members, t] += 1
        return honest_partition(orbitals, perm)

    conjugated = []
    honest_compress = linalg.compress
    moving = np.delete(rep.matrices, s4.identity, axis=0)   # the kernels compress by 1

    def compressing(stack, q):
        if np.ndim(stack) == 3 and len(stack) > 1 and any(
                np.array_equal(q, u) or np.array_equal(q, u.conj().T) for u in moving):
            conjugated.append(len(stack))
        return honest_compress(stack, q)

    monkeypatch.setattr(algebras, "fixed_point_algebra", solving)
    monkeypatch.setattr(algebras, "commutator_residual", counting)
    monkeypatch.setattr(algebras, "partition_residual", reading)
    monkeypatch.setattr(linalg, "compress", compressing)
    report = galois.galois_map(StarAlgebra.full(24), rep)
    assert len(report.rows) == 30 and report.injective and not report.violations
    assert len(representatives) == 11 and conjugated == []
    assert max(on_classes.values()) == 1
    generators = sum(len(sub.generators) for sub, _ in representatives.values())
    assert len(calls) == generators
    assert (len(calls), sum(calls), sum(on_classes.values())) == (19, 2208, 25)


def test_the_class_memo_reads_the_certificates_residuals(s3, monkeypatch):
    # negative control: the certificate of S3's order-2 representative hands
    # back a planted residual for its generator, honest basis and all; the
    # next row, a conjugate whose generator is carried to it, reads the
    # planted number instead of computing one, and refuses the row
    honest = algebras.fixed_point_algebra

    def planted(m, rep, sub, tol=DEFAULT_TOL, residuals=None):
        fixed = honest(m, rep, sub, tol, residuals)
        if sub.order == 2:
            residuals.update(dict.fromkeys(sub.generators, 1.0))
        return fixed

    monkeypatch.setattr(algebras, "fixed_point_algebra", planted)
    with pytest.raises(ClosureFailed, match="residual 1.000e"):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))


@pytest.mark.parametrize("name", ["regular-S4", "rotated-S3", "crossed-S3-M3"])
def test_the_fingerprint_is_the_projection_onto_the_transported_algebra(name, monkeypatch):
    # each row's fingerprint, E_H of the probe projected onto M, against the
    # projection of the probe onto U_g M^K U_g* built by the reference transport
    run = _galois_case(name)
    interned = []
    honest = galois._Interner.id_of
    with monkeypatch.context() as patch:
        patch.setattr(galois._Interner, "id_of",
                      lambda *a: interned.append(a) or honest(*a))
        inputs = _recorded_inputs(patch)
        built = kernel_reference.record_fixed_algebras(patch)
        report = run()
    m, rep = inputs[0]
    # the rows' interner is made first; the joint image spans' comes after
    fingerprints = {key: fp for interner, fp, _, key, _ in interned
                    if interner is interned[0][0]}
    probe = galois._Interner(rep.dim ** 2).probe
    assert len(fingerprints) == len(report.rows) == len(built)
    for j, row in enumerate(report.rows):
        expected = built[row.subgroup.members].subspace().project(probe)
        assert np.linalg.norm(fingerprints[j] - expected) <= 1e-10, row.subgroup.members
        if not m.is_full:
            # negative control: the average of the unprojected probe leaves M
            unprojected = ncprob.conditional_expectation(probe.reshape(rep.dim, rep.dim), rep,
                                                         row.subgroup).reshape(-1)
            assert np.linalg.norm(unprojected - expected) > 1e-3 * np.linalg.norm(probe)


def test_no_null_gram_is_diagonalized_on_s4(s4, monkeypatch):
    # the abelian classes' commutants and second commutants have null reduced
    # grams, which once cost eigensolves of sizes up to 576 = 24^2
    sizes = []
    honest = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args: sizes.append(a.shape[0]) or honest(a, *args))
    report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4))
    assert report.injective and not report.violations
    assert max(sizes) <= 160


def test_the_order_48_regular_lattice(s4_times_z2):
    # S4 x Z2 on 48 points: about 4 s and 0.31 GB at one BLAS thread;
    # streamed rows and panelled kernel transients keep the traced peak
    # under 400 MiB, where the stored bases alone once took 1.95 GiB
    rep = reps.regular_rep(s4_times_z2)
    tracemalloc.start()
    try:
        report = galois.galois_map(StarAlgebra.full(48), rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 2 ** 20
    subgroups = [r.subgroup for r in report.rows]
    assert len(report.rows) == 98
    assert len({r for r, _ in groups.subgroup_classes(s4_times_z2, subgroups)}) == 33
    assert report.violations == [] and report.injective and report.proper
    assert report.anti_monotone_pairs == 727
    assert all(r.bicommutant_ok for r in report.rows)
    assert max(r.bicommutant_residual for r in report.rows) <= galois._RESIDUAL_BOUND


@pytest.mark.slow
def test_the_s4_times_s3_lattice_on_its_irreps(s4_times_s3, monkeypatch):
    # order 144 on the direct sum of its irreps (n = 40), past the order
    # bound, and one commutant per row against two
    rep = reps.direct_sum(*reps.irrep_table(s4_times_s3).irreps)
    subgroups = groups.enumerate_subgroups(s4_times_s3, order_bound=144)

    def run():
        return galois.galois_map(StarAlgebra.full(rep.dim), rep, subgroups=subgroups)

    report = run()
    assert rep.dim == 40 and len(report.rows) == 372
    assert report.anti_monotone_pairs == 4869
    assert report.proper and report.injective and report.violations == []
    assert all(r.bicommutant_ok for r in report.rows)
    # the reference's twice reads 1.04e-11 on an order-8 class, above every
    # other lattice's 1e-12; the report's membership residuals stay near 1e-12
    _against_two_solves(report, run, monkeypatch, reference_bound=galois._RESIDUAL_BOUND)


# the order-48 regular lattice in a fresh process, at the BLAS thread count
# of its environment: argv[1] holds the group table, stdout gets the rows
_LATTICE_IN_A_PROCESS = """
import json, sys
import numpy as np
from ncgalois import galois, groups, reps
from ncgalois.algebras import StarAlgebra
group = groups.FiniteGroup(np.load(sys.argv[1]))
report = galois.galois_map(StarAlgebra.full(group.order), reps.regular_rep(group))
print(json.dumps({
    "rows": [[r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok, r.commutant_dim]
             for r in report.rows],
    "classes": report.equivalence_classes,
    "violations": [[v[0], repr(v[1])] for v in report.violations],
    "residual": max(r.bicommutant_residual for r in report.rows),
}))
"""


@pytest.mark.slow
def test_the_order_48_regular_lattice_is_thread_invariant(s4_times_z2, tmp_path):
    # S4 x Z2 regular in two processes, at one BLAS thread and at two: the
    # same dims, ids, verdicts, first commutants, classes and violations,
    # and both worst residuals within 1e-11
    np.save(tmp_path / "mult.npy", s4_times_z2.mult)
    src = os.path.dirname(os.path.dirname(galois.__file__))

    def run(threads: str) -> dict:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _LATTICE_IN_A_PROCESS,
                               str(tmp_path / "mult.npy")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    one, two = run("1"), run("2")
    assert max(one.pop("residual"), two.pop("residual")) <= 1e-11
    assert len(one["rows"]) == 98 and one == two


@pytest.mark.slow
def test_the_a5_regular_lattice(monkeypatch):
    # order 60 on its regular representation (n = 60), past the order bound;
    # its 59 subgroups fall into 9 conjugacy classes, and the test takes about
    # 12 s and 0.68 GB at one BLAS thread; the first run's traced peak is about
    # 400 MiB, where fingerprints projected through each M^K's basis took 597;
    # its rows against their orbitals, and one commutant per row against two
    a5 = groups.alternating_group(5)
    tracemalloc.start()
    try:
        report = _permutation_lattice(a5, a5.mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 450 * 2 ** 20
    subgroups = [r.subgroup for r in report.rows]
    assert a5.order == 60 and len(report.rows) == 59
    assert len({r for r, _ in groups.subgroup_classes(a5, subgroups)}) == 9
    assert report.anti_monotone_pairs == 246
    assert report.proper and report.injective and report.violations == []
    assert all(r.bicommutant_ok for r in report.rows)
    assert _orbital_mismatches(report, a5.mult) == []
    _against_two_solves(report, lambda: _permutation_lattice(a5, a5.mult), monkeypatch)


@pytest.mark.slow
def test_the_order_48_regular_lattice_against_both_references(s4_times_z2, monkeypatch):
    # one commutant per row against two, and the rows against their orbitals
    report = _permutation_lattice(s4_times_z2, s4_times_z2.mult)
    assert _orbital_mismatches(report, s4_times_z2.mult) == []
    _against_two_solves(report, lambda: _permutation_lattice(s4_times_z2, s4_times_z2.mult),
                        monkeypatch)


@pytest.fixture(scope="module")
def s5_on_irreps():
    """S5 on the direct sum of its irreps (n = 26, its smallest proper carrier),
    its 156 subgroups, found past the order bound, and their lattice's report."""
    s5 = groups.symmetric_group(5)
    rep = reps.direct_sum(*reps.irrep_table(s5).irreps)
    subgroups = groups.enumerate_subgroups(s5, order_bound=s5.order)
    return rep, subgroups, galois.galois_map(StarAlgebra.full(rep.dim), rep,
                                             subgroups=subgroups)


def test_the_s5_lattice_on_its_irreps(s5_on_irreps):
    # a lattice past order 48, in seconds on its 26-dimensional carrier
    rep, subgroups, report = s5_on_irreps
    assert rep.dim == 26 and len(report.rows) == 156
    assert len({r for r, _ in groups.subgroup_classes(rep.group, subgroups)}) == 19
    assert report.anti_monotone_pairs == 1089
    assert report.proper and report.injective and report.violations == []
    assert all(r.bicommutant_ok for r in report.rows)
    assert max(r.bicommutant_residual for r in report.rows) <= galois._RESIDUAL_BOUND


def test_the_s5_lattice_gives_the_two_solve_verdicts(s5_on_irreps, monkeypatch):
    # 156 rows in 19 classes past the order bound, one commutant per row against two
    rep, subgroups, report = s5_on_irreps
    _against_two_solves(report, lambda: galois.galois_map(
        StarAlgebra.full(rep.dim), rep, subgroups=subgroups), monkeypatch)


@pytest.mark.slow
def test_the_s5_lattice_solves_every_row_alike(s5_on_irreps, monkeypatch):
    # the 137 conjugate rows against a fixed-point kernel and a
    # bicommutant test on each of the 156 rows
    rep, subgroups, report = s5_on_irreps
    monkeypatch.setattr(galois, "subgroup_classes", kernel_reference.own_classes)
    direct = galois.galois_map(StarAlgebra.full(rep.dim), rep, subgroups=subgroups)

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok,
                 r.commutant_dim) for r in report.rows]
        return (rows, report.equivalence_classes, report.collision_candidates,
                report.anti_monotone_pairs, report.violations)

    assert verdicts(report) == verdicts(direct)


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
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
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

    def failing(fixed, m, pi, subgroup, mode, tol):
        calls.append(fixed.dim)
        # (M^H)' = U(H)'' is the span of U(H), of dimension 2
        return (False, 0.5, 2) if fixed.dim == 18 else honest(fixed, m, pi, subgroup, mode, tol)

    monkeypatch.setattr(galois, "_bicommutant", failing)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
    order_two = [r.subgroup.members for r in report.rows if r.subgroup.order == 2]
    assert calls == [36, 18, 12, 6]
    assert report.violations == [("bicommutant", members, 0.5) for members in order_two]
    assert [(r.bicommutant_ok, r.bicommutant_residual, r.commutant_dim) for r in report.rows
            if r.subgroup.order == 2] == [(False, 0.5, 2)] * 3
    assert all(r.bicommutant_ok for r in report.rows if r.subgroup.order != 2)


def test_a_subgroup_given_twice_is_refused(s3):
    # collision candidates are the pairs within a class over the present
    # irreps, which holds only for distinct subgroups
    order_two = [s for s in groups.enumerate_subgroups(s3) if s.order == 2]
    with pytest.raises(ValueError, match="given twice"):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3),
                          subgroups=[order_two[0], order_two[1], order_two[0]])


def test_transport_into_a_non_invariant_algebra_is_refused(s3):
    # M = M2 + C on the points {0, 1} | {2} is invariant under the swap of 0
    # and 1 but not under the elements that carry it to the swap of 1 and 2,
    # so M^{<(12)>} is not U_g M^{<(01)>} U_g*; its conjugate row refuses it
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    e = np.eye(3)
    m = StarAlgebra.from_span([np.outer(e[a], e[b]) for a in (0, 1) for b in (0, 1)]
                              + [np.outer(e[2], e[2])], 3)
    swap01, swap12 = groups.Subgroup(s3, (0, 2)), groups.Subgroup(s3, (0, 1))
    assert [r for r, _ in groups.subgroup_classes(s3, [swap01, swap12])] == [0, 0]
    alone = galois.galois_map(m, perm, subgroups=[swap01])
    assert [r.fixed_dim for r in alone.rows] == [3]
    with pytest.raises(NotInvariantAlgebra, match="conjugation by element"):
        galois.galois_map(m, perm, subgroups=[swap01, swap12])
