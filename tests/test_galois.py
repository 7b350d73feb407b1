import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
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


def _unit_expectations(m, rep, subgroups) -> dict:
    """Each subgroup's y_H = E_H of the interning probe at unit Frobenius norm,
    as a one-element stack, by its members: the element galois audits."""
    n = rep.dim
    probe = galois._Interner(n * n).probe
    if not m.is_full:
        probe = m.subspace().project(probe)
    found = {}
    for h in subgroups:
        y = ncprob.conditional_expectation(probe.reshape(n, n), rep, h)
        found[h.members] = y[None] / np.linalg.norm(y)
    return found


def _planted_containments(monkeypatch, planted) -> None:
    """Have ``Subgroup.contains`` also claim each (high, low) of ``planted``,
    given as member tuples: pairs H1 < H2 the audit checks though H1 is not
    below H2, so that M^{H2} fails against H1's generators."""
    honest = groups.Subgroup.contains
    monkeypatch.setattr(groups.Subgroup, "contains", lambda high, low: (
        honest(high, low) or (high.members, low.members) in planted))


def test_anti_monotone_violation_is_recorded_with_its_commutator_residual(s3, monkeypatch):
    # negative control: A3 claimed to hold S3's three order-2 subgroups; M^{A3}
    # lies in no M^{<t>} of a transposition t, and the audit records each pair
    # with the residual ||[U_t, y]||_F / sqrt(6) of the one element
    # y = E_{A3}(r) / ||E_{A3}(r)||_F, and does not raise
    subs = groups.enumerate_subgroups(s3)
    a3, order_two = subs[-2].members, [s for s in subs if s.order == 2]
    rep, m = reps.regular_rep(s3), StarAlgebra.full(6)
    _planted_containments(monkeypatch, {(a3, t.members) for t in order_two})
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    report = galois.galois_map(m, rep)
    flagged = [v for v in report.violations if v[0] == "anti-monotone"]
    assert [v[1] for v in flagged] == [(t.members, a3) for t in order_two]
    assert _anti_monotone(report) == kernel_reference.anti_monotone_by_projection(
        fixed, subs)
    y = _unit_expectations(m, rep, [subs[-2]])[a3][0]
    for (_, (low, _), res), t in zip(flagged, order_two):
        u = rep.matrices[t.generators[0]]
        assert res == pytest.approx(np.linalg.norm(u @ y - y @ u) / np.sqrt(6), rel=1e-12)
        assert res > galois._RESIDUAL_BOUND


def test_several_anti_monotone_violations_come_in_the_h1_outer_order(d4, monkeypatch):
    # negative control: each of D4's three order-4 subgroups claimed to hold
    # all five order-2 subgroups; the streamed audit lists the eight planted
    # pairs, their order and residuals as the loop over H1 then H2 does on
    # the elements galois reads, and the projection reference flags the same
    m, rep = StarAlgebra.full(8), reps.regular_rep(d4)
    subs = groups.enumerate_subgroups(d4)
    _planted_containments(monkeypatch, {(high.members, low.members) for high in subs
                                        for low in subs if (high.order, low.order) == (4, 2)})
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
    report = galois.galois_map(m, rep)
    streamed = [(v[1], v[2]) for v in report.violations if v[0] == "anti-monotone"]
    assert streamed == kernel_reference.anti_monotone_by_generators(
        rep, _unit_expectations(m, rep, subs), subs)
    pairs = [pair for pair, _ in streamed]
    assert pairs == kernel_reference.anti_monotone_by_projection(fixed, subs)
    assert len(pairs) == 8 and len({top for _, top in pairs}) == 3
    assert all(res > galois._RESIDUAL_BOUND for _, res in streamed)
    # H2 outer would give another order
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


def _nonempty_subsets(k: int) -> list:
    return [c for r in range(1, k + 1) for c in itertools.combinations(range(k), r)]


@pytest.mark.parametrize("name", ["S3", "D4", "A4", "S4"])
def test_the_idempotent_partition_is_the_irrep_matrix_partition(name, fixture_groups):
    # translates by the central idempotent of Sigma' against the joint irrep
    # images themselves: every nonempty Sigma' of S3 (7), D4 (31) and A4 (15,
    # with complex characters), and ten drawn from S4's 31
    g = fixture_groups[name]
    subs = groups.enumerate_subgroups(g)
    subsets = _nonempty_subsets(len(reps.character_table(g).dims))
    if name == "S4":
        picks = np.random.default_rng(7).choice(len(subsets), size=10, replace=False)
        subsets = [subsets[i] for i in sorted(picks)]
    for sigma in subsets:
        assert (galois.subgroup_equivalence(g, subs, sigma)
                == kernel_reference.subgroup_equivalence_by_irrep_matrices(g, subs, sigma)), sigma
    assert len(subsets) == {"S3": 7, "D4": 31, "A4": 15, "S4": 10}[name]


def test_galois_map_forms_no_irrep_matrix(s3, s4, monkeypatch):
    # properness and the equivalence classes read the class-sum characters,
    # so neither the irrep table nor the regular representation is built
    cases = [reps.regular_rep(s4), reps.direct_sum(*reps.irrep_table(s3).irreps)]
    calls = _counted(monkeypatch, (reps, "irrep_table"), (reps, "regular_rep"))
    for rep in cases:
        report = galois.galois_map(StarAlgebra.full(rep.dim), rep)
        assert report.proper and report.injective and report.violations == []
    assert calls == {"irrep_table": 0, "regular_rep": 0}
    reps.regular_rep(s3)   # the counter does see a call
    assert calls == {"irrep_table": 0, "regular_rep": 1}


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
    # no row forms one, the traced peak is about 1.4 MiB and the report small;
    # M = M_24 is read by its size, so its 576 x 576 identity basis is never built
    rep = reps.regular_rep(s4)
    galois.galois_map(StarAlgebra.full(24), rep)     # warm-up: the irrep table memo
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = StarAlgebra.full(24)
        report = galois.galois_map(m, rep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 30 and report.injective and not report.violations
    assert "basis" not in vars(m) and "_subspace" not in vars(m)
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


def _counted(patch, *seams) -> collections.Counter:
    """Patch each (module, name) of ``seams`` to count its calls, by name, in the
    returned counter, which lists every seam, called or not."""
    calls = collections.Counter({fn: 0 for _, fn in seams})
    for module, fn in seams:
        honest = getattr(module, fn)
        patch.setattr(module, fn,
                      lambda *a, _f=honest, _n=fn, **k: calls.update([_n]) or _f(*a, **k))
    return calls


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
    # and one class solve runs per conjugacy class, with no fixed-point
    # algebra: one first commutant in a full M, once and twice otherwise
    run = _galois_case(name)
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_FINGERPRINT_MATCH", np.inf)
        calls = _counted(patch, (algebras, "fixed_point_algebra"), (galois, "_solve_commutant"))
        inputs = _recorded_inputs(patch)
        confirmed = run()
    subgroups = [r.subgroup for r in confirmed.rows]
    ids, spans = kernel_reference.interned_by_equality(*inputs[0], subgroups, confirmed.present)
    assert [r.fixed_id for r in confirmed.rows] == ids
    assert confirmed.equivalence_classes == spans
    assert confirmed.injective == (len(set(ids)) == len(ids))
    classes = groups.subgroup_classes(confirmed.group, subgroups)
    per_class = sum(r == j for j, (r, _) in enumerate(classes))
    assert per_class == {"sign-S3": 4, "permutation-S4": 11}.get(name, per_class)
    full = inputs[0][0].is_full
    assert calls == {"fixed_point_algebra": 0,
                     "_solve_commutant": per_class if full else 2 * per_class}
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
    monkeypatch.setattr(galois, "_solve_class", kernel_reference.solved_from_basis(
        kernel_reference.bicommutant_by_distance))
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


def _against_two_solves(report, run, monkeypatch) -> None:
    """A report against ``run()``'s with ``galois._solve_class`` solving M^K and
    (M^K)' on M^K's whole basis and (M^K)'' too
    (``kernel_reference.bicommutant_by_two_solves``): the same verdicts and
    ``commutant_dim`` on every row, and both worst residuals within 1e-11."""
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_solve_class", kernel_reference.solved_from_basis(
            kernel_reference.bicommutant_by_two_solves))
        two = run()
    assert _bicommutant_verdicts(report) == _bicommutant_verdicts(two)
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11
    assert max(r.bicommutant_residual for r in two.rows) <= 1e-11


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


@pytest.mark.parametrize("name", list(dict.fromkeys(_DIRECT_CASES + _IMPROPER_CASES)))
def test_the_rows_equal_the_basis_reference(name, monkeypatch):
    # every fixture lattice against its rows made from a basis of every M^H
    # (kernel_reference.fill_rows_by_basis: the Sylvester kernel of U(H) in a
    # full M, a seeded pair of the basis, ids by Subspace.equals, audits by
    # projection): the same dims, ids, verdicts, first commutants, classes,
    # candidates, pair count and violation kinds
    run = _galois_case(name)

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok,
                 r.commutant_dim) for r in report.rows]
        return (rows, report.equivalence_classes, report.collision_candidates,
                report.anti_monotone_pairs, report.injective, report.proper,
                [v[:2] for v in report.violations])

    report = run()
    monkeypatch.setattr(galois, "_fill_rows", kernel_reference.fill_rows_by_basis)
    assert verdicts(report) == verdicts(run())
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11


@pytest.mark.parametrize("name", _ORBITAL_CASES)
def test_the_orbital_path_gives_the_kernel_paths_verdicts(name, monkeypatch):
    # every permutation lattice of the fixtures: fixed_point_algebra's orbital
    # basis, read with no kernel, spans the Sylvester kernel of U(H) on every
    # subgroup, and the report's dims are both bases' sizes and equal the
    # exact orbital reference
    kind, _, group_name = name.partition("-")
    group = groups.FIXTURE_GROUPS[group_name]()
    action = group.mult if kind == "regular" else groups.symmetric_action(int(group_name[1]))
    rep = reps.permutation_rep(group, action)
    m = StarAlgebra.full(rep.dim)
    report = _galois_case(name)()
    calls = _counted(monkeypatch, (algebras, "_orbital_partition"),
                     (linalg, "commutant_kernel"))
    for row in report.rows:
        orbital = algebras.fixed_point_algebra(m, rep, row.subgroup)
        kernel = kernel_reference.fixed_point_by_kernel(m, rep, row.subgroup)
        assert orbital.equals(kernel) and row.fixed_dim == orbital.dim, row.subgroup.members
    # one kernel per row, the reference's
    assert calls == {"_orbital_partition": len(report.rows), "commutant_kernel": len(report.rows)}
    assert _orbital_mismatches(report, action) == []


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
        orbitals = algebras._orbital_partition(rep.action, sub)
        basis = algebras._orbital_indicators(doctor(orbitals, sub))
        with pytest.raises(error, match=match):
            algebras._certified_fixed(m, rep, sub, basis)


def test_non_permutation_carriers_take_the_sylvester_kernel(s3, monkeypatch):
    # U_g must be exactly 0/1: rotated, signed or noisy carriers keep the
    # kernel path and read no orbitals
    reg = reps.regular_rep(s3)
    noisy = reps.UnitaryRep(s3, reg.matrices + 1e-13 * np.eye(6))
    signs = np.linalg.det(reps.permutation_rep(s3, groups.symmetric_action(3)).matrices).real
    signed = reps.UnitaryRep(s3, np.array([np.diag([1.0, s]) for s in signs]))
    top = groups.Subgroup(s3, tuple(range(6)))
    assert np.array_equal(reg.action, s3.mult)
    calls = _counted(monkeypatch, (algebras, "_orbital_partition"))
    for rep in (kernel_reference.rotated(reg), noisy, signed):
        assert rep.action is None
        algebras.fixed_point_algebra(StarAlgebra.full(rep.dim), rep, top)
    assert calls == {"_orbital_partition": 0}
    algebras.fixed_point_algebra(StarAlgebra.full(6), reg, top)   # the counter does see one
    assert calls == {"_orbital_partition": 1}


def _doctor_second_commutants(monkeypatch, basis_of) -> None:
    """Give the second of each pair of ``galois._solve_commutant`` calls, a
    non-full class solve's ``twice`` solved from ``once``, the basis
    ``basis_of(twice)``."""
    honest, made = galois._solve_commutant, []

    def solve(*args, **kwargs):
        made.append(honest(*args, **kwargs))
        if len(made) % 2:
            return made[-1]
        return StarAlgebra(made[-1].ambient_dim, basis_of(made[-1]))
    monkeypatch.setattr(galois, "_solve_commutant", solve)


_E01 = np.zeros((1, 6, 6), dtype=complex)
_E01[0, 0, 1] = 1.0


def test_a_second_commutant_outside_a_non_full_algebra_is_a_violation(monkeypatch):
    # negative control, spatial mode on the diagonal M of M2 under the swap:
    # each twice, the kernel of once in the class solve, has its last element
    # swapped for the swap itself, outside M but commuting with the generator
    # and at the character count, so only the containment in M fails it
    z2 = groups.cyclic_group(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = reps.UnitaryRep(z2, np.array([np.eye(2), swap]))
    _doctor_second_commutants(monkeypatch, lambda twice: np.concatenate(
        [twice.basis[:-1], swap[None] / np.sqrt(2.0)]))
    report = galois.galois_map(StarAlgebra.diagonal(2), rep)
    assert report.mode == "spatial" and [r.fixed_dim for r in report.rows] == [2, 1]
    assert [v[:2] for v in report.violations] == [("bicommutant", (0,)), ("bicommutant", (0, 1))]
    assert all(abs(v[2] - 1.0) <= 1e-12 for v in report.violations)


_NON_FULL_CASES = ["crossed-s3-m3-seed-101", "crossed-S3-M3", "swap-Z2-diagonal",
                   "trivial-Z1-diagonal"]


def _non_full_case(name, crossed_s3_m3):
    """A thunk that runs the case's lattice in a non-full M and returns its GaloisReport."""
    if name == "crossed-s3-m3-seed-101":
        cp = crossed.crossed_product(*crossed_s3_m3)
        return lambda: crossed.crossed_galois(cp)[0]
    if name == "crossed-S3-M3":
        return _galois_case(name)
    if name == "swap-Z2-diagonal":
        rep = reps.UnitaryRep(groups.cyclic_group(2), np.array([np.eye(2), [[0, 1], [1, 0]]]))
    else:
        rep = kernel_reference.trivial_rep(groups.cyclic_group(1), dim=2)
    return lambda: galois.galois_map(StarAlgebra.diagonal(2), rep)


@pytest.mark.parametrize("name", _NON_FULL_CASES)
def test_the_non_full_rows_equal_the_two_commutant_reference(name, crossed_s3_m3, monkeypatch):
    # the class solve on the seeded pair at the character count against the
    # one it replaced (kernel_reference.solved_by_two_commutants: M^K in M's
    # coordinates, both (relative) commutants of its basis, and each conjugate
    # row's M checked invariant under its g by the conjugation maps): the same
    # dims, ids, verdicts, first commutants, classes and violations, in
    # spatial mode on the crossed products and the swap, in inner mode on the
    # trivial group
    run = _non_full_case(name, crossed_s3_m3)
    report = run()
    with monkeypatch.context() as patch:
        patch.setattr(galois, "_solve_class", kernel_reference.solved_by_two_commutants)
        transported = kernel_reference.record_fixed_algebras(patch)
        reference = run()

    def verdicts(report):
        rows = [(r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok,
                 r.commutant_dim) for r in report.rows]
        return rows, report.equivalence_classes, [v[:2] for v in report.violations]

    assert verdicts(report) == verdicts(reference)
    assert report.mode == ("inner" if name.startswith("trivial") else "spatial")
    assert all(r.bicommutant_ok for r in report.rows) and not report.violations
    assert [transported[r.subgroup.members].dim for r in report.rows] == [
        r.fixed_dim for r in report.rows]
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11


def test_a_count_off_by_one_is_a_violation_on_every_non_full_row(monkeypatch):
    # negative control on S3 acting on M3 (crossed): a character count one
    # too large disagrees with dim twice on every class; each row records a
    # bicommutant violation within the residual bound, at the doctored
    # dimension, and nothing raises
    run = _galois_case("crossed-S3-M3")
    honest = run()
    monkeypatch.setattr(algebras, "_character_count", lambda chi, sub, _f=(
        algebras._character_count): _f(chi, sub) + 1.0)
    doctored = run()
    assert [r.fixed_dim for r in doctored.rows] == [r.fixed_dim + 1 for r in honest.rows]
    assert [v[:2] for v in doctored.violations] == [
        ("bicommutant", r.subgroup.members) for r in honest.rows]
    assert all(v[2] <= galois._RESIDUAL_BOUND for v in doctored.violations)


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
    # S4's 30 subgroups fall into 11 conjugacy classes; in a full M each class
    # solves one galois._solve_commutant kernel, (M^K)', on a pair of M^K and
    # its adjoints, never on a basis of M^K (576 matrices on the trivial row),
    # and algebras.fixed_point_algebra and relative_commutant are never called
    families = []

    def counted():
        with monkeypatch.context() as patch:
            calls = _counted(patch, (algebras, "fixed_point_algebra"),
                             (algebras, "relative_commutant"), (galois, "_solve_commutant"))
            solve = galois._solve_commutant
            patch.setattr(galois, "_solve_commutant",
                          lambda family, tol: families.append(len(family)) or solve(family, tol))
            report = galois.galois_map(StarAlgebra.full(24), reps.regular_rep(s4))
        assert len(report.rows) == 30 and not report.violations
        return calls

    assert counted() == {"fixed_point_algebra": 0, "relative_commutant": 0,
                         "_solve_commutant": 11}
    assert families == [4] * 11
    monkeypatch.setattr(galois, "subgroup_classes", kernel_reference.own_classes)
    assert counted() == {"fixed_point_algebra": 0, "relative_commutant": 0,
                         "_solve_commutant": 30}
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
        eig = np.linalg.eigvalsh(reps._character_matrix(rep, sub.members))
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


def test_a_pair_that_misses_m_h_fails_every_class_of_s4(s4, monkeypatch):
    # negative controls for the seeded pair on each non-trivial class of S4
    # regular: two scalars in place of E_K(G1), E_K(G2), a pair that does not
    # generate M^K, its commutant is all of M_24, which holds U(K), so rank K
    # alone fails it; E_K(G1) and E_K(G2) + E_01, which generate M_24, whose
    # commutant, the scalars, leaves each U(k), k != e, above the bound
    rep, m = reps.regular_rep(s4), StarAlgebra.full(24)
    chi = algebras._ad_character(m, rep)
    subs = groups.enumerate_subgroups(s4)
    e01 = np.zeros((2, 24, 24), dtype=complex)
    e01[1, 0, 1] = 1.0
    honest = ncprob.conditional_expectation
    classes = sorted({r for r, _ in groups.subgroup_classes(s4, subs)})
    for doctor, leaves in ((lambda pair: np.eye(24) * np.array([1.0, 2.0])[:, None, None], False),
                           (lambda pair: pair + e01, True)):
        # the pair is the one stack galois averages
        monkeypatch.setattr(ncprob, "conditional_expectation", lambda x, pi, sub, _d=doctor: (
            _d(honest(x, pi, sub)) if np.ndim(x) == 3 else honest(x, pi, sub)))
        for sub in [subs[r] for r in classes if subs[r].order > 1]:
            dim, ok, residual, once = galois._solve_class(
                m, rep, sub, "inner", algebras._character_count(chi, sub), DEFAULT_TOL)
            assert not ok and (residual > galois._RESIDUAL_BOUND) == leaves, sub.members
            assert (dim, once) == (576 // sub.order, 1 if leaves else 576)


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
    # the 19 conjugate rows take their representative's class solve, which runs
    # 11 times, and no fixed basis is conjugated by a group unitary; every
    # commutator residual is one family of a subgroup's generators on one
    # element, y_H: the 30 rows' own certificates and the 120 audited pairs,
    # with no confirmation on this injective lattice; the class memo this
    # replaces took 19 certificate calls on 2208 basis products and 25
    # orbital reads
    rep = reps.regular_rep(s4)
    subs = groups.enumerate_subgroups(s4)
    solved, calls = [], []
    honest_solve, honest = galois._solve_class, algebras.commutator_residual

    def counting(family, basis):
        calls.append((len(family), len(basis)))
        return honest(family, basis)

    conjugated = []
    honest_compress = linalg.compress
    moving = np.delete(rep.matrices, s4.identity, axis=0)   # the kernels compress by 1

    def compressing(stack, q):
        if np.ndim(stack) == 3 and len(stack) > 1 and any(
                np.array_equal(q, u) or np.array_equal(q, u.conj().T) for u in moving):
            conjugated.append(len(stack))
        return honest_compress(stack, q)

    monkeypatch.setattr(galois, "_solve_class", lambda m, pi, sub, *a: (
        solved.append(sub.members) or honest_solve(m, pi, sub, *a)))
    monkeypatch.setattr(algebras, "commutator_residual", counting)
    monkeypatch.setattr(linalg, "compress", compressing)
    monkeypatch.setattr(galois, "compress", compressing)
    report = galois.galois_map(StarAlgebra.full(24), rep)
    assert len(report.rows) == 30 and report.injective and not report.violations
    classes = groups.subgroup_classes(s4, subs)
    assert solved == [h.members for j, (h, (r, _)) in enumerate(zip(subs, classes)) if r == j]
    assert len(solved) == 11 and conjugated == []
    assert report.anti_monotone_pairs == 120 and len(calls) == 150
    assert {size for _, size in calls} == {1}
    below = sum(len(low.generators) for high in subs for low in subs
                if low.members != high.members and high.contains(low))
    assert sum(k for k, _ in calls) == sum(len(h.generators) for h in subs) + below
    for row, (r, _) in zip(report.rows, classes):
        first = report.rows[r]
        assert (row.fixed_dim, row.bicommutant_residual, row.commutant_dim) == (
            first.fixed_dim, first.bicommutant_residual, first.commutant_dim)


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
    # S4 x Z2 on 48 points: under 2 s traced and 0.14 GB at one BLAS thread;
    # no row forms a basis of M^H, so the traced peak is about 12 MiB, where
    # the stored bases alone once took 1.95 GiB
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
    # the reference's twice read 1.04e-11 on an order-8 class while its split
    # cut between two eigenvalues 6.3e-6 apart; such a pair shares a block,
    # and it reads 1.7e-13
    _against_two_solves(report, run, monkeypatch)


# the CLI in a fresh process: argv holds its arguments, stderr gets the
# process's max RSS in KiB, read as VmHWM (as in the martingale tower's test)
_CLI_IN_A_PROCESS = """
import sys
from ncgalois import cli
status = cli.main(sys.argv[1:])
print(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")).split()[1],
      file=sys.stderr)
sys.exit(status)
"""


# a regular lattice over every subgroup in a fresh process, at the BLAS
# thread count of its environment: argv[1] holds the group table, stdout gets
# the rows and the process's max RSS, read as VmHWM, the peak of its own
# memory map (ru_maxrss keeps the peak of the forking test process across exec)
_LATTICE_IN_A_PROCESS = """
import json, sys
import numpy as np
from ncgalois import galois, groups, reps
from ncgalois.algebras import StarAlgebra
group = groups.FiniteGroup(np.load(sys.argv[1]))
report = galois.galois_map(StarAlgebra.full(group.order), reps.regular_rep(group),
                           subgroups=groups.enumerate_subgroups(group, order_bound=group.order))
print(json.dumps({
    "rows": [[r.subgroup.members, r.fixed_dim, r.fixed_id, r.bicommutant_ok, r.commutant_dim]
             for r in report.rows],
    "classes": report.equivalence_classes,
    "violations": [[v[0], repr(v[1])] for v in report.violations],
    "residual": max(r.bicommutant_residual for r in report.rows),
    "max_rss_kib": int(next(line for line in open("/proc/self/status")
                            if line.startswith("VmHWM:")).split()[1]),
}))
"""


def _regular_lattice_at_one_and_two_threads(group, tmp_path) -> tuple:
    """The ``_LATTICE_IN_A_PROCESS`` output of ``group`` at one BLAS thread and at two."""
    np.save(tmp_path / "mult.npy", group.mult)
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

    return run("1"), run("2")


@pytest.mark.slow
def test_the_s5_times_z2_lattice_on_its_irreps_through_the_cli(s5_times_z2, tmp_path):
    # order 240, at the order bound, on the direct sum of its irreps (n = 52):
    # `galois` in its own process with a cold table cache, 535 rows with no
    # violation, in under 30 s and 1 GB max RSS (about 4 s and 0.27 GB at one
    # BLAS thread on a 2-core host, the JSON read included)
    rep = reps.direct_sum(*reps.irrep_table(s5_times_z2).irreps)
    (tmp_path / "rep.json").write_text(json.dumps(reporting.rep_to_json(rep)))
    (tmp_path / "spec.json").write_text(json.dumps({"representation": "rep.json"}))
    src = os.path.dirname(os.path.dirname(galois.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CLI_IN_A_PROCESS, "galois",
                           str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert seconds < 30.0
    assert int(proc.stderr.split()[-1]) < 1e9 / 1024            # KiB
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["violations"] == [] and len(out["report"]["rows"]) == 535
    assert out["report"]["proper"] and out["report"]["injective"]


@pytest.mark.slow
def test_the_order_48_regular_lattice_is_thread_invariant(s4_times_z2, tmp_path):
    # S4 x Z2 regular in two processes, at one BLAS thread and at two: the
    # same dims, ids, verdicts, first commutants, classes and violations,
    # both worst residuals within 1e-11, and each process under 128 MiB max
    # RSS (about 53), where M_48's identity basis alone is 85 MB
    one, two = _regular_lattice_at_one_and_two_threads(s4_times_z2, tmp_path)
    assert max(one.pop("residual"), two.pop("residual")) <= 1e-11
    assert max(one.pop("max_rss_kib"), two.pop("max_rss_kib")) <= 128 * 1024
    assert len(one["rows"]) == 98 and one == two


@pytest.mark.slow
def test_the_s5_regular_lattice_is_thread_invariant(tmp_path):
    # S5 regular (n = 120) in two processes, at one BLAS thread and at two:
    # equal rows, classes and violations, both worst residuals within 1e-11,
    # and each process under 0.5 GB max RSS (about 0.24 GB), where the
    # 14400 x 14400 identity basis of M_120 alone is 3.3 GB
    s5 = groups.symmetric_group(5)
    one, two = _regular_lattice_at_one_and_two_threads(s5, tmp_path)
    assert max(one.pop("residual"), two.pop("residual")) <= 1e-11
    assert max(one.pop("max_rss_kib"), two.pop("max_rss_kib")) <= 512 * 1024
    assert len(one["rows"]) == 156 and one == two


@pytest.mark.slow
def test_the_a5_regular_lattice(monkeypatch):
    # order 60 on its regular representation (n = 60), past the order bound;
    # its 59 subgroups fall into 9 conjugacy classes, and the test takes about
    # 10 s and 0.66 GB at one BLAS thread, mostly the reference's; the first
    # run's traced peak is about 21 MiB, where a basis of M^K per class took
    # 400 and fingerprints projected through it 597; its rows against their
    # orbitals, and one commutant per row against two
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
def test_the_s5_regular_lattice():
    # order 120 on its regular representation (n = 120), its 156 subgroups
    # found past the order bound, in 19 conjugacy classes: about 10 s and
    # 0.24 GB at one BLAS thread, with no basis of any M^H, and none of M_120
    # (3.3 GB); its rows against their orbitals.  The worst bicommutant
    # residual read 1.4e-10 on an order-6 class (dim M^H = 2400) while the
    # commutant kernel's split cut between two eigenvalues 3.9e-8 apart, whose
    # eigenvectors mix at eps / gap; such a pair shares a block
    s5 = groups.symmetric_group(5)
    subgroups = groups.enumerate_subgroups(s5, order_bound=s5.order)
    m = StarAlgebra.full(120)
    report = galois.galois_map(m, reps.regular_rep(s5), subgroups=subgroups)
    assert "basis" not in vars(m)
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11
    assert len(report.rows) == 156
    assert len({r for r, _ in groups.subgroup_classes(s5, subgroups)}) == 19
    assert report.anti_monotone_pairs == 1089
    assert report.proper and report.injective and report.violations == []
    assert all(r.bicommutant_ok for r in report.rows)
    assert _orbital_mismatches(report, s5.mult) == []


@pytest.mark.slow
def test_the_s5_times_z2_regular_lattice(s5_times_z2):
    # order 240, at the order bound, on its regular representation (n = 240),
    # its 535 subgroups in 57 conjugacy classes: about 73 s and 2.1 GB at one
    # BLAS thread on a 2-core host.  Its commutant kernels' splits meet near
    # collisions, whose pairs share a block rather than fail the draw; the
    # worst residual reads 5.5e-13
    subgroups = groups.enumerate_subgroups(s5_times_z2, order_bound=s5_times_z2.order)
    report = galois.galois_map(StarAlgebra.full(240), reps.regular_rep(s5_times_z2),
                               subgroups=subgroups)
    assert len(report.rows) == 535
    assert report.proper and report.injective and report.violations == []
    assert all(r.bicommutant_ok for r in report.rows)
    assert max(r.bicommutant_residual for r in report.rows) <= 1e-11


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


def _dropping_a_member(rows, member=-1):
    """A stand-in for ``ncprob.conditional_expectation`` that, on the interning
    probe for a subgroup whose members are in ``rows``, averages over every
    member but ``members[member]``, still dividing by |H|."""
    honest = ncprob.conditional_expectation

    def expectation(x, rep, sub):
        probe = galois._Interner(rep.dim ** 2).probe.reshape(rep.dim, rep.dim)
        if sub.members not in rows or np.shape(x) != probe.shape or not np.array_equal(x, probe):
            return honest(x, rep, sub)
        mats = rep.matrices[np.delete(np.array(sub.members), member)]
        return linalg.sandwich_sum(mats, x, mats.conj().transpose(0, 2, 1)) / sub.order
    return expectation


def test_a_row_whose_expectation_drops_a_member_raises_and_is_not_written(
        s3, monkeypatch, tmp_path):
    # negative control: E_H of the first conjugate row, S3's second order-2
    # subgroup, averages over its identity alone, so y fails to commute with
    # the unitary of the subgroup's generator
    subs = groups.enumerate_subgroups(s3)
    assert [r for r, _ in groups.subgroup_classes(s3, subs)][:3] == [0, 1, 1]
    monkeypatch.setattr(ncprob, "conditional_expectation", _dropping_a_member({subs[2].members}))
    made = []

    class Recorded(galois.GaloisReport):
        def __init__(self, **fields):
            super().__init__(**fields)
            made.append(self)

    monkeypatch.setattr(galois, "GaloisReport", Recorded)
    fixed = kernel_reference.record_fixed_algebras(monkeypatch)
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


@pytest.mark.parametrize("member", [0, -1], ids=["identity", "last"])
def test_an_expectation_that_drops_a_member_fails_every_row_of_s4(s4, monkeypatch, member):
    # negative controls on each non-trivial subgroup of S4 regular, alone in
    # its lattice: E_H averaged over every member but the identity, or but
    # the last, leaves the row's own certificate above the bound
    m, rep = StarAlgebra.full(24), reps.regular_rep(s4)
    subs = [h for h in groups.enumerate_subgroups(s4) if h.order > 1]
    monkeypatch.setattr(ncprob, "conditional_expectation",
                        _dropping_a_member({h.members for h in subs}, member))
    for h in subs:
        with pytest.raises(ClosureFailed, match="fails to commute"):
            galois.galois_map(m, rep, subgroups=[h])


@pytest.mark.parametrize("doctor, match", [
    (lambda patch: patch.setattr(algebras, "_character_count", lambda rep, sub, _f=(
        algebras._character_count): _f(rep, sub) + 1.0), "the character formula gives"),
    (lambda patch: patch.setattr(galois, "random_split", lambda *a, _f=linalg.random_split, **k:
                                 [np.hstack(_f(*a, **k))]), "isotypic block"),
], ids=["count-plus-one", "isotypic-blocks-merged"])
def test_a_doctored_character_count_fails_the_isotypic_certificate(s3, monkeypatch, doctor,
                                                                   match):
    # negative controls for the dimension certificate on S3 regular: a
    # character count one too large disagrees with sum m^2 read off the first
    # commutant, and the isotypic blocks of an order-2 subgroup merged into
    # one carry span U(H) = 1 + 1 dimensions, not a square
    doctor(monkeypatch)
    with pytest.raises(DecompositionFailed, match=match):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))


def _merging_isotypic_draws(monkeypatch, merged: int) -> list:
    """Patch ``linalg.spectral_blocks`` so that the first ``merged`` splits
    after the first join their first two blocks, as a near collision would;
    returns the block count of every call.  In the row of one class the
    first split is the commutant kernel's and the rest are the isotypic
    draws of ``_require_isotypic_count``."""
    calls, honest = [], linalg.spectral_blocks

    def colliding(h, tol=linalg.DEFAULT_TOL):
        blocks = honest(h, tol)
        calls.append(len(blocks))
        if 1 < len(calls) <= 1 + merged:
            blocks = [np.hstack(blocks[:2]), *blocks[2:]]
        return blocks

    monkeypatch.setattr(linalg, "spectral_blocks", colliding)
    return calls


def _s3_regular_on_an_order_2_subgroup(s3):
    """The report of S3 regular on one order-2 subgroup, whose z splits into
    the trivial and sign components, of rank 3 each; merged they carry span
    U(H) = 1 + 1 dimensions, not a square."""
    reps.character_table(s3)   # no split of the class sums below
    sub = next(h for h in groups.enumerate_subgroups(s3) if h.order == 2)
    return galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3), subgroups=[sub])


def test_a_merged_isotypic_draw_is_redrawn(s3, monkeypatch):
    honest = _s3_regular_on_an_order_2_subgroup(s3)
    calls = _merging_isotypic_draws(monkeypatch, merged=1)
    redrawn = _s3_regular_on_an_order_2_subgroup(s3)
    assert len(calls) == 3 and calls[1:] == [2, 2]
    assert redrawn.rows == honest.rows and redrawn.violations == []


def test_a_merged_isotypic_split_on_every_draw_fails_the_row(s3, monkeypatch):
    calls = _merging_isotypic_draws(monkeypatch, merged=linalg._MAX_RESAMPLES)
    with pytest.raises(DecompositionFailed, match="isotypic block of rank 6"):
        _s3_regular_on_an_order_2_subgroup(s3)
    assert len(calls) == 1 + linalg._MAX_RESAMPLES


def test_a_failing_representative_fails_each_transported_row(s3, monkeypatch):
    # negative control: the bicommutant test of the representative of S3's
    # three order-2 subgroups fails; each of the three rows records its own
    # violation with its own members and its representative's dimension, and
    # the run completes
    honest = galois._solve_class
    calls = []

    def failing(m, pi, subgroup, mode, count, tol):
        calls.append(subgroup.order)
        found = honest(m, pi, subgroup, mode, count, tol)
        # (M^H)' = U(H)'' is the span of U(H), of dimension 2
        return (found[0], False, 0.5, 2) if subgroup.order == 2 else found

    monkeypatch.setattr(galois, "_solve_class", failing)
    report = galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3))
    order_two = [r.subgroup.members for r in report.rows if r.subgroup.order == 2]
    assert calls == [1, 2, 3, 6]
    assert report.violations == [("bicommutant", members, 0.5) for members in order_two]
    assert [(r.fixed_dim, r.bicommutant_ok, r.bicommutant_residual, r.commutant_dim)
            for r in report.rows if r.subgroup.order == 2] == [(18, False, 0.5, 2)] * 3
    assert all(r.bicommutant_ok for r in report.rows if r.subgroup.order != 2)


def test_a_subgroup_given_twice_is_refused(s3):
    # collision candidates are the pairs within a class over the present
    # irreps, which holds only for distinct subgroups
    order_two = [s for s in groups.enumerate_subgroups(s3) if s.order == 2]
    with pytest.raises(ValueError, match="given twice"):
        galois.galois_map(StarAlgebra.full(6), reps.regular_rep(s3),
                          subgroups=[order_two[0], order_two[1], order_two[0]])


def test_transport_into_a_non_invariant_algebra_is_refused(s3, monkeypatch):
    # M = M2 + C on the points {0, 1} | {2} is invariant under the swap of 0
    # and 1 (element 2) but not under the elements that carry it to the swap
    # of 1 and 2, so M^{<(12)>} is not U_g M^{<(01)>} U_g*: the lattice's one
    # invariance check, on the subgroup its rows and conjugations generate,
    # names S3's generator 1, the swap of 1 and 2, before any class is solved
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    e = np.eye(3)
    m = StarAlgebra.from_span([np.outer(e[a], e[b]) for a in (0, 1) for b in (0, 1)]
                              + [np.outer(e[2], e[2])], 3)
    swap01, swap12 = groups.Subgroup(s3, (0, 2)), groups.Subgroup(s3, (0, 1))
    assert [r for r, _ in groups.subgroup_classes(s3, [swap01, swap12])] == [0, 0]
    alone = galois.galois_map(m, perm, subgroups=[swap01])
    assert [r.fixed_dim for r in alone.rows] == [3]
    calls = _counted(monkeypatch, (galois, "_solve_class"))
    assert s3.generators == (1, 2)
    for subgroups in ([swap01, swap12], None):
        with pytest.raises(NotInvariantAlgebra, match="conjugation by element 1 "):
            galois.galois_map(m, perm, subgroups=subgroups)
    assert calls == {"_solve_class": 0}
