import json
import os
import subprocess
import sys

import numpy as np
import pytest
from kernel_reference import (
    conditional_expectation_by_loop,
    maximally_mixed,
    random_faithful,
    rotated,
    seeded_unitary,
)

from ncgalois import algebras, groups, ncprob, reporting, reps
from ncgalois.algebras import StarAlgebra
from ncgalois.errors import NotAState, NotFaithful, ParentMismatch
from ncgalois.linalg import dagger, frob
from ncgalois.ncprob import (
    State,
    average_state,
    conditional_expectation,
    convergence_check,
    filtration_from_chain,
    independence_check,
    martingale_from,
    verify_cond_exp_axioms,
)


@pytest.fixture(scope="module")
def s3_perm(s3):
    return reps.permutation_rep(s3, groups.symmetric_action(3))


@pytest.fixture(scope="module")
def s3_subgroups(s3):
    return groups.enumerate_subgroups(s3)


@pytest.fixture(scope="module")
def a3(s3_subgroups):
    return next(s for s in s3_subgroups if s.order == 3)


def unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# -- states -------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(NotAState):
        State(np.eye(2))                       # trace 2
    with pytest.raises(NotAState):
        State(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
    with pytest.raises(NotAState):
        State(np.diag([1.5, -0.5]))            # negative eigenvalue
    pure = State(np.diag([1.0, 0.0]))
    assert not pure.faithful
    with pytest.raises(NotFaithful):
        pure.require_faithful()
    assert maximally_mixed(3).faithful


def test_average_state_orbit(s3_perm):
    psi = State(np.diag([1.0, 0.0, 0.0]))
    avg = average_state(psi, s3_perm)
    np.testing.assert_allclose(avg.density, np.eye(3) / 3.0, atol=1e-14)
    assert avg.faithful
    # invariance: trace(rho' U A U*) == trace(rho' A)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for u in s3_perm.matrices:
        lhs = avg.expect(u @ a @ dagger(u))
        assert abs(lhs - avg.expect(a)) < 1e-12


def test_average_state_fixed_point(s3_perm):
    inv = State(np.eye(3) / 3.0)
    out = average_state(inv, s3_perm)
    np.testing.assert_allclose(out.density, inv.density)


def test_averaging_preserves_faithfulness(s3_perm, rng):
    psi = random_faithful(3, rng)
    assert average_state(psi, s3_perm).faithful


# -- conditional expectations -------------------------------------------------


def test_cond_exp_trivial_subgroup(s3_perm, s3, rng):
    trivial = groups.Subgroup(s3, (s3.identity,))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(conditional_expectation(a, s3_perm, trivial), a)


def test_cond_exp_orbit_average(s3_perm, a3):
    out = conditional_expectation(unit(3, 0, 0), s3_perm, a3)
    np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-14)


def test_cond_exp_unital(s3_perm, a3):
    np.testing.assert_allclose(
        conditional_expectation(np.eye(3), s3_perm, a3), np.eye(3)
    )


def test_cond_exp_lands_in_fixed_algebra(s3_perm, s3, s3_subgroups, rng):
    m = StarAlgebra.full(3)
    for sub in s3_subgroups:
        fixed = algebras.fixed_point_algebra(m, s3_perm, sub)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            e = conditional_expectation(a, s3_perm, sub)
            assert fixed.membership_residual(e) < 1e-10
            again = conditional_expectation(e, s3_perm, sub)
            assert frob(again - e) < 1e-12  # idempotent


def test_axioms_pass_on_invariant_state(s3_perm, a3):
    phi = average_state(State(np.diag([0.5, 0.3, 0.2])), s3_perm)
    filtration = filtration_from_chain(StarAlgebra.full(3), s3_perm, [a3])
    report = verify_cond_exp_axioms(filtration, 0, phi, seed=1, samples=30)
    assert report.ok, report.violations
    assert report.residuals["contraction_gap"] <= 1e-9
    assert report.residuals["schwarz_min_eig"] >= -1e-10


def test_axioms_flag_noninvariant_state(s3_perm, a3):
    phi = State(np.diag([0.6, 0.3, 0.1]))      # not permutation invariant
    filtration = filtration_from_chain(StarAlgebra.full(3), s3_perm, [a3])
    report = verify_cond_exp_axioms(filtration, 0, phi, seed=1)
    names = [v[0] for v in report.violations]
    assert "state_preservation" in names
    assert "contraction" not in names           # only axiom (iii) must fail


def test_a_doctored_expectation_fails_every_axiom_in_table_order(s3_perm, a3, monkeypatch):
    # negative control: 2 E(x)^T breaks every axiom; each violation carries
    # its residual, in the order of the checks
    phi = average_state(State(np.diag([0.5, 0.3, 0.2])), s3_perm)
    filtration = filtration_from_chain(StarAlgebra.full(3), s3_perm, [a3])
    honest = ncprob.conditional_expectation
    monkeypatch.setattr(ncprob, "conditional_expectation",
                        lambda x, rep, sub: 2 * np.swapaxes(honest(x, rep, sub), -1, -2))
    report = verify_cond_exp_axioms(filtration, 0, phi, seed=1)
    residual_of = {"contraction": "contraction_gap", "schwarz": "schwarz_min_eig"}
    assert [name for name, _ in report.violations] == [
        "contraction", "identity_on_subalgebra", "state_preservation", "idempotence",
        "unitality", "bimodule", "schwarz"]
    assert list(report.residuals) == [residual_of.get(name, name) for name, _ in report.violations]
    for name, value in report.violations:
        assert value == report.residuals[residual_of.get(name, name)]
    assert report.residuals["schwarz_min_eig"] < -1e-10
    assert min(v for name, v in report.violations if name != "schwarz") > 1e-9


def _per_matrix_axiom_table(rep, subgroup, phi, seed, samples=20):
    # the audit one matrix at a time, drawing in the same order
    n = rep.dim
    rng = np.random.default_rng(seed)
    e = lambda x: conditional_expectation_by_loop(x, rep, subgroup)
    panel = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(samples)]
    fixed = algebras.fixed_point_algebra(StarAlgebra.full(n), rep, subgroup)
    identity = bimodule = 0.0
    for _ in range(samples):
        a = fixed.from_coordinates(rng.standard_normal(fixed.dim)
                                   + 1j * rng.standard_normal(fixed.dim))
        b = fixed.from_coordinates(rng.standard_normal(fixed.dim)
                                   + 1j * rng.standard_normal(fixed.dim))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        identity = max(identity, frob(e(a) - a), frob(e(b) - b))
        bimodule = max(bimodule, frob(e(a @ x @ b) - a @ e(x) @ b))
    schwarz = 0.0
    for x in panel:
        gap = e(dagger(x) @ x) - dagger(e(x)) @ e(x)
        schwarz = min(schwarz, np.linalg.eigvalsh((gap + dagger(gap)) / 2.0)[0])
    opnorm = lambda x: np.linalg.norm(x, 2)
    return {
        "contraction_gap": max(0.0, max(opnorm(e(x)) - opnorm(x) for x in panel)),
        "identity_on_subalgebra": identity,
        "state_preservation": max(abs(phi.expect(e(x)) - phi.expect(x)) for x in panel),
        "idempotence": max(frob(e(e(x)) - e(x)) for x in panel),
        "unitality": frob(e(np.eye(n)) - np.eye(n)),
        "bimodule": bimodule,
        "schwarz_min_eig": schwarz,
    }


@pytest.fixture(scope="module")
def a4_tower():
    """A4 regular (n = 12), its chain 12 > 4 > 2 > 1, an A4-invariant faithful
    state and the chain's filtration."""
    a4 = groups.alternating_group(4)
    rep = reps.regular_rep(a4)
    subs = groups.enumerate_subgroups(a4)
    v4 = next(s for s in subs if s.order == 4)
    z2 = next(s for s in subs if s.order == 2 and v4.contains(s))
    chain = [subs[-1], v4, z2, groups.Subgroup(a4, (a4.identity,))]
    assert [h.order for h in chain] == [12, 4, 2, 1]
    phi = average_state(random_faithful(12, np.random.default_rng(4)), rep)
    return rep, chain, phi, filtration_from_chain(StarAlgebra.full(12), rep, chain)


def test_stacked_axiom_table_equals_the_per_matrix_loop(a4_tower):
    rep, chain, phi, filtration = a4_tower
    for t, h in enumerate(chain):
        table = verify_cond_exp_axioms(filtration, t, phi, seed=9).residuals
        reference = _per_matrix_axiom_table(rep, h, phi, seed=9)
        assert table.keys() == reference.keys()
        for name, value in reference.items():
            assert abs(table[name] - value) <= 1e-14, (h.order, name)


def test_the_audit_applies_e_to_at_most_samples_matrices(a4_tower, monkeypatch):
    # a panel of fixed size: no call applies E to more than `samples` matrices
    rep, chain, phi, filtration = a4_tower
    honest, sizes = ncprob.conditional_expectation, []

    def counted(x, rep, sub):
        sizes.append(len(x) if np.ndim(x) == 3 else 1)
        return honest(x, rep, sub)

    monkeypatch.setattr(ncprob, "conditional_expectation", counted)
    for t in range(len(chain)):
        assert verify_cond_exp_axioms(filtration, t, phi, seed=9, samples=5).ok
    assert sizes and max(sizes) == 5


def test_a_defect_along_one_matrix_unit_is_flagged_on_the_seeded_panel(a4_tower, monkeypatch):
    # negative control: E exact except along the unit E_01, where it adds
    # 1e-6 x_01; every seeded draw has a component along E_01, so a defect
    # in that one direction shows on the fixed panel
    rep, chain, phi, filtration = a4_tower
    honest = ncprob.conditional_expectation

    def doctored(x, rep, sub):
        out = honest(x, rep, sub)
        out[..., 0, 1] += 1e-6 * np.asarray(x)[..., 0, 1]
        return out

    monkeypatch.setattr(ncprob, "conditional_expectation", doctored)
    for t in range(len(chain)):
        names = [name for name, _ in verify_cond_exp_axioms(filtration, t, phi, seed=9).violations]
        assert {"identity_on_subalgebra", "state_preservation", "idempotence",
                "bimodule"} <= set(names), (t, names)


def test_an_idempotent_onto_a_rotated_algebra_fails_the_identity_on_the_subalgebra(
        a4_tower, monkeypatch):
    # negative control: W E(W* x W) W* is a unital, positive, idempotent map
    # onto W M^H W*; only an independent source of M^H (the filtration's
    # basis, not images of E) tells it from E
    rep, chain, phi, filtration = a4_tower
    honest, w = ncprob.conditional_expectation, seeded_unitary(rep.dim)
    monkeypatch.setattr(ncprob, "conditional_expectation",
                        lambda x, rep, sub: w @ honest(dagger(w) @ x @ w, rep, sub) @ dagger(w))
    names = [name for name, _ in verify_cond_exp_axioms(filtration, 1, phi, seed=9).violations]
    assert names == ["identity_on_subalgebra", "state_preservation", "bimodule"]


def _permutation_reps(fixture_groups):
    """The regular representation of every fixture group, and S3 and S4 on their points."""
    yield from (reps.regular_rep(g) for g in fixture_groups.values())
    for k in (3, 4):
        yield reps.permutation_rep(groups.symmetric_group(k), groups.symmetric_action(k))


def test_the_orbital_mean_equals_the_loop_on_every_subgroup(fixture_groups, rng, monkeypatch):
    # E_H on a permutation representation takes no sandwich sum, and equals
    # the plain loop on one matrix and on a stack
    def refused(*args):
        raise AssertionError("a permutation representation took the sandwich sum")

    monkeypatch.setattr(ncprob, "sandwich_sum", refused)
    for rep in _permutation_reps(fixture_groups):
        assert rep.action is not None
        n = rep.dim
        one = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        for sub in groups.enumerate_subgroups(rep.group):
            for x in (one, stack):
                got = conditional_expectation(x, rep, sub)
                assert got.shape == x.shape
                want = conditional_expectation_by_loop(x, rep, sub)
                assert frob(got - want) <= 1e-14 * max(1.0, frob(x)), (n, sub.members)


def test_a_rotated_regular_representation_agrees_with_the_conjugated_orbital_mean(s4, rng):
    # W U W* has no point table, so E_H is the sandwich sum; it must equal
    # W E_H(W* X W) W* with E_H the orbital mean of the regular representation
    rep = reps.regular_rep(s4)
    turned, w = rotated(rep), seeded_unitary(rep.dim)
    assert turned.action is None
    x = rng.standard_normal((2, 24, 24)) + 1j * rng.standard_normal((2, 24, 24))
    for sub in groups.enumerate_subgroups(s4):
        want = w @ conditional_expectation(dagger(w) @ x @ w, rep, sub) @ dagger(w)
        assert frob(conditional_expectation(x, turned, sub) - want) <= 1e-13 * frob(x)


def test_contraction_on_large_panel(s3_perm, a3, rng):
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        e = conditional_expectation(a, s3_perm, a3)
        assert np.linalg.norm(e, 2) <= np.linalg.norm(a, 2) + 1e-10


# -- independence --------------------------------------------------------------


def tensor_factor_algebras():
    m2 = StarAlgebra.full(2)
    left = StarAlgebra.from_span([np.kron(b, np.eye(2)) for b in m2.basis], 4)
    right = StarAlgebra.from_span([np.kron(np.eye(2), b) for b in m2.basis], 4)
    return left, right


def test_independence_product_state():
    left, right = tensor_factor_algebras()
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    report = independence_check(left, right, State(rho))
    assert report.independent and report.e_independent and report.implication_ok


def test_independence_fails_entangled():
    left, right = tensor_factor_algebras()
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = 0.5 * np.outer(v, v.conj()) + 0.5 * np.eye(4) / 4.0
    report = independence_check(left, right, State(rho))
    assert not report.independent
    assert report.commutation_residual < 1e-12      # commutation still holds
    assert report.factorization_residual > 1e-3     # factorization is what breaks
    assert report.implication_ok


def test_independence_same_algebra_fails_factorization():
    diag = StarAlgebra.diagonal(2)
    rho = np.diag([0.7, 0.3]).astype(complex)
    report = independence_check(diag, diag, State(rho))
    assert report.commutation_residual < 1e-12
    assert not report.independent


def test_e_independence_with_group_expectation(s3, s3_perm, a3):
    # E onto the S3-fixed algebra; tensor-style independence is not available,
    # but the implication check must never fire backwards
    left = StarAlgebra.diagonal(3)
    right = StarAlgebra.diagonal(3)
    phi = State(np.eye(3) / 3.0)
    top = groups.Subgroup(s3, tuple(range(6)))
    expectation = lambda x: conditional_expectation(x, s3_perm, top)
    report = independence_check(left, right, phi, expectation=expectation)
    assert report.implication_ok


def test_independence_takes_each_factor_expectation_once():
    # k1 k2 + k1 + k2 = 99 expectations on two full M3 algebras, not 3 k1 k2 = 243
    m3 = StarAlgebra.full(3)
    phi = State(np.diag([0.5, 0.3, 0.2]).astype(complex))
    calls = []

    def expectation(x):
        calls.append(x)
        return phi.expect(x) * np.eye(3, dtype=np.complex128)

    report = independence_check(m3, m3, phi, expectation=expectation)
    assert len(calls) == 99
    assert report == independence_check(m3, m3, phi)


# -- filtrations and martingales -----------------------------------------------


def s3_chain(s3, s3_subgroups):
    a3 = next(s for s in s3_subgroups if s.order == 3)
    return [groups.Subgroup(s3, tuple(range(6))), a3,
            groups.Subgroup(s3, (s3.identity,))]


def test_filtration_from_chain(s3, s3_perm, s3_subgroups):
    chain = s3_chain(s3, s3_subgroups)
    filt = filtration_from_chain(StarAlgebra.full(3), s3_perm, chain)
    dims = [a.dim for a in filt.algebras]
    assert dims == [2, 3, 9]
    assert filt.dense_in_ambient


def test_filtration_rejects_nondecreasing_chain(s3, s3_perm, s3_subgroups):
    a3 = next(s for s in s3_subgroups if s.order == 3)
    bad = [groups.Subgroup(s3, (s3.identity,)), a3]
    with pytest.raises(ParentMismatch):
        filtration_from_chain(StarAlgebra.full(3), s3_perm, bad)


def test_martingale_spec_example(s3, s3_perm, s3_subgroups):
    chain = s3_chain(s3, s3_subgroups)
    filt = filtration_from_chain(StarAlgebra.full(3), s3_perm, chain)
    mart = martingale_from(unit(3, 0, 0), filt)
    np.testing.assert_allclose(mart.elements[0], np.eye(3) / 3.0, atol=1e-14)
    np.testing.assert_allclose(mart.elements[1], np.eye(3) / 3.0, atol=1e-14)
    np.testing.assert_allclose(mart.elements[2], unit(3, 0, 0))

    conv = convergence_check(mart, State(np.eye(3) / 3.0))
    np.testing.assert_allclose(conv.moments, (1 / 9, 1 / 9, 1 / 3))
    assert conv.nondecreasing
    assert conv.terminal_residual == 0.0
    assert conv.chain_ends_trivially


def test_constant_martingale(s3, s3_perm, s3_subgroups):
    chain = s3_chain(s3, s3_subgroups)
    filt = filtration_from_chain(StarAlgebra.full(3), s3_perm, chain)
    x = np.eye(3, dtype=complex) + np.ones((3, 3), dtype=complex)  # S3-fixed
    mart = martingale_from(x, filt)
    for el in mart.elements:
        assert frob(el - x) < 1e-12
    conv = convergence_check(mart, State(np.eye(3) / 3.0))
    assert max(conv.moments) - min(conv.moments) < 1e-12


def test_tower_property_random(s3, s3_perm, s3_subgroups, rng):
    chain = s3_chain(s3, s3_subgroups)
    for _ in range(50):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        inner = conditional_expectation(x, s3_perm, chain[1])
        outer = conditional_expectation(inner, s3_perm, chain[0])
        direct = conditional_expectation(x, s3_perm, chain[0])
        assert frob(outer - direct) < 1e-12


def test_second_moments_monotone_random(s3, s3_perm, s3_subgroups, rng):
    chain = s3_chain(s3, s3_subgroups)
    filt = filtration_from_chain(StarAlgebra.full(3), s3_perm, chain)
    phi = State(np.eye(3) / 3.0)
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        conv = convergence_check(martingale_from(x, filt), phi)
        assert conv.nondecreasing
        assert conv.terminal_residual < 1e-10


def test_convergence_flags_noninvariant_state(s3, s3_perm, s3_subgroups):
    chain = s3_chain(s3, s3_subgroups)
    filt = filtration_from_chain(StarAlgebra.full(3), s3_perm, chain)
    mart = martingale_from(unit(3, 0, 0), filt)
    conv = convergence_check(mart, State(np.diag([0.6, 0.3, 0.1])))
    assert not conv.state_invariant   # negative control is reported, not fatal


# the CLI in a fresh process: argv holds its arguments, stderr gets the
# process's max RSS in KiB, read as VmHWM, the peak of its own memory map
# (ru_maxrss keeps the peak of the forking test process across exec)
_CLI_IN_A_PROCESS = """
import sys
from ncgalois import cli
status = cli.main(sys.argv[1:])
print(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")).split()[1],
      file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.slow
def test_the_a5_regular_tower_through_the_cli(tmp_path):
    # A5 regular (n = 60), chain 60 > 12 > 4 > 1 (fixed dims 60, 300, 900,
    # 3600), through `cli.main` in its own process: no violation, and under
    # 0.75 GB max RSS (about 0.41 GB, most of it the filtration's stored bases)
    a5 = groups.alternating_group(5)
    rep = reps.regular_rep(a5)
    subs = groups.enumerate_subgroups(a5, order_bound=a5.order)
    a4 = next(s for s in subs if s.order == 12)
    v4 = next(s for s in subs if s.order == 4 and a4.contains(s))
    x = np.random.default_rng(5).standard_normal((60, 60)).astype(complex)
    files = {"group": reporting.group_to_json(a5), "representation": reporting.rep_to_json(rep),
             "x": reporting.matrix_to_json(x),
             "state": reporting.matrix_to_json(np.eye(60, dtype=complex) / 60)}
    for field, payload in files.items():
        (tmp_path / f"{field}.json").write_text(json.dumps(payload))
    spec = {field: f"{field}.json" for field in files}
    spec.update(chain=[list(range(60)), list(a4.members), list(v4.members), [a5.identity]],
                seed=3)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    src = os.path.dirname(os.path.dirname(ncprob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CLI_IN_A_PROCESS, "martingale",
                           str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) <= 0.75e9 / 1024            # KiB
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["violations"] == []
    assert len(report["report"]["axiom_tables"]) == 4
    assert report["report"]["top_algebra_equals_ambient"]
    assert report["report"]["terminal_residual"] <= 1e-10
