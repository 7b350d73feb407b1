"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, in the assertions.  Run with

    pytest tests/test_acceptance.py -v -s

or standalone:

    python -m tests.test_acceptance
"""

import json
import os
import subprocess
import sys
import time

import kernel_reference
import numpy as np
import pytest

from ncgalois import algebras, crossed, galois, groups, modular, ncprob, reporting, reps
from ncgalois.algebras import StarAlgebra
from ncgalois.linalg import frob
from ncgalois.ncprob import State

FIXTURE_NAMES = ("Z2", "Z4", "Z6", "S3", "D4", "Q8", "A4", "S4")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# -- 1 -------------------------------------------------------------------------


def test_criterion_1_peter_weyl_completeness():
    reps._TABLE_CACHE.clear()
    start = time.perf_counter()
    worst = 0.0
    for name in FIXTURE_NAMES:
        group = groups.FIXTURE_GROUPS[name]()
        table = reps.irrep_table(group)
        assert sum(d * d for d in table.dims) == group.order  # exact integers
        basis, labels = reps.peter_weyl_basis(table)
        assert len(labels) == group.order
        gram = basis @ basis.conj().T / group.order
        worst = max(worst, float(np.max(np.abs(gram - np.eye(group.order)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "Peter-Weyl completeness", ok,
            f"max orthonormality residual {worst:.2e}, runtime {elapsed:.2f}s "
            f"over {len(FIXTURE_NAMES)} groups")


# -- 2 -------------------------------------------------------------------------


def test_criterion_2_schur_orthogonality():
    worst = 0.0
    pairs = 0
    for name in FIXTURE_NAMES:
        table = reps.irrep_table(groups.FIXTURE_GROUPS[name]())
        for i, r1 in enumerate(table.irreps):
            for j, r2 in enumerate(table.irreps):
                out = reps.schur_check(r1, r2, tol=1e-10)
                pairs += 1
                worst = max(worst, out.max_deviation)
                assert out.matches_delta_pattern if i == j else out.matches_zero
    ok = worst < 1e-10
    _report(2, "Schur orthogonality", ok,
            f"max deviation {worst:.2e} over {pairs} irrep pairs")


# -- 3 -------------------------------------------------------------------------


def test_criterion_3_bicommutant_selftest():
    rng = np.random.default_rng(0xB1C0)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(k)]
        a = algebras.algebra_from_generators(gens, n)
        twice = algebras.commutant(algebras.commutant(a))
        res = max(
            twice.subspace().containment_residual(a.subspace()),
            a.subspace().containment_residual(twice.subspace()),
        )
        assert twice.dim == a.dim, f"trial {trial}: dim {twice.dim} != {a.dim}"
        worst = max(worst, res)
    ok = worst < 1e-9
    _report(3, "bicommutant self-test", ok,
            f"max subspace residual {worst:.2e} over 200 generated algebras")


# -- 4 -------------------------------------------------------------------------


def test_criterion_4_galois_inner_case():
    worst_bicom = 0.0
    s4_elapsed = 0.0
    rows_total = 0
    for name in FIXTURE_NAMES:
        group = groups.FIXTURE_GROUPS[name]()
        reg = reps.regular_rep(group)
        m = StarAlgebra.full(group.order)
        start = time.perf_counter()
        report = galois.galois_map(m, reg, mode="inner")
        elapsed = time.perf_counter() - start
        if name == "S4":
            s4_elapsed = elapsed
        assert report.proper, name
        assert report.injective, name
        assert not report.violations, (name, report.violations)
        assert all(r.bicommutant_ok for r in report.rows), name
        worst_bicom = max(worst_bicom,
                          max(r.bicommutant_residual for r in report.rows))
        rows_total += len(report.rows)
    ok = worst_bicom < 1e-9 and s4_elapsed < 60.0
    _report(4, "Galois correspondence, inner case", ok,
            f"{rows_total} subgroups across {len(FIXTURE_NAMES)} lattices, "
            f"max relative-bicommutant residual {worst_bicom:.2e}, "
            f"S4 runtime {s4_elapsed:.1f}s")


# -- 5 -------------------------------------------------------------------------


def test_criterion_5_conditional_expectation_axioms():
    s3 = groups.symmetric_group(3)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    phi = ncprob.average_state(State(np.diag([0.5, 0.3, 0.2])), perm)
    assert phi.faithful
    worst = 0.0
    for sub in groups.enumerate_subgroups(s3):
        filtration = ncprob.filtration_from_chain(StarAlgebra.full(3), perm, [sub])
        report = ncprob.verify_cond_exp_axioms(filtration, 0, phi, seed=17,
                                               samples=40, bound=1e-9)
        assert report.ok, (sub.members, report.violations)
        worst = max(
            worst,
            report.residuals["contraction_gap"],
            report.residuals["identity_on_subalgebra"],
            report.residuals["state_preservation"],
            report.residuals["idempotence"],
            report.residuals["bimodule"],
            -report.residuals["schwarz_min_eig"],
        )
    # negative control: a non-invariant state must fail axiom (iii) and
    # nothing else on a subgroup acting non-trivially
    bad = State(np.diag([0.6, 0.3, 0.1]))
    top = groups.Subgroup(s3, tuple(range(6)))
    filtration = ncprob.filtration_from_chain(StarAlgebra.full(3), perm, [top])
    control = ncprob.verify_cond_exp_axioms(filtration, 0, bad, seed=17)
    names = [v[0] for v in control.violations]
    negative_ok = "state_preservation" in names
    ok = worst < 1e-9 and negative_ok
    _report(5, "conditional-expectation axioms", ok,
            f"max residual {worst:.2e} over 6 subgroups; "
            f"negative control flagged: {negative_ok}")


# -- 6 -------------------------------------------------------------------------


def _subgroup_by_members(group, members):
    return groups.Subgroup(group, tuple(members))


def _chains():
    s3 = groups.symmetric_group(3)
    s3_subs = groups.enumerate_subgroups(s3)
    a3 = next(s for s in s3_subs if s.order == 3)
    yield s3, [
        _subgroup_by_members(s3, range(6)),
        a3,
        _subgroup_by_members(s3, (s3.identity,)),
    ]

    d4 = groups.dihedral_group(4)
    d4_subs = groups.enumerate_subgroups(d4)
    c4 = next(s for s in d4_subs
              if s.order == 4 and any(d4.element_order(m) == 4 for m in s.members))
    c2 = next(s for s in d4_subs if s.order == 2 and c4.contains(s))
    yield d4, [
        _subgroup_by_members(d4, range(8)),
        c4,
        c2,
        _subgroup_by_members(d4, (d4.identity,)),
    ]

    s4 = groups.symmetric_group(4)
    s4_subs = groups.enumerate_subgroups(s4)
    a4 = next(s for s in s4_subs if s.order == 12)
    v4 = next(s for s in s4_subs
              if s.order == 4 and a4.contains(s)
              and groups.is_normal(s))
    yield s4, [
        _subgroup_by_members(s4, range(24)),
        a4,
        v4,
        _subgroup_by_members(s4, (s4.identity,)),
    ]


def test_criterion_6_martingale_suite():
    rng = np.random.default_rng(0x9A57)
    tower_worst = 0.0
    terminal_worst = 0.0
    all_monotone = True
    chains_run = 0
    for group, chain in _chains():
        assert len(chain) >= 3
        reg = reps.regular_rep(group)
        m = StarAlgebra.full(group.order)
        filt = ncprob.filtration_from_chain(m, reg, chain)
        phi = kernel_reference.maximally_mixed(group.order)
        for _ in range(5):
            n = group.order
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for s in range(len(chain)):
                for t in range(s + 1, len(chain)):
                    inner = ncprob.conditional_expectation(x, reg, chain[t])
                    outer = ncprob.conditional_expectation(inner, reg, chain[s])
                    direct = ncprob.conditional_expectation(x, reg, chain[s])
                    tower_worst = max(tower_worst, frob(outer - direct))
            mart = ncprob.martingale_from(x, filt)
            conv = ncprob.convergence_check(mart, phi)
            all_monotone = all_monotone and conv.nondecreasing
            terminal_worst = max(terminal_worst, conv.terminal_residual)
        chains_run += 1
    ok = tower_worst < 1e-9 and all_monotone and terminal_worst < 1e-10
    _report(6, "martingale suite", ok,
            f"{chains_run} chains; tower residual {tower_worst:.2e}, "
            f"moments monotone: {all_monotone}, "
            f"terminal residual {terminal_worst:.2e}")


# -- 7 -------------------------------------------------------------------------


def test_criterion_7_modular_suite():
    rng = np.random.default_rng(0x30DA)
    identity_worst = 0.0
    tt_worst = 0.0
    kms1_worst = 0.0
    kms2_min = np.inf
    cocycle_worst = 0.0
    states_checked = 0
    previous: dict = {}
    for round_ in range(17):
        for n in (2, 3, 4):
            if states_checked >= 50:
                break
            phi = kernel_reference.random_faithful(n, rng)
            md = modular.tomita(modular.gns(StarAlgebra.full(n), phi))
            identity_worst = max(
                identity_worst, max(modular.modular_identity_residuals(md).values())
            )
            tt = modular.tomita_takesaki_residuals(md)
            tt_worst = max(tt_worst, tt["jmj_in_commutant"], tt["flow_invariance"])

            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            kms1_worst = max(kms1_worst,
                             modular.kms_residual(phi.density, a, b, 1.0))
            kms2_min = min(kms2_min,
                           modular.kms_residual(phi.density, a, b, 2.0))

            if n in previous:
                out = modular.connes_cocycle(previous[n], phi.density, 0.8)
                cocycle_worst = max(cocycle_worst, out.worst)
            previous[n] = phi.density
            states_checked += 1
    ok = (identity_worst < 1e-9 and tt_worst < 1e-9 and kms1_worst < 1e-10
          and kms2_min > 1e-3 and cocycle_worst < 1e-9)
    _report(7, "modular suite", ok,
            f"{states_checked} states; identities {identity_worst:.2e}, "
            f"Tomita-Takesaki {tt_worst:.2e}, KMS(beta=1) {kms1_worst:.2e}, "
            f"min KMS(beta=2) {kms2_min:.2e}, cocycles {cocycle_worst:.2e}")


# -- 8 -------------------------------------------------------------------------


def test_criterion_8_crossed_products():
    cov_worst = 0.0

    z1 = groups.cyclic_group(1)
    diag2 = StarAlgebra.diagonal(2)
    act = crossed.ad_action(z1, diag2, np.eye(2, dtype=complex)[None])
    cov_worst = max(cov_worst, crossed.covariance_check(
        crossed.crossed_product(diag2, act)))

    z2 = groups.cyclic_group(2)
    scalars = StarAlgebra.scalars(1)
    act = crossed.ad_action(z2, scalars, np.ones((2, 1, 1), dtype=complex))
    cov_worst = max(cov_worst, crossed.covariance_check(
        crossed.crossed_product(scalars, act)))

    m2 = StarAlgebra.full(2)
    act = crossed.ad_action(z2, m2, np.array([np.eye(2), np.diag([1.0, -1.0])]))
    cov_worst = max(cov_worst, crossed.covariance_check(
        crossed.crossed_product(m2, act)))

    s3 = groups.symmetric_group(3)
    diag3 = StarAlgebra.diagonal(3)
    perm = reps.permutation_rep(s3, groups.symmetric_action(3))
    act = crossed.ad_action(s3, diag3, perm.matrices)
    cov_worst = max(cov_worst, crossed.covariance_check(
        crossed.crossed_product(diag3, act)))

    # the swap example: abelian base, ergodic Z2 swap, crossed product a factor
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    act = crossed.ad_action(z2, diag2, np.array([np.eye(2), swap]))
    cp = crossed.crossed_product(diag2, act)
    cov_worst = max(cov_worst, crossed.covariance_check(cp))
    structure = algebras.block_structure(cp.algebra, seed=8)
    factor_ok = len(structure.blocks) == 1
    ok = cov_worst < 1e-10 and factor_ok
    _report(8, "crossed products", ok,
            f"max covariance residual {cov_worst:.2e}; "
            f"swap crossed product factor: {factor_ok} "
            f"(blocks {structure.blocks})")


# -- 9 -------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    s3 = groups.symmetric_group(3)
    with open(tmp_path / "s3.json", "w") as fh:
        json.dump(reporting.group_to_json(s3), fh)
    reg = reps.regular_rep(s3)
    with open(tmp_path / "s3_reg.json", "w") as fh:
        json.dump(reporting.rep_to_json(reg), fh)
    rho = reporting.matrix_to_json(np.diag([0.5, 0.3, 0.2]).astype(complex))
    specs = {
        "galois": {"representation": "s3_reg.json"},
        "modular": {"state": rho, "seed": 23},
        "irreps": {"group": "s3.json"},
    }
    identical = True
    for command, payload in specs.items():
        spec = tmp_path / f"{command}.spec.json"
        with open(spec, "w") as fh:
            json.dump(payload, fh)
        outputs = []
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / f"{command}.{tag}.json"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "ncgalois.cli", command, str(spec),
                 "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, (command, proc.stdout, proc.stderr)
            outputs.append(out.read_bytes())
        identical = identical and outputs[0] == outputs[1] == outputs[2]
    _report(9, "CLI determinism", identical,
            f"{len(specs)} commands, byte-identical across reruns and "
            "thread counts")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
