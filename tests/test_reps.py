import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import kernel_reference
import numpy as np
import pytest

from ncgalois import groups, linalg, reps
from ncgalois.errors import (
    CenterSplitFailed,
    DecompositionFailed,
    IncompleteTable,
    NotAHomomorphism,
    NotIrreducible,
)
from ncgalois.linalg import dagger, frob


@pytest.fixture(scope="module")
def s3_table(s3):
    return reps.irrep_table(s3)


@pytest.fixture(scope="module")
def s3_perm(s3):
    return reps.permutation_rep(s3, groups.symmetric_action(3))


def test_rep_validation_rejects_non_homomorphism():
    z2 = groups.cyclic_group(2)
    bad = np.array([np.eye(2), np.diag([1.0, 1.0j])])  # order 4 element
    with pytest.raises(NotAHomomorphism):
        reps.UnitaryRep(z2, bad)


@pytest.mark.parametrize("corrupt, message", [
    (lambda act: act[:, [0, 0, 2]], "row 0 of the action is not a permutation"),
    (lambda act: act[[0, 2, 1, 3, 4, 5]], r"action\[1\*2\] != action\[1\]\[action\[2\]\]"),
    (lambda act: act[[1, 0, 2, 3, 4, 5]], "the identity element moves a point"),
], ids=["not-a-permutation", "two-rows-swapped", "identity-moves"])
def test_permutation_rep_checks_the_action_table_exactly(s3, corrupt, message):
    act = groups.symmetric_action(3)
    assert np.array_equal(reps.permutation_rep(s3, act).matrices @ np.arange(3),
                          np.argsort(act, axis=1))
    with pytest.raises(NotAHomomorphism, match=message):
        reps.permutation_rep(s3, corrupt(act))


def _refusal(check, *args) -> str | None:
    """The ``NotAHomomorphism`` message of ``check(*args)``, or None when it accepts."""
    try:
        check(*args)
    except NotAHomomorphism as exc:
        return str(exc)
    return None


def _corrupted_actions(group, act) -> list:
    """Copies of the action table ``act`` with two rows of non-identity elements
    swapped, and with one such row composed with the transposition of points 0, 1."""
    others = [a for a in range(group.order) if a != group.identity]
    out = []
    for a, b in itertools.combinations(others, 2):
        swapped = act.copy()
        swapped[[a, b]] = act[[b, a]]
        out.append(swapped)
    swap = np.arange(act.shape[1])
    swap[[0, 1]] = [1, 0]
    for a in others:
        composed = act.copy()
        composed[a] = act[a][swap]
        out.append(composed)
    return out


def test_the_action_check_on_generators_matches_all_pairs(fixture_groups):
    # permutation_rep checks action[a*s] == action[a][action[s]] on the
    # generators s only, and refuses exactly the tables the all-pairs check
    # refuses, naming a failing pair with s a generator: every fixture's
    # regular action and S3's and S4's point actions, with rows swapped or
    # composed with a transposition, and S3's point action given for Z6 and
    # for relabelled S3 tables
    s3 = fixture_groups["S3"]
    cases = [(g, g.mult) for g in fixture_groups.values()]
    cases += [(fixture_groups[f"S{n}"], groups.symmetric_action(n)) for n in (3, 4)]
    rejected = 0
    for group, act in cases:
        assert _refusal(kernel_reference.check_action_all_pairs, group, act) is None
        assert _refusal(reps.permutation_rep, group, act) is None
        for bad in _corrupted_actions(group, np.asarray(act)):
            verdict = _refusal(kernel_reference.check_action_all_pairs, group, bad)
            found = _refusal(reps.permutation_rep, group, bad)
            assert (found is None) == (verdict is None), (group.order, bad.tolist())
            if found is not None and found.startswith("action["):
                a, s = map(int, re.fullmatch(r"action\[(\d+)\*(\d+)\] != .*", found).groups())
                assert s in group.generators
                assert not np.array_equal(bad[group.mult[a, s]], bad[a][bad[s]])
            rejected += verdict is not None
    relabelled = [groups.FiniteGroup(np.argsort(p)[s3.mult[np.ix_(p, p)]])
                  for p in itertools.permutations(range(6)) if p[0] == 0]
    others = [fixture_groups["Z6"], *relabelled]
    point = groups.symmetric_action(3)
    verdicts = [(_refusal(reps.permutation_rep, g, point) is None,
                 _refusal(kernel_reference.check_action_all_pairs, g, point) is None)
                for g in others]
    assert all(ours == theirs for ours, theirs in verdicts)
    assert verdicts[0] == (False, False) and (True, True) in verdicts
    rejected += sum(not theirs for _, theirs in verdicts)
    assert rejected >= 700


def test_a_permutation_rep_carries_a_read_only_copy_of_its_table(s3):
    # action is set from the checked table, so the cached scan of the dense
    # matrices never runs, and the caller's table stays writable
    act = groups.symmetric_action(3)
    for rep in (reps.permutation_rep(s3, act), reps.regular_rep(s3)):
        assert "action" in vars(rep)
        assert not rep.action.flags.writeable
        assert np.array_equal(rep.matrices @ np.arange(rep.dim), np.argsort(rep.action, axis=1))
    assert act.flags.writeable and reps.permutation_rep(s3, act).action is not act


def _accepts(group, mats) -> bool:
    try:
        reps.UnitaryRep(group, mats)
    except NotAHomomorphism:
        return False
    return True


def test_homomorphism_check_on_generators_matches_all_pairs(fixture_groups):
    # every fixture's regular representation, then every swap of the matrices
    # of two non-identity elements of S3, D4 and Q8
    for name, g in fixture_groups.items():
        mats = reps.regular_rep(g).matrices
        assert _accepts(g, mats) and kernel_reference.is_homomorphism_all_pairs(g, mats), name
    rejected = 0
    for name in ("S3", "D4", "Q8"):
        g = fixture_groups[name]
        mats = reps.regular_rep(g).matrices
        others = [a for a in range(g.order) if a != g.identity]
        for a, b in itertools.combinations(others, 2):
            swapped = mats.copy()
            swapped[[a, b]] = mats[[b, a]]
            verdict = kernel_reference.is_homomorphism_all_pairs(g, swapped)
            assert _accepts(g, swapped) == verdict, (name, a, b)
            rejected += not verdict
    assert rejected > 0
    # r1 <-> r3 is the inversion automorphism of Z4: both checks accept it
    z4 = fixture_groups["Z4"]
    swapped = reps.regular_rep(z4).matrices[[0, 3, 2, 1]]
    assert _accepts(z4, swapped) and kernel_reference.is_homomorphism_all_pairs(z4, swapped)


def test_validating_the_order_48_regular_rep_stays_small(s4_times_z2):
    # the all-pairs check formed a |G|^2 stack of 48 x 48 matrices (283 MB)
    mats = reps.regular_rep(s4_times_z2).matrices
    tracemalloc.start()
    try:
        reps.UnitaryRep(s4_times_z2, mats, check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak


def test_regular_rep_is_permutation(s3):
    reg = reps.regular_rep(s3)
    assert reg.dim == 6
    chi = reg.character()
    np.testing.assert_allclose(chi[s3.identity], 6.0)
    assert np.max(np.abs(chi[1:])) < 1e-14  # regular character is |G| delta_e


# -- unitarization ----------------------------------------------------------


def test_unitarize_fixes_nonunitary_rep():
    z2 = groups.cyclic_group(2)
    m = np.array([[1.0, 1.0], [0.0, -1.0]])
    unit = reps.unitarize(z2, np.array([np.eye(2), m]))
    u = unit.matrices[1]
    assert frob(dagger(u) @ u - np.eye(2)) < 1e-12
    # similar to the input: eigenvalues stay (+1, -1)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(u).real), [-1.0, 1.0],
                               atol=1e-12)
    # hand oracle for the averaged Gram: (I + M* M) / 2
    gram = (np.eye(2) + m.T @ m) / 2.0
    np.testing.assert_allclose(gram, [[1.0, 0.5], [0.5, 1.5]])


def test_unitarize_keeps_unitary_rep(s3_perm, s3):
    out = reps.unitarize(s3, s3_perm.matrices)
    assert max(frob(a - b) for a, b in zip(out.matrices, s3_perm.matrices)) < 1e-12


def test_unitarize_rejects_non_homomorphism():
    z2 = groups.cyclic_group(2)
    with pytest.raises(NotAHomomorphism):
        reps.unitarize(z2, np.array([np.eye(2), np.diag([1.0, 0.5])]))


# -- irreducible tables and decomposition -----------------------------------


def test_irrep_tables_complete(fixture_groups):
    expected_dims = {
        "Z2": (1, 1), "Z4": (1, 1, 1, 1), "Z6": (1,) * 6, "S3": (1, 1, 2),
        "D4": (1, 1, 1, 1, 2), "Q8": (1, 1, 1, 1, 2), "A4": (1, 1, 1, 3),
        "S4": (1, 1, 2, 3, 3),
    }
    for name, g in fixture_groups.items():
        table = reps.irrep_table(g)
        assert table.dims == expected_dims[name]
        assert sum(d * d for d in table.dims) == g.order
        # characters pairwise orthonormal under the normalized average
        gram = table.characters @ table.characters.conj().T / g.order
        np.testing.assert_allclose(gram, np.eye(len(table.irreps)), atol=1e-10)


def test_character_table_is_the_irrep_tables_characters(fixture_groups, s4_times_z2):
    # the class-sum characters, in their own order, against the traces of the
    # irreps compressed from the left-regular action
    cases = dict(fixture_groups)
    cases["S4xZ2"] = s4_times_z2
    for name, g in cases.items():
        chars, table = reps.character_table(g), reps.irrep_table(g)
        assert chars.dims == table.dims, name
        assert np.max(np.abs(chars.characters - table.characters)) <= reps._CHARACTER_MATCH
        assert reps.character_table(groups.FiniteGroup(g.mult)) is chars     # memoized
    assert len(chars.dims) == 10 and chars.group == s4_times_z2


def _traced_irrep_table(group, monkeypatch) -> tuple:
    """(table, seconds, tracemalloc peak in bytes) of one uncached ``irrep_table``."""
    monkeypatch.setattr(reps, "_TABLE_CACHE", {})
    reps.character_table(group)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = reps.irrep_table(group)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, seconds, peak


def _peter_weyl_residual(table) -> float:
    basis, _ = reps.peter_weyl_basis(table)
    order = table.group.order
    return float(np.max(np.abs(basis @ basis.conj().T / order - np.eye(order))))


@pytest.mark.slow
def test_the_s5_times_z2_character_table_is_the_irrep_tables(s5_times_z2, monkeypatch):
    # 14 classes at order 240; the table is read off the left-regular action
    # by index (it took 11-16 s and an 810 MiB traced peak when it decomposed
    # the 240-dimensional regular representation)
    table, seconds, peak = _traced_irrep_table(s5_times_z2, monkeypatch)
    chars = reps.character_table(s5_times_z2)
    assert chars.dims == table.dims and len(chars.dims) == 14
    assert np.max(np.abs(chars.characters - table.characters)) <= reps._CHARACTER_MATCH
    assert seconds <= 2.0 and peak <= 100 * 2 ** 20, (seconds, peak)


@pytest.mark.slow
def test_the_s6_irrep_table_from_its_characters(monkeypatch):
    # order 720, whose regular representation alone would take 6 GB
    s6 = groups.symmetric_group(6)
    table, seconds, peak = _traced_irrep_table(s6, monkeypatch)
    assert table.dims == (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16)
    assert np.max(np.abs(table.characters - reps.character_table(s6).characters)) <= 1e-12
    assert _peter_weyl_residual(table) <= 1e-10
    assert seconds <= 20.0 and peak <= 200 * 2 ** 20, (seconds, peak)


_S6_ON_COSETS_IN_A_PROCESS = """
import json, time
import numpy as np
from ncgalois import groups, reps
start = time.perf_counter()
s6 = groups.symmetric_group(6)
built = time.perf_counter()
# the left cosets x H of H = <(012)(345)>, each named by its least member; a
# point is a coset, g moves the coset of x to that of g x
h = list(groups.closure(s6, [s6.labels.index("120453")]))
coset = np.unique(s6.mult[:, h].min(axis=1), return_inverse=True)[1]
points = np.unique(coset, return_index=True)[1]
action = coset[s6.mult[:, points]]
rep = reps.permutation_rep(s6, action)
assert np.array_equal(rep.action, action)
done = time.perf_counter()
print(json.dumps({
    "group_s": built - start,
    "rep_s": done - built,
    "points": rep.dim,
    "proper": reps.is_proper(rep).proper,
    "max_rss_kib": int(next(line for line in open("/proc/self/status")
                            if line.startswith("VmHWM:")).split()[1]),
}))
"""


@pytest.mark.slow
def test_s6_on_the_240_cosets_is_built_in_a_second_or_two():
    # S6's table checked by Light's test on its generators (it took 5-7 s
    # over the |G|^3 cube) and its action on the cosets of <(012)(345)>
    # checked on the generators (3.4 s and 2.07 GB over all pairs, with the
    # table then read back off the dense stack), in a process of its own
    src = os.path.dirname(os.path.dirname(reps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _S6_ON_COSETS_IN_A_PROCESS],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["points"] == 240 and out["proper"], out
    assert out["group_s"] < 1.0 and out["rep_s"] < 2.0, out
    assert out["max_rss_kib"] < 2 ** 20, out


def _uncached_character_table(group, monkeypatch):
    monkeypatch.setattr(reps, "_CHARACTER_CACHE", {})
    return reps.character_table(group)


@pytest.mark.parametrize("name", ["S3", "Q8", "S4"])
def test_a_wrong_structure_constant_fails_the_character_table(name, fixture_groups, monkeypatch):
    # negative control: one class-multiplication count c_ijl raised by 1
    # (the last class sum times the last class, read at the first class),
    # so the class matrices share no eigenbasis
    g = fixture_groups[name]
    honest = reps._class_matrices

    def planted(group):
        labels, sizes, stack = honest(group)
        stack = stack.copy()
        stack[-1, 0, -1] += np.sqrt(sizes[0] / sizes[-1])
        return labels, sizes, stack

    monkeypatch.setattr(reps, "_class_matrices", planted)
    with pytest.raises(DecompositionFailed, match="the class sums share no eigenbasis"):
        _uncached_character_table(g, monkeypatch)


def _merging_first_draws(monkeypatch, merged: int) -> list:
    """Patch ``linalg.spectral_blocks`` so that its first ``merged`` calls join
    their first two blocks, as an exact eigenvalue collision would; returns
    the list of calls."""
    calls, honest = [], linalg.spectral_blocks

    def colliding(h):
        blocks = honest(h)
        calls.append(len(blocks))
        if len(calls) <= merged:
            blocks = [np.hstack(blocks[:2]), *blocks[2:]]
        return blocks

    monkeypatch.setattr(linalg, "spectral_blocks", colliding)
    return calls


def test_a_collision_in_the_class_sum_split_is_redrawn(s4, monkeypatch):
    honest = reps.character_table(s4)
    calls = _merging_first_draws(monkeypatch, merged=1)
    redrawn = _uncached_character_table(s4, monkeypatch)
    assert calls == [5, 5]
    assert redrawn.dims == honest.dims
    assert np.max(np.abs(redrawn.characters - honest.characters)) <= 1e-12


def test_a_collision_on_every_draw_fails_the_split(s4, monkeypatch):
    calls = _merging_first_draws(monkeypatch, merged=linalg._MAX_RESAMPLES)
    with pytest.raises(CenterSplitFailed, match="could not separate 5 spectral components"):
        _uncached_character_table(s4, monkeypatch)
    assert len(calls) == linalg._MAX_RESAMPLES


def test_irrep_table_memoized(s3):
    t1 = reps.irrep_table(s3)
    t2 = reps.irrep_table(groups.symmetric_group(3))
    assert t1 is t2


def test_decompose_irreducible_block(s3, s3_table):
    two_dim = s3_table.irreps[-1]
    assert linalg.commutant_kernel(two_dim.matrices).shape[1] == 1  # scalar commutant
    dec = reps.decompose(two_dim, seed=4)
    assert dec.blocks == ((2, 1),)


def test_invariant_isometries_reject_a_split_that_is_not_invariant(s3, monkeypatch):
    # a doctored intertwiner, the first coordinate columns of the regular
    # carrier, spans no invariant subspace, which the per-copy residual must catch
    reg = reps.regular_rep(s3)
    pieces = reps.invariant_isometries(reg, 0)
    assert [(i, q.shape[1]) for i, q in pieces] == [(0, 1), (1, 1), (2, 2), (2, 2)]
    monkeypatch.setattr(linalg, "intertwiner",
                        lambda left, right, rng: np.eye(left.shape[1], right.shape[1]))
    with pytest.raises(DecompositionFailed, match="copy of irrep 0 does not intertwine"):
        reps.invariant_isometries(reg, 0)


def test_decompose_certifies_multiplicities_by_the_character_norm(s3, monkeypatch):
    # <chi, chi> = 6 for the regular representation of S3; dropping one copy
    # of the 2-dimensional irrep leaves multiplicities whose squares sum to 3
    reg = reps.regular_rep(s3)
    honest = reps.invariant_isometries

    def dropped(rep, seed):
        pieces = honest(rep, seed)
        return pieces[:-1]

    assert reps.decompose(reg, seed=9).blocks == ((0, 1), (1, 1), (2, 2))
    monkeypatch.setattr(reps, "invariant_isometries", dropped)
    with pytest.raises(DecompositionFailed, match="squared multiplicities 3"):
        reps.decompose(reg, seed=9)


def test_irrep_table_decompose_and_copies_never_build_the_regular_rep(fixture_groups,
                                                                    monkeypatch):
    rep = reps.permutation_rep(fixture_groups["S4"], groups.symmetric_action(4))
    calls = []
    honest = reps.regular_rep
    monkeypatch.setattr(reps, "regular_rep", lambda group: calls.append(group) or honest(group))
    monkeypatch.setattr(reps, "_TABLE_CACHE", {})
    for g in fixture_groups.values():
        reps.irrep_table(g)
    assert reps.decompose(rep, seed=2).blocks == ((1, 1), (4, 1))
    reps.invariant_isometries(rep, 2)
    assert calls == []
    reps.regular_rep(rep.group)   # the counter does see a call
    assert len(calls) == 1


def test_the_conjugate_component_fails_the_irrep_table(fixture_groups, monkeypatch):
    # negative control: spanning the rows of p instead of its columns gives
    # the component of conj(chi), a different irrep wherever chi is not real,
    # as for A4's two complex linear characters
    honest = linalg.Subspace.from_span
    monkeypatch.setattr(linalg.Subspace, "from_span", staticmethod(
        lambda vectors, n, tol=linalg.DEFAULT_TOL: honest(vectors.T, n, tol)))
    monkeypatch.setattr(reps, "_TABLE_CACHE", {})
    assert reps.irrep_table(fixture_groups["S4"]).dims == (1, 1, 2, 3, 3)   # real characters
    with pytest.raises(DecompositionFailed, match="misses its table row"):
        reps.irrep_table(fixture_groups["A4"])


def test_a_merged_pair_of_copies_fails_the_irrep_table(s4, monkeypatch):
    # negative control: the right-regular split returns two copies of a
    # 3-dimensional irrep as one block
    honest = linalg.random_split

    def merged(stack, rng, parts=1):
        blocks = honest(stack, rng, parts)
        return [np.hstack(blocks[:2]), *blocks[2:]] if parts == 3 else blocks

    monkeypatch.setattr(linalg, "random_split", merged)
    monkeypatch.setattr(reps, "_TABLE_CACHE", {})
    with pytest.raises(DecompositionFailed, match=r"copies of sizes \[6, 3\]"):
        reps.irrep_table(s4)


def test_decompose_regular_s3(s3):
    reg = reps.regular_rep(s3)
    dec = reps.decompose(reg, seed=9)
    table = dec.table
    mults = {table.irreps[i].dim: m for i, m in dec.blocks}
    assert mults == {1: 1, 2: 2} or [m for _, m in dec.blocks] == [1, 1, 2]
    # every irrep appears with multiplicity equal to its dimension
    assert all(table.irreps[i].dim == m for i, m in dec.blocks)
    assert sum(table.irreps[i].dim * m for i, m in dec.blocks) == 6


def test_decompose_trivial_multiplicity(s3):
    triv3 = kernel_reference.trivial_rep(s3, dim=3)
    dec = reps.decompose(triv3, seed=1)
    assert len(dec.blocks) == 1
    idx, mult = dec.blocks[0]
    assert mult == 3 and dec.table.irreps[idx].dim == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_block_diagonalizes_exactly(s3_perm, seed):
    dec = reps.decompose(s3_perm, seed=seed)
    u = dec.intertwiner
    assert frob(dagger(u) @ u - np.eye(3)) < 1e-12
    worst = 0.0
    for g in range(6):
        c = dagger(u) @ s3_perm.matrices[g] @ u
        at = 0
        expected = np.zeros_like(c)
        for idx, m in dec.blocks:
            d = dec.table.irreps[idx].dim
            for _ in range(m):
                expected[at:at + d, at:at + d] = dec.table.irreps[idx].matrices[g]
                at += d
        worst = max(worst, frob(c - expected))
    assert worst < 1e-9


def test_decompose_commutant_accounting(d4, rng):
    # direct sum with repeated blocks: commutant dim = sum of mult^2
    table = reps.irrep_table(d4)
    rep = reps.direct_sum(table.irreps[4], table.irreps[4], table.irreps[0])
    dec = reps.decompose(rep, seed=3)
    mults = sorted(m for _, m in dec.blocks)
    assert mults == [1, 2]
    assert linalg.commutant_kernel(rep.matrices).shape[1] == 5
    # the two copies of the 2-dimensional irrep are orthogonal intertwiners
    u = dec.intertwiner
    expected = reps.direct_sum(*(table.irreps[i] for i, m in dec.blocks for _ in range(m)))
    assert frob(dagger(u) @ u - np.eye(5)) <= 1e-12
    assert np.max(np.abs(linalg.compress(rep.matrices, u) - expected.matrices)) <= 1e-12


# -- coefficients, characters, orthogonality --------------------------------


def test_coefficient_norm_two_dim_irrep(s3_table, s3):
    # same-irrep Schur value: (1/|G|) sum |D_11|^2 = 1/d = 1/2
    two_dim = s3_table.irreps[-1]
    d11 = two_dim.matrices[:, 0, 0]
    val = np.sum(np.abs(d11) ** 2) / s3.order
    assert abs(val - 0.5) < 1e-12


def test_schur_same_irrep_z2():
    z2 = groups.cyclic_group(2)
    table = reps.irrep_table(z2)
    sign = table.irreps[0]       # characters sorted: sign first
    report = reps.schur_check(sign, sign)
    assert report.equivalent and report.matches_delta_pattern
    np.testing.assert_allclose(report.values.reshape(1, 1), [[1.0]])


def test_schur_inequivalent_z2():
    z2 = groups.cyclic_group(2)
    table = reps.irrep_table(z2)
    report = reps.schur_check(table.irreps[0], table.irreps[1])
    assert not report.equivalent and report.matches_zero
    assert report.max_deviation < 1e-14


def test_schur_two_dim_with_itself(s3_table):
    two_dim = s3_table.irreps[-1]
    report = reps.schur_check(two_dim, two_dim)
    assert report.matches_delta_pattern
    # diagonal values are 1/2, cross terms vanish
    vals = report.values
    for i in range(2):
        for j in range(2):
            assert abs(vals[i, j, i, j] - 0.5) < 1e-10


def test_schur_rejects_reducible(s3_perm, s3_table):
    with pytest.raises(NotIrreducible):
        reps.schur_check(s3_perm, s3_table.irreps[0])


def test_schur_exhaustive_pattern(fixture_groups):
    for name in ("Z2", "Z6", "S3", "D4", "Q8"):
        table = reps.irrep_table(fixture_groups[name])
        for i, r1 in enumerate(table.irreps):
            for j, r2 in enumerate(table.irreps):
                report = reps.schur_check(r1, r2)
                if i == j:
                    assert report.matches_delta_pattern, (name, i, j)
                else:
                    assert report.matches_zero, (name, i, j)
                assert report.max_deviation < 1e-10


def test_characters(s3, s3_table, s3_perm):
    for r in s3_table.irreps:
        assert abs(r.character()[s3.identity] - r.dim) < 1e-12
        assert abs(reps.character_inner(s3, r.character(), r.character()) - 1) < 1e-10
    reg = reps.regular_rep(s3)
    for r in s3_table.irreps:
        pair = reps.character_inner(s3, reg.character(), r.character())
        assert abs(pair - r.dim) < 1e-10
    # permutation rep contains trivial + standard, misses the sign
    mults = reps.multiplicities(s3_perm)
    assert mults.tolist() == [0, 1, 1]


# -- Peter-Weyl and Fourier --------------------------------------------------


def test_peter_weyl_orthonormal(fixture_groups):
    for name, g in fixture_groups.items():
        table = reps.irrep_table(g)
        basis, labels = reps.peter_weyl_basis(table)
        assert len(labels) == g.order
        gram = basis @ basis.conj().T / g.order
        assert np.max(np.abs(gram - np.eye(g.order))) < 1e-10, name


def test_peter_weyl_z2_is_two_point_fourier():
    z2 = groups.cyclic_group(2)
    basis, _ = reps.peter_weyl_basis(reps.irrep_table(z2))
    u = basis / np.sqrt(2)
    np.testing.assert_allclose(np.abs(u), np.full((2, 2), 1 / np.sqrt(2)))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_peter_weyl_rejects_incomplete(s3, s3_table):
    incomplete = reps.IrrepTable(s3, s3_table.irreps[:2], s3_table.characters[:2])
    with pytest.raises(IncompleteTable):
        reps.peter_weyl_basis(incomplete)


def test_fourier_of_delta_is_identity(s3, s3_table):
    blocks = reps.fourier(s3_table, np.eye(6)[s3.identity])
    for rep, block in zip(s3_table.irreps, blocks):
        np.testing.assert_allclose(block, np.eye(rep.dim), atol=1e-14)


def test_fourier_roundtrip_and_plancherel(s3_table, rng):
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    back = reps.inverse_fourier(s3_table, reps.fourier(s3_table, f))
    assert np.max(np.abs(back - f)) < 1e-10
    assert reps.plancherel_residual(s3_table, f) < 1e-10


def test_fourier_is_algebra_map(s3, s3_table, rng):
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    conv = groups.convolve(s3, x, y, kind="measure")
    lhs = reps.fourier(s3_table, conv)
    fx = reps.fourier(s3_table, x)
    fy = reps.fourier(s3_table, y)
    for a, b, c in zip(lhs, fx, fy):
        assert frob(a - b @ c) < 1e-10


# -- measure representation and properness -----------------------------------


def test_measure_rep_of_delta(s3):
    reg = reps.regular_rep(s3)
    np.testing.assert_allclose(
        reps.measure_rep(reg, np.eye(6)[s3.identity]), np.eye(6)
    )
    for a in range(6):
        for b in range(6):
            lhs = (reps.measure_rep(reg, np.eye(6)[a])
                   @ reps.measure_rep(reg, np.eye(6)[b]))
            rhs = reps.measure_rep(reg, np.eye(6)[s3.op(a, b)])
            assert frob(lhs - rhs) < 1e-12


def test_measure_rep_uniform_on_regular(s3):
    reg = reps.regular_rep(s3)
    out = reps.measure_rep(reg, np.ones(6))
    np.testing.assert_allclose(out, np.ones((6, 6)))  # 6x the rank-1 averager


def test_measure_rep_homomorphism_random(s3, rng):
    reg = reps.regular_rep(s3)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    conv = groups.convolve(s3, x, y, kind="measure")
    lhs = reps.measure_rep(reg, x) @ reps.measure_rep(reg, y)
    assert frob(lhs - reps.measure_rep(reg, conv)) < 1e-10


def test_properness(s3, s3_perm, fixture_groups):
    reg = reps.regular_rep(s3)
    rep_report = reps.is_proper(reg)
    assert rep_report.proper and rep_report.missing == ()

    z2 = fixture_groups["Z2"]
    triv = kernel_reference.trivial_rep(z2)
    out = reps.is_proper(triv)
    assert not out.proper and len(out.missing) == 1

    perm_report = reps.is_proper(s3_perm)
    assert not perm_report.proper
    # the missing irrep is the sign: 1-dimensional, not the trivial one
    table = reps.irrep_table(s3)
    (missing_idx,) = perm_report.missing
    missing_chi = table.characters[missing_idx]
    assert table.irreps[missing_idx].dim == 1
    assert np.min(missing_chi.real) < 0  # distinguishes sign from trivial


def test_a_character_at_the_match_bound_is_a_match(s3):
    # one rule for every site: distance <= _CHARACTER_MATCH matches, above does not
    table = reps.irrep_table(s3)
    exact = np.round(table.characters.real)        # S3's characters are integers
    two_dim = int(np.argmax(exact[:, s3.identity]))
    at = int(np.flatnonzero(exact[two_dim] == 0)[0])
    chi = exact[two_dim].copy()
    chi[at] = reps._CHARACTER_MATCH
    assert reps._nearest_character(exact, chi) == (two_dim, reps._CHARACTER_MATCH)
    chi[at] = np.nextafter(reps._CHARACTER_MATCH, 1.0)
    assert reps._nearest_character(exact, chi)[0] is None
