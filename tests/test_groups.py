import ast
import itertools
import tracemalloc
import types
from pathlib import Path

import kernel_reference
import numpy as np
import pytest

from ncgalois import groups
from ncgalois.errors import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    OrderBoundExceeded,
    ParentMismatch,
)
from ncgalois.groups import (
    FiniteGroup,
    Subgroup,
    convolve,
    enumerate_subgroups,
    involute,
    is_normal,
)


def brute_force_s3_table():
    """Independent oracle: compose all 36 permutation pairs directly."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return table


def test_z2_from_table():
    g = FiniteGroup([[0, 1], [1, 0]])
    assert g.order == 2 and g.identity == 0
    assert g.inv(1) == 1


def test_a_group_copies_the_callers_table(fixture_groups):
    table = np.array(fixture_groups["S3"].mult, dtype=np.intp)
    g = FiniteGroup(table)
    assert table.flags.writeable and g.mult is not table and not g.mult.flags.writeable
    table[0, 0] = 1
    assert g.mult[0, 0] == 0


def test_s3_matches_brute_force():
    g = groups.symmetric_group(3)
    assert g.mult.tolist() == brute_force_s3_table()
    assert g.identity == 0


def test_invalid_tables():
    with pytest.raises(NotLatinSquare):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(NotLatinSquare):
        FiniteGroup([[0, 1, 2], [1, 2, 0]])
    # order-5 loop with two-sided inverses, still not associative
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(groups.NotAssociative):
        FiniteGroup(loop)
    # loop in which 3 has only a one-sided inverse
    with pytest.raises(groups.NoInverse):
        FiniteGroup([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 3, 4, 0, 1],
                     [3, 4, 1, 2, 0],
                     [4, 2, 0, 1, 3]])
    # latin square whose rows/columns are fine but no two-sided identity
    with pytest.raises(NoIdentity):
        FiniteGroup([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


def test_subgroups_of_s3_by_brute_force(s3):
    # oracle: close every subset of S3 and dedupe
    found = set()
    elements = range(6)
    for r in range(1, 7):
        for seed in itertools.combinations(elements, r):
            found.add(groups.closure(s3, seed))
    enumerated = {s.members for s in enumerate_subgroups(s3)}
    assert enumerated == found
    assert len(enumerated) == 6
    orders = sorted(len(m) for m in enumerated)
    assert orders == [1, 2, 2, 2, 3, 6]


def test_subgroups_of_z6_divisor_count():
    z6 = groups.cyclic_group(6)
    subs = enumerate_subgroups(z6)
    assert sorted(s.order for s in subs) == [1, 2, 3, 6]  # one per divisor


def test_subgroup_counts_on_fixtures(fixture_groups):
    # full-lattice sizes; S4's 30 is the classic count
    expected = {"Z2": 2, "Z4": 3, "Z6": 4, "S3": 6, "D4": 10, "Q8": 6,
                "A4": 10, "S4": 30}
    for name, g in fixture_groups.items():
        subs = enumerate_subgroups(g)
        assert len(subs) == expected[name], name
        for s in subs:
            assert g.order % s.order == 0  # Lagrange


def test_order_bound():
    with pytest.raises(OrderBoundExceeded):
        enumerate_subgroups(groups.cyclic_group(5), order_bound=4)
    # the default bound admits order 240 and refuses the next order
    assert groups.SUBGROUP_ORDER_BOUND == 240
    assert len(enumerate_subgroups(groups.cyclic_group(240))) == 20   # one per divisor
    with pytest.raises(OrderBoundExceeded, match="group order 241 exceeds bound 240"):
        enumerate_subgroups(groups.cyclic_group(241))


def test_conjugacy_classes_abelian():
    z4 = groups.cyclic_group(4)
    assert groups.conjugacy_classes(z4) == [(0,), (1,), (2,), (3,)]


def test_conjugacy_classes_s3(s3):
    # brute-force conjugation oracle
    classes = set()
    for a in range(6):
        classes.add(tuple(sorted({s3.conjugate(g, a) for g in range(6)})))
    assert set(groups.conjugacy_classes(s3)) == classes
    sizes = sorted(len(c) for c in groups.conjugacy_classes(s3))
    assert sizes == [1, 2, 3]


def test_normality_in_s3(s3):
    subs = enumerate_subgroups(s3)
    by_order = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(s)
    assert all(not is_normal(s) for s in by_order[2])
    assert is_normal(by_order[3][0])      # the alternating subgroup
    assert is_normal(by_order[1][0]) and is_normal(by_order[6][0])


def test_subgroup_validation(s3):
    with pytest.raises(Exception):
        Subgroup(s3, (0, 1, 3))  # not closed


def test_subgroup_lattice_equals_the_saturation_reference(fixture_groups, s4_times_z2):
    # cyclic extension against the all-pairs saturation, up to order 48
    cases = dict(fixture_groups)
    cases["S4xZ2"] = s4_times_z2
    for name, g in cases.items():
        found = [s.members for s in enumerate_subgroups(g)]
        assert found == [s.members for s in kernel_reference.enumerate_subgroups(g)], name
    assert len(found) == 98


def test_subgroup_lattice_equals_the_all_pairs_cyclic_extension(fixture_groups, s4_times_z2):
    # the frontier closure, joined up to conjugacy, against every subgroup
    # joined with every cyclic subgroup by the all-pairs closure
    cases = dict(fixture_groups)
    cases["S4xZ2"] = s4_times_z2
    for name, g in cases.items():
        found = [s.members for s in enumerate_subgroups(g)]
        assert found == [s.members for s in kernel_reference.enumerate_subgroups_by_all_pairs(g)]
    assert len(found) == 98


@pytest.mark.slow
def test_the_s5_times_z2_lattice_equals_the_all_pairs_cyclic_extension(s5_times_z2):
    # order 240, now within the bound: 535 subgroups (about 20 s, the reference's)
    found = [s.members for s in enumerate_subgroups(s5_times_z2)]
    assert len(found) == 535
    assert found == [s.members for s in
                     kernel_reference.enumerate_subgroups_by_all_pairs(s5_times_z2)]


def test_closure_is_the_all_pairs_closure(s4_times_z2, rng):
    g = s4_times_z2
    seeds = [[], [g.identity], *(rng.choice(g.order, size=k, replace=False).tolist()
                                 for k in (1, 1, 2, 2, 2, 3, 4) for _ in range(4))]
    for seed in seeds:
        assert groups.closure(g, seed) == kernel_reference.closure_all_pairs(g, seed), seed


def _intercalate_swaps(table: np.ndarray, identity: int, limit: int) -> list:
    """Up to ``limit`` corrupted copies of a group table, each with one 2 x 2
    subsquare [[x, y], [y, x]] off the identity's row, column and value swapped
    to [[y, x], [x, y]]: still a Latin square with the same identity and
    inverses, so only the associativity check can refuse it."""
    n = len(table)
    out = []
    others = [a for a in range(n) if a != identity]
    for a, c in itertools.combinations(others, 2):
        for b, d in itertools.combinations(others, 2):
            x, y = table[a, b], table[a, d]
            if identity not in (x, y) and table[c, b] == y and table[c, d] == x:
                bad = table.copy()
                bad[a, b], bad[a, d], bad[c, b], bad[c, d] = y, x, x, y
                out.append(bad)
                if len(out) == limit:
                    return out
    return out


def _stacked_swaps(table: np.ndarray, identity: int, swaps: int, limit: int) -> list:
    """Up to ``limit`` corrupted copies of a group table, each with ``swaps``
    intercalates swapped one after another, every later one found in the table
    the one before left and adding to its difference from ``table``; a copy
    with no such later intercalate is dropped."""
    out = _intercalate_swaps(table, identity, limit)
    for _ in range(swaps - 1):
        out = [c for bad in out
               for c in _intercalate_swaps(bad, identity, limit=len(bad) ** 2)
               if np.count_nonzero(c != table) > np.count_nonzero(bad != table)][:limit]
    return out


@pytest.mark.parametrize("swaps", [None, 1, 3])
def test_the_panelled_associativity_check_names_the_full_cube_witness(fixture_groups, swaps):
    # Light's test compares the cube's panel of generator columns c, on intact
    # tables (None) and on tables with one or three intercalates swapped: it
    # refuses exactly the tables in which the whole n^3 cube has a witness,
    # and names the least cube witness whose c is a greedy generator of the
    # table it refuses
    corrupted = 0
    for name, g in fixture_groups.items():
        tables = [g.mult] if swaps is None else _stacked_swaps(g.mult, g.identity, swaps, 10)
        for table in tables:
            if kernel_reference.associativity_witness_by_cube(table) is None:
                assert np.array_equal(FiniteGroup(table).mult, table), name
                continue
            with pytest.raises(NotAssociative) as exc:
                FiniteGroup(table)
            stand_in = types.SimpleNamespace(identity=g.identity, _rows=table.tolist())
            gens = groups.generating_set(stand_in, range(g.order))
            a, b, c = kernel_reference.associativity_witness_by_cube(table, columns=gens)
            assert str(exc.value) == f"({a}*{b})*{c} != {a}*({b}*{c})", name
            corrupted += 1
    assert corrupted >= (0 if swaps is None else 40)


@pytest.mark.parametrize("make", [
    *(lambda n=n: groups.symmetric_group(n) for n in (3, 4, 5, 6)),
    *(lambda n=n: groups.alternating_group(n) for n in (4, 5)),
], ids=["S3", "S4", "S5", "S6", "A4", "A5"])
def test_permutation_groups_compose_like_the_double_loop(monkeypatch, make):
    # each table is taken before FiniteGroup's checks, which are most of S6's build
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, labels: (table, labels))
    table, labels = make()
    perms = [tuple(map(int, label)) for label in labels]
    assert np.array_equal(table, kernel_reference.perm_group_table_by_loop(perms))


def test_a_group_of_order_240_is_checked_in_panels(s5_times_z2):
    # the n^3 comparison cubes of S5 x Z2 would take 2 x 110 MB; Light's test
    # compares |G|^2 entries per generator
    tracemalloc.start()
    try:
        FiniteGroup(s5_times_z2.mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


@pytest.mark.slow
def test_the_s5_lattice_equals_the_saturation_reference():
    # past the order bound: S5's 156 subgroups, which the Galois lattice of S5
    # on its irreps runs on, against the all-pairs saturation (about a minute)
    s5 = groups.symmetric_group(5)
    found = [s.members for s in enumerate_subgroups(s5, order_bound=s5.order)]
    assert len(found) == 156
    assert found == [s.members for s in
                     kernel_reference.enumerate_subgroups(s5, order_bound=s5.order)]


def test_generators_are_greedy_and_generate_every_subgroup(fixture_groups, s4_times_z2):
    cases = dict(fixture_groups)
    cases["S4xZ2"] = s4_times_z2
    for name, g in cases.items():
        subs = enumerate_subgroups(g)
        for sub in subs:
            gens = sub.generators
            assert groups.closure(g, gens) == sub.members, (name, sub.members)
            assert all(gens[i] not in groups.closure(g, gens[:i]) for i in range(len(gens)))
            # derived from the members alone: a fresh subgroup and a second run agree
            assert Subgroup(g, sub.members).generators == gens
            assert groups.generating_set(g, sub.members) == gens
        assert g.generators == subs[-1].generators
        assert groups.closure(g, g.generators) == tuple(range(g.order))
    assert max(len(s.generators) for s in subs) == 4     # S4 x Z2
    s4 = enumerate_subgroups(fixture_groups["S4"])
    assert max(len(s.generators) for s in s4) == 3
    assert sum(len(s.generators) for s in s4) == 45


def _greedy_reference(g, members) -> tuple:
    # the greedy rule with the closure of the kept generators taken at every member
    kept: list = []
    for a in members:
        if a not in groups.closure(g, kept):
            kept.append(a)
    return tuple(kept)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_generating_sets_close_once_per_kept_generator(name, fixture_groups, monkeypatch):
    g = fixture_groups["S4"] if name == "S4" else groups.alternating_group(5)
    subs = enumerate_subgroups(g, order_bound=g.order)
    expected = [_greedy_reference(g, sub.members) for sub in subs]
    calls = []
    honest = groups.closure
    monkeypatch.setattr(groups, "closure", lambda *a: calls.append(a) or honest(*a))
    found = [groups.generating_set(g, sub.members) for sub in subs]
    assert found == expected
    assert len(calls) == sum(len(gens) for gens in found)


def test_conjugation_table_and_classes_match_the_group_operations(fixture_groups):
    for g in fixture_groups.values():
        table = groups.conjugation_table(g)
        assert all(table[a, x] == g.conjugate(a, x)
                   for a in range(g.order) for x in range(g.order))
        orbits = {tuple(sorted({g.conjugate(a, x) for a in range(g.order)}))
                  for x in range(g.order)}
        assert set(groups.conjugacy_classes(g)) == orbits


def _conjugate_members(g, a, members) -> tuple:
    return tuple(sorted(g.conjugate(a, x) for x in members))


def test_subgroup_classes_count_match_and_pick_the_first_representative(
        fixture_groups, s4_times_z2):
    expected = {"Z2": 2, "Z4": 3, "Z6": 4, "S3": 4, "D4": 8, "Q8": 6, "A4": 5, "S4": 11,
                "S4xZ2": 33}
    cases = dict(fixture_groups)
    cases["S4xZ2"] = s4_times_z2
    for name, g in cases.items():
        subs = enumerate_subgroups(g)
        classes = groups.subgroup_classes(g, subs)
        assert len({r for r, _ in classes}) == expected[name], name
        for j, (r, a) in enumerate(classes):
            # a carries the representative's members exactly onto the row's
            assert _conjugate_members(g, a, subs[r].members) == subs[j].members, (name, j)
            # the representative is the first subgroup of the class in the given order
            conjugates = {_conjugate_members(g, b, subs[j].members) for b in range(g.order)}
            assert r == min(i for i, s in enumerate(subs) if s.members in conjugates)
            assert (r != j) or a == g.identity


def test_subgroup_classes_use_only_the_given_subgroups_in_their_order(s4):
    subs = enumerate_subgroups(s4)
    backwards = subs[::-1]
    classes = groups.subgroup_classes(s4, backwards)
    for j, (r, a) in enumerate(classes):
        assert r <= j
        assert _conjugate_members(s4, a, backwards[r].members) == backwards[j].members
    # a partial list: the three Klein subgroups other than the normal one,
    # all conjugate, so each is carried from the first one given
    klein = [s for s in subs if s.order == 4 and not is_normal(s)
             and all(s4.element_order(x) <= 2 for x in s.members)]
    assert len(klein) == 3
    classes = groups.subgroup_classes(s4, klein)
    assert [r for r, _ in classes] == [0, 0, 0]
    assert groups.subgroup_classes(s4, []) == []
    with pytest.raises(ParentMismatch):
        groups.subgroup_classes(groups.symmetric_group(3), subs)


@pytest.mark.parametrize("members, error, message", [
    ((1, 2), NoIdentity, "subgroup does not contain the identity"),
    ((0, 3), NoInverse, "subgroup not closed under inverse at 3"),
    ((0, 1, 2), NotAssociative, "subgroup not closed under product at (1,2)"),
    # 1 fails a product before 3 fails its inverse
    ((0, 1, 3), NotAssociative, "subgroup not closed under product at (1,3)"),
    ((0, 1, 3, 4, 5), NotAssociative, "subgroup not closed under product at (1,4)"),
    ((0, 6), ParentMismatch, "subgroup members must lie in 0..5"),
    ((-1, 0), ParentMismatch, "subgroup members must lie in 0..5"),
])
def test_subgroup_validation_names_the_first_failure(s3, members, error, message):
    with pytest.raises(error) as exc:
        Subgroup(s3, members)
    assert str(exc.value) == message


def test_group_facts_are_decided_on_the_table():
    # the module-level functions of groups, reps and crossed, and Subgroup,
    # index mult and inverse instead of calling the per-element methods
    package = Path(groups.__file__).parent
    offenders = []
    for module in ("groups", "reps", "crossed"):
        body = ast.parse((package / f"{module}.py").read_text()).body
        body += [node for cls in body if isinstance(cls, ast.ClassDef)
                 and cls.name == "Subgroup" for node in cls.body]
        offenders += sorted({f"{module}.{fn.name}" for fn in body
                             if isinstance(fn, ast.FunctionDef)
                             for node in ast.walk(fn) if isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr in ("op", "inv", "conjugate")})
    assert offenders == []


def test_convolution_function_convention_z2():
    z2 = groups.cyclic_group(2)
    out = convolve(z2, [1, 2], [3, 4], kind="function")
    np.testing.assert_allclose(out, [5.5, 5.0])


def test_convolution_measure_unit(s3, rng):
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(convolve(s3, np.eye(6)[s3.identity], y, kind="measure"), y)


def test_point_measures_convolve_like_the_group(s3):
    point = np.eye(6)
    for a in range(6):
        for b in range(6):
            out = convolve(s3, point[a], point[b], kind="measure")
            np.testing.assert_allclose(out, point[s3.op(a, b)], atol=1e-14)


@pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8"])
def test_convolution_associative(fixture_groups, name, rng):
    g = fixture_groups[name]
    for kind in ("measure", "function"):
        x, y, z = (rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
                   for _ in range(3))
        lhs = convolve(g, convolve(g, x, y, kind=kind), z, kind=kind)
        rhs = convolve(g, x, convolve(g, y, z, kind=kind), kind=kind)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_involution_antihomomorphism(s3, rng):
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = involute(s3, convolve(s3, x, y, kind="measure"))
    rhs = convolve(s3, involute(s3, y), involute(s3, x), kind="measure")
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_allclose(involute(s3, involute(s3, x)), x)


def test_haar_inversion_invariance(fixture_groups, rng):
    for g in fixture_groups.values():
        x = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        lhs = np.sum(x[g.inverse]) / g.order
        rhs = np.sum(x) / g.order
        assert abs(lhs - rhs) < 1e-12


def test_parent_mismatch(s3):
    with pytest.raises(ParentMismatch):
        convolve(s3, [1, 2], [1, 2, 3, 4, 5, 6], kind="measure")


def test_fixture_tables_are_groups(fixture_groups):
    for name, g in fixture_groups.items():
        # construction re-validates all axioms
        FiniteGroup(g.mult, labels=g.labels)
        assert g.op(g.identity, 1 % g.order) == 1 % g.order
