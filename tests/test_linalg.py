import ast
from pathlib import Path

import numpy as np
import pytest
from kernel_reference import random_hermitian, sylvester_gram

from ncgalois import groups, linalg, modular, reps
from ncgalois.algebras import StarAlgebra, algebra_from_generators
from ncgalois.errors import (
    DecompositionFailed,
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
)
from ncgalois.linalg import (
    Subspace,
    hermitian_eig,
    matrix_imaginary_power,
    nullspace,
    spectral_blocks,
)
from ncgalois.ncprob import State


def test_eig_already_diagonal():
    w, v = hermitian_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 2.0])
    # ascending order swaps the basis vectors: V is the flip permutation
    np.testing.assert_allclose(np.abs(v), np.array([[0.0, 1.0], [1.0, 0.0]]),
                               atol=1e-14)


def test_eig_pauli_x():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0])
    expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(np.abs(v), np.abs(expected), atol=1e-14)


def test_eig_reconstruction_random(rng):
    # reconstruction oracle: V diag(w) V* must reproduce the input
    for n in (2, 5, 9):
        a = random_hermitian(n, rng)
        w, v = hermitian_eig(a)
        rebuilt = (v * w) @ v.conj().T
        assert linalg.frob(rebuilt - a) <= 1e-10 * max(1.0, linalg.frob(a))
        assert linalg.frob(v.conj().T @ v - np.eye(n)) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_deterministic(rng):
    a = random_hermitian(6, rng)
    w1, v1 = hermitian_eig(a)
    w2, v2 = hermitian_eig(a.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_nullspace_identity_and_zero():
    assert nullspace(np.eye(3)).dim == 0
    assert nullspace(np.zeros((2, 3))).dim == 3


def test_nullspace_rank_one():
    ns = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert ns.dim == 1
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(np.vdot(ns.basis[:, 0], expected))
    assert overlap > 1 - 1e-12


def test_nullspace_rank_nullity(rng):
    for _ in range(5):
        a = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        a[:, 3] = a[:, 0] + a[:, 1]  # force rank deficiency of the column map
        ns = nullspace(a)
        rank = np.linalg.matrix_rank(a)
        assert ns.dim + rank == 7
        assert ns.residual(np.zeros(7)) == 0
        assert np.max(np.abs(a @ ns.basis)) < 1e-10


def test_imaginary_power_identity_and_zero_t():
    np.testing.assert_allclose(matrix_imaginary_power(np.eye(3), 0.7), np.eye(3))
    np.testing.assert_allclose(matrix_imaginary_power(np.diag([4.0, 1.0]), 0.0), np.eye(2))


def test_imaginary_power_explicit_phase():
    # diag(4,1) at t = pi/ln 4 gives diag(-1, 1) since 4^(it) = e^(it ln 4)
    t = np.pi / np.log(4.0)
    out = matrix_imaginary_power(np.diag([4.0, 1.0]), t)
    np.testing.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-12)


def test_imaginary_power_group_law(rng):
    for _ in range(5):
        a = random_hermitian(4, rng)
        p = a @ a.conj().T + 0.3 * np.eye(4)
        s, t = rng.uniform(-10, 10, size=2)
        lhs = matrix_imaginary_power(p, s) @ matrix_imaginary_power(p, t)
        rhs = matrix_imaginary_power(p, s + t)
        assert linalg.frob(lhs - rhs) < 1e-9
        u = matrix_imaginary_power(p, t)
        assert linalg.frob(u.conj().T @ u - np.eye(4)) < 1e-11


def test_imaginary_power_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        matrix_imaginary_power(np.diag([1.0, 0.0]), 1.0)


def test_subspace_equality_same_plane():
    s1 = Subspace.from_span(np.array([[1, 1, 0], [1, -1, 0]], dtype=complex), 3)
    s2 = Subspace.from_span(np.array([[1, 0, 0], [0, 1, 0]], dtype=complex), 3)
    assert s1.equals(s2)
    assert s1.equals(s1)


def test_subspace_distinct_lines():
    e1 = Subspace.from_span(np.array([[1, 0]], dtype=complex), 2)
    e2 = Subspace.from_span(np.array([[0, 1]], dtype=complex), 2)
    assert not e1.equals(e2)
    assert not e1.contains(e2)


def test_subspace_dimension_mismatch():
    s1 = Subspace.from_span(np.array([[1, 0]], dtype=complex), 2)
    s2 = Subspace.from_span(np.array([[1, 0, 0]], dtype=complex), 3)
    with pytest.raises(DimensionMismatch):
        s1.equals(s2)


def test_subspace_intersection(rng):
    # span{e1,e2} cap span{e2,e3} = span{e2}
    a = Subspace.from_span(np.eye(4, dtype=complex)[[0, 1]], 4)
    b = Subspace.from_span(np.eye(4, dtype=complex)[[1, 2]], 4)
    inter = a.intersect(b)
    assert inter.dim == 1
    assert abs(np.abs(inter.basis[1, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("angle, dim", [(1e-6, 0), (1e-7, 0), (1e-13, 1)])
def test_subspace_intersection_of_lines_uses_the_global_rank_rule(angle, dim):
    # the principal angle gives [B1, -B2] the singular value ~ angle/sqrt(2);
    # the global rule cuts near 1e-9, as contains and equals do
    e1 = Subspace.from_span(np.array([[1.0, 0.0]], dtype=complex), 2)
    tilted = Subspace.from_span(np.array([[np.cos(angle), np.sin(angle)]], dtype=complex), 2)
    inter = e1.intersect(tilted)
    assert inter.dim == dim
    assert e1.equals(tilted) == (dim == 1)
    if dim:
        np.testing.assert_allclose(inter.basis.conj().T @ inter.basis, np.eye(1), atol=1e-15)
        assert e1.residual(inter.basis) < 1e-12


def test_subspace_distance_is_the_worse_containment_residual():
    e1 = Subspace.from_span(np.array([[1.0, 0.0, 0.0]], dtype=complex), 3)
    tilted = Subspace.from_span(np.array([[np.cos(0.3), np.sin(0.3), 0.0]], dtype=complex), 3)
    plane = Subspace.from_span(np.eye(3, dtype=complex)[:2], 3)
    assert abs(e1.distance(tilted) - np.sin(0.3)) < 1e-15
    assert tilted.distance(e1) == e1.distance(tilted)
    # the line lies in the plane, but not the plane in the line
    assert plane.containment_residual(e1) < 1e-15
    assert abs(plane.distance(e1) - 1.0) < 1e-15 and abs(e1.distance(plane) - 1.0) < 1e-15


@pytest.mark.parametrize("dims", [(3, 3), (2, 5), (4, 1), (0, 3), (3, 0), (0, 0)])
def test_subspace_distance_is_both_containment_residuals(dims, rng):
    def random_subspace(dim):
        x = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        return Subspace.from_span(x, 7)

    a, b = (random_subspace(d) for d in dims)
    expected = max(a.containment_residual(b), b.containment_residual(a))
    assert abs(a.distance(b) - expected) <= 1e-14
    assert abs(b.distance(a) - expected) <= 1e-14
    # a subspace against itself, or a rotated basis of itself
    spin = Subspace(7, a.basis @ _random_unitary(a.dim, rng)) if a.dim else a
    assert a.distance(spin) <= 1e-14


def test_spectral_blocks_cut_at_eigenvalue_gaps():
    h = np.diag([0.0, 0.0, 1.0, 2.0, 2.0, 2.0])
    blocks = spectral_blocks(h)
    assert [b.shape[1] for b in blocks] == [2, 1, 3]
    for value, b in zip((0.0, 1.0, 2.0), blocks):
        np.testing.assert_allclose(b.conj().T @ b, np.eye(b.shape[1]), atol=1e-14)
        np.testing.assert_allclose(h @ b, value * b, atol=1e-14)


def test_spectral_blocks_of_scalar_is_one_block():
    blocks = spectral_blocks(3.0 * np.eye(4))
    assert len(blocks) == 1
    assert blocks[0].shape == (4, 4)


def _same_span(a: np.ndarray, b: np.ndarray) -> bool:
    sa, sb = Subspace(a.shape[0], a), Subspace(b.shape[0], b)
    return sa.dim == sb.dim and max(
        sa.containment_residual(sb), sb.containment_residual(sa)
    ) < 1e-9


def _random_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _star_closed_stacks():
    rng = np.random.default_rng(31)
    stacks = []
    for n, k in ((3, 1), (4, 2), (5, 1)):
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(k)]
        stacks.append(pytest.param(algebra_from_generators(gens, n).basis,
                                   id=f"generated-n{n}-k{k}"))
    diag = StarAlgebra.from_span(
        [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])], 4)
    stacks.append(pytest.param(diag.basis, id="generated-two-blocks"))
    w = _random_unitary(6, rng)
    reg = reps.regular_rep(groups.symmetric_group(3)).matrices
    stacks.append(pytest.param(w @ reg @ w.conj().T, id="conjugated-s3-regular"))
    w = _random_unitary(8, np.random.default_rng(5))
    reg = reps.regular_rep(groups.dihedral_group(4)).matrices
    stacks.append(pytest.param(w @ reg @ w.conj().T, id="conjugated-d4-regular"))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T + 0.1 * np.eye(3)
    space = modular.gns(StarAlgebra.full(3), State(rho / np.trace(rho).real))
    left = np.array([space.left_mult_matrix(b) for b in space.algebra.basis])
    stacks.append(pytest.param(left, id="modular-left-multiplications"))
    return stacks + _abelian_stacks()


def _abelian_stacks():
    # the split's blocks are joint eigenspaces, so the reduced gram is null
    stacks = [pytest.param(reps.regular_rep(g).matrices, id=f"abelian-{name}-regular")
              for name, g in (("Z4", groups.cyclic_group(4)),
                              ("Z2xZ2", groups.klein_four_group()),
                              ("Z6", groups.cyclic_group(6)))]
    phases = np.exp(1j * np.array([[0.3, 0.3, 1.1, 2.0, 2.0],
                                   [0.7, 0.7, 0.7, 1.9, 1.9]]))
    w = _random_unitary(5, np.random.default_rng(41))
    diag = np.array([np.diag(p) for p in (*phases, *phases.conj())])
    stacks.append(pytest.param(w @ diag @ w.conj().T, id="abelian-rotated-diagonal-unitaries"))
    stacks.append(pytest.param(np.eye(3, dtype=complex)[None], id="abelian-identity"))
    return stacks


@pytest.mark.parametrize("stack", _star_closed_stacks())
def test_commutant_kernel_equals_full_gram_kernel(stack):
    # the unreduced Sylvester gram is the reference for the block-diagonal one
    scale = float(np.sqrt(np.sum(np.abs(stack) ** 2)))
    reference = linalg.kernel_of_gram(sylvester_gram(stack), scale=scale)
    assert reference.shape[1] >= 1
    assert _same_span(linalg.commutant_kernel(stack), reference)
    assert _same_span(linalg.commutant_kernel(stack, star_closed=False), reference)


@pytest.mark.parametrize("stack", _abelian_stacks())
def test_an_abelian_stack_solves_no_gram_eigensystem(stack, monkeypatch):
    # only the n x n split element is diagonalized, never an e^2-sized gram
    n = stack.shape[1]
    sizes = []
    honest = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args: sizes.append(a.shape[0]) or honest(a, *args))
    linalg.commutant_kernel(stack)
    assert sizes == [n]


def _floor(scale, tol=linalg.DEFAULT_TOL):
    return max(tol.rank_threshold(scale), 1e-5 * scale)


def _rank_one_gram(n, frobenius, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return frobenius * np.outer(x, x.conj()) / np.vdot(x, x).real


def _no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran on a null gram")
    monkeypatch.setattr(np.linalg, "eigh", refuse)


@pytest.mark.parametrize("scale", [0.0, 1.0, 37.0])
def test_a_zero_gram_is_all_kernel_without_an_eigensolve(scale, monkeypatch):
    _no_eigh(monkeypatch)
    y = linalg.kernel_of_gram(np.zeros((6, 6), dtype=complex), scale=scale)
    np.testing.assert_array_equal(y, np.eye(6))


@pytest.mark.parametrize("scale", [1.0, 37.0])
def test_a_gram_just_below_the_floor_is_all_kernel_without_an_eigensolve(
        scale, rng, monkeypatch):
    # a rank-one gram has lambda_max = frob, the worst case of the bound
    floor = _floor(scale)
    gram = _rank_one_gram(6, floor * floor * (1 - 1e-6), rng)
    # the eigh rule would keep every direction too
    s = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    assert np.all(s <= _floor(max(s[-1], scale)))
    _no_eigh(monkeypatch)
    np.testing.assert_array_equal(linalg.kernel_of_gram(gram, scale=scale), np.eye(6))


@pytest.mark.parametrize("scale", [1.0, 37.0])
def test_a_gram_just_above_the_floor_takes_the_eigensolve(scale, rng, monkeypatch):
    floor = _floor(scale)
    gram = _rank_one_gram(6, floor * floor * (1 + 1e-6), rng)
    calls = []
    honest = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args: calls.append(a.shape) or honest(a, *args))
    y = linalg.kernel_of_gram(gram, scale=scale)
    assert calls == [(6, 6)]
    # its one direction sits just above the cut, so it leaves the kernel
    assert y.shape == (6, 5)
    assert linalg.frob(gram @ y) <= 1e-12 * linalg.frob(gram)


@pytest.mark.parametrize("one_block", [False, True], ids=["split", "one-block"])
@pytest.mark.parametrize("stack", _star_closed_stacks())
def test_reduced_gram_is_the_full_gram_at_the_block_coordinates(stack, one_block):
    # coordinate i is entry (rows[i], cols[i]), that is row-major vec index rows*n + cols
    n = stack.shape[1]
    blocks = ([np.eye(n, dtype=complex)] if one_block else
              linalg.random_split(stack, np.random.default_rng(linalg._SPLIT_SEED)))
    sizes = [q.shape[1] for q in blocks]
    rot = linalg.compress(stack, np.hstack(blocks))
    gram = linalg._reduced_sylvester_gram(rot, sizes)
    rows, cols = linalg._block_coordinates(sizes)
    assert len(rows) == sum(e * e for e in sizes)
    idx = rows * n + cols
    reference = sylvester_gram(rot)[np.ix_(idx, idx)]
    assert np.max(np.abs(gram - reference)) <= 1e-12 * max(1.0, linalg.frob(gram))


@pytest.mark.parametrize("sizes", [[6], [1, 2, 3], [3, 1, 2]])
def test_reduced_gram_of_a_stack_that_is_not_star_closed(rng, sizes):
    # on a *-closed stack x is Hermitian and sum RR* is central; a random
    # stack has neither, so every term of the closed form shows
    rot = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    rows, cols = linalg._block_coordinates(sizes)
    idx = rows * 6 + cols
    reference = sylvester_gram(rot)[np.ix_(idx, idx)]
    gram = linalg._reduced_sylvester_gram(rot, sizes)
    assert np.max(np.abs(gram - reference)) <= 1e-12 * linalg.frob(gram)


def test_intertwiner_aligns_an_irrep_with_its_conjugate():
    irrep = reps.irrep_table(groups.symmetric_group(3)).irreps[-1]
    assert irrep.dim == 2
    w = _random_unitary(2, np.random.default_rng(17))
    left, right = irrep.matrices, linalg.compress(irrep.matrices, w)
    s = linalg.intertwiner(left, right, np.random.default_rng(3))
    assert linalg.frob(s.conj().T @ s - np.eye(2)) <= 1e-12
    assert np.max(np.linalg.norm(left @ s - s @ right, axis=(1, 2))) <= 1e-10


def test_intertwiner_of_inequivalent_irreps_gives_up_after_max_resamples():
    # sum_k sign(k) X 1 vanishes for every X, so no draw yields an intertwiner
    s3 = groups.symmetric_group(3)
    trivial = reps.trivial_rep(s3)
    sign = next(r for r in reps.irrep_table(s3).irreps
                if r.dim == 1 and not np.allclose(r.character(), 1.0))
    rng = np.random.default_rng(11)
    with pytest.raises(DecompositionFailed, match="vanished"):
        linalg.intertwiner(sign.matrices, trivial.matrices, rng)
    # each draw takes the real and imaginary parts of one 1x1 matrix
    replay = np.random.default_rng(11)
    replay.standard_normal(2 * linalg._MAX_RESAMPLES)
    assert rng.standard_normal() == replay.standard_normal()


def test_random_split_of_regular_image_shrinks_to_sum_of_cubes():
    # a generic element of the S3 regular image has each irrep's d
    # eigenvalues with multiplicity d: sum_j e_j^2 = sum_d d^3 = 1 + 1 + 8 of 36
    blocks = linalg.random_split(reps.regular_rep(groups.symmetric_group(3)).matrices,
                                 np.random.default_rng(linalg._SPLIT_SEED))
    assert sorted(q.shape[1] for q in blocks) == [1, 1, 2, 2]
    v = np.hstack(blocks)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_dagger_of_a_stack_is_the_adjoint_of_each_matrix(rng):
    stack = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    adj = linalg.dagger(stack)
    assert adj.shape == (4, 5, 3)
    for k in range(4):
        for i in range(5):
            for j in range(3):
                assert adj[k, i, j] == np.conj(stack[k, j, i])


def test_compress_with_an_isometry(rng):
    # q is 5x2 with orthonormal columns; each B becomes the 2x2 matrix q* B q
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    out = linalg.compress(stack, q)
    assert out.shape == (3, 2, 2)
    for k in range(3):
        for i in range(2):
            for j in range(2):
                ref = sum(np.conj(q[a, i]) * stack[k, a, b] * q[b, j]
                          for a in range(5) for b in range(5))
                assert abs(out[k, i, j] - ref) <= 1e-12


def test_sandwich_sum_is_the_sum_of_products(rng):
    # x is one matrix, then a stack of two mapped member by member
    left = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    right = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    for lead in ((), (2,)):
        x = rng.standard_normal(lead + (2, 5)) + 1j * rng.standard_normal(lead + (2, 5))
        out = linalg.sandwich_sum(left, x, right)
        assert out.shape == lead + (3, 3)
        for m in np.ndindex(*lead):
            for i in range(3):
                for j in range(3):
                    ref = sum(left[k, i, a] * x[m][a, b] * right[k, b, j]
                              for k in range(4) for a in range(2) for b in range(5))
                    assert abs(out[m][i, j] - ref) <= 1e-12


def test_no_unplanned_many_operand_einsum_in_the_package():
    # numpy runs an einsum of three or more operands without a contraction
    # path as one loop over every index; such products belong in linalg
    # (compress, sandwich_sum) or need optimize=
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and len(node.args) - 1 >= 3
                    and not any(kw.arg == "optimize" for kw in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_spectral_blocks_is_called_only_by_random_split():
    # every decomposition splits through the one seeded helper
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "random_split"
                  for node in ast.walk(fn)}
        found += [(path.stem, id(node) in inside) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "spectral_blocks" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == [("linalg", True)]


def _calls_by_function(name: str) -> list:
    """(module, enclosing function) of every call to ``name`` in the package."""
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        found += [(path.stem, owner.get(id(node)), node) for node in calls]
    return found


def test_closure_is_required_only_where_it_is_not_a_theorem():
    # commutants and intersections of *-algebras are algebras by construction
    callers = sorted((mod, fn) for mod, fn, _ in _calls_by_function("_require_closed"))
    assert callers == [("algebras", "algebra_from_generators"),
                       ("algebras", "commutant_of_matrices"),
                       ("algebras", "from_span")]
    # the constructor takes (ambient_dim, basis) and checks shapes only
    built = _calls_by_function("StarAlgebra")
    assert built and all(not node.keywords for _, _, node in built)
