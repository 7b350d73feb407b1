"""Reference constructions the tests hold the package's kernels against."""

import numpy as np

from ncgalois.linalg import dagger


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + dagger(a)) / 2.0


def sylvester_gram(mats: np.ndarray) -> np.ndarray:
    """Normal matrix sum_i L_i* L_i of the maps L_i: X -> B_i X - X B_i.

    This is the unreduced n^2 x n^2 form that ``linalg.commutant_kernel``
    solves on a block-diagonal subspace.

    Expanding the Kronecker form of L_i (row-major vec) gives

        L_i* L_i = (B_i* B_i) x I  +  I x conj(B_i B_i*)
                   - B_i* x B_i^T  -  B_i x conj(B_i),

    and the cross terms collapse to one dense matmul over the family.
    """
    k, n, _ = mats.shape
    bd = dagger(mats)
    p1 = np.einsum("iab,ibc->ac", bd, mats)   # sum B*B
    p2 = np.einsum("iab,ibc->ac", mats, bd)   # sum BB*
    z = bd.reshape(k, n * n).T @ mats.transpose(0, 2, 1).reshape(k, n * n)
    x = z.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    eye = np.eye(n, dtype=np.complex128)
    return np.kron(p1, eye) + np.kron(eye, p2.conj()) - x - dagger(x)
