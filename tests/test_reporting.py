import json

import numpy as np
import pytest

from ncgalois import reporting, reps
from ncgalois.errors import IncompleteTable, SpecValidationError


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = reporting.matrix_from_json(reporting.matrix_to_json(m))
    np.testing.assert_allclose(back, m)


def test_matrix_rejects_bad_shape():
    with pytest.raises(SpecValidationError):
        reporting.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(SpecValidationError):
        reporting.matrix_from_json({"rows": 1, "cols": 1})


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.complex128).tobytes()


def test_decoded_entries_have_the_bits_of_complex_pairs(s3):
    # -0.0 in either part, an integer, a subnormal and a large value decode to
    # exactly the bits of complex(re, im), through both readers
    pairs = [[-0.0, 0.0], [0.0, -0.0], [3, -0.0], [5e-324, -1e300], [-1.5, 2 ** -60]]
    matrix = reporting.matrix_from_json({"rows": 5, "cols": 1, "entries": pairs})
    assert matrix.shape == (5, 1)
    assert _bits(matrix) == _bits([complex(re, im) for re, im in pairs])
    obj = reporting.rep_to_json(reps.regular_rep(s3))
    for m in obj["matrices"]:
        for row in m:
            row[:] = [[re, -0.0 if im == 0 else im] for re, im in row]
    rep = reporting.rep_from_json(obj)
    expected = [[[complex(re, im) for re, im in row] for row in m] for m in obj["matrices"]]
    assert _bits(rep.matrices) == _bits(expected)
    assert np.signbit(rep.matrices.imag).all()


@pytest.mark.parametrize("entries", [[["1", 0]], [[1, 0, 0]], [[1]], [[[1, 0]]]],
                         ids=["string", "triple", "single", "nested"])
def test_matrix_entries_must_be_number_pairs(entries):
    with pytest.raises(SpecValidationError, match=r"\[re, im\] number pairs"):
        reporting.matrix_from_json({"rows": 1, "cols": 1, "entries": entries})


def test_group_roundtrip(s3):
    back = reporting.group_from_json(reporting.group_to_json(s3))
    assert back == s3
    assert back.labels == s3.labels


def test_group_rejects_unknown_fields(s3):
    obj = reporting.group_to_json(s3)
    obj["extra"] = 1
    with pytest.raises(SpecValidationError):
        reporting.group_from_json(obj)


def test_rep_roundtrip(s3):
    rep = reps.regular_rep(s3)
    back = reporting.rep_from_json(reporting.rep_to_json(rep))
    assert back.group == s3
    np.testing.assert_allclose(back.matrices, rep.matrices)


def test_canonical_json_is_sorted_and_fixed_precision():
    text = reporting.dumps_canonical({"b": 1.0 / 3.0, "a": [1, True, None]})
    assert text.index('"a"') < text.index('"b"')
    assert "0.33333333333333331" in text
    # parses back as ordinary JSON
    obj = json.loads(text)
    assert obj["a"] == [1, True, None]


def test_complex_values_serialize_as_pairs():
    text = reporting.dumps_canonical({"z": 1 + 2j})
    assert json.loads(text)["z"] == [1, 2]


def test_inverse_fourier_rejects_wrong_block_count(s3):
    table = reps.irrep_table(s3)
    blocks = reps.fourier(table, np.ones(6))
    with pytest.raises(IncompleteTable):
        reps.inverse_fourier(table, blocks[:-1])
