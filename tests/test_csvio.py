import builtins
import json
import math
from unittest import mock

import numpy as np
import pytest

from wavelab1d import csvio
from wavelab1d.csvio import _CHUNK_ROWS, render, write_csv, write_json

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16, 1e-05,
           0.1, 1 / 3, 2.0 ** 60, 123456789.0, -1e-300]


def per_row_reference(header, columns) -> bytes:
    """The row-at-a-time writer that the column renderer replaced."""
    lines = [",".join(header) + "\n"]
    lines += [",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)]
    return "".join(lines).encode()


def _column(n, seed):
    """n floats: the special values, then random bit patterns of every kind."""
    bits = np.random.default_rng(seed).integers(-2 ** 63, 2 ** 63, n, dtype=np.int64)
    values = bits.view(np.float64)
    values[:len(SPECIAL)] = SPECIAL[:n]
    return values


@pytest.mark.parametrize("n", [0, 1, len(SPECIAL), _CHUNK_ROWS - 1, _CHUNK_ROWS,
                               _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
def test_column_writer_matches_per_row_reference(tmp_path, n):
    a, b = _column(n, 1), _column(n, 2)
    ints = np.arange(n) - n // 2                       # integer-valued input
    floats = _column(n, 3).tolist()                    # a list of Python floats
    columns = [a, b, ints, floats]
    header = ["a", "b", "i", "s"]
    path = write_csv(tmp_path / "out.csv", header, columns)
    assert path.read_bytes() == per_row_reference(header, columns)
    # the same file with ``a`` passed as its rendered text
    path = write_csv(tmp_path / "text.csv", header, [render(a), b, ints, floats])
    assert path.read_bytes() == per_row_reference(header, columns)


def test_header_only_file(tmp_path):
    header = ["t", "E", "M"]
    assert write_csv(tmp_path / "h.csv", header, []).read_bytes() == b"t,E,M\n"
    empty = [np.empty(0)] * 3
    assert write_csv(tmp_path / "e.csv", header, empty).read_bytes() == b"t,E,M\n"


def test_writers_pin_newline_and_encoding(tmp_path):
    # the platform newline or the locale's encoding would change the bytes
    with mock.patch.object(csvio, "open", wraps=builtins.open, create=True) as spy:
        write_csv(tmp_path / "a.csv", ["x"], [[1.0]])
        write_json(tmp_path / "a.json", {"k": "é", "v": [1.5]})
    assert spy.call_count == 2
    for call in spy.call_args_list:
        assert call.kwargs.get("newline") in ("", "\n")
        assert call.kwargs.get("encoding") == "utf-8"
    assert (tmp_path / "a.csv").read_bytes() == b"x\n1.0\n"
    assert json.loads((tmp_path / "a.json").read_bytes().decode("utf-8"))["k"] == "é"
