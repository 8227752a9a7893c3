"""Reader and writer for the NIST Matrix Market exchange format.

Coordinate files become sparse CSR matrices with symmetric or skew-symmetric
entries expanded to general storage; array files become dense row-major
matrices.  Pattern entries read as ``1.0``.  One ``np.loadtxt`` call parses all
entry lines (its C tokenizer skips ``%`` comments and blank lines, rejects a
wrong token count and rounds correctly); range, finiteness and triangle checks
are array masks.  Failures raise :class:`MatrixMarketError` naming the
offending line.  Writing uses the shortest decimal that round-trips to the same
float64, so ``read(write(A))`` reproduces every value bit-exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

BANNER = "%%MatrixMarket"

_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; message carries the 1-based line number."""


@dataclass
class MmInfo:
    """Header facts plus bookkeeping from one read."""

    format: str
    field: str
    symmetry: str
    rows: int
    cols: int
    entries: int          # entries as stated in the size line
    duplicates: int = 0   # coordinate entries that were summed into others


def _fail(lineno, message: str):
    raise MatrixMarketError(f"line {lineno}: {message}")


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(lineno, f"expected an integer, got {token!r}")


def _open_lines(source):
    # utf-8-sig tolerates a byte-order mark ahead of the banner
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return fh.read().splitlines()
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    return data.lstrip("﻿").splitlines()


def _parse_header(line: str) -> tuple[str, str, str]:
    parts = line.strip().split()
    if not parts or parts[0] != BANNER:
        _fail(1, f"header must begin with {BANNER!r}")
    if len(parts) != 5:
        _fail(1, "header needs 5 tokens: banner, object, format, field, symmetry")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix":
        _fail(1, f"unsupported object {obj!r}, only 'matrix' is handled")
    if fmt not in _FORMATS:
        _fail(1, f"unknown format {fmt!r}")
    if field == "complex":
        _fail(1, "complex matrices are not supported")
    if field not in _FIELDS:
        _fail(1, f"unknown field {field!r}")
    if symmetry == "hermitian":
        _fail(1, "hermitian implies complex data, which is not supported")
    if symmetry not in _SYMMETRIES:
        _fail(1, f"unknown symmetry {symmetry!r}")
    if fmt == "array" and field == "pattern":
        _fail(1, "array format cannot carry a pattern field")
    return fmt, field, symmetry


def read_matrix_market_with_info(source):
    """Parse ``source`` (path or file-like); return ``(matrix, MmInfo)``."""
    lines = _open_lines(source)
    if not lines:
        raise MatrixMarketError("line 1: empty input")
    fmt, field, symmetry = _parse_header(lines[0])

    # Comments and blank lines are skipped everywhere after the banner.
    size_at = next((k for k in range(1, len(lines))
                    if lines[k].strip() and not lines[k].lstrip().startswith("%")), None)
    if size_at is None:
        raise MatrixMarketError("line 1: missing size line")
    size_lineno, tokens = size_at + 1, lines[size_at].split()
    shape = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    if len(tokens) != len(shape.split()):
        _fail(size_lineno, f"{fmt} size line needs {shape!r}")
    m, n, *count = (_parse_int(t, size_lineno) for t in tokens)
    if m <= 0 or n <= 0 or min(count, default=0) < 0:
        _fail(size_lineno, "matrix dimensions must be positive")
    if symmetry != "general" and m != n:
        _fail(size_lineno, f"{symmetry} matrices must be square")

    if fmt == "coordinate":
        names = ("i", "j") if field == "pattern" else ("i", "j", "v")
        data = _parse_entries(lines, size_lineno, names, count[0], m, n, symmetry)
        matrix, dups = _coordinate_matrix(data, m, n, symmetry)
        return matrix, MmInfo(fmt, field, symmetry, m, n, count[0], dups)

    expected = {"general": m * n, "symmetric": m * (m + 1) // 2}.get(symmetry, m * (m - 1) // 2)
    data = _parse_entries(lines, size_lineno, ("v",), expected, m, n, symmetry)
    return _array_matrix(data["v"], m, n, symmetry), MmInfo(fmt, field, symmetry, m, n, m * n)


def read_matrix_market(source):
    """Parse ``source``; return sparse CSR (coordinate) or a dense ndarray (array)."""
    return read_matrix_market_with_info(source)[0]


def _load(lines, dtype):
    with warnings.catch_warnings():  # loadtxt warns when no line holds data
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, comments="%", ndmin=1)


def _entry_linenos(lines, start):
    """1-based numbers of the lines after line ``start`` that hold data."""
    return [k + 1 for k in range(start, len(lines)) if lines[k].split("%", 1)[0].strip()]


def _parse_entries(lines, start, names, expected, m, n, symmetry):
    """Parse and check the entry lines after line ``start`` (fields: int64 ``i``,
    ``j``, float64 ``v``).  Lines are counted only on failure, where the first
    offending line wins, as in a line-by-line read."""
    dtype = np.dtype([(name, np.float64 if name == "v" else np.int64) for name in names])
    noun = "entries" if "i" in names else "values"
    body = lines[start:]
    try:
        data = _load(body, dtype)
    except ValueError:
        linenos = _entry_linenos(lines, start)
        if len(linenos) != expected:
            _count_error(len(linenos), expected, noun, linenos)
        lo, hi = 0, len(body)  # body[:lo] parses, body[:hi] does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _load(body[:mid], dtype)
                lo = mid
            except ValueError:
                hi = mid
        _check(_load(body[:lo], dtype), m, n, symmetry, lambda: linenos)
        _fail(start + lo + 1, _describe(body[lo], dtype))
    if len(data) != expected:
        _count_error(len(data), expected, noun, _entry_linenos(lines, start))
    _check(data, m, n, symmetry, lambda: _entry_linenos(lines, start))
    return data


def _count_error(found, expected, noun, linenos):
    where = linenos[expected] if len(linenos) > expected else "end of file"
    _fail(where, f"expected {expected} {noun}, found {found}")


def _check(data, m, n, symmetry, linenos):
    """Raise for the first entry a line-by-line read rejects, with its message."""
    fields = data.dtype.names
    rules = [(~np.isfinite(data["v"]), "non-finite value {v}")] if "v" in fields else []
    if "i" in fields:
        i, j = data["i"], data["j"]
        rules.insert(0, ((i < 1) | (i > m) | (j < 1) | (j > n),
                         f"index ({{i}}, {{j}}) outside 1..{m} x 1..{n}"))
        if symmetry != "general":
            rules.append((i < j, f"{symmetry} files store only the lower triangle"))
        if symmetry == "skew-symmetric":
            rules.append((i == j, "skew-symmetric files cannot carry diagonal entries"))
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(text for mask, text in rules if mask[k])
        _fail(linenos()[k], message.format(**{f: data[f][k] for f in fields}))


def _describe(line, dtype):
    """Why ``np.loadtxt`` rejects ``line``: its token count, or its first bad token."""
    tokens = line.split("%", 1)[0].split()
    if len(tokens) != len(dtype.names):
        need = "1 value" if len(dtype.names) == 1 else f"{len(dtype.names)} tokens"
        return f"entry needs {need}, got {len(tokens)}"
    for token, name in zip(tokens, dtype.names):
        try:
            _load([token], dtype[name])
        except ValueError:
            what = "non-numeric token" if name == "v" else "expected an integer, got"
            return f"{what} {token!r}"
    return f"cannot parse {line.strip()!r}"


def _coordinate_matrix(data, m, n, symmetry):
    rows, cols = data["i"] - 1, data["j"] - 1
    vals = data["v"] if "v" in data.dtype.names else np.ones(len(data))
    if symmetry != "general":
        # Each stored entry is followed by its mirror, the order a line-by-line
        # read appends them in, so duplicate sums keep their bits.
        mirror = -vals if symmetry == "skew-symmetric" else vals
        keep = np.column_stack((np.ones(len(data), bool), rows != cols)).ravel()
        rows, cols = (np.column_stack(pair).ravel()[keep] for pair in ((rows, cols), (cols, rows)))
        vals = np.column_stack((vals, mirror)).ravel()[keep]
    # The CSR conversion sums duplicate coordinates in entry order.
    csr = sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(m, n)))
    return csr, len(vals) - csr.nnz


def _array_matrix(values, m, n, symmetry):
    if symmetry == "general":  # column-major per the exchange format
        return np.ascontiguousarray(values.reshape(n, m).T)
    # Column j of the stored lower triangle is row j of the upper one.
    r, c = np.triu_indices(n, k=0 if symmetry == "symmetric" else 1)
    a = np.zeros((m, n))
    a[c, r] = values
    a[r, c] = values if symmetry == "symmetric" else -values
    return a


def write_matrix_market(a, target) -> None:
    """Write ``a`` as coordinate/general (sparse input) or array/general
    (dense input)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(a, fh)
    else:
        _write(a, target)


def _write(a, fh) -> None:
    # repr() of a Python float is the shortest decimal string that parses
    # back to the same float64, which is what makes round-trips bit-exact.
    if sparse.issparse(a):
        coo = sparse.coo_array(a)
        m, n = coo.shape
        order = np.lexsort((coo.coords[1], coo.coords[0]))
        rows, cols = ((c[order] + 1).tolist() for c in coo.coords)
        vals = np.asarray(coo.data[order], dtype=np.float64).tolist()
        fh.write(f"{BANNER} matrix coordinate real general\n{m} {n} {coo.nnz}\n")
        fh.write("".join(f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, vals)))
    else:
        arr = np.asarray(a, dtype=np.float64)
        m, n = arr.shape
        fh.write(f"{BANNER} matrix array real general\n{m} {n}\n")
        fh.write("".join(f"{v!r}\n" for v in arr.T.ravel().tolist()))
