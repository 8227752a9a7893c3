import glob
import io
import os
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse
from trisolve import mmio

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_str(text):
    return mmio.read_matrix_market(io.StringIO(text))


class TestReader:
    def test_single_coordinate_entry(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 5.0\n"
        )
        assert sparse.issparse(a)
        assert a.shape == (2, 2) and a[0, 1] == 5.0 and a.nnz == 1

    def test_symmetric_expansion(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 3.0\n"
        )
        assert a[1, 0] == 3.0 and a[0, 1] == 3.0

    def test_array_column_major(self):
        a = read_str("%%MatrixMarket matrix array real general\n2 1\n1.5\n-2\n")
        assert isinstance(a, np.ndarray)
        assert np.array_equal(a, [[1.5], [-2.0]])

    def test_pattern_entries_become_ones(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
        )
        assert np.array_equal(a.toarray(), np.eye(2))

    def test_integer_field(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 42\n"
        )
        assert a[0, 0] == 42.0

    def test_one_based_indices(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate real general\n3 3 1\n3 3 1.0\n"
        )
        assert a[2, 2] == 1.0

    def test_skew_expansion_negates(self):
        a = read_str(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n"
        )
        assert a[1, 0] == 4.0 and a[0, 1] == -4.0

    def test_duplicates_summed_and_counted(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
            "1 1 1.0\n1 1 2.0\n2 2 5.0\n"
        )
        a, info = mmio.read_matrix_market_with_info(io.StringIO(text))
        assert a[0, 0] == 3.0 and info.duplicates == 1

    def test_comments_and_blank_lines_skipped(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "% a comment\n\n2 2 1\n% another\n1 1 9.0\n\n")
        a = read_str(text)
        assert a[0, 0] == 9.0
        # a byte source may start with a byte-order mark
        b = mmio.read_matrix_market(io.BytesIO(text.encode("utf-8-sig")))
        assert b[0, 0] == 9.0


class TestReaderErrors:
    @pytest.mark.parametrize(
        "header",
        [
            "%%MatrixMarkett matrix coordinate real general",
            "%%MatrixMarket vector coordinate real general",
            "%%MatrixMarket matrix list real general",
            "%%MatrixMarket matrix coordinate complex general",
            "%%MatrixMarket matrix coordinate quaternion general",
            "%%MatrixMarket matrix coordinate real hermitian",
            "%%MatrixMarket matrix coordinate real triangular",
            "%%MatrixMarket matrix array pattern general",
            "%%MatrixMarket matrix coordinate real",
        ],
    )
    def test_header_mutations_rejected(self, header):
        with pytest.raises(mmio.MatrixMarketError, match="line 1"):
            read_str(header + "\n1 1 1\n1 1 1.0\n")

    def test_index_out_of_bounds_names_line(self):
        with pytest.raises(mmio.MatrixMarketError, match="line 3"):
            read_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")

    def test_non_numeric_token_names_line(self):
        with pytest.raises(mmio.MatrixMarketError, match="line 4"):
            read_str(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 xyz\n"
            )

    def test_non_finite_rejected(self):
        with pytest.raises(mmio.MatrixMarketError, match="non-finite"):
            read_str("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e999\n")
        with pytest.raises(mmio.MatrixMarketError, match="non-finite"):
            read_str("%%MatrixMarket matrix array real general\n1 1\nnan\n")

    def test_skew_diagonal_rejected(self):
        with pytest.raises(mmio.MatrixMarketError, match="diagonal"):
            read_str(
                "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1.0\n"
            )

    def test_symmetric_upper_triangle_rejected(self):
        with pytest.raises(mmio.MatrixMarketError, match="lower triangle"):
            read_str(
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n"
            )

    def test_wrong_entry_count(self):
        with pytest.raises(mmio.MatrixMarketError):
            read_str("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")

    def test_bad_size_line(self):
        with pytest.raises(mmio.MatrixMarketError):
            read_str("%%MatrixMarket matrix coordinate real general\n2 2\n")
        head = "%%MatrixMarket matrix coordinate real general\n"
        for text, message in [
            ("", "line 1: empty input"),
            (head + "% only a comment\n", "line 1: missing size line"),
            (head + "0 3 0\n", "line 2: matrix dimensions must be positive"),
            (head + "3 x 5\n", "line 2: expected an integer, got 'x'"),
        ]:
            with pytest.raises(mmio.MatrixMarketError, match=message):
                read_str(text)


class TestWriter:
    def test_identity_roundtrip(self):
        a = sparse.csr_array(sparse.eye_array(3))
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        back = read_str(buf.getvalue())
        assert np.array_equal(back.toarray(), np.eye(3))

    def test_value_bit_exact(self):
        a = sparse.csr_array(np.array([[0.1]]))
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        back = read_str(buf.getvalue())
        assert back[0, 0] == 0.1  # bit equality, not closeness

    def test_empty_sparse(self):
        a = sparse.csr_array((3, 4))
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        back, info = mmio.read_matrix_market_with_info(io.StringIO(buf.getvalue()))
        assert info.entries == 0 and back.shape == (3, 4) and back.nnz == 0

    def test_dense_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3)) * np.pi
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        back = read_str(buf.getvalue())
        assert np.array_equal(back, a)

    def test_random_sparse_roundtrips_bit_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = random_sparse(rng, max_mn=50, density=0.3)
            buf = io.StringIO()
            mmio.write_matrix_market(a, buf)
            back = read_str(buf.getvalue())
            assert back.shape == a.shape
            assert (back != a).nnz == 0  # exact equality of stored values

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array])
    def test_complex_input_rejected_before_writing(self, storage, tmp_path):
        a = storage(np.array([[1 + 2j, 3]]))
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"^a must be real, got dtype complex128$"):
            mmio.write_matrix_market(a, buf)
        assert buf.getvalue() == ""
        path = tmp_path / "c.mtx"
        with pytest.raises(ValueError, match="must be real"):
            mmio.write_matrix_market(a, path)
        assert not path.exists()


class TestScipyOracle:
    """Independent reader cross-check against scipy.io.mmread."""

    def test_written_files_agree_with_scipy(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(10):
            a = random_sparse(rng, max_mn=25)
            path = tmp_path / f"m{i}.mtx"
            mmio.write_matrix_market(a, path)
            ours = mmio.read_matrix_market(path)
            theirs = scipy.io.mmread(path)
            assert np.allclose(ours.toarray(), np.asarray(theirs.todense()), atol=0)

    def test_fixture_files_agree_with_scipy(self):
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.mtx"))):
            ours = mmio.read_matrix_market(path)
            theirs = scipy.io.mmread(path)
            ours_dense = ours.toarray() if sparse.issparse(ours) else ours
            theirs_dense = np.asarray(
                theirs.todense() if sparse.issparse(theirs) else theirs
            )
            assert np.array_equal(ours_dense, theirs_dense), path


def test_corpus_fixtures_read_without_error():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.mtx")))
    assert len(paths) >= 5
    for path in paths:
        matrix, info = mmio.read_matrix_market_with_info(path)
        assert matrix.shape == (info.rows, info.cols)


COORD = "%%MatrixMarket matrix coordinate real general\n"


def error_line(text):
    """The ``line N`` prefix of the error that reading ``text`` raises."""
    with pytest.raises(mmio.MatrixMarketError) as err:
        read_str(text)
    return str(err.value).split(":")[0]


class TestErrorLineNumbers:
    """Every rejection names the file line a line-by-line read stops at."""

    def test_bad_token_after_comments_and_blank_lines(self):
        text = COORD + "% c\n\n3 3 3\n% c\n1 1 1.0\n\n   \n% c\n2 2 2.0\n\n3 3 x\n"
        assert error_line(text) == "line 12"

    def test_short_then_long_entry_names_the_short_one(self):
        # 2 + 4 tokens match 2 x 3 in total; only a per-line count sees it
        text = COORD + "3 3 3\n1 1 1.0\n% c\n2 2\n3 3 3.0 4\n"
        with pytest.raises(mmio.MatrixMarketError, match="line 5: entry needs 3 tokens, got 2"):
            read_str(text)

    def test_too_many_entries_names_the_first_extra_one(self):
        text = COORD + "2 2 2\n1 1 1.0\n% c\n\n2 2 2.0\n% c\n1 2 3.0\n2 1 4.0\n"
        with pytest.raises(mmio.MatrixMarketError, match="line 8: expected 2 entries, found 4"):
            read_str(text)

    def test_too_few_entries_names_end_of_file(self):
        text = COORD + "2 2 3\n1 1 1.0\n% c\n2 2 2.0\n"
        with pytest.raises(mmio.MatrixMarketError, match="line end of file: expected 3"):
            read_str(text)

    def test_entry_count_checked_before_tokens(self):
        assert error_line(COORD + "2 2 1\n1 1 x\n2 2 2.0\n") == "line 4"

    @pytest.mark.parametrize(
        "symmetry, entry, message",
        [
            ("general", "3 1 1.0", r"index \(3, 1\) outside 1..2 x 1..2"),
            ("general", "1 0 1.0", r"index \(1, 0\) outside"),
            ("general", "1 1 inf", "non-finite value inf"),
            ("general", "1 1 -nan", "non-finite value nan"),
            ("symmetric", "1 2 1.0", "symmetric files store only the lower triangle"),
            ("skew-symmetric", "2 2 1.0", "skew-symmetric files cannot carry diagonal"),
        ],
    )
    def test_entry_check_after_comments_names_its_line(self, symmetry, entry, message):
        text = (
            f"%%MatrixMarket matrix coordinate real {symmetry}\n% c\n2 2 3\n"
            f"2 1 1.0\n% c\n\n{entry}\n% c\n2 1 5.0\n"
        )
        with pytest.raises(mmio.MatrixMarketError, match=f"line 7: {message}"):
            read_str(text)

    def test_index_range_checked_before_value_and_triangle(self):
        with pytest.raises(mmio.MatrixMarketError, match=r"line 3: index \(3, 1\)"):
            read_str(COORD + "2 2 1\n3 1 inf\n")
        with pytest.raises(mmio.MatrixMarketError, match=r"line 3: index \(1, 3\)"):
            read_str("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 3 1.0\n")

    def test_first_bad_line_wins_across_kinds_of_check(self):
        # an out-of-range index on line 3 comes before a bad token on line 4
        assert error_line(COORD + "2 2 2\n9 9 1.0\n1 1 x\n") == "line 3"
        assert error_line(COORD + "2 2 2\n1 1 x\n9 9 1.0\n") == "line 3"

    def test_array_errors_name_their_lines(self):
        head = "%%MatrixMarket matrix array real general\n% c\n2 1\n"
        assert error_line(head + "% c\n1.0\n\n1e999\n") == "line 7"
        assert error_line(head + "1.0\n2.0 3.0\n") == "line 5"
        assert error_line(head + "1.0\n") == "line end of file"

    def test_index_beyond_int64_names_its_line(self):
        with pytest.raises(mmio.MatrixMarketError, match="line 3: expected an integer"):
            read_str(COORD + "2 2 1\n99999999999999999999 1 1.0\n")

    def test_symmetric_file_must_be_square(self):
        # before, a 3 x 2 file failed in scipy without a line number and a
        # 4 x 2 file whose mirrors fitted was read as a non-symmetric matrix
        for dims, entry in (("3 2 1", "3 1 1.0"), ("4 2 1", "2 1 1.0")):
            text = f"%%MatrixMarket matrix coordinate real symmetric\n% c\n{dims}\n{entry}\n"
            with pytest.raises(mmio.MatrixMarketError, match="line 3: symmetric matrices"):
                read_str(text)
        with pytest.raises(mmio.MatrixMarketError, match="line 3: skew-symmetric matrices"):
            read_str("%%MatrixMarket matrix array real skew-symmetric\n% c\n2 3\n1.0\n")


class TestTokenRules:
    """Tokens follow ``np.loadtxt``'s rules, not Python's ``int``/``float``."""

    @pytest.mark.parametrize(
        "entry", ["1_0 1 1.0", "1 1 1_0.5", "\u0663 1 1.0", "1 1 \u0663", "1.0 1 1.0", "1 1 0x1p3"]
    )
    def test_python_only_spellings_rejected_with_line(self, entry):
        assert error_line(COORD + "% c\n10 10 1\n" + entry + "\n") == "line 4"

    @pytest.mark.parametrize("entry", ["1 1 2.5abc", "1 1 1.5 7", "1 1.0 2.0"])
    def test_entries_scipy_misreads_rejected_with_line(self, entry):
        # scipy.io.mmread reads these as the values 2.5, 1.5 and 0.0 without
        # complaint
        assert error_line(COORD + "% c\n10 10 1\n" + entry + "\n") == "line 4"

    def test_trailing_comment_after_entry_ignored(self):
        a = read_str(COORD + "2 2 2\n1 1 1.5 % first\n2 2 -2.5%second\n")
        assert np.array_equal(a.toarray(), [[1.5, 0.0], [0.0, -2.5]])

    def test_signs_leading_zeros_and_tabs_accepted(self):
        a = read_str(COORD + "2 2 1\n\t+02   01\t-.5e1\n")
        assert a[1, 0] == -5.0


class TestNoWarnings:
    def test_empty_coordinate_file(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, info = mmio.read_matrix_market_with_info(
                io.StringIO(COORD + "% c\n3 2 0\n% trailing\n\n"))
        assert a.shape == (3, 2) and a.nnz == 0 and info.entries == 0

    def test_one_by_one_skew_array(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = read_str("%%MatrixMarket matrix array real skew-symmetric\n1 1\n")
        assert np.array_equal(a, [[0.0]]) and not np.signbit(a[0, 0])


SYMMETRIC_CASES = [
    # (header tail, body, the matrix it encodes)
    ("coordinate real symmetric", "3 3 4\n1 1 2.0\n2 1 -1.5\n3 1 0.25\n3 3 4.0\n",
     [[2.0, -1.5, 0.25], [-1.5, 0.0, 0.0], [0.25, 0.0, 4.0]]),
    ("coordinate real skew-symmetric", "3 3 2\n2 1 1.5\n3 2 -0.5\n",
     [[0.0, -1.5, 0.0], [1.5, 0.0, 0.5], [0.0, -0.5, 0.0]]),
    ("coordinate pattern symmetric", "3 3 2\n2 1\n3 3\n",
     [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ("array real symmetric", "3 3\n1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n",
     [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]),
    ("array real skew-symmetric", "3 3\n1.0\n2.0\n3.0\n",
     [[0.0, -1.0, -2.0], [1.0, 0.0, -3.0], [2.0, 3.0, 0.0]]),
    ("array integer general", "2 3\n1\n2\n3\n4\n5\n6\n",
     [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]),
]


@pytest.mark.parametrize("header, body, expected", SYMMETRIC_CASES)
def test_hand_written_files_match_explicit_matrix_and_scipy(tmp_path, header, body, expected):
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix {header}\n% comment\n{body}")
    ours = mmio.read_matrix_market(path)
    dense = ours.toarray() if sparse.issparse(ours) else ours
    theirs = scipy.io.mmread(path)
    theirs = np.asarray(theirs.todense() if sparse.issparse(theirs) else theirs, dtype=float)
    assert np.array_equal(dense, expected)
    assert np.array_equal(dense, theirs)
    if not sparse.issparse(ours):
        assert ours.flags.c_contiguous


def test_symmetric_duplicates_summed_with_their_mirrors():
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
        "2 1 0.1\n2 1 0.2\n1 1 0.3\n"
    )
    a, info = mmio.read_matrix_market_with_info(io.StringIO(text))
    assert a[1, 0] == a[0, 1] == 0.1 + 0.2 and a[0, 0] == 0.3
    assert info.duplicates == 2


class TestWriterBytes:
    def test_sparse_bytes(self):
        # unsorted coordinates: the writer emits them row by row, then by column
        a = sparse.coo_array(
            (np.array([-0.0, 0.1, 5e-324, 3.0]), (np.array([1, 0, 2, 0]), np.array([0, 2, 1, 0]))),
            shape=(3, 4),
        )
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        assert buf.getvalue() == (
            "%%MatrixMarket matrix coordinate real general\n3 4 4\n"
            "1 1 3.0\n1 3 0.1\n2 1 -0.0\n3 2 5e-324\n"
        )

    def test_dense_bytes(self):
        a = np.array([[1.0, -2.5], [1e300, 2.0 ** -1074], [np.pi, -0.0]])
        buf = io.StringIO()
        mmio.write_matrix_market(a, buf)
        assert buf.getvalue() == (
            "%%MatrixMarket matrix array real general\n3 2\n"
            "1.0\n1e+300\n3.141592653589793\n-2.5\n5e-324\n-0.0\n"
        )

    def test_integer_data_written_as_reals(self):
        buf = io.StringIO()
        mmio.write_matrix_market(sparse.csr_array(np.array([[3, 7]])), buf)
        assert buf.getvalue().endswith("1 2 2\n1 1 3.0\n1 2 7.0\n")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.225073858507201e-308]
_values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda s, e: s * 2.0 ** e, st.floats(-2, 2, allow_nan=False),
              st.integers(-1074, 1020)),
)


def _bits_equal(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_dense_roundtrip_keeps_bits(m, n, data):
    a = np.array(data.draw(st.lists(_values, min_size=m * n, max_size=m * n))).reshape(m, n)
    buf = io.StringIO()
    mmio.write_matrix_market(a, buf)
    back = read_str(buf.getvalue())
    assert back.flags.c_contiguous and _bits_equal(back, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_sparse_roundtrip_keeps_bits(m, n, data):
    cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               unique=True, max_size=m * n))
    vals = data.draw(st.lists(_values, min_size=len(cells), max_size=len(cells)))
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    a = sparse.csr_array((np.array(vals, dtype=np.float64), (rows, cols)), shape=(m, n))
    a.sort_indices()
    buf = io.StringIO()
    mmio.write_matrix_market(a, buf)
    back = read_str(buf.getvalue())
    assert back.shape == a.shape
    assert np.array_equal(back.indptr, a.indptr) and np.array_equal(back.indices, a.indices)
    assert _bits_equal(back.data, a.data)
