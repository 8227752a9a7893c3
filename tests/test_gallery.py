import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

from trisolve import cli, gallery, mmio
from trisolve.linalg import matvec


def dense(a):
    return a.toarray() if sparse.issparse(a) else np.asarray(a)


class TestDiagonal:
    def test_pd_range(self):
        d = gallery.gen_diag("pd", 3, seed=42).diagonal()
        assert d.min() > 0 and d.min() >= 1.0 and d.max() <= 9.0

    def test_psd_forced_zero(self):
        d = gallery.gen_diag("psd", 2, seed=0).diagonal()
        assert d.min() == 0.0 and d.max() <= 6.0

    def test_indefinite_sign_pattern(self):
        d = gallery.gen_diag("indefinite", 4, seed=1).diagonal()
        assert (d < 0).any() and (d > 0).any() and (d == 0.0).any()
        assert np.abs(d).max() <= 12.0

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            gallery.gen_diag("pd", 0)
        with pytest.raises(ValueError):
            gallery.gen_diag("indefinite", 2)
        with pytest.raises(ValueError, match="unknown diagonal kind 'nosuch'"):
            gallery.gen_diag("nosuch", 5)
        with pytest.raises(ValueError, match="n must be positive"):
            gallery.gen_gram_psd(0)

    def test_gram_psd_alternative(self):
        a = gallery.gen_gram_psd(10, seed=3)
        assert np.array_equal(a, a.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10


class TestClement:
    def test_n2(self):
        assert np.array_equal(dense(gallery.gen_clement(2)), [[0.0, 1.0], [1.0, 0.0]])

    def test_n3_singular(self):
        a = dense(gallery.gen_clement(3))
        assert np.allclose(a.diagonal(1), np.sqrt(2.0))
        assert abs(np.linalg.det(a)) < 1e-12

    def test_n4_offdiagonals(self):
        a = dense(gallery.gen_clement(4))
        assert np.allclose(a.diagonal(1), [np.sqrt(3.0), 2.0, np.sqrt(3.0)])
        assert np.array_equal(a, a.T)
        assert np.all(a.diagonal() == 0.0)

    def test_odd_n_has_nullspace(self):
        # dense rank oracle over every odd size up to 15
        for n in range(3, 16, 2):
            a = dense(gallery.gen_clement(n))
            assert np.linalg.matrix_rank(a) == n - 1

    def test_rejects_degenerate_size(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            gallery.gen_clement(1)


class TestDorr:
    def test_m_matrix_sign_pattern(self):
        a = dense(gallery.gen_dorr(3, 0.5))
        off = a - np.diag(a.diagonal())
        assert np.all(off <= 1e-14)

    def test_row_diagonal_dominance(self):
        for n, theta in ((5, 1.0), (10, 0.05), (17, 0.01)):
            a = dense(gallery.gen_dorr(n, theta))
            off_sums = np.abs(a).sum(axis=1) - np.abs(a.diagonal())
            assert np.all(np.abs(a.diagonal()) >= off_sums - 1e-9)

    def test_condition_grows_as_theta_shrinks(self):
        conds = [np.linalg.cond(dense(gallery.gen_dorr(10, t))) for t in (1.0, 0.1, 0.01)]
        assert conds[0] < conds[1] < conds[2]

    def test_rejects_bad_theta(self):
        for theta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="theta must be finite and positive"):
                gallery.gen_dorr(5, theta)
        with pytest.raises(ValueError, match="n must be at least 3"):
            gallery.gen_dorr(2)


class TestLotkin:
    def test_n2(self):
        assert np.allclose(gallery.gen_lotkin(2), [[1.0, 1.0], [0.5, 1.0 / 3.0]])

    def test_first_row_ones(self):
        assert np.array_equal(gallery.gen_lotkin(3)[0], np.ones(3))

    def test_corner_entry(self):
        assert gallery.gen_lotkin(3)[2, 2] == 1.0 / 5.0

    def test_rejects_degenerate_size(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            gallery.gen_lotkin(1)


class TestPoisson:
    def test_dirichlet_grid2(self):
        expected = np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        assert np.array_equal(dense(gallery.gen_poisson2d(2)), expected)

    def test_neumann_nullspace(self):
        for grid in (2, 3, 5):
            a = gallery.gen_poisson2d(grid, "neumann")
            assert np.allclose(matvec(a, np.ones(grid * grid)), 0.0)

    def test_dirichlet_symmetric_boundary_dominant(self):
        a = dense(gallery.gen_poisson2d(4))
        assert np.array_equal(a, a.T)
        off_sums = np.abs(a).sum(axis=1) - a.diagonal()
        # interior rows have equality; every boundary-adjacent row is strict
        grid = 4
        for iy in range(grid):
            for ix in range(grid):
                k = ix + grid * iy
                on_boundary = ix in (0, grid - 1) or iy in (0, grid - 1)
                if on_boundary:
                    assert a[k, k] > off_sums[k]
                else:
                    assert np.isclose(a[k, k], off_sums[k])

    def test_rejects_bad_grid_and_boundary(self):
        with pytest.raises(ValueError, match="grid must be at least 2"):
            gallery.gen_poisson2d(1)
        with pytest.raises(ValueError, match="unknown boundary condition 'robin'"):
            gallery.gen_poisson2d(4, "robin")


class TestConvDiff:
    def test_degenerates_to_poisson(self):
        tiny = 1e-12
        a = dense(gallery.gen_convdiff(3, tiny, tiny, tiny))
        p = dense(gallery.gen_poisson2d(3))
        assert np.abs(a - p).max() <= 1e-9

    def test_nonsymmetric_when_convective(self):
        a = dense(gallery.gen_convdiff(3, 1.0, 1.0, 1.0))
        h = 0.25
        # east/west neighbors of an interior node differ by 2 p1 h
        k = 4  # center of the 3x3 grid
        assert not np.isclose(a[k, k + 1], a[k, k - 1])
        assert np.isclose(a[k, k + 1] - a[k, k - 1], 2.0 * h)

    def test_five_point_stencil(self):
        a = gallery.gen_convdiff(5, 2.0, 0.5, 1.0)
        assert (np.diff(a.indptr) <= 5).all()

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            gallery.gen_convdiff(3, 0.0, 1.0, 1.0)
        for params, name in [((np.nan, 1, 1), "p1"), ((1, np.inf, 1), "p2"),
                             ((1, 1, -np.inf), "p3")]:
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                gallery.gen_convdiff(3, *params)
        with pytest.raises(ValueError, match="grid must be at least 2"):
            gallery.gen_convdiff(1, 1, 1, 1)


def _loop_five_point(grid, stencil):
    """Reference builder: the per-unknown Python loop the stencil builders
    replaced.  ``stencil(neighbours)`` gives the centre value and the
    (west, east, south, north) coefficients."""
    rows, cols, vals = [], [], []
    for iy in range(grid):
        for ix in range(grid):
            k = ix + grid * iy
            sides = [(ix > 0, k - 1), (ix < grid - 1, k + 1),
                     (iy > 0, k - grid), (iy < grid - 1, k + grid)]
            center, coeffs = stencil(sum(on for on, _ in sides))
            rows.append(k)
            cols.append(k)
            vals.append(center)
            for (on, kk), coeff in zip(sides, coeffs):
                if on:
                    rows.append(k)
                    cols.append(kk)
                    vals.append(coeff)
    coo = sparse.coo_array((vals, (rows, cols)), shape=(grid * grid, grid * grid))
    return sparse.csr_array(coo)


def _loop_poisson(grid, bc):
    return _loop_five_point(grid, lambda count: (
        4.0 if bc == "dirichlet" else float(count), (-1.0,) * 4))


def _loop_convdiff(grid, p1, p2, p3):
    h = 1.0 / (grid + 1)
    return _loop_five_point(grid, lambda count: (
        4.0 - p3 * h * h, (-1.0 - p1 * h, -1.0 + p1 * h, -1.0 - p2 * h, -1.0 + p2 * h)))


def _assert_same_csr(a, b):
    assert type(a) is type(b)
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


_GRIDS = [2, 3, 4, 5, 9, 16, 31, 64]


@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_poisson_bytes_match_the_loop_builder(grid, bc):
    _assert_same_csr(gallery.gen_poisson2d(grid, bc), _loop_poisson(grid, bc))


# (10, 0.1, 7.5) on grid 9 has h = 0.1, so the east coefficient is an
# explicit zero that both builders store
@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("params", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0), (10.0, 0.1, 7.5)])
def test_convdiff_bytes_match_the_loop_builder(grid, params):
    _assert_same_csr(gallery.gen_convdiff(grid, *params), _loop_convdiff(grid, *params))


class TestOdeMvm:
    def test_zero_last_column(self):
        m = gallery.gen_ode_mvm(6, 0.5, 1.0 / 7.0)
        assert np.all(m[:, -1] == 0.0)

    def test_singular(self):
        m = gallery.gen_ode_mvm(4, 0.5, 0.2)
        assert np.linalg.matrix_rank(m) < 4

    def test_matches_dense_inverse_oracle(self):
        n, gamma, h = 4, 0.5, 0.2
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i] = -2.0
            a[i, i + 1] = 1.0
            if i > 0:
                a[i, i - 1] = 1.0
        a[n - 1, n - 1] = -1.0
        a[n - 1, n - 2] = 1.0
        a[n - 1, 0] += -1.0 / gamma
        b = h * h * np.diag([1.0] * (n - 1) + [0.0])
        oracle = np.linalg.solve(a, b)
        assert np.abs(gallery.gen_ode_mvm(n, gamma, h) - oracle).max() <= 1e-12

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            gallery.gen_ode_mvm(4, 1.5, 0.1)
        with pytest.raises(ValueError, match="n must be at least 2"):
            gallery.gen_ode_mvm(1, 0.5, 0.1)
        for h in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="h must be finite and positive"):
                gallery.gen_ode_mvm(4, 0.5, h)
        with pytest.raises(ValueError, match="gamma must lie in"):
            gallery.gen_ode_mvm(4, np.nan)


class TestRowSumRhs:
    def test_simple(self):
        assert np.array_equal(gallery.row_sum_rhs(np.array([[1.0, 2.0], [3.0, 4.0]])), [3.0, 7.0])

    def test_zero_matrix(self):
        assert np.array_equal(gallery.row_sum_rhs(np.zeros((3, 2))), np.zeros(3))

    def test_identity(self):
        assert np.array_equal(gallery.row_sum_rhs(np.eye(5)), np.ones(5))


ALL_SPECS = [
    ("diag-pd", 7, [], 5),
    ("diag-psd", 6, [], 5),
    ("diag-indef", 6, [], 5),
    ("gram-psd", 6, [], 5),
    ("clement", 6, [], 0),
    ("dorr", 8, [0.05], 0),
    ("lotkin", 5, [], 0),
    ("poisson-d", 3, [], 0),
    ("poisson-n", 3, [], 0),
    ("convdiff", 3, [1.0, 2.0, 0.5], 0),
    ("ode", 6, [0.3], 0),
]


@pytest.mark.parametrize("family,n,params,seed", ALL_SPECS)
def test_determinism_and_row_sum_consistency(family, n, params, seed):
    a1 = gallery.make(family, n, params, seed)
    a2 = gallery.make(family, n, params, seed)
    assert np.array_equal(dense(a1), dense(a2))
    ones = np.ones(a1.shape[1])
    # identical summation path: exact equality, not just closeness
    assert np.array_equal(matvec(a1, ones), gallery.row_sum_rhs(a1))


def test_make_rejects_unknown_family():
    with pytest.raises(ValueError):
        gallery.make("hilbert", 5)
    with pytest.raises(ValueError, match="clement takes at most 0 parameters, got 2"):
        gallery.make("clement", 5, [3.0, 4.0])
    with pytest.raises(ValueError, match="convdiff takes at most 3 parameters, got 4"):
        gallery.make("convdiff", 3, [1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("family", sorted(gallery.FAMILIES))
def test_family_row_matches_its_generator(family, tmp_path):
    generator, num_params, seeded = gallery.FAMILIES[family]
    parameters = inspect.signature(generator).parameters
    positional = [name for name, p in parameters.items()
                  if p.kind is p.POSITIONAL_OR_KEYWORD and name != "seed"]
    assert num_params == len(positional) - 1   # the first is n
    assert seeded == ("seed" in parameters)
    # every family writes a file the reader takes back bit for bit
    out = tmp_path / "a.mtx"
    assert cli.main(["generate", "--gen", f"{family}:4", "--seed", "3", "--out", str(out)]) == 0
    expected = dense(gallery.make(family, 4, seed=3))
    got = dense(mmio.read_matrix_market(out))
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_IMPORT_SCRIPT = """
import sys
import numpy, scipy.sparse
before = "scipy.linalg" in sys.modules
import trisolve
print(before, "scipy.linalg" in sys.modules)
"""


def test_import_leaves_scipy_linalg_unloaded():
    # only gen_ode_mvm needs scipy.linalg; the baseline is what numpy and
    # scipy.sparse load on their own, so a scipy that loads it anyway passes
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before
