import math

import numpy as np
import pytest

from conftest import spd_with_spectrum
from trisolve.dynamics import (
    accelerate,
    critical_pair,
    eigenbasis_equivalence,
    first_order_image,
    first_order_orbit,
    phase_portrait,
    write_phase_portrait,
)
from trisolve.linalg import norm2


class TestOrbit:
    def test_eigenvector_converges_in_one_step(self):
        h = np.diag([1.0, 3.0])
        orbit = first_order_orbit(h, np.array([0.0, 2.0]), steps=10)
        assert len(orbit.points) == 2
        assert orbit.norms[1] <= 1e-14

    def test_critical_line_halves_each_step(self):
        h = np.diag([1.0, 3.0])
        pair = critical_pair(1.0, 3.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        orbit = first_order_orbit(h, pair.r_plus, steps=12)
        for k, nrm in enumerate(orbit.norms):
            assert abs(nrm - 0.5 ** k) <= 1e-12 * max(1.0, nrm)

    def test_orbit_scaling_homogeneous(self):
        rng = np.random.default_rng(0)
        h, _, _ = spd_with_spectrum(rng, 5, 1.0, 6.0)
        r0 = rng.standard_normal(5)
        base = first_order_orbit(h, r0, steps=8)
        scaled = first_order_orbit(h, 5.0 * r0, steps=8)
        for p, q in zip(base.points, scaled.points):
            assert norm2(q - 5.0 * p) <= 1e-12 * max(1.0, norm2(q))

    def test_norms_strictly_decreasing(self):
        rng = np.random.default_rng(1)
        h, _, _ = spd_with_spectrum(rng, 6, 1.0, 9.0)
        orbit = first_order_orbit(h, rng.standard_normal(6), steps=20)
        for a, b in zip(orbit.norms, orbit.norms[1:]):
            assert b < a

    def test_stops_on_null_direction(self):
        # r = e_2 is nonzero but H r = 0: the orbit is its start alone
        orbit = first_order_orbit(np.diag([1.0, 0.0]), np.array([0.0, 1.0]), steps=5)
        assert len(orbit.points) == 1 and orbit.norms == [1.0]


class TestCriticalPair:
    def test_coefficients_and_contraction(self):
        pair = critical_pair(1.0, 3.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.isclose(pair.r_plus[0], math.sqrt(3.0 / 4.0))
        assert np.isclose(pair.r_plus[1], math.sqrt(1.0 / 4.0))
        assert pair.rho == 0.5
        assert np.isclose(norm2(pair.r_plus), 1.0)
        assert np.isclose(norm2(pair.r_minus), 1.0)

    def test_contraction_vanishes_for_close_eigenvalues(self):
        pair = critical_pair(1.0, 1.0 + 1e-9, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert pair.rho < 1e-9

    def test_image_maps_plus_to_minus(self):
        rng = np.random.default_rng(2)
        h, lam, q = spd_with_spectrum(rng, 4, 1.0, 5.0)
        pair = critical_pair(lam[0], lam[3], q[:, 0], q[:, 3])
        image = first_order_image(h, pair.r_plus)
        assert norm2(image - pair.rho * pair.r_minus) <= 1e-12

    def test_rejects_equal_eigenvalues(self):
        with pytest.raises(ValueError):
            critical_pair(2.0, 2.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestAccelerate:
    def test_critical_line_blend_annihilates(self):
        h = np.diag([1.0, 3.0])
        pair = critical_pair(1.0, 3.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        r_k = pair.r_plus
        r_k1 = first_order_image(h, r_k)
        r_bar = accelerate(h, r_k, r_k1)
        assert norm2(first_order_image(h, r_bar)) <= 1e-12
        # the winning weight is rho/(rho+1) = (1/2)/(3/2) = 1/3
        expected = (1.0 / 3.0) * r_k1 + (2.0 / 3.0) * first_order_image(h, r_k1)
        assert norm2(r_bar - expected) <= 1e-12

    def test_eigenvector_returns_zero_image(self):
        h = np.diag([1.0, 3.0])
        r_k = np.array([2.0, 0.0])
        r_k1 = first_order_image(h, r_k)
        assert norm2(r_k1) <= 1e-14
        r_bar = accelerate(h, r_k, r_k1)
        assert norm2(r_bar) <= 1e-14

    def test_null_direction_is_a_fixed_point(self):
        # H r = 0: the map leaves r unchanged, and the blend cannot reach a
        # residual whose null component differs from r's
        h = np.diag([1.0, 0.0])
        image = first_order_image(h, [0, 1])
        assert image.dtype == np.float64 and np.array_equal(image, [0.0, 1.0])
        assert np.array_equal(accelerate(h, np.array([1.0, 1.0]), np.array([0.0, 1.0])),
                              [0.0, 1.0])

    def test_generic_blend_no_worse_than_endpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h, _, _ = spd_with_spectrum(rng, 5, 1.0, 8.0)
            r_k = rng.standard_normal(5)
            r_k1 = first_order_image(h, r_k)
            r_bar = accelerate(h, r_k, r_k1)
            bound = min(norm2(first_order_image(h, r_k)),
                        norm2(first_order_image(h, r_k1)))
            assert norm2(first_order_image(h, r_bar)) <= bound * (1 + 1e-9)


class TestEigenbasisEquivalence:
    def test_random_spd(self):
        rng = np.random.default_rng(4)
        h, _, _ = spd_with_spectrum(rng, 12, 1.0, 4.0)
        r0 = rng.standard_normal(12)
        report = eigenbasis_equivalence(h, r0, steps=25)
        assert report["max_norm_deviation"] <= 1e-10 * norm2(r0)

    def test_diagonal_is_exact(self):
        h = np.diag([1.0, 2.0, 5.0])
        r0 = np.array([1.0, -1.0, 0.5])
        report = eigenbasis_equivalence(h, r0, steps=15)
        assert report["max_norm_deviation"] == 0.0

    def test_eigenvector_start(self):
        rng = np.random.default_rng(5)
        h, lam, q = spd_with_spectrum(rng, 6, 1.0, 3.0)
        report = eigenbasis_equivalence(h, q[:, 0].copy(), steps=5)
        assert report["max_norm_deviation"] <= 1e-12

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigenbasis_equivalence(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 5)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^H must be square$"):
            eigenbasis_equivalence(np.ones((2, 3)), np.ones(2), 5)


class TestPhasePortrait:
    def test_deterministic(self):
        h = np.diag([1.0, 3.0])
        rows1, svg1 = phase_portrait(h, num_starts=8, steps=6)
        rows2, svg2 = phase_portrait(h, num_starts=8, steps=6)
        assert rows1 == rows2 and svg1 == svg2

    def test_critical_lines_drawn_iff_distinct(self):
        _, svg_equal = phase_portrait(np.eye(2), num_starts=4, steps=3)
        assert "gold" not in svg_equal
        _, svg_distinct = phase_portrait(np.diag([1.0, 3.0]), num_starts=4, steps=3)
        assert svg_distinct.count("gold") == 2

    def test_identity_orbits_converge_in_one_step(self):
        rows, _ = phase_portrait(np.eye(2), num_starts=4, steps=5)
        by_start = {}
        for start_id, step, x, y, nrm in rows:
            by_start.setdefault(start_id, []).append(nrm)
        for norms in by_start.values():
            assert len(norms) == 2 and norms[1] <= 1e-14

    def test_files_written(self, tmp_path):
        svg = tmp_path / "p.svg"
        csv = tmp_path / "p.csv"
        write_phase_portrait(np.diag([1.0, 3.0]), svg, csv, num_starts=6, steps=4)
        assert svg.read_text().startswith("<svg")
        header = csv.read_text().splitlines()[0]
        assert header == "start_id,step,x,y,norm"

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            phase_portrait(np.diag([-1.0, 2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="H must be positive definite"):
                phase_portrait(np.diag([bad, 2.0]))

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="^phase portraits are drawn for 2x2 operators$"):
            phase_portrait(np.eye(3))


class TestDynamicsInvariants:
    def test_homogeneity_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            h, _, _ = spd_with_spectrum(rng, m, 0.5, 7.0)
            r0 = rng.standard_normal(m)
            s = float(rng.uniform(0.1, 10.0))
            base = first_order_orbit(h, r0, steps=5)
            scaled = first_order_orbit(h, s * r0, steps=5)
            for p, q in zip(base.points, scaled.points):
                assert norm2(q - s * p) <= 1e-12 * max(1.0, norm2(q))

    def test_zigzag_between_critical_lines(self):
        rng = np.random.default_rng(7)
        h, lam, q = spd_with_spectrum(rng, 5, 1.0, 9.0)
        pair = critical_pair(lam[0], lam[-1], q[:, 0], q[:, -1])
        orbit = first_order_orbit(h, pair.r_plus, steps=15)
        directions = [pair.r_plus, pair.r_minus]
        for k, point in enumerate(orbit.points):
            d = directions[k % 2]
            # angle via the orthogonal component: acos collapses near zero
            orth = point - float(np.dot(point, d)) * d
            assert norm2(orth) / norm2(point) <= 1e-8
            assert abs(orbit.norms[k] - pair.rho ** k) <= 1e-10 * max(pair.rho ** k, 1e-12)

    def test_worst_case_line_is_slowest(self):
        rng = np.random.default_rng(8)
        h, lam, q = spd_with_spectrum(rng, 6, 1.0, 9.0)
        pair = critical_pair(lam[0], lam[-1], q[:, 0], q[:, -1])
        worst_ratio = norm2(first_order_image(h, pair.r_plus))
        kappa = lam[-1] / lam[0]
        assert abs(worst_ratio - (kappa - 1.0) / (kappa + 1.0)) <= 1e-10
        for _ in range(1000):
            r = rng.standard_normal(6)
            r /= norm2(r)
            assert norm2(first_order_image(h, r)) <= worst_ratio * (1 + 1e-12)

    def test_near_eigenvector_bound(self):
        # a perturbed eigenvector contracts like 2 sqrt(kappa eps / lambda)
        lam = np.array([1.0, 2.0, 4.0, 8.0])
        h = np.diag(lam)
        kappa = lam[-1] / lam[0]
        rng = np.random.default_rng(9)
        for idx in range(4):
            lam_i = lam[idx]
            for delta in (1e-8, 1e-6, 1e-4):
                other = (idx + 1) % 4
                r0 = np.zeros(4)
                r0[idx] = 1.0
                r0[other] = delta
                r0 /= norm2(r0)
                e = h @ r0 - lam_i * r0
                eps = norm2(e)
                if eps > lam_i**2 / (4.0 * kappa):
                    continue
                r1 = first_order_image(h, r0)
                assert norm2(r1) <= 2.0 * math.sqrt(kappa * eps / lam_i)
