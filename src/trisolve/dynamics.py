"""Analysis tooling for the first-order residual iteration
``r <- r - (r^T H r / r^T H^2 r) H r``.

For positive definite ``H`` with eigenpairs ``(lambda_i, u_i)``, the
directions ``r+- = sqrt(lambda_j/(lambda_i+lambda_j)) u_i +-
sqrt(lambda_i/(lambda_i+lambda_j)) u_j`` span the *critical lines*: orbits
started there zig-zag between the two lines and contract by exactly
``(lambda_j - lambda_i)/(lambda_j + lambda_i)`` per step, the slowest rate
the iteration admits.  Eigenvector starts converge in one step.  The
``accelerate`` step blends two consecutive iterates so that a critical-line
orbit collapses onto an eigenvector.  ``phase_portrait`` renders the 2-D
dynamics (orbit polylines plus critical lines) as deterministic SVG and CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import H_MODE_SYMMETRIC, HOperator, check_count, norm2


def _as_operator(h) -> HOperator:
    if isinstance(h, HOperator):
        return h
    return HOperator(h, H_MODE_SYMMETRIC)


def first_order_image(h, r: np.ndarray) -> np.ndarray:
    """One application of the first-order map, as a new float64 array: a
    copy of ``r`` when ``H r = 0``, where the map leaves ``r`` unchanged."""
    op = _as_operator(h)
    r = np.asarray(r, dtype=np.float64)
    hr = op.apply(r)
    phi2 = float(np.dot(hr, hr))
    if phi2 == 0.0:
        return r.copy()
    return r - (float(np.dot(r, hr)) / phi2) * hr


@dataclass
class Orbit:
    """Residual orbit: iterates and their norms, ``points[0]`` the start."""

    points: list
    norms: list


def first_order_orbit(h, r0: np.ndarray, steps: int) -> Orbit:
    """Iterate the first-order map ``steps`` times, stopping early on an
    exactly zero residual or an exactly zero ``H r``."""
    check_count(steps=steps)
    op = _as_operator(h)
    r = np.asarray(r0, dtype=np.float64).copy()
    points = [r.copy()]
    norms = [norm2(r)]
    for _ in range(steps):
        if norms[-1] == 0.0:
            break
        hr = op.apply(r)
        phi2 = float(np.dot(hr, hr))
        if phi2 == 0.0:
            break
        r = r - (float(np.dot(r, hr)) / phi2) * hr
        points.append(r.copy())
        norms.append(norm2(r))
    return Orbit(points, norms)


@dataclass
class CriticalPair:
    """The slow directions of an eigenvalue pair ``lambda_i < lambda_j``."""

    lambda_i: float
    lambda_j: float
    r_plus: np.ndarray
    r_minus: np.ndarray
    rho: float  # per-step contraction (kappa-1)/(kappa+1), kappa = lambda_j/lambda_i


def critical_pair(lambda_i: float, lambda_j: float,
                  u_i: np.ndarray, u_j: np.ndarray) -> CriticalPair:
    """Build the critical directions for ``0 < lambda_i < lambda_j`` from the
    corresponding orthonormal eigenvectors."""
    if not 0.0 < lambda_i < lambda_j:
        raise ValueError("need 0 < lambda_i < lambda_j (equal eigenvalues have no critical pair)")
    alpha_i = math.sqrt(lambda_j / (lambda_i + lambda_j))
    alpha_j = math.sqrt(lambda_i / (lambda_i + lambda_j))
    u_i = np.asarray(u_i, dtype=np.float64)
    u_j = np.asarray(u_j, dtype=np.float64)
    kappa = lambda_j / lambda_i
    return CriticalPair(
        lambda_i, lambda_j,
        alpha_i * u_i + alpha_j * u_j,
        alpha_i * u_i - alpha_j * u_j,
        (kappa - 1.0) / (kappa + 1.0),
    )


def accelerate(h, r_k: np.ndarray, r_k1: np.ndarray) -> np.ndarray:
    """Blend two consecutive iterates into a better next residual.

    Requires ``r_k1`` to be the first-order image of ``r_k``.  Two closed
    forms are tried: the minimizer of ``||alpha F(r_k) + (1-alpha) F(r_k1)||``
    over [0, 1], and the contraction-ratio weight
    ``alpha = q / (1 + q)`` with ``q = ||r_k1|| / ||r_k||``, which on an
    exact critical line (where ``q`` equals the line's contraction factor)
    lands the blend on an eigenvector so the next image vanishes.  The
    candidate whose image is smaller wins.  Both blends combine the two
    images, so the result is again a reachable residual.
    """
    op = _as_operator(h)
    a_img = np.asarray(r_k1, dtype=np.float64)  # = F(r_k), given
    if norm2(a_img) == 0.0:
        return a_img.copy()
    b_img = first_order_image(op, a_img)
    d = a_img - b_img
    denom = float(np.dot(d, d))
    if denom == 0.0:
        return b_img
    alpha_q = min(1.0, max(0.0, -float(np.dot(b_img, d)) / denom))
    q = norm2(a_img) / norm2(np.asarray(r_k, dtype=np.float64))
    alpha_r = q / (1.0 + q)
    best = None
    for alpha in (alpha_r, alpha_q):
        cand = alpha * a_img + (1.0 - alpha) * b_img
        score = norm2(first_order_image(op, cand))
        if best is None or score < best[0]:
            best = (score, cand)
    return best[1]


def eigenbasis_equivalence(h_matrix: np.ndarray, r0: np.ndarray, steps: int) -> dict:
    """Compare the orbit of ``r0`` under a dense symmetric ``H`` with the
    orbit of ``U^T r0`` under the eigenvalue matrix; their norms coincide
    step by step in exact arithmetic.

    Returns the maximum norm deviation along the orbits plus the
    decomposition residual used to validate the eigenbasis.
    """
    h_matrix = np.asarray(h_matrix, dtype=np.float64)
    m = h_matrix.shape[0]
    if h_matrix.shape != (m, m):
        raise ValueError("H must be square")
    lam, u = np.linalg.eigh(h_matrix)
    h_fro = np.linalg.norm(h_matrix, "fro")
    decomp_residual = np.linalg.norm(h_matrix @ u - u * lam, "fro")
    if decomp_residual > 1e-10 * max(h_fro, 1.0):
        raise ValueError("eigendecomposition residual too large; is H symmetric?")
    orbit_h = first_order_orbit(h_matrix, r0, steps)
    orbit_lam = first_order_orbit(np.diag(lam), u.T @ np.asarray(r0, dtype=np.float64), steps)
    k = min(len(orbit_h.norms), len(orbit_lam.norms))
    deviation = max(
        abs(orbit_h.norms[i] - orbit_lam.norms[i]) for i in range(k)
    )
    return {
        "max_norm_deviation": deviation,
        "steps_compared": k,
        "decomposition_residual": decomp_residual,
    }


def phase_portrait(h2: np.ndarray, num_starts: int = 24, steps: int = 12):
    """Orbit data for a 2x2 positive definite ``H`` from unit-circle starts.

    Returns ``(rows, svg)``: CSV-ready rows ``(start_id, step, x, y, norm)``
    and a deterministic SVG drawing of the orbit polylines with the critical
    lines overlaid (omitted when the eigenvalues coincide).
    """
    check_count(at_least=1, num_starts=num_starts)
    h2 = np.asarray(h2, dtype=np.float64)
    if h2.shape != (2, 2):
        raise ValueError("phase portraits are drawn for 2x2 operators")
    lam, u = np.linalg.eigh(h2)
    if not lam[0] > 0.0:   # NaN fails this test too
        raise ValueError("H must be positive definite")
    rows = []
    orbits = []
    for s in range(num_starts):
        angle = 2.0 * math.pi * s / num_starts
        r0 = np.array([math.cos(angle), math.sin(angle)])
        orbit = first_order_orbit(h2, r0, steps)
        orbits.append(orbit)
        for k, (pt, nrm) in enumerate(zip(orbit.points, orbit.norms)):
            rows.append((s, k, float(pt[0]), float(pt[1]), float(nrm)))

    lines = []
    if lam[0] < lam[1]:
        pair = critical_pair(lam[0], lam[1], u[:, 0], u[:, 1])
        lines = [pair.r_plus, pair.r_minus]
    svg = _render_svg(orbits, lines)
    return rows, svg


def write_phase_portrait(h2, svg_path, csv_path, num_starts: int = 24,
                         steps: int = 12) -> None:
    rows, svg = phase_portrait(h2, num_starts, steps)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("start_id,step,x,y,norm\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{row[2]:.12g},{row[3]:.12g},{row[4]:.12g}\n")


_SVG_SIZE = 480
_SVG_SCALE = _SVG_SIZE / 2.4  # world coordinates in [-1.2, 1.2]


def _svg_coord(p) -> tuple[float, float]:
    return (
        _SVG_SIZE / 2 + _SVG_SCALE * float(p[0]),
        _SVG_SIZE / 2 - _SVG_SCALE * float(p[1]),
    )


def _render_svg(orbits, critical_directions) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for direction in critical_directions:
        d = np.asarray(direction, dtype=np.float64)
        d = d / norm2(d)
        x0, y0 = _svg_coord(-1.2 * d)
        x1, y1 = _svg_coord(1.2 * d)
        parts.append(
            f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x1:.3f}" y2="{y1:.3f}" '
            'stroke="gold" stroke-width="2"/>'
        )
    for orbit in orbits:
        coords = " ".join(
            "{:.3f},{:.3f}".format(*_svg_coord(p)) for p in orbit.points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" '
            'stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
