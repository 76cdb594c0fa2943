"""Vector, ray, and 3D-line primitives plus the line-bundle solvers.

Conventions used throughout the package: positions in millimeters,
direction vectors unit length, angles in degrees at API boundaries
(trigonometry in radians internally). Bundles of 3D lines are passed
around as a pair of ``(N, 3)`` arrays (base points, unit directions);
every bundle operation treats a line and its direction-flipped twin as
the same line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBundleError, InvariantViolation

# Geometric degeneracy threshold; algebraic identities on unit vectors are
# tested at 1e-12, far below any mm-scale physical tolerance.
EPS_GEOM = 1e-9


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize the last axis of ``v``. Raises on near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < EPS_GEOM):
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvariantViolation(f"{name} has non-finite components")
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > EPS_GEOM):
        raise InvariantViolation(f"{name} is not unit length")
    return v


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform (rotation then translation), local -> world."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or not np.isfinite(r).all():
            raise InvariantViolation("RigidPose.rotation must be a finite "
                                     "3x3 matrix")
        if t.shape != (3,) or not np.isfinite(t).all():
            raise InvariantViolation("RigidPose.translation must be a finite "
                                     "3-vector")
        if np.max(np.abs(r.T @ r - np.eye(3))) > EPS_GEOM:
            raise InvariantViolation("RigidPose.rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise InvariantViolation("RigidPose.rotation must have det +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def transform_points(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float) @ self.rotation.T + self.translation

    def inverse_points(self, p: np.ndarray) -> np.ndarray:
        return (np.asarray(p, dtype=float) - self.translation) @ self.rotation


def reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Specular reflection of incident direction ``d`` about unit normal ``n``.

    ``d`` points toward the surface; the result points away from it.
    Vectorized over leading axes.
    """
    d = np.asarray(d, dtype=float)
    n = np.asarray(n, dtype=float)
    return d - 2.0 * np.sum(d * n, axis=-1, keepdims=True) * n


def bisector_masked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deflectometric surface normals: unit bisectors of the view and
    illumination directions ``a`` and ``b`` (both pointing away from the
    surface point), vectorized over leading axes. Returns (normals, ok);
    rows where the two are (nearly) anti-parallel are NaN with ok False."""
    s = a + b
    norm = np.linalg.norm(s, axis=-1)
    ok = norm > EPS_GEOM
    with np.errstate(divide="ignore", invalid="ignore"):
        out = s / norm[..., None]
    out[~ok] = np.nan
    return out, ok


def ray_sphere_roots(
    origin: np.ndarray, dirs: np.ndarray, center: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Both intersection parameters for unit-direction rays from a shared
    origin; NaN where the ray misses. Returns (t_low, t_high) arrays."""
    oc = np.asarray(origin, dtype=float) - np.asarray(center, dtype=float)
    b = 2.0 * dirs @ oc
    c = oc @ oc - radius * radius
    disc = b * b - 4.0 * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_lo = np.where(hit, (-b - sq) / 2.0, np.nan)
    t_hi = np.where(hit, (-b + sq) / 2.0, np.nan)
    return t_lo, t_hi


def point_line_distances(
    x: np.ndarray, points: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Distances from point ``x`` to each line ``(points[i], dirs[i])``."""
    v = np.asarray(x, dtype=float) - points
    proj = np.sum(v * dirs, axis=1)
    perp = v - proj[:, None] * dirs
    return np.linalg.norm(perp, axis=1)


def least_squares_point(
    points: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Point minimizing the sum of squared distances to a line bundle.

    Solves the closed-form 3x3 normal equations
    ``sum(I - d d^T) x = sum(I - d d^T) p``. Returns the optimum and the
    RMS point-to-line distance at it.

    Raises:
        DegenerateBundleError: fewer than 2 lines, or all directions
            (anti)parallel so the system is rank deficient.
    """
    points = np.asarray(points, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = len(points)
    if n < 2:
        raise DegenerateBundleError("need at least 2 lines")
    m = n * np.eye(3) - dirs.T @ dirs
    rhs = points.sum(axis=0) - dirs.T @ np.sum(dirs * points, axis=1)
    eig = np.linalg.eigvalsh(m)
    if eig[0] <= EPS_GEOM * eig[-1]:
        raise DegenerateBundleError("parallel or near-parallel line bundle")
    x = np.linalg.solve(m, rhs)
    d = point_line_distances(x, points, dirs)
    return x, float(np.sqrt(np.mean(d * d)))


def rotation_about_axis(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    k = unit(axis)
    th = np.radians(angle_deg)
    kx = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    return np.eye(3) + np.sin(th) * kx + (1.0 - np.cos(th)) * (kx @ kx)
