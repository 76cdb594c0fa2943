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
# line pairs above which closest_approach_midpoints subsamples
MAX_PAIRS = 2000


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize the last axis of ``v``. Raises on near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < EPS_GEOM):
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def check_unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvariantViolation(f"{name} has non-finite components")
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > EPS_GEOM):
        raise InvariantViolation(f"{name} is not unit length")
    return v


@dataclass(frozen=True)
class Line3:
    """Undirected 3D line through ``point`` along ``dir``.

    All operations in this module are invariant under ``dir -> -dir``.
    """

    point: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "dir", check_unit(self.dir, "Line3.dir"))


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform (rotation then translation), local -> world."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3):
            raise InvariantViolation("RigidPose.rotation must be 3x3")
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


def closest_approach_midpoints(
    points: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of the closest-approach segments of line pairs, and the
    pairwise miss distances.

    Uses all pairs when there are at most ``MAX_PAIRS`` of them, otherwise a
    fixed-seed random subsample (deterministic). Near-parallel pairs are
    skipped.
    """
    points = np.asarray(points, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = len(points)
    n_pairs = n * (n - 1) // 2
    if n_pairs <= MAX_PAIRS:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.Generator(np.random.PCG64(0))
        ii = np.empty(0, dtype=np.int64)
        jj = np.empty(0, dtype=np.int64)
        while len(ii) < MAX_PAIRS:
            a = rng.integers(0, n, size=2 * MAX_PAIRS)
            b = rng.integers(0, n, size=2 * MAX_PAIRS)
            keep = a < b
            ii = np.concatenate([ii, a[keep]])
            jj = np.concatenate([jj, b[keep]])
        ii, jj = ii[:MAX_PAIRS], jj[:MAX_PAIRS]

    p1, d1 = points[ii], dirs[ii]
    p2, d2 = points[jj], dirs[jj]
    w = p1 - p2
    b = np.sum(d1 * d2, axis=1)
    d = np.sum(d1 * w, axis=1)
    e = np.sum(d2 * w, axis=1)
    denom = 1.0 - b * b
    # shallow crossings put the closest-approach point far along both lines
    # (conditioning ~ 1/sin of the crossing angle); keep well-crossed pairs
    ok = denom > np.sin(np.radians(15.0)) ** 2
    s = np.where(ok, (b * e - d) / np.where(ok, denom, 1.0), 0.0)
    t = np.where(ok, (e - b * d) / np.where(ok, denom, 1.0), 0.0)
    q1 = p1 + s[:, None] * d1
    q2 = p2 + t[:, None] * d2
    return 0.5 * (q1 + q2)[ok], np.linalg.norm((q1 - q2)[ok], axis=1)


def best_fit_axis(points: np.ndarray, dirs: np.ndarray) -> Line3:
    """Symmetry axis of a line bundle generated by a surface of revolution.

    Computes pairwise closest-approach midpoints (subsampled to at most
    ``MAX_PAIRS`` pairs) and fits a total-least-squares 3D line through
    them. The bundle of a rotationally symmetric surface concentrates those
    midpoints along its axis; an isotropic midpoint cloud (e.g. from a
    single sphere, whose normals meet at a point) has no dominant direction
    and is rejected.

    Raises:
        DegenerateBundleError: fewer than 3 lines, or midpoints isotropic
            (top two singular values within a factor of 1.5).
    """
    points = np.asarray(points, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    if len(points) < 3:
        raise DegenerateBundleError("need at least 3 lines for an axis fit")
    mid, gaps = closest_approach_midpoints(points, dirs)
    if len(mid) < 2:
        raise DegenerateBundleError("all line pairs near-parallel")
    # keep only pairs that nearly intersect: midpoints of genuinely crossing
    # lines trace the axis, skew cross-region pairs only smear it
    keep = gaps <= max(2.0 * float(np.median(gaps)), 1e-9)
    if keep.sum() >= 2:
        mid = mid[keep]
    # near-parallel pairs sling their midpoints far out; trim before the fit
    med = np.median(mid, axis=0)
    r = np.linalg.norm(mid - med, axis=1)
    r_cap = 3.0 * max(float(np.percentile(r, 90)), 1e-12)
    mid = mid[r <= r_cap]
    centroid = mid.mean(axis=0)
    sv = np.linalg.svd(mid - centroid, compute_uv=False)
    if sv[0] < 1e-9 or sv[0] < 1.5 * sv[1]:
        raise DegenerateBundleError(
            "midpoint cloud is isotropic; bundle has no symmetry axis"
        )

    # total-least-squares line, re-fit after shedding midpoints that sit far
    # off-axis relative to the cloud's length (a handful of such outliers
    # can tilt the fit by over half a degree)
    pts = mid
    for _ in range(3):
        centroid = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
        direction = vt[0]
        v = pts - centroid
        along = v @ direction
        perp = np.linalg.norm(v - along[:, None] * direction, axis=1)
        cut = max(0.05 * float(np.percentile(np.abs(along), 95)), 1e-9)
        sel = perp <= cut
        if sel.all() or sel.sum() < max(10, len(pts) // 2):
            break
        pts = pts[sel]
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    return Line3(point=centroid, dir=unit(vt[0]))


def rotation_about_axis(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    k = unit(axis)
    th = np.radians(angle_deg)
    kx = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    return np.eye(3) + np.sin(th) * kx + (1.0 - np.cos(th)) * (kx @ kx)
