"""Gaze from back-traced normals.

The reconstructed surface normals, extended backwards into the eye, meet
at the cornea and sclera sphere centers; the line through those two
points is the optical axis. A sequential RANSAC splits the mixed line
bundle into the two centers, the smaller-radius cluster is the cornea,
and the signed rotation of gaze estimates about the stage axis gives
relative gaze angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRadiiError,
    CentersTooCloseError,
    InsufficientLinesError,
    InvariantViolation,
    SecondCenterNotFoundError,
)
from .geometry import least_squares_point, point_line_distances, unit
from .stereo import NormalField

GAZE_CSV_HEADER = ("method,gx,gy,gz,cornea_x,cornea_y,cornea_z,"
                   "sclera_x,sclera_y,sclera_z,n_cornea,n_sclera,"
                   "rms_cornea,rms_sclera")


@dataclass(frozen=True)
class ClusterParams:
    """Sequential-RANSAC settings for the two-center split."""

    ransac_iters: int = 500
    inlier_tol: float = 0.3   # mm; matches bundle spread at sigma_c ~ 0.5 px
    min_inliers: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.inlier_tol < np.inf:
            raise InvariantViolation("cluster: inlier_tol finite and > 0")
        if self.ransac_iters < 10:
            raise InvariantViolation("cluster: ransac_iters >= 10")
        if self.min_inliers < 3:
            raise InvariantViolation("cluster: min_inliers >= 3 (the "
                                     "minimal sample)")
        if self.rng_seed < 0:
            raise InvariantViolation(
                f"cluster: rng_seed >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class GazeEstimate:
    """Estimated optical axis with its supporting centers and diagnostics."""

    direction: np.ndarray
    cornea_center: np.ndarray
    sclera_center: np.ndarray
    n_cornea_inliers: int
    n_sclera_inliers: int
    rms_cornea: float
    rms_sclera: float
    method_tag: str

    def csv_row(self) -> str:
        parts = [self.method_tag]
        for v in (self.direction, self.cornea_center, self.sclera_center):
            parts.extend(f"{x:.12g}" for x in v)
        parts.extend([str(self.n_cornea_inliers), str(self.n_sclera_inliers),
                      f"{self.rms_cornea:.12g}", f"{self.rms_sclera:.12g}"])
        return ",".join(parts)

    def pretty(self) -> str:
        """Method, direction and both centres; a centre fitted to
        back-traced lines also shows their count and rms distance."""
        g = self.direction
        lines = [f"method:        {self.method_tag}",
                 f"gaze direction: ({g[0]:+.6f}, {g[1]:+.6f}, {g[2]:+.6f})"]
        for name, c, n, rms in (
                ("cornea", self.cornea_center, self.n_cornea_inliers,
                 self.rms_cornea),
                ("sclera", self.sclera_center, self.n_sclera_inliers,
                 self.rms_sclera)):
            line = f"{name} center:  ({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f}) mm"
            if n:
                line += f"  [{n} lines, rms {rms:.4f} mm]"
            lines.append(line)
        return "\n".join(lines)


def backtrace_lines(field: NormalField) -> tuple[np.ndarray, np.ndarray]:
    """One undirected 3D line per sample: surface point along its normal."""
    if len(field) == 0:
        raise InsufficientLinesError("empty normal field")
    return field.points.copy(), field.normals.copy()


# the quadratic monomials c_j c_k (j <= k) of a point c, and the factor
# that folds a symmetric form's (j, k) and (k, j) entries into one weight
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
_SYM = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
# candidates per matrix product: a (192, n) block of distances holds as
# many floats as 64 candidates' (n, 3) offsets to every line
_SCORE_BLOCK = 192


def _inlier_counts(centers, points, dirs, tol):
    """Number of lines ``(points[i], dirs[i])`` within ``tol`` of each of
    the candidate ``centers``; a candidate with a NaN coordinate counts 0.

    The squared distance from c to the line (p, d) is taken as
    |v|^2 - (2 - |d|^2)(v.d)^2 with v = c - p, exact for unit d. That is
    v^T Q v with Q = I - (2 - |d|^2) d d^T, a quadratic form in c:
    c^T Q c - 2 (Q p).c + p.(Q p). Each line's form is expanded once into
    weights over the ten monomials of c (c_j c_k for j <= k, c_j, 1), so
    each block of candidates is scored against every line by one matrix
    product, on coordinates centred on the point mean.
    """
    mean = points.mean(axis=0)
    p = points - mean
    s = 2.0 - np.einsum("nj,nj->n", dirs, dirs)
    q = np.eye(3) - s[:, None, None] * dirs[:, :, None] * dirs[:, None, :]
    qp = p - (s * np.einsum("nj,nj->n", p, dirs))[:, None] * dirs
    weights = np.vstack([(q[:, _ROWS, _COLS] * _SYM).T, -2.0 * qp.T,
                         np.einsum("nj,nj->n", p, qp)])      # (10, n)
    c = centers - mean
    feats = np.hstack([c[:, _ROWS] * c[:, _COLS], c,
                       np.ones((len(c), 1))])                # (k, 10)
    return np.concatenate([
        ((feats[lo:lo + _SCORE_BLOCK] @ weights) < tol * tol).sum(axis=1)
        for lo in range(0, len(feats), _SCORE_BLOCK)])


def _sample_triples(n, iters, rng):
    """``iters`` uniform 3-subsets of range(n), n >= 3, as (iters, 3) rows.

    Floyd's algorithm, vectorised over the rows: draw a from [0, n-3],
    b from [0, n-2] and c from [0, n-1], then let b take n-2 where it
    repeats a, and c take n-1 where it repeats a or b.
    """
    a = rng.integers(0, n - 2, iters)
    b = rng.integers(0, n - 1, iters)
    b[b == a] = n - 2
    c = rng.integers(0, n, iters)
    c[(c == a) | (c == b)] = n - 1
    return np.stack([a, b, c], axis=1)


def _ransac_center(points, dirs, params, rng):
    """Best line-bundle intersection by 3-line RANSAC, then refined over its
    inliers. Returns (center, inlier_mask) or (None, None).

    Every hypothesis is drawn at once: ``_sample_triples`` runs Floyd's
    algorithm vectorised over the ``ransac_iters`` samples, and all 3-line
    normal systems are solved in one batch. ``_inlier_counts`` scores each
    candidate as a quadratic form: each line's squared distance is expanded
    once into weights over the monomials of the candidate, so a block of
    candidates is scored against every line by one matrix product. Points
    and candidates are centred on the point mean first, because the
    expanded terms are of the size of the squared coordinates and cancel
    down to a distance near ``inlier_tol``; about the mean they stay small,
    and so does the rounding they leave. Unsolvable samples score zero, and
    the first candidate with the most inliers wins.
    """
    iters = params.ransac_iters
    idx = _sample_triples(len(points), iters, rng)
    d3 = dirs[idx]                                   # (iters, 3, 3)
    p3 = points[idx]
    m = 3.0 * np.eye(3) - np.einsum("kij,kil->kjl", d3, d3)
    rhs = p3.sum(axis=1) - np.einsum("kij,ki->kj", d3,
                                     np.einsum("kij,kij->ki", d3, p3))
    det = np.linalg.det(m)
    solvable = np.abs(det) > 1e-9
    centers = np.full((iters, 3), np.nan)
    if solvable.any():
        centers[solvable] = np.linalg.solve(
            m[solvable], rhs[solvable][..., None]
        )[..., 0]

    tol = params.inlier_tol
    counts = _inlier_counts(centers, points, dirs, tol)
    k = int(np.argmax(counts))
    if counts[k] < 3:
        return None, None
    inliers = point_line_distances(centers[k], points, dirs) < tol
    center, _ = least_squares_point(points[inliers], dirs[inliers])
    inliers = point_line_distances(center, points, dirs) < tol
    return center, inliers


def two_center_cluster(
    points: np.ndarray, dirs: np.ndarray, params: ClusterParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
    """Split a line bundle into two intersection centers.

    Sequential RANSAC: find the strongest center, remove its inliers, find
    the second, then polish by reassigning every line to its nearer center
    and re-solving both. Returns (center_a, center_b, labels, rms) where
    labels[i] in {0, 1} assigns line i to center a or b.

    Raises:
        InsufficientLinesError: fewer than 2 * min_inliers lines.
        SecondCenterNotFoundError: too few lines support a second center.
    """
    points = np.asarray(points, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = len(points)
    if n < 2 * params.min_inliers:
        raise InsufficientLinesError(
            f"{n} lines < 2 * min_inliers = {2 * params.min_inliers}"
        )
    rng = np.random.default_rng(params.rng_seed)

    c_a, in_a = _ransac_center(points, dirs, params, rng)
    if c_a is None or in_a.sum() < params.min_inliers:
        raise SecondCenterNotFoundError("no dominant center found")

    rest = ~in_a
    if rest.sum() < params.min_inliers:
        raise SecondCenterNotFoundError(
            f"only {int(rest.sum())} lines remain after the first center"
        )
    c_b, in_b_rest = _ransac_center(points[rest], dirs[rest], params, rng)
    if c_b is None or in_b_rest.sum() < params.min_inliers:
        raise SecondCenterNotFoundError(
            "second center has too few inliers"
        )

    # final polish: nearest-center reassignment, re-solve both
    d_a = point_line_distances(c_a, points, dirs)
    d_b = point_line_distances(c_b, points, dirs)
    labels = (d_b < d_a).astype(int)
    if (labels == 0).sum() < 2 or (labels == 1).sum() < 2:
        raise SecondCenterNotFoundError("degenerate reassignment")
    c_a, rms_a = least_squares_point(points[labels == 0], dirs[labels == 0])
    c_b, rms_b = least_squares_point(points[labels == 1], dirs[labels == 1])
    return c_a, c_b, labels, (rms_a, rms_b)


def identify_cornea(
    c_a: np.ndarray,
    c_b: np.ndarray,
    points: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Tell cornea from sclera by estimated sphere radius.

    The mean distance from each cluster's surface points to its center
    estimates that sphere's radius; the smaller one is the cornea. Returns
    (cornea_center, sclera_center, cornea_label).

    Raises:
        AmbiguousRadiiError: estimated radii differ by less than 10%.
    """
    r_a = float(np.mean(np.linalg.norm(points[labels == 0] - c_a, axis=1)))
    r_b = float(np.mean(np.linalg.norm(points[labels == 1] - c_b, axis=1)))
    if abs(r_a - r_b) < 0.10 * max(r_a, r_b):
        raise AmbiguousRadiiError(
            f"cluster radii {r_a:.2f} and {r_b:.2f} mm differ by < 10%"
        )
    if r_a < r_b:
        return c_a, c_b, 0
    return c_b, c_a, 1


def gaze_from_centers(
    cornea_center: np.ndarray, sclera_center: np.ndarray
) -> np.ndarray:
    """Unit gaze direction out of the eye: cornea center minus sclera
    center, normalized.

    Raises:
        CentersTooCloseError: centers closer than 0.5 mm.
    """
    d = np.asarray(cornea_center, float) - np.asarray(sclera_center, float)
    if np.linalg.norm(d) < 0.5:
        raise CentersTooCloseError(
            f"centers {np.linalg.norm(d):.3f} mm apart (< 0.5 mm)"
        )
    return unit(d)


def relative_gaze_angle(
    g_a: np.ndarray, g_ref: np.ndarray, rotation_axis: np.ndarray
) -> float:
    """Signed angle (degrees) from ``g_ref`` to ``g_a`` about the rotation
    axis: the angle between their projections onto the plane normal to the
    axis, signed by the axis direction."""
    g_a = np.asarray(g_a, float)
    g_ref = np.asarray(g_ref, float)
    ax = np.asarray(rotation_axis, float)
    s = np.cross(g_ref, g_a) @ ax
    c = g_ref @ g_a - (g_ref @ ax) * (g_a @ ax)
    return float(np.degrees(np.arctan2(s, c)))


def estimate_gaze_two_center(
    field: NormalField,
    params: ClusterParams,
) -> GazeEstimate:
    """Full method-1 gaze stage: back-trace, cluster, identify, connect.

    A failed two-center split raises its typed error
    (``InsufficientLinesError`` or ``SecondCenterNotFoundError``).
    """
    points, dirs = backtrace_lines(field)
    c_a, c_b, labels, rms = two_center_cluster(points, dirs, params)
    cornea, sclera, cl = identify_cornea(c_a, c_b, points, labels)
    direction = gaze_from_centers(cornea, sclera)
    n0 = int((labels == 0).sum())
    n1 = int((labels == 1).sum())
    return GazeEstimate(
        direction=direction,
        cornea_center=cornea,
        sclera_center=sclera,
        n_cornea_inliers=n0 if cl == 0 else n1,
        n_sclera_inliers=n1 if cl == 0 else n0,
        rms_cornea=rms[cl],
        rms_sclera=rms[1 - cl],
        method_tag="two-center",
    )
