"""Stereo resolution of the deflectometric normal-depth ambiguity.

Any depth along a ray of the scene's camera 0 is consistent with its
screen correspondence, each implying a different surface normal. Sweeping
depth hypotheses and scoring each by the disagreement between the normals
that camera 0 and camera 1 imply selects the true surface point: only
there do both views bisect to the same normal. The stage uses exactly
these two cameras.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import EmptyFieldError, InvariantViolation
from .geometry import bisector_masked, unit
from .render import CorrespondenceMap, check_camera_map
from .scene import SceneConfig

NORMAL_FIELD_HEADER = "px,py,X,Y,Z,nx,ny,nz,consistency"
SWEEP_HALF_RANGE = 8.0  # mm either side of the nominal depth (depth_grid)
N_DEPTHS = 256          # depths in the sweep grid
# reconstruct_field's floor on kept samples, and its outlier cut at
# OUTLIER_FACTOR x the field's median disagreement, at least OUTLIER_FLOOR_RAD
MIN_SAMPLES = 100
OUTLIER_FACTOR = 10.0
OUTLIER_FLOOR_RAD = 1e-3


@dataclass
class NormalField:
    """Dense reconstruction output, one row per camera-0 pixel, sorted by
    row-major pixel index."""

    pixels: np.ndarray        # (N, 2) int, (px, py)
    points: np.ndarray        # (N, 3) mm
    normals: np.ndarray       # (N, 3) unit
    consistency: np.ndarray   # (N,) radians
    camera_index: ClassVar[int] = 0   # the camera whose pixels these are

    def __len__(self) -> int:
        return len(self.pixels)

    def to_csv(self, path) -> None:
        data = np.column_stack([
            self.pixels.astype(float), self.points, self.normals,
            self.consistency,
        ])
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(NORMAL_FIELD_HEADER + "\n")
            np.savetxt(f, data, fmt="%.12g", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "NormalField":
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != NORMAL_FIELD_HEADER:
                raise ValueError(f"unexpected NormalField header: {header!r}")
            data = np.loadtxt(io.StringIO(f.read()), delimiter=",", ndmin=2)
        if data.size == 0:
            data = data.reshape(0, 9)
        return cls(
            pixels=data[:, 0:2].astype(int),
            points=data[:, 2:5],
            normals=data[:, 5:8],
            consistency=data[:, 8],
        )


def _bilinear_uv(corr, x, y):
    """Bilinear interpolation of (u, v) at sub-pixel camera positions.

    Any out-of-frame sample or invalid contributing corner yields ok=False
    (validity veto prevents hallucinating across mask boundaries).
    """
    h, w = corr.u.shape
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.clip(np.floor(xc).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(yc).astype(int), 0, h - 2)
    fx = xc - x0
    fy = yc - y0
    ok = inside & corr.valid[y0, x0] & corr.valid[y0, x0 + 1] \
        & corr.valid[y0 + 1, x0] & corr.valid[y0 + 1, x0 + 1]
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    u = np.where(ok, corr.u[y0, x0] * w00 + corr.u[y0, x0 + 1] * w01
                 + corr.u[y0 + 1, x0] * w10 + corr.u[y0 + 1, x0 + 1] * w11,
                 np.nan)
    v = np.where(ok, corr.v[y0, x0] * w00 + corr.v[y0, x0 + 1] * w01
                 + corr.v[y0 + 1, x0] * w10 + corr.v[y0 + 1, x0 + 1] * w11,
                 np.nan)
    return u, v, ok


def _consistency_at(scene, cam1, cam2, dirs1, s1, corr2, t):
    """Stereo normal disagreement for a batch of camera-1 pixels at
    per-pixel depths ``t``. Returns (angle_rad, n1, ok): ``n1`` is the
    normal camera 1 implies at that depth, the bisector of the directions
    back to the camera and to its screen point ``s1``; ``ok`` is False where
    camera 2 cannot score the depth (behind it, outside four valid corners
    of ``corr2``) or a bisector is degenerate."""
    p = cam1.center + t[:, None] * dirs1
    n1, ok1 = bisector_masked(unit(cam1.center - p), unit(s1 - p))

    px2, py2, z2 = cam2.project(p)
    front = z2 > 1e-9
    u2, v2, ok2 = _bilinear_uv(corr2, px2, py2)
    s2 = scene.screen.uv_to_world(np.where(ok2, u2, 0.0),
                                  np.where(ok2, v2, 0.0))
    n2, ok3 = bisector_masked(unit(cam2.center - p), unit(s2 - p))

    ok = ok1 & front & ok2 & ok3
    dot = np.clip(np.sum(n1 * n2, axis=-1), -1.0, 1.0)
    ang = np.where(ok, np.arccos(dot), np.inf)
    return ang, n1, ok


_COARSE_STEP = 8      # grid steps between the coarse pass's regular depths
_BLOCK_ROWS = 16384   # (pixel, depth) pairs per block of the usability pass
_MIN_USABLE = 8       # usable grid depths a pixel needs to be swept


def _usable_depths(cam1, cam2, dirs1, valid2, ts):
    """(n, n_steps) mask of the grid depths that ``_consistency_at`` can
    score: camera 2 sees the point in front of it, inside four valid
    corners of its correspondence map.

    Projection only, a block of pixels at a time. Camera-2 coordinates are
    affine in the depth along a camera-1 ray, a + t*b, and are computed so;
    the mask can differ from ``_consistency_at``'s own test only for a
    point within rounding error of a pixel-cell edge.
    """
    h, w = valid2.shape
    cell_ok = (valid2[:-1, :-1] & valid2[:-1, 1:]
               & valid2[1:, :-1] & valid2[1:, 1:]).ravel()
    a = cam2.pose.inverse_points(cam1.center)[:, None]
    b = dirs1 @ cam2.pose.rotation
    f = cam2.focal_length
    cx, cy = cam2.principal_point
    n, n_steps = len(dirs1), len(ts)
    usable = np.empty((n, n_steps), dtype=bool)
    block = max(1, _BLOCK_ROWS // n_steps)
    for j in range(0, n, block):
        pc = a + ts * b[j:j + block, :, None]    # (pixels, xyz, depths)
        ok = pc[:, 2] > 1e-9
        z = np.where(ok, pc[:, 2], 1.0)
        x = f * pc[:, 0] / z + cx
        y = f * pc[:, 1] / z + cy
        ok &= (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
        # on the frame floor is truncation; the last row and column belong
        # to the cell before them, as in _bilinear_uv
        x0 = np.minimum(x[ok].astype(int), w - 2)
        y0 = np.minimum(y[ok].astype(int), h - 2)
        ok[ok] = cell_ok[y0 * (w - 1) + x0]
        usable[j:j + block] = ok
    return usable


def _sweep_pixels(scene, pixels, corr1, corr2):
    """Coarse-to-fine depth sweep over many camera-0 pixels at once, against
    camera 1.

    ``cost[j, i]`` is pixel j's disagreement at ``depth_grid(scene)[i]``,
    inf where the depth is unusable or not scored. The passes of
    ``reconstruct_field`` score part of the grid. Returns per pixel the
    depth, disagreement, point and normal, and ``good``: the pixels with a
    result, before ``reconstruct_field``'s outlier cut.
    """
    cam1, cam2 = scene.cameras[0], scene.cameras[1]
    n = len(pixels)
    dirs1 = cam1.pixel_rays()[1][pixels[:, 1], pixels[:, 0]]
    s1 = scene.screen.uv_to_world(corr1.u[pixels[:, 1], pixels[:, 0]],
                                  corr1.v[pixels[:, 1], pixels[:, 0]])

    ts = depth_grid(scene)
    usable = _usable_depths(cam1, cam2, dirs1, corr2.valid, ts)
    good = usable.sum(axis=1) >= _MIN_USABLE
    cost = np.full(usable.shape, np.inf)
    pending = usable.copy()   # usable depths not scored yet
    cols = np.arange(n)

    def score(where):
        j, i = np.nonzero(where & pending)
        pending[j, i] = False
        # rows are independent, so batching cannot change a value; n rows
        # a call hold the memory to that of scoring one grid depth
        for k in range(0, len(j), n):
            jj, ii = j[k:k + n], i[k:k + n]
            cost[jj, ii] = _consistency_at(scene, cam1, cam2, dirs1[jj],
                                           s1[jj], corr2, ts[ii])[0]
        return len(j)

    # coarse: every _COARSE_STEP-th depth, both grid ends and both ends of
    # each run of usable depths, which cuts every run into intervals of at
    # most _COARSE_STEP steps with both ends scored
    steps = np.arange(N_DEPTHS)
    edge = np.zeros_like(usable)
    edge[:, [0, -1]] = True
    edge[:, 1:] |= usable[:, 1:] != usable[:, :-1]
    edge[:, :-1] |= usable[:, :-1] != usable[:, 1:]
    score(edge | (steps % _COARSE_STEP == 0))
    # fine: the coarse intervals on both sides of the coarse minimum and
    # one depth beyond each, where a second minimum next to a coarse
    # depth would hide
    score(np.abs(steps - cost.argmin(axis=1)[:, None]) <= _COARSE_STEP + 1)
    i_best = cost.argmin(axis=1)
    # the refine reads both grid neighbours of the minimum; a neighbour can
    # turn out lower, so repeat until the minimum stays
    while True:
        nbr = np.zeros_like(usable)
        nbr[cols, np.maximum(i_best - 1, 0)] = True
        nbr[cols, np.minimum(i_best + 1, N_DEPTHS - 1)] = True
        if not score(nbr):
            break
        i_best = cost.argmin(axis=1)

    c_best = cost[cols, i_best]
    t_best = ts[i_best]
    good &= np.isfinite(c_best)

    interior = good & (i_best > 0) & (i_best < N_DEPTHS - 1)
    im = np.where(interior, i_best, 1)
    cm1 = cost[cols, im - 1]
    cp1 = cost[cols, im + 1]
    with np.errstate(invalid="ignore"):
        denom = cm1 - 2.0 * cost[cols, im] + cp1
        convex = interior & np.isfinite(cm1) & np.isfinite(cp1) \
            & (denom > 1e-18)
        step = ts[1] - ts[0]
        shift = np.where(convex,
                         0.5 * np.where(convex, cm1 - cp1, 0.0)
                         / np.where(convex, denom, 1.0), 0.0)
        shift = np.clip(shift, -1.0, 1.0)
    t_ref = t_best + shift * step
    ang_ref, _, ok_ref = _consistency_at(scene, cam1, cam2, dirs1, s1,
                                         corr2, t_ref)
    take = convex & ok_ref
    t_best = np.where(take, t_ref, t_best)
    c_best = np.where(take, ang_ref, c_best)

    p_best = cam1.center + t_best[:, None] * dirs1
    n_best, ok_n = bisector_masked(unit(cam1.center - p_best),
                                   unit(s1 - p_best))
    good &= ok_n
    return t_best, c_best, p_best, n_best, good


def depth_grid(scene: SceneConfig) -> np.ndarray:
    """The sweep's ``N_DEPTHS`` depths along camera-0 rays, in mm: the
    camera-0-to-apex distance of the nominal eye plus a small interior
    margin, plus/minus ``SWEEP_HALF_RANGE``."""
    eye = scene.eye
    d_center = float(np.linalg.norm(
        scene.cameras[0].center - eye.sclera_center
    ))
    t_nom = d_center - (eye.cornea_offset + eye.cornea_radius) + 2.5
    return np.linspace(t_nom - SWEEP_HALF_RANGE, t_nom + SWEEP_HALF_RANGE,
                       N_DEPTHS)


def reconstruct_field(
    scene: SceneConfig,
    corr1: CorrespondenceMap,
    corr2: CorrespondenceMap,
    stride: int = 1,
) -> NormalField:
    """Solve depth at every valid pixel of camera 0 (optionally strided),
    with ``corr1`` and ``corr2`` the correspondence maps of the scene's
    cameras 0 and 1.

    Each pixel takes the depth of ``depth_grid(scene)`` with the least
    stereo disagreement, polished by a parabolic fit. A depth is usable
    when camera 1 sees its point in front of it, inside four valid corners
    of ``corr2``; a pixel needs 8 usable depths. The search scores only
    part of the grid, in three passes, and then one depth off it:

    1. coarse: the usable depths at every 8th grid step, at both ends of
       the grid and at both ends of each run of usable depths;
    2. fine: every usable depth within 9 grid steps of the coarse minimum,
       which covers the coarse intervals on both sides of it;
    3. neighbours: the two grid neighbours of the minimum, which the
       parabolic fit reads; a neighbour can turn out lower, so this pass
       repeats until the minimum stays put;
    4. refine: the vertex of the parabola through the minimum and its
       neighbours, at most one grid step away, taken where the minimum is
       inside the grid, the parabola is convex and the vertex is usable.

    A pixel gets the dense search's depth, disagreement, point and normal
    bit for bit whenever the dense minimum is among the scored depths. It
    can differ only when a coarse interval away from the coarse minimum
    hides a value below every scored one, when a usable depth has a
    degenerate bisector (a screen point on the view ray behind the surface
    point), which the dense search leaves out of the usable count, or when
    a point lies within rounding error of a cell edge of ``corr2``, where
    the usable mask is computed in another order than the scoring.

    Pixels with no usable depth are dropped, as are pixels whose best
    stereo disagreement is an outlier: above ``OUTLIER_FACTOR`` times the
    field median, floored at ``OUTLIER_FLOOR_RAD``. Those are points the
    second camera cannot verify, whose sweep minimum is meaningless. Rows
    come in row-major pixel order, the order of ``np.nonzero``.

    Raises:
        InvariantViolation: ``stride`` below 1, fewer than two cameras in
            ``scene``, or a map whose shape is not its camera's (H, W).
        EmptyFieldError: fewer than ``MIN_SAMPLES`` pixels survive.
    """
    if stride < 1:
        raise InvariantViolation(f"stereo: stride {stride} < 1")
    if len(scene.cameras) < 2:
        raise InvariantViolation(
            f"stereo: needs cameras 0 and 1, the scene has "
            f"{len(scene.cameras)} camera(s)")
    check_camera_map(scene, 0, corr1)
    check_camera_map(scene, 1, corr2)
    ys, xs = np.nonzero(corr1.valid)
    keep = (ys % stride == 0) & (xs % stride == 0)
    pixels = np.column_stack([xs[keep], ys[keep]]).astype(int)
    if len(pixels) == 0:
        raise EmptyFieldError("no valid pixels in corr1")
    _, c, p, nrm, good = _sweep_pixels(scene, pixels, corr1, corr2)
    if good.any():
        good &= c <= max(OUTLIER_FACTOR * float(np.median(c[good])),
                         OUTLIER_FLOOR_RAD)
    if good.sum() < MIN_SAMPLES:
        raise EmptyFieldError(
            f"only {int(good.sum())} usable samples (need {MIN_SAMPLES})"
        )
    return NormalField(pixels=pixels[good], points=p[good],
                       normals=nrm[good], consistency=c[good])
