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
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import EmptyFieldError, InvariantViolation
from .geometry import EPS_GEOM, bisector_masked, check_unit, unit
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
        """Read a field written by :meth:`to_csv`.

        Raises:
            ValueError: the header is not ``NORMAL_FIELD_HEADER``, a row is
                not 9 numbers, a value is not finite, or a pixel column is
                not an integer in 0 .. 2**31 - 1.
            InvariantViolation: a normal is not unit length.
        """
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != NORMAL_FIELD_HEADER:
                raise ValueError(f"{path}: unexpected NormalField header: "
                                 f"{header!r}")
            body = f.read()
        # a header-only file is an empty field; loadtxt would warn on it.
        # to_csv writes no comments, so a '#' is a bad value, not a comment
        data = np.empty((0, 9))
        if body.strip():
            try:
                data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                                  comments=None)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
        if data.size == 0:
            data = data.reshape(0, 9)
        if data.shape[1] != 9:
            raise ValueError(f"{path}: rows have {data.shape[1]} columns, "
                             f"a NormalField row has 9")
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: a NormalField value is not finite")
        # to_csv writes pixel columns as non-negative integers; anything
        # else would be truncated or overflow in the int conversion below
        pixels = data[:, 0:2]
        if ((pixels < 0) | (pixels >= 2**31)
                | (pixels != np.floor(pixels))).any():
            raise ValueError(f"{path}: a NormalField pixel column is not an "
                             f"integer in 0 .. 2**31 - 1")
        check_unit(data[:, 5:8], f"{path}: a NormalField normal")
        return cls(
            pixels=pixels.astype(int),
            points=data[:, 2:5],
            normals=data[:, 5:8],
            consistency=data[:, 8],
        )


class _Pair(NamedTuple):
    """The camera-0 rays of a sweep and camera 1's map, as
    ``_consistency_at`` reads them: x, y and z are the rows of a ``(3, n)``
    array, and the map is flat in row-major order."""

    scene: SceneConfig
    dirs1: np.ndarray     # (3, n) unit ray directions of the pixels
    s1: np.ndarray        # (3, n) their screen points
    shape2: tuple         # (h, w) of camera 1's map
    u2: np.ndarray        # (h*w,)
    v2: np.ndarray
    cell2: np.ndarray     # (h*w,) bool, see _cell_table


def _cell_table(valid):
    """Flat ``(h*w,)`` table of the map cells whose four corners are valid,
    indexed by the top-left corner ``y0*w + x0``; False in the last row and
    column, which start no cell."""
    cell = np.zeros_like(valid)
    cell[:-1, :-1] = (valid[:-1, :-1] & valid[:-1, 1:]
                      & valid[1:, :-1] & valid[1:, 1:])
    return cell.ravel()


def _pair(scene, dirs1, s1, corr2):
    """``_Pair`` for the camera-0 rays ``dirs1`` (n, 3) with screen points
    ``s1`` (n, 3), scored against camera 1 and its map ``corr2``."""
    return _Pair(scene, np.ascontiguousarray(dirs1.T),
                 np.ascontiguousarray(s1.T), corr2.u.shape,
                 corr2.u.ravel(), corr2.v.ravel(), _cell_table(corr2.valid))


def _norms(v):
    """Lengths of the vectors ``v[..., :, i]`` (x, y, z along axis -2),
    summed in the order in which ``np.linalg.norm`` sums a row of three."""
    sq = np.square(v)
    return np.sqrt(sq[..., 0, :] + sq[..., 1, :] + sq[..., 2, :])


def _consistency_at(pair, j, t):
    """Stereo normal disagreement of the pixels ``j`` of ``pair`` at depths
    ``t``, one row each. Returns (angle_rad, n1, ok): ``n1`` (rows, 3) is
    the normal camera 0 implies at that depth, the bisector of the
    directions back to the camera and to its screen point; ``ok`` is False
    where camera 1 cannot score the depth (behind it, outside four valid
    corners of its map) or a bisector is degenerate, and the angle is inf
    there.

    Rows are independent. The arithmetic is that of ``geometry.unit``,
    ``bisector_masked``, ``CameraModel.project`` and ``ScreenModel.
    uv_to_world`` on ``(rows, 3)`` arrays, done on x, y and z columns: a
    norm is ``sqrt((x*x + y*y) + z*z)`` (``_norms``), and the two rigid
    transforms stay one BLAS product each.

    Raises:
        ValueError: a point within ``EPS_GEOM`` of a camera centre or of
            its screen point, as ``geometry.unit`` does.
    """
    cam1, cam2 = pair.scene.cameras[0], pair.scene.cameras[1]
    screen = pair.scene.screen
    h, w = pair.shape2
    k = len(j)
    p = t * np.take(pair.dirs1, j, axis=1)
    p += cam1.center[:, None]
    # directions from p: to camera 0, to its screen point, to camera 1, and
    # (filled in below) to camera 1's screen point
    view = np.empty((4, 3, k))
    np.subtract(cam1.center[:, None], p, out=view[0])
    np.subtract(np.take(pair.s1, j, axis=1), p, out=view[1])
    np.subtract(cam2.center[:, None], p, out=view[2])

    # camera-1 pixel position, as CameraModel.project; -(c2 - p) is p - c2
    # exactly, and R.T @ (p - c2) is inverse_points' (p - c2) @ R as one
    # product of the same operands
    pc = cam2.pose.rotation.T @ np.negative(view[2])
    z = pc[2]
    front = z > 1e-9
    xy = cam2.focal_length * pc[:2]
    xy /= np.where(np.abs(z) > 1e-12, z, 1.0)
    xy += np.array(cam2.principal_point)[:, None]

    # bilinear lookup of camera 1's map: the cell's top-left corner x0, y0
    # and the weights of its four corners; the last row and column belong
    # to the cell before them
    last = np.array([[w - 1], [h - 1]])
    inside = (xy >= 0) & (xy <= last)
    inside = inside[0] & inside[1]
    np.maximum(xy, 0.0, out=xy)
    np.minimum(xy, last, out=xy)
    corner = np.minimum(xy.astype(np.intp), last - 1)
    frac = np.empty((2, 2, k))   # [1 - (fx, fy), (fx, fy)]
    np.subtract(xy, corner, out=frac[1])
    np.subtract(1.0, frac[1], out=frac[0])
    weight = np.empty((4, k))    # corners (0, 0), (1, 0), (0, 1), (1, 1)
    np.multiply(frac[:, 0], frac[0, 1], out=weight[:2])
    np.multiply(frac[:, 0], frac[1, 1], out=weight[2:])
    c = corner[1] * w
    c += corner[0]
    c4 = c + np.array([[0], [1], [w], [w + 1]])
    uv = np.empty((2, 4, k))
    uv[0] = pair.u2[c4]
    uv[1] = pair.v2[c4]
    uv *= weight
    s = uv[:, 0] + uv[:, 1]
    s += uv[:, 2]
    s += uv[:, 3]
    ok2 = inside & pair.cell2[c]

    # camera 1's screen point, as ScreenModel.uv_to_world
    local = np.zeros((3, k))
    np.multiply(np.where(ok2, s, 0.0), screen.pixel_pitch, out=local[:2])
    s2 = screen.pose.rotation @ local
    s2 += screen.pose.translation[:, None]
    np.subtract(s2, p, out=view[3])

    norm = _norms(view)
    if (norm < EPS_GEOM).any():
        raise ValueError("cannot normalize a near-zero vector")
    view /= norm[:, None]

    # bisectors, as bisector_masked: camera 0's and camera 1's
    n = view[0::2] + view[1::2]
    norm = _norms(n)
    ok_n = norm > EPS_GEOM
    with np.errstate(divide="ignore", invalid="ignore"):
        n /= norm[:, None]
        dot = n[0] * n[1]
        dot = dot[0] + dot[1] + dot[2]
    np.clip(dot, -1.0, 1.0, out=dot)
    ok = ok_n[0] & front & ok2 & ok_n[1]
    ang = np.where(ok, np.arccos(dot), np.inf)
    n1 = n[0]
    n1[:, ~ok_n[0]] = np.nan
    return ang, n1.T, ok


_COARSE_STEP = 8      # grid steps between the coarse pass's regular depths
_BLOCK_ROWS = 16384   # (pixel, depth) pairs per block of the usability pass
_MIN_USABLE = 8       # usable grid depths a pixel needs to be swept


def _usable_depths(cam1, cam2, dirs1, cell2, shape2, ts, out):
    """Write into ``out`` (n, n_steps) bool the mask of the grid depths
    that ``_consistency_at`` can score: camera 2 sees the point in front of
    it, inside a cell of its map of shape ``shape2`` that ``cell2``
    (``_cell_table``) marks valid.

    Projection only, a block of pixels at a time, in buffers that every
    block reuses. Camera-2 coordinates are affine in the depth along a
    camera-1 ray, a + t*b, and are computed so: z = a + t*b, 1.0 where
    z <= 1e-9, then x = f * (a + t*b) / z + cx, and y alike. Nothing is
    compacted: every element looks up the cell at x and y clipped to the
    cells' corners, and the frame test masks the lookup. The mask is bit
    for bit that of the compacting version the tests keep as
    ``reference_usable_depths``; it can differ from ``_consistency_at``'s
    own test only for a point within rounding error of a pixel-cell edge.
    """
    h, w = shape2
    a = cam2.pose.inverse_points(cam1.center)
    b = dirs1 @ cam2.pose.rotation
    f = cam2.focal_length
    center = cam2.principal_point
    n, n_steps = out.shape
    block = max(1, min(n, _BLOCK_ROWS // n_steps))
    xyz = np.empty((3, block, n_steps))
    corner = np.empty((2, block, n_steps), dtype=np.intp)
    flags = np.empty((2, block, n_steps), dtype=bool)
    for j in range(0, n, block):
        bj = b[j:j + block, :, None]
        m = len(bj)
        x, y, z = xyz[:, :m]
        ok, tmp = flags[:, :m]
        np.multiply(ts, bj[:, 2], out=z)
        z += a[2]
        np.greater(z, 1e-9, out=ok)
        np.copyto(z, 1.0, where=~ok)
        for c, v, last in ((0, x, w - 1), (1, y, h - 1)):
            np.multiply(ts, bj[:, c], out=v)
            v += a[c]
            v *= f
            v /= z
            v += center[c]
            ok &= np.greater_equal(v, 0, out=tmp)
            ok &= np.less_equal(v, last, out=tmp)
            # on the frame floor is truncation; the last row and column
            # belong to the cell before them, as in _consistency_at
            np.clip(v, 0, last - 1, out=v)
            np.copyto(corner[c, :m], v, casting="unsafe")
        cell = corner[1, :m]
        cell *= w
        cell += corner[0, :m]
        np.logical_and(ok, np.take(cell2, cell, out=tmp), out=out[j:j + m])


def _sweep_pixels(scene, pixels, corr1, corr2):
    """Coarse-to-fine depth sweep over many camera-0 pixels at once, against
    camera 1.

    ``cost[j*N_DEPTHS + i]`` is pixel j's disagreement at
    ``depth_grid(scene)[i]``, inf where the depth is unusable or not
    scored. Each pass of ``reconstruct_field`` is a flat list of such
    indices: the coarse pass the nonzero entries of one mask, the fine pass
    a window around each pixel's minimum, the neighbour pass two indices
    per pixel. A pass drops the indices already scored, and
    ``_consistency_at`` scores the rest on x, y and z columns, in batches
    of at most n rows. Returns per pixel the depth, disagreement, point and
    normal, and ``good``: the pixels with a result, before
    ``reconstruct_field``'s outlier cut.
    """
    cam1 = scene.cameras[0]
    n = len(pixels)
    dirs1 = cam1.pixel_rays()[1][pixels[:, 1], pixels[:, 0]]
    s1 = scene.screen.uv_to_world(corr1.u[pixels[:, 1], pixels[:, 0]],
                                  corr1.v[pixels[:, 1], pixels[:, 0]])

    ts = depth_grid(scene)
    pair = _pair(scene, dirs1, s1, corr2)
    # one more entry past the grid: the index of a depth off its row's
    # grid, which is never pending
    off = n * N_DEPTHS
    cost = np.full(off + 1, np.inf)
    grid_cost = cost[:off].reshape(n, N_DEPTHS)
    pending = np.zeros(off + 1, dtype=bool)   # usable, not scored yet
    # a view of pending, read only before the first pass scores anything
    usable = pending[:off].reshape(n, N_DEPTHS)
    _usable_depths(cam1, scene.cameras[1], dirs1, pair.cell2, pair.shape2,
                   ts, usable)
    good = usable.sum(axis=1) >= _MIN_USABLE
    base = np.arange(0, off, N_DEPTHS)

    def score(index):
        index = index[pending[index]]
        pending[index] = False
        # rows are independent, so batching cannot change a value; n rows
        # a call hold the memory to that of scoring one grid depth
        for k in range(0, len(index), n):
            batch = index[k:k + n]
            j, i = np.divmod(batch, N_DEPTHS)
            cost[batch] = _consistency_at(pair, j, ts[i])[0]
        return len(index)

    # coarse: every _COARSE_STEP-th depth, both grid ends and both ends of
    # each run of usable depths, which cuts every run into intervals of at
    # most _COARSE_STEP steps with both ends scored: a usable depth is left
    # out only off the regular steps and between two usable neighbours
    runs = np.zeros((n, N_DEPTHS + 2), dtype=bool)
    runs[:, 1:-1] = usable
    inner = runs[:, :-2] & runs[:, 2:]
    inner[:, ::_COARSE_STEP] = False
    score(np.flatnonzero(usable & ~inner))
    # fine: the coarse intervals on both sides of the coarse minimum and
    # one depth beyond each, where a second minimum next to a coarse
    # depth would hide
    half = _COARSE_STEP + 1
    i = grid_cost.argmin(axis=1)[:, None] + np.arange(-half, half + 1)
    score(np.where((i >= 0) & (i < N_DEPTHS), base[:, None] + i,
                   off).ravel())
    i_best = grid_cost.argmin(axis=1)
    # the refine reads both grid neighbours of the minimum; a neighbour can
    # turn out lower, so repeat until the minimum stays
    while score(np.column_stack([
            base + np.maximum(i_best - 1, 0),
            base + np.minimum(i_best + 1, N_DEPTHS - 1)]).ravel()):
        i_best = grid_cost.argmin(axis=1)

    at = base + i_best
    c_best = cost[at]
    t_best = ts[i_best]
    good &= np.isfinite(c_best)

    interior = good & (i_best > 0) & (i_best < N_DEPTHS - 1)
    at = np.where(interior, at, base + 1)
    cm1 = cost[at - 1]
    cp1 = cost[at + 1]
    with np.errstate(invalid="ignore"):
        denom = cm1 - 2.0 * cost[at] + cp1
        convex = interior & np.isfinite(cm1) & np.isfinite(cp1) \
            & (denom > 1e-18)
        step = ts[1] - ts[0]
        shift = np.where(convex,
                         0.5 * np.where(convex, cm1 - cp1, 0.0)
                         / np.where(convex, denom, 1.0), 0.0)
        shift = np.clip(shift, -1.0, 1.0)
    t_ref = t_best + shift * step
    ang_ref, _, ok_ref = _consistency_at(pair, np.arange(n), t_ref)
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

    Each pass is a flat list of (pixel, depth) indices, scored in batches
    by one kernel that works on x, y and z as 1-D arrays (see
    ``_sweep_pixels``).

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
