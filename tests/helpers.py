"""Shared test utilities: analytic surfaces, synthetic line bundles, angle
and report readers, and the direct-evaluation references of the eye hit
test and the render, of the fit's Jacobian, of the decode stages, of the
stereo scoring kernel and of RANSAC scoring, and the pinhole projection
they score with."""

import heapq

import numpy as np
from scipy import ndimage

from deflect_gaze.bench import CSV_HEADER
from deflect_gaze.decode import (FOUR_CONN, MIN_COMPONENT, MOD_FLOOR, N_SCALES,
                                 Q_MIN, PhaseMap, foreground_mask)
from deflect_gaze import geometry
from deflect_gaze.errors import NoRidgeError
from deflect_gaze.geometry import (bisector_masked, ray_sphere_roots, reflect,
                                   unit)
from deflect_gaze.optimize import (_eye_tangents, _ramp_tangents,
                                   _uv_tangents, _weights)
from deflect_gaze.render import CorrespondenceMap, screen_hits
from deflect_gaze.scene import CORNEA, SCLERA


def plane_mirror_surface(point, normal):
    """Analytic plane-mirror hit function, the R -> infinity limit of the
    eye: ``surface(origin, dirs (..., 3)) -> (points, normals, region,
    hit)``, with NaN points and normals where ``hit`` is False."""
    p0 = np.asarray(point, dtype=float)
    n = unit(np.asarray(normal, dtype=float))

    def surface(origin, dirs):
        flat = dirs.reshape(-1, 3)
        denom = flat @ n
        safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
        t = ((p0 - origin) @ n) / safe
        hit = (np.abs(denom) > 1e-12) & (t > 1e-9)
        pts = origin + t[:, None] * flat
        nrm = np.tile(n, (len(flat), 1))
        pts[~hit] = np.nan
        nrm[~hit] = np.nan
        region = np.zeros(len(flat), dtype=np.int8)
        sh = dirs.shape[:-1]
        return (pts.reshape(*sh, 3), nrm.reshape(*sh, 3),
                region.reshape(sh), hit.reshape(sh))

    return surface


def plane_mirror_correspondence(scene, cam_index, point, normal, stride=1):
    """Camera ``cam_index``'s correspondence map of every ``stride``-th
    pixel off the plane mirror through ``point`` with ``normal``: the
    production ``render.screen_hits`` on :func:`plane_mirror_surface`'s
    hits."""
    origin, dirs = scene.cameras[cam_index].pixel_rays()
    dirs = dirs[::stride, ::stride]
    flat = dirs.reshape(-1, 3)
    points, normals, _, hit = plane_mirror_surface(point, normal)(origin,
                                                                  flat)
    index = np.flatnonzero(hit)
    u, v, ok = screen_hits(scene.screen, flat[index], points[index],
                           normals[index])
    at = index[ok]
    u_map = np.full(len(flat), np.nan)
    v_map = np.full(len(flat), np.nan)
    valid = np.zeros(len(flat), dtype=bool)
    u_map[at] = u[ok]
    v_map[at] = v[ok]
    valid[at] = True
    shape = dirs.shape[:-1]
    return CorrespondenceMap(u=u_map.reshape(shape), v=v_map.reshape(shape),
                             valid=valid.reshape(shape))


def angle_between_deg(u, v):
    """Unsigned angle between unit vectors, degrees in [0, 180]."""
    dot = np.clip(np.sum(np.asarray(u) * np.asarray(v), axis=-1), -1.0, 1.0)
    ang = np.degrees(np.arccos(dot))
    return float(ang) if np.isscalar(ang) or ang.ndim == 0 else ang


def parse_csv_report(text):
    """Read back a csv report into {position: (mean, std, epsilon)}."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected csv header")
    out = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        out[float(parts[0])] = (float(parts[4]), float(parts[5]),
                                float(parts[6]))
    return out


def random_unit_vectors(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def bundle_through_point(center, n, seed=0, point_radius=10.0,
                         dir_sigma=0.0, point_sigma=0.0):
    """Lines through ``center`` (optionally perturbed), with base points on
    a sphere of ``point_radius`` around it."""
    g = np.random.default_rng(seed)
    dirs = random_unit_vectors(n, seed=seed + 1)
    points = np.asarray(center, float) + point_radius * dirs
    if point_sigma > 0:
        points = points + g.normal(0.0, point_sigma, size=points.shape)
    if dir_sigma > 0:
        dirs = dirs + g.normal(0.0, dir_sigma, size=dirs.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return points, dirs


def brute_force_min_point(points, dirs, lo, hi, step):
    """Grid search of the sum of squared line distances over a cube; the
    independent oracle for the closed-form solver. With v = g - p per grid
    point g and line (p, d), |v|^2 = |g|^2 - 2 g.p + |p|^2 and v.d = g.d -
    p.d, so a z-slice takes matrix products, not per-line 3-D arrays."""
    ax = np.arange(lo, hi + step / 2, step)
    best_val = np.inf
    best_x = None
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    plane = np.stack([xx.ravel(), yy.ravel()], axis=1)
    p_sum = points.sum(axis=0)
    p_sq = float(np.sum(points * points))
    # v.d of the slice z = 0; a slice at z adds z d_z
    proj0 = plane @ dirs[:, :2].T - np.sum(points * dirs, axis=1)
    for z in ax:
        grid = np.column_stack([plane, np.full(len(plane), z)])
        v_sq = (len(points) * np.sum(grid * grid, axis=1)
                - 2.0 * grid @ p_sum + p_sq)
        proj = proj0 + z * dirs[:, 2]
        tot = v_sq - np.einsum("gn,gn->g", proj, proj)
        k = int(np.argmin(tot))
        if tot[k] < best_val:
            best_val = float(tot[k])
            best_x = grid[k]
    return best_x, best_val


# ---------------------------------------------------------------------------
# Trace references: the full-array eye hit test, render and re-tracing
# Jacobian that the compact hit kernel replaced. The package must reproduce
# them bit for bit.

def reference_surface_hit_batch(eye, origin, dirs):
    """``scene.eye_surface_hit_batch`` as full-array NaN fills around the
    bounding-sphere prefilter's subset. Returns (points, normals, region,
    hit) in the layout of ``dirs``."""
    dirs = np.asarray(dirs, dtype=float)
    flat = dirs.reshape(-1, 3)
    n = len(flat)
    cc = eye.cornea_center
    sc = eye.sclera_center
    cos_ap = np.cos(np.radians(eye.cornea_aperture))

    bound = max(eye.sclera_radius, eye.cornea_offset + eye.cornea_radius)
    oc = origin - sc
    proj = flat @ oc
    near = ~((oc @ oc - proj * proj) > bound * bound)
    sub = flat[near]

    points = np.full((n, 3), np.nan)
    normals = np.full((n, 3), np.nan)
    region = np.full(n, -1, dtype=np.int8)
    hit_all = np.zeros(n, dtype=bool)

    if len(sub):
        t_cand = np.empty((4, len(sub)))
        t_cand[0], t_cand[1] = ray_sphere_roots(origin, sub, cc,
                                                eye.cornea_radius)
        t_cand[2], t_cand[3] = ray_sphere_roots(origin, sub, sc,
                                                eye.sclera_radius)
        occ = origin - cc
        a0 = occ @ eye.optical_axis
        b0 = occ @ occ
        d_axis = sub @ eye.optical_axis
        d_occ = sub @ occ
        dot_axis = a0 + t_cand * d_axis
        with np.errstate(invalid="ignore"):
            member = np.empty_like(t_cand, dtype=bool)
            member[:2] = dot_axis[:2] >= cos_ap * eye.cornea_radius
            rel_norm = np.sqrt(b0 + t_cand[2:] * (2.0 * d_occ + t_cand[2:]))
            member[2:] = dot_axis[2:] < cos_ap * rel_norm
            usable = member & np.isfinite(t_cand) & (t_cand
                                                     > geometry.EPS_GEOM)
        t_masked = np.where(usable, t_cand, np.inf)
        k_best = np.argmin(t_masked, axis=0)
        best_t = np.min(t_masked, axis=0)
        hit = np.isfinite(best_t)

        p = origin + best_t[:, None] * sub
        is_c = k_best < 2
        nrm = np.where(is_c[:, None], (p - cc) / eye.cornea_radius,
                       (p - sc) / eye.sclera_radius)
        p[~hit] = np.nan
        nrm[~hit] = np.nan
        points[near] = p
        normals[near] = nrm
        reg_sub = np.where(is_c, CORNEA, SCLERA).astype(np.int8)
        reg_sub[~hit] = -1
        region[near] = reg_sub
        hit_all[near] = hit

    shape = dirs.shape[:-1]
    return (points.reshape(*shape, 3), normals.reshape(*shape, 3),
            region.reshape(shape), hit_all.reshape(shape))


def reference_screen_correspondence(screen, dirs, points, normals, hit):
    """Screen correspondences of traced rays as full NaN-filled maps in the
    layout of ``hit``, reflecting the rays gathered by ``hit``."""
    shape = hit.shape
    u = np.full(shape, np.nan)
    v = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)
    if np.any(hit):
        d_h = dirs[hit]
        p_h = points[hit]
        r = reflect(d_h, normals[hit])
        p0 = screen.plane_point
        nrm = screen.plane_normal
        denom = r @ nrm
        safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
        t = ((p0 - p_h) @ nrm) / safe
        ok = (np.abs(denom) > 1e-12) & (t > 1e-9)

        q = p_h + t[:, None] * r
        uu, vv = screen.world_to_uv(q)
        w_s, h_s = screen.resolution
        ok &= (uu >= 0) & (uu < w_s) & (vv >= 0) & (vv < h_s)
        u[hit] = np.where(ok, uu, np.nan)
        v[hit] = np.where(ok, vv, np.nan)
        valid[hit] = ok
    return CorrespondenceMap(u=u, v=v, valid=valid)


def reference_correspondence(scene, cam_index, surface=None, stride=1):
    """``render.render_correspondence`` with one full-grid hit test and
    full NaN-filled maps; ``surface`` gets the (H, W, 3) ray grid."""
    origin, dirs = scene.cameras[cam_index].pixel_rays()
    dirs = dirs[::stride, ::stride]
    if surface is None:
        points, normals, _, hit = reference_surface_hit_batch(scene.eye,
                                                              origin, dirs)
    else:
        points, normals, _, hit = surface(origin, dirs)
    return reference_screen_correspondence(scene.screen, dirs, points,
                                           normals, hit)


def with_value_at_valid_pixel(corr, channel, value):
    """``corr`` with ``value`` in ``channel`` at its first valid pixel."""
    out = corr.copy()
    ys, xs = np.nonzero(out.valid)
    getattr(out, channel)[ys[0], xs[0]] = value
    return out


def reference_jacobian(params, measured_terms, scene):
    """``optimize._jacobian`` re-tracing the rays with a positive measured
    weight at ``params``: it materializes the eye again, runs the full-array
    hit test and render on those rays, then the tangent pass."""
    eye = params.materialize(scene.eye)
    tan = _eye_tangents(params, eye, scene.eye)
    jac = []
    for i, terms in enumerate(measured_terms):
        origin = scene.cameras[i].center
        weighted = np.flatnonzero(terms.weight > 0)
        dirs = terms.dirs[weighted]
        points, normals, region, hit = reference_surface_hit_batch(
            eye, origin, dirs)
        sim = reference_screen_correspondence(scene.screen, dirs, points,
                                              normals, hit)
        pix, dirs, points, normals, region, u, v = (
            a[sim.valid] for a in (weighted, dirs, points, normals,
                                   region, sim.u, sim.v))
        w, args, ramps = _weights(eye, scene, terms, origin, pix, points,
                                  u, v)
        wsum = w.sum()
        live = w > 0
        pix, dirs, points, normals, region, u, v, w = (
            a[live] for a in (pix, dirs, points, normals, region, u, v, w))
        args, ramps = args[:, live], ramps[:, live]
        d_t, d_uv = _uv_tangents(eye, tan, scene.screen, dirs, points,
                                 normals, region)
        d_args = _ramp_tangents(eye, tan, scene, origin, dirs, points, u, v,
                                args, d_t, d_uv)
        with np.errstate(invalid="ignore"):
            d_log_w = np.sum(np.where((ramps < 1.0)[..., None],
                                      d_args / args[..., None], 0.0), axis=0)
        du = terms.meas.u.ravel()[pix] - u
        dv = terms.meas.v.ravel()[pix] - v
        d_u, d_v = d_uv[..., 0], d_uv[..., 1]
        cap = terms.cap
        v2 = du * du + dv * dv
        f = np.sqrt(w * cap / ((cap + v2) * wsum))[:, None]
        d_log_f = 0.5 * (d_log_w
                         + (2.0 * (du[:, None] * d_u + dv[:, None] * d_v))
                         / (cap + v2)[:, None]
                         - (w @ d_log_w) / wsum)
        jac += [f * (d_log_f * du[:, None] - d_u),
                f * (d_log_f * dv[:, None] - d_v)]
    return np.concatenate(jac) * np.sqrt(2.0 / len(measured_terms))


# ---------------------------------------------------------------------------
# Decode references: slower evaluations of the same decode stages, which the
# tests require ``decode`` to reproduce.

def reference_cwt2_phase(frame, params):
    """``cwt2_phase`` by direct convolution over the whole frame: 4
    ``convolve1d`` passes per scale with scipy's ``reflect`` boundary. The
    ridge modulus is then set to 0 outside the foreground mask's bounding
    box grown by ``2 scale_max`` px, before the normaliser is taken."""
    img = np.asarray(frame, dtype=float)
    h, w = img.shape
    fg_rows, fg_cols = np.nonzero(foreground_mask(img))
    if fg_rows.size == 0:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: the frame has no foreground")
    grow = int(np.ceil(2.0 * params.scale_max))
    in_region = np.zeros((h, w), dtype=bool)
    in_region[max(fg_rows.min() - grow, 0):fg_rows.max() + 1 + grow,
              max(fg_cols.min() - grow, 0):fg_cols.max() + 1 + grow] = True
    carrier_axis = 1 if params.orientation == "x" else 0
    env_axis = 1 - carrier_axis

    scales = np.geomspace(params.scale_min, params.scale_max, N_SCALES)
    best_mod = np.zeros((h, w))
    best_re = np.zeros((h, w))
    best_im = np.zeros((h, w))
    admitted_any = np.zeros((h, w), dtype=bool)

    ix = np.arange(w)
    iy = np.arange(h)
    border = np.minimum(
        np.minimum(ix, w - 1 - ix)[None, :], np.minimum(iy, h - 1 - iy)[:, None]
    ).astype(float)

    for s in scales:
        half = int(np.ceil(4.0 * s))
        t = np.arange(-half, half + 1, dtype=float)
        env = np.exp(-t * t / (2.0 * s * s))
        env /= env.sum()
        cr = env * np.cos(params.omega0 * t / s)
        ci = env * np.sin(params.omega0 * t / s)

        re = ndimage.convolve1d(img, cr, axis=carrier_axis, mode="reflect")
        im = ndimage.convolve1d(img, ci, axis=carrier_axis, mode="reflect")
        re = ndimage.convolve1d(re, env, axis=env_axis, mode="reflect")
        im = ndimage.convolve1d(im, env, axis=env_axis, mode="reflect")
        mod = np.hypot(re, im)

        admissible = border >= 2.0 * s
        upd = admissible & (mod > best_mod)
        best_mod[upd] = mod[upd]
        best_re[upd] = re[upd]
        best_im[upd] = im[upd]
        admitted_any |= admissible

    best_mod[~in_region] = 0.0
    ref = np.percentile(best_mod[admitted_any], 95) if admitted_any.any() else 0.0
    if ref < MOD_FLOOR:
        quality = np.zeros((h, w))
    else:
        quality = np.clip(best_mod / ref, 0.0, 1.0)
    valid = admitted_any & (quality >= Q_MIN) & (best_mod >= MOD_FLOOR)
    if valid.mean() < 0.01:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: fewer than 1% of pixels pass "
            f"the ridge quality threshold"
        )
    phase = np.arctan2(best_im, best_re)
    phase[~valid] = np.nan
    return PhaseMap(phase=phase, quality=quality, valid=valid)


def reference_unwrap2(pmap, seed_pixel):
    """The quality-guided fill from one valid seed pixel (x, y) on the full
    grid, with numpy scalar indexing and a ``(-quality, y, x)`` heap."""
    sx, sy = seed_pixel
    h, w = pmap.phase.shape

    phase = pmap.phase
    quality = pmap.quality
    valid = pmap.valid
    out = np.full((h, w), np.nan)
    done = np.zeros((h, w), dtype=bool)
    queued = np.zeros((h, w), dtype=bool)
    out[sy, sx] = phase[sy, sx]
    done[sy, sx] = True

    two_pi = 2.0 * np.pi
    heap = []

    def push_neighbors(y, x):
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and valid[ny, nx] \
                    and not done[ny, nx] and not queued[ny, nx]:
                queued[ny, nx] = True
                heapq.heappush(heap, (-quality[ny, nx], ny, nx))

    push_neighbors(sy, sx)
    while heap:
        _, y, x = heapq.heappop(heap)
        if done[y, x]:
            continue
        best_q = -1.0
        ref = 0.0
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and done[ny, nx] \
                    and quality[ny, nx] > best_q:
                best_q = quality[ny, nx]
                ref = out[ny, nx]
        k = np.round((ref - phase[y, x]) / two_pi)
        out[y, x] = phase[y, x] + two_pi * k
        done[y, x] = True
        push_neighbors(y, x)

    return PhaseMap(phase=out, quality=quality.copy(), valid=done)


def copied(pm):
    """A ``PhaseMap`` holding copies of ``pm``'s three arrays."""
    return PhaseMap(pm.phase.copy(), pm.quality.copy(), pm.valid.copy())


def reference_sever_phase_seams(pm, max_step_scale=0.75):
    """The phase-step cut taking wrapped steps on the NaN-filled map: the
    returned map's valid pixels are ``pm.valid & ~decode._phase_cuts``."""
    p, m = pm.phase, pm.valid
    lim = max_step_scale * np.pi

    def wrapdiff(a, b):
        d = a - b
        return np.abs((d + np.pi) % (2.0 * np.pi) - np.pi)

    bad = np.zeros_like(m)
    dx = wrapdiff(p[:, 1:], p[:, :-1])
    both = m[:, 1:] & m[:, :-1]
    cut = both & (dx > lim)
    bad[:, 1:] |= cut
    bad[:, :-1] |= cut
    dy = wrapdiff(p[1:, :], p[:-1, :])
    both = m[1:, :] & m[:-1, :]
    cut = both & (dy > lim)
    bad[1:, :] |= cut
    bad[:-1, :] |= cut
    out = copied(pm)
    out.valid &= ~bad
    out.phase[~out.valid] = np.nan
    return out



def reference_correspondence_from_phases(phi_x, phi_y, period_x, period_y,
                                         anchor_truth, seam_mask=None):
    """``correspondence_from_phases`` with the reference seam cut and fill,
    unwrapping masked full-frame copies of both maps per component."""
    if seam_mask is not None:
        phi_x = copied(phi_x)
        phi_y = copied(phi_y)
        for pm in (phi_x, phi_y):
            pm.valid &= ~seam_mask
            pm.phase[~pm.valid] = np.nan
    phi_x = reference_sever_phase_seams(phi_x)
    phi_y = reference_sever_phase_seams(phi_y)
    joint = phi_x.valid & phi_y.valid
    labels, n_comp = ndimage.label(joint, structure=FOUR_CONN)
    h, w = joint.shape
    u_out = np.full((h, w), np.nan)
    v_out = np.full((h, w), np.nan)
    valid_out = np.zeros((h, w), dtype=bool)
    combined_q = np.minimum(phi_x.quality, phi_y.quality)

    for comp in range(1, n_comp + 1):
        mask = labels == comp
        if mask.sum() < MIN_COMPONENT:
            continue
        anchorable = mask & anchor_truth.valid
        if not anchorable.any():
            continue
        q = np.where(anchorable, combined_q, -1.0)
        ay, ax = np.unravel_index(np.argmax(q), q.shape)

        px = copied(phi_x)
        px.valid &= mask
        px.phase[~px.valid] = np.nan
        py = copied(phi_y)
        py.valid &= mask
        py.phase[~py.valid] = np.nan
        ux = reference_unwrap2(px, (ax, ay))
        uy = reference_unwrap2(py, (ax, ay))
        m = ux.valid & uy.valid
        u_out[m] = ((ux.phase - ux.phase[ay, ax]) * period_x / (2.0 * np.pi)
                    + float(anchor_truth.u[ay, ax]))[m]
        v_out[m] = ((uy.phase - uy.phase[ay, ax]) * period_y / (2.0 * np.pi)
                    + float(anchor_truth.v[ay, ax]))[m]
        valid_out |= m

    return CorrespondenceMap(u=u_out, v=v_out, valid=valid_out)

def reference_bilinear_uv(corr, x, y):
    """Bilinear interpolation of (u, v) at sub-pixel camera positions, with
    four 2-D gathers of ``corr.valid``: ``ok`` is False for a sample outside
    the frame or with an invalid corner, and (u, v) is NaN there."""
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


def project(cam, pts):
    """Pixel position (px, py) and camera-frame depth z of world points
    ``pts`` seen by camera ``cam``; points with z <= 0 are behind it."""
    pc = cam.pose.inverse_points(pts)
    z = pc[..., 2]
    safe = np.where(np.abs(z) > 1e-12, z, 1.0)
    px = cam.focal_length * pc[..., 0] / safe + cam.principal_point[0]
    py = cam.focal_length * pc[..., 1] / safe + cam.principal_point[1]
    return px, py, z


def reference_consistency_at(scene, cam1, cam2, dirs1, s1, corr2, t):
    """``stereo._consistency_at`` as row-vector arithmetic on ``(n, 3)``
    arrays: the disagreement at depths ``t`` along the rays ``dirs1`` of
    ``cam1`` whose screen points are ``s1``, scored against ``cam2`` and
    its map ``corr2``. Returns (angle_rad, n1, ok)."""
    p = cam1.center + t[:, None] * dirs1
    n1, ok1 = bisector_masked(unit(cam1.center - p), unit(s1 - p))

    px2, py2, z2 = project(cam2, p)
    front = z2 > 1e-9
    u2, v2, ok2 = reference_bilinear_uv(corr2, px2, py2)
    s2 = scene.screen.uv_to_world(np.where(ok2, u2, 0.0),
                                  np.where(ok2, v2, 0.0))
    n2, ok3 = bisector_masked(unit(cam2.center - p), unit(s2 - p))

    ok = ok1 & front & ok2 & ok3
    dot = np.clip(np.sum(n1 * n2, axis=-1), -1.0, 1.0)
    ang = np.where(ok, np.arccos(dot), np.inf)
    return ang, n1, ok


def reference_usable_depths(cam1, cam2, dirs1, cell2, shape2, ts):
    """``stereo._usable_depths`` as it was with boolean compaction, in one
    block: the (n, n_steps) mask of the depths ``ts`` along the rays
    ``dirs1`` of ``cam1`` that ``cam2`` sees in front of it, inside a cell
    of its map of shape ``shape2`` that ``cell2`` marks valid."""
    h, w = shape2
    a = cam2.pose.inverse_points(cam1.center)[:, None]
    b = dirs1 @ cam2.pose.rotation
    f = cam2.focal_length
    cx, cy = cam2.principal_point
    pc = a + ts * b[:, :, None]    # (pixels, xyz, depths)
    ok = pc[:, 2] > 1e-9
    z = np.where(ok, pc[:, 2], 1.0)
    x = f * pc[:, 0] / z + cx
    y = f * pc[:, 1] / z + cy
    ok &= (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    x0 = np.minimum(x[ok].astype(int), w - 2)
    y0 = np.minimum(y[ok].astype(int), h - 2)
    ok[ok] = cell2[y0 * w + x0]
    return ok


def reference_ransac_counts(centers, points, dirs, tol):
    """``gaze._inlier_counts`` as blocks of 64 candidates, each with its
    (64, n, 3) offsets to every line and their parts across the lines."""
    counts = np.zeros(len(centers), dtype=int)
    for lo in range(0, len(centers), 64):
        c = centers[lo:lo + 64]
        ok = np.isfinite(c[:, 0])
        v = c[:, None, :] - points[None, :, :]
        proj = np.einsum("bnj,nj->bn", v, dirs)
        perp = v - proj[..., None] * dirs[None]
        d2 = np.einsum("bnj,bnj->bn", perp, perp)
        block = (d2 < tol * tol).sum(axis=1)
        block[~ok] = 0
        counts[lo:lo + 64] = block
    return counts


def assert_continuity(p):
    """Raise if any 4-neighbor pair of an unwrapped phase map, NaN outside
    its fill, jumps >= pi."""
    m = np.isfinite(p)
    dx = np.abs(np.diff(p, axis=1))[m[:, 1:] & m[:, :-1]]
    dy = np.abs(np.diff(p, axis=0))[m[1:, :] & m[:-1, :]]
    worst = max(dx.max(initial=0.0), dy.max(initial=0.0))
    if worst >= np.pi:
        raise AssertionError(f"unwrapped map has a {worst:.3f} rad jump")
