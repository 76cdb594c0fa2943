import importlib.resources
import json
import re

import numpy as np
import pytest

from deflect_gaze import imagefiles
from deflect_gaze.cli import main
from deflect_gaze.stereo import NormalField
from helpers import angle_between_deg


def shipped_scene_bytes(name):
    return importlib.resources.files("deflect_gaze").joinpath(
        f"data/{name}.json").read_bytes()


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scene") / "scene.json"
    p.write_bytes(shipped_scene_bytes("default_scene"))
    return str(p)


@pytest.fixture(scope="module")
def decode_scene_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scene") / "decode_scene.json"
    p.write_bytes(shipped_scene_bytes("decode_scene"))
    return str(p)


@pytest.fixture(scope="module")
def one_camera_scene_file(tmp_path_factory):
    d = json.loads(shipped_scene_bytes("default_scene"))
    d["cameras"] = d["cameras"][:1]
    p = tmp_path_factory.mktemp("scene") / "one_camera.json"
    p.write_text(json.dumps(d))
    return str(p)


@pytest.fixture(scope="module")
def simdir(scene_file, tmp_path_factory):
    """Both cameras' correspondences and frames of the default scene."""
    simdir = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--scene", scene_file, "--out",
                 str(simdir)]) == 0
    return simdir


@pytest.fixture
def two_line_field(tmp_path):
    """A valid NormalField CSV of two lines."""
    field_csv = tmp_path / "field.csv"
    NormalField(pixels=np.array([[0, 0], [1, 0]]),
                points=np.array([[0.0, 0, 10], [1.0, 0, 10]]),
                normals=np.array([[0.0, 0, 1], [0.0, 0.6, 0.8]]),
                consistency=np.zeros(2)).to_csv(field_csv)
    return field_csv


class TestSimulateDecode:
    def test_phaseshift_round_trip(self, scene_file, tmp_path):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", "phaseshift", "--period-x", "80",
                   "--period-y", "80", "--shifts", "8", "--cam", "0"])
        assert rc == 0
        assert (simdir / "cam0_corr_000.pfm").exists()
        assert (simdir / "cam0_psx_000.pgm").exists()
        assert (simdir / "cam0_psy_007.pgm").exists()

        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "phaseshift", "--in", str(simdir),
                   "--out", str(outdir), "--period-x", "80",
                   "--period-y", "80", "--scene", scene_file])
        assert rc == 0
        u, v = imagefiles.read_two_channel_pfm(outdir / "cam0_corr_000.pfm")
        mask = imagefiles.read_mask_pgm(outdir / "cam0_mask_000.pgm")
        ut, vt = imagefiles.read_two_channel_pfm(
            simdir / "cam0_corr_000.pfm")
        truthmask = imagefiles.read_mask_pgm(simdir / "cam0_mask_000.pgm")
        both = mask & truthmask
        assert both.sum() > 500
        # PFM stores float32; quantization dominates the comparison
        err = np.hypot(u[both] - ut[both], v[both] - vt[both])
        assert np.median(err) < 0.1

    def test_simulate_crossed(self, scene_file, tmp_path):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", "crossed", "--cam", "0"])
        assert rc == 0
        assert (simdir / "cam0_frame_000.pgm").exists()

    @pytest.mark.parametrize("cam", ["2", "5"])
    def test_simulate_rejects_camera_index(self, scene_file, tmp_path,
                                           capsys, cam):
        # the default scene has two cameras
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--cam", cam])
        assert rc == 2
        assert "InvariantViolation" in capsys.readouterr().err
        assert not simdir.exists()

    def test_phaseshift_stacks_have_independent_noise(self, scene_file,
                                                      tmp_path):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out", str(simdir),
                     "--pattern", "phaseshift", "--shifts", "3", "--cam", "0",
                     "--sigma-i", "0.05"]) == 0
        bg = ~imagefiles.read_mask_pgm(simdir / "cam0_mask_000.pgm")
        fx = imagefiles.read_frame_pgm(simdir / "cam0_psx_001.pgm")[bg]
        fy = imagefiles.read_frame_pgm(simdir / "cam0_psy_001.pgm")[bg]
        # equal background plus noise: only the noise can differ
        assert abs(np.corrcoef(fx, fy)[0, 1]) < 0.1

    def test_simulate_rejects_non_finite_scene_value(self, tmp_path, capsys):
        d = json.loads(shipped_scene_bytes("default_scene"))
        d["screen"]["pixel_pitch"] = float("inf")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(d))
        assert "Infinity" in scene.read_text()
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", str(scene), "--out", str(simdir)])
        assert rc == 2
        assert "scene.screen.pixel_pitch" in capsys.readouterr().err
        assert not simdir.exists()

    def test_simulate_scene_directory_exit_code(self, tmp_path, capsys):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", str(tmp_path), "--out",
                   str(simdir)])
        assert rc == 2
        assert "IsADirectoryError" in capsys.readouterr().err
        assert not simdir.exists()

    @pytest.mark.parametrize("omega0", ["-3.2", "0"])
    def test_decode_rejects_omega0(self, scene_file, tmp_path, capsys,
                                   omega0):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out", str(simdir),
                     "--pattern", "crossed", "--cam", "0"]) == 0
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(simdir),
                   "--out", str(outdir), "--omega0", omega0])
        assert rc == 2
        assert "omega0" in capsys.readouterr().err
        assert not (outdir / "cam0_corr_000.pfm").exists()

    @pytest.mark.parametrize("sigma_i", ["-1", "nan", "inf"])
    def test_simulate_rejects_sigma_i(self, scene_file, tmp_path, capsys,
                                      sigma_i):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", "crossed", "--cam", "0",
                   "--sigma-i", sigma_i])
        assert rc == 2
        assert "sigma_i" in capsys.readouterr().err
        assert not simdir.exists()

    @pytest.mark.parametrize("pattern", ["crossed", "phaseshift"])
    def test_simulate_rejects_negative_seed(self, scene_file, tmp_path,
                                            capsys, pattern):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", pattern, "--cam", "0", "--sigma-i", "0.01",
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "--seed -1" in err
        assert not simdir.exists()

    @pytest.mark.parametrize("pattern", ["crossed", "phaseshift"])
    def test_simulate_rejects_nan_period(self, scene_file, tmp_path, capsys,
                                         pattern):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", pattern, "--cam", "0", "--period-x", "nan"])
        assert rc == 2
        assert "periods" in capsys.readouterr().err
        assert not simdir.exists()

    @pytest.mark.parametrize("pattern,mode", [("crossed", "cwt"),
                                              ("phaseshift", "phaseshift")])
    def test_decode_rejects_nan_period(self, scene_file, tmp_path, capsys,
                                       pattern, mode):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out", str(simdir),
                     "--pattern", pattern, "--cam", "0"]) == 0
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", mode, "--in", str(simdir),
                   "--out", str(outdir), "--period-x", "nan"])
        assert rc == 2
        assert "periods" in capsys.readouterr().err
        assert not (outdir / "cam0_corr_000.pfm").exists()


    def test_decode_maps_of_another_scene_are_rejected(
            self, decode_scene_file, simdir, tmp_path, capsys):
        # simdir holds the 128 px default scene's frames and maps; the
        # decode scene's cameras are 448 px
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(simdir),
                   "--out", str(outdir), "--scene", decode_scene_file])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "camera 0" in err
        assert "(128, 128)" in err and "(448, 448)" in err
        assert not (outdir / "cam0_corr_000.pfm").exists()

    def test_decode_maps_of_another_size_are_rejected_without_scene(
            self, simdir, tmp_path, capsys):
        # no --scene, so only the decode compares the 128 px frame with the
        # 160 px anchor maps
        indir = tmp_path / "sim"
        indir.mkdir()
        (indir / "cam0_frame_000.pgm").write_bytes(
            (simdir / "cam0_frame_000.pgm").read_bytes())
        imagefiles.write_two_channel_pfm(indir / "cam0_corr_000.pfm",
                                         np.zeros((160, 160)),
                                         np.zeros((160, 160)))
        imagefiles.write_mask_pgm(indir / "cam0_mask_000.pgm",
                                  np.ones((160, 160), dtype=bool))
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(indir),
                   "--out", str(outdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err
        assert "(128, 128)" in err and "(160, 160)" in err
        assert not (outdir / "cam0_corr_000.pfm").exists()

    @pytest.mark.parametrize("name", ["frame_000.pgm", "mask_000.pgm"])
    def test_decode_names_truncated_pgm(self, simdir, tmp_path, capsys,
                                        name):
        # the frame is 16-bit, the mask 8-bit
        indir = tmp_path / "sim"
        indir.mkdir()
        for f in ("corr_000.pfm", "mask_000.pgm", "frame_000.pgm"):
            (indir / f"cam0_{f}").write_bytes(
                (simdir / f"cam0_{f}").read_bytes())
        cut = indir / f"cam0_{name}"
        cut.write_bytes(cut.read_bytes()[:-1])
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(indir),
                   "--out", str(outdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"ValueError: {cut}: PGM data holds" in err
        assert not (outdir / "cam0_corr_000.pfm").exists()

    def test_decode_rejects_zero_sized_frame(self, simdir, tmp_path, capsys):
        indir = tmp_path / "sim"
        indir.mkdir()
        for f in ("corr_000.pfm", "mask_000.pgm"):
            (indir / f"cam0_{f}").write_bytes(
                (simdir / f"cam0_{f}").read_bytes())
        frame = indir / "cam0_frame_000.pgm"
        frame.write_bytes(b"P5\n0 3\n255\n")
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(indir),
                   "--out", str(outdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"ValueError: {frame}: PGM dimensions 0 x 3" in err
        assert not (outdir / "cam0_corr_000.pfm").exists()

    @pytest.mark.parametrize("gone", ["psx_003", "psy_007"],
                             ids=["interior-gap", "last-of-one-stack"])
    def test_decode_names_missing_phase_shift_frame(self, scene_file,
                                                    tmp_path, capsys, gone):
        # frames 0-2 of an 8-step stack would decode as a 3-step one
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out", str(simdir),
                     "--pattern", "phaseshift", "--shifts", "8", "--cam",
                     "0"]) == 0
        missing = simdir / f"cam0_{gone}.pgm"
        missing.unlink()
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "phaseshift", "--in", str(simdir),
                   "--out", str(outdir)])
        assert rc == 2
        assert (f"SceneParseError: {missing} is missing: both phase-shift "
                f"stacks must run 000 to 007" in capsys.readouterr().err)
        assert not outdir.exists()

    @pytest.mark.parametrize("mode", ["cwt", "phaseshift"])
    def test_decode_into_its_input_is_rejected(self, scene_file, tmp_path,
                                               capsys, mode):
        # the decoded map takes the true map's names, so it would overwrite
        # the anchor; "sim/../sim" names the same directory
        simdir = tmp_path / "sim"
        pattern = "crossed" if mode == "cwt" else "phaseshift"
        assert main(["simulate", "--scene", scene_file, "--out", str(simdir),
                     "--pattern", pattern, "--shifts", "3", "--cam",
                     "0"]) == 0
        before = {p.name: p.read_bytes() for p in simdir.iterdir()}
        for out in (simdir, simdir / ".." / "sim"):
            rc = main(["decode", "--mode", mode, "--in", str(simdir),
                       "--out", str(out)])
            assert rc == 2
            assert "InvariantViolation" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in simdir.iterdir()} == before

    def test_decode_rejects_camera_index(self, scene_file, simdir, tmp_path,
                                         capsys):
        # the default scene has two cameras; cam2's maps exist, copied
        # from cam0's
        indir = tmp_path / "sim"
        indir.mkdir()
        for name in ("corr_000.pfm", "mask_000.pgm", "frame_000.pgm"):
            (indir / f"cam2_{name}").write_bytes(
                (simdir / f"cam0_{name}").read_bytes())
        outdir = tmp_path / "dec"
        rc = main(["decode", "--mode", "cwt", "--in", str(indir),
                   "--out", str(outdir), "--scene", scene_file,
                   "--cam", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "--cam 2" in err
        assert not (outdir / "cam2_corr_000.pfm").exists()


class TestReconstructAndGaze:
    def test_full_method1_chain(self, scene_file, tmp_path):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out",
                     str(simdir)]) == 0
        field_csv = tmp_path / "field.csv"
        assert main(["reconstruct", "--scene", scene_file, "--corr-dir",
                     str(simdir), "--out", str(field_csv)]) == 0
        assert field_csv.exists()
        gaze_csv = tmp_path / "gaze.csv"
        assert main(["gaze-normals", "--field", str(field_csv), "--out",
                     str(gaze_csv)]) == 0
        text = gaze_csv.read_text()
        assert text.splitlines()[0].startswith("method,gx,gy,gz")
        row = text.splitlines()[1].split(",")
        g = np.array([float(x) for x in row[1:4]])
        assert abs(g[2]) > 0.99  # default eye looks along +z

    def test_both_methods_on_decoded_frames(self, decode_scene_file,
                                            tmp_path):
        # simulate -> decode -> reconstruct -> gaze-normals, and decode ->
        # gaze-optimize: decode's --out is read as it is written
        simdir, decdir = tmp_path / "sim", tmp_path / "dec"
        periods = ["--period-x", "80", "--period-y", "80"]
        assert main(["simulate", "--scene", decode_scene_file, "--out",
                     str(simdir), "--pattern", "phaseshift", "--shifts", "8",
                     *periods]) == 0
        for cam in ("0", "1"):
            assert main(["decode", "--mode", "phaseshift", "--in",
                         str(simdir), "--out", str(decdir), "--scene",
                         decode_scene_file, "--cam", cam, *periods]) == 0
        field_csv = tmp_path / "field.csv"
        assert main(["reconstruct", "--scene", decode_scene_file,
                     "--corr-dir", str(decdir), "--out", str(field_csv),
                     "--stride", "2"]) == 0
        normals_csv, optimize_csv = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert main(["gaze-normals", "--field", str(field_csv), "--out",
                     str(normals_csv)]) == 0
        assert main(["gaze-optimize", "--scene", decode_scene_file,
                     "--measured", str(decdir), "--pixel-stride", "4",
                     "--out", str(optimize_csv)]) == 0
        for csv, method in ((normals_csv, "two-center"),
                            (optimize_csv, "optimize")):
            row = csv.read_text().splitlines()[1].split(",")
            assert row[0] == method
            g = np.array([float(x) for x in row[1:4]])
            # the decode scene's eye looks along +z
            assert angle_between_deg(g / np.linalg.norm(g), [0, 0, 1]) < 0.05

    def test_default_single_shot_chain(self, decode_scene_file, tmp_path):
        # simulate -> decode (cwt) -> reconstruct -> gaze-normals on the
        # decode scene, with no fringe or wavelet flag: the defaults must
        # decode it within a few px, not periods off
        simdir, decdir = tmp_path / "sim", tmp_path / "dec"
        assert main(["simulate", "--scene", decode_scene_file, "--out",
                     str(simdir), "--sigma-i", "0.01"]) == 0
        for cam in (0, 1):
            assert main(["decode", "--mode", "cwt", "--in", str(simdir),
                         "--out", str(decdir), "--cam", str(cam)]) == 0
            u, v = imagefiles.read_two_channel_pfm(
                decdir / f"cam{cam}_corr_000.pfm")
            ut, vt = imagefiles.read_two_channel_pfm(
                simdir / f"cam{cam}_corr_000.pfm")
            both = (imagefiles.read_mask_pgm(decdir / f"cam{cam}_mask_000.pgm")
                    & imagefiles.read_mask_pgm(
                        simdir / f"cam{cam}_mask_000.pgm"))
            assert both.sum() > 3000
            err = np.hypot(u[both] - ut[both], v[both] - vt[both])
            assert np.median(err) < 6.0
        field_csv = tmp_path / "field.csv"
        assert main(["reconstruct", "--scene", decode_scene_file,
                     "--corr-dir", str(decdir), "--out", str(field_csv),
                     "--stride", "2"]) == 0
        assert main(["gaze-normals", "--field", str(field_csv)]) == 0

    def test_gaze_optimize_with_trace(self, scene_file, simdir, tmp_path,
                                      capsys):
        trace_csv = tmp_path / "trace.csv"
        out_csv = tmp_path / "est.csv"
        rc = main(["gaze-optimize", "--scene", scene_file, "--measured",
                   str(simdir), "--max-iters", "40", "--pixel-stride", "2",
                   "--trace", str(trace_csv), "--out", str(out_csv)])
        assert rc == 0
        rows = trace_csv.read_text().splitlines()
        assert rows[0] == "iter,loss,step,azimuth,elevation,tx,ty,tz"
        assert out_csv.exists()
        # the summary gives the final loss in px^2 and how the fit
        # stopped, and no line counts: the fit has no back-traced lines
        final_loss = float(rows[-1].split(",")[1])
        centre = r"\(-?\d+\.\d{4}, -?\d+\.\d{4}, -?\d+\.\d{4}\) mm"
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "method:        optimize"
        assert re.fullmatch(r"gaze direction: \([-+]\d\.\d{6}, "
                            r"[-+]\d\.\d{6}, [-+]\d\.\d{6}\)", lines[1])
        assert re.fullmatch("cornea center:  " + centre, lines[2])
        assert re.fullmatch("sclera center:  " + centre, lines[3])
        assert lines[4] == f"final loss:     {final_loss:.6g} px^2"
        assert re.fullmatch("stop:           (zero_gradient|converged|"
                            "step_floor|iter_cap)", lines[5])

    @pytest.mark.parametrize("freeze", ["pose", "none"])
    def test_gaze_optimize_freeze(self, scene_file, simdir, tmp_path,
                                  freeze):
        out_csv = tmp_path / "est.csv"
        rc = main(["gaze-optimize", "--scene", scene_file, "--measured",
                   str(simdir), "--freeze", freeze, "--max-iters", "40",
                   "--pixel-stride", "2", "--out", str(out_csv)])
        assert rc == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert row[0] == "optimize"
        g = np.array([float(x) for x in row[1:4]])
        assert abs(g[2]) > 0.99  # default eye looks along +z

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_gaze_normals_rejects_min_inliers(self, two_line_field,
                                              tmp_path, capsys, m):
        out_csv = tmp_path / "gaze.csv"
        rc = main(["gaze-normals", "--field", str(two_line_field),
                   "--min-inliers", m, "--out", str(out_csv)])
        assert rc == 2
        assert "min_inliers" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_gaze_normals_rejects_non_finite_inlier_tol(
            self, two_line_field, tmp_path, capsys, tol):
        out_csv = tmp_path / "gaze.csv"
        rc = main(["gaze-normals", "--field", str(two_line_field),
                   "--inlier-tol", tol, "--out", str(out_csv)])
        assert rc == 2
        assert "inlier_tol" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("row,error", [
        ("1,2,3,4,5,0,0,1", "rows have 8 columns"),
        ("1,2,3,4,5,0,0,1,0,7", "rows have 10 columns"),
        ("1,2,3,4,5,6,0,0,0", "normal is not unit length"),
        ("1,2,3,4,5,0,0,nan,0", "value is not finite"),
        ("1.7,2,3,4,5,0,0,1,0", "pixel column"),
        ("1,-2,3,4,5,0,0,1,0", "pixel column")])
    def test_gaze_normals_rejects_malformed_field(self, tmp_path, capsys,
                                                  row, error):
        field_csv = tmp_path / "field.csv"
        field_csv.write_text("px,py,X,Y,Z,nx,ny,nz,consistency\n"
                             + (row + "\n") * 3)
        out_csv = tmp_path / "gaze.csv"
        rc = main(["gaze-normals", "--field", str(field_csv),
                   "--out", str(out_csv)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(field_csv) in err and error in err
        assert not out_csv.exists()

    def test_gaze_normals_too_few_lines(self, tmp_path, capsys):
        # 60 lines < 2 * min_inliers = 100: the split raises, and no
        # direction is written
        g = np.random.default_rng(4)
        normals = g.normal(size=(60, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        field_csv = tmp_path / "field.csv"
        NormalField(pixels=np.column_stack([np.arange(60), np.zeros(60)]),
                    points=g.normal(size=(60, 3)) + [0.0, 0.0, 10.0],
                    normals=normals,
                    consistency=np.zeros(60)).to_csv(field_csv)
        out_csv = tmp_path / "gaze.csv"
        rc = main(["gaze-normals", "--field", str(field_csv),
                   "--out", str(out_csv)])
        assert rc == 1
        assert "InsufficientLinesError" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_gaze_normals_has_no_axis_fit_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gaze-normals", "--field", str(tmp_path / "field.csv"),
                  "--fallback-axis"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_gaze_optimize_rejects_pixel_stride(self, scene_file, tmp_path,
                                                capsys, stride):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out",
                     str(simdir)]) == 0
        out_csv = tmp_path / "est.csv"
        rc = main(["gaze-optimize", "--scene", scene_file, "--measured",
                   str(simdir), "--pixel-stride", stride,
                   "--out", str(out_csv)])
        assert rc == 2
        assert "pixel_stride" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_gaze_optimize_rejects_zero_max_iters(self, scene_file, tmp_path,
                                                  capsys):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out",
                     str(simdir)]) == 0
        out_csv = tmp_path / "est.csv"
        rc = main(["gaze-optimize", "--scene", scene_file, "--measured",
                   str(simdir), "--max-iters", "0", "--out", str(out_csv)])
        assert rc == 2
        assert "max_iters" in capsys.readouterr().err
        assert not out_csv.exists()


class TestReconstructOptions:
    def test_grid_flag_is_unrecognised(self, scene_file, simdir, tmp_path):
        # the sweep runs one depth grid, fixed by the scene
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--scene", scene_file, "--corr-dir",
                  str(simdir), "--out", str(tmp_path / "field.csv"),
                  "--n-steps", "40"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("stride", ["0", "-1", "-2"])
    def test_stride_below_one_is_rejected(self, scene_file, simdir, tmp_path,
                                          capsys, stride):
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", scene_file, "--corr-dir",
                   str(simdir), "--out", str(out), "--stride", stride])
        assert rc == 2
        assert "stride" in capsys.readouterr().err
        assert not out.exists()

    def test_one_camera_scene_is_rejected(self, one_camera_scene_file,
                                          simdir, tmp_path, capsys):
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", one_camera_scene_file,
                   "--corr-dir", str(simdir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "1 camera" in err
        assert not out.exists()

    def test_maps_of_another_scene_are_rejected(self, decode_scene_file,
                                                simdir, tmp_path, capsys):
        # simdir holds the 128 px default scene's maps; the decode scene's
        # cameras are 448 px
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", decode_scene_file,
                   "--corr-dir", str(simdir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "camera 0" in err
        assert "(128, 128)" in err and "(448, 448)" in err
        assert not out.exists()

    def test_bad_pfm_header_is_rejected(self, scene_file, simdir, tmp_path,
                                        capsys):
        corr_dir = tmp_path / "corr"
        corr_dir.mkdir()
        for name in ("cam0_mask_000.pgm", "cam1_corr_000.pfm",
                     "cam1_mask_000.pgm"):
            (corr_dir / name).write_bytes((simdir / name).read_bytes())
        (corr_dir / "cam0_corr_000.pfm").write_bytes(b"PF\n\n-1.0\n")
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", scene_file, "--corr-dir",
                   str(corr_dir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ValueError" in err and "cam0_corr_000.pfm" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"PF\n128 128\n-1.0\n",
                                      b"PF\n128 128\nabc\n"],
                             ids=["short-body", "bad-scale"])
    def test_bad_pfm_body_or_scale_is_rejected(self, scene_file, simdir,
                                               tmp_path, capsys, text):
        corr_dir = tmp_path / "corr"
        corr_dir.mkdir()
        for name in ("cam0_mask_000.pgm", "cam1_corr_000.pfm",
                     "cam1_mask_000.pgm"):
            (corr_dir / name).write_bytes((simdir / name).read_bytes())
        (corr_dir / "cam0_corr_000.pfm").write_bytes(text)
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", scene_file, "--corr-dir",
                   str(corr_dir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ValueError" in err and "cam0_corr_000.pfm" in err
        assert not out.exists()


class TestBenchCli:
    def test_stereo_on_one_camera_scene_is_rejected(
            self, one_camera_scene_file, tmp_path, capsys):
        outdir = tmp_path / "bench"
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   one_camera_scene_file, "--reps", "1", "--out",
                   str(outdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvariantViolation" in err and "has 1" in err
        assert not (outdir / "result.csv").exists()

    def test_bench_outputs(self, scene_file, tmp_path):
        outdir = tmp_path / "bench"
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   scene_file, "--sigma-c", "0.5", "--reps", "2",
                   "--seed", "3", "--positions", "-3", "0", "3",
                   "--out", str(outdir)])
        assert rc == 0
        for name in ("result.csv", "result.json", "table.txt", "reps.csv"):
            assert (outdir / name).exists()
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["method"] == "stereo-normals"

    def test_config_error_exit_code(self, tmp_path):
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   str(tmp_path / "missing.json"), "--out",
                   str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_scene_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--scene", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("sigma_c", ["nan", "inf"])
    def test_non_finite_sigma_c_is_rejected(self, scene_file, tmp_path,
                                            capsys, sigma_c):
        outdir = tmp_path / "bench"
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   scene_file, "--sigma-c", sigma_c, "--reps", "1",
                   "--out", str(outdir)])
        assert rc == 2
        assert "sigma_c" in capsys.readouterr().err
        assert not (outdir / "result.csv").exists()

    def test_negative_seed_is_rejected(self, scene_file, tmp_path, capsys):
        outdir = tmp_path / "bench"
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   scene_file, "--seed", "-1", "--reps", "2",
                   "--out", str(outdir)])
        assert rc == 2
        assert "master_seed" in capsys.readouterr().err
        assert not outdir.exists()

    def test_non_finite_position_is_rejected(self, scene_file, tmp_path,
                                             capsys):
        outdir = tmp_path / "bench"
        rc = main(["bench", "--method", "stereo-normals", "--scene",
                   scene_file, "--positions", "0", "nan", "--reps", "2",
                   "--out", str(outdir)])
        assert rc == 2
        assert "positions" in capsys.readouterr().err
        assert not outdir.exists()
