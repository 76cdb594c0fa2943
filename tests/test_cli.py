import filecmp
import json

import numpy as np
import pytest

from deflect_gaze import imagefiles
from deflect_gaze.cli import _read_corr, main
from deflect_gaze.scene import default_scene, load_scene, save_scene
from deflect_gaze.stereo import (NormalField, default_sweep,
                                 reconstruct_field)


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(default_scene(), p)
    return str(p)


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
        u, v = imagefiles.read_two_channel_pfm(
            outdir / "cam0_decoded_000.pfm")
        mask = imagefiles.read_mask_pgm(outdir / "cam0_decodedmask_000.pgm")
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
        assert not (outdir / "cam0_decoded_000.pfm").exists()

    @pytest.mark.parametrize("sigma_i", ["-1", "nan", "inf"])
    def test_simulate_rejects_sigma_i(self, scene_file, tmp_path, capsys,
                                      sigma_i):
        simdir = tmp_path / "sim"
        rc = main(["simulate", "--scene", scene_file, "--out", str(simdir),
                   "--pattern", "crossed", "--cam", "0",
                   "--sigma-i", sigma_i])
        assert rc == 2
        assert "sigma_i" in capsys.readouterr().err
        assert not (simdir / "cam0_frame_000.pgm").exists()

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
        assert not (outdir / "cam0_decoded_000.pfm").exists()


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

    def test_gaze_optimize_with_trace(self, scene_file, tmp_path):
        simdir = tmp_path / "sim"
        assert main(["simulate", "--scene", scene_file, "--out",
                     str(simdir)]) == 0
        trace_csv = tmp_path / "trace.csv"
        out_csv = tmp_path / "est.csv"
        rc = main(["gaze-optimize", "--scene", scene_file, "--measured",
                   str(simdir), "--max-iters", "40", "--pixel-stride", "2",
                   "--trace", str(trace_csv), "--out", str(out_csv)])
        assert rc == 0
        header = trace_csv.read_text().splitlines()[0]
        assert header == "iter,loss,step,azimuth,elevation,tx,ty,tz"
        assert out_csv.exists()

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_gaze_normals_rejects_min_inliers(self, tmp_path, capsys, m):
        field_csv = tmp_path / "field.csv"
        NormalField(pixels=np.array([[0, 0], [1, 0]]),
                    points=np.array([[0.0, 0, 10], [1.0, 0, 10]]),
                    normals=np.array([[0.0, 0, 1], [0.0, 0.6, 0.8]]),
                    consistency=np.zeros(2)).to_csv(field_csv)
        out_csv = tmp_path / "gaze.csv"
        rc = main(["gaze-normals", "--field", str(field_csv),
                   "--min-inliers", m, "--out", str(out_csv)])
        assert rc == 2
        assert "min_inliers" in capsys.readouterr().err
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
    @pytest.fixture(scope="class")
    def simdir(self, scene_file, tmp_path_factory):
        simdir = tmp_path_factory.mktemp("sim")
        assert main(["simulate", "--scene", scene_file, "--out",
                     str(simdir)]) == 0
        return simdir

    def test_grid_options_without_window(self, scene_file, simdir, tmp_path):
        out = tmp_path / "field.csv"
        assert main(["reconstruct", "--scene", scene_file, "--corr-dir",
                     str(simdir), "--out", str(out), "--n-steps", "40",
                     "--no-refine"]) == 0
        scene = load_scene(scene_file)
        maps = [_read_corr(simdir, cam) for cam in (0, 1)]
        expected = tmp_path / "expected.csv"
        reconstruct_field(scene, *maps, params=default_sweep(
            scene, n_steps=40, refine=False)).to_csv(expected)
        default = tmp_path / "default.csv"
        reconstruct_field(scene, *maps).to_csv(default)
        assert filecmp.cmp(out, expected, shallow=False)
        assert not filecmp.cmp(out, default, shallow=False)

    @pytest.mark.parametrize("bound", ["--t-min", "--t-max"])
    def test_single_window_bound_is_rejected(self, scene_file, simdir,
                                             tmp_path, bound):
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", scene_file, "--corr-dir",
                   str(simdir), "--out", str(out), bound, "60"])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("stride", ["0", "-1", "-2"])
    def test_stride_below_one_is_rejected(self, scene_file, simdir, tmp_path,
                                          capsys, stride):
        out = tmp_path / "field.csv"
        rc = main(["reconstruct", "--scene", scene_file, "--corr-dir",
                   str(simdir), "--out", str(out), "--stride", stride])
        assert rc == 2
        assert "stride" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCli:
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
