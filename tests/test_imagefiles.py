import numpy as np
import pytest

from deflect_gaze import imagefiles


class TestPfm:
    def test_three_channel_round_trip(self, tmp_path):
        data = np.random.default_rng(1).normal(size=(8, 9, 2)).astype(np.float32)
        p = tmp_path / "x.pfm"
        imagefiles.write_two_channel_pfm(p, data[..., 0], data[..., 1])
        assert np.array_equal(np.stack(imagefiles.read_two_channel_pfm(p),
                                       axis=-1), data)
        # the third channel is stored as zeros
        body = np.frombuffer(p.read_bytes()[-8 * 9 * 3 * 4:], dtype="<f4")
        assert not body[2::3].any()

    def test_nan_preserved(self, tmp_path):
        data = np.full((4, 4), np.nan, dtype=np.float32)
        data[0, 0] = 1.5
        p = tmp_path / "x.pfm"
        imagefiles.write_two_channel_pfm(p, data, data)
        back, _ = imagefiles.read_two_channel_pfm(p)
        assert back[0, 0] == 1.5
        assert np.isnan(back[1, 1])

    def test_header_is_little_endian_scale(self, tmp_path):
        p = tmp_path / "x.pfm"
        imagefiles.write_two_channel_pfm(p, np.zeros((2, 2)),
                                         np.zeros((2, 2)))
        head = p.read_bytes()[:40].split(b"\n")
        assert head[0] == b"PF"
        assert head[1] == b"2 2"
        assert float(head[2]) < 0

    @pytest.mark.parametrize("tag", [b"Pf", b"P5", b""])
    def test_tag_other_than_pf_names_file(self, tmp_path, tag):
        # a single-channel 'Pf' file holds no second channel
        p = tmp_path / "x.pfm"
        p.write_bytes(tag + b"\n2 2\n-1.0\n" + bytes(4 * 12))
        with pytest.raises(ValueError, match="x.pfm: not a 3-channel PFM"):
            imagefiles.read_two_channel_pfm(p)

    @pytest.mark.parametrize("dims", [b"", b"4", b"4 4 4", b"four 4"])
    def test_bad_dimensions_line_names_file(self, tmp_path, dims):
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n" + dims + b"\n-1.0\n")
        with pytest.raises(ValueError, match="x.pfm"):
            imagefiles.read_two_channel_pfm(p)

    def test_bad_scale_line_names_file(self, tmp_path):
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n4 4\nabc\n")
        with pytest.raises(ValueError, match="x.pfm: PFM scale line"):
            imagefiles.read_two_channel_pfm(p)

    @pytest.mark.parametrize("floats", [0, 47])
    def test_short_body_names_file(self, tmp_path, floats):
        # a 4 x 4 three-channel image needs 48 floats
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n4 4\n-1.0\n" + bytes(4 * floats))
        with pytest.raises(ValueError, match="x.pfm: PFM data holds"):
            imagefiles.read_two_channel_pfm(p)

    @pytest.mark.parametrize("dims", [b"-2 3", b"0 3", b"3 0"])
    def test_nonpositive_dimensions_name_file(self, tmp_path, dims):
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n" + dims + b"\n-1.0\n" + bytes(4 * 27))
        with pytest.raises(ValueError, match="x.pfm: PFM dimensions"):
            imagefiles.read_two_channel_pfm(p)

    @pytest.mark.parametrize("scale", [b"0", b"-0.0", b"nan", b"inf", b"-inf"])
    def test_zero_or_nonfinite_scale_names_file(self, tmp_path, scale):
        # the scale's sign is the byte order: 0 and NaN name none
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n2 2\n" + scale + b"\n" + bytes(4 * 12))
        with pytest.raises(ValueError, match="x.pfm: PFM scale"):
            imagefiles.read_two_channel_pfm(p)

    def test_big_endian_scale_reads(self, tmp_path):
        # a positive scale gives big-endian floats
        data = np.arange(12, dtype=">f4")
        p = tmp_path / "x.pfm"
        p.write_bytes(b"PF\n2 2\n1.0\n" + data.tobytes())
        a, b = imagefiles.read_two_channel_pfm(p)
        # rows are stored bottom to top
        assert np.array_equal(a, [[6.0, 9.0], [0.0, 3.0]])
        assert np.array_equal(b, [[7.0, 10.0], [1.0, 4.0]])

    def test_two_channel_packing(self, tmp_path):
        a = np.arange(12.0).reshape(3, 4)
        b = a * 2.0
        p = tmp_path / "x.pfm"
        imagefiles.write_two_channel_pfm(p, a, b)
        a2, b2 = imagefiles.read_two_channel_pfm(p)
        assert np.array_equal(a2, a)
        assert np.array_equal(b2, b)


class TestPgm:
    def test_mask_round_trip(self, tmp_path):
        mask = np.random.default_rng(2).random((13, 7)) > 0.5
        p = tmp_path / "m.pgm"
        imagefiles.write_mask_pgm(p, mask)
        assert np.array_equal(imagefiles.read_mask_pgm(p), mask)

    def test_frame_quantization(self, tmp_path):
        img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        p = tmp_path / "f.pgm"
        imagefiles.write_frame_pgm(p, img)
        back = imagefiles.read_frame_pgm(p)
        assert np.abs(back - img).max() < 1.0 / 65535

    def test_16bit_header(self, tmp_path):
        p = tmp_path / "f.pgm"
        imagefiles.write_frame_pgm(p, np.ones((4, 4)))
        assert p.read_bytes().startswith(b"P5\n4 4\n65535\n")

    @pytest.mark.parametrize("maxval,size,held", [(255, 16, 0),
                                                  (255, 16, 15),
                                                  (65535, 32, 31)])
    def test_short_body_names_file(self, tmp_path, maxval, size, held):
        # a 4 x 4 image needs one byte per sample up to maxval 255, else two
        p = tmp_path / "x.pgm"
        p.write_bytes(f"P5\n4 4\n{maxval}\n".encode() + bytes(held))
        with pytest.raises(ValueError, match=f"x.pgm: PGM data holds {held} "
                                             f"bytes, its header needs {size}"):
            imagefiles.read_pgm(p)

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_maxval_out_of_range_names_file(self, tmp_path, maxval):
        p = tmp_path / "x.pgm"
        p.write_bytes(f"P5\n1 1\n{maxval}\n".encode() + bytes(2))
        with pytest.raises(ValueError, match="x.pgm: PGM maxval"):
            imagefiles.read_pgm(p)

    @pytest.mark.parametrize("dims", ["0 3", "3 0", "0 0"])
    def test_zero_dimensions_name_file(self, tmp_path, dims):
        # a zero size needs no data, so the body check alone passes it
        p = tmp_path / "x.pgm"
        p.write_bytes(f"P5\n{dims}\n255\n".encode())
        with pytest.raises(ValueError, match="x.pgm: PGM dimensions"):
            imagefiles.read_frame_pgm(p)

    def test_frame_scales_by_maxval(self, tmp_path):
        # a 12-bit capture: full scale reads 1, not 4095 / 65535
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n3 1\n4095\n" + np.array(
            [4095, 819, 0], dtype=">u2").tobytes())
        assert np.array_equal(imagefiles.read_frame_pgm(p),
                              [[1.0, 819 / 4095, 0.0]])

    def test_mask_scales_by_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n1\n" + bytes([1, 0]))
        assert np.array_equal(imagefiles.read_mask_pgm(p), [[True, False]])

    def test_bad_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            imagefiles.write_pgm(tmp_path / "x.pgm", np.zeros((3, 3)))
