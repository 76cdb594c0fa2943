"""PFM / PGM readers and writers for correspondence maps, frames, and masks.

A correspondence map's u and v channels are stored as a standard
3-channel 'PF' file with a zeroed third channel, written with a
little-endian scale of -1.0 (either byte order reads) and bottom-to-top
row order; it is the only PFM layout the package writes or reads.
Intensity frames are 16-bit PGM, masks 8-bit PGM (0/255). The PGM
readers scale by the header's maxval, so a frame or mask of any depth
reads on the scale these writers use.
"""

from __future__ import annotations

import re

import numpy as np


def write_pgm(path, data: np.ndarray) -> None:
    """Write uint8 (maxval 255) or uint16 (maxval 65535, big-endian) PGM."""
    data = np.asarray(data)
    if data.dtype == np.uint8:
        maxval = 255
        raw = data.tobytes()
    elif data.dtype == np.uint16:
        maxval = 65535
        raw = data.astype(">u2").tobytes()
    else:
        raise ValueError("PGM requires uint8 or uint16 data")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        f.write(raw)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Samples and maxval of a binary PGM: uint8 samples for a maxval up
    to 255, uint16 above."""
    with open(path, "rb") as f:
        blob = f.read()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if not m:
        raise ValueError(f"{path}: not a binary PGM file")
    w, h, maxval = (int(g) for g in m.groups())
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM dimensions {w} x {h} are not "
                         f"positive")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} is outside 1..65535")
    data = blob[m.end():]
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    if len(data) < w * h * dtype.itemsize:
        raise ValueError(f"{path}: PGM data holds {len(data)} bytes, "
                         f"its header needs {w * h * dtype.itemsize}")
    arr = np.frombuffer(data, dtype=dtype, count=w * h).reshape(h, w)
    return arr.astype(dtype.newbyteorder("=")), maxval


def write_frame_pgm(path, intensity: np.ndarray) -> None:
    """Store an intensity image in [0, 1] as 16-bit PGM."""
    q = np.round(np.clip(intensity, 0.0, 1.0) * 65535.0).astype(np.uint16)
    write_pgm(path, q)


def read_frame_pgm(path) -> np.ndarray:
    """Intensity in [0, 1]: samples over the header's maxval."""
    arr, maxval = read_pgm(path)
    return arr.astype(np.float64) / maxval


def write_mask_pgm(path, valid: np.ndarray) -> None:
    write_pgm(path, np.where(valid, 255, 0).astype(np.uint8))


def read_mask_pgm(path) -> np.ndarray:
    """True where a sample is above half the header's maxval."""
    arr, maxval = read_pgm(path)
    return arr > maxval // 2


def write_two_channel_pfm(path, a: np.ndarray, b: np.ndarray) -> None:
    """Pack two float channels into a 3-channel PFM (third channel zero)."""
    packed = np.stack([a, b, np.zeros_like(a)], axis=-1).astype("<f4")
    h, w = packed.shape[:2]
    with open(path, "wb") as f:
        f.write(f"PF\n{w} {h}\n-1.000000\n".encode())
        f.write(np.flipud(packed).tobytes())


def read_two_channel_pfm(path) -> tuple[np.ndarray, np.ndarray]:
    """The first two channels of a 3-channel PFM, as float64 (H, W) maps."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"PF":
            raise ValueError(f"{path}: not a 3-channel PFM file")
        try:
            w, h = (int(d) for d in f.readline().split())
        except ValueError:
            raise ValueError(f"{path}: PFM dimensions line is not "
                             f"'width height'") from None
        if w <= 0 or h <= 0:
            raise ValueError(f"{path}: PFM dimensions {w} x {h} are not "
                             f"positive")
        try:
            scale = float(f.readline())
        except ValueError:
            raise ValueError(f"{path}: PFM scale line is not a "
                             f"number") from None
        # the scale's sign gives the byte order, so it cannot be 0
        if scale == 0 or not np.isfinite(scale):
            raise ValueError(f"{path}: PFM scale {scale} is zero or not "
                             f"finite")
        count = w * h * 3
        body = f.read(count * 4)
    if len(body) < count * 4:
        raise ValueError(f"{path}: PFM data holds {len(body)} bytes, "
                         f"its header needs {count * 4}")
    data = np.frombuffer(body, dtype=("<" if scale < 0 else ">") + "f4",
                         count=count)
    data = np.flipud(data.reshape(h, w, 3))
    return data[..., 0].astype(np.float64), data[..., 1].astype(np.float64)
