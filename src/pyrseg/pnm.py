"""Binary PPM (P6) / PGM (P5) reading and writing, 8-bit only.

Headers are magic, width, height, maxval as whitespace-separated tokens, then
a single whitespace byte before the raster. A '#' comment runs to the end of
its line and may stand wherever whitespace may.
"""

from __future__ import annotations

import numpy as np


def _read_token(f) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError("truncated header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            ch = b"\n"  # a comment stands where whitespace may, so it ends a token
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_number(f, path, field: str) -> int:
    tok = _read_token(f)
    if not tok.isdigit():
        raise ValueError(f"{path}: {field} must be a decimal integer, got {tok!r}")
    return int(tok)


def _read_header(f, magic: bytes, path) -> tuple[int, int]:
    got = _read_token(f)
    if got != magic:
        raise ValueError(f"{path}: expected {magic.decode()} file, got magic {got!r}")
    width, height, maxval = (_read_number(f, path, field)
                             for field in ("width", "height", "maxval"))
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    return width, height


def read_ppm(path) -> np.ndarray:
    """Returns uint8 array of shape (H, W, 3)."""
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6", path)
        raw = f.read(w * h * 3)
    if len(raw) != w * h * 3:
        raise ValueError(f"{path}: truncated pixel data ({len(raw)} of {w * h * 3} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def read_pgm(path) -> np.ndarray:
    """Returns uint8 array of shape (H, W)."""
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5", path)
        raw = f.read(w * h)
    if len(raw) != w * h:
        raise ValueError(f"{path}: truncated pixel data ({len(raw)} of {w * h} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w)


def write_ppm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"write_ppm needs uint8 (H, W, 3), got {arr.dtype} {arr.shape}")
    h, w, _ = arr.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def write_pgm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"write_pgm needs uint8 (H, W), got {arr.dtype} {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())
