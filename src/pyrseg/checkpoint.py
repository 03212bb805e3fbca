"""Binary checkpoint serialization.

Single little-endian file, byte-identical for identical state:

    magic "PSPC" | version u32 | iteration u64 | config hash u64 | count u32
    per entry, names sorted lexicographically:
        name_len u16 | name UTF-8 | dtype u8 (0 = float32) | rank u8
        dims u32 x rank | raw data
    crc32 u32 over all preceding bytes

Optimizer momentum buffers live under an "optim/" prefix; BN running stats
under their layer names. The name/shape census, not the config hash, decides
whether a load is accepted.

A load reads the file in order: one pass streams the CRC over the body in
fixed-size chunks and then indexes each entry's name, dims and data offset;
the census runs on that index; only then is each entry's data read straight
into its model array or velocity. No whole-file buffer, no per-entry copy and
no throwaway init, so a load needs about the memory of what it returns. An
inference load returns the main path only: its aux and optim entries are never read.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import sys
import zlib
from dataclasses import replace

import numpy as np

from .model import ModelConfig, PSPNet

MAGIC = b"PSPC"
FORMAT_VERSION = 1
_DTYPE_F32 = 0
_CHUNK = 1 << 16  # bytes per read of the CRC pass

OPTIM_PREFIX = "optim/"
AUX_PREFIX = "aux/"


def config_hash(cfg: ModelConfig) -> int:
    """Stable hash of the full model configuration (informational, not a gate)."""
    return zlib.crc32(repr(cfg).encode("utf-8"))


def _state_entries(model: PSPNet, optim_state: dict[str, np.ndarray] | None) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        entries[name] = p.data
    for name, b in model.named_buffers():
        entries[name] = b
    for name, v in (optim_state or {}).items():
        entries[OPTIM_PREFIX + name] = v
    return entries


def _serialize_into(f, entries: dict[str, np.ndarray], iteration: int, cfg_hash: int) -> None:
    """Write the checkpoint bytes to the binary file f, CRC computed as it goes."""
    crc = 0

    def put(chunk) -> None:
        nonlocal crc
        f.write(chunk)
        crc = zlib.crc32(chunk, crc)

    put(MAGIC + struct.pack("<IQQI", FORMAT_VERSION, iteration, cfg_hash, len(entries)))
    for name in sorted(entries):
        arr = np.ascontiguousarray(entries[name], dtype=np.float32)
        raw = name.encode("utf-8")
        put(struct.pack("<H", len(raw)) + raw + struct.pack("<BB", _DTYPE_F32, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape))
        put(arr.astype("<f4", copy=False).reshape(-1).view(np.uint8))
    f.write(struct.pack("<I", crc))


class _Reader:
    """Bounds-checked cursor over the first `end` bytes of a binary file."""

    def __init__(self, f, end: int) -> None:
        self.f = f
        self.end = end
        self.pos = 0

    def skip(self, n: int, what: str = "") -> int:
        """Move past n bytes; returns the offset they start at."""
        if n < 0:
            raise ValueError(f"negative read of {n} bytes at offset {self.pos}")
        if self.pos + n > self.end:
            raise ValueError(
                f"truncated checkpoint: {what + ' ' if what else ''}wanted {n} bytes "
                f"at offset {self.pos}, file holds {self.end}"
            )
        start = self.pos
        self.pos += n
        return start

    def take(self, n: int) -> bytes:
        self.f.seek(self.skip(n))
        return self.f.read(n)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _index(f) -> tuple[dict[str, tuple[tuple[int, ...], int]], int, int]:
    """Validate the file f and index its entries without reading their data.

    The CRC is checked first, streamed over the body in _CHUNK-byte reads,
    so every later error is about an intact file. Returns
    ({name: (dims, data offset)} in file order, iteration, config hash).
    """
    size = f.seek(0, os.SEEK_END)
    if size < len(MAGIC) + struct.calcsize("<IQQI") + 4:
        raise ValueError(f"truncated checkpoint: {size} bytes")
    end = size - 4
    f.seek(0)
    buf = memoryview(bytearray(min(_CHUNK, end)))
    actual_crc = 0
    left = end
    while left:
        n = f.readinto(buf[:min(left, len(buf))])
        if not n:
            raise ValueError("checkpoint file changed while loading")
        actual_crc = zlib.crc32(buf[:n], actual_crc)
        left -= n
    (stored_crc,) = struct.unpack("<I", f.read(4))
    if stored_crc != actual_crc:
        raise ValueError(
            f"checkpoint CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        )
    r = _Reader(f, end)
    if r.take(4) != MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version, iteration, cfg_hash, count = r.unpack("<IQQI")
    if version != FORMAT_VERSION:
        raise ValueError(f"unknown checkpoint format version {version}")
    index: dict[str, tuple[tuple[int, ...], int]] = {}
    prev = None
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        name = r.take(nlen).decode("utf-8")
        if prev is not None and not name > prev:
            raise ValueError(f"entry names out of order: {name!r} after {prev!r}")
        prev = name
        dtype_tag, rank = r.unpack("<BB")
        if dtype_tag != _DTYPE_F32:
            raise ValueError(f"unknown dtype tag {dtype_tag} for entry {name!r}")
        dims = r.unpack(f"<{rank}I")
        # Python ints: a product of u32 dims must not wrap.
        index[name] = dims, r.skip(4 * math.prod(dims), f"entry {name!r}")
    if r.pos != end:
        raise ValueError(f"{end - r.pos} trailing bytes after last entry")
    return index, iteration, cfg_hash


def _read_into(f, offset: int, dest: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float32 array dest from the entry data at offset."""
    f.seek(offset)
    if f.readinto(dest.reshape(-1).view(np.uint8)) != dest.nbytes:
        raise ValueError("checkpoint file changed while loading")
    if sys.byteorder == "big":
        dest.byteswap(inplace=True)
    return dest


def save(path: str, model: PSPNet, optim_state: dict[str, np.ndarray] | None,
         iteration: int) -> None:
    """Write to path + ".tmp", then os.replace it over path, so a failed
    save leaves any earlier file at path intact. A non-finite parameter,
    buffer or velocity is refused before the temp file is opened."""
    entries = _state_entries(model, optim_state)
    for name, arr in entries.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"refusing to save iteration {iteration}: {name} holds a "
                             f"non-finite value")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            _serialize_into(f, entries, iteration, config_hash(model.cfg))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _census_diff(expected: dict[str, tuple[int, ...]],
                 found: dict[str, tuple[int, ...]]) -> str | None:
    """Compare two {name: shape} maps; None when they agree."""
    missing = sorted(set(expected) - set(found))
    extra = sorted(set(found) - set(expected))
    mis = sorted(n for n in set(expected) & set(found) if expected[n] != found[n])
    if not (missing or extra or mis):
        return None
    parts = []
    if missing:
        parts.append("missing: " + ", ".join(missing))
    if extra:
        parts.append("unexpected: " + ", ".join(extra))
    for n in mis:
        parts.append(f"shape of {n}: checkpoint {found[n]} vs model {expected[n]}")
    return "census mismatch; " + "; ".join(parts)


def load(path: str, cfg: ModelConfig, inference: bool = False,
         seed: int = 0) -> tuple[PSPNet, dict[str, np.ndarray], int]:
    """Build a model for cfg and fill it from the file.

    A resume load needs the census to match cfg's model exactly. An
    inference load builds cfg's model without the training-only aux branch,
    skips every "aux/" and "optim/" entry and returns no velocities; any
    other census difference is an error either way.

    The file is checked and indexed first, then the census runs, and only
    then is each entry read straight into its parameter, buffer or a new
    velocity array. The census proves that every parameter and buffer is
    overwritten, so the model is never initialised and seed does not affect
    the result; it stays only because perfbench/run.py passes it.
    """
    with open(path, "rb") as f:
        index, iteration, _ = _index(f)
        model = PSPNet(replace(cfg, aux_weight=0.0) if inference else cfg)
        params = {n: p.data for n, p in model.named_parameters()}
        targets = {**params, **dict(model.named_buffers())}
        expected = {n: a.shape for n, a in targets.items()}
        if inference:
            index = {n: e for n, e in index.items()
                     if not n.startswith((AUX_PREFIX, OPTIM_PREFIX))}
        elif any(n.startswith(OPTIM_PREFIX) for n in index):
            expected.update({OPTIM_PREFIX + n: a.shape for n, a in params.items()})
        diff = _census_diff(expected, {n: dims for n, (dims, _) in index.items()})
        if diff is not None:
            raise ValueError(diff)

        optim_state: dict[str, np.ndarray] = {}
        for name, (dims, offset) in index.items():
            if name.startswith(OPTIM_PREFIX):
                dest = optim_state[name[len(OPTIM_PREFIX):]] = np.empty(dims, np.float32)
            else:
                dest = targets[name]
            _read_into(f, offset, dest)
    return model, optim_state, iteration
