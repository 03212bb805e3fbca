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
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import zlib

import numpy as np

from .model import ModelConfig, PSPNet, build_model

MAGIC = b"PSPC"
FORMAT_VERSION = 1
_DTYPE_F32 = 0

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


def serialize(entries: dict[str, np.ndarray], iteration: int, cfg_hash: int) -> bytes:
    buf = io.BytesIO()
    _serialize_into(buf, entries, iteration, cfg_hash)
    return buf.getvalue()


class _Reader:
    """Bounds-checked cursor over a memoryview; takes are views, not copies."""

    def __init__(self, data: memoryview) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str = "") -> memoryview:
        if n < 0:
            raise ValueError(f"negative read of {n} bytes at offset {self.pos}")
        if self.pos + n > len(self.data):
            raise ValueError(
                f"truncated checkpoint: {what + ' ' if what else ''}wanted {n} bytes "
                f"at offset {self.pos}, file holds {len(self.data)}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize(data: bytes) -> tuple[dict[str, np.ndarray], int, int]:
    """Returns (entries, iteration, stored config hash). Validates CRC first."""
    view = memoryview(data)
    if len(view) < len(MAGIC) + struct.calcsize("<IQQI") + 4:
        raise ValueError(f"truncated checkpoint: {len(view)} bytes")
    body = view[:-4]
    stored_crc = struct.unpack("<I", view[-4:])[0]
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise ValueError(
            f"checkpoint CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        )
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version, iteration, cfg_hash, count = r.unpack("<IQQI")
    if version != FORMAT_VERSION:
        raise ValueError(f"unknown checkpoint format version {version}")
    entries: dict[str, np.ndarray] = {}
    prev = None
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        name = str(r.take(nlen), "utf-8")
        if prev is not None and not name > prev:
            raise ValueError(f"entry names out of order: {name!r} after {prev!r}")
        prev = name
        dtype_tag, rank = r.unpack("<BB")
        if dtype_tag != _DTYPE_F32:
            raise ValueError(f"unknown dtype tag {dtype_tag} for entry {name!r}")
        dims = r.unpack(f"<{rank}I")
        # Python ints: a product of u32 dims must not wrap.
        raw = r.take(4 * math.prod(dims), f"entry {name!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims)
        entries[name] = arr.astype(np.float32)
    if r.pos != len(r.data):
        raise ValueError(f"{len(r.data) - r.pos} trailing bytes after last entry")
    return entries, iteration, cfg_hash


def save(path: str, model: PSPNet, optim_state: dict[str, np.ndarray] | None,
         iteration: int) -> None:
    """Write to path + ".tmp", then os.replace it over path, so a failed
    save leaves any earlier file at path intact."""
    entries = _state_entries(model, optim_state)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            _serialize_into(f, entries, iteration, config_hash(model.cfg))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _census_diff(expected: dict[str, np.ndarray], found: dict[str, np.ndarray]) -> str | None:
    missing = sorted(set(expected) - set(found))
    extra = sorted(set(found) - set(expected))
    mis = sorted(n for n in set(expected) & set(found)
                 if expected[n].shape != found[n].shape)
    if not (missing or extra or mis):
        return None
    parts = []
    if missing:
        parts.append("missing: " + ", ".join(missing))
    if extra:
        parts.append("unexpected: " + ", ".join(extra))
    for n in mis:
        parts.append(f"shape of {n}: checkpoint {found[n].shape} vs model {expected[n].shape}")
    return "census mismatch; " + "; ".join(parts)


def load(path: str, cfg: ModelConfig, allow_prune: bool = False,
         seed: int = 0) -> tuple[PSPNet, dict[str, np.ndarray], int]:
    """Build a model for cfg and fill it from the file.

    allow_prune drops aux-branch entries ("aux/..." and "optim/aux/...") that
    the target config has no home for; any other census difference is an error.
    """
    with open(path, "rb") as f:
        data = f.read()
    entries, iteration, _ = deserialize(data)

    model = build_model(cfg, seed=seed)
    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    expected: dict[str, np.ndarray] = {n: p.data for n, p in params.items()}
    expected.update(buffers)
    if any(n.startswith(OPTIM_PREFIX) for n in entries):
        expected.update({OPTIM_PREFIX + n: p.data for n, p in params.items()})

    if allow_prune:
        prunable = [n for n in entries
                    if (n.startswith(AUX_PREFIX) or n.startswith(OPTIM_PREFIX + AUX_PREFIX))
                    and n not in expected]
        for n in prunable:
            del entries[n]
    diff = _census_diff(expected, entries)
    if diff is not None:
        raise ValueError(diff)

    optim_state: dict[str, np.ndarray] = {}
    for name, arr in entries.items():
        if name.startswith(OPTIM_PREFIX):
            optim_state[name[len(OPTIM_PREFIX):]] = arr
        elif name in buffers:
            buffers[name][...] = arr
        else:
            params[name].data[...] = arr
    return model, optim_state, iteration
