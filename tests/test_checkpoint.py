"""Checkpoint byte format: round-trips, corruption detection, census gating."""

import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pyrseg import checkpoint as ckpt
from pyrseg import layers
from pyrseg import model as model_mod
from pyrseg.backbone import BackboneConfig
from pyrseg.config import load_config
from pyrseg.model import ModelConfig, build_model
from pyrseg.optim import SGD, OptimConfig
from pyrseg.pyramid import PyramidConfig


def _cfg(aux: bool = True) -> ModelConfig:
    return ModelConfig(
        backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8,
                                dilation_plan=(1, 1, 1, 1)),
        pyramid=PyramidConfig(bin_sizes=(1, 2), pool_mode="average", dim_reduce=True),
        num_classes=3,
        aux_weight=0.4 if aux else 0.0,
        head_channels=8,
    )


def _entries(seed=0, n=3):
    rng = np.random.default_rng(seed)
    return {f"p{i}": rng.normal(size=(2, i + 1)).astype(np.float32) for i in range(n)}


# -- byte level ---------------------------------------------------------------


def _blob(entries, iteration=0, cfg_hash=0) -> bytes:
    """The bytes `save` writes for entries, built in memory."""
    buf = io.BytesIO()
    ckpt._serialize_into(buf, entries, iteration, cfg_hash)
    return buf.getvalue()


def _load_error(blob: bytes, path) -> str:
    """The ValueError message `load` raises for blob written to path."""
    path.write_bytes(blob)
    with pytest.raises(ValueError) as err:
        ckpt.load(str(path), _cfg())
    return str(err.value)


def test_serialize_round_trip_bit_exact(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=3)
    sgd = SGD(model, OptimConfig(max_iter=10))
    rng = np.random.default_rng(0)
    for v in sgd.velocity.values():
        v += rng.normal(size=v.shape).astype(np.float32)
    for _, b in model.named_buffers():
        b += rng.normal(size=b.shape).astype(np.float32)
    path, again = tmp_path / "m.pspc", tmp_path / "again.pspc"
    ckpt.save(str(path), model, sgd.velocity, 42)
    loaded, velocity, iteration = ckpt.load(str(path), cfg)
    assert iteration == 42
    with open(path, "rb") as f:
        assert ckpt._index(f)[2] == ckpt.config_hash(cfg)
    entries = ckpt._state_entries(model, sgd.velocity)
    back = ckpt._state_entries(loaded, velocity)
    assert set(back) == set(entries)
    for k in entries:
        assert back[k].tobytes() == entries[k].tobytes()
    # identical state gives identical bytes
    ckpt.save(str(again), loaded, velocity, iteration)
    assert again.read_bytes() == path.read_bytes()


def test_serialize_sorted_and_insertion_order_free():
    a = {"b": np.zeros(1, np.float32), "a": np.ones(1, np.float32)}
    b = {"a": np.ones(1, np.float32), "b": np.zeros(1, np.float32)}
    assert _blob(a) == _blob(b)


def test_truncated_blob_rejected(tmp_path):
    blob = _blob(_entries(), 1)
    path = tmp_path / "f.pspc"
    assert "truncated" in _load_error(blob[:10], path)
    # cutting anywhere mid-file breaks the CRC before anything else
    assert "CRC" in _load_error(blob[:-5], path)


def test_flipped_byte_rejected_by_crc(tmp_path):
    blob = bytearray(_blob(_entries(), 1))
    blob[len(blob) // 2] ^= 0x40
    assert "CRC mismatch" in _load_error(bytes(blob), tmp_path / "f.pspc")


def test_bad_magic_rejected(tmp_path):
    blob = bytearray(_blob(_entries(), 1))
    blob[:4] = b"XXXX"
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    assert "magic" in _load_error(bytes(blob), tmp_path / "f.pspc")


def test_out_of_order_entries_rejected(tmp_path):
    out = bytearray()
    out += ckpt.MAGIC
    out += struct.pack("<IQQI", ckpt.FORMAT_VERSION, 0, 0, 2)
    for name in ("b", "a"):  # wrong order on purpose
        raw = name.encode()
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<BB", 0, 1) + struct.pack("<1I", 1)
        out += np.zeros(1, "<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    assert "out of order" in _load_error(bytes(out), tmp_path / "f.pspc")


def _crc_valid_blob(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def test_entry_size_overflowing_int64_names_the_entry(tmp_path):
    # dims (2**31 + 1, 2**32 - 1): 4 * their product exceeds int64, so a
    # wrapped count would be negative and move the cursor backwards.
    body = bytearray(ckpt.MAGIC + struct.pack("<IQQI", ckpt.FORMAT_VERSION, 0, 0, 1))
    body += struct.pack("<H", 4) + b"huge" + struct.pack("<BB", 0, 2)
    body += struct.pack("<2I", 2**31 + 1, 2**32 - 1) + np.zeros(4, "<f4").tobytes()
    want = 4 * (2**31 + 1) * (2**32 - 1)
    message = _load_error(_crc_valid_blob(bytes(body)), tmp_path / "f.pspc")
    assert f"truncated checkpoint: entry 'huge' wanted {want} bytes" in message


def test_reader_rejects_negative_take():
    r = ckpt._Reader(io.BytesIO(b"abcd"), 4)
    r.take(2)
    with pytest.raises(ValueError, match="negative"):
        r.take(-1)
    assert r.pos == 2


_FUZZ_BLOB = _blob(_entries(seed=4), 3, 9)
_FIRST_DATA = 28 + 2 + 2 + 2 + 8  # header, then entry "p0": name, tag and rank, two dims


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pspc"


@given(st.integers(0, len(_FUZZ_BLOB) - 1))
@example(cut=_FIRST_DATA + 3)
@example(cut=len(_FUZZ_BLOB) - 4)
def test_any_truncation_raises_value_error(fuzz_path, cut):
    _load_error(_FUZZ_BLOB[:cut], fuzz_path)


@given(st.integers(0, 8 * len(_FUZZ_BLOB) - 1))
@example(bit=0)  # magic
@example(bit=8 * 24)  # entry count
@example(bit=8 * 30 + 1)  # first entry's name
@example(bit=8 * (_FIRST_DATA + 5))  # first entry's data
@example(bit=8 * len(_FUZZ_BLOB) - 1)  # stored CRC
def test_any_bit_flip_raises_value_error(fuzz_path, bit):
    blob = bytearray(_FUZZ_BLOB)
    blob[bit // 8] ^= 1 << (bit % 8)
    _load_error(bytes(blob), fuzz_path)


def _model_blob(extra: bytes = b"") -> bytes:
    """A CRC-valid checkpoint of a _cfg() model, extra bytes before its CRC."""
    model = build_model(_cfg(), seed=4)
    body = _blob(ckpt._state_entries(model, None), 2)[:-4] + extra
    return _crc_valid_blob(body)


def test_trailing_bytes_rejected_by_load(fuzz_path):
    fuzz_path.write_bytes(_model_blob())
    assert ckpt.load(str(fuzz_path), _cfg())[2] == 2
    message = _load_error(_model_blob(b"\0" * 4), fuzz_path)
    assert "4 trailing bytes after last entry" in message


def test_crc_valid_header_faults_rejected_by_load(fuzz_path):
    blob = _model_blob()
    first_dims = 28 + 2 + struct.unpack("<H", blob[28:30])[0] + 2
    for at, value, want in ((4, 2, "format version 2"),
                            (first_dims - 2, 1, "unknown dtype tag 1"),
                            (first_dims + 3, 0x7F, "truncated checkpoint: entry")):
        body = bytearray(blob[:-4])
        body[at] = value
        assert want in _load_error(_crc_valid_blob(bytes(body)), fuzz_path)


def test_zero_dim_input_promoted_to_length_one():
    # model state is always rank >= 1; a stray 0-d array lands as shape (1,)
    blob = _blob({"s": np.float32(3.5).reshape(())})
    (dims, offset), = ckpt._index(io.BytesIO(blob))[0].values()
    assert dims == (1,)
    assert blob[offset:offset + 4] == np.array([3.5], "<f4").tobytes()


# -- model level --------------------------------------------------------------


def test_model_save_load_round_trip(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=1)
    sgd = SGD(model, OptimConfig(max_iter=10))
    for v in sgd.velocity.values():
        v += np.random.default_rng(0).normal(size=v.shape).astype(np.float32)
    path = tmp_path / "m.pspc"
    ckpt.save(str(path), model, sgd.velocity, iteration=5)

    model2, vel, it = ckpt.load(str(path), cfg, seed=99)
    assert it == 5
    for (n1, p1), (n2, p2) in zip(sorted(model.named_parameters()),
                                  sorted(model2.named_parameters())):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    for (n1, b1), (n2, b2) in zip(sorted(model.named_buffers()),
                                  sorted(model2.named_buffers())):
        assert n1 == n2
        assert np.array_equal(b1, b2)
    for name in sgd.velocity:
        assert np.array_equal(vel[name], sgd.velocity[name])


def _owned_f32(arr: np.ndarray) -> bool:
    """What SGD.step needs of a parameter or velocity, and no view of a file buffer."""
    f = arr.flags
    return arr.dtype == np.float32 and f.owndata and f.writeable and f.c_contiguous


def test_load_skips_init_and_returns_owned_arrays(tmp_path, monkeypatch):
    cfg = _cfg(aux=True)
    model = build_model(cfg, seed=5)
    sgd = SGD(model, OptimConfig(max_iter=10))
    for i, v in enumerate(sgd.velocity.values()):
        v += np.float32(0.25 * (i + 1))
    for _, b in model.named_buffers():
        b += np.float32(0.5)
    full, weights = tmp_path / "full.pspc", tmp_path / "weights.pspc"
    ckpt.save(str(full), model, sgd.velocity, 4)
    ckpt.save(str(weights), model, None, 4)

    def no_init(*args):
        raise AssertionError("load must not initialise the parameters it overwrites")

    monkeypatch.setattr(layers, "init_parameters", no_init)
    monkeypatch.setattr(model_mod, "init_parameters", no_init)
    saved = dict(model.named_parameters())
    saved_buffers = dict(model.named_buffers())
    for path, target, inference in ((full, cfg, False), (weights, cfg, False),
                                    (full, _cfg(aux=False), True)):
        loaded, velocity, it = ckpt.load(str(path), target, inference=inference)
        assert it == 4
        names = {n for n, _ in loaded.named_parameters()}
        assert names == {n for n in saved if not inference or not n.startswith("aux/")}
        for n, p in loaded.named_parameters():
            assert p.data.tobytes() == saved[n].data.tobytes() and _owned_f32(p.data)
        for n, b in loaded.named_buffers():
            assert b.tobytes() == saved_buffers[n].tobytes() and _owned_f32(b)
        if path == weights or inference:
            assert velocity == {}
            continue
        assert set(velocity) == names
        for n, v in velocity.items():
            assert v.tobytes() == sgd.velocity[n].tobytes() and _owned_f32(v)


def test_load_peak_memory_is_params_plus_velocities(tmp_path):
    rc = load_config(None, {})
    cfg = rc.to_model_config()
    model = build_model(cfg, seed=0)
    sgd = SGD(model, rc.to_optim_config())
    path = tmp_path / "toy.pspc"
    ckpt.save(str(path), model, sgd.velocity, 1)
    state = (sum(p.data.nbytes for _, p in model.named_parameters())
             + sum(b.nbytes for _, b in model.named_buffers())
             + sum(v.nbytes for v in sgd.velocity.values()))
    del model, sgd
    # slack: the model's Python objects and one read chunk; no second copy
    # of the state (the file, per-entry copies or an init's draws) fits
    slack = 512 * 1024
    tracemalloc.start()
    try:
        loaded = ckpt.load(str(path), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded[2] == 1
    assert peak <= state + slack, f"load peaked at {peak} bytes for {state} bytes of state"


def test_inference_load_peak_memory_is_the_main_path(tmp_path):
    rc = load_config(None, {})
    cfg = rc.to_model_config()
    assert cfg.aux_weight > 0
    model = build_model(cfg, seed=0)
    sgd = SGD(model, rc.to_optim_config())
    path = tmp_path / "toy.pspc"
    ckpt.save(str(path), model, sgd.velocity, 1)
    state = (sum(p.data.nbytes for n, p in model.named_parameters() if not n.startswith("aux/"))
             + sum(b.nbytes for n, b in model.named_buffers() if not n.startswith("aux/")))
    del model, sgd
    slack = 512 * 1024  # as above; the aux weights and the velocities do not fit
    tracemalloc.start()
    try:
        loaded, velocity, it = ckpt.load(str(path), cfg, inference=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert it == 1 and velocity == {} and loaded.aux is None
    assert peak <= state + slack, f"load peaked at {peak} bytes for {state} bytes of state"


def test_saved_files_byte_identical_across_saves(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=1)
    p1, p2 = tmp_path / "a.pspc", tmp_path / "b.pspc"
    ckpt.save(str(p1), model, None, 3)
    ckpt.save(str(p2), model, None, 3)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_writes_the_serialize_bytes(tmp_path):
    model = build_model(_cfg(), seed=2)
    sgd = SGD(model, OptimConfig(max_iter=10))
    for v in sgd.velocity.values():
        v += 0.5
    path = tmp_path / "m.pspc"
    ckpt.save(str(path), model, sgd.velocity, 5)
    entries = ckpt._state_entries(model, sgd.velocity)
    assert path.read_bytes() == _blob(entries, 5, ckpt.config_hash(model.cfg))


class _HalfWriter:
    """File stand-in that writes half the blob, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
        return False

    def write(self, blob):
        self.f.write(blob[: len(blob) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("fault", ["serialize", "write", "replace"])
def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch, fault):
    cfg = _cfg()
    model = build_model(cfg, seed=1)
    path = tmp_path / "m.pspc"
    ckpt.save(str(path), model, None, 3)
    before = path.read_bytes()

    for _, p in model.named_parameters():
        p.data += 1.0
    if fault == "serialize":
        def boom(f, *args):
            f.write(ckpt.MAGIC)
            raise RuntimeError("serialize failed")
        monkeypatch.setattr(ckpt, "_serialize_into", boom)
    elif fault == "write":
        monkeypatch.setattr(ckpt, "open",
                            lambda name, mode: _HalfWriter(open(name, mode)),
                            raising=False)
    else:
        def boom(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(ckpt.os, "replace", boom)
    with pytest.raises((RuntimeError, OSError)):
        ckpt.save(str(path), model, None, 4)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert ckpt.load(str(path), cfg)[2] == 3
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.pspc"]


@pytest.mark.parametrize("entry", ["head/conv1/weight", "head/bn/running_var",
                                   "optim/head/conv2/bias"],
                         ids=["parameter", "buffer", "velocity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_refuses_non_finite_state_before_opening_a_file(tmp_path, monkeypatch, entry, bad):
    model = build_model(_cfg(), seed=1)
    sgd = SGD(model, OptimConfig(max_iter=10))
    path = tmp_path / "m.pspc"
    ckpt.save(str(path), model, sgd.velocity, 3)
    before = path.read_bytes()

    ckpt._state_entries(model, sgd.velocity)[entry].reshape(-1)[-1] = bad
    opened = []
    monkeypatch.setattr(ckpt, "open", lambda *args: opened.append(args) or open(*args),
                        raising=False)
    with pytest.raises(ValueError, match=f"iteration 4: {entry} holds a non-finite value"):
        ckpt.save(str(path), model, sgd.velocity, 4)
    assert opened == []
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.pspc"]


def test_census_missing_and_unexpected(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=0)
    entries = ckpt._state_entries(model, None)
    dropped = dict(entries)
    victim = sorted(dropped)[0]
    del dropped[victim]
    path = tmp_path / "bad.pspc"
    path.write_bytes(_blob(dropped))
    with pytest.raises(ValueError, match=f"missing.*{victim.split('.')[0]}"):
        ckpt.load(str(path), cfg)

    extra = dict(entries)
    extra["zzz.rogue"] = np.zeros(2, np.float32)
    path.write_bytes(_blob(extra))
    with pytest.raises(ValueError, match="unexpected: zzz.rogue"):
        ckpt.load(str(path), cfg)


def test_census_shape_mismatch(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=0)
    entries = ckpt._state_entries(model, None)
    victim = sorted(entries)[0]
    entries[victim] = np.zeros(entries[victim].size + 1, np.float32)
    path = tmp_path / "bad.pspc"
    path.write_bytes(_blob(entries))
    with pytest.raises(ValueError, match="shape of"):
        ckpt.load(str(path), cfg)


def test_weights_only_checkpoint_loads_without_optimizer(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=0)
    path = tmp_path / "w.pspc"
    ckpt.save(str(path), model, None, 7)
    model2, optim_state, it = ckpt.load(str(path), cfg)
    assert it == 7
    assert optim_state == {}


def test_partial_optimizer_state_rejected(tmp_path):
    cfg = _cfg()
    model = build_model(cfg, seed=0)
    names = [n for n, _ in model.named_parameters()]
    partial = {names[0]: np.zeros_like(dict(model.named_parameters())[names[0]].data)}
    path = tmp_path / "p.pspc"
    ckpt.save(str(path), model, partial, 0)
    # one optim entry present -> the full velocity census is expected
    with pytest.raises(ValueError, match="missing: .*optim/"):
        ckpt.load(str(path), cfg)


def test_inference_load_drops_only_aux_and_optim(tmp_path):
    full_cfg = _cfg(aux=True)
    model = build_model(full_cfg, seed=2)
    sgd = SGD(model, OptimConfig(max_iter=10))
    path = tmp_path / "full.pspc"
    ckpt.save(str(path), model, sgd.velocity, 9)

    bare_cfg = _cfg(aux=False)
    with pytest.raises(ValueError, match="unexpected: aux/"):
        ckpt.load(str(path), bare_cfg)

    full_names = {n for n, _ in model.named_parameters() if not n.startswith("aux/")}
    for cfg in (bare_cfg, full_cfg):
        pruned, optim_state, it = ckpt.load(str(path), cfg, inference=True)
        assert it == 9
        assert pruned.aux is None
        assert optim_state == {}
        assert {n for n, _ in pruned.named_parameters()} == full_names
        for n, p in pruned.named_parameters():
            assert np.array_equal(p.data, dict(model.named_parameters())[n].data)


def test_inference_load_never_excuses_trunk_gaps(tmp_path):
    cfg = _cfg(aux=True)
    model = build_model(cfg, seed=0)
    entries = ckpt._state_entries(model, None)
    trunk = next(n for n in sorted(entries) if not n.startswith("aux/"))
    del entries[trunk]
    path = tmp_path / "gap.pspc"
    path.write_bytes(_blob(entries))
    with pytest.raises(ValueError, match="missing"):
        ckpt.load(str(path), cfg, inference=True)

    extra = ckpt._state_entries(model, None) | {"psp/extra": np.zeros(2, np.float32)}
    path.write_bytes(_blob(extra))
    with pytest.raises(ValueError, match="unexpected: psp/extra"):
        ckpt.load(str(path), cfg, inference=True)


def test_inference_load_still_checks_the_crc_of_optim_entries(tmp_path):
    cfg = _cfg(aux=True)
    model = build_model(cfg, seed=1)
    sgd = SGD(model, OptimConfig(max_iter=10))
    path = tmp_path / "full.pspc"
    ckpt.save(str(path), model, sgd.velocity, 2)
    with open(path, "rb") as f:
        index, _, _ = ckpt._index(f)
    _, offset = index[ckpt.OPTIM_PREFIX + "head/conv2/weight"]
    blob = bytearray(path.read_bytes())
    blob[offset + 1] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="CRC mismatch"):
        ckpt.load(str(path), cfg, inference=True)


def test_config_hash_stable_and_config_sensitive():
    a = ckpt.config_hash(_cfg())
    assert a == ckpt.config_hash(_cfg())
    assert a != ckpt.config_hash(_cfg(aux=False))
