"""Augmentation invariants, batching, and PPM/PGM dataset round-trips."""

import numpy as np
import pytest

from pyrseg import pnm
from pyrseg.data import (
    IGNORE_LABEL,
    AugmentConfig,
    SegSample,
    _pad_to,
    _rotate_window,
    _rotation_source,
    augment,
    class_palette,
    collate,
    float_image,
    gaussian_blur,
    load_dataset,
    load_sample,
    resize_image,
    resize_labels,
    save_sample,
    write_dataset,
)


# Whole-map references for augment's stages: augment computes only the window
# its crop keeps, and must match these bit for bit.


def rotate_pair(img, labels, degrees):
    """Rotate about the center: bilinear/edge-clamp image, nearest/ignore labels."""
    _, h, w = img.shape
    sy, sx = _rotation_source(h, w, degrees, (0, h), (0, w))
    return _rotate_window(img, labels, sy, sx, (h, w), (0, 0))


def pad_and_crop(img, labels, cfg, rng):
    crop = cfg.crop_size
    img, labels = _pad_to(img, labels, crop, cfg)
    _, h, w = img.shape
    y0 = int(rng.integers(0, h - crop + 1))
    x0 = int(rng.integers(0, w - crop + 1))
    return (
        np.ascontiguousarray(img[:, y0 : y0 + crop, x0 : x0 + crop]),
        np.ascontiguousarray(labels[y0 : y0 + crop, x0 : x0 + crop]),
    )


def _sample(rng, h=48, w=40, k=4):
    img = rng.uniform(size=(3, h, w)).astype(np.float32)
    labels = rng.integers(0, k, size=(h, w)).astype(np.uint8)
    labels[0, 0] = IGNORE_LABEL
    return SegSample(img, labels)


# -- geometric primitives -------------------------------------------------


def test_resize_image_identity_and_arithmetic():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(3, 10, 8)).astype(np.float32)
    same = resize_image(img, (10, 8))
    assert np.array_equal(same, img)
    assert same is not img  # copy, not alias
    up = resize_image(img, (19, 15))
    assert up.shape == (3, 19, 15)
    # align-corners keeps the four corners exactly
    assert np.allclose(up[:, 0, 0], img[:, 0, 0])
    assert np.allclose(up[:, -1, -1], img[:, -1, -1])
    down = resize_image(img, (5, 4))
    assert down.shape == (3, 5, 4)


def test_resize_labels_nearest_preserves_values():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(9, 9)).astype(np.uint8)
    labels[2, 3] = 255
    out = resize_labels(labels, (17, 13))
    assert out.dtype == labels.dtype
    assert set(np.unique(out)) <= set(np.unique(labels))  # no invented classes


def test_rotate_zero_degrees_is_identity():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(3, 12, 12)).astype(np.float32)
    labels = rng.integers(0, 3, size=(12, 12)).astype(np.uint8)
    rimg, rlab = rotate_pair(img, labels, 0.0)
    assert np.allclose(rimg, img, atol=1e-6)
    assert np.array_equal(rlab, labels)


def test_rotate_labels_use_ignore_outside():
    labels = np.zeros((12, 12), dtype=np.uint8)
    img = np.ones((3, 12, 12), dtype=np.float32)
    _, rlab = rotate_pair(img, labels, 45.0)
    assert (rlab == IGNORE_LABEL).any()  # corners leave the frame
    assert set(np.unique(rlab)) <= {0, IGNORE_LABEL}


def test_blur_preserves_constant_and_mass():
    img = np.full((3, 16, 16), 0.25, dtype=np.float32)
    out = gaussian_blur(img, 0.8)
    assert np.allclose(out, 0.25, atol=1e-6)
    rng = np.random.default_rng(3)
    noisy = rng.uniform(size=(3, 32, 32)).astype(np.float32)
    blurred = gaussian_blur(noisy, 1.0)
    assert blurred.std() < noisy.std()  # smoothing reduces variance


def test_pad_and_crop_pads_small_inputs_with_ignore():
    cfg = AugmentConfig(crop_size=16)
    rng = np.random.default_rng(4)
    img = np.zeros((3, 8, 8), dtype=np.float32)
    labels = np.ones((8, 8), dtype=np.uint8)
    cimg, clab = pad_and_crop(img, labels, cfg, rng)
    assert cimg.shape == (3, 16, 16)
    assert clab.shape == (16, 16)
    assert (clab[8:, :] == IGNORE_LABEL).all()  # padded region carries ignore
    assert np.allclose(cimg[:, 8:, :], 0.5)  # image pad value


def test_crop_is_a_window_of_the_source():
    cfg = AugmentConfig(crop_size=8)
    rng = np.random.default_rng(5)
    img = np.arange(3 * 20 * 20, dtype=np.float32).reshape(3, 20, 20)
    labels = np.arange(400, dtype=np.float64).reshape(20, 20).astype(np.uint8)
    cimg, clab = pad_and_crop(img, labels, cfg, rng)
    # every cropped value exists in the source at a consistent offset
    first = cimg[0, 0, 0]
    idx = np.argwhere(img[0] == first)
    y0, x0 = idx[0]
    assert np.array_equal(cimg, img[:, y0 : y0 + 8, x0 : x0 + 8])


# -- full augment ----------------------------------------------------------


def test_augment_output_contract():
    cfg = AugmentConfig(crop_size=32)
    rng = np.random.default_rng(6)
    data_rng = np.random.default_rng(7)
    for _ in range(20):
        s = _sample(data_rng)
        out = augment(s, cfg, rng)
        assert out.image.shape == (3, 32, 32)
        assert out.labels.shape == (32, 32)
        assert out.image.dtype == np.float32
        assert out.labels.dtype == np.uint8
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0
        valid = out.labels != IGNORE_LABEL
        assert valid.size == 0 or set(np.unique(out.labels[valid])) <= {0, 1, 2, 3}


def _augment_whole_map(sample, cfg, rng):
    """The augmentation stages run one after another on the whole map, with
    the draws in the documented order."""
    img, lab = sample.image, sample.labels
    _, h, w = img.shape
    scale = float(rng.uniform(*cfg.resize_range))
    oh, ow = max(1, round(h * scale)), max(1, round(w * scale))
    img, lab = resize_image(img, (oh, ow)), resize_labels(lab, (oh, ow))
    degrees = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg))
    img, lab = rotate_pair(img, lab, degrees)
    if rng.random() < cfg.blur_prob:
        img = gaussian_blur(img, float(rng.uniform(*cfg.blur_sigma_range)))
    if rng.random() < cfg.mirror_prob:
        img, lab = img[:, :, ::-1], lab[:, ::-1]
    return pad_and_crop(np.clip(img, 0.0, 1.0), lab, cfg, rng)


@pytest.mark.parametrize("cfg", [
    AugmentConfig(crop_size=32),
    AugmentConfig(resize_range=(0.2, 3.0), rotation_deg=60.0, blur_prob=1.0,
                  blur_sigma_range=(0.3, 3.0), crop_size=24),
    AugmentConfig(mirror_prob=1.0, resize_range=(0.5, 2.0), rotation_deg=0.0,
                  blur_prob=0.0, crop_size=64),
], ids=["default", "wide", "no-rotation"])
def test_augment_bitwise_equals_whole_map_stages(cfg):
    # augment computes only the pixels its crop keeps; they must be exactly
    # the pixels of the staged whole-map pipeline, padding included. A uint8
    # raster augments as its byte / 255 does.
    data_rng = np.random.default_rng(12)
    for i in range(30):
        h, w = (int(v) for v in data_rng.integers(9, 70, size=2))
        s = _sample(data_rng, h, w)
        raster = SegSample((s.image * 255.0).astype(np.uint8), s.labels)
        for sample, image in ((s, s.image), (raster, raster.image.astype(np.float32) / 255.0)):
            got = augment(sample, cfg, np.random.default_rng([3, i]))
            want_img, want_lab = _augment_whole_map(SegSample(image, s.labels), cfg,
                                                    np.random.default_rng([3, i]))
            assert got.image.tobytes() == np.ascontiguousarray(want_img).tobytes(), (i, h, w)
            assert np.array_equal(got.labels, want_lab), (i, h, w)
        as_float = augment(SegSample(float_image(raster.image), s.labels), cfg,
                           np.random.default_rng([3, i]))
        assert got.image.tobytes() == as_float.image.tobytes(), (i, h, w)


def test_augment_deterministic_per_generator():
    cfg = AugmentConfig(crop_size=32)
    s = _sample(np.random.default_rng(8))
    a = augment(s, cfg, np.random.default_rng(99))
    b = augment(s, cfg, np.random.default_rng(99))
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.labels, b.labels)


def test_mirror_only_config_is_involution():
    cfg = AugmentConfig(mirror_prob=1.0, resize_range=(1.0, 1.0), rotation_deg=0.0,
                        blur_prob=0.0, crop_size=48)
    s = SegSample(
        np.random.default_rng(9).uniform(size=(3, 48, 48)).astype(np.float32),
        np.random.default_rng(10).integers(0, 3, size=(48, 48)).astype(np.uint8),
    )
    once = augment(s, cfg, np.random.default_rng(0))
    twice = augment(once, cfg, np.random.default_rng(0))
    assert np.array_equal(twice.image, s.image)
    assert np.array_equal(twice.labels, s.labels)


# -- batching ---------------------------------------------------------------


def test_collate_types_and_mismatch():
    data_rng = np.random.default_rng(14)
    batch = collate([_sample(data_rng, h=16, w=16) for _ in range(3)])
    assert batch.images.shape == (3, 3, 16, 16)
    assert batch.images.dtype == np.float32
    assert batch.labels.shape == (3, 16, 16)
    assert batch.labels.dtype == np.uint8
    with pytest.raises(ValueError, match="identical sizes"):
        collate([_sample(data_rng, h=16, w=16), _sample(data_rng, h=8, w=8)])


# -- sample validation -------------------------------------------------------


def test_sample_validate():
    good = _sample(np.random.default_rng(15))
    good.validate(4)
    with pytest.raises(ValueError, match=r"\(3, H, W\)"):
        SegSample(np.zeros((1, 4, 4), np.float32), np.zeros((4, 4), np.uint8)).validate(2)
    with pytest.raises(ValueError, match="dim mismatch"):
        SegSample(np.zeros((3, 4, 4), np.float32), np.zeros((5, 4), np.uint8)).validate(2)
    bad = SegSample(np.zeros((3, 4, 4), np.float32), np.full((4, 4), 7, np.uint8))
    with pytest.raises(ValueError, match="label 7 out of range"):
        bad.validate(4)
    SegSample(np.zeros((3, 4, 4), np.uint8), np.zeros((4, 4), np.uint8)).validate(2)
    with pytest.raises(ValueError, match="image must be uint8 or float32, got float64"):
        SegSample(np.zeros((3, 4, 4), np.float64), np.zeros((4, 4), np.uint8)).validate(2)


# -- file io ------------------------------------------------------------------


def test_ppm_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    arr = rng.integers(0, 256, size=(9, 7, 3)).astype(np.uint8)
    pnm.write_ppm(tmp_path / "x.ppm", arr)
    assert np.array_equal(pnm.read_ppm(tmp_path / "x.ppm"), arr)
    gray = rng.integers(0, 256, size=(9, 7)).astype(np.uint8)
    pnm.write_pgm(tmp_path / "x.pgm", gray)
    assert np.array_equal(pnm.read_pgm(tmp_path / "x.pgm"), gray)


def test_pnm_header_comments_and_extra_whitespace(tmp_path):
    raster = bytes(range(2 * 3))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t\t3 \n\n# maxval next\n255\n" + raster)
    assert np.array_equal(pnm.read_pgm(path),
                          np.frombuffer(raster, np.uint8).reshape(3, 2))


@pytest.mark.parametrize("header,message", [
    (b"P6\n4 4", "truncated header"),
    (b"P6\n4 # width, then a comment runs off the end", "truncated header"),
    (b"P6\n0 3\n255\n", "bad dimensions 0x3"),
    (b"P6\n2 3\n65535\n", "only maxval 255 supported, got 65535"),
    (b"P6\n2 3\n255\n" + bytes(17), r"truncated pixel data \(17 of 18 bytes\)"),
])
def test_read_ppm_rejects_bad_files(tmp_path, header, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=message):
        pnm.read_ppm(path)


@pytest.mark.parametrize("header", [b"P6#x\n4 4\n255\n", b"P6\n4#w\n4\n255\n"],
                         ids=["after-magic", "after-width"])
def test_pnm_comment_ends_the_token_before_it(tmp_path, header):
    raster = bytes(range(4 * 4 * 3))
    plain, commented = tmp_path / "plain.ppm", tmp_path / "commented.ppm"
    plain.write_bytes(b"P6\n4 4\n255\n" + raster)
    commented.write_bytes(header + raster)
    want = pnm.read_ppm(plain)
    assert want.shape == (4, 4, 3)
    assert np.array_equal(pnm.read_ppm(commented), want)


def test_pnm_non_decimal_field_names_the_file_and_field(tmp_path):
    path = tmp_path / "word.ppm"
    path.write_bytes(b"P6\nx 4\n255\n" + bytes(48))
    with pytest.raises(ValueError, match=r"word\.ppm: width must be a decimal integer"):
        pnm.read_ppm(path)


def test_read_ppm_rejects_a_pgm(tmp_path):
    path = tmp_path / "gray.pgm"
    pnm.write_pgm(path, np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError, match=r"expected P6 file, got magic b'P5'"):
        pnm.read_ppm(path)


def test_sample_round_trip_quantizes_to_8bit(tmp_path):
    rng = np.random.default_rng(17)
    s = _sample(rng, h=12, w=10)
    save_sample(s, tmp_path / "i.ppm", tmp_path / "l.pgm")
    back = load_sample(tmp_path / "i.ppm", tmp_path / "l.pgm", 4)
    assert np.array_equal(back.labels, s.labels)
    assert np.abs(float_image(back.image) - s.image).max() <= 0.5 / 255.0 + 1e-6
    # a loaded sample saves back to the same bytes
    save_sample(back, tmp_path / "j.ppm", tmp_path / "m.pgm")
    assert (tmp_path / "j.ppm").read_bytes() == (tmp_path / "i.ppm").read_bytes()
    assert (tmp_path / "m.pgm").read_bytes() == (tmp_path / "l.pgm").read_bytes()


def test_loaded_images_stay_8bit_and_read_as_byte_over_255(tmp_path):
    rng = np.random.default_rng(19)
    samples = [_sample(rng, h=64, w=64) for _ in range(256)]
    write_dataset(tmp_path / "ds", samples)
    back = load_dataset(tmp_path / "ds", 4)
    assert all(b.image.dtype == np.uint8 and b.image.flags.c_contiguous for b in back)
    held = sum(b.image.nbytes + b.labels.nbytes for b in back)
    assert held == 256 * 64 * 64 * 4  # 4.0 MB; float32 images would hold 13.0 MB
    for i, b in enumerate(back):
        raw = pnm.read_ppm(tmp_path / "ds" / "images" / f"{i:04d}.ppm")
        want = (raw.astype(np.float32) / 255.0).transpose(2, 0, 1)
        assert float_image(b.image).tobytes() == np.ascontiguousarray(want).tobytes()
    assert float_image(samples[0].image) is samples[0].image  # float32 passes uncopied


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    samples = [_sample(rng, h=16, w=16) for _ in range(3)]
    write_dataset(tmp_path / "ds", samples)
    assert (tmp_path / "ds" / "manifest.txt").read_text().splitlines() == [
        "0000", "0001", "0002"
    ]
    back = load_dataset(tmp_path / "ds", 4)
    assert len(back) == 3
    for a, b in zip(samples, back):
        assert np.array_equal(a.labels, b.labels)


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        load_dataset(tmp_path, 4)


def test_class_palette_shape_and_distinct():
    pal = class_palette(6)
    assert pal.shape == (6, 3)
    assert pal.dtype == np.uint8
    assert len({tuple(row) for row in pal}) == 6
