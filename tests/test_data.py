"""Dataset construction, labeling, noise, and on-disk formats."""

import math
import struct

import numpy as np
import pytest

from genbound.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    REGRESSION_C_Y,
    Dataset,
    inject_label_noise,
    load_idx,
    save_csv,
    split,
    synth_classification,
    synth_regression,
    target_fn,
    write_idx,
)

from oracles import load_csv

_SCALE = 1.25 + math.pi**2 / 4


def test_target_fn_corner_value():
    h = 1.0 / math.sqrt(3.0)
    x = np.array([h, h, h])
    want = (h + 1.0 / 3.0 + math.sin(math.pi * h)) / _SCALE
    np.testing.assert_allclose(target_fn(x[None, :])[0], want, atol=1e-14)


def test_target_fn_maximum_interior():
    # sup over the cube is at x3 = 1/2, inside the box since 1/2 < 1/sqrt(3)
    h = 1.0 / math.sqrt(3.0)
    x_star = np.array([h, h, 0.5])
    np.testing.assert_allclose(target_fn(x_star[None, :])[0], REGRESSION_C_Y, atol=1e-14)
    rng = np.random.default_rng(0)
    X = rng.uniform(-h, h, size=(200000, 3))
    values = np.abs(target_fn(X))
    assert float(values.max()) <= REGRESSION_C_Y + 1e-12
    # the sup is approached by random sampling
    assert float(values.max()) >= 0.95 * REGRESSION_C_Y


def test_regression_targets_and_norms():
    ds = synth_regression(512, seed=3)
    assert ds.n == 512 and ds.dim == 3
    assert ds.c_y == pytest.approx(REGRESSION_C_Y)
    np.testing.assert_allclose(ds.targets, target_fn(ds.inputs), atol=1e-14)
    assert float(np.max(np.linalg.norm(ds.inputs, axis=1))) <= 1.0 + 1e-12
    assert float(np.max(np.abs(ds.targets))) <= ds.c_y + 1e-12


def test_regression_deterministic():
    a = synth_regression(64, seed=9)
    b = synth_regression(64, seed=9)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    c = synth_regression(64, seed=10)
    assert not np.array_equal(a.inputs, c.inputs)


def test_classification_labels_binary():
    ds = synth_classification(256, seed=4, c_y=0.25)
    assert set(np.unique(ds.targets)) <= {0.0, 0.25}
    assert ds.c_y == 0.25
    # labels follow the sign of the regression target
    want = np.where(target_fn(ds.inputs) > 0.0, 0.25, 0.0)
    np.testing.assert_array_equal(ds.targets, want)


def test_label_noise_counts_and_determinism():
    ds = synth_classification(200, seed=5, c_y=0.25)
    noisy = inject_label_noise(ds, 0.3, seed=6)
    changed = int(np.sum(noisy.targets != ds.targets))
    # floor(0.3*200)=60 indices resampled uniformly from both values,
    # so roughly half of them actually flip
    assert 0 < changed <= 60
    again = inject_label_noise(ds, 0.3, seed=6)
    np.testing.assert_array_equal(noisy.targets, again.targets)
    np.testing.assert_array_equal(noisy.inputs, ds.inputs)
    full = inject_label_noise(ds, 1.0, seed=7)
    assert set(np.unique(full.targets)) <= {0.0, 0.25}


def test_label_noise_rejects_regression():
    ds = synth_regression(32, seed=0)
    with pytest.raises(ValueError):
        inject_label_noise(ds, 0.5, seed=0)


def test_split_sizes():
    ds = synth_regression(4, seed=1)
    left, right = split(ds, 0.5, seed=0)
    assert left.n == 2 and right.n == 2
    assert left.split == "train" and right.split == "test"
    both = np.concatenate([left.inputs, right.inputs])
    assert both.shape == ds.inputs.shape
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 256, size=(30, 4, 4)).astype(np.uint8)
    labels = np.array([0, 1, 2] * 10, dtype=np.uint8)
    img_path = str(tmp_path / "images.idx")
    lab_path = str(tmp_path / "labels.idx")
    write_idx(images, labels, img_path, lab_path)
    ds = load_idx(img_path, lab_path, keep=(0, 2), c_y=0.25)
    assert ds.n == 20
    assert ds.dim == 16
    assert set(np.unique(ds.targets)) == {0.0, 0.25}
    assert float(np.max(np.linalg.norm(ds.inputs, axis=1))) <= 1.0 + 1e-12
    # pixel scaling: raw/255/sqrt(16), rows already inside the ball stay put
    raw = images[labels != 1].reshape(20, 16) / 255.0 / 4.0
    keep_rows = np.linalg.norm(raw, axis=1) <= 1.0
    np.testing.assert_allclose(ds.inputs[keep_rows], raw[keep_rows], atol=1e-12)


def test_idx_rejects_bad_magic(tmp_path):
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(b"\x00\x00\x09\x03" + b"\x00" * 16)
    lab_path = tmp_path / "labels.idx"
    lab_path.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        load_idx(str(img_path), str(lab_path), keep=(0, 1), c_y=0.25)


@pytest.mark.parametrize(
    "image_dims, label_count, message",
    [
        ((-2, 2, 2), -2, "negative image count -2"),
        ((2, -2, -2), 2, "negative image rows -2"),  # rows*cols alone would read 4
        ((2, 2, 2), -2, "negative label count -2"),
    ],
    ids=["count", "rows", "label_count"],
)
def test_idx_rejects_negative_header_field(tmp_path, image_dims, label_count, message):
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, *image_dims) + bytes(8))
    lab_path = tmp_path / "labels.idx"
    lab_path.write_bytes(struct.pack(">ii", IDX_LABEL_MAGIC, label_count) + bytes([0, 1]))
    with pytest.raises(ValueError, match=message) as info:
        load_idx(str(img_path), str(lab_path), keep=(0, 1), c_y=0.25)
    assert str(img_path if "image" in message else lab_path) in str(info.value)


def test_idx_rejects_truncation(tmp_path):
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(10, 2, 2)).astype(np.uint8)
    labels = np.zeros(10, dtype=np.uint8)
    labels[::2] = 1
    img_path = str(tmp_path / "images.idx")
    lab_path = str(tmp_path / "labels.idx")
    write_idx(images, labels, img_path, lab_path)
    blob = open(img_path, "rb").read()
    open(img_path, "wb").write(blob[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(img_path, lab_path, keep=(0, 1), c_y=0.25)


def test_idx_keep_must_be_two_labels(tmp_path):
    rng = np.random.default_rng(10)
    images = rng.integers(0, 256, size=(6, 2, 2)).astype(np.uint8)
    labels = np.arange(6, dtype=np.uint8) % 3
    img_path = str(tmp_path / "images.idx")
    lab_path = str(tmp_path / "labels.idx")
    write_idx(images, labels, img_path, lab_path)
    with pytest.raises(ValueError):
        load_idx(img_path, lab_path, keep=(0, 1, 2), c_y=0.25)


def test_csv_round_trip(tmp_path):
    ds = synth_regression(17, seed=11)
    path = str(tmp_path / "data.csv")
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.targets, ds.targets)
    assert back.c_y == ds.c_y
    assert back.split == ds.split


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 3)) * 2.0, np.zeros(2), c_y=0.25, split="train")
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.array([0.5, 0.0]), c_y=0.25, split="train")
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)), np.zeros(0), c_y=0.25, split="train")
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros(2), c_y=1.5, split="train")
