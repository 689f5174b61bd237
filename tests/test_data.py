import struct

import numpy as np
import pytest

from advlab.data import (
    Dataset,
    batches,
    load_idx,
    split_blobs,
    synth_blobs,
    write_idx_images,
    write_idx_labels,
)
from advlab.io import FormatError


class TestIdx:
    def write_pair(self, tmp_path, images, labels):
        ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        return ip, lp

    def test_hand_crafted_pair(self, tmp_path):
        images = np.array(
            [[[0, 255], [51, 102]], [[255, 0], [0, 255]]], dtype=np.uint8
        )
        ip, lp = self.write_pair(tmp_path, images, [1, 0])
        ds = load_idx(ip, lp)
        expect = np.array([[0, 255, 51, 102], [255, 0, 0, 255]]) / 255.0
        assert np.array_equal(ds.inputs, expect)
        assert np.array_equal(ds.labels, [1, 0])
        assert ds.num_classes == 2

    def test_wrong_magic_rejected(self, tmp_path):
        ip, lp = self.write_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(FormatError, match="magic 0x00000801, expected 0x00000803"):
            load_idx(lp, lp)  # labels file offered as images
        with pytest.raises(FormatError, match="magic 0x00000803, expected 0x00000801"):
            load_idx(ip, ip)

    def test_truncated_rejected(self, tmp_path):
        ip, lp = self.write_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="image payload: expected 18 bytes, got 13"):
            load_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, _ = self.write_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        lp = ip.parent / "short.idx"
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError, match="2 images but 1 labels"):
            load_idx(ip, lp)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 9, size=7, dtype=np.uint8)
        ip, lp = self.write_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)

        back = np.rint(ds.inputs * 255.0).astype(np.uint8).reshape(7, 4, 5)
        ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "lbls2.idx"
        write_idx_images(ip2, back)
        write_idx_labels(lp2, ds.labels.astype(np.uint8))
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()

    @pytest.mark.parametrize("labels", [[300], [-1], [256], [0.5], [float("nan")], ["a"]],
                             ids=["300", "neg", "256", "fraction", "nan", "str"])
    def test_out_of_range_labels_rejected(self, tmp_path, labels):
        path = tmp_path / "lbls.idx"
        with pytest.raises(ValueError, match="labels must be integers in 0..255"):
            write_idx_labels(path, [0, *labels])
        assert not path.exists()  # nothing written

    @pytest.mark.parametrize("pixel", [1.7, 256, -3, 255.5, float("inf"), float("nan")],
                             ids=["fraction", "256", "neg", "above-255", "inf", "nan"])
    def test_out_of_range_pixels_rejected(self, tmp_path, pixel):
        images = np.zeros((2, 2, 2))
        images[1, 0, 1] = pixel
        with pytest.raises(ValueError, match=f"images must be integers in 0..255, got {pixel}"):
            write_idx_images(tmp_path / "imgs.idx", images)

    def test_integer_valued_floats_and_wide_ints_accepted(self, tmp_path):
        pixels = np.array([[[0.0, 255.0], [-0.0, 128.0]]])
        ip, lp = self.write_pair(tmp_path, pixels, np.array([255], dtype=np.int64))
        ds = load_idx(ip, lp)
        assert np.array_equal(ds.inputs, [[0.0, 1.0, 0.0, 128 / 255]])
        assert np.array_equal(ds.labels, [255])

    def test_empty_labels_accepted(self, tmp_path):
        path = tmp_path / "lbls.idx"
        write_idx_labels(path, [])
        assert path.read_bytes() == struct.pack(">ii", 0x00000801, 0)

    def test_magic_values_are_big_endian(self, tmp_path):
        ip, lp = self.write_pair(tmp_path, np.zeros((1, 1, 1), np.uint8), [0])
        assert ip.read_bytes()[:4] == struct.pack(">i", 0x00000803)
        assert lp.read_bytes()[:4] == struct.pack(">i", 0x00000801)


class TestSynthBlobs:
    def test_zero_spread_collapses_to_centers(self):
        ds = synth_blobs(3, 4, 5, spread=0.0, seed=1)
        for c in range(3):
            block = ds.inputs[ds.labels == c]
            assert np.all(block == block[0])

    def test_same_seed_is_bit_identical(self):
        a = synth_blobs(4, 10, 6, 0.1, seed=42)
        b = synth_blobs(4, 10, 6, 0.1, seed=42)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert a.name == b.name

    def test_inputs_in_box_and_balanced(self):
        ds = synth_blobs(5, 7, 4, 0.8, seed=3)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.array_equal(np.bincount(ds.labels), np.full(5, 7))

    def test_far_centers_are_linearly_separable(self):
        # two tight, well-separated blobs: a one-layer net fits them fast
        from advlab.network import Network, forward, accuracy, backward, loss_logit_grad

        ds = synth_blobs(2, 40, 8, spread=0.02, seed=9)
        net = Network.he_init([8, 2], seed=0)
        for _ in range(100):
            tape = forward(net, ds.inputs)
            grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, ds.labels))
            net = net.with_weights([w - 0.5 * g for w, g in zip(net.weights, grads)])
        assert accuracy(forward(net, ds.inputs).logits, ds.labels) >= 0.99

    @pytest.mark.parametrize("train_per_class, test_per_class", [(-1, 5), (5, -1), (0, 5), (5, 0)])
    def test_split_size_below_one_rejected(self, train_per_class, test_per_class):
        with pytest.raises(ValueError, match="must be >= 1"):
            split_blobs(3, train_per_class, test_per_class, 4, 0.1, seed=0)


class TestBatches:
    def test_single_batch_is_permutation(self):
        ds = synth_blobs(2, 5, 3, 0.1, seed=4)
        (xb, yb), *rest = list(batches(ds, batch_size=100, epoch_seed=0))
        assert not rest
        order = np.lexsort(xb.T)
        base = np.lexsort(ds.inputs.T)
        assert np.array_equal(xb[order], ds.inputs[base])
        assert sorted(yb) == sorted(ds.labels)

    def test_labels_multiset_preserved(self):
        ds = synth_blobs(3, 7, 2, 0.2, seed=5)
        emitted = np.concatenate([y for _, y in batches(ds, 4, epoch_seed=1)])
        assert np.array_equal(np.sort(emitted), np.sort(ds.labels))

    def test_fixed_epoch_seed_reproduces_order(self):
        ds = synth_blobs(3, 7, 2, 0.2, seed=5)
        a = [y.tolist() for _, y in batches(ds, 4, epoch_seed=2)]
        b = [y.tolist() for _, y in batches(ds, 4, epoch_seed=2)]
        assert a == b

    def test_rejects_bad_batch_size(self):
        ds = synth_blobs(2, 2, 2, 0.1, seed=6)
        with pytest.raises(ValueError):
            list(batches(ds, 0, epoch_seed=0))


class TestDatasetValidation:
    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.2]]), [0], 1, "bad")

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5]]), [2], 2, "bad")
