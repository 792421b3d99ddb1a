"""IDX files, binarization, splits, synthetic corpora."""

import tracemalloc

import numpy as np
import pytest

from jsalearn import data as d
from jsalearn import evaluation as ev
from jsalearn.errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    FormatError,
    ShapeError,
)


class TestIdxFiles:
    def test_image_round_trip_plain_and_gz(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(5, 4, 3)).astype(np.float64) / 255.0
        for name in ("imgs.idx", "imgs.idx.gz"):
            path = tmp_path / name
            d.write_idx(path, imgs)
            back = d.load_idx(path)
            assert back.dtype == np.float64
            assert np.array_equal(back, imgs)

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 255, 7, 3, 9])
        path = tmp_path / "labels.idx"
        d.write_idx(path, labels)
        back = d.load_idx(path)
        assert back.dtype == np.int64
        assert np.array_equal(back, labels)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError, match="byte 0"):
            d.load_idx(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.idx"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            d.load_idx(path)

    def test_truncated_dimensions(self, tmp_path):
        path = tmp_path / "dims.idx"
        path.write_bytes(d.IDX_MAGIC_IMAGES.to_bytes(4, "big") + b"\x00\x00")
        with pytest.raises(FormatError, match="dimension header"):
            d.load_idx(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "short.idx"
        header = d.IDX_MAGIC_IMAGES.to_bytes(4, "big")
        for dim in (2, 3, 3):
            header += dim.to_bytes(4, "big")
        path.write_bytes(header + b"\x00" * 5)   # needs 18 payload bytes
        with pytest.raises(FormatError, match="expected 34"):
            d.load_idx(path)

    def test_write_rejects_bad_shapes_and_ranges(self, tmp_path):
        with pytest.raises(ShapeError):
            d.write_idx(tmp_path / "x.idx", np.zeros((2, 2)))
        with pytest.raises(DomainError):
            d.write_idx(tmp_path / "x.idx", np.full((1, 2, 2), 1.5))
        with pytest.raises(DomainError):
            d.write_idx(tmp_path / "x.idx", np.array([300]))


class TestBinarize:
    def test_threshold_is_strict(self):
        imgs = np.array([[0.0, 0.5, 0.5 + 1e-9, 1.0]])
        ds = d.binarize(imgs)
        assert np.array_equal(ds.items, [[0.0, 0.0, 1.0, 1.0]])

    def test_flattens_image_stacks(self):
        ds = d.binarize(np.ones((3, 2, 2)), split="test")
        assert ds.items.shape == (3, 4)
        assert ds.split == "test"

    def test_fixed_standard_overrides_pixels(self, tmp_path):
        std = tmp_path / "std.txt"
        std.write_text("0101\n1010\n")
        ds = d.binarize(np.zeros((2, 2, 2)), d.FIXED_STANDARD, std)
        assert np.array_equal(ds.items, [[0, 1, 0, 1], [1, 0, 1, 0]])

    def test_fixed_standard_errors(self, tmp_path):
        std = tmp_path / "std.txt"
        with pytest.raises(ConfigError):
            d.binarize(np.zeros((1, 2, 2)), d.FIXED_STANDARD)
        std.write_text("0101\n")
        with pytest.raises(FormatError, match="1 rows for 2"):
            d.binarize(np.zeros((2, 2, 2)), d.FIXED_STANDARD, std)
        std.write_text("01x1\n")
        with pytest.raises(FormatError, match="0/1"):
            d.binarize(np.zeros((1, 2, 2)), d.FIXED_STANDARD, std)
        std.write_text("010\n")
        with pytest.raises(FormatError, match="width"):
            d.binarize(np.zeros((1, 2, 2)), d.FIXED_STANDARD, std)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            d.binarize(np.zeros((1, 2, 2)), "stochastic")


class TestDataset:
    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            d.Dataset(np.array([[0.0, 0.3]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            d.Dataset(np.array([0.0, 1.0]))

    def test_context_validation(self):
        with pytest.raises(ShapeError):
            d.Dataset(np.zeros((2, 3)), contexts=np.zeros((3, 2)))
        with pytest.raises(DomainError):
            d.Dataset(np.zeros((2, 3)), contexts=np.full((2, 2), 0.5))

    def test_subset(self):
        ds = d.Dataset(np.eye(4), split="train")
        sub = ds.subset(2, split="probe")
        assert len(sub) == 2
        assert sub.split == "probe"
        assert np.array_equal(sub.items, np.eye(4)[:2])


class TestSplits:
    def test_split_halves_reconstructs_images(self):
        rng = np.random.default_rng(1)
        imgs = (rng.random((3, 28, 28)) < 0.5).astype(np.float64)
        ds = d.Dataset(imgs.reshape(3, 784))
        halves = d.split_halves(ds)
        assert np.array_equal(halves.contexts.reshape(3, 14, 28),
                              imgs[:, :14, :])
        assert np.array_equal(halves.items.reshape(3, 14, 28),
                              imgs[:, 14:, :])

    def test_split_halves_needs_784(self):
        with pytest.raises(ShapeError):
            d.split_halves(d.Dataset(np.zeros((2, 100))))

    def test_train_valid_carves_tail(self):
        full = d.Dataset((np.arange(10)[:, None] % 2 * np.ones(3)).astype(float))
        train, valid = d.split_train_valid(full, n_valid=4)
        assert len(train) == 6 and len(valid) == 4
        assert np.array_equal(valid.items, full.items[6:])
        assert train.split == "train" and valid.split == "valid"

    def test_train_valid_too_small(self):
        with pytest.raises(ShapeError):
            d.split_train_valid(d.Dataset(np.zeros((5, 2))), n_valid=5)


class TestSyntheticCorpus:
    ARCH = "enc: 5-3s~B3; dec: B3-5s"

    def test_deterministic_and_returns_teacher(self):
        ds1, t1 = d.synthetic_dataset(self.ARCH, n=50, seed=9)
        ds2, t2 = d.synthetic_dataset(self.ARCH, n=50, seed=9)
        assert np.array_equal(ds1.items, ds2.items)
        assert np.array_equal(t1.lam, t2.lam)
        assert ds1.items.shape == (50, 5)

    def test_marginals_match_teacher(self):
        ds, teacher = d.synthetic_dataset(self.ARCH, n=4000, seed=11)
        sup = ev.enumerate_support(teacher.gen)
        grid = np.array(np.meshgrid(*[[0.0, 1.0]] * 5,
                                    indexing="ij")).reshape(5, -1).T
        px = np.array([np.exp(ev.exact_log_likelihood(teacher.gen, x,
                                                      support=sup))
                       for x in grid])
        pixel_p = px @ grid
        freq = ds.items.mean(axis=0)
        se = np.sqrt(pixel_p * (1 - pixel_p) / len(ds))
        assert np.all(np.abs(freq - pixel_p) <= 3 * se + 1e-9)

    def test_wide_observation_rejected(self):
        with pytest.raises(CapabilityError):
            d.synthetic_dataset("linear", n=10)


class TestSurrogateCorpus:
    def test_shapes_and_determinism(self):
        tr1, va1 = d.surrogate_images(40, 15, seed=3)
        tr2, va2 = d.surrogate_images(40, 15, seed=3)
        assert tr1.items.shape == (40, 784)
        assert va1.items.shape == (15, 784)
        assert np.array_equal(tr1.items, tr2.items)
        assert np.array_equal(va1.items, va2.items)

    def test_seed_changes_data(self):
        tr1, _ = d.surrogate_images(30, 5, seed=3)
        tr2, _ = d.surrogate_images(30, 5, seed=4)
        assert not np.array_equal(tr1.items, tr2.items)

    def test_draw_holds_no_logits_beside_probabilities(self):
        """The 2 100 x 784 draw keeps a net's logits and its probabilities
        in one buffer and writes each decision into its uniforms: with two
        such arrays (13.2 MB each) alive at once the peak stays below
        35 MB, where a third would lift it past 45 MB."""
        tracemalloc.start()
        try:
            d.surrogate_images(100, 2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 35e6


class TestDataRoot:
    def test_env_variable(self, monkeypatch):
        monkeypatch.delenv("JSA_DATA_ROOT", raising=False)
        assert d.default_data_root() is None
        monkeypatch.setenv("JSA_DATA_ROOT", "  ")
        assert d.default_data_root() is None
        monkeypatch.setenv("JSA_DATA_ROOT", "/data/digits")
        assert d.default_data_root() == "/data/digits"


def write_mnist_fixture(root, n_train=30, n_test=10, gz=False):
    rng = np.random.default_rng(7)
    suffix = ".gz" if gz else ""
    train = rng.integers(0, 256, size=(n_train, 28, 28)) / 255.0
    test = rng.integers(0, 256, size=(n_test, 28, 28)) / 255.0
    d.write_idx(root / (d.MNIST_FILES["train-images"] + suffix), train)
    d.write_idx(root / (d.MNIST_FILES["test-images"] + suffix), test)
    return train, test


class TestMnistSplits:
    def test_standard_split_on_fixture(self, tmp_path):
        raw_train, raw_test = write_mnist_fixture(tmp_path)
        train, valid, test = d.mnist_splits(tmp_path, n_valid=5)
        assert len(train) == 25 and len(valid) == 5 and len(test) == 10
        assert np.array_equal(
            train.items, (raw_train[:25].reshape(25, 784) > 0.5))
        assert np.array_equal(
            valid.items, (raw_train[25:].reshape(5, 784) > 0.5))
        assert test.split == "test"

    def test_finds_gz_files(self, tmp_path):
        write_mnist_fixture(tmp_path, gz=True)
        train, valid, test = d.mnist_splits(tmp_path, n_valid=5)
        assert len(train) == 25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            d.mnist_splits(tmp_path)
