"""Datasets: IDX image/label files, binarization, context/target splitting
for structured prediction, and synthetic corpora from known tiny models.

IDX files are the classic big-endian format: a 4-byte magic (0x00000803 for
uint8 image tensors, 0x00000801 for uint8 label vectors), one big-endian
uint32 per dimension, then raw uint8 payload. Pixel values are scaled to
[0, 1] on load. Files ending in .gz are decompressed transparently.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ConfigError, DomainError, FormatError, ShapeError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

THRESHOLD = "threshold"
FIXED_STANDARD = "fixed-standard"

MNIST_FILES = {
    "train-images": "train-images-idx3-ubyte",
    "train-labels": "train-labels-idx1-ubyte",
    "test-images": "t10k-images-idx3-ubyte",
    "test-labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class Dataset:
    """Binary observations plus optional per-item contexts and a split tag."""

    items: np.ndarray
    contexts: np.ndarray | None = None
    split: str = "train"

    def __post_init__(self):
        self.items = np.asarray(self.items, dtype=np.float64)
        if self.items.ndim != 2:
            raise ShapeError("items must be a 2D (n, width) array")
        if not (((self.items == 0.0) | (self.items == 1.0)).all()):
            raise DomainError("dataset entries must be strictly binary")
        if self.contexts is not None:
            self.contexts = np.asarray(self.contexts, dtype=np.float64)
            if self.contexts.shape[0] != self.items.shape[0]:
                raise ShapeError("contexts and items must have equal length")
            if not (((self.contexts == 0.0) | (self.contexts == 1.0)).all()):
                raise DomainError("context entries must be strictly binary")

    def __len__(self):
        return self.items.shape[0]

    def subset(self, n: int, split: str | None = None) -> "Dataset":
        return Dataset(self.items[:n],
                       None if self.contexts is None else self.contexts[:n],
                       split or self.split)


def _open_maybe_gz(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path) -> np.ndarray:
    """Loads an IDX file. Image tensors come back as float64 scaled into
    [0, 1]; label vectors as an int64 array."""
    with _open_maybe_gz(path) as f:
        raw = f.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header at byte 0")
    magic = int.from_bytes(raw[0:4], "big")
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated dimension header at byte {len(raw)}")
    dims = [int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big") for i in range(ndim)]
    count = int(np.prod(dims))
    if len(raw) != header_end + count:
        raise FormatError(
            f"{path}: payload ends at byte {len(raw)}, expected "
            f"{header_end + count}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_end).reshape(dims)
    if magic == IDX_MAGIC_LABELS:
        return data.astype(np.int64)
    return data.astype(np.float64) / 255.0


def write_idx(path, array: np.ndarray):
    """Writes an IDX file. A 3D float array in [0, 1] is stored as uint8
    images (values scaled by 255 and rounded); a 1D integer array as labels.
    Reading back an array whose values are multiples of 1/255 is lossless.
    """
    array = np.asarray(array)
    if array.ndim == 3:
        magic, payload = IDX_MAGIC_IMAGES, np.rint(array * 255.0)
        if payload.min() < 0 or payload.max() > 255:
            raise DomainError("image values must lie in [0, 1]")
        payload = payload.astype(np.uint8)
    elif array.ndim == 1:
        magic = IDX_MAGIC_LABELS
        if array.min() < 0 or array.max() > 255:
            raise DomainError("label values must lie in [0, 255]")
        payload = array.astype(np.uint8)
    else:
        raise ShapeError("write_idx takes a 3D image stack or 1D labels")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(magic.to_bytes(4, "big"))
        for d in payload.shape:
            f.write(int(d).to_bytes(4, "big"))
        f.write(payload.tobytes())


def binarize(images: np.ndarray, mode: str = THRESHOLD,
             standard_file=None, split: str = "train") -> Dataset:
    """Turns an (n, h, w) or (n, d) image array in [0, 1] into a binary
    Dataset.

    threshold: pixel becomes 1 iff its value is strictly greater than 0.5.
    fixed-standard: reads a precomputed binarization from standard_file,
    one ASCII row of 0/1 characters per image, ignoring the pixel values
    (only the image count is cross-checked).
    """
    images = np.asarray(images, dtype=np.float64)
    flat = images.reshape(images.shape[0], -1)
    if mode == THRESHOLD:
        return Dataset((flat > 0.5).astype(np.float64), split=split)
    if mode == FIXED_STANDARD:
        if standard_file is None:
            raise ConfigError("fixed-standard binarization needs a file")
        rows = []
        with open(standard_file) as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                if set(line) - {"0", "1"}:
                    raise FormatError(
                        f"{standard_file}:{line_no}: rows must be 0/1 strings")
                rows.append(np.frombuffer(line.encode(), dtype=np.uint8) - ord("0"))
        binary = np.array(rows, dtype=np.float64)
        if binary.shape[0] != flat.shape[0]:
            raise FormatError(
                f"{standard_file}: {binary.shape[0]} rows for "
                f"{flat.shape[0]} images")
        if binary.shape[1] != flat.shape[1]:
            raise FormatError(
                f"{standard_file}: rows have width {binary.shape[1]}, "
                f"images have {flat.shape[1]}")
        return Dataset(binary, split=split)
    raise ConfigError(f"unknown binarization mode '{mode}'")


def split_halves(dataset: Dataset) -> Dataset:
    """Structured-prediction view of 28x28 digits: the top 14 rows become
    the context and the bottom 14 rows the observation."""
    if dataset.items.shape[1] != 784:
        raise ShapeError("split_halves expects flattened 28x28 images")
    imgs = dataset.items.reshape(-1, 28, 28)
    top = imgs[:, :14, :].reshape(-1, 392)
    bottom = imgs[:, 14:, :].reshape(-1, 392)
    return Dataset(bottom, contexts=top, split=dataset.split)


def synthetic_dataset(arch: str, n: int, seed: int = 0,
                      param_scale: float = 1.0):
    """Samples an IID corpus from a freshly drawn tiny float64 model
    ("teacher").

    Returns (Dataset, teacher ModelPair); the teacher is retained so tests
    can compare recovered parameters/likelihoods against the ground truth.
    Restricted to models whose observation width is at most 16 and whose
    latent support is enumerable.
    """
    from .evaluation import enumerate_support
    from .models import build_architecture

    teacher = build_architecture(arch, seed=None, dtype=np.float64)
    if teacher.gen.obs_width > 16:
        raise CapabilityError("synthetic corpora are capped at width-16 "
                              "observations")
    enumerate_support(teacher.gen)  # raises if the latent support is too big
    rng = np.random.default_rng(seed)
    teacher.lam[:] = rng.normal(scale=param_scale, size=teacher.lam.size)
    if teacher.context_width:
        raise ConfigError("synthetic corpora support unconditional models only")
    x, _ = teacher.gen.sample_joint(rng, n=n)
    return Dataset(x, split="train"), teacher


def surrogate_images(n_train: int, n_valid: int = 1000, seed: int = 0,
                     param_scale: float = 1.0):
    """A stand-in corpus of 784-pixel binary images for environments without
    the real digit files: IID samples from a fixed randomly-parameterized
    784-from-200 generative model, so pixels carry latent structure worth
    learning. Deterministic for a given seed (the teacher is float64).

    Returns (train, valid) Datasets.
    """
    from .models import build_architecture

    teacher = build_architecture("linear", seed=None, dtype=np.float64)
    rng = np.random.default_rng(seed)
    teacher.lam[:] = rng.normal(scale=param_scale, size=teacher.lam.size)
    x, _ = teacher.gen.sample_joint(rng, n=n_train + n_valid)
    return (Dataset(x[:n_train], split="train"),
            Dataset(x[n_train:], split="valid"))


def default_data_root() -> str | None:
    """The digit-file directory: the JSA_DATA_ROOT environment variable, or
    None when unset (callers then fall back to the surrogate corpus)."""
    root = os.environ.get("JSA_DATA_ROOT", "").strip()
    return root or None


def mnist_splits(root, binarize_mode: str = THRESHOLD, standard_files=None,
                 n_valid: int = 10000):
    """Loads MNIST from IDX files under root and returns the standard
    train/valid/test split: first 50k training images for training, last 10k
    for validation, the t10k file for testing."""
    paths = {}
    for key, name in MNIST_FILES.items():
        if "labels" in key:
            continue
        for cand in (name, name + ".gz"):
            p = os.path.join(root, cand)
            if os.path.exists(p):
                paths[key] = p
                break
        else:
            raise ConfigError(f"missing MNIST file {name}[.gz] under {root}")
    train_images = load_idx(paths["train-images"])
    test_images = load_idx(paths["test-images"])
    std = standard_files or {}
    full_train = binarize(train_images, binarize_mode,
                          std.get("train"), split="train")
    test = binarize(test_images, binarize_mode, std.get("test"), split="test")
    train, valid = split_train_valid(full_train, n_valid)
    return train, valid, test


def split_train_valid(full_train: Dataset, n_valid: int = 10000):
    """Carves the tail of the training set off as a validation split."""
    n = len(full_train)
    if n <= n_valid:
        raise ShapeError(f"training set of {n} too small for {n_valid} "
                         "validation items")
    cut = n - n_valid
    ctx = full_train.contexts
    train = Dataset(full_train.items[:cut],
                    None if ctx is None else ctx[:cut], "train")
    valid = Dataset(full_train.items[cut:],
                    None if ctx is None else ctx[cut:], "valid")
    return train, valid
