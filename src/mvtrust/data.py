"""Multi-view dataset handling.

Covers manifest-based loading of dense text matrices, synthetic dataset
generation around a class-conditional latent Gaussian, stratified
splitting, train-statistics standardization, and the two corruption
harnesses (additive Gaussian noise and cross-class view misalignment).
Corruption never mutates its input; the returned mask fully describes the
delta.  Every seeded operation is bit-reproducible.
"""

from __future__ import annotations

import json

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

MANIFEST_FORMAT = "mvtrust-dataset/1"
LATENT_DIM = 8  # width of the latent space that synthesize maps into each view


@dataclass
class MultiViewDataset:
    """Per-view dense feature matrices plus integer class labels."""

    views: list
    labels: np.ndarray
    n_classes: int
    view_names: tuple = ()

    def __post_init__(self):
        self.views = [np.asarray(v, dtype=np.float64) for v in self.views]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not self.views:
            raise ContractError("dataset needs at least one view")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2 or v.shape[1] < 1:
                raise ContractError(f"view {i} must be a 2-d matrix with >= 1 column")
            if v.shape[0] != n:
                raise ContractError(
                    f"view {i} has {v.shape[0]} rows but view 0 has {n}"
                )
            if not np.isfinite(v).all():
                row = np.flatnonzero(~np.isfinite(v).all(axis=1))[0]
                raise DataError(f"view {i} has a non-finite feature in row {row}")
        if self.labels.shape != (n,):
            raise ContractError(
                f"labels must be one per sample: {self.labels.shape} vs {n} rows"
            )
        if self.n_classes < 2:
            raise ContractError("n_classes must be >= 2")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ContractError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        if not self.view_names:
            self.view_names = tuple(f"view{i}" for i in range(len(self.views)))

    @property
    def n_samples(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def view_dims(self):
        return tuple(v.shape[1] for v in self.views)

    def subset(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        return MultiViewDataset(
            [v[indices] for v in self.views],
            self.labels[indices],
            self.n_classes,
            self.view_names,
        )


# ---------------------------------------------------------------------------
# synthetic generation


def synthesize(
    n_classes,
    n_views,
    n_samples,
    view_dims,
    separation=2.5,
    nuisance_ratio=0.3,
    seed=0,
):
    """Latent class-conditional Gaussian mapped linearly into each view.

    Class centers sit on a sphere of radius ``separation`` in the latent
    space; each view applies its own random linear map plus offset, and a
    ``nuisance_ratio`` fraction of each view's columns is replaced by pure
    standard-normal noise.  Pass a per-view sequence to give views unequal
    quality.  Labels are balanced within one sample per class.
    """
    if n_classes < 2 or n_views < 1 or n_samples < n_classes:
        raise ContractError("synthesize: need q >= 2, v >= 1 and n >= q")
    view_dims = tuple(int(d) for d in view_dims)
    if len(view_dims) != n_views or any(d < 1 for d in view_dims):
        raise ContractError(f"synthesize: need {n_views} positive view dims, got {view_dims}")
    if np.isscalar(nuisance_ratio):
        nuisance_ratio = (float(nuisance_ratio),) * n_views
    nuisance_ratio = tuple(float(r) for r in nuisance_ratio)
    if len(nuisance_ratio) != n_views or any(not 0.0 <= r < 1.0 for r in nuisance_ratio):
        raise ContractError("synthesize: nuisance ratios must lie in [0, 1), one per view")
    rng = np.random.default_rng(seed)

    centers = rng.normal(size=(n_classes, LATENT_DIM))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    latent = centers[labels] + rng.normal(size=(n_samples, LATENT_DIM))

    views = []
    for dim, ratio in zip(view_dims, nuisance_ratio):
        mix = rng.normal(size=(LATENT_DIM, dim)) / np.sqrt(LATENT_DIM)
        offset = rng.normal(size=dim)
        x = latent @ mix + offset
        n_nuisance = min(dim - 1, int(round(ratio * dim)))
        if n_nuisance > 0:
            cols = rng.choice(dim, size=n_nuisance, replace=False)
            x[:, cols] = rng.normal(size=(n_samples, n_nuisance))
        views.append(x)
    return MultiViewDataset(views, labels, n_classes)


# ---------------------------------------------------------------------------
# splitting and standardization


def split(ds: MultiViewDataset, train_fraction, seed):
    """Stratified, disjoint, exhaustive train/test split, seeded."""
    if not 0.0 < train_fraction < 1.0:
        raise ContractError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == cls)
        if members.size == 0:
            continue
        perm = rng.permutation(members)
        k = int(round(train_fraction * members.size))
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    for side, idx in (("train", train_idx), ("test", test_idx)):
        if idx.size == 0:
            raise ContractError(
                f"train_fraction {train_fraction} of {ds.n_samples} rows leaves the {side} "
                "split empty"
            )
    return ds.subset(train_idx), ds.subset(test_idx)


@dataclass(frozen=True)
class StandardStats:
    """Train-set per-view, per-feature moments; zero-variance columns map to 0."""

    means: tuple
    stds: tuple

    def apply(self, ds: MultiViewDataset) -> MultiViewDataset:
        if len(self.means) != ds.n_views:
            raise ContractError("standardization stats cover a different view count")
        views = []
        for x, mu, sd in zip(ds.views, self.means, self.stds):
            safe = np.where(sd > 0.0, sd, 1.0)
            z = (x - mu) / safe
            z[:, sd == 0.0] = 0.0
            views.append(z)
        return MultiViewDataset(views, ds.labels, ds.n_classes, ds.view_names)

    def to_jsonable(self):
        return {
            "means": [m.tolist() for m in self.means],
            "stds": [s.tolist() for s in self.stds],
        }

    @classmethod
    def from_jsonable(cls, payload):
        return cls(
            tuple(np.asarray(m, dtype=np.float64) for m in payload["means"]),
            tuple(np.asarray(s, dtype=np.float64) for s in payload["stds"]),
        )


def standardize(train: MultiViewDataset, test: MultiViewDataset):
    """Z-score both sets with train statistics only."""
    stats = StandardStats(
        tuple(v.mean(axis=0) for v in train.views),
        tuple(v.std(axis=0) for v in train.views),
    )
    return stats.apply(train), stats.apply(test), stats


# ---------------------------------------------------------------------------
# corruption harnesses


@dataclass(frozen=True)
class CorruptionSpec:
    """What to corrupt: Gaussian noise or cross-class view misalignment.

    ``views`` restricts which views may be hit; by default noise strikes a
    random half of the views (rounded up) per selected instance and
    misalignment one uniformly chosen view.
    """

    kind: str
    fraction: float
    sigma: float | None = None
    views: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian_noise", "view_misalign"):
            raise ContractError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ContractError("corruption fraction must lie in [0, 1]")
        if self.kind == "gaussian_noise" and (self.sigma is None or self.sigma <= 0.0):
            raise ContractError("gaussian_noise needs sigma > 0")
        if self.views is not None:
            object.__setattr__(self, "views", tuple(int(i) for i in self.views))
            repeated = sorted({i for i in self.views if self.views.count(i) > 1})
            if repeated:
                raise ContractError(
                    f"corruption views {self.views} repeat index {', '.join(map(str, repeated))}"
                )


@dataclass(frozen=True)
class CorruptionMask:
    """Boolean (instance, view) corruption indicator."""

    hit: np.ndarray

    @property
    def instances(self):
        return self.hit.any(axis=1)

    @property
    def count(self):
        return int(self.instances.sum())

    def to_indices(self):
        return [(int(j), int(i)) for j, i in zip(*np.nonzero(self.hit))]


def _selected_instances(rng, n, fraction):
    count = int(round(fraction * n))
    if count == 0:
        return np.array([], dtype=np.int64)
    return np.sort(rng.choice(n, size=count, replace=False))


def _check_view_indices(spec: CorruptionSpec, n_views):
    for i in spec.views or ():
        if not 0 <= i < n_views:
            raise ContractError(
                f"corruption view index {i} outside [0, {n_views}): dataset has {n_views} views"
            )


def inject_noise(ds: MultiViewDataset, spec: CorruptionSpec):
    """Add N(0, sigma^2) to the designated views of selected instances.

    Noise is drawn as sigma times a standard normal, so sweeps that reuse
    one seed across sigma values corrupt identical instances, views, and
    directions, differing only in scale.
    """
    if spec.kind != "gaussian_noise":
        raise ContractError("inject_noise expects a gaussian_noise spec")
    _check_view_indices(spec, ds.n_views)
    rng = np.random.default_rng(spec.seed)
    n, v = ds.n_samples, ds.n_views
    views = [x.copy() for x in ds.views]
    hit = np.zeros((n, v), dtype=bool)
    half = (v + 1) // 2
    for j in _selected_instances(rng, n, spec.fraction):
        if spec.views is not None:
            targets = np.asarray(spec.views, dtype=np.int64)
        else:
            targets = np.sort(rng.choice(v, size=half, replace=False))
        for i in targets:
            views[i][j] += spec.sigma * rng.standard_normal(views[i].shape[1])
            hit[j, i] = True
    out = MultiViewDataset(views, ds.labels.copy(), ds.n_classes, ds.view_names)
    return out, CorruptionMask(hit)


def inject_conflict(ds: MultiViewDataset, spec: CorruptionSpec):
    """Replace one view of selected instances with the same view's features
    from a donor of a different class, misaligning that view's label."""
    if spec.kind != "view_misalign":
        raise ContractError("inject_conflict expects a view_misalign spec")
    _check_view_indices(spec, ds.n_views)
    if np.unique(ds.labels).size < 2:
        raise DataError("cannot misalign views in a single-class dataset")
    rng = np.random.default_rng(spec.seed)
    n, v = ds.n_samples, ds.n_views
    views = [x.copy() for x in ds.views]
    hit = np.zeros((n, v), dtype=bool)
    for j in _selected_instances(rng, n, spec.fraction):
        if spec.views is not None:
            i = int(rng.choice(np.asarray(spec.views, dtype=np.int64)))
        else:
            i = int(rng.integers(v))
        donors = np.flatnonzero(ds.labels != ds.labels[j])
        donor = int(rng.choice(donors))
        views[i][j] = ds.views[i][donor]
        hit[j, i] = True
    out = MultiViewDataset(views, ds.labels.copy(), ds.n_classes, ds.view_names)
    return out, CorruptionMask(hit)


# ---------------------------------------------------------------------------
# manifest io

# Manifest schema (JSON): {"format": MANIFEST_FORMAT, "n_classes": int,
#   "views": [{"name": str, "path": str}, ...], "labels": str}
# View files hold one whitespace-separated float row per sample; the label
# file one integer per line.  Paths are relative to the manifest.


def save_dataset(ds: MultiViewDataset, out_dir):
    """Write view matrices, labels, and the manifest; returns the manifest path."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, x in zip(ds.view_names, ds.views):
        path = f"{name}.tsv"
        np.savetxt(out / path, x, fmt="%.17g", delimiter="\t")
        entries.append({"name": name, "path": path})
    np.savetxt(out / "labels.tsv", ds.labels, fmt="%d")
    manifest = {
        "format": MANIFEST_FORMAT,
        "n_classes": int(ds.n_classes),
        "views": entries,
        "labels": "labels.tsv",
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _read_matrix(path):
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split()
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable cell ({exc})") from None
    if not rows:
        raise DataError(f"{path}: file holds no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_labels(path, n_classes):
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise DataError(f"{path}:{lineno}: label is not an integer: {line!r}") from None
            if not 0 <= value < n_classes:
                raise DataError(f"{path}:{lineno}: label {value} outside [0, {n_classes})")
            labels.append(value)
    if not labels:
        raise DataError(f"{path}: label file is empty")
    return np.asarray(labels, dtype=np.int64)


def load_dataset(manifest_path) -> MultiViewDataset:
    """Load and validate a dataset from its manifest."""
    from pathlib import Path

    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: invalid JSON ({exc})") from None
    for key in ("n_classes", "views", "labels"):
        if key not in manifest:
            raise DataError(f"{manifest_path}: manifest is missing key {key!r}")
    base = manifest_path.parent
    views = []
    names = []
    for index, entry in enumerate(manifest["views"]):
        if not isinstance(entry, dict) or "path" not in entry:
            raise DataError(f"{manifest_path}: view entry {index} has no 'path'")
        path = base / entry["path"]
        if not path.exists():
            raise DataError(f"{manifest_path}: view file not found: {path}")
        views.append(_read_matrix(path))
        names.append(entry.get("name", path.stem))
    labels_path = base / manifest["labels"]
    if not labels_path.exists():
        raise DataError(f"{manifest_path}: label file not found: {labels_path}")
    labels = _read_labels(labels_path, int(manifest["n_classes"]))
    counts = {str(p): v.shape[0] for p, v in zip(names, views)}
    counts["labels"] = labels.size
    if len(set(counts.values())) > 1:
        raise DataError(f"row counts disagree across files: {counts}")
    try:
        return MultiViewDataset(views, labels, int(manifest["n_classes"]), tuple(names))
    except ContractError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
