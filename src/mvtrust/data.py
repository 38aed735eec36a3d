"""Multi-view dataset handling.

Covers manifest-based loading of dense text matrices, synthetic dataset
generation around a class-conditional latent Gaussian, stratified
splitting, train-statistics standardization, and the two corruption
harnesses (additive Gaussian noise and cross-class view misalignment).
Each harness runs its own seeded loop over the hit rows, collecting each
view's hit rows and new values, and writes each view of a copy once.
Corruption never mutates its input; the returned mask fully describes the
delta.  Every seeded operation is bit-reproducible.  The noise harness
keeps its last seeded draw, which does not depend on sigma, so a sweep
over sigma at one seed draws once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .schema import MANIFEST_FORMAT, RULES, Rule, check, check_object, field, json_object, naming
from .schema import read_text

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
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biu":
            labels = labels.astype(np.float64)
            whole = (np.abs(labels) < 2.0**63) & (labels == np.round(labels))
            if not whole.all():
                raise ContractError(
                    f"labels must be whole numbers within int64, got {labels[~whole][0]}")
        self.labels = labels.astype(np.int64)
        if not self.views:
            raise ContractError("dataset needs at least one view")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2 or v.shape[1] < 1:
                raise ContractError(f"view {i} must be a 2-d matrix with >= 1 column")
            if v.shape[0] != n:
                raise ContractError(f"view {i} has {v.shape[0]} rows but view 0 has {n}")
            if not np.isfinite(v).all():
                row = np.flatnonzero(~np.isfinite(v).all(axis=1))[0]
                raise DataError(f"view {i} has a non-finite feature in row {row}")
        if self.labels.shape != (n,):
            raise ContractError(f"labels must be one per sample: {self.labels.shape} vs {n} rows")
        check("n_classes", self.n_classes)
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
        return MultiViewDataset([v[indices] for v in self.views], self.labels[indices],
                                self.n_classes, self.view_names)


# ---------------------------------------------------------------------------
# synthetic generation


def synthesize(n_classes, n_views, n_samples, view_dims, separation=2.5, nuisance_ratio=0.3,
               seed=0):
    """Latent class-conditional Gaussian mapped linearly into each view.

    Class centers sit on a sphere of radius ``separation`` in the latent
    space; each view applies its own random linear map plus offset, and a
    ``nuisance_ratio`` fraction of each view's columns is replaced by pure
    standard-normal noise.  Pass a per-view sequence to give views unequal
    quality.  Labels are balanced within one sample per class.
    """
    check("n_classes", n_classes)
    check("view_dims", view_dims, length=n_views)
    check("seed", seed)
    check("separation", separation)
    if n_samples < n_classes:
        raise ContractError(f"synthesize: n_samples {n_samples} is below n_classes {n_classes}")
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
    check("train_fraction", train_fraction)
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


_PER_VIEW = Rule(list, each=True)  # stats hold one list per view; RULES says what each holds


@dataclass(frozen=True)
class StandardStats:
    """Train-set per-view, per-feature moments; zero-variance columns map to 0."""

    means: tuple
    stds: tuple

    def apply(self, ds: MultiViewDataset) -> MultiViewDataset:
        widths = tuple(m.size for m in self.means)
        if widths != ds.view_dims:
            raise ContractError(f"standardization stats cover view widths {widths}, "
                                f"the data has {ds.view_dims}")
        views = []
        for x, mu, sd in zip(ds.views, self.means, self.stds):
            safe = np.where(sd > 0.0, sd, 1.0)
            z = (x - mu) / safe
            z[:, sd == 0.0] = 0.0
            views.append(z)
        return MultiViewDataset(views, ds.labels, ds.n_classes, ds.view_names)

    def to_jsonable(self):
        return {"means": [m.tolist() for m in self.means], "stds": [s.tolist() for s in self.stds]}

    @classmethod
    def from_jsonable(cls, payload, view_dims):
        """Stats from ``to_jsonable`` output, checked against the model's ``view_dims``."""
        moments = []
        for key in ("means", "stds"):
            rows = check(key, field(payload, key), _PER_VIEW, len(view_dims))
            moments.append(tuple(
                np.asarray(check(f"{key}[{i}]", row, RULES[key], dim), dtype=np.float64)
                for i, (row, dim) in enumerate(zip(rows, view_dims))
            ))
        return cls(*moments)


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
        check("fraction", self.fraction)
        if self.kind == "gaussian_noise":
            check("sigma", self.sigma)
        check("seed", self.seed)
        if self.views is not None:
            object.__setattr__(self, "views", tuple(map(int, check("corrupt_views", self.views))))
            repeated = sorted({i for i in self.views if self.views.count(i) > 1})
            if repeated:
                raise ContractError(
                    f"corruption views {self.views} repeat index {', '.join(map(str, repeated))}"
                )


def _check_spec(ds: MultiViewDataset, spec: CorruptionSpec, kind):
    """Refuse a spec of another kind, or one naming a view the dataset lacks."""
    if spec.kind != kind:
        raise ContractError(f"expected a {kind} spec, got a {spec.kind} spec")
    v = ds.n_views
    for i in spec.views or ():
        if i >= v:
            raise ContractError(f"corruption view index {i} outside [0, {v}): dataset has {v} views")


def _hit_rows(rng, fraction, n):
    """The rows both harnesses corrupt: one ``rng.choice``, ascending."""
    return np.sort(rng.choice(n, size=round(fraction * n), replace=False)).tolist()


def _stack(rows, values, view_dims):
    """Each view's hit rows and its values there, one row per hit, as
    read-only arrays; a view with no hit gets ``(0, d)`` values."""
    hits = []
    for r, z, d in zip(rows, values, view_dims):
        r, z = np.array(r, dtype=np.int64), np.array(z, dtype=np.float64).reshape(-1, d)
        r.setflags(write=False)
        z.setflags(write=False)
        hits.append((r, z))
    return tuple(hits)


def _write(ds: MultiViewDataset, rows, values):
    """The corrupted copy of ``ds`` and its (n, v) bool mask: each view of
    the copy gets its ``values`` at its hit ``rows`` in one write, and the
    copy is checked as a ``MultiViewDataset`` only once every write is in."""
    views = [x.copy() for x in ds.views]
    mask = np.zeros((ds.n_samples, ds.n_views), dtype=bool)
    for i, (r, z) in enumerate(zip(rows, values)):
        views[i][r] = z
        mask[r, i] = True
    return MultiViewDataset(views, ds.labels.copy(), ds.n_classes, ds.view_names), mask


@functools.lru_cache(maxsize=1)
def _unit_noise(seed, fraction, views, n, view_dims):
    """``inject_noise``'s seeded draws: per view, its hit rows and their
    standard normals.  Each hit row draws its views (unless ``views`` names
    them) and then one standard normal per target view, in order."""
    rng = np.random.default_rng(seed)
    n_views = len(view_dims)
    rows, draws = [[] for _ in view_dims], [[] for _ in view_dims]
    for j in _hit_rows(rng, fraction, n):
        targets = views
        if targets is None:
            targets = sorted(rng.choice(n_views, (n_views + 1) // 2, replace=False).tolist())
        for i in targets:
            rows[i].append(j)
            draws[i].append(rng.standard_normal(view_dims[i]))
    return _stack(rows, draws, view_dims)


def inject_noise(ds: MultiViewDataset, spec: CorruptionSpec):
    """Add N(0, sigma^2) to the designated views of selected instances.

    Noise is sigma times a standard normal, so sweeps that reuse one seed
    across sigma values corrupt identical instances, views, and directions,
    differing only in scale.  The draws depend only on the spec's seed,
    fraction and views and on the dataset's row count and view widths, not
    on sigma or on the values, so ``_unit_noise`` keeps the last of them:
    one entry of fraction * n * sum(view_dims) floats at most (1.5 MB at
    5,000 rows of three views 75 columns wide), held read-only.  Each view's
    noisy rows are ``x[rows] + z * sigma``, the same ``x + sigma * z`` per
    cell as a per-row write, made one view at a time.
    """
    _check_spec(ds, spec, "gaussian_noise")
    rows, unit = zip(*_unit_noise(spec.seed, spec.fraction, spec.views, ds.n_samples,
                                  ds.view_dims))
    return _write(ds, rows, (x[r] + z * spec.sigma for x, r, z in zip(ds.views, rows, unit)))


def inject_conflict(ds: MultiViewDataset, spec: CorruptionSpec):
    """Replace one view of selected instances with the same view's features
    from a donor of a different class, misaligning that view's label."""
    _check_spec(ds, spec, "view_misalign")
    if np.unique(ds.labels).size < 2:
        raise DataError("cannot misalign views in a single-class dataset")
    donors = [np.flatnonzero(ds.labels != c) for c in range(ds.n_classes)]
    rng = np.random.default_rng(spec.seed)
    rows, donated = [[] for _ in ds.views], [[] for _ in ds.views]
    for j in _hit_rows(rng, spec.fraction, ds.n_samples):
        i = int(rng.integers(ds.n_views) if spec.views is None else rng.choice(spec.views))
        rows[i].append(j)
        donated[i].append(ds.views[i][rng.choice(donors[ds.labels[j]])])
    return _write(ds, *zip(*_stack(rows, donated, ds.view_dims)))


# ---------------------------------------------------------------------------
# manifest io

# Manifest (JSON): {"format", "n_classes", "views": [{"name", "path"}, ...], "labels"},
# each key as schema.RULES says, with distinct view names.  A view file holds one
# whitespace-separated float row per sample, the label file one integer per line.
# Paths are relative to the manifest; save_dataset names view files by index.


def save_dataset(ds: MultiViewDataset, out_dir):
    """Write view matrices, labels, and the manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, (name, x) in enumerate(zip(ds.view_names, ds.views)):
        path = f"view{index}.tsv"
        np.savetxt(out / path, x, fmt="%.17g", delimiter="\t")
        entries.append({"name": name, "path": path})
    np.savetxt(out / "labels.tsv", ds.labels, fmt="%d")
    manifest = {"format": MANIFEST_FORMAT, "n_classes": int(ds.n_classes), "views": entries,
                "labels": "labels.tsv"}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _lines(path):
    """(line number, stripped line) of each non-blank line of the UTF-8 file ``path``."""
    with naming(path, error=DataError):
        text = read_text(path)
    return [(n, line.strip()) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]


def _read_matrix(path):
    rows = []
    for lineno, line in _lines(path):
        cells = line.split()
        width = len(rows[0]) if rows else len(cells)
        if len(cells) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable cell ({exc})") from None
        if not all(map(math.isfinite, rows[-1])):
            bad = next(c for c, x in zip(cells, rows[-1]) if not math.isfinite(x))
            raise DataError(f"{path}:{lineno}: cell {bad!r} is not a finite number")
    if not rows:
        raise DataError(f"{path}: file holds no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_labels(path, n_classes):
    labels = []
    for lineno, line in _lines(path):
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
    manifest_path = Path(manifest_path)
    with naming(manifest_path, error=DataError):
        manifest = json_object(read_text(manifest_path))
        check_object(manifest, ("format", "n_classes", "views", "labels"))
        names = []
        for index, entry in enumerate(manifest["views"]):
            with naming(f"views[{index}]"):
                check_object(entry, ("path", "name"), optional=("name",))
                name = entry.get("name", Path(entry["path"]).stem)
                if name in names:
                    raise ContractError(f"name: must differ from each earlier view's, got {name!r}")
            names.append(name)
    base = manifest_path.parent
    views = [_read_matrix(base / entry["path"]) for entry in manifest["views"]]
    labels = _read_labels(base / manifest["labels"], manifest["n_classes"])
    counts = {name: v.shape[0] for name, v in zip(names, views)}
    counts["labels"] = labels.size
    if len(set(counts.values())) > 1:
        raise DataError(f"{manifest_path}: row counts disagree across files: {counts}")
    return MultiViewDataset(views, labels, manifest["n_classes"], tuple(names))
