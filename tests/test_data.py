"""Dataset generation, splitting, standardization, corruption, manifest IO."""

import json
import re

import numpy as np
import pytest

import oracles
from mvtrust.cli import main as cli_main
from mvtrust.data import (
    CorruptionSpec,
    MultiViewDataset,
    StandardStats,
    inject_conflict,
    inject_noise,
    load_dataset,
    save_dataset,
    split,
    standardize,
    synthesize,
)
from mvtrust.errors import ContractError, DataError


class TestSynthesize:
    def test_bit_identical_per_seed(self):
        a = synthesize(4, 3, 50, (4, 5, 6), seed=9)
        b = synthesize(4, 3, 50, (4, 5, 6), seed=9)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shape_contract(self):
        ds = synthesize(4, 3, 1000, (20, 30, 25), seed=0)
        assert ds.n_views == 3 and ds.n_samples == 1000
        assert ds.view_dims == (20, 30, 25)

    def test_labels_balanced_within_one(self):
        ds = synthesize(4, 2, 1001, (3, 3), seed=1)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_huge_separation_is_linearly_separable(self):
        ds = synthesize(3, 1, 300, (12,), separation=1e6, nuisance_ratio=0.2, seed=2)
        x, y = ds.views[0], ds.labels
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(
            ((x[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
        )
        assert np.mean(pred == y) == 1.0

    def test_per_view_nuisance(self):
        ds = synthesize(2, 2, 40, (10, 10), nuisance_ratio=(0.0, 0.5), seed=3)
        assert ds.n_views == 2

    def test_invalid_sizes(self):
        with pytest.raises(ContractError, match=re.escape("view_dims: must be a list of 2 items")):
            synthesize(2, 2, 10, (3,))
        with pytest.raises(ContractError, match="n_samples 1 is below n_classes 2"):
            synthesize(2, 2, 1, (3, 3))
        with pytest.raises(ContractError):
            synthesize(2, 2, 10, (3, 3), nuisance_ratio=1.0)


class TestSplit:
    def test_eighty_twenty(self):
        ds = synthesize(4, 2, 1000, (3, 3), seed=0)
        train, test = split(ds, 0.8, seed=5)
        assert train.n_samples == 800 and test.n_samples == 200

    def test_disjoint_exhaustive(self):
        ds = synthesize(3, 1, 101, (4,), seed=0)
        ds_tagged = MultiViewDataset(
            [np.arange(101, dtype=float).reshape(-1, 1) * np.ones((1, 4))],
            ds.labels, 3,
        )
        train, test = split(ds_tagged, 0.7, seed=1)
        ids = np.concatenate([train.views[0][:, 0], test.views[0][:, 0]])
        assert sorted(ids.tolist()) == list(range(101))

    def test_stratified_within_one(self):
        ds = synthesize(4, 1, 997, (4,), seed=0)
        train, _ = split(ds, 0.8, seed=2)
        for cls in range(4):
            total = int((ds.labels == cls).sum())
            got = int((train.labels == cls).sum())
            assert abs(got - round(0.8 * total)) <= 1

    def test_fraction_bounds(self):
        ds = synthesize(2, 1, 20, (3,), seed=0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                split(ds, bad, seed=0)

    @pytest.mark.parametrize("fraction, side", [(0.99, "test"), (0.01, "train")])
    def test_empty_side_named(self, fraction, side):
        ds = synthesize(2, 2, 30, (3, 4), seed=1)
        with pytest.raises(ContractError, match=rf"{fraction} of 30 rows leaves the {side} split"):
            split(ds, fraction, seed=0)

    def test_class_with_no_rows_is_skipped(self):
        ds = synthesize(2, 1, 20, (3,), seed=0)
        three_classes = MultiViewDataset(ds.views, ds.labels, 3)
        train, test = split(three_classes, 0.5, seed=0)
        assert train.n_samples == test.n_samples == 10
        assert set(train.labels) == set(test.labels) == {0, 1}

    def test_deterministic(self):
        ds = synthesize(3, 1, 100, (5,), seed=0)
        a = split(ds, 0.8, seed=9)[0]
        b = split(ds, 0.8, seed=9)[0]
        np.testing.assert_array_equal(a.views[0], b.views[0])


class TestStandardize:
    def test_train_moments(self):
        ds = synthesize(2, 2, 200, (6, 4), seed=4)
        train, test = split(ds, 0.75, seed=4)
        train_std, _, _ = standardize(train, test)
        for v in train_std.views:
            np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(v.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        train = MultiViewDataset([np.ones((10, 2))], np.arange(10) % 2, 2)
        test = MultiViewDataset([np.full((4, 2), 7.0)], np.arange(4) % 2, 2)
        train_std, test_std, _ = standardize(train, test)
        assert np.all(np.isfinite(train_std.views[0]))
        np.testing.assert_array_equal(train_std.views[0], 0.0)
        np.testing.assert_array_equal(test_std.views[0], 0.0)

    def test_test_uses_train_statistics(self):
        train = MultiViewDataset([np.zeros((6, 1)) + 2.0 * (np.arange(6) % 2)[:, None]],
                                 np.arange(6) % 2, 2)
        test = MultiViewDataset([np.full((3, 1), 100.0)], np.arange(3) % 2, 2)
        _, test_std, stats = standardize(train, test)
        np.testing.assert_allclose(test_std.views[0], (100.0 - 1.0) / 1.0, atol=1e-12)

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p["means"].pop(), "means: must be a list of 2 items, each a list"),
        (lambda p: p["stds"][0].pop(),
         "stds[0]: must be a list of 2 items, each a finite number >= 0, got [1.0]"),
        (lambda p: p["means"][1].__setitem__(0, float("nan")),
         "means[1][0]: must be a finite number, got nan"),
        (lambda p: p["means"][1].__setitem__(0, True),
         "means[1][0]: must be a finite number, got True"),
        (lambda p: p["stds"][1].__setitem__(2, -0.5),
         "stds[1][2]: must be a finite number >= 0, got -0.5"),
    ], ids=["view-count", "width", "nan", "bool", "negative-std"])
    def test_bad_stats_named(self, edit, named):
        payload = {"means": [[0.0, 1.0], [0.0, 1.0, 2.0]], "stds": [[1.0, 1.0], [1.0, 0.0, 1.0]]}
        StandardStats.from_jsonable(payload, (2, 3))
        edit(payload)
        with pytest.raises(ContractError, match=re.escape(named)):
            StandardStats.from_jsonable(payload, (2, 3))

    def test_apply_checks_view_widths(self):
        # a 1-column view would broadcast against 3-column stats
        stats = StandardStats((np.zeros(3),), (np.ones(3),))
        with pytest.raises(ContractError, match=r"widths \(3,\), the data has \(1,\)"):
            stats.apply(MultiViewDataset([np.ones((4, 1))], np.arange(4) % 2, 2))


class TestInjectNoise:
    def test_zero_fraction_is_identity(self):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        out, mask = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.0, sigma=1.0, seed=1))
        for a, b in zip(ds.views, out.views):
            np.testing.assert_array_equal(a, b)
        assert mask.any(axis=1).sum() == 0

    def test_mask_cardinality(self):
        ds = synthesize(2, 3, 40, (4, 4, 4), seed=6)
        _, mask = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.25, sigma=1.0, seed=1))
        assert mask.dtype == bool and mask.shape == (40, 3)
        assert mask.any(axis=1).sum() == 10

    def test_originals_untouched(self):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        before = [v.copy() for v in ds.views]
        inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=9.0, seed=1))
        for a, b in zip(ds.views, before):
            np.testing.assert_array_equal(a, b)

    def test_huge_sigma_dominates(self):
        ds = synthesize(2, 2, 100, (8, 8), seed=6)
        train, test = split(ds, 0.5, seed=0)
        train_std, test_std, _ = standardize(train, test)
        out, mask = inject_noise(
            test_std, CorruptionSpec("gaussian_noise", 1.0, sigma=1e8, seed=2)
        )
        signal_power = float(np.mean(test_std.views[0] ** 2))
        corrupted_rows = out.views[0][mask[:, 0]]
        noise_power = float(np.mean(corrupted_rows**2))
        assert signal_power / noise_power < 1e-4

    def test_sigma_scales_identical_directions(self):
        # same seed, different sigma: identical instances/views, scaled noise
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        a, mask_a = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, seed=4))
        b, mask_b = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=2.0, seed=4))
        np.testing.assert_array_equal(mask_a, mask_b)
        np.testing.assert_allclose(
            (b.views[0] - ds.views[0]), 2.0 * (a.views[0] - ds.views[0]), atol=1e-12
        )

    def test_explicit_views_policy(self):
        ds = synthesize(2, 3, 20, (4, 4, 4), seed=6)
        _, mask = inject_noise(
            ds, CorruptionSpec("gaussian_noise", 1.0, sigma=1.0, views=(2,), seed=1)
        )
        assert mask[:, 2].all() and not mask[:, :2].any()

    @pytest.mark.parametrize("view, named", [
        (3, "index 3 outside [0, 3)"),
        (-1, "corrupt_views[1]: must be an integer >= 0, got -1"),
    ], ids=["3", "-1"])
    def test_view_index_out_of_range_named(self, view, named):
        ds = synthesize(2, 3, 20, (4, 4, 4), seed=6)
        with pytest.raises(ContractError, match=re.escape(named)):
            inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, views=(0, view),
                                            seed=1))

    def test_repeated_view_index_named(self):
        with pytest.raises(ContractError, match=r"\(1, 0, 1\) repeat index 1"):
            CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, views=(1, 0, 1), seed=1)

    @pytest.mark.parametrize("harness, kind", [
        (inject_noise, "view_misalign"),
        (inject_conflict, "gaussian_noise"),
    ])
    def test_harness_refuses_the_other_kind(self, harness, kind):
        ds = synthesize(2, 2, 20, (4, 4), seed=6)
        expects = {"view_misalign": "gaussian_noise", "gaussian_noise": "view_misalign"}[kind]
        with pytest.raises(ContractError, match=f"expected a {expects} spec, got a {kind} spec"):
            harness(ds, CorruptionSpec(kind, 0.5, sigma=1.0, seed=1))

    @pytest.mark.parametrize("kind", ["gaussian_noise", "view_misalign"])
    def test_empty_views_named(self, kind):
        named = "corrupt_views: must be a list of one or more items, each an integer >= 0"
        with pytest.raises(ContractError, match=re.escape(f"{named}, got ()")):
            CorruptionSpec(kind, 0.5, sigma=1.0, views=(), seed=1)

    def test_spec_validation(self):
        with pytest.raises(ContractError, match="unknown corruption kind 'saturation'"):
            CorruptionSpec("saturation", 0.5)


def _assert_same_corruption(got, want):
    """``got`` (dataset, mask) holds the views and mask of ``want``, cell for cell."""
    (got_ds, got_mask), (want_views, want_mask) = got, want
    assert got_mask.dtype == bool and got_mask.shape == want_mask.shape
    cells = np.argwhere(got_mask != want_mask)
    if cells.size:
        (j, i) = cells[0]
        pytest.fail(f"mask cell ({j}, {i}) is {got_mask[j, i]}, the per-row loop's "
                    f"{want_mask[j, i]}")
    for i, (x, y) in enumerate(zip(got_ds.views, want_views)):
        cells = np.argwhere(x.view(np.uint64) != y.view(np.uint64))
        if cells.size:
            (j, c) = cells[0]
            pytest.fail(f"view {i}, row {j}, column {c} is {float(x[j, c])!r}, the per-row "
                        f"loop's {float(y[j, c])!r}")


class TestBulkCorruption:
    """The harness against ``oracles.per_row_corrupt``, the per-row loop it replaced."""

    @pytest.mark.parametrize("n_views, fraction, views, seed", [
        (3, 0.0, None, 1), (3, 1.0, None, 1), (3, 0.5, (2, 0), 1), (3, 1.0, (1,), 2),
        (1, 0.5, None, 3), (1, 1.0, None, 3), (2, 0.5, None, 0), (2, 0.5, None, 1),
        (4, 0.5, None, 2), (4, 0.3, None, 3), (4, 0.5, (3, 1, 0), 4),
    ], ids=["fraction-0", "fraction-1", "views-2-0", "views-1", "one-view", "one-view-all",
            "seed-0", "seed-1", "seed-2", "seed-3", "seed-4"])
    def test_noise_matches_the_per_row_loop(self, n_views, fraction, views, seed):
        ds = synthesize(2, n_views, 41, (3, 5, 4, 6)[:n_views], seed=6)
        spec = CorruptionSpec("gaussian_noise", fraction, sigma=10.0, views=views, seed=seed)
        _assert_same_corruption(inject_noise(ds, spec), oracles.per_row_corrupt(ds, spec))

    @pytest.mark.parametrize("views, seed", [(None, 0), (None, 5), ((1,), 1), ((2, 0), 2)],
                             ids=["random-view-0", "random-view-5", "view-1", "views-2-0"])
    def test_misalignment_matches_the_per_row_loop(self, views, seed):
        ds = synthesize(3, 3, 41, (3, 5, 4), seed=6)
        spec = CorruptionSpec("view_misalign", 0.5, views=views, seed=seed)
        _assert_same_corruption(inject_conflict(ds, spec), oracles.per_row_corrupt(ds, spec))

    def test_overflowing_noise_named_by_the_dataset_check(self):
        # noise overflows to inf; the copy is checked only once all of it is in
        ds = synthesize(2, 3, 20, (4, 4, 4), seed=6)
        spec = CorruptionSpec("gaussian_noise", 0.5, sigma=1e308, seed=1)
        with np.errstate(over="ignore"):
            views, _ = oracles.per_row_corrupt(ds, spec)
            i = next(i for i, x in enumerate(views) if not np.isfinite(x).all())
            row = np.flatnonzero(~np.isfinite(views[i]).all(axis=1))[0]
            with pytest.raises(DataError,
                               match=f"^view {i} has a non-finite feature in row {row}$"):
                inject_noise(ds, spec)


class TestInjectConflict:
    def test_zero_fraction_is_identity(self):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        out, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 0.0, seed=1))
        for a, b in zip(ds.views, out.views):
            np.testing.assert_array_equal(a, b)
        assert mask.any(axis=1).sum() == 0

    def test_exactly_one_view_per_instance(self):
        ds = synthesize(3, 3, 50, (4, 4, 4), seed=6)
        _, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 0.4, seed=1))
        per_instance = mask.sum(axis=1)
        assert set(per_instance[mask.any(axis=1)]) == {1}
        assert mask.any(axis=1).sum() == 20

    def test_donor_is_different_class(self):
        ds = synthesize(3, 2, 60, (5, 5), seed=6)
        out, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 1.0, seed=2))
        for j, i in np.argwhere(mask):
            row = out.views[i][j]
            donors = np.where((ds.views[i] == row).all(axis=1))[0]
            assert len(donors) >= 1
            assert all(ds.labels[d] != ds.labels[j] for d in donors)

    def test_single_class_rejected(self):
        ds = MultiViewDataset([np.random.default_rng(0).normal(size=(10, 3))],
                              np.zeros(10, dtype=int), 2)
        with pytest.raises(DataError):
            inject_conflict(ds, CorruptionSpec("view_misalign", 0.5, seed=1))

    @pytest.mark.parametrize("view, named", [
        (2, "index 2 outside [0, 2)"),
        (-1, "corrupt_views[0]: must be an integer >= 0, got -1"),
    ], ids=["2", "-1"])
    def test_view_index_out_of_range_named(self, view, named):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        with pytest.raises(ContractError, match=re.escape(named)):
            inject_conflict(ds, CorruptionSpec("view_misalign", 0.5, views=(view,), seed=1))


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        ds = synthesize(3, 2, 25, (4, 6), seed=8)
        manifest = save_dataset(ds, tmp_path / "toy")
        loaded = load_dataset(manifest)
        assert loaded.n_views == 2 and loaded.n_samples == 25
        for a, b in zip(ds.views, loaded.views):
            np.testing.assert_allclose(a, b, rtol=0, atol=0)
        np.testing.assert_array_equal(ds.labels, loaded.labels)

    def test_row_count_mismatch_names_counts(self, tmp_path):
        ds = synthesize(2, 2, 8, (3, 3), seed=8)
        manifest = save_dataset(ds, tmp_path / "toy")
        labels_file = tmp_path / "toy" / "labels.tsv"
        labels_file.write_text("".join(f"{i % 2}\n" for i in range(9)))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: row counts disagree")):
            load_dataset(manifest)

    def test_unparseable_cell_names_file_and_line(self, tmp_path):
        ds = synthesize(2, 1, 5, (3,), seed=8)
        manifest = save_dataset(ds, tmp_path / "toy")
        view_file = tmp_path / "toy" / "view0.tsv"
        lines = view_file.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split("\t")[0], "not-a-number", 1)
        view_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"view0\.tsv:3"):
            load_dataset(manifest)

    def test_label_out_of_range_names_line(self, tmp_path):
        ds = synthesize(2, 1, 5, (3,), seed=8)
        manifest = save_dataset(ds, tmp_path / "toy")
        (tmp_path / "toy" / "labels.tsv").write_text("0\n1\n5\n0\n1\n")
        with pytest.raises(DataError, match=r"labels\.tsv:3"):
            load_dataset(manifest)

    def test_empty_label_file(self, tmp_path):
        ds = synthesize(2, 1, 5, (3,), seed=8)
        manifest = save_dataset(ds, tmp_path / "toy")
        (tmp_path / "toy" / "labels.tsv").write_text("")
        with pytest.raises(DataError, match="empty"):
            load_dataset(manifest)

    def test_nan_cell_names_view_file_and_line(self, tmp_path):
        manifest = save_dataset(synthesize(2, 1, 5, (3,), seed=8), tmp_path / "toy")
        view_file = tmp_path / "toy" / "view0.tsv"
        lines = view_file.read_text().splitlines()
        lines[3] = "\t".join(["nan"] + lines[3].split("\t")[1:])
        view_file.write_text("\n".join(lines) + "\n")
        named = f"{view_file}:4: cell 'nan' is not a finite number"
        with pytest.raises(DataError, match=re.escape(named)):
            load_dataset(manifest)

    def test_view_entry_without_path_named(self, tmp_path):
        manifest = save_dataset(synthesize(2, 2, 5, (3, 3), seed=8), tmp_path / "toy")
        payload = json.loads(manifest.read_text())
        del payload["views"][1]["path"]
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"manifest\.json: views\[1\]: path: missing"):
            load_dataset(manifest)

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m.update(labels=5), "labels: must be a string, got 5"),
        (lambda m: m["views"][0].update(path=3), "views[0]: path: must be a string, got 3"),
        (lambda m: m.update(views=5),
         "views: must be a list of one or more items, each a JSON object, got 5"),
        (lambda m: m.pop("format"), "format: missing"),
        (lambda m: m.update(format="other/1"),
         "format: must be 'mvtrust-dataset/1', got 'other/1'"),
    ], ids=["labels-int", "path-int", "views-int", "no-format", "wrong-format"])
    def test_bad_manifest_value_named(self, edit, named, tmp_path, capsys):
        manifest = save_dataset(synthesize(2, 1, 5, (3,), seed=8), tmp_path / "toy")
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: {named}")):
            load_dataset(manifest)
        assert cli_main(["train", "--data", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["view0.tsv", "labels.tsv"])
    def test_file_that_is_not_utf8_named(self, name, tmp_path, capsys):
        manifest = save_dataset(synthesize(2, 1, 5, (3,), seed=8), tmp_path / "toy")
        (tmp_path / "toy" / name).write_bytes(b"0\n\xff\xfe\n")
        named = f"{tmp_path / 'toy' / name}: file is not UTF-8 text"
        with pytest.raises(DataError, match=re.escape(named)):
            load_dataset(manifest)
        assert cli_main(["train", "--data", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("names, named", [
        ((5, "b"), "views[0]: name: must be a string, got 5"),
        (("view0", "view0"),
         "views[1]: name: must differ from each earlier view's, got 'view0'"),
    ], ids=["not-str", "repeated"])
    def test_bad_view_name_named(self, names, named, tmp_path, capsys):
        manifest = save_dataset(synthesize(2, 2, 5, (3, 2), seed=8), tmp_path / "toy")
        payload = json.loads(manifest.read_text())
        for entry, name in zip(payload["views"], names):
            entry["name"] = name
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: {named}")):
            load_dataset(manifest)
        assert cli_main(["train", "--data", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("names", [("labels", "b"), ("labels", "../b")])
    def test_view_names_never_pick_file_names(self, names, tmp_path):
        ds = synthesize(2, 2, 6, (2, 3), seed=8)
        ds = MultiViewDataset(ds.views, ds.labels, ds.n_classes, names)
        manifest = save_dataset(ds, tmp_path / "toy")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy"]
        assert sorted(p.name for p in (tmp_path / "toy").iterdir()) == [
            "labels.tsv", "manifest.json", "view0.tsv", "view1.tsv",
        ]
        loaded = load_dataset(manifest)
        assert loaded.view_names == names
        for a, b in zip(ds.views, loaded.views):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ds.labels, loaded.labels)

    def test_missing_manifest(self, tmp_path):
        missing = tmp_path / "nope" / "manifest.json"
        with pytest.raises(DataError, match=re.escape(f"{missing}: No such file or directory")):
            load_dataset(missing)

    @pytest.mark.parametrize("n_classes", ["abc", None, 2.5, 2.0, True, 1, -3],
                             ids=["str", "null", "fraction", "float", "bool", "one", "negative"])
    def test_bad_class_count_named(self, n_classes, tmp_path):
        manifest = save_dataset(synthesize(2, 1, 5, (3,), seed=8), tmp_path / "toy")
        payload = json.loads(manifest.read_text())
        payload["n_classes"] = n_classes
        manifest.write_text(json.dumps(payload))
        named = f"{manifest}: n_classes: must be an integer >= 2, got {n_classes!r}"
        with pytest.raises(DataError, match=re.escape(named)):
            load_dataset(manifest)


class TestDatasetValidation:
    def test_row_mismatch_across_views(self):
        with pytest.raises(ContractError):
            MultiViewDataset([np.ones((3, 2)), np.ones((4, 2))], np.zeros(3, int), 2)

    def test_label_range(self):
        with pytest.raises(ContractError):
            MultiViewDataset([np.ones((3, 2))], np.array([0, 1, 2]), 2)

    @pytest.mark.parametrize("views, labels, named", [
        ([], np.zeros(3, int), "dataset needs at least one view"),
        ([np.ones((3, 2)), np.ones(3)], np.zeros(3, int),
         "view 1 must be a 2-d matrix with >= 1 column"),
        ([np.ones((3, 2))], np.zeros(4, int), "labels must be one per sample: (4,) vs 3 rows"),
    ], ids=["no-views", "one-d-view", "label-count"])
    def test_malformed_dataset_named(self, views, labels, named):
        with pytest.raises(ContractError, match=f"^{re.escape(named)}$"):
            MultiViewDataset(views, labels, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_view_and_row(self, bad):
        second = np.ones((4, 2))
        second[2, 1] = bad
        with pytest.raises(DataError, match="view 1 .* row 2"):
            MultiViewDataset([np.ones((4, 3)), second], np.zeros(4, int), 2)
