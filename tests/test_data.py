"""Dataset generation, splitting, standardization, corruption, manifest IO."""

import json

import numpy as np
import pytest

from mvtrust.data import (
    CorruptionSpec,
    MultiViewDataset,
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
        with pytest.raises(ContractError):
            synthesize(1, 2, 10, (3, 3))
        with pytest.raises(ContractError):
            synthesize(2, 2, 10, (3,))
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


class TestInjectNoise:
    def test_zero_fraction_is_identity(self):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        out, mask = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.0, sigma=1.0, seed=1))
        for a, b in zip(ds.views, out.views):
            np.testing.assert_array_equal(a, b)
        assert mask.count == 0

    def test_mask_cardinality(self):
        ds = synthesize(2, 3, 40, (4, 4, 4), seed=6)
        _, mask = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.25, sigma=1.0, seed=1))
        assert mask.count == 10

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
        hit = mask.hit
        signal_power = float(np.mean(test_std.views[0] ** 2))
        corrupted_rows = out.views[0][hit[:, 0]]
        noise_power = float(np.mean(corrupted_rows**2))
        assert signal_power / noise_power < 1e-4

    def test_sigma_scales_identical_directions(self):
        # same seed, different sigma: identical instances/views, scaled noise
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        a, mask_a = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, seed=4))
        b, mask_b = inject_noise(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=2.0, seed=4))
        np.testing.assert_array_equal(mask_a.hit, mask_b.hit)
        np.testing.assert_allclose(
            (b.views[0] - ds.views[0]), 2.0 * (a.views[0] - ds.views[0]), atol=1e-12
        )

    def test_explicit_views_policy(self):
        ds = synthesize(2, 3, 20, (4, 4, 4), seed=6)
        _, mask = inject_noise(
            ds, CorruptionSpec("gaussian_noise", 1.0, sigma=1.0, views=(2,), seed=1)
        )
        assert mask.hit[:, 2].all() and not mask.hit[:, :2].any()

    @pytest.mark.parametrize("view", [3, -1])
    def test_view_index_out_of_range_named(self, view):
        ds = synthesize(2, 3, 20, (4, 4, 4), seed=6)
        spec = CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, views=(0, view), seed=1)
        with pytest.raises(ContractError, match=rf"index {view} outside \[0, 3\)"):
            inject_noise(ds, spec)

    def test_repeated_view_index_named(self):
        with pytest.raises(ContractError, match=r"\(1, 0, 1\) repeat index 1"):
            CorruptionSpec("gaussian_noise", 0.5, sigma=1.0, views=(1, 0, 1), seed=1)

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            CorruptionSpec("gaussian_noise", 0.5)  # sigma missing
        with pytest.raises(ContractError):
            CorruptionSpec("gaussian_noise", 1.5, sigma=1.0)
        with pytest.raises(ContractError):
            CorruptionSpec("saturation", 0.5)


class TestInjectConflict:
    def test_zero_fraction_is_identity(self):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        out, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 0.0, seed=1))
        for a, b in zip(ds.views, out.views):
            np.testing.assert_array_equal(a, b)
        assert mask.count == 0

    def test_exactly_one_view_per_instance(self):
        ds = synthesize(3, 3, 50, (4, 4, 4), seed=6)
        _, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 0.4, seed=1))
        per_instance = mask.hit.sum(axis=1)
        assert set(per_instance[mask.instances]) == {1}
        assert mask.count == 20

    def test_donor_is_different_class(self):
        ds = synthesize(3, 2, 60, (5, 5), seed=6)
        out, mask = inject_conflict(ds, CorruptionSpec("view_misalign", 1.0, seed=2))
        for j, i in mask.to_indices():
            row = out.views[i][j]
            donors = np.where((ds.views[i] == row).all(axis=1))[0]
            assert len(donors) >= 1
            assert all(ds.labels[d] != ds.labels[j] for d in donors)

    def test_single_class_rejected(self):
        ds = MultiViewDataset([np.random.default_rng(0).normal(size=(10, 3))],
                              np.zeros(10, dtype=int), 2)
        with pytest.raises(DataError):
            inject_conflict(ds, CorruptionSpec("view_misalign", 0.5, seed=1))

    @pytest.mark.parametrize("view", [2, -1])
    def test_view_index_out_of_range_named(self, view):
        ds = synthesize(2, 2, 30, (4, 4), seed=6)
        spec = CorruptionSpec("view_misalign", 0.5, views=(view,), seed=1)
        with pytest.raises(ContractError, match=rf"index {view} outside \[0, 2\)"):
            inject_conflict(ds, spec)


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
        with pytest.raises(DataError, match="row counts"):
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

    def test_nan_cell_rejected_with_manifest_path(self, tmp_path):
        manifest = save_dataset(synthesize(2, 1, 5, (3,), seed=8), tmp_path / "toy")
        view_file = tmp_path / "toy" / "view0.tsv"
        lines = view_file.read_text().splitlines()
        lines[3] = "\t".join(["nan"] + lines[3].split("\t")[1:])
        view_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"manifest\.json: view 0 .* row 3"):
            load_dataset(manifest)

    def test_view_entry_without_path_named(self, tmp_path):
        manifest = save_dataset(synthesize(2, 2, 5, (3, 3), seed=8), tmp_path / "toy")
        payload = json.loads(manifest.read_text())
        del payload["views"][1]["path"]
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"manifest\.json: view entry 1 has no 'path'"):
            load_dataset(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope" / "manifest.json")


class TestDatasetValidation:
    def test_row_mismatch_across_views(self):
        with pytest.raises(ContractError):
            MultiViewDataset([np.ones((3, 2)), np.ones((4, 2))], np.zeros(3, int), 2)

    def test_label_range(self):
        with pytest.raises(ContractError):
            MultiViewDataset([np.ones((3, 2))], np.array([0, 1, 2]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_view_and_row(self, bad):
        second = np.ones((4, 2))
        second[2, 1] = bad
        with pytest.raises(DataError, match="view 1 .* row 2"):
            MultiViewDataset([np.ones((4, 3)), second], np.zeros(4, int), 2)
