"""Training loop, evaluation reports, sweeps, ablation, CLI behavior."""

import dataclasses
import itertools
import json
import re
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_DATA
from mvtrust import losses as L
from mvtrust import pipeline, special
from mvtrust.aggregation import attend_batch
from mvtrust.autodiff import Tensor, backward
from mvtrust.cli import main as cli_main
from mvtrust.data import CorruptionSpec, inject_conflict, inject_noise, split, standardize
from mvtrust.data import save_dataset, synthesize
from mvtrust.errors import ContractError, TrainingDiverged
from mvtrust.networks import Model, ModelSpec
from mvtrust.pipeline import (
    TrainConfig,
    TrainedModel,
    ablate,
    apply_switch,
    evaluate,
    forward_pass,
    one_hot,
    run_experiment,
    run_noise_sweep,
    train,
    training_objective,
    write_eval_report,
)

SMOKE = TrainConfig(subspace_dim=8, disc_hidden=6, evidence_hidden=6, epochs=2,
                    anneal_epochs=5, seed=1)


@pytest.fixture()
def train_std(tiny_dataset):
    train_raw, test_raw = split(tiny_dataset, 0.5, seed=1)
    return standardize(train_raw, test_raw)[0]


@pytest.fixture()
def smoke_run(tiny_dataset):
    train_raw, test_raw = split(tiny_dataset, 0.5, seed=1)
    train_std, test_std, stats = standardize(train_raw, test_raw)
    model, log = train(train_std, SMOKE)
    return TrainedModel(model, SMOKE, stats), test_std, log


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(eta=0.1, epochs=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ContractError, match="unknown config"):
            TrainConfig.from_dict({"learning_rat": 0.1})

    def test_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(gamma=-1.0).validate()
        with pytest.raises(ContractError):
            TrainConfig(epochs=0).validate()

    def test_replace_is_validated(self):
        with pytest.raises(ContractError, match="epochs >= 1"):
            dataclasses.replace(TrainConfig(), epochs=0)

    @pytest.mark.parametrize("payload, named", [
        ([1, 2], "must be a JSON object, got list"),
        ({"epochs": "5"}, "'epochs' must be int, got '5'"),
        ({"epochs": 5.0}, "'epochs' must be int"),
        ({"gamma": True}, "'gamma' must be float, got True"),
        ({"bypass_h1": 1}, "'bypass_h1' must be bool"),
        ({"batch_size": 1.5}, "'batch_size' must be int | None"),
    ], ids=["list", "str-for-int", "float-for-int", "bool-for-float", "int-for-bool",
            "float-for-batch"])
    def test_value_types_checked_by_key(self, payload, named):
        with pytest.raises(ContractError, match=re.escape(named)):
            TrainConfig.from_dict(payload)

    def test_int_accepted_for_float_and_null_batch(self):
        cfg = TrainConfig.from_dict({"gamma": 2, "batch_size": None})
        assert cfg.gamma == 2 and cfg.batch_size is None

    def test_hash_tracks_content(self):
        assert TrainConfig().config_hash() != TrainConfig(seed=1).config_hash()
        assert TrainConfig().config_hash() == TrainConfig().config_hash()


class TestTrain:
    def test_smoke_two_epochs(self, smoke_run):
        _, _, log = smoke_run
        assert len(log) == 2
        assert all(row.finite() for row in log)

    def test_log_rows_resum(self, smoke_run):
        _, _, log = smoke_run
        for row in log:
            assert abs(row.resum(SMOKE.delta, SMOKE.eta) - row.overall) < 1e-9

    def test_bit_identical_reruns(self, train_std):
        params = []
        for _ in range(2):
            model, _ = train(train_std, SMOKE)
            params.append({n: t.data.copy() for n, t in model.named_params()})
        for name in params[0]:
            np.testing.assert_array_equal(params[0][name], params[1][name])

    def test_minibatch_path(self, train_std):
        cfg = dataclasses.replace(SMOKE, batch_size=4)
        _, log = train(train_std, cfg)
        assert len(log) == 2 and all(row.finite() for row in log)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_term_dump(self, train_std):
        cfg = dataclasses.replace(SMOKE, learning_rate=1e12, epochs=30)
        with pytest.raises(TrainingDiverged) as excinfo:
            train(train_std, cfg)
        assert excinfo.value.terms  # names the non-finite terms

    def test_lambda_annealing_recorded(self, train_std):
        cfg = dataclasses.replace(SMOKE, epochs=6, anneal_epochs=4)
        _, log = train(train_std, cfg)
        assert [row.lambda_t for row in log] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]


class TestSupportGate:
    @pytest.fixture()
    def gated(self, tiny_dataset):
        train_raw, test_raw = split(tiny_dataset, 0.5, seed=1)
        train_std, test_std, stats = standardize(train_raw, test_raw)
        model, _ = train(train_std, SMOKE)
        return model, train_std, test_std, stats

    def test_identity_on_training_rows(self, gated):
        model, train_std, _, _ = gated
        assert np.all(model.support_gate(train_std.views) == 1.0)
        gated_bundle = forward_pass(model, train_std.views, SMOKE)
        model.support_radius = np.full(train_std.n_views, np.inf)
        open_bundle = forward_pass(model, train_std.views, SMOKE)
        np.testing.assert_array_equal(
            gated_bundle.evidence_joint.data, open_bundle.evidence_joint.data
        )

    @pytest.mark.parametrize("view", [0, 1])
    def test_scaled_view_loses_certainty(self, gated, view):
        model, _, test_std, stats = gated
        trained = TrainedModel(model, SMOKE, stats)
        scaled = [x * 10.0 if i == view else x for i, x in enumerate(test_std.views)]
        loud = dataclasses.replace(test_std, views=scaled)
        clean_fused = forward_pass(model, test_std.views, SMOKE).evidence_fused[view].data
        loud_fused = forward_pass(model, loud.views, SMOKE).evidence_fused[view].data
        assert loud_fused.sum() < clean_fused.sum()
        clean_u = evaluate(trained, test_std).local_uncertainty[:, view]
        loud_u = evaluate(trained, loud).local_uncertainty[:, view]
        assert loud_u.mean() > clean_u.mean()

    @pytest.mark.filterwarnings("error")
    def test_constant_view_and_zero_rows(self, tiny_dataset):
        views = list(tiny_dataset.views)
        views[1] = np.full_like(views[1], 2.5)   # zero variance: standardizes to 0
        ds = dataclasses.replace(tiny_dataset, views=views)
        train_raw, test_raw = split(ds, 0.5, seed=1)
        train_std, test_std, stats = standardize(train_raw, test_raw)
        model, log = train(train_std, SMOKE)
        assert all(row.finite() for row in log)
        assert model.support_radius[1] == 0.0

        zero_row = [x.copy() for x in test_std.views]
        zero_row[0][0] = 0.0
        zero_row[1][1] = 1.0                     # off a zero-radius view
        kappa = model.support_gate(zero_row)
        assert np.all(np.isfinite(kappa))
        assert kappa[0, 0] == 1.0 and kappa[0, 1] == 1.0 and kappa[1, 1] == 0.0
        report = evaluate(
            TrainedModel(model, SMOKE, stats), dataclasses.replace(test_std, views=zero_row)
        )
        assert np.all(np.isfinite(report.joint_uncertainty))
        assert np.all(np.isfinite(report.local_uncertainty))


class TestEvaluate:
    def test_conflict_matrix_shape_and_diagonal(self, smoke_run):
        trained, test_std, _ = smoke_run
        report = evaluate(trained, test_std)
        matrix = report.conflict_matrix
        assert matrix.shape == (2, 2)
        np.testing.assert_array_equal(np.diag(matrix), 0.0)
        np.testing.assert_allclose(matrix, matrix.T, atol=0)

    def test_conflict_matrix_matches_per_row_oracle(self):
        train_raw, test_raw = split(synthesize(3, 3, 40, (4, 5, 6), seed=5), 0.5, seed=2)
        train_std, test_std, stats = standardize(train_raw, test_raw)
        trained = TrainedModel(train(train_std, SMOKE)[0], SMOKE, stats)
        spec = CorruptionSpec("view_misalign", 0.5, views=(0,), seed=4)
        corrupted, mask = inject_conflict(test_std, spec)
        matrix = evaluate(trained, corrupted, mask).conflict_matrix
        fused = [e.data for e in forward_pass(trained.model, corrupted.views, SMOKE).evidence_fused]
        for p, r in itertools.combinations(range(3), 2):
            rows = [oracles.naive_conflict(a + 1.0, b + 1.0) for a, b in zip(fused[p], fused[r])]
            assert abs(matrix[p, r] - np.mean(rows)) < 1e-12
        assert np.array_equal(matrix, matrix.T) and np.all(np.diag(matrix) == 0.0)

    def test_attend_batch_rejects_mismatched_lists(self):
        features = [Tensor(np.zeros((3, 8))) for _ in range(2)]
        eye = Tensor(np.eye(2))
        with pytest.raises(ContractError, match="attend_batch"):
            attend_batch(features, features[:1], eye, eye, eye)

    def test_repeated_evaluate_identical_and_pure(self, smoke_run):
        trained, test_std, _ = smoke_run
        before = {n: t.data.copy() for n, t in trained.model.named_params()}
        a = evaluate(trained, test_std)
        b = evaluate(trained, test_std)
        np.testing.assert_array_equal(a.joint_uncertainty, b.joint_uncertainty)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        for name, tensor in trained.model.named_params():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_all_vacuous_model_predicts_class_zero(self, smoke_run):
        trained, test_std, _ = smoke_run
        for head in [trained.model.evidence_common] + trained.model.evidence_specific:
            head.biases[1].data[:] = -1e6
        trained.model.w_value.data[:] = 0.0
        report = evaluate(trained, test_std)
        np.testing.assert_array_equal(report.predictions, 0)
        np.testing.assert_allclose(report.joint_uncertainty, 1.0, atol=1e-12)
        majority = np.mean(test_std.labels == 0)
        assert abs(report.accuracy - majority) < 1e-12

    def test_histogram_masses_sum_to_one(self, smoke_run):
        trained, test_std, _ = smoke_run
        corrupted, mask = inject_noise(
            test_std, CorruptionSpec("gaussian_noise", 0.5, sigma=2.0, seed=3)
        )
        report = evaluate(trained, corrupted, mask)
        rows = report.uncertainty_histograms()
        masses = {}
        for group, kind, _, _, mass in rows:
            masses[(group, kind)] = masses.get((group, kind), 0.0) + mass
        for total in masses.values():
            assert abs(total - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self, smoke_run, tiny_dataset):
        trained, _, _ = smoke_run
        other = synthesize(2, 2, 10, (9, 9), seed=0)
        with pytest.raises(ContractError):
            evaluate(trained, other)

    def test_class_count_mismatch_rejected(self, smoke_run):
        trained, _, _ = smoke_run
        other = synthesize(3, 2, 12, (5, 6), seed=0)
        with pytest.raises(ContractError, match="3 classes but the model has 2"):
            evaluate(trained, other)


def _fresh_model(ds):
    return Model(ModelSpec(view_dims=ds.view_dims, n_classes=2,
                           subspace_dim=8, disc_hidden=6, evidence_hidden=6, seed=1))


class TestObjective:
    def test_breakdown_identity_matches_graph(self, train_std):
        model = _fresh_model(train_std)
        bundle = forward_pass(model, train_std.views, SMOKE)
        y = one_hot(train_std.labels, 2)
        _, breakdown = training_objective(model, bundle, y, SMOKE, lambda_t=0.5)
        assert abs(breakdown.resum(SMOKE.delta, SMOKE.eta) - breakdown.overall) < 1e-9
        assert 0.0 < breakdown.adv <= 1.0

    def test_joint_is_mean_of_attended(self, train_std):
        bundle = forward_pass(_fresh_model(train_std), train_std.views, SMOKE)
        attended = [t.data for t in bundle.evidence_attended]
        np.testing.assert_allclose(
            bundle.evidence_joint.data, np.mean(attended, axis=0), atol=1e-12
        )


def _interior_nodes(root):
    """Nodes with parents reachable from ``root``, each counted once."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


class TestStepCost:
    def test_three_view_step_stays_small(self, monkeypatch):
        calls = Counter()

        def counted(name, raw):
            def wrapper(x):
                calls[name] += 1
                return raw(x)
            return wrapper

        for name in ("digamma", "trigamma", "lgamma"):
            monkeypatch.setattr(special, name, counted(name, getattr(special, name)))
        monkeypatch.setattr(L, "_lgamma_value", special.lgamma)
        ds = synthesize(3, 3, 40, (4, 5, 6), seed=5)
        model = Model(ModelSpec(view_dims=ds.view_dims, n_classes=3, subspace_dim=8,
                                disc_hidden=6, evidence_hidden=6, seed=1))
        bundle = forward_pass(model, ds.views, SMOKE)
        objective, _ = training_objective(model, bundle, one_hot(ds.labels, 3), SMOKE, 0.5)
        backward(objective)
        assert _interior_nodes(objective) <= 300
        assert sum(calls.values()) <= 40, calls


class TestSweepAndAblate:
    def test_empty_sigma_list(self, smoke_run):
        trained, test_std, _ = smoke_run
        assert run_noise_sweep(trained, test_std, [], 0.5, seed=0) == []

    def test_sigma_zero_equals_clean(self, smoke_run):
        trained, test_std, _ = smoke_run
        rows = run_noise_sweep(trained, test_std, [0.0], 0.5, seed=0)
        clean = evaluate(trained, test_std)
        assert rows[0].accuracy == clean.accuracy

    def test_ablate_baseline_only(self, tiny_dataset):
        rows = ablate(tiny_dataset, SMOKE)
        assert [r.variant for r in rows] == ["full"]
        assert rows[0].accuracy_delta == 0.0

    def test_ablate_all_switches_smoke(self, tiny_dataset):
        rows = ablate(
            tiny_dataset, SMOKE,
            ("no_h1", "no_attention", "no_common_loss", "no_specific_loss"),
        )
        assert [r.variant for r in rows] == [
            "full", "no_h1", "no_attention", "no_common_loss", "no_specific_loss"
        ]
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)

    def test_unknown_switch(self, tiny_dataset):
        with pytest.raises(ContractError):
            ablate(tiny_dataset, SMOKE, ("no_evidence",))

    def test_unknown_switch_rejected_before_training(self, tiny_dataset, monkeypatch):
        def no_training(*_):
            raise AssertionError("run_experiment called before every switch was checked")

        monkeypatch.setattr(pipeline, "run_experiment", no_training)
        with pytest.raises(ContractError, match="typo"):
            ablate(tiny_dataset, SMOKE, ["no_h1", "typo"])

    def test_no_common_loss_logged_with_zero_delta(self, train_std):
        cfg = apply_switch(SMOKE, "no_common_loss")
        assert cfg.delta == 0.0
        _, log = train(train_std, cfg)
        for row in log:
            assert abs(row.overall - (row.h1 + row.h2 + 0.0 * row.com + cfg.eta * row.spe)) < 1e-9


class TestCheckpointPipeline:
    def test_trained_model_round_trip(self, smoke_run, tmp_path):
        trained, test_std, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        trained.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.cfg == trained.cfg
        a = evaluate(trained, test_std)
        b = evaluate(loaded, test_std)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.joint_uncertainty, b.joint_uncertainty)

    def test_removed_config_key_named(self, smoke_run, tmp_path):
        trained, _, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        trained.save(path)
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"]["fold"] = "mean"
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match="fold"):
            TrainedModel.load(path)

    def test_missing_stats_named(self, smoke_run, tmp_path):
        trained, _, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        trained.save(path)
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        meta = json.loads(str(arrays["__meta__"]))
        del meta["stats"]
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match="ckpt.npz: checkpoint __meta__ has no stats"):
            TrainedModel.load(path)


def _synth_and_train(tmp_path):
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert cli_main([
        "synth", "--out", str(data_dir), "--classes", "2", "--samples", "40",
        "--dims", "4,5", "--seed", "3",
    ]) == 0
    assert cli_main([
        "train", "--data", str(data_dir / "manifest.json"), "--out", str(run_dir),
        "--epochs", "2", "--subspace-dim", "8", "--seed", "1",
    ]) == 0
    return data_dir, run_dir


class TestCli:
    def test_missing_config_names_path(self, capsys, tmp_path):
        code = cli_main([
            "train", "--data", str(tmp_path / "missing-manifest.json"),
            "--out", str(tmp_path / "run"), "--config", str(tmp_path / "missing.json"),
        ])
        assert code != 0
        assert "missing.json" in capsys.readouterr().err

    def test_synth_is_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            assert cli_main([
                "synth", "--out", str(tmp_path / sub), "--classes", "2",
                "--samples", "12", "--dims", "3,4", "--seed", "7",
            ]) == 0
        for name in ("view0.tsv", "view1.tsv", "labels.tsv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_synth_writes_acceptance_data(self, tmp_path):
        assert cli_main([
            "synth", "--out", str(tmp_path / "cli"), "--classes", "4", "--samples", "1000",
            "--nuisance", "0.8,0.3,0.3", "--dims", "20,30,25", "--separation", "4.5",
            "--seed", "7",
        ]) == 0
        save_dataset(synthesize(**ACCEPTANCE_DATA), tmp_path / "api")
        for name in ("view0.tsv", "view1.tsv", "view2.tsv", "labels.tsv", "manifest.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    @pytest.mark.parametrize("content, named", [
        ('{"epochs": "5"}', "'epochs' must be int"),
        ("[1, 2]", "must be a JSON object"),
    ], ids=["str-for-int", "list"])
    def test_bad_config_file_named(self, content, named, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        code = cli_main([
            "train", "--data", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "run"),
            "--config", str(config), "--subspace-dim", "8",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err

    def test_train_trials(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli_main([
            "synth", "--out", str(data_dir), "--classes", "2", "--samples", "40",
            "--dims", "4,5", "--seed", "3",
        ]) == 0
        run_dir = tmp_path / "run"
        assert cli_main([
            "train", "--data", str(data_dir / "manifest.json"), "--out", str(run_dir),
            "--epochs", "2", "--subspace-dim", "8", "--seed", "1", "--trials", "2",
        ]) == 0
        for trial in (0, 1):
            assert (run_dir / f"checkpoint_trial{trial}.npz").exists()
            assert (run_dir / f"training_log_trial{trial}.tsv").exists()
        meta = json.loads((run_dir / "run.meta").read_text())
        assert meta["trials"] == 2 and len(meta["test_accuracy"]) == 2
        assert meta["test_accuracy_mean"] == np.mean(meta["test_accuracy"])

    def test_empty_split_side_is_exit_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli_main([
            "synth", "--out", str(data_dir), "--classes", "2", "--samples", "30",
            "--dims", "3,4", "--seed", "1",
        ]) == 0
        code = cli_main([
            "train", "--data", str(data_dir / "manifest.json"), "--out", str(tmp_path / "run"),
            "--train-fraction", "0.99", "--epochs", "2",
        ])
        assert code == 2
        assert "leaves the test split empty" in capsys.readouterr().err
        assert not (tmp_path / "run" / "run.meta").exists()

    def test_gradcheck_command(self, capsys):
        assert cli_main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall" in out and "FAIL" not in out

    def test_full_cli_cycle(self, tmp_path, capsys):
        data_dir, run_dir = _synth_and_train(tmp_path)
        eval_dir = tmp_path / "eval"
        assert (run_dir / "checkpoint.npz").exists()
        assert (run_dir / "training_log.tsv").exists()
        meta = json.loads((run_dir / "run.meta").read_text())
        assert meta["config"]["epochs"] == 2
        log_lines = (run_dir / "training_log.tsv").read_text().splitlines()
        assert len(log_lines) == 3
        for line in log_lines[1:]:  # plain numbers, not np.float64(...)
            assert np.all(np.isfinite([float(cell) for cell in line.split("\t")]))
        assert cli_main([
            "eval", "--model", str(run_dir / "checkpoint.npz"),
            "--data", str(data_dir / "manifest.json"), "--out", str(eval_dir),
            "--holdout", "--noise-sigma", "2.0", "--noise-fraction", "0.5",
        ]) == 0
        for name in ("metrics.tsv", "uncertainty_hist.tsv", "conflict_matrix.tsv",
                     "records.tsv", "corruption_mask.tsv", "run.meta"):
            assert (eval_dir / name).exists(), name

    def test_sweep_and_ablate_commands(self, tmp_path):
        data_dir, run_dir = _synth_and_train(tmp_path)
        sweep_dir = tmp_path / "sweep"
        assert cli_main([
            "sweep", "--model", str(run_dir / "checkpoint.npz"),
            "--data", str(data_dir / "manifest.json"), "--out", str(sweep_dir),
            "--holdout", "--sigmas", "0,2.5", "--noise-fraction", "0.5",
        ]) == 0
        lines = (sweep_dir / "noise_sweep.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + two sigma rows
        abl_dir = tmp_path / "abl"
        assert cli_main([
            "ablate", "--data", str(data_dir / "manifest.json"), "--out", str(abl_dir),
            "--switches", "no_specific_loss", "--epochs", "2", "--subspace-dim", "8",
        ]) == 0
        rows = (abl_dir / "ablation.tsv").read_text().splitlines()
        assert rows[0] == "variant\taccuracy\taccuracy_delta"
        assert len(rows) == 3

    @pytest.mark.parametrize("flags", [
        ["synth", "--dims", "5,x"],
        ["eval", "--model", "m.npz", "--data", "d.json", "--noise-sigma", "1",
         "--corrupt-views", "0,one"],
        ["sweep", "--model", "m.npz", "--data", "d.json", "--sigmas", "0,1e"],
    ])
    def test_bad_list_token_is_usage_error(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(flags + ["--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "comma-separated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corrupt_view_out_of_range_named(self, tmp_path, capsys):
        data_dir, run_dir = _synth_and_train(tmp_path)
        for corruption in (["--noise-sigma", "2.0"], ["--conflict-fraction", "0.5"]):
            code = cli_main([
                "eval", "--model", str(run_dir / "checkpoint.npz"),
                "--data", str(data_dir / "manifest.json"), "--out", str(tmp_path / "eval"),
                "--corrupt-views", "5", *corruption,
            ])
            assert code == 2
            assert "view index 5 outside [0, 2)" in capsys.readouterr().err

    def test_repeated_corrupt_view_named(self, tmp_path, capsys):
        data_dir, run_dir = _synth_and_train(tmp_path)
        code = cli_main([
            "eval", "--model", str(run_dir / "checkpoint.npz"),
            "--data", str(data_dir / "manifest.json"), "--out", str(tmp_path / "eval"),
            "--corrupt-views", "0,0", "--noise-sigma", "1.0",
        ])
        assert code == 2
        assert "repeat index 0" in capsys.readouterr().err

    def test_noise_and_conflict_together_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "eval", "--model", "m.npz", "--data", "d.json", "--out", str(tmp_path / "out"),
                "--noise-sigma", "1", "--conflict-fraction", "0.5",
            ])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["train", "--data", "d.json", "--out", "run", "--trials", "0"],
        ["gradcheck", "--seeds", "0"],
    ], ids=["trials", "seeds"])
    def test_zero_count_is_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(flags)
        assert excinfo.value.code == 2
        assert "invalid positive int value: '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--conflict-fraction", "0.5", "--noise-fraction", "0.9"], "--noise-fraction needs"),
        (["--noise-fraction", "0.9", "--corrupt-views", "1"], "--noise-fraction needs"),
        (["--corrupt-views", "1"], "--corrupt-views needs"),
    ], ids=["noise-fraction-with-conflict", "noise-fraction-alone", "views-alone"])
    def test_corruption_modifier_without_corruption_rejected(self, flags, named, tmp_path,
                                                             capsys):
        code = cli_main([
            "eval", "--model", "m.npz", "--data", "d.json", "--out", str(tmp_path / "out"),
            *flags,
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_on_other_class_count_rejected(self, tmp_path, capsys):
        data_dir, run_dir = _synth_and_train(tmp_path)
        assert cli_main([
            "synth", "--out", str(tmp_path / "five"), "--classes", "5", "--samples", "40",
            "--dims", "4,5", "--seed", "3",
        ]) == 0
        code = cli_main([
            "eval", "--model", str(run_dir / "checkpoint.npz"),
            "--data", str(tmp_path / "five" / "manifest.json"), "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert "5 classes but the model has 2" in capsys.readouterr().err

    def test_noise_sweep_without_model_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["sweep", "--data", "d.json", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_report_files(self, smoke_run, tmp_path):
        trained, test_std, _ = smoke_run
        corrupted, mask = inject_conflict(
            test_std, CorruptionSpec("view_misalign", 0.5, seed=2)
        )
        report = evaluate(trained, corrupted, mask)
        write_eval_report(report, tmp_path, mask)
        metrics = dict(
            line.split("\t") for line in (tmp_path / "metrics.tsv").read_text().splitlines()
        )
        assert float(metrics["accuracy"]) == report.accuracy
        matrix_lines = (tmp_path / "conflict_matrix.tsv").read_text().splitlines()
        assert len(matrix_lines) == test_std.n_views


class TestRunExperiment:
    def test_returns_consistent_report(self, tiny_dataset):
        result = run_experiment(tiny_dataset, SMOKE)
        assert 0.0 <= result.report.accuracy <= 1.0
        assert result.report.labels.size == result.test_ds.n_samples
        assert len(result.log) == SMOKE.epochs
