"""Training loop, evaluation reports, sweeps, ablation, CLI behavior."""

import dataclasses
import itertools
import json
import re
import struct
import tracemalloc
import zipfile
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_DATA
from mvtrust import losses as L
from mvtrust import cli, pipeline, special
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
        with pytest.raises(ContractError, match="learning_rat: unknown key"):
            TrainConfig.from_dict({"learning_rat": 0.1})

    def test_validation(self):
        with pytest.raises(ContractError, match="gamma: must be a finite number >= 0, got -1.0"):
            TrainConfig(gamma=-1.0)
        with pytest.raises(ContractError, match="epochs: must be an integer >= 1, got 0"):
            TrainConfig(epochs=0)

    def test_replace_is_validated(self):
        with pytest.raises(ContractError, match="epochs: must be an integer >= 1, got 0"):
            dataclasses.replace(TrainConfig(), epochs=0)

    @pytest.mark.parametrize("payload, named", [
        ([1, 2], "must be a JSON object, got list"),
        ({"epochs": "5"}, "epochs: must be an integer >= 1, got '5'"),
        ({"epochs": 5.0}, "epochs: must be an integer >= 1, got 5.0"),
        ({"gamma": True}, "gamma: must be a finite number >= 0, got True"),
        ({"bypass_h1": 1}, "bypass_h1: must be a boolean, got 1"),
        ({"batch_size": 1.5}, "batch_size: must be an integer >= 1 or null, got 1.5"),
        ({"seed": -1}, "seed: must be an integer >= 0, got -1"),
        ({"weight_decay": -1.0}, "weight_decay: must be a finite number >= 0, got -1.0"),
        ({"subspace_dim": 0}, "subspace_dim: must be an integer >= 1, got 0"),
        ({"disc_hidden": 0}, "disc_hidden: must be an integer >= 1, got 0"),
        ({"evidence_hidden": 0}, "evidence_hidden: must be an integer >= 1, got 0"),
    ], ids=["list", "str-for-int", "float-for-int", "bool-for-float", "int-for-bool",
            "float-for-batch", "negative-seed", "negative-weight-decay", "zero-subspace-dim",
            "zero-disc-hidden", "zero-evidence-hidden"])
    def test_value_types_checked_by_key(self, payload, named):
        with pytest.raises(ContractError, match=re.escape(named)):
            TrainConfig.from_dict(payload)

    def test_int_accepted_for_float_and_null_batch(self):
        cfg = TrainConfig.from_dict({"gamma": 2, "batch_size": None})
        assert cfg.gamma == 2 and cfg.batch_size is None

    @pytest.mark.parametrize("key", [
        "gamma", "delta", "eta", "learning_rate", "weight_decay", "train_fraction",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_by_key(self, key, value):
        with pytest.raises(ContractError, match=re.escape(f"{key}: must be a finite number")):
            TrainConfig.from_dict({key: value})

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
            resum = L.overall_loss(row.h1, row.h2, row.com, row.spe, SMOKE.delta, SMOKE.eta)
            assert abs(resum - row.overall) < 1e-9

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_forward_pass_named(self, tmp_path, capsys):
        # the evidence overflows before any loss term does; the ψ pass of the
        # losses used to fail on it with a DomainError
        ds = synthesize(n_classes=3, n_views=2, n_samples=60, view_dims=(4, 5), seed=0)
        train_std, _, _ = standardize(*split(ds, 0.8, 0))
        cfg = TrainConfig(epochs=30, learning_rate=1e12)
        with pytest.raises(TrainingDiverged, match=r"^non-finite evidence_\w+ at epoch \d+"):
            train(train_std, cfg)
        data, out = tmp_path / "d", tmp_path / "o"
        assert cli_main(["synth", "--out", str(data), "--classes", "3", "--samples", "60",
                         "--dims", "4,5", "--seed", "0"]) == 0
        capsys.readouterr()
        assert cli_main(["train", "--data", str(data / "manifest.json"), "--out", str(out),
                         "--epochs", "30", "--learning-rate", "1e12"]) == 2
        assert re.search(r"^error: non-finite evidence_\w+ at epoch \d+", capsys.readouterr().err,
                         re.MULTILINE)

    def test_graph_freed_before_the_next_step(self):
        # at full batch, two steps' graphs never coexist: the second epoch
        # adds nothing to the first one's peak
        ds = synthesize(**{**ACCEPTANCE_DATA, "n_samples": 200})
        peaks = []
        for epochs in (1, 2):
            tracemalloc.start()
            try:
                train(ds, TrainConfig(epochs=epochs, seed=7))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_lambda_annealing_recorded(self, train_std):
        cfg = dataclasses.replace(SMOKE, epochs=6, anneal_epochs=4)
        _, log = train(train_std, cfg)
        assert [row.lambda_t for row in log] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]

    def test_minibatch_lambda_logged_exactly(self):
        # 60 rows in batches of 8: a row-weighted mean of 0.02 reads 0.020000000000000004
        ds = synthesize(2, 2, 60, (5, 6), seed=3)
        cfg = dataclasses.replace(SMOKE, batch_size=8, epochs=5, anneal_epochs=50)
        _, log = train(ds, cfg)
        assert [row.lambda_t for row in log] == [
            L.lambda_schedule(epoch, cfg.anneal_epochs) for epoch in range(cfg.epochs)
        ]


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
        clean_fused = forward_pass(model, test_std.views, SMOKE).evidence_fused.data[view]
        loud_fused = forward_pass(model, loud.views, SMOKE).evidence_fused.data[view]
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
        fused = forward_pass(trained.model, corrupted.views, SMOKE).evidence_fused.data
        for p, r in itertools.combinations(range(3), 2):
            rows = [oracles.naive_conflict(a + 1.0, b + 1.0) for a, b in zip(fused[p], fused[r])]
            assert abs(matrix[p, r] - np.mean(rows)) < 1e-12
        assert np.array_equal(matrix, matrix.T) and np.all(np.diag(matrix) == 0.0)

    def test_attend_batch_rejects_mismatched_stacks(self):
        features = Tensor(np.zeros((2, 3, 8)))
        eye = Tensor(np.eye(2))
        with pytest.raises(ContractError, match="attend_batch"):
            attend_batch(features, Tensor(np.zeros((1, 3, 8))), eye, eye, eye)

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
        for prefix, head in trained.model.parts.items():
            if prefix.startswith("ev_"):
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
        _, terms = training_objective(model, bundle, y, SMOKE, lambda_t=0.5)
        row = dict(zip(L.LossBreakdown.TERMS, terms, strict=True))
        resum = L.overall_loss(row["h1"], row["h2"], row["com"], row["spe"], SMOKE.delta, SMOKE.eta)
        assert abs(resum - row["overall"]) < 1e-9
        assert row["com"] == row["adv"] + row["cml"]
        assert 0.0 < row["adv"] <= 1.0

    def test_joint_is_mean_of_attended(self, train_std):
        bundle = forward_pass(_fresh_model(train_std), train_std.views, SMOKE)
        np.testing.assert_allclose(
            bundle.evidence_joint.data, bundle.evidence_attended.data.mean(axis=0), atol=1e-12
        )


class TestBundleLayout:
    """Per-view evidence crosses module boundaries as C-ordered (v, n, q) stacks."""

    @pytest.fixture()
    def three_view(self):
        ds = synthesize(3, 3, 40, (4, 5, 6), seed=5)
        model = Model(ModelSpec(view_dims=ds.view_dims, n_classes=3, subspace_dim=8,
                                disc_hidden=6, evidence_hidden=6, seed=1))
        return model, forward_pass(model, ds.views, SMOKE)

    @pytest.mark.parametrize("name", ["evidence_specific", "evidence_fused", "evidence_attended"])
    def test_stack_shape_and_order(self, three_view, name):
        stack = getattr(three_view[1], name)
        assert isinstance(stack, Tensor)
        assert stack.shape == (3, 40, 3)
        assert stack.data.flags.c_contiguous

    def test_attended_rows_are_sample_major_columns(self, three_view):
        model, bundle = three_view
        value = model.w_value.data @ bundle.evidence_fused.data.swapaxes(0, 1)   # (n, v, q)
        sample_major = np.maximum(bundle.attention.data @ value, 0.0)
        for view in range(3):
            np.testing.assert_array_equal(bundle.evidence_attended.data[view],
                                          sample_major[:, view])


def _interior_nodes(root):
    """Nodes with parents reachable from ``root``, each counted once."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def _step_cost(monkeypatch, names):
    """Interior nodes of a 3-view training step after the first, and its
    calls of each function ``names`` lists from ``special``."""
    calls = Counter()

    def counted(name, raw):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return raw(*args, **kwargs)
        return wrapper

    ds = synthesize(3, 3, 40, (4, 5, 6), seed=5)
    model = Model(ModelSpec(view_dims=ds.view_dims, n_classes=3, subspace_dim=8,
                            disc_hidden=6, evidence_hidden=6, seed=1))

    def step():
        bundle = forward_pass(model, ds.views, SMOKE)
        objective, _ = training_objective(model, bundle, one_hot(ds.labels, 3), SMOKE, 0.5)
        backward(objective)
        return objective

    step()
    for name in names:
        monkeypatch.setattr(special, name, counted(name, getattr(special, name)))
    monkeypatch.setattr(L, "_lgamma_value", special.lgamma)
    return _interior_nodes(step()), calls


class TestStepCost:
    def test_three_view_step_stays_small(self, monkeypatch):
        nodes, calls = _step_cost(monkeypatch, ("digamma", "trigamma", "lgamma"))
        assert nodes <= 300
        assert sum(calls.values()) <= 40, calls

    def test_fused_losses_keep_the_step_smaller(self, monkeypatch):
        # each ace_loss, kl_loss, conflict_degree and Mlp call is one node,
        # and each Dirichlet loss makes one polygamma_pass: 5 ace and 2 kl
        # passes; kl_loss's lgamma(q) constant was computed in the first step
        nodes, calls = _step_cost(
            monkeypatch, ("digamma", "trigamma", "lgamma", "polygamma_pass")
        )
        assert nodes <= 125
        assert sum(calls.values()) <= 7, calls


class TestSweepAndAblate:
    def test_empty_sigma_list(self, smoke_run):
        trained, test_std, _ = smoke_run
        assert run_noise_sweep(trained, test_std, [], 0.5, seed=0) == []

    def test_sigma_zero_equals_clean(self, smoke_run):
        trained, test_std, _ = smoke_run
        rows = run_noise_sweep(trained, test_std, [0.0], 0.5, seed=0)
        clean = evaluate(trained, test_std)
        assert rows[0].accuracy == clean.accuracy

    def test_bad_corruption_seed_rejected_before_any_evaluate(self, smoke_run, monkeypatch):
        trained, test_std, _ = smoke_run

        def no_evaluate(*_):
            raise AssertionError("evaluate called before the seed was checked")

        monkeypatch.setattr(pipeline, "evaluate", no_evaluate)
        with pytest.raises(ContractError, match="^seed: must be an integer >= 0, got -3"):
            run_noise_sweep(trained, test_std, [0.0, 1.0], 0.5, seed=-3)

    def test_fraction_checked_whatever_the_sigmas(self, smoke_run):
        trained, test_std, _ = smoke_run
        with pytest.raises(ContractError, match=r"^fraction: must be a finite number in \[0, 1\]"):
            run_noise_sweep(trained, test_std, [0.0], 5.0, 0)

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
        with pytest.raises(ContractError, match="ckpt.npz: __meta__: stats: missing"):
            TrainedModel.load(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda arrays: arrays.pop("__spec__"), "__spec__: missing"),
        (lambda arrays: arrays.pop("__meta__"), "__meta__: missing"),
        (lambda arrays: arrays.update(__spec__=np.array("{view_dims")),
         "__spec__: invalid JSON "
         "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        (lambda arrays: arrays.update(__spec__=np.array("5")),
         "__spec__: must be a JSON object, got int"),
        (lambda arrays: _edit_json(arrays, "__meta__", lambda meta: meta.pop("config")),
         "__meta__: config: missing"),
        (lambda arrays: _edit_json(arrays, "__meta__", lambda meta: meta["stats"].pop("means")),
         "__meta__: stats: means: missing"),
        (lambda arrays: arrays.update(__support_radius__=np.ones(3)),
         "__support_radius__: has shape (3,), expected (2,)"),
        # the tiny dataset's views are 5 and 6 columns wide
        (lambda arrays: _edit_json(arrays, "__meta__",
                                   lambda meta: meta["stats"].update(means=[[1.0], [2.0]])),
         "__meta__: stats: means[0]: must be a list of 5 items, each a finite number, got [1.0]"),
        (lambda arrays: _edit_json(arrays, "__meta__",
                                   lambda meta: meta["stats"]["means"][1].__setitem__(0, "x")),
         "__meta__: stats: means[1][0]: must be a finite number, got 'x'"),
        (lambda arrays: _edit_json(arrays, "__meta__",
                                   lambda meta: meta["stats"]["stds"][1].__setitem__(2, -1.0)),
         "__meta__: stats: stds[1][2]: must be a finite number >= 0, got -1.0"),
        (lambda arrays: _edit_json(arrays, "__spec__", lambda spec: spec.update(view_dims=5)),
         "__spec__: view_dims: must be a list of one or more items, each an integer >= 1, got 5"),
        (lambda arrays: _edit_json(arrays, "__spec__", lambda spec: spec.update(n_classes="4")),
         "__spec__: n_classes: must be an integer >= 2, got '4'"),
        (lambda arrays: _edit_json(arrays, "__spec__", lambda spec: spec.update(view_dims=[0])),
         "__spec__: view_dims[0]: must be an integer >= 1, got 0"),
        (lambda arrays: arrays.update(__support_radius__=np.array([-1.0, 5.0])),
         "__support_radius__: every element must be a number >= 0"),
        (lambda arrays: arrays.update(__support_radius__=np.array([np.nan, 5.0])),
         "__support_radius__: every element must be a number >= 0"),
        (lambda arrays: arrays["ev_common.b1"].__setitem__(0, np.nan),
         "ev_common.b1: every element must be a finite number"),
        (lambda arrays: arrays["mapper0.w0"].__setitem__((0, 0), np.inf),
         "mapper0.w0: every element must be a finite number"),
        (lambda arrays: arrays.update({"mapper0.b0": arrays["mapper0.b0"].astype(str)}),
         "mapper0.b0: every element must be a finite number"),
        (lambda arrays: arrays.update({"mapper0.b0": arrays["mapper0.b0"].astype(object)}),
         "mapper0.b0: cannot be read: Object arrays cannot be loaded when allow_pickle=False"),
        (lambda arrays: arrays.update(__format__=arrays["__format__"].astype(object)),
         "__format__: cannot be read: Object arrays cannot be loaded when allow_pickle=False"),
        # sizes beyond the address space: drawing the model first fails on memory
        (lambda arrays: _edit_json(arrays, "__spec__",
                                   lambda spec: spec.update(view_dims=[10**15, 6])),
         "mapper0.w0: has shape (5, 8), expected (1000000000000000, 8)"),
        (lambda arrays: _edit_json(arrays, "__spec__",
                                   lambda spec: spec.update(disc_hidden=10**15)),
         "disc.w0: has shape (8, 6), expected (8, 1000000000000000)"),
        (lambda arrays: _edit_json(arrays, "__spec__",
                                   lambda spec: spec.update(n_classes=10**15)),
         "pred.w0: has shape (8, 2), expected (8, 1000000000000000)"),
    ], ids=["no-spec", "no-meta", "spec-not-json", "spec-number", "meta-no-config",
            "stats-no-means", "radius-shape", "stats-width", "stats-not-number",
            "stats-negative-std", "spec-dims-number", "spec-classes-str", "spec-dims-zero",
            "radius-negative", "radius-nan", "param-nan", "param-inf", "param-str",
            "param-object", "format-object",
            "spec-dims-huge", "spec-disc-huge", "spec-classes-huge"])
    def test_malformed_checkpoint_is_exit_two(self, edit, named, smoke_run, tiny_dataset,
                                              tmp_path, capsys):
        trained, _, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        _save_edited(trained, path, edit)
        manifest = save_dataset(tiny_dataset, tmp_path / "data")
        code = cli_main(["eval", "--model", str(path), "--data", str(manifest),
                         "--out", str(tmp_path / "eval")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {named}\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("damage, named", [
        (lambda raw: raw.replace(b"'descr'", b"'dscr' "),
         "cannot be read: Header does not contain the correct keys"),
        (lambda raw: raw[:10] + b"{{{" + raw[13:], "cannot be read: "),
        (lambda raw: raw[:-1], "cannot be read: EOF: reading array data"),
        (lambda raw: b"XX" + raw[2:], "is not an npy array"),
        (None, "cannot be read: Bad CRC-32"),
    ], ids=["header-keys", "header-garbled", "truncated", "no-magic", "bad-crc"])
    def test_every_damaged_entry_is_exit_two(self, damage, named, smoke_run, tiny_dataset,
                                             tmp_path, capsys):
        """Damage the bytes of each entry in turn: its npy header, its data, its
        magic, or its stored checksum (``damage`` None)."""
        trained, _, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        trained.save(path)
        pristine = path.read_bytes()
        with zipfile.ZipFile(path) as bundle:
            members = bundle.namelist()
        manifest = save_dataset(tiny_dataset, tmp_path / "data")
        failures = []
        for i, member in enumerate(members):
            path.write_bytes(pristine)
            if damage is None:
                _flip_last_byte(path, member)
            else:
                _rewrite_member(path, member, damage)
            out = tmp_path / f"eval{i}"
            code = cli_main(["eval", "--model", str(path), "--data", str(manifest),
                             "--out", str(out)])
            err = capsys.readouterr().err
            prefix = f"error: {path}: {member.removesuffix('.npy')}: {named}"
            if code != 2 or not err.startswith(prefix) or out.exists():
                failures.append(f"{member}: exit {code}, {err!r}")
        assert not failures, "\n".join(failures)

    def test_spec_sizes_checked_before_any_draw(self, smoke_run, tmp_path):
        trained, _, _ = smoke_run
        path = tmp_path / "ckpt.npz"
        _save_edited(trained, path, lambda arrays: _edit_json(
            arrays, "__spec__", lambda spec: spec.update(view_dims=[10**5, 6])))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="mapper0.w0: has shape"):
                Model.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # drawing the (10**5, 8) mapper weight alone would take 6.4 MB
        assert peak < 2 * 2**20


def _save_edited(trained, path, edit):
    """Save ``trained`` to ``path`` with ``edit`` applied to its dict of entries."""
    trained.save(path)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    edit(arrays)
    np.savez(path, **arrays)


def _rewrite_member(path, member, damage):
    """Replace the bytes of zip member ``member`` of ``path`` with ``damage`` of them."""
    with zipfile.ZipFile(path) as bundle:
        members = {m: bundle.read(m) for m in bundle.namelist()}
    members[member] = damage(members[member])
    with zipfile.ZipFile(path, "w") as bundle:
        for m, raw in members.items():
            bundle.writestr(m, raw)


def _flip_last_byte(path, member):
    """Flip the last stored byte of zip member ``member`` of ``path``, leaving
    its checksum stale."""
    with zipfile.ZipFile(path) as bundle:
        info = bundle.getinfo(member)
    raw = bytearray(path.read_bytes())
    start = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[start + 26:start + 30])
    raw[start + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


def _edit_json(arrays, name, edit):
    """Apply ``edit`` to the JSON object of checkpoint entry ``name``."""
    payload = json.loads(str(arrays[name]))
    edit(payload)
    arrays[name] = np.array(json.dumps(payload, sort_keys=True))


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
        ('{"epochs": "5"}', "epochs: must be an integer >= 1, got '5'"),
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

    @pytest.mark.parametrize("content, flags, named", [
        ('{"learning_rate": Infinity}', [], "learning_rate: must be a finite number > 0, got inf"),
        ('{"gamma": NaN}', [], "gamma: must be a finite number >= 0, got nan"),
        ("{}", ["--eta=-inf"], "eta: must be a finite number >= 0, got -inf"),
    ], ids=["file-inf", "file-nan", "flag-minus-inf"])
    def test_non_finite_config_value_is_exit_two(self, content, flags, named, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        try:
            code = cli_main([
                "train", "--data", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "run"),
                "--config", str(config), *flags,
            ])
        except SystemExit as exc:  # argparse rejects a flag as it parses it
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    def test_gradcheck_fails_on_a_nan_error(self, monkeypatch, capsys):
        worst = {"ace": 1e-9, "kl": float("nan")}
        monkeypatch.setattr(cli, "gradcheck_losses", lambda n_seeds: worst)
        assert cli_main(["gradcheck", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert out == "ace\tmax_rel_error=1.000e-09\tok\nkl\tmax_rel_error=nan\tFAIL\n"

    def test_train_on_missing_data_makes_no_out(self, tmp_path, capsys):
        data = tmp_path / "missing.json"
        code = cli_main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: No such file or directory\n"
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("flags, named", [
        (["synth", "--dims", "5,x"], "--dims: view_dims: must be a list of one or more items, "
                                     "each an integer >= 1, got '5,x'"),
        (["eval", "--model", "m.npz", "--data", "d.json", "--noise-sigma", "1",
          "--corrupt-views", "0,one"], "--corrupt-views: corrupt_views: must be a list"),
        (["sweep", "--model", "m.npz", "--data", "d.json", "--sigmas", "0,1e"],
         "--sigmas: sigmas: must be a list of one or more items, each a finite number >= 0, "
         "got '0,1e'"),
    ], ids=["flags0", "flags1", "flags2"])
    def test_bad_list_token_is_usage_error(self, flags, named, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(flags + ["--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
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
