"""Sub-network contracts: output ranges, determinism, shapes, checkpoints."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from mvtrust import autodiff as ad
from mvtrust.autodiff import Tensor, backward
from mvtrust.errors import ContractError, ShapeError
from mvtrust.networks import SUPPORT_RADIUS_ENTRY, Mlp, Model, ModelSpec


@pytest.fixture()
def model():
    return Model(ModelSpec(view_dims=(5, 7), n_classes=3, subspace_dim=8,
                           disc_hidden=6, evidence_hidden=6, seed=11))


class TestMlp:
    @pytest.mark.parametrize("field", ["subspace_dim", "disc_hidden", "evidence_hidden"])
    def test_zero_width_rejected(self, field):
        with pytest.raises(ContractError, match=field):
            ModelSpec(view_dims=(4,), n_classes=2, **{field: 0})

    @pytest.mark.parametrize("fields, named", [
        ({"view_dims": 5},
         "view_dims: must be a list of one or more items, each an integer >= 1, got 5"),
        ({"view_dims": (4, 2.0)}, "view_dims[1]: must be an integer >= 1, got 2.0"),
        ({"view_dims": ()},
         "view_dims: must be a list of one or more items, each an integer >= 1, got ()"),
        ({"n_classes": "4"}, "n_classes: must be an integer >= 2, got '4'"),
        ({"n_classes": True}, "n_classes: must be an integer >= 2, got True"),
        ({"seed": -1}, "seed: must be an integer >= 0, got -1"),
    ], ids=["dims-number", "dims-float", "dims-empty", "classes-str", "classes-bool",
            "negative-seed"])
    def test_spec_value_types_named(self, fields, named):
        with pytest.raises(ContractError, match=re.escape(named)):
            ModelSpec(**{"view_dims": (4,), "n_classes": 2, **fields})

    def test_spec_takes_numpy_integers(self):
        spec = ModelSpec(view_dims=[np.int64(4)], n_classes=np.int64(2))
        assert spec.view_dims == (4,) and spec.n_classes == 2

    def test_width_mismatch(self):
        mlp = Mlp((4, 2), ad.RELU, 0)
        with pytest.raises(ShapeError):
            mlp.forward(Tensor(np.ones((3, 5))))

    def test_detached_params_block_gradients(self):
        # split: the first node takes the input as a constant, the second the parameters
        mlp = Mlp((3, 4, 2), ad.RELU, 0)
        x = Tensor(np.ones((2, 3)))
        own, confusion = mlp.forward(x, split=True)
        backward(confusion.sum())
        assert all(p.grad is None for p in (*mlp.weights, *mlp.biases))
        assert x.grad is not None
        x.grad = None
        backward(own.sum())
        assert x.grad is None
        assert all(p.grad is not None for p in (*mlp.weights, *mlp.biases))


class TestEncoders:
    def test_zero_input_zero_bias_gives_zero(self):
        model = Model(ModelSpec(view_dims=(4,), n_classes=2, subspace_dim=5, seed=0))
        for mlp in (model.parts["mapper0"], model.parts["common"]):
            for b in mlp.biases:
                b.data[:] = 0.0
        out = model.encode_common(Tensor(np.zeros((3, 4))), 0)
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_batch_shape_preserved(self, model):
        out = model.encode_common(Tensor(np.random.default_rng(0).normal(size=(9, 5))), 0)
        assert out.shape == (9, 8)
        out = model.encode_specific(Tensor(np.random.default_rng(0).normal(size=(9, 7))), 1)
        assert out.shape == (9, 8)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(5).normal(size=(4, 5))
        outs = []
        for _ in range(2):
            m = Model(ModelSpec(view_dims=(5, 7), n_classes=3, subspace_dim=8, seed=11))
            outs.append(m.encode_common(Tensor(x), 0).data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_width_mismatch_is_contract_error(self, model):
        with pytest.raises(ShapeError):
            model.encode_common(Tensor(np.ones((2, 6))), 0)


def _disc_params(model):
    return (*model.parts["disc"].weights, *model.parts["disc"].biases)


class TestHeads:
    def test_discriminator_rows_on_simplex(self, model, rng):
        own, confusion = model.discriminate(Tensor(rng.normal(size=(20, 8))))
        assert own.data is confusion.data  # one forward pass
        np.testing.assert_allclose(own.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(own.data >= 0.0)

    def test_discriminator_uniform_on_zero_logits(self, model):
        for p in _disc_params(model):
            p.data[:] = 0.0
        for out in model.discriminate(Tensor(np.ones((3, 8)))):
            np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_encoder_side_node_reaches_only_the_codes(self, model, rng):
        c = Tensor(rng.normal(size=(6, 8)))
        _, confusion = model.discriminate(c)
        backward((confusion * rng.uniform(size=confusion.shape)).sum())
        assert all(p.grad is None for p in _disc_params(model))
        assert c.grad.shape == c.shape and np.any(c.grad != 0.0)

    def test_no_grad_pair_holds_no_graph(self, model, rng):
        with ad.no_grad():
            pair = model.discriminate(Tensor(rng.normal(size=(6, 8))))
        assert all(not out.requires_grad and out._parents == () for out in pair)

    def test_predictor_interval_and_midpoint(self, model, rng):
        out = model.predict_common(Tensor(rng.normal(size=(10, 8))))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)
        for w in model.parts["pred"].weights:
            w.data[:] = 0.0
        for b in model.parts["pred"].biases:
            b.data[:] = 0.0
        mid = model.predict_common(Tensor(rng.normal(size=(4, 8))))
        np.testing.assert_allclose(mid.data, 0.5, atol=1e-15)

    def test_predictor_saturates_toward_one(self, model):
        model.parts["pred"].weights[0].data[:] = 0.0
        model.parts["pred"].biases[0].data[:] = 50.0
        out = model.predict_common(Tensor(np.zeros((2, 8))))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-12)

    def test_evidence_non_negative_everywhere(self, model, rng):
        h = Tensor(rng.normal(size=(10_000, 8)))
        assert np.all(model.evidence_from_common(h).data >= 0.0)
        assert np.all(model.evidence_from_specific(h, 0).data >= 0.0)

    def test_evidence_head_passes_positive_preactivations(self):
        model = Model(ModelSpec(view_dims=(3,), n_classes=3, subspace_dim=3,
                                evidence_hidden=3, seed=0))
        head = model.parts["ev_common"]
        head.weights[0].data = np.eye(3)
        head.biases[0].data[:] = 0.0
        head.weights[1].data = np.eye(3)
        head.biases[1].data[:] = 0.0
        out = model.evidence_from_common(Tensor([[19.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 1.0, 1.0]])

    def test_dead_preactivations_give_vacuous_evidence(self, model):
        head = model.parts["ev_common"]
        head.biases[1].data[:] = -100.0
        out = model.evidence_from_common(Tensor(np.zeros((2, 8))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


class TestParameters:
    def test_param_count_closed_form(self):
        d = (20, 30, 25)
        l, q, v, hd, he = 64, 4, 3, 64, 64
        model = Model(ModelSpec(view_dims=d, n_classes=q, subspace_dim=l,
                                disc_hidden=hd, evidence_hidden=he, seed=0))
        mappers = sum((di + 1) * l for di in d)
        cse = (l + 1) * l
        sie = sum((di + 1) * l for di in d)
        disc = (l + 1) * hd + (hd + 1) * v
        cml = (l + 1) * q
        ev = (1 + v) * ((l + 1) * he + (he + 1) * q)
        attn = 3 * v * v
        total = sum(t.size for _, t in model.named_params())
        assert total == mappers + cse + sie + disc + cml + ev + attn

    def test_uniform_attention_excludes_query_key(self, model):
        trainable = model.trainable_params(uniform_attention=True)
        assert model.w_query not in trainable
        assert model.w_key not in trainable
        assert model.w_value in trainable

    def test_named_params_follow_the_part_table(self, model):
        prefixes = [name.split(".")[0] for name, _ in model.named_params()]
        assert list(dict.fromkeys(prefixes)) == [
            "mapper0", "mapper1", "common", "specific0", "specific1", "disc", "pred",
            "ev_common", "ev_specific0", "ev_specific1", "attn",
        ]

    def test_named_params_unique_and_ordered(self, model):
        names = [n for n, _ in model.named_params()]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in model.named_params()]


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path, rng):
        path = tmp_path / "ckpt.npz"
        model.fit_support([rng.normal(size=(9, d)) for d in model.spec.view_dims])
        model.save(path, extra_meta={"note": "fixture"})
        loaded, meta = Model.load(path)
        assert meta == {"note": "fixture"}
        assert loaded.spec == model.spec
        for (name_a, a), (name_b, b) in zip(model.named_params(), loaded.named_params()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)
        assert np.all(np.isfinite(model.support_radius))
        np.testing.assert_array_equal(loaded.support_radius, model.support_radius)

    def test_load_reads_each_entry_once(self, model, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        model.save(path)
        with np.load(path) as bundle:
            entries = bundle.files
        reads = Counter()
        read = np.lib.npyio.NpzFile.__getitem__

        def counted(bundle, name):
            reads[name] += 1
            return read(bundle, name)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
        Model.load(path)
        assert len(entries) == 35 and reads == Counter(entries)

    @staticmethod
    def _load_without(model, path, entry):
        model.save(path)
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files if k != entry}
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match=entry):
            Model.load(path)

    def test_missing_support_radius_named(self, model, tmp_path):
        self._load_without(model, tmp_path / "ckpt.npz", SUPPORT_RADIUS_ENTRY)

    def test_missing_parameter_named(self, model, tmp_path):
        self._load_without(model, tmp_path / "ckpt.npz", "mapper0.w0")

    def test_missing_format_named_with_path(self, model, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._load_without(model, path, "__format__")
        with pytest.raises(ContractError, match="ckpt.npz"):
            Model.load(path)

    @pytest.mark.parametrize("write", [
        lambda path: path.write_text("not a checkpoint\n"),
        lambda path: np.save(path, np.zeros(3)),
    ], ids=["text", "npy"])
    def test_not_an_archive_named(self, tmp_path, write):
        path = tmp_path / "notes.npy"
        write(path)
        with pytest.raises(ContractError, match=r"notes\.npy: not an npz checkpoint"):
            Model.load(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda spec: spec.update(evidence_activation="relu"),
         "ckpt.npz: __spec__: evidence_activation: unknown key"),
        (lambda spec: spec.pop("disc_hidden"), "ckpt.npz: __spec__: disc_hidden: missing"),
    ], ids=["unknown", "missing"])
    def test_spec_keys_checked_by_name(self, model, tmp_path, edit, named):
        path = tmp_path / "ckpt.npz"
        model.save(path)
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        spec = json.loads(str(arrays["__spec__"]))
        edit(spec)
        arrays["__spec__"] = np.array(json.dumps(spec))
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match=named):
            Model.load(path)

    def test_format_guard(self, model, tmp_path):
        path = tmp_path / "ckpt.npz"
        arrays = {name: t.data for name, t in model.named_params()}
        arrays["__format__"] = np.array("other-format/9")
        arrays["__spec__"] = np.array("{}")
        arrays["__meta__"] = np.array("{}")
        np.savez(path, **arrays)
        with pytest.raises(ContractError):
            Model.load(path)
