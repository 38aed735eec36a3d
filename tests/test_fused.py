"""Fused nodes against the composed graphs they replace, bit for bit.

Every loss term, the conflict node over ``opinions.conflict_arrays`` and
each ``autodiff.dense`` stack of layers are one graph node each; ``oracles``
builds the graph of elementary nodes each used to be.  Both are run on the
same leaves, and the value and every leaf's adjoint must be equal to the
last bit.  The whole training
objective is checked the same way, on every parameter of a model after
one step.  ``special.polygamma_pass`` must likewise give each argument
the values a pass of its own gives, bit for bit.
"""

import dataclasses
import logging

import numpy as np
import pytest

import oracles
from mvtrust import autodiff as ad
from mvtrust import losses as L
from mvtrust import special
from mvtrust.autodiff import Tensor, backward
from mvtrust.data import synthesize
from mvtrust.networks import Model, ModelSpec
from mvtrust.pipeline import TrainConfig, forward_pass, one_hot, training_objective


def _alpha(rng, shape):
    """Dirichlet parameters >= 1 spread over several orders of magnitude."""
    return 1.0 + np.exp(rng.normal(0.0, 2.0, size=shape))


def _labels(rng, n, q):
    return np.eye(q)[rng.integers(q, size=n)]


def _run(build, arrays, live, rng):
    """Value of ``build(*inputs)`` and the adjoint of each live input.

    Each array becomes a fresh leaf (or a constant where ``live`` is False);
    the node's output is weighted by a fixed random array before the sum,
    so the adjoint reaching it is not uniform.
    """
    inputs = [Tensor(a.copy()) if on else ad.lift(a.copy()) for a, on in zip(arrays, live)]
    out = build(*inputs)
    weights = rng.uniform(0.5, 2.0, size=out.shape)
    if any(live):
        backward((out * weights).sum())
    return out.data, [t.grad for t in inputs]


def _assert_same(fused, composed, arrays, live=None, seed=0):
    live = live or [True] * len(arrays)
    value, grads = _run(fused, arrays, live, np.random.default_rng(seed))
    ref_value, ref_grads = _run(composed, arrays, live, np.random.default_rng(seed))
    assert value.shape == ref_value.shape
    assert value.tobytes() == ref_value.tobytes()
    for grad, ref, on in zip(grads, ref_grads, live):
        if not on:
            assert grad is None and ref is None
            continue
        assert grad.shape == ref.shape
        assert grad.tobytes() == ref.tobytes()


ALPHA_CASES = {
    "n_q": ((12, 4), 12),
    "v_n_q": ((3, 12, 4), 12),
    "wide_q": ((2, 5, 11), 5),
    "one_row": ((1, 3), 1),
}


class TestDirichletLosses:
    @pytest.mark.parametrize("case", ALPHA_CASES)
    @pytest.mark.parametrize("seed", range(5))
    def test_ace_matches_composed(self, case, seed):
        rng = np.random.default_rng(seed)
        shape, n = ALPHA_CASES[case]
        alpha, y = _alpha(rng, shape), _labels(rng, n, shape[-1])
        _assert_same(lambda a: L.ace_loss(a, y), lambda a: oracles.composed_ace(a, y),
                     [alpha], seed=seed)

    @pytest.mark.parametrize("case", ALPHA_CASES)
    @pytest.mark.parametrize("seed", range(5))
    def test_masked_kl_matches_composed(self, case, seed):
        rng = np.random.default_rng(seed)
        shape, n = ALPHA_CASES[case]
        alpha, y = _alpha(rng, shape), _labels(rng, n, shape[-1])
        _assert_same(lambda a: L.kl_loss(a, y), lambda a: oracles.composed_kl(a, y),
                     [alpha], seed=seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_kl_uniform_matches_composed(self, seed):
        # all-zero labels spare no class, so the mask is the identity
        alpha = 1.0 + np.exp(np.random.default_rng(seed).normal(0.0, 1.5, size=(3, 7, 4)))
        _assert_same(lambda a: L.kl_loss(a, np.zeros(alpha.shape)), oracles.composed_kl_uniform,
                     [alpha], seed=seed)

    def test_losses_over_a_node_deliver_into_its_parent(self, rng):
        # the (v, n, q) stack is a node, as in training, and one leaf feeds
        # both losses, so the order of the three paths into it is checked
        evidence, y = np.exp(rng.normal(size=(3, 6, 4))), _labels(rng, 6, 4)

        def both(acc_form, kl_form):
            return lambda e: acc_form(e + 1.0, y) + ad.lift(0.3) * kl_form(e + 1.0, y)

        _assert_same(both(L.ace_loss, L.kl_loss),
                     both(oracles.composed_ace, oracles.composed_kl), [evidence])

    def test_constant_alpha_gives_a_constant(self, rng):
        alpha, y = _alpha(rng, (4, 3)), _labels(rng, 4, 3)
        for loss in (L.ace_loss, L.kl_loss):
            out = loss(ad.lift(alpha), y)
            assert not out.requires_grad and out._parents == ()
        _assert_same(lambda a: L.ace_loss(a, y), lambda a: oracles.composed_ace(a, y),
                     [alpha], live=[False])


CONFLICT_CASES = {
    "n_q_by_v_n_q": ((12, 4), (3, 12, 4)),
    "rows_by_columns": ((3, 1, 12, 4), (1, 3, 12, 4)),
    "wide_q": ((5, 11), (5, 11)),
    "single_sample": ((4,), (4,)),
}


class TestConflict:
    @pytest.mark.parametrize("case", CONFLICT_CASES)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_composed(self, case, seed):
        rng = np.random.default_rng(seed)
        arrays = [np.exp(rng.normal(0.0, 2.0, size=shape)) for shape in CONFLICT_CASES[case]]
        _assert_same(oracles.conflict_node, oracles.composed_conflict, arrays, seed=seed)

    @pytest.mark.parametrize("live", [[False, True], [True, False]], ids=["a-const", "b-const"])
    def test_one_constant_parent(self, live, rng):
        arrays = [np.exp(rng.normal(size=(6, 4))), np.exp(rng.normal(size=(2, 6, 4)))]
        _assert_same(oracles.conflict_node, oracles.composed_conflict, arrays, live=live)

    def test_zero_difference_has_zero_subgradient(self, rng):
        a = np.exp(rng.normal(size=(6, 4)))
        b = a.copy()
        b[::2] = np.exp(rng.normal(size=(3, 4)))  # rows 1, 3 and 5 stay equal
        _assert_same(oracles.conflict_node, oracles.composed_conflict, [a, b])
        # the equal rows have conflict 0 and pass no adjoint through |p_a - p_b|
        value, grads = _run(oracles.conflict_node, [a, b], [True, True], rng)
        assert np.all(value[1::2] == 0.0)
        assert np.all(grads[0][1::2] == 0.0) and np.all(grads[1][1::2] == 0.0)

    def test_views_of_one_stack(self, rng):
        # con_loss's call: rows and columns are reshapes of one (v, n, q) leaf
        def pairs(form):
            def build(stack):
                v, rest = stack.shape[0], stack.shape[1:]
                return form(stack.reshape((v, 1, *rest)), stack.reshape((1, v, *rest)))
            return build

        _assert_same(pairs(oracles.conflict_node), pairs(oracles.composed_conflict),
                     [np.exp(rng.normal(size=(3, 7, 4)))])

    def test_related_arguments(self, rng):
        # one node as both arguments, and a leaf against a node it feeds
        def self_conflict(form):
            def build(e):
                scaled = e * 1.5
                return form(scaled, scaled) + form(e, e + 1.0)
            return build

        _assert_same(self_conflict(oracles.conflict_node),
                     self_conflict(oracles.composed_conflict),
                     [np.exp(rng.normal(size=(5, 4)))])


def _probabilities(rng, shape):
    """Row-softmax probabilities, with an exact 0, a value inside the floor
    and a value on it, so the floor changes some entries and passes one."""
    z = np.exp(rng.normal(0.0, 2.0, size=shape))
    p = z / z.sum(axis=-1, keepdims=True)
    p[0, 0], p[-1, 0], p[-1, -1] = 0.0, 3e-13, 1e-12
    return p


LABEL_SHAPES = {"full": lambda y: y, "row": lambda y: y[:1], "flat": lambda y: y[0]}


class TestObjectiveTerms:
    """Each loss node of the objective against its composed form."""

    @pytest.mark.parametrize("labels", LABEL_SHAPES)
    @pytest.mark.parametrize("name", ["cross_entropy", "adv"])
    def test_cross_entropies(self, name, labels, rng):
        fused, composed = {"cross_entropy": (L.cross_entropy, oracles.composed_cross_entropy),
                           "adv": (L.adv_loss, oracles.composed_adv)}[name]
        y = LABEL_SHAPES[labels](_labels(rng, 9, 4))
        _assert_same(lambda p: fused(p, y), lambda p: composed(p, y), [_probabilities(rng, (9, 4))])

    @pytest.mark.parametrize("labels", LABEL_SHAPES)
    def test_cml(self, labels, rng):
        p = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, size=(9, 4))))
        p[0, :2], p[1, :2] = (0.0, 5e-13), (1.0, 1.0 - 5e-13)
        y = LABEL_SHAPES[labels](rng.integers(2, size=(9, 4)).astype(np.float64))
        _assert_same(lambda a: L.cml_loss(a, y), lambda a: oracles.composed_cml(a, y), [p])

    @pytest.mark.parametrize("n_views", [1, 3])
    def test_spe(self, n_views, rng):
        arrays = [rng.normal(size=(n_views, 6, 5)), rng.normal(size=(6, 5))]
        _assert_same(L.spe_loss, oracles.composed_spe, arrays)

    @pytest.mark.parametrize("soft", [False, True], ids=["one-hot", "soft"])
    @pytest.mark.parametrize("lambda_t", [0.0, 0.4])
    def test_acc(self, lambda_t, soft, rng):
        # h2's annealed terms alone: under one-hot labels one of the three
        # paths is 0 in every entry, so only soft labels show the order in
        # which they add up
        alpha = _alpha(rng, (3, 7, 4))
        y = rng.dirichlet(np.ones(4), size=7) if soft else _labels(rng, 7, 4)
        _assert_same(lambda e: L.h2_loss(e.mean(axis=0), e, y, lambda_t, 0.0, 0.0),
                     lambda e: oracles.composed_h2(e.mean(axis=0) + 1.0, e + 1.0, y, lambda_t,
                                                   0.0, ad.lift(0.0)),
                     [alpha - 1.0])

    @pytest.mark.parametrize("gamma", [0.0, 1.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_h1(self, gamma, seed):
        rng = np.random.default_rng(seed)
        y = _labels(rng, 7, 4)
        arrays = [_alpha(rng, (3, 7, 4)), _alpha(rng, (7, 4)) - 1.0, _alpha(rng, (3, 7, 4)) - 1.0]
        _assert_same(lambda a, c, s: L.h1_loss(a, c, s, y, gamma),
                     lambda a, c, s: oracles.composed_h1(a, c + 1.0, s + 1.0, y, gamma),
                     arrays, seed=seed)

    def test_h1_bypassed(self, rng):
        # under bypass_h1 the fused views are the specific evidence itself
        y = _labels(rng, 7, 4)
        arrays = [_alpha(rng, (7, 4)) - 1.0, _alpha(rng, (3, 7, 4)) - 1.0]
        _assert_same(lambda c, s: L.h1_loss(s + 1.0, c, s, y, 1.0),
                     lambda c, s: oracles.composed_h1(s + 1.0, c + 1.0, s + 1.0, y, 1.0), arrays)

    @pytest.mark.parametrize("n_views", [2, 3])
    def test_con(self, n_views, rng):
        _assert_same(L.con_loss, oracles.composed_con, [_alpha(rng, (n_views, 7, 4))])

    def test_con_of_one_view_is_a_constant(self, rng):
        # one view has no pairs: the loss is the constant 0 and holds no graph
        for form in (L.con_loss, oracles.composed_con):
            out = form(Tensor(_alpha(rng, (1, 7, 4))))
            assert out.item() == 0.0 and not out.requires_grad and out._parents == ()

    @pytest.mark.parametrize("lambda_t, gamma", [(0.0, 1.1), (0.6, 0.0), (0.6, 1.1)])
    def test_h2(self, lambda_t, gamma, rng):
        # as in training, the joint is the mean of the attended stack, and
        # the conflict node is con_loss over another leaf
        y = _labels(rng, 7, 4)
        arrays = [_alpha(rng, (3, 7, 4)) - 1.0, _alpha(rng, (3, 7, 4))]

        def fused(attended, views):
            joint = attended.mean(axis=0)
            return L.h2_loss(joint, attended, y, lambda_t, gamma, L.con_loss(views))

        def composed(attended, views):
            joint = attended.mean(axis=0)
            return oracles.composed_h2(joint + 1.0, attended + 1.0, y, lambda_t, gamma,
                                       oracles.composed_con(views))

        _assert_same(fused, composed, arrays)

    def test_overall(self, rng):
        arrays = list(rng.uniform(0.1, 2.0, size=(5, 1)))
        _assert_same(lambda h1, h2, adv, cml, spe: L.overall_loss(h1, h2, adv, cml, spe, 0.7, 0.01),
                     lambda h1, h2, adv, cml, spe: oracles.composed_overall(
                         h1, h2, adv + cml, spe, 0.7, 0.01),
                     arrays)

    # one-hot labels np.eye(2)[: len(p)]; the last case floors an entry
    # under label 0, which the one-hot product multiplies by 0
    @pytest.mark.parametrize("p, floored", [(np.array([[0.5, 0.5]]), 0),
                                            (np.array([[1e-12, 1.0]]), 0),
                                            (np.array([[3e-13, 1.0]]), 1),
                                            (np.array([[0.0, 1.0], [2.0, -1.0]]), 2),
                                            (np.array([[1.0, 3e-13]]), 0)])
    def test_floor_warns_exactly_when_it_clips(self, p, floored, caplog):
        self._assert_floor_warning(p, np.eye(2)[: len(p)], floored, caplog)

    @pytest.mark.parametrize("y, floored", [([[0.6, 0.4, 0.0]], 2), ([[0.6, 0.0, 0.4]], 1)])
    def test_floor_counts_entries_under_soft_labels(self, y, floored, caplog):
        self._assert_floor_warning(np.array([[3e-13, 0.0, 1.0]]), np.array(y), floored, caplog)

    @staticmethod
    def _assert_floor_warning(p, y, floored, caplog):
        with caplog.at_level(logging.WARNING, logger="mvtrust.losses"):
            L.cross_entropy(Tensor(p), y)
        messages = [r.getMessage() for r in caplog.records]
        if floored:
            assert messages == [f"cross_entropy: flooring {floored} probabilities below 1e-12"]
        else:
            assert messages == []


OBJECTIVE_CONFIGS = {
    "default": {},
    "bypass_h1": {"bypass_h1": True},
    "uniform_attention": {"uniform_attention": True},
    "gamma_zero": {"gamma": 0.0},
    "no_tradeoffs": {"delta": 0.0, "eta": 0.0},
}


def _objective_run(form, ds, cfg, lambda_t):
    """Objective value, logged terms, and every parameter's adjoint after one
    backward pass of ``form`` on a fresh model."""
    model = Model(ModelSpec(view_dims=ds.view_dims, n_classes=3, subspace_dim=8, seed=2))
    bundle = forward_pass(model, ds.views, cfg)
    objective, terms = form(model, bundle, one_hot(ds.labels, 3), cfg, lambda_t)
    backward(objective)
    grads = {name: p.grad for name, p in model.named_params() if p.grad is not None}
    return objective.data, terms, grads


class TestObjective:
    """The training objective against the composed graph it replaces: the
    logged terms, the value and every parameter's adjoint, bit for bit."""

    @pytest.mark.parametrize("lambda_t", [0.0, 0.5])
    @pytest.mark.parametrize("config", OBJECTIVE_CONFIGS)
    def test_matches_composed(self, config, lambda_t):
        ds = synthesize(3, 3, 24, (4, 5, 6), seed=9)
        cfg = dataclasses.replace(TrainConfig(subspace_dim=8), **OBJECTIVE_CONFIGS[config])
        value, terms, grads = _objective_run(training_objective, ds, cfg, lambda_t)
        ref_value, ref_terms, ref_grads = _objective_run(oracles.composed_objective, ds, cfg,
                                                         lambda_t)
        assert value.tobytes() == ref_value.tobytes()
        assert terms == ref_terms
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name

    def test_one_view(self):
        ds = synthesize(3, 1, 24, (5,), seed=9)
        cfg = TrainConfig(subspace_dim=8)
        value, terms, grads = _objective_run(training_objective, ds, cfg, 0.5)
        ref_value, ref_terms, ref_grads = _objective_run(oracles.composed_objective, ds, cfg, 0.5)
        assert value.tobytes() == ref_value.tobytes() and terms == ref_terms
        assert all(grad.tobytes() == ref_grads[name].tobytes() for name, grad in grads.items())
        assert terms[L.LossBreakdown.TERMS.index("con")] == 0.0


ACTIVATIONS = {
    "relu": (ad.RELU, oracles.relu_node),
    "sigmoid": (ad.SIGMOID, oracles.sigmoid_node),
    "softmax_rows": (ad.SOFTMAX_ROWS, oracles.softmax_rows_node),
}
LAYER_WIDTHS = {"one_layer": (5, 3), "two_layers": (5, 6, 3)}


def _layers(rng, widths, rows=7):
    """An input and the (w0, b0, w1, b1, ...) arrays of ``widths``."""
    arrays = [rng.normal(size=(rows, widths[0]))]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        arrays += [rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                   rng.uniform(-bound, bound, size=fan_out)]
    return arrays


def _dense(activation):
    return lambda x, *p: ad.dense(x, p[0::2], p[1::2], activation)


def _composed(node):
    return lambda x, *p: oracles.composed_dense(x, p[0::2], p[1::2], node)


class TestDenseLayers:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_activation_matches_composed(self, act, rng):
        # Tensor.activate runs the activations the fused layers share
        activation, node = ACTIVATIONS[act]

        def method(x):
            return x.activate(activation)

        a = rng.normal(size=(9, 4))
        a[0, :2] = 0.0  # the ReLU subgradient at 0
        _assert_same(method, node, [a])
        assert method(Tensor(a)).data.tobytes() == activation.forward(a.copy(), True).tobytes()

    @pytest.mark.parametrize("widths", LAYER_WIDTHS)
    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_composed(self, widths, act, seed):
        activation, node = ACTIVATIONS[act]
        arrays = _layers(np.random.default_rng(seed), LAYER_WIDTHS[widths])
        _assert_same(_dense(activation), _composed(node), arrays, seed=seed)

    @pytest.mark.parametrize("widths", LAYER_WIDTHS)
    def test_constant_input(self, widths, rng):
        # a mapper's or a specific extractor's call on the data
        arrays = _layers(rng, LAYER_WIDTHS[widths])
        live = [False] + [True] * (len(arrays) - 1)
        _assert_same(_dense(ad.RELU), _composed(oracles.relu_node), arrays, live=live)

    @pytest.mark.parametrize("widths", LAYER_WIDTHS)
    def test_constant_parameters(self, widths, rng):
        arrays = _layers(rng, LAYER_WIDTHS[widths])
        live = [True] + [False] * (len(arrays) - 1)
        _assert_same(_dense(ad.SOFTMAX_ROWS), _composed(oracles.softmax_rows_node), arrays,
                     live=live)

    @pytest.mark.parametrize("live, products", [
        ([False, True, True, True, True], 3),   # no adjoint for the input
        ([True, False, False, False, False], 2),  # no weight adjoints
        ([False, False, False, True, True], 1),  # nothing below the last layer
    ], ids=["constant-input", "constant-parameters", "last-layer-only"])
    def test_computes_no_entry_of_a_constant(self, live, products, rng, monkeypatch):
        arrays = _layers(rng, LAYER_WIDTHS["two_layers"])
        inputs = [Tensor(a) if on else ad.lift(a) for a, on in zip(arrays, live)]
        root = _dense(ad.RELU)(*inputs).sum()
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a: calls.append(1) or matmul(*a))
        backward(root)
        assert len(calls) == products

    def test_calls_sharing_parameters(self, rng):
        # the common extractor runs once per view on the same parameters,
        # and its inputs are nodes of one leaf
        def calls(layers):
            def build(x, *p):
                return ad.stack([layers(x * scale, *p) for scale in (1.0, -0.5, 2.0)])
            return build

        arrays = _layers(rng, LAYER_WIDTHS["two_layers"])
        _assert_same(calls(_dense(ad.RELU)), calls(_composed(oracles.relu_node)), arrays)

    def test_all_constant_gives_a_constant(self, rng):
        arrays = _layers(rng, LAYER_WIDTHS["two_layers"])
        out = _dense(ad.RELU)(*map(ad.lift, arrays))
        assert not out.requires_grad and out._parents == ()
        with ad.no_grad():
            out = _dense(ad.RELU)(*map(Tensor, arrays))
        assert not out.requires_grad and out._parents == ()
        reference = oracles.composed_dense(arrays[0], arrays[1::2], arrays[2::2],
                                           oracles.relu_node)
        assert out.data.tobytes() == reference.data.tobytes()


class TestDiscriminatePair:
    @pytest.mark.parametrize("seed", range(3))
    def test_both_nodes_match_composed(self, seed):
        def pair(form):
            def build(c, *p):
                return ad.stack(form(c, p[0::2], p[1::2]))
            return build

        def fused(c, weights, biases):
            return ad.dense(c, weights, biases, ad.SOFTMAX_ROWS, split=True)

        def composed(c, weights, biases):
            return oracles.composed_discriminate(c, weights, biases, oracles.softmax_rows_node)

        arrays = _layers(np.random.default_rng(seed), (5, 6, 3))
        _assert_same(pair(fused), pair(composed), arrays, seed=seed)


class TestPolygammaPass:
    def test_bit_equal_side_by_side(self, rng):
        # the losses call it on parameters and strengths concatenated
        alpha = _alpha(rng, (3, 8, 5))
        strength = alpha.sum(axis=-1, keepdims=True)
        psi, psi1, log_gamma = special.polygamma_pass(
            np.concatenate([alpha, strength], axis=-1), with_lgamma=True
        )
        alone = [special.polygamma_pass(x, with_lgamma=True) for x in (alpha, strength)]
        for part, alpha_part, strength_part in zip((psi, psi1, log_gamma), *alone):
            assert np.ascontiguousarray(part[..., :5]).tobytes() == alpha_part.tobytes()
            assert np.ascontiguousarray(part[..., 5:]).tobytes() == strength_part.tobytes()
