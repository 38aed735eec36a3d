"""Fused nodes against the composed graphs they replace, bit for bit.

``ace_loss``, ``kl_loss``, ``conflict_degree`` and each ``autodiff.dense``
stack of layers are one graph node each; ``oracles`` builds the graph of
elementary nodes each used to be.  Both are run on the same leaves, and the
value and every leaf's adjoint must be equal to the last bit.
``special.polygamma_pass`` must likewise equal the single special functions
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mvtrust import autodiff as ad
from mvtrust import losses as L
from mvtrust import special
from mvtrust.autodiff import Tensor, backward
from mvtrust.opinions import conflict_degree


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
        # no mask, and parameters below 1, which the unmasked form accepts
        alpha = np.exp(np.random.default_rng(seed).normal(0.0, 1.5, size=(3, 7, 4)))
        _assert_same(L.kl_uniform, oracles.composed_kl_uniform, [alpha], seed=seed)

    def test_losses_over_a_node_deliver_into_its_parent(self, rng):
        # the (v, n, q) stack is a node, as in training, and one leaf feeds
        # both losses, so the order of the three paths into it is checked
        evidence, y = np.exp(rng.normal(size=(3, 6, 4))), _labels(rng, 6, 4)

        def both(acc_form, kl_form):
            return lambda e: acc_form(e + 1.0, y) + 0.3 * kl_form(e + 1.0, y)

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
        _assert_same(conflict_degree, oracles.composed_conflict, arrays, seed=seed)

    @pytest.mark.parametrize("live", [[False, True], [True, False]], ids=["a-const", "b-const"])
    def test_one_constant_parent(self, live, rng):
        arrays = [np.exp(rng.normal(size=(6, 4))), np.exp(rng.normal(size=(2, 6, 4)))]
        _assert_same(conflict_degree, oracles.composed_conflict, arrays, live=live)

    def test_zero_difference_has_zero_subgradient(self, rng):
        a = np.exp(rng.normal(size=(6, 4)))
        b = a.copy()
        b[::2] = np.exp(rng.normal(size=(3, 4)))  # rows 1, 3 and 5 stay equal
        _assert_same(conflict_degree, oracles.composed_conflict, [a, b])
        # the equal rows have conflict 0 and pass no adjoint through |p_a - p_b|
        value, grads = _run(conflict_degree, [a, b], [True, True], rng)
        assert np.all(value[1::2] == 0.0)
        assert np.all(grads[0][1::2] == 0.0) and np.all(grads[1][1::2] == 0.0)

    def test_views_of_one_stack(self, rng):
        # con_loss's call: rows and columns are reshapes of one (v, n, q) leaf
        def pairs(form):
            def build(stack):
                v, rest = stack.shape[0], stack.shape[1:]
                return form(stack.reshape((v, 1, *rest)), stack.reshape((1, v, *rest)))
            return build

        _assert_same(pairs(conflict_degree), pairs(oracles.composed_conflict),
                     [np.exp(rng.normal(size=(3, 7, 4)))])

    def test_related_arguments(self, rng):
        # one node as both arguments, and a leaf against a node it feeds
        def self_conflict(form):
            def build(e):
                scaled = e * 1.5
                return form(scaled, scaled) + form(e, e + 1.0)
            return build

        _assert_same(self_conflict(conflict_degree), self_conflict(oracles.composed_conflict),
                     [np.exp(rng.normal(size=(5, 4)))])


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
        # the Tensor methods run the activations the fused layers share
        activation, node = ACTIVATIONS[act]
        method = getattr(Tensor, act)
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


def _shaped(values, kind):
    x = np.array(values, dtype=np.float64)
    if kind == "0-d":
        return x[0]
    if kind == "one":
        return x[:1]
    if kind == "2-d" and x.size % 2 == 0:
        return x.reshape(2, -1)
    return x


class TestPolygammaPass:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-9, max_value=1e6), min_size=1, max_size=12),
        st.sampled_from(["0-d", "one", "1-d", "2-d"]),
    )
    def test_bit_equal_to_the_single_functions(self, values, kind):
        x = _shaped(values, kind)
        psi, psi1, log_gamma = special.polygamma_pass(x, with_lgamma=True)
        expected = (special.digamma(x), special.trigamma(x), special.lgamma(x))
        for got, want in zip((psi, psi1, log_gamma), expected):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape == np.shape(x)
            assert got.tobytes() == want.tobytes()
        assert [np.asarray(v).tobytes() for v in special.polygamma_pass(x)] == [
            np.asarray(psi).tobytes(), np.asarray(psi1).tobytes()
        ]

    def test_bit_equal_side_by_side(self, rng):
        # the losses call it on parameters and strengths concatenated
        alpha = _alpha(rng, (3, 8, 5))
        strength = alpha.sum(axis=-1, keepdims=True)
        psi, psi1, log_gamma = special.polygamma_pass(
            np.concatenate([alpha, strength], axis=-1), with_lgamma=True
        )
        for part, whole in ((psi, special.digamma), (psi1, special.trigamma),
                            (log_gamma, special.lgamma)):
            assert np.ascontiguousarray(part[..., :5]).tobytes() == whole(alpha).tobytes()
            assert np.ascontiguousarray(part[..., 5:]).tobytes() == whole(strength).tobytes()
