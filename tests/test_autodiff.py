"""Engine tests: forward semantics, adjoint soundness, optimizer, checker."""

import operator
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from mvtrust import autodiff as ad
from mvtrust import losses, special
from mvtrust.autodiff import Adam, Tensor, backward, grad_check
from mvtrust.errors import ContractError, DomainError, ShapeError
from mvtrust.data import split, standardize, synthesize
from mvtrust.networks import Model, ModelSpec
from mvtrust.pipeline import TrainConfig, forward_pass, one_hot, training_objective


class TestForwardOps:
    def test_relu_definition(self):
        out = Tensor([-1.0, 2.0]).activate(ad.RELU)
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_digamma_recurrence(self):
        psi, _ = special.polygamma_pass(np.array([1.0, 2.0]))
        assert abs(psi[1] - psi[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(1,), (1, 1)])
    def test_item_of_single_element_tensor(self, shape):
        assert Tensor(np.full(shape, 2.5)).item() == 2.5

    def test_matmul_shape(self):
        out = Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 1)))
        assert out.shape == (2, 1)

    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 1\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 1)))

    @pytest.mark.parametrize("call, error, named", [
        (lambda: Tensor(np.ones(2)).item(), ContractError,
         "item: tensor has shape (2,), not scalar"),
        (lambda: Tensor(np.ones(3)) @ Tensor(np.ones((3, 2))), ShapeError,
         "matmul: operands must be >= 2-d, got (3,) @ (3, 2)"),
        (lambda: Tensor(np.ones((2, 1, 3))) @ Tensor(np.ones((3, 3, 1))), ShapeError,
         "matmul: batch dims incompatible, (2, 1, 3) @ (3, 3, 1)"),
        (lambda: Tensor(np.ones(3)).transpose(), ShapeError,
         "transpose: needs >= 2 axes, got (3,)"),
        (lambda: Tensor(np.ones((2, 3))).reshape((4,)), ShapeError,
         "reshape: cannot view (2, 3) as (4,)"),
        (lambda: ad.dense(np.ones(3), [Tensor(np.ones((3, 2)))], [Tensor(np.ones(2))], ad.RELU),
         ShapeError, "dense: input must be >= 2-d, got (3,)"),
        (lambda: ad.stack([]), ContractError, "stack: needs at least one tensor"),
        (lambda: ad.stack([np.ones(2), np.ones(3)]), ShapeError,
         "stack: mixed shapes [(2,), (3,)]"),
        (lambda: Tensor(2.0).activate(ad.SOFTMAX_ROWS), ShapeError,
         "softmax_rows: needs at least one axis"),
        (lambda: grad_check(lambda: Tensor(np.ones(2)) * 1.0, []), ContractError,
         "grad_check: f() must return a scalar tensor"),
        (lambda: Tensor(np.ones((2, 3))).sum(axis=(0, 1)), ShapeError,
         "sum: axis must be an int or None, got (0, 1)"),
        (lambda: Tensor(np.ones((2, 3))).mean(axis=(0, 1)), ShapeError,
         "mean: axis must be an int or None, got (0, 1)"),
    ], ids=["item-non-scalar", "matmul-1d", "matmul-batch-dims", "transpose-1d",
            "reshape-other-size", "dense-1d", "stack-nothing", "stack-mixed-shapes",
            "softmax-0d", "grad-check-non-scalar", "sum-tuple-axis", "mean-tuple-axis"])
    def test_contract_violation_named(self, call, error, named):
        with pytest.raises(error, match=f"^{re.escape(named)}$"):
            call()

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))

    def test_log_domain(self):
        # the floor keeps the log of cross_entropy inside its domain: zero and
        # negative probabilities give a finite loss and no adjoint
        p = Tensor([[0.0, 1.0], [-1.0, 2.0]])
        loss = losses.cross_entropy(p, np.eye(2)[[0, 0]])
        assert loss.item() == -np.log(1e-12)
        backward(loss)
        np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))

    def test_digamma_domain(self):
        with pytest.raises(DomainError, match="polygamma_pass"):
            special.polygamma_pass(np.array([2.0, -0.5]))

    def test_lgamma_domain(self):
        with pytest.raises(DomainError, match="polygamma_pass"):
            special.polygamma_pass(np.array([0.0]), with_lgamma=True)

    def test_softmax_rows_simplex(self, rng):
        out = Tensor(rng.normal(size=(8, 5))).activate(ad.SOFTMAX_ROWS)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_transpose_is_a_view_and_contiguous_a_copy(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        swapped = x.transpose(0, 1)
        assert swapped.shape == (3, 2, 4) and np.shares_memory(swapped.data, x.data)
        copied = swapped.contiguous()
        assert copied.data.flags.c_contiguous and not np.shares_memory(copied.data, x.data)
        np.testing.assert_array_equal(copied.data, np.swapaxes(x.data, 0, 1))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0])
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_lgamma_adjoint_is_digamma(self):
        # d lnGamma = psi: the log-normalizer's psi(S) - psi(alpha) cancels the
        # concentration's psi(alpha) - psi(S), leaving the trigamma terms
        alpha = np.array([[3.0, 1.5, 7.0]])
        x = Tensor(alpha)
        backward(losses.kl_loss(x, np.zeros(alpha.shape)))
        strength = alpha.sum()
        expected = (alpha - 1.0) * special.trigamma(alpha) - (strength - 3.0) * float(
            oracles.reference_trigamma(strength)
        )
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-14)

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0])
        backward(x.activate(ad.RELU).sum())
        assert x.grad[0] == 0.0

    def test_root_must_be_scalar(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ContractError):
            backward(x * x)

    def test_bit_identical_reruns(self, rng):
        data = rng.normal(size=(4, 4))
        w = rng.normal(size=(4, 3))

        def run():
            x, wt = Tensor(data), Tensor(w)
            probs = (x @ wt).activate(ad.RELU).activate(ad.SOFTMAX_ROWS)
            loss = losses.cross_entropy(probs, np.eye(3)[[0, 2, 1, 1]])
            backward(loss)
            return wt.grad.copy()

        np.testing.assert_array_equal(run(), run())

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0])
        y = (x.detach() * x).sum()
        backward(y)
        np.testing.assert_array_equal(x.grad, [2.0])  # only the live branch

    def test_shared_node_accumulates(self):
        x = Tensor([3.0])
        y = x + x
        backward(y.sum())
        np.testing.assert_array_equal(x.grad, [2.0])


class TestConstants:
    def test_lift_and_detach_make_constants(self):
        x = Tensor([1.0, 2.0])
        assert x.requires_grad
        for constant in (ad.lift(3.0), ad.lift(np.ones(2)), x.detach()):
            assert not constant.requires_grad and constant._parents == ()

    def test_ops_over_constants_give_parentless_constants(self):
        a, b = ad.lift(np.ones((2, 3))), ad.lift(np.ones((3, 2)))
        for out in ((a + 1.0) * 2.0, a @ b, (a @ b).activate(ad.RELU).sum(), ad.stack([a, a])):
            assert not out.requires_grad
            assert out._parents == () and out._vjp is None

    def test_backward_leaves_constants_without_grad(self):
        x = Tensor([1.0, 2.0])
        scale = ad.lift(3.0)
        other = Tensor([4.0, 5.0])
        frozen = other.detach()
        backward((x * scale + x * frozen).sum())
        np.testing.assert_array_equal(x.grad, [7.0, 8.0])
        assert scale.grad is None and frozen.grad is None and other.grad is None

    @pytest.mark.parametrize("constant_side", [0, 1])
    @pytest.mark.parametrize("op", [
        operator.mul, oracles.sub_node, operator.truediv, operator.matmul,
        lambda a, b: ad.stack([a, b]),
    ], ids=["mul", "sub", "div", "matmul", "stack"])
    def test_backward_never_calls_a_constant_parents_closure(self, rng, op, constant_side):
        """Each vjp also computes the entry of a constant parent, and
        ``backward`` drops it: the live operand's adjoint next to a constant
        partner is, byte for byte, its adjoint when both operands are live."""
        right = (3, 2) if op is operator.matmul else (4, 3)
        arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in ((4, 3), right)]

        def live_adjoint(partner_live):
            operands = [Tensor(a.copy()) for a in arrays]
            if not partner_live:
                operands[constant_side] = ad.lift(arrays[constant_side].copy())
            backward(op(*operands).sum())
            assert partner_live or operands[constant_side].grad is None
            return operands[1 - constant_side].grad

        alone, together = live_adjoint(False), live_adjoint(True)
        assert alone.shape == together.shape
        assert alone.tobytes() == together.tobytes()

    def test_no_grad_nests_and_restores(self):
        x = Tensor([1.0])
        with ad.no_grad():
            with ad.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_no_grad_restores_after_an_exception(self):
        x = Tensor([1.0])
        with pytest.raises(ShapeError):
            with ad.no_grad():
                Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
        assert (x * 2.0).requires_grad

    @pytest.mark.parametrize("build", [
        lambda x: ad.lift(3.0),
        lambda x: _under_no_grad(lambda: (x * x).sum()),
    ], ids=["lifted-number", "built-under-no-grad"])
    def test_backward_refuses_a_root_that_requires_no_gradient(self, build):
        x = Tensor([1.0, 2.0])
        root = build(x)
        with pytest.raises(ContractError, match="^backward: root requires no gradient$"):
            backward(root)
        assert root.grad is None and x.grad is None

    def test_first_adjoint_takes_the_layout_of_the_value(self, rng):
        # the adjoint reaching p through transpose is transposed in memory;
        # the stored grad must be laid out like p.data, as zeros_like is
        p = Tensor(rng.normal(size=(3, 4)))
        backward((p.transpose() * rng.normal(size=(4, 3))).sum())
        assert p.grad.strides == np.zeros_like(p.data).strides

    def test_evaluate_builds_no_graph(self, tiny_dataset, monkeypatch):
        from mvtrust import pipeline
        from mvtrust.data import standardize, split
        from mvtrust.networks import Model, ModelSpec

        train_raw, test_raw = split(tiny_dataset, 0.5, seed=1)
        _, test_std, stats = standardize(train_raw, test_raw)
        cfg = pipeline.TrainConfig(subspace_dim=8)
        model = Model(ModelSpec(view_dims=test_std.view_dims, n_classes=2, subspace_dim=8, seed=1))
        bundles = []
        forward = pipeline.forward_pass

        def recording(*args):
            bundles.append(forward(*args))
            return bundles[-1]

        monkeypatch.setattr(pipeline, "forward_pass", recording)
        pipeline.evaluate(pipeline.TrainedModel(model, cfg, stats), test_std)
        (bundle,) = bundles
        tensors = [value for value in vars(bundle).values() if isinstance(value, Tensor)]
        tensors += bundle.specific_views
        assert len(tensors) == 8 + test_std.n_views
        assert all(t._parents == () and not t.requires_grad for t in tensors)
        assert (model.w_value * 1.0).requires_grad


def _under_no_grad(build):
    with ad.no_grad():
        return build()


def _graph(root):
    """``(interior, leaves)``: the nodes with parents and the leaves that
    require a gradient, reachable from ``root``, each once, in walk order."""
    interior, leaves, seen, todo = [], [], set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        (interior if node._parents else leaves).append(node)
        todo.extend(node._parents)
    return interior, leaves


def _assert_reference_adjoints(build):
    """``backward`` gives every leaf of ``build()``'s graph the adjoint that
    ``oracles.reference_backward`` gives it, byte for byte and in the same
    layout, and no two leaves' adjoints share memory.  Each walk runs on a
    graph of its own."""
    root = build()
    leaves = _graph(root)[1]
    oracles.reference_backward(root)
    expected = [leaf.grad for leaf in leaves]
    ad.zero_grads(leaves)
    root = build()
    assert _graph(root)[1] == leaves
    backward(root)
    for leaf, want in zip(leaves, expected):
        got = leaf.grad
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
    for i, leaf in enumerate(leaves):
        assert not any(np.shares_memory(leaf.grad, other.grad) for other in leaves[i + 1:])


def _aliasing_cases(rng):
    """Graphs whose vjps hand one array, or views of one array, to several
    entries, or return an array ``backward`` must not keep: name ->
    zero-argument builder of the root."""
    x, y = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    cube = Tensor(rng.normal(size=(2, 3, 4)))
    w, w3 = rng.normal(size=(3, 4)), rng.normal(size=(3, 3, 4))
    a, b, c, d = (Tensor(rng.uniform(0.5, 2.0)) for _ in range(4))
    return {
        "x+x": lambda: ((x + x) * w).sum(),
        "x*x": lambda: ((x * x) * w).sum(),
        "x+y": lambda: ((x + y) * w).sum(),
        "stack-x-x-y": lambda: (ad.stack([x, x, y]) * w3).sum(),
        "transpose-contiguous": lambda: (cube.transpose(0, 1).contiguous() * w3[:, :2]).sum(),
        # overall_loss hands its adjoint array g to both h1 and h2, here two
        # leaves, into one of which a later product adds
        "overall-g-twice": lambda: losses.overall_loss(a, b, c, c, d, 0.3, 0.7) + a * b,
        # fresh entries that backward must still copy: another layout, another dtype
        "transposed-entry": lambda: (ad.fused(x.data * 2.0, (x,), lambda g: (
            np.ascontiguousarray(g.T * 2.0).T,)) * w).sum(),
        "int64-entry": lambda: (ad.fused(x.data * 2.0, (x,), lambda g: (
            (g * 2.0).astype(np.int64),)) * w).sum(),
    }


# one entry per op: (f, params) for grad_check
def _op_cases(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    m1 = Tensor(rng.normal(size=(3, 4)))
    m2 = Tensor(rng.normal(size=(4, 2)))
    pos = Tensor(rng.uniform(0.2, 5.0, size=(3, 4)))
    vec1 = Tensor(rng.normal(size=5))
    rng.normal(size=5)  # keeps the draws of the later cases fixed
    stackable = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
    batch_a = Tensor(rng.normal(size=(2, 3, 4)))
    mixer = Tensor(rng.normal(size=(3, 3)))
    onehot = np.eye(4)[[0, 3, 1]]
    return {
        "add": (lambda: (a + b).sum(), [a, b]),
        "mul": (lambda: (a * b).sum(), [a, b]),
        "div": (lambda: (a / pos).sum(), [a, pos]),
        "matmul": (lambda: (m1 @ m2).sum(), [m1, m2]),
        "matmul_batched": (lambda: (mixer @ batch_a).sum(), [mixer, batch_a]),
        "relu": (lambda: a.activate(ad.RELU).sum(), [a]),
        "conflict": (lambda: oracles.conflict_node(pos, b * b).sum(), [pos, b]),
        "adv": (lambda: losses.adv_loss(a.activate(ad.SOFTMAX_ROWS), onehot), [a]),
        "cross_entropy": (
            lambda: losses.cross_entropy(pos.activate(ad.SOFTMAX_ROWS), onehot), [pos]
        ),
        "sigmoid": (lambda: a.activate(ad.SIGMOID).sum(), [a]),
        "softmax_rows": (lambda: (a.activate(ad.SOFTMAX_ROWS) * b.detach()).sum(), [a]),
        "ace": (lambda: losses.ace_loss(pos + 1.0, onehot), [pos]),
        "kl": (lambda: losses.kl_loss(pos + 1.0, onehot), [pos]),
        "cml": (lambda: losses.cml_loss(a.activate(ad.SIGMOID), onehot), [a]),
        "spe": (lambda: losses.spe_loss(batch_a, b.detach().data), [batch_a]),
        "sum_axis": (lambda: (a.sum(axis=1, keepdims=True) * b.detach()).sum(), [a]),
        "mean_axis": (lambda: (a.mean(axis=0) * vec1.detach().data[:4]).sum(), [a]),
        "transpose": (lambda: (a.transpose() * b.transpose().detach()).sum(), [a]),
        "reshape": (lambda: (a.reshape((4, 3)) * 1.5).sum(), [a]),
        "stack": (lambda: (ad.stack(stackable) * mixer.data[:, :2, None]).sum(), stackable),
        "transpose_leading": (
            lambda: (batch_a.transpose(0, 1) * mixer.data[:, :2, None]).sum(), [batch_a]
        ),
        "contiguous": (
            lambda: (batch_a.transpose(0, 1).contiguous() * mixer.data[:, 1:, None]).sum(),
            [batch_a],
        ),
    }


class TestGradientSoundness:
    @pytest.mark.parametrize("seed", range(100))
    def test_registered_ops_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        for name, (fn, params) in _op_cases(rng).items():
            err = grad_check(fn, params, h=1e-5)
            assert err < 1e-4, f"op {name}: max rel err {err:.2e}"


class TestObjectiveGradient:
    """The adjoints of the whole training objective, through every stage,
    against central differences, on a fixed random sample of entries of
    every parameter array of a fresh 3-view model.

    The objective's adversarial split needs two scalars: the
    discriminator's parameters take the difference of its cross-entropy,
    the root minus the logged ``overall``, and every other parameter that
    of ``overall``.  The relative error is ``grad_check``'s.  A ReLU unit
    that crosses zero within ±h, or rounding on a gradient near 1e-8, makes
    one step size disagree, so an entry fails only where it disagrees at h,
    h/10 and 10·h alike; a wrong vjp disagrees at every step size.
    """

    STEPS = (1e-5, 1e-6, 1e-4)
    ENTRIES = 16  # per parameter array, or all of a smaller one

    def test_matches_finite_differences(self):
        ds = synthesize(3, 3, 24, (4, 5, 6), seed=9)
        cfg, y = TrainConfig(subspace_dim=8), one_hot(ds.labels, 3)
        model = Model(ModelSpec(ds.view_dims, 3, subspace_dim=8, seed=0))

        def objective():
            bundle = forward_pass(model, ds.views, cfg)
            root, terms = training_objective(model, bundle, y, cfg, 0.5)
            return root, terms[losses.LossBreakdown.TERMS.index("overall")]

        root, _ = objective()
        backward(root)
        params = model.named_params()
        assert all(p.grad is not None for _, p in params)
        analytic = {name: p.grad.reshape(-1).copy() for name, p in params}
        ad.zero_grads([p for _, p in params])

        def scalar(disc):
            with ad.no_grad():
                root, overall = objective()
            return root.item() - overall if disc else overall

        def error(flat, j, h, disc, ana):
            orig = flat[j]
            flat[j] = orig + h
            plus = scalar(disc)
            flat[j] = orig - h
            minus = scalar(disc)
            flat[j] = orig
            numeric = (plus - minus) / (2.0 * h)
            return abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)

        rng = np.random.default_rng(0)
        failures = []
        for name, p in params:
            flat, disc = p.data.reshape(-1), name.startswith("disc.")
            for j in rng.permutation(flat.size)[: self.ENTRIES]:
                errors = []
                for h in self.STEPS:
                    errors.append(error(flat, j, h, disc, analytic[name][j]))
                    if errors[-1] <= 1e-4:
                        break
                else:
                    failures.append(f"{name}[{j}]: {', '.join(f'{e:.1e}' for e in errors)}")
        assert not failures, f"adjoints off at every step size: {failures}"


@pytest.fixture(scope="module")
def acceptance_train(acceptance_dataset):
    """The acceptance split's standardized 800 training rows."""
    return standardize(*split(acceptance_dataset, 0.8, seed=7))[0]


def _acceptance_step(ds, rows, **config):
    """The model and a zero-argument builder of one training step on the
    first ``rows`` rows of ``ds``, which returns the forward bundle and the
    objective; the model is built once, so every call makes the same graph
    over the same leaves."""
    cfg = TrainConfig(seed=7, **config)
    model = Model(ModelSpec(ds.view_dims, ds.n_classes, subspace_dim=cfg.subspace_dim,
                            seed=cfg.seed))
    views, y = [v[:rows] for v in ds.views], one_hot(ds.labels[:rows], ds.n_classes)

    def step():
        bundle = forward_pass(model, views, cfg)
        return bundle, training_objective(model, bundle, y, cfg, 0.5)[0]

    return model, step


class TestLeafAdjoints:
    """``backward`` keeps only leaf adjoints, copies every first adjoint, and
    stays byte-equal to the walk that also kept every node's ``grad``."""

    @pytest.mark.parametrize("rows", [800, 32])
    @pytest.mark.parametrize("config", [{}, {"uniform_attention": True}, {"bypass_h1": True}],
                             ids=["default", "uniform_attention", "bypass_h1"])
    def test_acceptance_step_matches_reference(self, acceptance_train, rows, config):
        assert acceptance_train.n_samples == 800
        step = _acceptance_step(acceptance_train, rows, **config)[1]
        _assert_reference_adjoints(lambda: step()[1])

    @pytest.mark.parametrize("case", list(_aliasing_cases(np.random.default_rng(0))))
    def test_aliased_entries_match_reference(self, case):
        _assert_reference_adjoints(_aliasing_cases(np.random.default_rng(0))[case])

    def test_full_batch_step_holds_only_parameter_adjoints(self, acceptance_train):
        model, step = _acceptance_step(acceptance_train, 800)
        bundle, objective = step()
        interior, leaves = _graph(objective)
        assert {id(p) for p in leaves} == {id(p) for p in model.trainable_params()}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(objective)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the 36,466 parameter adjoints, plus room for small Python objects;
        # keeping every interior adjoint held about 17 MB here
        assert sum(p.grad.nbytes for p in leaves) == 36_466 * 8
        assert held <= 36_466 * 8 + 64 * 1024, held
        # the forward stages, the loss nodes and the root
        stages = [*(t for t in vars(bundle).values() if isinstance(t, Tensor)),
                  *bundle.specific_views]
        assert all(t._parents for t in stages) and len(interior) > len(stages)
        assert all(node.grad is None for node in (*stages, *interior))

    def test_vjp_may_return_a_captured_forward_array(self):
        # the first adjoint into x is the array the fused node captured, and
        # the product adds a second one after it
        x = Tensor(np.zeros((2, 3)))
        captured = np.full((2, 3), 2.0)
        other = x * 1.0
        first = ad.fused(captured, (x, other), lambda g: (captured, g))
        backward(first.sum())
        np.testing.assert_array_equal(captured, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
        assert not np.shares_memory(x.grad, captured)


class TestSpecialFunctions:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_digamma_recurrence_identity(self, x):
        assert abs(float(special.digamma(x + 1.0) - special.digamma(x)) - 1.0 / x) < 1e-10

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_lgamma_recurrence_identity(self, x):
        lhs = float(special.lgamma(x + 1.0) - special.lgamma(x))
        assert abs(lhs - np.log(x)) < 1e-10

    def test_digamma_at_one_is_negative_euler(self):
        assert abs(float(special.digamma(1.0)) - oracles.reference_digamma(1.0)) < 1e-14

    def test_digamma_half_integer_identity(self):
        # psi(1/2) = -euler - 2 ln 2
        expected = -0.5772156649015329 - 2.0 * np.log(2.0)
        assert abs(float(special.digamma(0.5)) - expected) < 1e-12

    @pytest.mark.parametrize("x", [1e-3, 0.37, 1.0, 4.2, 9.99, 10.01, 123.4, 1e4, 1e6])
    def test_digamma_against_high_precision(self, x):
        ref = oracles.reference_digamma(x)
        assert abs(float(special.digamma(x)) - ref) <= 1e-12 + 1e-14 * abs(ref)

    @pytest.mark.parametrize("x", [1e-3, 0.37, 1.0, 4.2, 9.99, 10.01, 123.4, 1e4, 1e6])
    def test_lgamma_against_high_precision(self, x):
        ref = oracles.reference_lgamma(x)
        assert abs(float(special.lgamma(x)) - ref) <= 1e-12 + 1e-13 * abs(ref)

    @pytest.mark.parametrize("x", [1e-3, 0.37, 1.0, 4.2, 9.99, 10.01, 123.4, 1e4, 1e6])
    def test_trigamma_against_high_precision(self, x):
        ref = oracles.reference_trigamma(x)
        assert abs(float(special.trigamma(x)) - ref) <= 1e-12 + 1e-13 * abs(ref)


    @pytest.mark.filterwarnings("error")
    def test_huge_arguments_take_every_step_quietly(self):
        # every element steps through x..x+9, so no term may overflow
        x = np.array([1e160, 1e300])
        np.testing.assert_allclose(special.trigamma(x), 1.0 / x, rtol=1e-12)
        np.testing.assert_allclose(special.digamma(x), np.log(x), rtol=1e-12)
        np.testing.assert_allclose(special.lgamma(x), x * (np.log(x) - 1.0), rtol=1e-12)


class TestAdam:
    def test_zero_gradients_leave_only_decay(self):
        p = Tensor([1.0, -2.0])
        before = p.data.copy()
        opt = Adam([p], lr=1e-3, weight_decay=1e-5)
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_allclose(p.data, before * (1.0 - 1e-3 * 1e-5), rtol=0, atol=1e-18)

    def test_first_step_is_bias_corrected(self):
        p = Tensor([0.0])
        opt = Adam([p], lr=1e-3, weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step()
        # m_hat = 1, v_hat = 1 on step one, so the update is -lr/(1 + eps)
        assert abs(p.data[0] + 1e-3 / (1.0 + 1e-8)) < 1e-12

    def test_step_count_increments_and_grads_cleared(self):
        p = Tensor([1.0])
        opt = Adam([p])
        assert opt.step_count == 0
        p.grad = np.ones(1)
        opt.step()
        assert opt.step_count == 1
        assert p.grad is None

    def test_missing_adjoint_rejected(self):
        opt = Adam([Tensor([1.0])])
        with pytest.raises(ContractError):
            opt.step()

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ContractError, match="parameter list is empty"):
            Adam([])

    def test_parameter_listed_twice_rejected(self):
        # packed twice, it made every step fail as if its data had been rebound
        t, u = Tensor([1.0]), Tensor([2.0])
        with pytest.raises(ContractError, match=r"^adam: parameter 2 is listed twice$"):
            Adam([t, u, t])
        assert t.data.base is None and u.data.base is None  # refused before packing

    @pytest.mark.parametrize("shape", [(3,), (1,)], ids=["row", "one"])
    def test_misshapen_adjoint_set_by_hand_rejected(self, shape):
        # copied into the packed adjoint, it would be broadcast over the parameter
        p = Tensor(np.zeros((2, 3)))
        opt = Adam([Tensor([1.0]), p])
        opt.params[0].grad, p.grad = np.ones(1), np.ones(shape)
        with pytest.raises(ContractError, match=rf"^adam_step: parameter 1 has shape \(2, 3\), "
                                                rf"but its adjoint has shape \({shape[0]},\)$"):
            opt.step()
        assert opt.step_count == 0 and not opt.values[1:].any()

    def test_backward_writes_packed_adjoints_into_grads(self):
        # a packed parameter's first adjoint goes into its slice of grads, and
        # it reads the adjoint of the same graph over unpacked parameters
        params = [Tensor(np.arange(6.0).reshape(2, 3)), Tensor([7.0])]
        fresh = [Tensor(p.data.copy()) for p in params]
        opt = Adam(params)
        for a, b in (params, fresh):
            backward((a * a).sum() * b.sum() + a.sum())
        for p, q in zip(params, fresh):
            assert np.shares_memory(p.grad, opt.grads)
            assert p.grad.tobytes() == q.grad.tobytes()
        opt.step()
        assert all(p.grad is None for p in params)

    @pytest.mark.parametrize("case", ["model", "uniform_attention", "one"])
    def test_flat_update_is_bit_equal_to_per_array(self, case):
        def params():
            if case == "one":
                return [Tensor(np.random.default_rng(4).normal(size=(3, 5)))]
            model = Model(ModelSpec(view_dims=(4, 5, 6), n_classes=3, subspace_dim=8, seed=2))
            return model.trainable_params(uniform_attention=case == "uniform_attention")

        flat, per_array = params(), params()
        opt, oracle = Adam(flat, lr=3e-3), oracles.PerArrayAdam(per_array, lr=3e-3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            for p, q in zip(flat, per_array):
                p.grad = rng.normal(scale=rng.uniform(1e-3, 10.0), size=p.shape)
                q.grad = p.grad.copy()
            opt.step()
            oracle.step()
            for p, q in zip(flat, per_array):
                assert p.data.tobytes() == q.data.tobytes()
        assert opt.step_count == oracle.step_count == 5

    def test_parameters_are_views_of_one_buffer(self):
        params = [Tensor(np.arange(6.0).reshape(2, 3)), Tensor([7.0]), Tensor(np.ones((2, 2)))]
        before = [p.data.copy() for p in params]
        opt = Adam(params)
        for p, values in zip(params, before):
            assert np.shares_memory(p.data, opt.values)
            np.testing.assert_array_equal(p.data, values)

    def test_rebound_data_rejected(self):
        # a rebound parameter would no longer be updated, so step refuses it
        params = [Tensor([1.0, 2.0]), Tensor([3.0])]
        opt = Adam(params)
        params[1].data = params[1].data.copy()
        for p in params:
            p.grad = np.ones(p.shape)
        with pytest.raises(ContractError, match="rebound"):
            opt.step()

    def test_step_allocates_no_parameter_sized_temporary(self):
        # the acceptance model: 36,466 values, 292 KB per parameter-sized temporary
        model = Model(ModelSpec(view_dims=(20, 30, 25), n_classes=4, seed=7))
        params = model.trainable_params()
        assert sum(p.size for p in params) == 36_466
        opt = Adam(params)
        rng = np.random.default_rng(0)
        for step in range(3):
            for p in params:
                p.grad = rng.normal(size=p.shape)
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 1024, (step, peak)


class TestHeapTopPad:
    # importing autodiff asks glibc's mallopt for a heap top pad; a libc that
    # cannot be opened, or that has no mallopt, must not stop the import
    @pytest.mark.parametrize("libc", ["cdll-fails", "no-mallopt"])
    def test_import_without_mallopt_raises_nothing(self, libc):
        code = f"""
import ctypes
import numpy
calls = []
def cdll(*args, **kwargs):
    calls.append(args)
    if {libc!r} == "cdll-fails":
        raise OSError("no libc")
    return object()
ctypes.CDLL = cdll
import mvtrust
print(len(calls))
"""
        src = Path(ad.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        # a child process, so this test run's own allocator is not touched
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        # on glibc the import reached the failing call; elsewhere it never makes it
        assert done.stdout.split() == ["1" if platform.libc_ver()[0] == "glibc" else "0"]


class TestGradCheck:
    def test_quadratic_is_tight(self, rng):
        x = Tensor(rng.normal(size=6))
        assert grad_check(lambda: (x * x).sum(), [x], h=1e-5) < 1e-8

    def test_kl_loss_gradient(self, rng):
        e = Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
        y = np.eye(3)[rng.integers(3, size=4)]
        assert grad_check(lambda: losses.kl_loss(e + 1.0, y), [e], h=1e-5) < 1e-4

    def test_ace_loss_gradient(self, rng):
        e = Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
        y = np.eye(3)[rng.integers(3, size=4)]
        assert grad_check(lambda: losses.ace_loss(e + 1.0, y), [e], h=1e-5) < 1e-4
