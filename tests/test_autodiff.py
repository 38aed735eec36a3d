"""Engine tests: forward semantics, adjoint soundness, optimizer, checker."""

import numpy as np
import pytest

import oracles
from mvtrust import autodiff as ad
from mvtrust import special
from mvtrust.autodiff import Adam, Tensor, backward, grad_check
from mvtrust.errors import ContractError, DomainError, ShapeError


class TestForwardOps:
    def test_relu_definition(self):
        out = Tensor([-1.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_digamma_recurrence(self):
        out = Tensor(2.0).digamma() - Tensor(1.0).digamma()
        assert abs(out.item() - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(1,), (1, 1)])
    def test_item_of_single_element_tensor(self, shape):
        assert Tensor(np.full(shape, 2.5)).item() == 2.5

    def test_matmul_shape(self):
        out = Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 1)))
        assert out.shape == (2, 1)

    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 1\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 1)))

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            Tensor([1.0, 0.0]).log()

    def test_digamma_domain(self):
        with pytest.raises(DomainError):
            Tensor([-0.5]).digamma()

    def test_lgamma_domain(self):
        with pytest.raises(DomainError):
            Tensor([0.0]).lgamma()

    def test_softmax_rows_simplex(self, rng):
        out = Tensor(rng.normal(size=(8, 5))).softmax_rows()
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0])
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_lgamma_adjoint_is_digamma(self):
        x = Tensor(3.0)
        backward(x.lgamma())
        assert abs(float(x.grad) - oracles.reference_digamma(3.0)) < 1e-12

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0])
        backward(x.relu().sum())
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
            loss = ((x @ wt).relu().softmax_rows().clamp(lo=1e-12).log() * -1.0).mean()
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
    return {
        "add": (lambda: (a + b).sum(), [a, b]),
        "sub": (lambda: (a - b).mean(), [a, b]),
        "mul": (lambda: (a * b).sum(), [a, b]),
        "div": (lambda: (a / pos).sum(), [a, pos]),
        "neg": (lambda: (-a).sum(), [a]),
        "matmul": (lambda: (m1 @ m2).sum(), [m1, m2]),
        "matmul_batched": (lambda: (mixer @ batch_a).sum(), [mixer, batch_a]),
        "relu": (lambda: a.relu().sum(), [a]),
        "abs": (lambda: a.abs().sum(), [a]),
        "exp": (lambda: a.exp().sum(), [a]),
        "log": (lambda: pos.log().sum(), [pos]),
        "sigmoid": (lambda: a.sigmoid().sum(), [a]),
        "softmax_rows": (lambda: (a.softmax_rows() * b.detach()).sum(), [a]),
        "digamma": (lambda: pos.digamma().sum(), [pos]),
        "lgamma": (lambda: pos.lgamma().sum(), [pos]),
        "clamp": (lambda: a.clamp(lo=-0.5, hi=0.5).sum(), [a]),
        "sum_axis": (lambda: (a.sum(axis=1, keepdims=True) * b.detach()).sum(), [a]),
        "mean_axis": (lambda: (a.mean(axis=0) * vec1.detach().data[:4]).sum(), [a]),
        "transpose": (lambda: (a.transpose() * b.transpose().detach()).sum(), [a]),
        "reshape": (lambda: (a.reshape((4, 3)) * 1.5).sum(), [a]),
        "stack": (lambda: ad.stack(stackable, axis=1).mean(), stackable),
        "take": (lambda: batch_a.take(1, axis=1).sum(), [batch_a]),
    }


class TestGradientSoundness:
    @pytest.mark.parametrize("seed", range(100))
    def test_registered_ops_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        for name, (fn, params) in _op_cases(rng).items():
            report = grad_check(fn, params, h=1e-5, tol=1e-4)
            assert report.passed, f"op {name}: max rel err {report.max_rel_error:.2e}"


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


class TestGradCheck:
    def test_quadratic_is_tight(self, rng):
        x = Tensor(rng.normal(size=6))
        report = grad_check(lambda: (x * x).sum(), [x], h=1e-5)
        assert report.max_rel_error < 1e-8

    def test_kl_loss_gradient(self, rng):
        from mvtrust import losses

        e = Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
        y = np.eye(3)[rng.integers(3, size=4)]
        report = grad_check(lambda: losses.kl_loss(e + 1.0, y), [e], h=1e-5)
        assert report.max_rel_error < 1e-4

    def test_ace_loss_gradient(self, rng):
        from mvtrust import losses

        e = Tensor(rng.uniform(0.5, 3.0, size=(4, 3)))
        y = np.eye(3)[rng.integers(3, size=4)]
        report = grad_check(lambda: losses.ace_loss(e + 1.0, y), [e], h=1e-5)
        assert report.max_rel_error < 1e-4
