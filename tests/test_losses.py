"""Loss semantics: pinned example values, oracle equality, gradient checks."""

import re

import numpy as np
import pytest

import oracles
from mvtrust import losses as L
from mvtrust.autodiff import SIGMOID, SOFTMAX_ROWS, Tensor, backward, grad_check
from mvtrust.errors import ContractError, DomainError, ShapeError
from mvtrust.opinions import conflict_degree

LOG2 = float(np.log(2.0))


def _onehot(rng, n, q):
    return np.eye(q)[rng.integers(q, size=n)]


class TestAdvLoss:
    def test_perfect_discriminator_maximal(self):
        z = np.eye(2)
        assert abs(L.adv_loss(Tensor(z), z).item() - 1.0) < 1e-12

    def test_uniform_two_views(self):
        z_hat = Tensor(np.full((6, 2), 0.5))
        z = np.tile(np.eye(2), (3, 1))
        assert abs(L.adv_loss(z_hat, z).item() - 0.5) < 1e-12

    def test_huge_cross_entropy_vanishes(self):
        z_hat = Tensor(np.array([[1e-12, 1.0 - 1e-12]]))
        z = np.array([[1.0, 0.0]])
        assert L.adv_loss(z_hat, z).item() < 1e-10

    def test_zero_probability_is_floored(self):
        z_hat = Tensor(np.array([[0.0, 1.0]]))
        z = np.array([[1.0, 0.0]])
        value = L.adv_loss(z_hat, z).item()
        assert 0.0 < value < 1e-10

    def test_discriminator_losses_need_one_array(self):
        z = np.eye(2)
        with pytest.raises(ContractError, match="one array"):
            L.discriminator_losses(Tensor(z), Tensor(z.copy()), z)


class TestCmlLoss:
    def test_exact_prediction_is_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert L.cml_loss(Tensor(y), y).item() < 1e-10

    def test_half_probabilities_give_log2_per_slot(self):
        y = np.array([[1.0, 0.0]])
        assert abs(L.cml_loss(Tensor(np.full((1, 2), 0.5)), y).item() - LOG2) < 1e-12

    def test_monotone_toward_truth(self):
        y = np.array([[1.0, 0.0]])
        vals = [
            L.cml_loss(Tensor(np.array([[p, 0.5]])), y).item() for p in (0.6, 0.8, 0.99)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestComSpe:
    def test_com_is_additive(self, rng):
        # the objective's com term is adv + cml, so delta weighs both alike
        for _ in range(3):
            a, c = Tensor(rng.uniform(0.1, 1.0)), Tensor(rng.uniform(0.1, 1.0))
            zero = Tensor(0.0)
            backward(L.overall_loss(zero, zero, a, c, zero, 0.7, 0.01))
            assert a.grad == c.grad == 0.7

    def test_orthogonal_pair_is_zero(self):
        s = Tensor(np.array([[[1.0, 2.0]]]))
        c = Tensor(np.array([[2.0, -1.0]]))
        assert L.spe_loss(s, c).item() == 0.0

    def test_single_view_value(self):
        s = Tensor(np.array([[[1.0, 1.0]]]))
        c = Tensor(np.array([[1.0, 2.0]]))
        assert abs(L.spe_loss(s, c).item() - 9.0) < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ContractError):
            L.spe_loss(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((2, 4))))


class TestAceLoss:
    def test_recurrence_half(self):
        y = np.array([[1.0, 0.0]])
        assert abs(L.ace_loss(Tensor(np.array([[2.0, 1.0]])), y).item() - 0.5) < 1e-12

    def test_recurrence_hundredth(self):
        y = np.array([[1.0, 0.0]])
        assert abs(L.ace_loss(Tensor(np.array([[100.0, 1.0]])), y).item() - 0.01) < 1e-12

    def test_all_ones_gives_unity(self):
        y = np.array([[1.0, 0.0]])
        assert abs(L.ace_loss(Tensor(np.array([[1.0, 1.0]])), y).item() - 1.0) < 1e-12

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ContractError):
            L.ace_loss(Tensor(np.array([[0.5, 2.0]])), np.array([[1.0, 0.0]]))


def _kl_unmasked(alpha):
    """KL[Dir(alpha) || Dir(1)], batch mean: all-zero labels spare no class."""
    return L.kl_loss(Tensor(alpha), np.zeros(alpha.shape)).item()


class TestKlLoss:
    def test_uniform_parameters_zero(self):
        assert abs(_kl_unmasked(np.ones((1, 4)))) < 1e-12

    def test_closed_form_two_one(self):
        value = _kl_unmasked(np.array([[2.0, 1.0]]))
        assert abs(value - (LOG2 - 0.5)) < 1e-12

    def test_non_negative_random(self, rng):
        for _ in range(200):
            q = rng.integers(2, 6)
            at = rng.uniform(1.0, 8.0, size=(5, q))
            assert _kl_unmasked(at) >= -1e-12

    def test_mask_spares_true_class(self):
        # evidence only in the true class collapses the masked parameters to ones
        y = np.array([[1.0, 0.0, 0.0]])
        alpha = Tensor(np.array([[7.0, 1.0, 1.0]]))
        assert abs(L.kl_loss(alpha, y).item()) < 1e-12

    def test_matches_monte_carlo(self):
        estimate, se = oracles.mc_dirichlet_kl([2.0, 1.0], 100_000, seed=5)
        closed = _kl_unmasked(np.array([[2.0, 1.0]]))
        assert abs(estimate - closed) < 3 * se


def _acc(alpha, y, lambda_t):
    """The annealed classification term ace + lambda_t * masked KL of
    ``alpha``, read off ``h2_loss``: its joint and its one-view attended
    stack are both ``alpha``, with no conflict, so h2 is twice the term."""
    evidence = alpha - 1.0
    return L.h2_loss(evidence, evidence[None], y, lambda_t, 0.0, 0.0).item() / 2.0


class TestAccLossAndSchedule:
    def test_zero_lambda_is_ace(self, rng):
        alpha = rng.uniform(1.0, 5.0, size=(4, 3))
        y = _onehot(rng, 4, 3)
        assert _acc(alpha, y, 0.0) == L.ace_loss(alpha, y).item()

    def test_masked_kl_vanishes_on_pure_truth(self):
        y = np.array([[1.0, 0.0]])
        alpha = np.array([[2.0, 1.0]])
        assert abs(_acc(alpha, y, 1.0) - 0.5) < 1e-12

    def test_linear_in_lambda(self, rng):
        alpha = rng.uniform(1.0, 5.0, size=(4, 3))
        y = _onehot(rng, 4, 3)
        v0 = _acc(alpha, y, 0.0)
        v1 = _acc(alpha, y, 1.0)
        vh = _acc(alpha, y, 0.5)
        assert abs(vh - 0.5 * (v0 + v1)) < 1e-12

    def test_schedule_endpoints(self):
        assert L.lambda_schedule(0, 50) == 0.0
        assert L.lambda_schedule(25, 50) == 0.5
        assert L.lambda_schedule(50, 50) == 1.0
        assert L.lambda_schedule(500, 50) == 1.0


class TestHierarchyLosses:
    def _random_case(self, rng, n, q, v):
        """Labels, (v, n, q) view alphas, (n, q) common alphas, (v, n, q) specific alphas."""
        y = _onehot(rng, n, q)
        alpha = lambda *lead: Tensor(rng.uniform(1.0, 6.0, size=(*lead, n, q)))
        return y, alpha(v), alpha(), alpha(v)

    def test_h1_single_view_no_conflict(self, rng):
        y, views, common, specific = self._random_case(rng, 3, 2, 1)
        got = L.h1_loss(views, common.data - 1.0, specific.data - 1.0, y, 0.0).item()
        expected = (
            L.ace_loss(views.data[0], y).item()
            + L.ace_loss(common, y).item()
            + L.ace_loss(specific.data[0], y).item()
        )
        assert abs(got - expected) < 1e-12

    def test_h1_rejects_mismatched_stacks(self, rng):
        y, views, common, specific = self._random_case(rng, 3, 2, 2)
        with pytest.raises(ContractError, match="h1_loss"):
            L.h1_loss(views, common, Tensor(specific.data[:1]), y, 1.0)

    def test_h1_conflict_vanishes_on_identical_opinions(self, rng):
        y, views, common, _ = self._random_case(rng, 3, 2, 2)
        specific = Tensor(np.stack([common.data] * 2))
        with_conflict = L.h1_loss(views, common, specific, y, 5.0).item()
        without = L.h1_loss(views, common, specific, y, 0.0).item()
        assert abs(with_conflict - without) < 1e-12

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_h1_matches_naive_loops(self, v, rng):
        for _ in range(25):
            y, views, common, specific = self._random_case(rng, 4, 3, v)
            fast = L.h1_loss(views, common.data - 1.0, specific.data - 1.0, y, 1.3).item()
            ref = oracles.naive_h1(views.data, common.data, specific.data, y, 1.3)
            assert abs(fast - ref) < 1e-12

    def test_con_identical_views_zero(self, rng):
        base = rng.uniform(1.0, 4.0, size=(5, 3))
        assert L.con_loss(Tensor(np.stack([base] * 3))).item() == 0.0

    def test_con_two_views_doubles_pair(self, rng):
        a = Tensor(rng.uniform(1.0, 4.0, size=(5, 3)))
        b = Tensor(rng.uniform(1.0, 4.0, size=(5, 3)))
        got = L.con_loss(Tensor(np.stack([a.data, b.data]))).item()
        pair = conflict_degree(a.data - 1.0, b.data - 1.0)
        assert abs(got - 2.0 * pair.mean()) < 1e-12

    def test_con_permutation_invariant(self, rng):
        views = rng.uniform(1.0, 4.0, size=(3, 4, 3))
        a = L.con_loss(Tensor(views)).item()
        b = L.con_loss(Tensor(views[[2, 0, 1]])).item()
        assert abs(a - b) < 1e-12

    def test_con_single_view_is_zero(self, rng):
        assert L.con_loss(Tensor(rng.uniform(1.0, 4.0, size=(1, 4, 3)))).item() == 0.0

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_con_matches_naive_loops(self, v, rng):
        for _ in range(25):
            views = Tensor(rng.uniform(1.0, 6.0, size=(v, 4, 3)))
            fast = L.con_loss(views).item()
            ref = oracles.naive_con(views.data)
            assert abs(fast - ref) < 1e-12

    def test_h2_reduces_without_conflict(self, rng):
        y = _onehot(rng, 3, 2)
        joint = Tensor(rng.uniform(1.0, 4.0, size=(3, 2)))
        att = Tensor(rng.uniform(1.0, 4.0, size=(1, 3, 2)))
        got = L.h2_loss(joint.data - 1.0, att.data - 1.0, y, 0.3, 0.0, L.con_loss(att)).item()
        expected = (oracles.composed_acc(joint, y, 0.3).item()
                    + oracles.composed_acc(att.data[0], y, 0.3).item())
        assert abs(got - expected) < 1e-12

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_h2_matches_naive_loops(self, v, rng):
        for _ in range(25):
            y = _onehot(rng, 4, 3)
            joint = Tensor(rng.uniform(1.0, 6.0, size=(4, 3)))
            att = Tensor(rng.uniform(1.0, 6.0, size=(v, 4, 3)))
            views = Tensor(rng.uniform(1.0, 6.0, size=(v, 4, 3)))
            fast = L.h2_loss(joint.data - 1.0, att.data - 1.0, y, 0.7, 1.1,
                             L.con_loss(views)).item()
            ref = oracles.naive_h2(joint.data, att.data, views.data, y, 0.7, 1.1)
            assert abs(fast - ref) < 1e-12

    def test_ace_matches_naive_loops(self, rng):
        for _ in range(100):
            q = rng.integers(2, 5)
            alpha = Tensor(rng.uniform(1.0, 8.0, size=(5, q)))
            y = _onehot(rng, 5, q)
            assert abs(L.ace_loss(alpha, y).item() - oracles.naive_ace(alpha.data, y)) < 1e-12


class TestOverall:
    def test_zero_tradeoffs(self, rng):
        h1, h2 = Tensor(rng.uniform(0.5)), Tensor(rng.uniform(0.5))
        adv, cml, spe = (Tensor(rng.uniform(0.5)) for _ in range(3))
        got = L.overall_loss(h1, h2, adv, cml, spe, 0.0, 0.0).item()
        assert got == h1.item() + h2.item()

    def test_recombination_identity(self, rng):
        parts = [Tensor(rng.uniform(0.1, 2.0)) for _ in range(5)]
        total = L.overall_loss(*parts, 1.0, 0.01).item()
        manual = (parts[0].item() + parts[1].item() + (parts[2].item() + parts[3].item())
                  + 0.01 * parts[4].item())
        assert abs(total - manual) < 1e-12

    def test_overall_gradient_sums_subgradients(self, rng):
        e = Tensor(rng.uniform(0.5, 3.0, size=(3, 2)))
        y = _onehot(rng, 3, 2)

        def overall():
            h1 = L.ace_loss(e + 1.0, y)
            h2 = L.kl_loss(e + 1.0, y)
            adv = (e * 0.1).mean()
            cml = (e * 0.3).sum()
            spe = (e * e).mean()
            return L.overall_loss(h1, h2, adv, cml, spe, 1.0, 0.01)

        assert grad_check(overall, [e], h=1e-5) < 1e-4

    def test_breakdown_resum(self):
        row = L.LossBreakdown(
            adv=0.4, cml=0.3, com=0.7, spe=0.2, h1=1.1, h2=0.9,
            con=0.05, overall=1.1 + 0.9 + 0.7 + 0.01 * 0.2, lambda_t=0.5, epoch=3,
        )
        resum = L.overall_loss(row.h1, row.h2, row.adv, row.cml, row.spe, 1.0, 0.01).item()
        assert abs(resum - row.overall) < 1e-9
        assert row.finite()


class TestRanges:
    def test_every_loss_non_negative_and_adv_in_unit_interval(self, rng):
        for _ in range(50):
            n, q, v = 4, 3, 3
            y = _onehot(rng, n, q)
            z = _onehot(rng, n, v)
            z_hat = Tensor(rng.normal(size=(n, v))).activate(SOFTMAX_ROWS)
            assert 0.0 < L.adv_loss(z_hat, z).item() <= 1.0
            y_hat = Tensor(rng.normal(size=(n, q))).activate(SIGMOID)
            assert L.cml_loss(y_hat, y).item() >= 0.0
            s = Tensor(rng.normal(size=(v, n, 5)))
            assert L.spe_loss(s, Tensor(rng.normal(size=(n, 5)))).item() >= 0.0
            alpha = lambda *lead: Tensor(rng.uniform(1.0, 7.0, size=(*lead, n, q)))
            views, common, specific = alpha(v), alpha(), alpha(v)
            assert L.ace_loss(views.data[0], y).item() >= 0.0
            assert L.kl_loss(views.data[0], y).item() >= -1e-12
            assert L.h1_loss(views, common, specific, y, 1.0).item() >= 0.0
            con = L.con_loss(views)
            assert con.item() >= 0.0
            assert L.h2_loss(alpha(), views, y, 0.5, 1.0, con).item() >= 0.0


ALPHA = np.full((3, 3), 2.0)
INDICES = [0, 1, 2]
PROBS = np.full((4, 3), 1.0 / 3.0)


@pytest.mark.parametrize("loss, call, labels, evidence", [
    ("ace_loss", lambda y: L.ace_loss(Tensor(ALPHA), y), INDICES, ALPHA),
    ("kl_loss", lambda y: L.kl_loss(Tensor(ALPHA), y), INDICES, ALPHA),
    ("h1_loss", lambda y: L.h1_loss(Tensor(np.stack([ALPHA] * 2)), Tensor(ALPHA - 1.0),
                                    Tensor(np.stack([ALPHA] * 2) - 1.0), y, 1.0), INDICES, ALPHA),
    ("h2_loss", lambda y: L.h2_loss(Tensor(ALPHA - 1.0), Tensor(np.stack([ALPHA] * 2) - 1.0), y,
                                    0.5, 1.0, 0.0), INDICES, ALPHA),
    ("cml_loss", lambda y: L.cml_loss(Tensor(PROBS), y), [0, 1, 2, 0], PROBS),
    ("cml_loss", lambda y: L.cml_loss(Tensor(PROBS), y), [[0], [1], [2], [0]], PROBS),
    ("cross_entropy", lambda y: L.cross_entropy(Tensor(PROBS), y), [0, 1, 2, 0], PROBS),
    ("adv_loss", lambda y: L.adv_loss(Tensor(PROBS), y), [0, 1, 2, 0], PROBS),
    ("discriminator_losses", lambda y: L.discriminator_losses(Tensor(PROBS), Tensor(PROBS), y),
     [0, 1, 2, 0], PROBS),
], ids=["ace", "kl", "h1", "h2", "cml", "cml-column", "cross_entropy", "adv", "discriminator"])
def test_labels_not_rows_of_the_evidence_refused(loss, call, labels, evidence):
    # index labels in place of one-hot rows: ace_loss read them as one label
    # row for every sample (3.85 here, where np.eye(3) gives 1.28), and
    # kl_loss failed inside polygamma_pass
    shape = np.shape(labels)
    with pytest.raises(ShapeError, match=re.escape(
            f"{loss}: labels have shape {shape}, but evidence of shape {evidence.shape} "
            f"needs {evidence.shape}")):
        call(labels)


def _bad(value, at=(2, 2)):
    """One-hot labels of 3 classes with ``value`` at ``at``."""
    labels = np.eye(3)
    labels[at] = value
    return labels


@pytest.mark.parametrize("loss, call, labels, bad", [
    ("ace_loss", lambda y: L.ace_loss(Tensor(ALPHA), y), _bad(2.0), "2.0"),
    ("kl_loss", lambda y: L.kl_loss(Tensor(ALPHA), y), _bad(-1.0), "-1.0"),
    ("h1_loss", lambda y: L.h1_loss(Tensor(np.stack([ALPHA] * 2)), Tensor(ALPHA - 1.0),
                                    Tensor(np.stack([ALPHA] * 2) - 1.0), y, 1.0),
     _bad(np.nan), "nan"),
    ("h2_loss", lambda y: L.h2_loss(Tensor(ALPHA - 1.0), Tensor(np.stack([ALPHA] * 2) - 1.0), y,
                                    0.5, 1.0, 0.0), _bad(1.5, at=(0, 1)), "1.5"),
    ("cml_loss", lambda y: L.cml_loss(Tensor(np.full((3, 3), 1.0 / 3.0)), y), INDICES, "2.0"),
    ("cross_entropy", lambda y: L.cross_entropy(Tensor(np.full((3, 3), 1.0 / 3.0)), y), INDICES,
     "2.0"),
    ("adv_loss", lambda y: L.adv_loss(Tensor(PROBS), y), [0.0, -1.0, 1.0], "-1.0"),
    ("discriminator_losses", lambda y: L.discriminator_losses(Tensor(PROBS), Tensor(PROBS), y),
     [[1.0, 0.0, np.nan]], "nan"),
], ids=["ace", "kl", "h1", "h2", "cml", "cross_entropy", "adv", "discriminator"])
def test_labels_outside_the_unit_interval_refused(loss, call, labels, bad):
    # index labels [0, 1, 2] against 3 classes read as one label row: cml_loss
    # returned 1.0986 and cross_entropy 3.2958, and labels of -1 made
    # cml_loss negative
    with pytest.raises(DomainError, match=re.escape(f"{loss}: labels must lie in [0, 1], "
                                                    f"got {bad}")):
        call(labels)


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_each_loss_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        n, q = 3, 3
        y = _onehot(rng, n, q)

        logits = Tensor(rng.normal(size=(n, q)))
        assert grad_check(lambda: L.adv_loss(logits.activate(SOFTMAX_ROWS), y),
                          [logits]) < 1e-4

        p_logits = Tensor(rng.normal(size=(n, q)))
        assert grad_check(lambda: L.cml_loss(p_logits.activate(SIGMOID), y), [p_logits]) < 1e-4

        e = Tensor(rng.uniform(0.2, 3.0, size=(n, q)))
        assert grad_check(lambda: L.ace_loss(e + 1.0, y), [e]) < 1e-4
        assert grad_check(lambda: L.kl_loss(e + 1.0, y), [e]) < 1e-4

        e2 = Tensor(rng.uniform(0.2, 3.0, size=(n, q)))
        assert grad_check(lambda: oracles.conflict_node(e, e2).mean(), [e, e2]) < 1e-4
