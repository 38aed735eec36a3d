"""Intra-view fusion, evidence-level attention, joint fusion, prediction."""

import numpy as np
import pytest

import oracles
from mvtrust import autodiff as ad
from mvtrust.aggregation import attend_batch
from mvtrust.autodiff import Tensor
from mvtrust.errors import ContractError, ShapeError
from mvtrust.opinions import evidence_to_opinion, fuse_evidence


def _ctx(rng, v=3, l=4, q=3, scale=1.0):
    """One sample's attention inputs: (v, l) features and (v, q) evidence."""
    return dict(
        features=rng.normal(size=(v, l)) * scale,
        evidence=rng.uniform(0.0, 5.0, size=(v, q)),
        w_query=rng.normal(size=(v, v)),
        w_key=rng.normal(size=(v, v)),
        w_value=rng.normal(size=(v, v)),
    )


def _attend(ctx):
    """attend_batch on a batch of one; returns its (v, v) weights and (v, q) evidence."""
    weights, attended = attend_batch(
        Tensor(ctx["features"][:, None]),
        Tensor(ctx["evidence"][:, None]),
        Tensor(ctx["w_query"]), Tensor(ctx["w_key"]), Tensor(ctx["w_value"]),
    )
    return weights.data[0], attended.data[:, 0]


def _u(e):
    return float(evidence_to_opinion(np.asarray(e, dtype=float))[1][0])


class TestIntraView:
    def test_identical_inputs_pass_through(self):
        e = np.array([2.0, 5.0])
        fused = fuse_evidence(e, e).data
        np.testing.assert_allclose(fused, e, atol=1e-12)
        assert abs(_u(fused) - _u(e)) < 1e-12

    def test_opposed_evidence_averages(self):
        fused = fuse_evidence(np.array([8.0, 0.0]), np.array([0.0, 8.0])).data
        np.testing.assert_allclose(fused, [4.0, 4.0], atol=1e-12)

    def test_vacuous_common_halves_uncertainty_gap(self):
        fused = fuse_evidence(np.array([0.0, 0.0]), np.array([6.0, 2.0])).data
        np.testing.assert_allclose(fused, [3.0, 1.0], atol=1e-12)
        assert abs(_u(fused) - 2.0 / 6.0) < 1e-12

    def test_fused_uncertainty_closed_form(self, rng):
        # u_fused = 2q / (S_c + S_s)
        for _ in range(50):
            q = rng.integers(2, 5)
            e_c = rng.uniform(0.0, 9.0, size=q)
            e_s = rng.uniform(0.0, 9.0, size=q)
            expected = 2.0 * q / ((e_c.sum() + q) + (e_s.sum() + q))
            assert abs(_u(fuse_evidence(e_c, e_s).data) - expected) < 1e-12

    def test_class_count_mismatch(self):
        with pytest.raises(ContractError):
            fuse_evidence(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_graph_fusion_matches_value_level(self, rng):
        e_c = rng.uniform(0.0, 5.0, size=(6, 3))
        e_s = rng.uniform(0.0, 5.0, size=(6, 3))
        fused = fuse_evidence(Tensor(e_c), Tensor(e_s)).data
        for j in range(6):
            ref = oracles.aggregate_pair(
                oracles.opinion_from_evidence(e_c[j]), oracles.opinion_from_evidence(e_s[j])
            )
            np.testing.assert_allclose(fused[j], oracles.evidence_from_opinion(*ref), atol=1e-12)


class TestAttentionWeights:
    def test_all_negative_scores_give_uniform(self, rng):
        ctx = _ctx(rng)
        ctx["w_query"][:] = 0.0  # zero scores, relu -> 0, score floor -> uniform
        np.testing.assert_allclose(_attend(ctx)[0][0], 1.0 / 3.0, atol=1e-12)

    def test_dominant_positive_score(self):
        # scores (2, 0) after relu, floor tiny: weights ~ (1, floor/2)
        ctx = dict(
            features=np.array([[2.0, 0.0], [0.0, 0.0]]),
            evidence=np.ones((2, 2)),
            w_query=np.eye(2), w_key=np.eye(2), w_value=np.eye(2),
        )
        # Q = F, K = F; row 0 scores = (4, 0) / sqrt(2)
        w = _attend(ctx)[0][0]
        assert abs(w[0] - 1.0) < 1e-8
        assert 0.0 < w[1] < 1e-8

    def test_rows_sum_to_one_random(self, rng):
        for _ in range(50):
            weights = _attend(_ctx(rng, scale=3.0))[0]
            for view in range(3):
                assert abs(float(weights[view].sum()) - 1.0) < 1e-12
                assert np.all(weights[view] > 0.0)


class TestAttendEvidence:
    def test_identity_value_uniform_weights_returns_mean(self, rng):
        ctx = _ctx(rng)
        ctx["w_query"][:] = 0.0
        ctx["w_value"] = np.eye(3)
        out = _attend(ctx)[1][1]
        np.testing.assert_allclose(out, ctx["evidence"].mean(axis=0), atol=1e-7)

    def test_single_view_weight_one(self, rng):
        ctx = _ctx(rng, v=1)
        expected = np.maximum(ctx["w_value"] @ ctx["evidence"], 0.0)[0]
        np.testing.assert_allclose(_attend(ctx)[1][0], expected, atol=1e-12)

    def test_output_non_negative_always(self, rng):
        for _ in range(200):
            assert np.all(_attend(_ctx(rng, scale=2.5))[1] >= 0.0)

    def test_convex_combination_stays_nonnegative_before_clamp(self, rng):
        # identity value matrix keeps rows non-negative, so the clamp is a no-op
        ctx = _ctx(rng)
        ctx["w_value"] = np.eye(3)
        weights, attended = _attend(ctx)
        np.testing.assert_allclose(attended[2], weights[2] @ ctx["evidence"], atol=1e-12)


class TestBatchedAttention:
    def test_matches_per_sample_contract(self, rng):
        n, v, l, q = 7, 3, 5, 4
        common = rng.normal(size=(n, l))
        specific = [rng.normal(size=(n, l)) for _ in range(v)]
        evidences = [rng.uniform(0.0, 4.0, size=(n, q)) for _ in range(v)]
        wq, wk, wv = (rng.normal(size=(v, v)) for _ in range(3))

        weights, attended = attend_batch(
            Tensor(np.stack([common + s for s in specific])),
            Tensor(np.stack(evidences)),
            Tensor(wq), Tensor(wk), Tensor(wv),
        )
        for j in range(n):
            features = np.stack([common[j] + s[j] for s in specific])
            evidence = np.stack([e[j] for e in evidences])
            for view in range(v):
                ref_w, ref_e = oracles.attend(features, evidence, wq, wk, wv, 1e-8, view)
                np.testing.assert_allclose(weights.data[j, view], ref_w, atol=1e-12)
                np.testing.assert_allclose(attended.data[view, j], ref_e, atol=1e-12)

    def test_uniform_bypass(self, rng):
        n, v, q = 4, 3, 2
        evidences = [rng.uniform(0.0, 4.0, size=(n, q)) for _ in range(v)]
        wv = rng.normal(size=(v, v))
        weights, attended = attend_batch(
            Tensor(rng.normal(size=(v, n, 5))),
            Tensor(np.stack(evidences)),
            Tensor(rng.normal(size=(v, v))), Tensor(rng.normal(size=(v, v))), Tensor(wv),
            uniform=True,
        )
        np.testing.assert_allclose(weights.data, 1.0 / v, atol=1e-15)
        stacked = np.stack(evidences, axis=1)
        manual = np.maximum(np.full((v, v), 1.0 / v) @ (wv @ stacked), 0.0)
        np.testing.assert_allclose(attended.data, manual.swapaxes(0, 1), atol=1e-12)

    def test_gradients_flow_through_attention(self, rng):
        n, v, l, q = 3, 2, 4, 3
        feats = Tensor(rng.normal(size=(v, n, l)))
        evs = Tensor(rng.uniform(0.1, 3.0, size=(v, n, q)))
        wq, wk, wv = (Tensor(rng.normal(size=(v, v))) for _ in range(3))

        def f():
            _, attended = attend_batch(feats, evs, wq, wk, wv)
            return (attended * attended).mean()

        assert ad.grad_check(f, [feats, evs, wq, wk, wv], h=1e-6) < 1e-4


class TestInterViewAggregate:
    """Joint fusion is the mean of the attended evidence over views."""

    def test_identical_attended_opinions(self):
        e = np.array([3.0, 1.0])
        joint = ad.stack([Tensor(e[None])] * 3).mean(axis=0).data[0]
        np.testing.assert_allclose(joint + 1.0, [4.0, 2.0], atol=1e-12)
        b, u = oracles.aggregate_all([oracles.opinion_from_evidence(e)] * 3)
        np.testing.assert_allclose(b, oracles.opinion_from_evidence(e)[0], atol=1e-12)

    def test_permutation_invariance(self, rng):
        ops = [oracles.opinion_from_evidence(rng.uniform(0.0, 5.0, size=3)) for _ in range(4)]
        a_b, a_u = oracles.aggregate_all(ops)
        b_b, b_u = oracles.aggregate_all(ops[::-1])
        assert np.array_equal(a_b, b_b)
        assert a_u == b_u

    def test_three_view_mean(self):
        evidences = [np.array([e]) for e in ([3.0, 0.0], [0.0, 3.0], [3.0, 3.0])]
        joint = ad.stack([Tensor(e) for e in evidences]).mean(axis=0).data[0]
        np.testing.assert_allclose(joint + 1.0, [3.0, 3.0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            attend_batch(Tensor(np.zeros((0, 1, 4))), Tensor(np.zeros((0, 1, 2))),
                         Tensor(np.eye(1)), Tensor(np.eye(1)), Tensor(np.eye(1)))


class TestPredict:
    """Decision rule: class with the largest joint evidence, ties to the lowest index."""

    def test_plain_argmax(self):
        # beliefs (0.7, 0.1), uncertainty 0.2
        e = np.array([7.0, 1.0])
        assert (int(np.argmax(e)), _u(e)) == (0, 0.2)

    def test_vacuous_ties_to_lowest_index(self):
        e = np.zeros(3)
        assert (int(np.argmax(e)), _u(e)) == (0, 1.0)

    def test_argmax_invariant_under_evidence_scaling(self, rng):
        for _ in range(50):
            e = rng.uniform(0.0, 5.0, size=4)
            base = np.argmax(evidence_to_opinion(e)[0])
            scaled = np.argmax(evidence_to_opinion(e * 7.5)[0])
            assert base == scaled


class TestContextValidation:
    def test_row_count_mismatch(self, rng):
        # three samples of features against two samples of evidence
        with pytest.raises(ShapeError):
            attend_batch(
                Tensor(rng.normal(size=(3, 3, 4))),
                Tensor(rng.normal(size=(3, 2, 3))),
                Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor(np.eye(3)),
            )

    def test_weight_shape_guard(self, rng):
        with pytest.raises(ShapeError):
            attend_batch(
                Tensor(rng.normal(size=(3, 1, 4))),
                Tensor(rng.normal(size=(3, 1, 3))),
                Tensor(np.eye(2)), Tensor(np.eye(3)), Tensor(np.eye(3)),
            )
