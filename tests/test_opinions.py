"""Opinion algebra: golden values, identities, and randomized properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mvtrust.errors import ContractError, DomainError, ShapeError
from mvtrust.opinions import conflict_degree, evidence_to_opinion, fuse_evidence
from mvtrust.opinions import projected_probability

evidence_lists = st.lists(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=10
)


def opinion_from(e):
    """(beliefs, uncertainty) of one evidence vector: an array and a float."""
    b, u = evidence_to_opinion(np.asarray(e, dtype=float))
    return b, float(u[0])


class TestEvidenceToOpinion:
    def test_confident_three_class_case(self):
        b, u = opinion_from([19.0, 1.0, 1.0])
        np.testing.assert_allclose(b, [19 / 24, 1 / 24, 1 / 24], atol=1e-15)
        assert abs(u - 0.125) < 1e-12

    def test_weak_uniform_evidence(self):
        assert abs(opinion_from([1.0, 1.0, 1.0])[1] - 0.5) < 1e-12

    def test_moderate_uniform_evidence(self):
        assert abs(opinion_from([4.0, 4.0, 4.0])[1] - 0.2) < 1e-12

    def test_vacuous(self):
        b, u = opinion_from([0.0, 0.0])
        np.testing.assert_array_equal(b, [0.0, 0.0])
        assert u == 1.0

    @given(evidence_lists)
    def test_normalization(self, e):
        b, u = opinion_from(e)
        assert abs(u + b.sum() - 1.0) < 1e-9

    @given(evidence_lists.filter(lambda e: sum(e) > 0.1), st.floats(1.1, 50.0))
    def test_scaling_evidence_reduces_uncertainty(self, e, t):
        assert opinion_from([t * x for x in e])[1] < opinion_from(e)[1]


class TestOpinionToEvidence:
    """Evidence is recoverable from an opinion as e = b * q / u."""

    def test_round_trip(self):
        e = np.array([4.0, 4.0, 4.0])
        np.testing.assert_allclose(oracles.evidence_from_opinion(*opinion_from(e)), e, atol=1e-12)

    def test_direct_recovery(self):
        b, u = opinion_from([8.0, 0.0])
        np.testing.assert_allclose(b, [0.8, 0.0], atol=1e-12)
        assert abs(u - 0.2) < 1e-12

    def test_vacuous_maps_to_zero(self):
        b, u = opinion_from(np.zeros(3))
        np.testing.assert_array_equal(oracles.evidence_from_opinion(b, u), np.zeros(3))

    @given(evidence_lists)
    def test_round_trip_property(self, e):
        back = oracles.evidence_from_opinion(*opinion_from(e))
        np.testing.assert_allclose(back, e, atol=1e-12)


class TestAggregatePair:
    """Evidence averaging against the paper's opinion-level pair rule."""

    def test_idempotent_on_identical(self):
        e = np.array([3.0, 1.0])
        fused_b, fused_u = opinion_from(fuse_evidence(e, e).data)
        b, u = opinion_from(e)
        np.testing.assert_allclose(fused_b, b, atol=1e-15)
        assert abs(fused_u - u) < 1e-15

    def test_opposed_confident_opinions(self):
        b, u = opinion_from(fuse_evidence(np.array([8.0, 0.0]), np.array([0.0, 8.0])).data)
        np.testing.assert_allclose(b, [0.4, 0.4], atol=1e-12)
        assert abs(u - 0.2) < 1e-12

    def test_vacuous_against_informative(self):
        b, u = opinion_from(fuse_evidence(np.array([0.0, 0.0]), np.array([4.0, 4.0])).data)
        np.testing.assert_allclose(b, [1 / 3, 1 / 3], atol=1e-12)
        assert abs(u - 1 / 3) < 1e-12

    def test_mismatched_class_count(self):
        with pytest.raises(ContractError):
            fuse_evidence(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    @given(evidence_lists, evidence_lists)
    def test_commutative_bit_for_bit(self, e1, e2):
        q = min(len(e1), len(e2))
        a, b = np.array(e1[:q]), np.array(e2[:q])
        assert np.array_equal(fuse_evidence(a, b).data, fuse_evidence(b, a).data)

    def test_matches_evidence_mean_oracle_bulk(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            q = rng.integers(2, 6)
            e1, e2 = rng.uniform(0.0, 50.0, size=(2, q))
            b, u = opinion_from(fuse_evidence(e1, e2).data)
            ref_b, ref_u = oracles.aggregate_pair(opinion_from(e1), opinion_from(e2))
            np.testing.assert_allclose(b, ref_b, atol=1e-9)
            assert abs(u - ref_u) < 1e-9


class TestAggregateAll:
    def test_single_opinion_is_identity(self):
        op = opinion_from([2.0, 5.0])
        assert oracles.aggregate_all([op]) is op

    def test_three_way_mean(self):
        evidences = ([3.0, 0.0], [0.0, 3.0], [3.0, 3.0])
        b, u = oracles.aggregate_all([opinion_from(e) for e in evidences])
        np.testing.assert_allclose(oracles.evidence_from_opinion(b, u), [2.0, 2.0], atol=1e-12)
        assert abs(u - 1 / 3) < 1e-12
        assert abs(opinion_from(np.mean(evidences, axis=0))[1] - 1 / 3) < 1e-12

    @given(st.lists(evidence_lists.filter(lambda e: len(e) == 3), min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_permutation_invariant_exactly(self, rows):
        ops = [opinion_from(e) for e in rows]
        base_b, base_u = oracles.aggregate_all(ops)
        for perm in itertools.islice(itertools.permutations(ops), 6):
            other_b, other_u = oracles.aggregate_all(list(perm))
            assert np.array_equal(base_b, other_b)
            assert base_u == other_u


class TestProjection:
    def test_vacuous_projects_to_base_rate(self):
        p = projected_probability(np.zeros(4), 1.0)
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_direct_formula(self):
        p = projected_probability(np.array([0.8, 0.0]), 0.2)
        np.testing.assert_allclose(p, [0.9, 0.1], atol=1e-15)

    def test_certain_opinion_projects_to_beliefs(self):
        p = projected_probability(np.array([0.3, 0.7]), 0.0)
        np.testing.assert_allclose(p, [0.3, 0.7], atol=1e-15)

    @given(evidence_lists)
    def test_projection_is_a_distribution(self, e):
        p = projected_probability(*evidence_to_opinion(np.asarray(e, dtype=float)))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0)


def conflict(e_a, e_b):
    return conflict_degree(np.asarray(e_a, dtype=float), np.asarray(e_b, dtype=float))[0]


class TestConflictDegree:
    def test_zero_on_identical(self):
        assert conflict([5.0, 1.0], [5.0, 1.0]) == 0.0

    def test_zero_against_vacuous(self):
        assert conflict([9.0, 0.0], [0.0, 0.0]) == 0.0

    def test_opposed_confident_value(self):
        # beliefs (0.8, 0) and (0, 0.8) with u = 0.2 each
        assert abs(conflict([8.0, 0.0], [0.0, 8.0]) - 0.512) < 1e-12

    def test_mismatched_classes(self):
        with pytest.raises(ContractError):
            conflict([1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ContractError, match=r"\(2, 1, 3, 4\) vs \(1, 2, 3, 5\)"):
            conflict_degree(np.ones((2, 1, 3, 4)), np.ones((1, 2, 3, 5)))

    def test_stacked_pairs_equal_per_pair_calls(self):
        evidence = np.random.default_rng(8).uniform(0.0, 9.0, size=(4, 6, 3))
        pairs = conflict_degree(evidence[:, None], evidence[None, :])
        assert pairs.shape == (4, 4, 6, 1)
        for p, r in itertools.product(range(4), repeat=2):
            np.testing.assert_array_equal(
                pairs[p, r], conflict_degree(evidence[p], evidence[r])
            )
        assert np.all(pairs[np.arange(4), np.arange(4)] == 0.0)
        np.testing.assert_array_equal(pairs, pairs.swapaxes(0, 1))

    @given(evidence_lists.filter(lambda e: len(e) == 4), evidence_lists.filter(lambda e: len(e) == 4))
    def test_bounded_and_symmetric(self, e1, e2):
        c = conflict(e1, e2)
        assert 0.0 <= c <= 1.0
        assert c == conflict(e2, e1)



@pytest.mark.parametrize("name, message, call", [
    ("evidence_to_opinion", "needs a class axis", lambda: evidence_to_opinion(2.0)),
    ("projected_probability", "needs a class axis",
     lambda: projected_probability(np.float64(0.5), 0.5)),
    ("conflict_degree", "needs a class axis", lambda: conflict_degree(2.0, 2.0)),
    ("conflict_degree", "needs a class axis",
     lambda: conflict_degree(np.ones(3), np.array(2.0))),
    ("evidence_to_opinion", r"needs at least one class, got shape \(3, 0\)$",
     lambda: evidence_to_opinion(np.zeros((3, 0)))),
    ("projected_probability", r"needs at least one class, got shape \(3, 0\)$",
     lambda: projected_probability(np.zeros((3, 0)), np.ones((3, 1)))),
    ("conflict_degree", r"needs at least one class, got shape \(3, 0\)$",
     lambda: conflict_degree(np.zeros((3, 0)), np.zeros((3, 0)))),
], ids=["opinion", "projection", "conflict-both", "conflict-second",
        "opinion-no-class", "projection-no-class", "conflict-no-class"])
def test_evidence_without_a_class_axis_is_refused(name, message, call):
    with pytest.raises(ShapeError, match=f"^{name}: {message}"):
        call()


@pytest.mark.parametrize("error, message, call", [
    (ShapeError, r"projected_probability: uncertainty has shape \(4,\), but beliefs of shape "
                 r"\(4, 4\) need \(4, 1\)",
     lambda: projected_probability(np.full((4, 4), 0.2), np.full(4, 0.2))),
    (ShapeError, r"projected_probability: uncertainty has shape \(4,\), but beliefs of shape "
                 r"\(3, 4\) need \(3, 1\)",
     lambda: projected_probability(np.full((3, 4), 0.2), np.full(4, 0.2))),
    (DomainError, r"evidence_to_opinion: evidence must be finite and >= 0, got -1\.0",
     lambda: evidence_to_opinion([-1.0, 0.0, 0.0, 0.0])),
    (DomainError, r"evidence_to_opinion: evidence must be finite and >= 0, got -4\.0",
     lambda: evidence_to_opinion([-4.0, 0.0, 0.0, 0.0])),
    (DomainError, r"evidence_to_opinion: evidence must be finite and >= 0, got inf",
     lambda: evidence_to_opinion([np.inf, 1.0])),
    (DomainError, r"conflict_degree: evidence must be finite and >= 0, got nan",
     lambda: conflict_degree([1.0, 2.0], [np.nan, 1.0])),
], ids=["projection-rows", "projection-broadcast", "opinion-negative", "opinion-zero-strength",
        "opinion-inf", "conflict-nan"])
def test_outside_the_domain_is_refused(error, message, call):
    with pytest.raises(error, match=f"^{message}$"):
        call()
