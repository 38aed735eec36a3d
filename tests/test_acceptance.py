"""Acceptance criteria, one test per criterion.

Each test prints an explicit PASS/FAIL line (run with ``pytest -s`` or
``-rA`` to see them) and then asserts at the stated tolerance.  The
trained-model criteria share one full 200-epoch training run through the
session fixture.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

import oracles
from conftest import ACCEPTANCE_CONFIG
from mvtrust import losses as L
from mvtrust.autodiff import Tensor
from mvtrust.cli import main as cli_main
from mvtrust.data import CorruptionSpec, inject_conflict, inject_noise
from mvtrust.opinions import evidence_to_opinion, fuse_evidence
from mvtrust.pipeline import evaluate, gradcheck_losses, run_noise_sweep


def _verdict(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return passed


def test_criterion_01_golden_uncertainty_values():
    cases = {
        (19.0, 1.0, 1.0): 0.125,
        (1.0, 1.0, 1.0): 0.5,
        (4.0, 4.0, 4.0): 0.2,
    }
    worst = max(
        abs(float(evidence_to_opinion(np.array(e))[1][0]) - u) for e, u in cases.items()
    )
    assert _verdict(1, worst <= 1e-12, f"max abs error {worst:.2e}")


def test_criterion_02_mass_normalization():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        q = rng.integers(2, 11)
        b, u = evidence_to_opinion(rng.uniform(0.0, 100.0, size=q))
        worst = max(worst, abs(float(u[0]) + b.sum() - 1.0))
    assert _verdict(2, worst <= 1e-9, f"max normalization error {worst:.2e}")


def test_criterion_03_aggregation_equivalence():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(10_000):
        q = rng.integers(2, 8)
        e1, e2 = rng.uniform(0.0, 60.0, size=(2, q))
        b, u = evidence_to_opinion(fuse_evidence(e1, e2).data)
        ref_b, ref_u = oracles.aggregate_pair(
            oracles.opinion_from_evidence(e1), oracles.opinion_from_evidence(e2)
        )
        worst = max(worst, float(np.abs(b - ref_b).max()), abs(float(u[0]) - ref_u))
    # the permutation half checks the exactly rounded fold of the oracle
    opinions = [oracles.opinion_from_evidence(rng.uniform(0.0, 10.0, size=4)) for _ in range(5)]
    base_b, base_u = oracles.aggregate_all(opinions)
    exact = all(
        np.array_equal(base_b, oracles.aggregate_all(list(perm))[0])
        and base_u == oracles.aggregate_all(list(perm))[1]
        for perm in itertools.permutations(opinions)
    )
    assert _verdict(3, worst <= 1e-9 and exact,
                    f"max pair deviation {worst:.2e}, permutation exact: {exact}")


def test_criterion_04_gradient_soundness():
    worst = gradcheck_losses(n_seeds=20, h=1e-5)
    top = max(worst.values())
    assert _verdict(4, top < 1e-4,
                    "max rel err " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_05_loss_oracles():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n, q = 4, int(rng.integers(2, 5))
        v = int(rng.integers(2, 5))
        y = np.eye(q)[rng.integers(q, size=n)]
        alpha = lambda: rng.uniform(1.0, 8.0, size=(n, q))
        a_views = [alpha() for _ in range(v)]
        a_c, a_s = alpha(), [alpha() for _ in range(v)]
        a_joint, a_att = alpha(), [alpha() for _ in range(v)]
        gamma, lam = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0))

        pairs = (
            (L.ace_loss(Tensor(a_views[0]), y).item(), oracles.naive_ace(a_views[0], y)),
            (
                L.h1_loss(Tensor(np.stack(a_views)), Tensor(a_c - 1.0),
                          Tensor(np.stack(a_s) - 1.0), y, gamma).item(),
                oracles.naive_h1(a_views, a_c, a_s, y, gamma),
            ),
            (
                L.con_loss(Tensor(np.stack(a_views))).item(),
                oracles.naive_con(a_views),
            ),
            (
                L.h2_loss(Tensor(a_joint - 1.0), Tensor(np.stack(a_att) - 1.0), y, lam, gamma,
                          conflict=L.con_loss(Tensor(np.stack(a_views)))).item(),
                oracles.naive_h2(a_joint, a_att, a_views, y, lam, gamma),
            ),
        )
        worst = max(worst, *(abs(fast - ref) for fast, ref in pairs))

    mc_ok = True
    mc_detail = []
    for alpha_tilde in ([2.0, 1.0], [1.5, 3.0, 1.0], [4.0, 2.5, 1.0, 1.0]):
        # all-zero labels spare no class: the KL of Dir(alpha_tilde) itself
        closed = L.kl_loss(Tensor(np.array([alpha_tilde])), np.zeros((1, len(alpha_tilde)))).item()
        estimate, se = oracles.mc_dirichlet_kl(alpha_tilde, 100_000, seed=11)
        mc_ok &= abs(estimate - closed) < 3.0 * se
        mc_detail.append(f"|{estimate:.5f}-{closed:.5f}|<3*{se:.5f}")
    assert _verdict(5, worst <= 1e-12 and mc_ok,
                    f"max loop deviation {worst:.2e}; MC {'; '.join(mc_detail)}")


def test_criterion_06_end_to_end_learning(acceptance_run):
    accuracy = acceptance_run.report.accuracy
    epochs = len(acceptance_run.log)
    ok = accuracy >= 0.90 and epochs <= 200
    assert _verdict(6, ok, f"test accuracy {accuracy:.4f} after {epochs} epochs")


def test_criterion_07_uncertainty_shift(acceptance_run):
    trained, test_ds = acceptance_run.trained, acceptance_run.test_ds
    spec = CorruptionSpec("gaussian_noise", 0.5, sigma=10.0, seed=11)
    corrupted, mask = inject_noise(test_ds, spec)
    report = evaluate(trained, corrupted, mask)
    hit = report.corrupted
    median_corrupted = float(np.median(report.joint_uncertainty[hit]))
    median_clean = float(np.median(report.joint_uncertainty[~hit]))
    ratio = median_corrupted / median_clean
    ratio_ok = ratio >= 1.5
    _, p_value = mannwhitneyu(
        report.joint_uncertainty[hit],
        report.local_uncertainty[hit].ravel(),
        alternative="less",
    )
    rank_ok = p_value < 0.01
    detail = f"median ratio {ratio:.2f} (need >= 1.5); left-shift p {p_value:.2e} (need < 0.01)"
    assert _verdict(7, ratio_ok and rank_ok, detail)


def test_criterion_08_conflict_localization(acceptance_run):
    trained, test_ds = acceptance_run.trained, acceptance_run.test_ds
    spec = CorruptionSpec("view_misalign", 0.4, views=(0,), seed=13)
    corrupted, mask = inject_conflict(test_ds, spec)
    matrix = evaluate(trained, corrupted, mask).conflict_matrix
    v = matrix.shape[0]
    in_row0 = [matrix[0, r] for r in range(1, v)]
    outside = [matrix[p, r] for p in range(1, v) for r in range(p + 1, v)]
    ok = min(in_row0) > max(outside)
    assert _verdict(
        8, ok, f"corrupted-view conflicts {np.round(in_row0, 4)} vs others {np.round(outside, 4)}"
    )


def test_criterion_09_noise_robustness_shape(acceptance_run):
    trained, test_ds = acceptance_run.trained, acceptance_run.test_ds
    rows = run_noise_sweep(trained, test_ds, [0.0, 1e4, 1e6, 1e8], fraction=1.0, seed=17)
    acc = {row.sigma: row.accuracy for row in rows}
    drop_ok = acc[1e4] < acc[0.0]
    plateau_ok = abs(acc[1e6] - acc[1e8]) < 0.02
    detail = (
        f"clean {acc[0.0]:.3f}, 1e4 {acc[1e4]:.3f}, 1e6 {acc[1e6]:.3f}, 1e8 {acc[1e8]:.3f}"
    )
    assert _verdict(9, drop_ok and plateau_ok, detail)


def test_criterion_10_ablations(acceptance_dataset):
    from mvtrust.pipeline import ablate

    cfg = dataclasses.replace(ACCEPTANCE_CONFIG, epochs=100)
    wins = {"no_h1": 0, "no_attention": 0}
    details = []
    for seed in (0, 1, 2):
        rows = ablate(
            acceptance_dataset,
            dataclasses.replace(cfg, seed=seed),
            ("no_h1", "no_attention"),
        )
        accs = {row.variant: row.accuracy for row in rows}
        details.append(
            f"seed {seed}: full {accs['full']:.3f}, "
            f"no_h1 {accs['no_h1']:.3f}, no_attention {accs['no_attention']:.3f}"
        )
        for name in wins:
            wins[name] += accs[name] <= accs["full"]
    ok = wins["no_h1"] >= 2 and wins["no_attention"] >= 2
    assert _verdict(10, ok, f"wins {wins}; " + "; ".join(details))


def test_criterion_11_reproducibility(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main([
        "synth", "--out", str(data_dir), "--classes", "3", "--samples", "60",
        "--dims", "5,6", "--seed", "21",
    ]) == 0
    metrics = []
    for run in ("one", "two"):
        run_dir = tmp_path / f"run_{run}"
        eval_dir = tmp_path / f"eval_{run}"
        assert cli_main([
            "train", "--data", str(data_dir / "manifest.json"), "--out", str(run_dir),
            "--epochs", "5", "--subspace-dim", "8", "--seed", "3",
        ]) == 0
        assert cli_main([
            "eval", "--model", str(run_dir / "checkpoint.npz"),
            "--data", str(data_dir / "manifest.json"), "--out", str(eval_dir),
            "--holdout",
        ]) == 0
        metrics.append((eval_dir / "metrics.tsv").read_bytes())
    ok = metrics[0] == metrics[1]
    assert _verdict(11, ok, f"metrics.tsv identical: {ok}")
