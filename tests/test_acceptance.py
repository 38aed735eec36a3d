"""Acceptance criteria, one test per criterion.

Each test prints an explicit PASS/FAIL line (run with ``pytest -s`` or
``-rA`` to see them) and then asserts at the stated tolerance.  Criteria
6-10 compute their quantities in one function each, from the criterion's
own data, corruption seed and settings; ``HOLDS`` is each quantity's pass
predicate, and ``scripts/margins.py`` reruns both at other model seeds.
Criteria 6-9 share one full 200-epoch training run through the session
fixture.
"""

import dataclasses
import itertools

import numpy as np
from scipy.stats import mannwhitneyu

import oracles
from conftest import ACCEPTANCE_CONFIG
from mvtrust import losses as L
from mvtrust.autodiff import Tensor
from mvtrust.cli import main as cli_main
from mvtrust.data import CorruptionSpec, inject_conflict, inject_noise
from mvtrust.opinions import evidence_to_opinion, fuse_evidence
from mvtrust.pipeline import ablate, evaluate, gradcheck_losses, run_noise_sweep


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


HOLDS = {
    "accuracy": lambda x: x >= 0.90,
    "ratio": lambda x: x >= 1.5,
    "p": lambda x: x < 0.01,
    "conflict_margin": lambda x: x > 0.0,
    "drop": lambda x: x > 0.0,
    "plateau": lambda x: x < 0.02,
    "no_h1": lambda x: x <= 0.0,
    "no_attention": lambda x: x <= 0.0,
}


def _holds(found, *names):
    return all(HOLDS[name](found[name]) for name in names)


def end_to_end_learning(run):
    """Held-out accuracy and the number of epochs trained."""
    return {"accuracy": run.report.accuracy, "epochs": len(run.log)}


def uncertainty_shift(run):
    """Median joint uncertainty of the noised rows over that of the clean
    ones, and the one-sided Mann-Whitney p of the noised rows' joint
    against their local uncertainties."""
    spec = CorruptionSpec("gaussian_noise", 0.5, sigma=10.0, seed=11)
    report = evaluate(run.trained, *inject_noise(run.test_ds, spec))
    joint, hit = report.joint_uncertainty, report.corrupted
    _, p = mannwhitneyu(joint[hit], report.local_uncertainty[hit].ravel(), alternative="less")
    return {"ratio": float(np.median(joint[hit])) / float(np.median(joint[~hit])),
            "p": float(p)}


def conflict_localization(run):
    """Mean conflicts of the misaligned view 0 with each other view, those
    between two other views, and the smallest first minus the largest second."""
    spec = CorruptionSpec("view_misalign", 0.4, views=(0,), seed=13)
    matrix = evaluate(run.trained, *inject_conflict(run.test_ds, spec)).conflict_matrix
    v = matrix.shape[0]
    view0 = [matrix[0, r] for r in range(1, v)]
    others = [matrix[p, r] for p in range(1, v) for r in range(p + 1, v)]
    return {"conflict_margin": float(min(view0) - max(others)), "view0": view0, "others": others}


def noise_robustness_shape(run):
    """Accuracy at each swept sigma, the clean one minus that at 1e4, and
    the absolute difference between 1e6 and 1e8."""
    rows = run_noise_sweep(run.trained, run.test_ds, [0.0, 1e4, 1e6, 1e8], fraction=1.0, seed=17)
    acc = {row.sigma: row.accuracy for row in rows}
    return {"swept": acc, "drop": acc[0.0] - acc[1e4], "plateau": abs(acc[1e6] - acc[1e8])}


def ablations(dataset, seed):
    """Accuracy of the full model and of each variant after 100 epochs at
    model ``seed``, and each variant's minus the full model's."""
    cfg = dataclasses.replace(ACCEPTANCE_CONFIG, epochs=100, seed=seed)
    rows = ablate(dataset, cfg, ("no_h1", "no_attention"))
    return {"variants": {row.variant: row.accuracy for row in rows},
            **{row.variant: row.accuracy_delta for row in rows[1:]}}


def test_criterion_06_end_to_end_learning(acceptance_run):
    found = end_to_end_learning(acceptance_run)
    accuracy, epochs = found["accuracy"], found["epochs"]
    ok = _holds(found, "accuracy") and epochs <= 200
    assert _verdict(6, ok, f"test accuracy {accuracy:.4f} after {epochs} epochs")


def test_criterion_07_uncertainty_shift(acceptance_run):
    found = uncertainty_shift(acceptance_run)
    ratio, p_value = found["ratio"], found["p"]
    detail = f"median ratio {ratio:.2f} (need >= 1.5); left-shift p {p_value:.2e} (need < 0.01)"
    assert _verdict(7, _holds(found, "ratio", "p"), detail)


def test_criterion_08_conflict_localization(acceptance_run):
    found = conflict_localization(acceptance_run)
    in_row0, outside = found["view0"], found["others"]
    ok = _holds(found, "conflict_margin")
    assert _verdict(
        8, ok, f"corrupted-view conflicts {np.round(in_row0, 4)} vs others {np.round(outside, 4)}"
    )


def test_criterion_09_noise_robustness_shape(acceptance_run):
    found = noise_robustness_shape(acceptance_run)
    acc = found["swept"]
    detail = f"clean {acc[0.0]:.3f}, 1e4 {acc[1e4]:.3f}, 1e6 {acc[1e6]:.3f}, 1e8 {acc[1e8]:.3f}"
    assert _verdict(9, _holds(found, "drop", "plateau"), detail)


def test_criterion_10_ablations(acceptance_dataset):
    wins = {"no_h1": 0, "no_attention": 0}
    details = []
    for seed in (0, 1, 2):
        found = ablations(acceptance_dataset, seed)
        accs = found["variants"]
        details.append(
            f"seed {seed}: full {accs['full']:.3f}, "
            f"no_h1 {accs['no_h1']:.3f}, no_attention {accs['no_attention']:.3f}"
        )
        for name in wins:
            wins[name] += HOLDS[name](found[name])
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
