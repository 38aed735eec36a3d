#!/usr/bin/env bash
# Write the outputs of a fixed set of CLI runs of the mvtrust tree <src-dir>
# into <out-dir>.  Run it on two trees and compare the results with diff:
#
#   scripts/identity_outputs.sh /path/to/old-tree /tmp/ident-old
#   scripts/identity_outputs.sh .                 /tmp/ident-new
#   diff -r /tmp/ident-old /tmp/ident-new
#
# A refactor that changes no float operation leaves every file identical.
# The baseline moved once, when the loss stack was rebuilt over stacked
# views and the special functions took ten unmasked unit steps: that change
# was accepted because every numeric cell of every training_log*.tsv agreed
# with the tree before it to 1e-9 relative; its outputs are the baseline.
# `run.meta` and the `__meta__` entry of `checkpoint.npz` also hold the
# config and its hash, so they differ when a TrainConfig field changes.
#
# The runs:
#   c11/            the criterion 11 setup: 60 rows, 5 epochs, clean held-out eval
#   c11/ablate      every ablation switch, 3 epochs each, on the criterion 11 data
#   c11/trials      two seeded trials of 2 epochs each on the criterion 11 data
#   acc/full15      15 full-batch epochs on the acceptance data
#   acc/batch32     3 epochs at batch size 32 on the acceptance data
#   acc/eval_noise  sigma=10 noise on half of the held-out rows
#   acc/eval_misalign  view 0 misaligned on 40 % of the held-out rows
#   acc/sweep       accuracy and mean uncertainty per noise level
#   cli.log         also the worst loss gradcheck errors over 2 seeds
#
# BLAS runs on one thread, so sums do not depend on the thread count.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <src-dir> <out-dir>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$src/src"

cli() {
    { echo "mvtrust $*"; python -m mvtrust.cli "$@"; } | sed "s#$out/##g" >> "$out/cli.log"
}

: > "$out/cli.log"

c11=$out/c11
cli synth --out "$c11/data" --classes 3 --samples 60 --dims 5,6 --seed 21
cli train --data "$c11/data/manifest.json" --out "$c11/train" \
    --epochs 5 --subspace-dim 8 --seed 3
cli eval --model "$c11/train/checkpoint.npz" --data "$c11/data/manifest.json" \
    --out "$c11/eval" --holdout
cli ablate --data "$c11/data/manifest.json" --out "$c11/ablate" \
    --switches no_h1,no_attention,no_common_loss,no_specific_loss --epochs 3
cli train --data "$c11/data/manifest.json" --out "$c11/trials" \
    --trials 2 --epochs 2 --subspace-dim 8 --seed 3

# the acceptance data of tests/conftest.py
acc=$out/acc
cli synth --out "$acc/data" --classes 4 --samples 1000 --dims 20,30,25 \
    --separation 4.5 --nuisance 0.8,0.3,0.3 --seed 7
data=$acc/data/manifest.json
cli train --data "$data" --out "$acc/full15" --epochs 15 --seed 7
cli train --data "$data" --out "$acc/batch32" --epochs 3 --batch-size 32 --seed 7
model=$acc/full15/checkpoint.npz
cli eval --model "$model" --data "$data" --out "$acc/eval_noise" --holdout \
    --noise-sigma 10 --noise-fraction 0.5 --seed 13
cli eval --model "$model" --data "$data" --out "$acc/eval_misalign" --holdout \
    --conflict-fraction 0.4 --corrupt-views 0 --seed 13
cli sweep --model "$model" --data "$data" --out "$acc/sweep" --holdout \
    --noise-fraction 0.5 --corruption-seed 13

cli gradcheck --seeds 2

echo "wrote $out"
