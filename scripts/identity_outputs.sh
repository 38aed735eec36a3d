#!/usr/bin/env bash
# Write the outputs of a fixed set of CLI runs of the mvtrust tree <src-dir>
# into <out-dir>, and their sha256 digests, one line per file sorted by
# path, into <out-dir>/identity.sha256.  With --check, compare those digests
# with the baseline committed in the tree, <src-dir>/scripts/identity.sha256,
# name every file that differs, is missing or is new, and exit 1 if any does:
#
#   scripts/identity_outputs.sh --check . /tmp/ident
#
# or run it on two trees and compare the results with diff:
#
#   scripts/identity_outputs.sh /path/to/old-tree /tmp/ident-old
#   scripts/identity_outputs.sh .                 /tmp/ident-new
#   diff -r /tmp/ident-old /tmp/ident-new
#
# A refactor that changes no float operation leaves every file identical.
# A change that moves outputs on purpose commits the new baseline:
#
#   cp /tmp/ident/identity.sha256 scripts/identity.sha256
#
# The digests hold for the numpy and Python versions that each run.meta
# records; another numpy may round a sum differently.  <out-dir> must be
# empty or absent, so that no file of an earlier run can stand in for one
# this run did not write.
#
# The baseline moved once, when the loss stack was rebuilt over stacked
# views and the special functions took ten unmasked unit steps: that change
# was accepted because every numeric cell of every training_log*.tsv agreed
# with the tree before it to 1e-9 relative; its outputs are the baseline.
# Since then the mini-batch logs write lambda_t as the schedule's value, not
# as its row-weighted mean over batches: acc/batch32's lambda_t cells read
# 0.02 and 0.04 where they read 0.020000000000000004 and 0.04000000000000001.
# `run.meta` and the `__meta__` entry of `checkpoint.npz` also hold the
# config and its hash, so they differ when a TrainConfig field changes.
#
# The baseline moved a second time when the `disc_hidden` and
# `evidence_hidden` fields left `TrainConfig` and `ModelSpec` (the hidden
# width became the constant 64, the only width any run used): the 24
# `run.meta` and `checkpoint*.npz` files changed, each only by those two
# keys and `config_hash`, with every parameter array byte-equal; the other
# 55 files kept their digests.
#
# The baseline moved a third time when `evaluate` began to run its forward
# pass in blocks of 512 rows: OpenBLAS rounds the evidence heads' GEMMs
# differently above about 3,000 rows, so only big/eval_noise moved, in two
# files.  In records.tsv 9,920 of 90,000 cells differ, all in joint_u and
# local_u_*, by at most 8.3e-16 relative; no prediction, label, mask or
# attention cell changed.  In conflict_matrix.tsv one view pair moved in
# its last digit (1.2e-16 relative).  scripts/drift.py, run on the two
# output trees, reports exactly that; the other 77 files kept their digests.
#
# The runs:
#   c11/            the criterion 11 setup: 60 rows, 5 epochs, clean held-out eval
#   c11/ablate      every ablation switch, 3 epochs each, on the criterion 11 data
#   c11/trials      two seeded trials of 2 epochs each on the criterion 11 data
#   c11/bypass_h1   2 epochs at batch size 8 with {"bypass_h1": true}
#   c11/uniform_attention  2 epochs at batch size 8 with {"uniform_attention": true}
#   c11/gamma0      2 epochs at batch size 8 with {"gamma": 0.0}, so neither
#                   hierarchy loss has a conflict term; it logs to its own
#                   cli.log, so the top-level cli.log keeps its digest
#   acc/full15      15 full-batch epochs on the acceptance data
#   acc/batch32     3 epochs at batch size 32 on the acceptance data
#   acc/eval_noise  sigma=10 noise on half of the held-out rows
#   acc/eval_noise_views  sigma=10 noise on views 1 and 2 of half of the
#                   held-out rows; it logs to its own cli.log, so the top-level
#                   cli.log keeps the digest it had before this run was added
#   acc/eval_misalign  view 0 misaligned on 40 % of the held-out rows
#   acc/sweep       accuracy and mean uncertainty per noise level
#   big/eval_noise  an eval at benchmark scale: 5,000 held-out rows of a
#                   5,800-row synth, sigma=1 noise on half of them; summation
#                   order over a (5000, v) array shows in the last bit of a mean
#   cli.log         also the worst loss gradcheck errors over 2 seeds
#
# BLAS runs on one thread, so sums do not depend on the thread count.
set -euo pipefail

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [--check] <src-dir> <out-dir>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
if [ -n "$(ls -A "$2" 2>/dev/null)" ]; then
    echo "$0: $2 is not empty" >&2
    exit 2
fi
mkdir -p "$2"
out=$(cd "$2" && pwd)

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$src/src"

# appends the command and its output to $log, by default <out-dir>/cli.log
cli() {
    { echo "mvtrust $*"; python -m mvtrust.cli "$@"; } | sed "s#$out/##g" >> "${log:-$out/cli.log}"
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
# the ablation table holds accuracies only; the switched training logs show
# every bit of the losses under each switch
for switch in bypass_h1 uniform_attention; do
    echo "{\"$switch\": true}" > "$c11/$switch.json"
    cli train --data "$c11/data/manifest.json" --out "$c11/$switch" --config "$c11/$switch.json" \
        --batch-size 8 --epochs 2 --subspace-dim 8 --seed 3
done
mkdir -p "$c11/gamma0"
echo '{"gamma": 0.0}' > "$c11/gamma0.json"
log=$c11/gamma0/cli.log cli train --data "$c11/data/manifest.json" --out "$c11/gamma0" \
    --config "$c11/gamma0.json" --batch-size 8 --epochs 2 --subspace-dim 8 --seed 3

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
mkdir -p "$acc/eval_noise_views"
log=$acc/eval_noise_views/cli.log cli eval --model "$model" --data "$data" \
    --out "$acc/eval_noise_views" --holdout --noise-sigma 10 --noise-fraction 0.5 \
    --corrupt-views 1,2 --seed 13
cli eval --model "$model" --data "$data" --out "$acc/eval_misalign" --holdout \
    --conflict-fraction 0.4 --corrupt-views 0 --seed 13
cli sweep --model "$model" --data "$data" --out "$acc/sweep" --holdout \
    --noise-fraction 0.5 --corruption-seed 13

# eval-sweep scale: 800 training rows, 5,000 held-out rows
big=$out/big
cli synth --out "$big/data" --classes 4 --samples 5800 --dims 20,30,25 \
    --separation 4.5 --nuisance 0.8,0.3,0.3 --seed 41
cli train --data "$big/data/manifest.json" --out "$big/train" --train-fraction 0.138 \
    --epochs 8 --batch-size 32 --seed 0
cli eval --model "$big/train/checkpoint.npz" --data "$big/data/manifest.json" \
    --out "$big/eval_noise" --holdout --noise-sigma 1 --noise-fraction 0.5 --seed 41

cli gradcheck --seeds 2

digests=$out/identity.sha256
(cd "$out" && find . -type f ! -path ./identity.sha256 -print0 | LC_ALL=C sort -z \
    | xargs -0 sha256sum) > "$digests"
echo "wrote $out"

if [ "$check" = 1 ]; then
    baseline=$src/scripts/identity.sha256
    if [ ! -f "$baseline" ]; then
        echo "identity check: no baseline $baseline" >&2
        exit 2
    fi
    # one line per file whose digest differs from the baseline's, or that only one side has
    report=$(awk 'NR == FNR { want[$2] = $1; next }
        { got[$2] = $1 }
        END {
            for (f in want) if (!(f in got)) print "missing  " f
                            else if (got[f] != want[f]) print "differs  " f
            for (f in got) if (!(f in want)) print "new      " f
        }' "$baseline" "$digests" | LC_ALL=C sort -k2)
    if [ -n "$report" ]; then
        echo "$report"
        echo "identity check failed: $(echo "$report" | wc -l) file(s) differ from $baseline" >&2
        exit 1
    fi
    echo "identity check passed: $(wc -l < "$digests") files match $baseline"
fi
