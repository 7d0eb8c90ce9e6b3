#!/usr/bin/env bash
# Behaviour gate: run the same commands on BASE_REV and on the working tree
# and require identical artifacts, stdout, stderr and exit codes.
#
#   scripts/behaviour_gate.sh BASE_REV
#
# Each side runs with its own src/ on PYTHONPATH, in its own directory, with
# relative paths, so the outputs name no side.  Commands: train, compare and
# sweep on every configs/*.json, bound on the toy_regression trajectory,
# and bound on that trajectory with three configs of another run (all exit
# 2): configs/compare_sgld.json, whose SGLD sets no beta, so bound's range
# check stops it at section 'train' key 'beta' before the CSV is read, and
# the two runs of bound's recheck failure path, the toy config at delta 0.1
# (caught at bound_prefix row 0) and at loss_power 4 (caught at psi row 0);
# train on bench/wide_gd.json, verify --seed 0 and --seed 3 (a second
# seed, so a change to the random streams or their summation shows at more
# than one draw), verify --seed 7 on homogeneity and value-bounds (a third
# draw of the two suites whose trials run in stacked chunks, so a change to
# their chunked summation shows at more specs), verify --seed 2 on
# rademacher, init-concentration, rademacher (outcomes in request order
# when a suite is requested twice),
# and verify --seed 0 --inject-bug, the one run of the perturbed
# homogeneity suite, which must exit 1 on the working tree; and train
# --seed 5 on the toy config, the one run whose seed list the command line
# replaces.  Fourteen more configs are
# written by this script, the same on both sides, to cover the paths the
# shipped configs miss: a two-seed gradient-flow run with loss_power 4, a
# test set and an SVG chart (train and bound); a two-seed minibatch SGD run
# with loss_power 4, label noise and a test set (train and bound); a
# two-seed CNN SGLD run (train and bound, the one SGLD trajectory whose psi,
# CL and bound_prefix bound rechecks); a two-seed GD run on a CNN with no fc
# layer, the one layout whose backward pass writes the readout's error
# signal over a conv output (train and bound); a GD run that diverges at step 3 (train
# and bound, both exit 1); an SGD run whose minibatches are drawn four
# steps at a time and that diverges at step 6, inside its second block
# (train and bound, both exit 1); and a two-seed width sweep over JSON
# integers (sweep), whose directory names and sweep.csv value column spell
# each value as the JSON does; a two-seed lr sweep over a base config with
# "eta": "auto" (sweep), whose values replace the resolved rate; a
# two-seed GD run on classification data whose sweep.axis is noise, swept
# with --axis lr (sweep), the one run whose axis the command line replaces;
# and a two-seed SGD run on an IDX fixture written by gen-data --kind idx-fixture
# (train), the one data section that is loaded and split, and the same run
# at noise_fraction 0.25 (train), the one run of label noise on a loaded
# split; configs/toy_regression.json at delta 0.1 and at loss_power 4
# (bound, above); and
# configs/compare_sgld.json at eta 50, whose beta=10 SGLD run diverges at
# step 3 (compare, which exits 1 from the working tree).
# Exits 1 on any difference, 2 on a usage error.  Set TMPDIR to choose where the two trees
# and their outputs go; they are removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_rev=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The base tree is exported, not checked out as a worktree, so an
# interrupted run leaves nothing registered in the repository.
mkdir "$tmp/base_tree"
git -C "$repo" archive "$base_rev" | tar -x -C "$tmp/base_tree"

write_extra_configs() {  # write_extra_configs DIR
    mkdir -p "$1"
    cat >"$1/gf_power4.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [16], "output_width": 16, "norm_exponent": 0.5},
  "train": {"algorithm": "GF", "eta": 0.1, "duration": 0.5, "gf_substep": 0.01, "loss_power": 4},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 64, "n_test": 32, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1],
  "svg": true
}
EOF
    cat >"$1/sgd_power4.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [16, 16], "output_width": 16, "norm_exponent": 0.5},
  "train": {"algorithm": "SGD", "eta": 0.1, "batch": 16, "total_steps": 200, "loss_power": 4},
  "data": {"source": "synthetic", "kind": "classification", "n_train": 128, "n_test": 64,
           "c_y": 0.5, "noise_fraction": 0.25, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1]
}
EOF
    cat >"$1/cnn_sgld.json" <<'EOF'
{
  "network": {"input_dim": 3, "conv_kernels": [2], "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
  "train": {"algorithm": "SGLD", "eta": 0.05, "beta": 1000.0, "total_steps": 100},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 64, "n_test": 32, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1]
}
EOF
    cat >"$1/cnn_conv_only.json" <<'EOF'
{
  "network": {"input_dim": 3, "conv_kernels": [1, 2], "fc_widths": [], "output_width": 1, "norm_exponent": 0.5},
  "train": {"algorithm": "GD", "eta": 0.1, "total_steps": 100},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 64, "n_test": 32, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1]
}
EOF
    cat >"$1/gd_diverge.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [16, 16], "output_width": 16, "norm_exponent": 0.0},
  "train": {"algorithm": "GD", "eta": 40.0, "total_steps": 50, "kappa": 4.0},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 16, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0]
}
EOF
    cat >"$1/sgd_diverge.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [16], "output_width": 16, "norm_exponent": 0.0},
  "train": {"algorithm": "SGD", "eta": 14.0, "t0": 50, "batch": 512, "total_steps": 50, "kappa": 2.0},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 128, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0]
}
EOF
    cat >"$1/width_sweep.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [4, 4], "output_width": 4, "norm_exponent": 0.5},
  "train": {"algorithm": "GD", "eta": 0.05, "total_steps": 50},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 64, "n_test": 32, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "sweep": {"axis": "width", "values": [4, 8]},
  "seeds": [0, 1]
}
EOF
    cat >"$1/lr_sweep.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
  "train": {"algorithm": "GD", "eta": "auto", "total_steps": 50},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 64, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "sweep": {"axis": "lr", "values": [0.02, 0.08]},
  "seeds": [0, 1]
}
EOF
    cat >"$1/noise_axis.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
  "train": {"algorithm": "GD", "eta": 0.05, "total_steps": 50},
  "data": {"source": "synthetic", "kind": "classification", "n_train": 64, "c_y": 0.25, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "sweep": {"axis": "noise", "values": [0.02, 0.08]},
  "seeds": [0, 1]
}
EOF
    cat >"$1/toy_power4.json" <<'EOF'
{
  "network": {"input_dim": 3, "fc_widths": [16], "output_width": 16, "norm_exponent": 0.5},
  "train": {"algorithm": "GD", "eta": 0.05, "alpha": 1.0, "t0": 1, "total_steps": 200, "kappa": 1.0,
            "loss_power": 4},
  "data": {"source": "synthetic", "kind": "regression", "n_train": 256, "n_test": 128, "seed": 0},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1, 2]
}
EOF
    cat >"$1/idx_sgd.json" <<'EOF'
{
  "network": {"input_dim": 16, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
  "train": {"algorithm": "SGD", "eta": 0.1, "batch": 8, "total_steps": 100},
  "data": {"source": "idx", "images": "idx_fixture-images.idx", "labels": "idx_fixture-labels.idx",
           "keep": [0, 1], "c_y": 0.25, "train_fraction": 0.75, "seed": 3},
  "bound": {"lam": 0.5, "delta": 0.05},
  "seeds": [0, 1]
}
EOF
    edit_config() {  # edit_config SRC DST SECTION KEY VALUE: SRC with one key set, as DST
        python3 -c 'import json, sys
src, dst, section, key, value = sys.argv[1:]
doc = json.load(open(src))
doc[section][key] = json.loads(value)
json.dump(doc, open(dst, "w"), indent=2)' "$@"
    }
    edit_config "$repo/configs/compare_sgld.json" "$1/compare_diverge.json" train eta 50
    edit_config "$repo/configs/toy_regression.json" "$1/toy_delta.json" bound delta 0.1
    edit_config "$1/idx_sgd.json" "$1/idx_noise.json" data noise_fraction 0.25
}

run_side() {  # run_side TREE OUTDIR
    local tree=$1 out=$2
    mkdir -p "$out"
    cp -r "$tree/configs" "$out/configs"
    cp "$tree/bench/wide_gd.json" "$out/wide_gd.json"
    write_extra_configs "$out/extra"
    (
        cd "$out"
        export PYTHONPATH="$tree/src"
        local where
        where=$(python3 -c 'import genbound, os; print(os.path.realpath(genbound.__file__))')
        case "$where" in
            "$(realpath "$tree")"/*) ;;
            *) echo "genbound resolves to $where, not to $tree" >&2; exit 2 ;;
        esac
        gb() {  # gb NAME ARGS...: run one command, keeping its streams and exit code
            local name=$1
            shift
            set +e
            python3 -m genbound.cli "$@" >"$name.stdout" 2>"$name.stderr"
            echo $? >"$name.exit"
            set -e
        }
        for cfg in configs/*.json; do
            stem=$(basename "$cfg" .json)
            gb "train_$stem" train --config "$cfg" --out "train_$stem"
            gb "compare_$stem" compare --config "$cfg" --out "compare_$stem"
            gb "sweep_$stem" sweep --config "$cfg" --out "sweep_$stem"
        done
        gb bound_toy bound --config configs/toy_regression.json \
            --trajectory train_toy_regression/trajectory.csv --out bound_toy.json
        gb bound_toy_as_sgld bound --config configs/compare_sgld.json \
            --trajectory train_toy_regression/trajectory.csv --out bound_toy_as_sgld.json
        gb bound_toy_delta bound --config extra/toy_delta.json \
            --trajectory train_toy_regression/trajectory.csv --out bound_toy_delta.json
        gb bound_toy_power4 bound --config extra/toy_power4.json \
            --trajectory train_toy_regression/trajectory.csv --out bound_toy_power4.json
        gb train_wide_gd train --config wide_gd.json --out train_wide_gd
        for stem in gf_power4 sgd_power4 cnn_sgld cnn_conv_only gd_diverge sgd_diverge; do
            gb "train_$stem" train --config "extra/$stem.json" --out "train_$stem"
        done
        for stem in gf_power4 sgd_power4 cnn_sgld cnn_conv_only gd_diverge sgd_diverge; do
            gb "bound_$stem" bound --config "extra/$stem.json" \
                --trajectory "train_$stem/trajectory.csv" --out "bound_$stem.json"
        done
        gb compare_diverge compare --config extra/compare_diverge.json --out compare_diverge
        gb sweep_width sweep --config extra/width_sweep.json --out sweep_width
        gb sweep_lr sweep --config extra/lr_sweep.json --out sweep_lr
        gb sweep_axis_lr sweep --config extra/noise_axis.json --axis lr --out sweep_axis_lr
        gb gen_idx gen-data --kind idx-fixture --n 80 --seed 1 --out idx_fixture
        gb train_idx_sgd train --config extra/idx_sgd.json --out train_idx_sgd
        gb train_idx_noise train --config extra/idx_noise.json --out train_idx_noise
        gb train_toy_seed5 train --config configs/toy_regression.json --seed 5 --out train_toy_seed5
        gb verify verify --seed 0 --out verify.json
        gb verify3 verify --seed 3 --out verify3.json
        gb verify7 verify --seed 7 --suite homogeneity --suite value-bounds --out verify7.json
        gb verify_order verify --suite rademacher --suite init-concentration \
            --suite rademacher --seed 2 --out verify_order.json
        gb verify_bug verify --seed 0 --inject-bug --out verify_bug.json
    )
}

echo "base: $base_rev"
run_side "$tmp/base_tree" "$tmp/base"
echo "working tree: $repo"
run_side "$repo" "$tmp/work"

for f in "$tmp"/work/*.exit; do
    echo "$(basename "$f" .exit): exit $(cat "$f")"
done
if [ "$(cat "$tmp/work/verify_bug.exit")" != 1 ]; then
    echo "behaviour gate: verify --inject-bug did not exit 1" >&2
    exit 1
fi
if diff -r "$tmp/base" "$tmp/work"; then
    echo "behaviour gate: no difference"
else
    echo "behaviour gate: outputs differ" >&2
    exit 1
fi
