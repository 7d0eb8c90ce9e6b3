#!/usr/bin/env bash
# Behaviour gate: run the same commands on BASE_REV and on the working tree
# and require identical artifacts, stdout, stderr and exit codes.
#
#   scripts/behaviour_gate.sh BASE_REV
#
# Each side runs with its own src/ on PYTHONPATH, in its own directory, with
# relative paths, so the outputs name no side.  Commands: train, compare and
# sweep on every configs/*.json, bound on the toy_regression trajectory,
# train on bench/wide_gd.json, and verify --seed 0.  Exits 1 on any
# difference, 2 on a usage error.  Set TMPDIR to choose where the two trees
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

run_side() {  # run_side TREE OUTDIR
    local tree=$1 out=$2
    mkdir -p "$out"
    cp -r "$tree/configs" "$out/configs"
    cp "$tree/bench/wide_gd.json" "$out/wide_gd.json"
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
        gb train_wide_gd train --config wide_gd.json --out train_wide_gd
        gb verify verify --seed 0 --out verify.json
    )
}

echo "base: $base_rev"
run_side "$tmp/base_tree" "$tmp/base"
echo "working tree: $repo"
run_side "$repo" "$tmp/work"

for f in "$tmp"/work/*.exit; do
    echo "$(basename "$f" .exit): exit $(cat "$f")"
done
if diff -r "$tmp/base" "$tmp/work"; then
    echo "behaviour gate: no difference"
else
    echo "behaviour gate: outputs differ" >&2
    exit 1
fi
