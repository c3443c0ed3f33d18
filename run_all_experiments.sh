#!/bin/sh
# Runs the full experiment suite sequentially, teeing per-experiment logs
# into <results>/logs/. MATELDA_SCALE defaults to full.
#
# <results> is results/ at full scale (the recorded results EXPERIMENTS.md
# cites) and results/<scale>/ at quick and small scale, the same rule the
# binaries apply to their CSVs (`Scale::results_dir`), so a quick or small
# run never rewrites the recorded results.
#
# Every binary appends its accuracy rows to the shared EVAL_matrix.json
# (override the path with MATELDA_EVAL_OUT); rows are keyed by
# (experiment, scale), so runs at different scales accumulate side by
# side instead of overwriting each other — a quick pass never collides
# with scale_bench's large-ci row. A failing experiment no longer
# vanishes silently — the script reports each exit status and exits
# non-zero listing every experiment that failed.
cd "$(dirname "$0")" || exit 1
export MATELDA_SCALE="${MATELDA_SCALE:-full}"
case "$MATELDA_SCALE" in
  quick | small) OUT="results/$MATELDA_SCALE" ;;
  *) OUT=results ;;
esac
BIN=target/release
mkdir -p "$OUT/logs"
exps="table1 table3 table2 fig4 fig5 fig6 fig7 fig8 ablation_deviations ablation_classifier ablation_labeling fig3 fig9"
failed=""
for exp in $exps; do
  echo "=== running $exp (scale $MATELDA_SCALE) at $(date +%H:%M:%S) ==="
  $BIN/$exp > "$OUT/logs/$exp.txt" 2>&1
  status=$?
  echo "=== $exp done (exit $status) at $(date +%H:%M:%S) ==="
  if [ "$status" -ne 0 ]; then
    failed="$failed $exp"
  fi
done
if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
echo ALL-DONE
