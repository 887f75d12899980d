#!/usr/bin/env bash
# End-to-end smoke of the installed `lmbart` console script ([project.scripts]):
# simulate, then train, predict and diagnostics for constant, linear,
# ancestors-rule and probit runs, one command after another, then a tiny
# benchmark grid through the process pool, and last four commands that must be
# refused, the last one on a run trained without --store-trees. The tests call
# cli.main in-process; this runs the entry point itself. Run it from an empty
# directory outside the checkout, with lmbart installed:
#   cd "$(mktemp -d)" && bash /path/to/checkout/.github/cli-smoke.sh
set -e
lmbart simulate --n 120 --p 5 --seed 4 --out sim.csv
lmbart train --data sim.csv --target y --trees 4 --burnin 20 --iters 30 --seed 7 --store-trees --out run
lmbart predict --run run --data sim.csv --out pred.csv
lmbart diagnostics --run run --out sigma2.csv
# a header line, then one line per row or per sweep
test "$(wc -l < pred.csv)" -eq 121
test "$(wc -l < sigma2.csv)" -eq 51
# a tree that kept the previous draw's splits is stored as its leaf values alone
grep -q '"kind": "same"' run.draws.jsonl
lmbart train --data sim.csv --target y --leaf linear --trees 4 --burnin 20 --iters 30 --seed 7 --store-trees --out linear
lmbart predict --run linear --data sim.csv --out linear-pred.csv
lmbart diagnostics --run linear --out linear-sigma2.csv
test "$(wc -l < linear-pred.csv)" -eq 121
test "$(wc -l < linear-sigma2.csv)" -eq 51
# the other stored linear leaves: per-leaf covariates, fixed precisions
lmbart train --data sim.csv --target y --leaf linear --covariate-rule ancestors --vars-inter-slope false --trees 4 --burnin 20 --iters 30 --seed 7 --store-trees --out ancestors
lmbart predict --run ancestors --data sim.csv --out ancestors-pred.csv
lmbart diagnostics --run ancestors --out ancestors-sigma2.csv
test "$(wc -l < ancestors-pred.csv)" -eq 121
test "$(wc -l < ancestors-sigma2.csv)" -eq 51
# a 0/1 target: whether y lies above its median
python3 - <<'PY'
import csv, statistics
with open("sim.csv", newline="") as fh:
    header, *rows = csv.reader(fh)
median = statistics.median(float(r[-1]) for r in rows)
with open("binary.csv", "w", newline="") as fh:
    csv.writer(fh).writerows([header] + [r[:-1] + [str(int(float(r[-1]) > median))]
                                         for r in rows])
PY
lmbart train --data binary.csv --target y --task classification --trees 4 --burnin 20 --iters 30 --seed 7 --store-trees --out probit
lmbart predict --run probit --data binary.csv --out probit-pred.csv
lmbart diagnostics --run probit --out probit-sigma2.csv
test "$(wc -l < probit-pred.csv)" -eq 121
test "$(wc -l < probit-sigma2.csv)" -eq 51
# one scenario, two algorithms, two replicates, fitted by two worker processes
cat > grid.json <<'JSON'
{"replicates": 2, "scenarios": [{"n": 60}],
 "algorithms": [{"name": "c2", "m": 2, "burn_in": 5, "post_burn_in": 10},
                {"name": "l2", "leaf_model": "linear", "m": 2, "burn_in": 5, "post_burn_in": 10}]}
JSON
lmbart benchmark --grid grid.json --out bench --jobs 2
# a header line, then one line per (scenario, algorithm) cell
test "$(wc -l < bench/rmse_table.csv)" -eq 3
test "$(wc -l < bench/param_counts.csv)" -eq 3
# a refused command exits 1, prints one error line naming the value, and writes nothing
refused() {   # expected error line, output path, command...
  local expected=$1 out=$2 status=0
  shift 2
  "$@" 2> err.txt || status=$?
  test "$status" -eq 1 && test "$(cat err.txt)" = "$expected" && test ! -e "$out"
}
refused "error: seed must be >= 0, got -1" bad.csv \
  lmbart simulate --n 120 --seed -1 --out bad.csv
cat > bad-grid.json <<'JSON'
{"scenarios": [{"n": 60, "seed": -1}],
 "algorithms": [{"name": "c2", "m": 2, "burn_in": 5, "post_burn_in": 10}]}
JSON
refused "error: bad-grid.json: scenario 0: seed must be >= 0, got -1" bad-bench \
  lmbart benchmark --grid bad-grid.json --out bad-bench
# a run file of the previous format version
sed '1s/"version": "lmbart [^"]*"/"version": "lmbart 0.1.0"/' run.draws.jsonl > old.draws.jsonl
refused "error: old.draws.jsonl: written by 'lmbart 0.1.0', expected 'lmbart 0.2.0'" old-pred.csv \
  lmbart predict --run old --data sim.csv --out old-pred.csv
# a run trained without --store-trees holds no trees to replay
lmbart train --data sim.csv --target y --trees 4 --burnin 20 --iters 30 --seed 7 --out notrees
refused "notrees.draws.jsonl: no stored trees; rerun train with --store-trees" notrees-pred.csv \
  lmbart predict --run notrees --data sim.csv --out notrees-pred.csv
