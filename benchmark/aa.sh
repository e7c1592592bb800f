#!/usr/bin/env bash
# A/A check: run the untraced suite twice on one build with one seed and fail
# if any end-to-end metric of any workload differs between the two runs by
# more than the bound BENCHMARK.json gives it.
#
#   benchmark/aa.sh [SEED] [extra benchmark arguments, e.g. --seconds 4 or --quick]
#
# Needs python3 for the comparison. Raw outputs are kept in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
shift || true
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

mkdir -p benchmark/out
status=0
for pass in 1 2; do
    "${run[@]}" --seed "$seed" --trace 0 "$@" >"benchmark/out/aa.$pass.txt" || status=$?
done
if [ "$status" -ne 0 ]; then
    echo "aa: a run failed its own checks (see benchmark/out/aa.*.txt)" >&2
    exit "$status"
fi

python3 - benchmark/out/aa.1.txt benchmark/out/aa.2.txt <<'PY'
import json, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def results(path):
    out = {}
    for line in open(path):
        if line.startswith("result "):
            _, workload, _pass, payload = line.split(" ", 3)
            out[workload] = {k: v["value"] for k, v in json.loads(payload)["metrics"].items()}
    return out

first, second = results(sys.argv[1]), results(sys.argv[2])
assert first and first.keys() == second.keys(), "the two runs report different workloads"
worst = 0
for workload in first:
    for name, bound in bounds.items():
        a, b = first[workload][name], second[workload][name]
        delta = abs(b - a) / abs(a)
        verdict = "ok" if delta <= bound else "DIFFERS"
        worst += verdict != "ok"
        print(f"{workload:<20} {name:<18} {a:>16.4f} {b:>16.4f}  {100 * delta:6.2f} %  (bound {100 * bound:.0f} %)  {verdict}")
print("aa: every end-to-end metric agrees within its bound" if not worst else f"aa: {worst} metric(s) differ by more than their bound")
sys.exit(1 if worst else 0)
PY
