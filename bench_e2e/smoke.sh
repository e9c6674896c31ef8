#!/usr/bin/env bash
# bench_e2e_smoke: every workload at 1/50 scale, five times; the reports
# through --compare (which parses them with obs/jsonlint); the traced twin on
# tealeaf-calls with its Chrome trace through trace_lint; and the result lines
# against the metric lists in BENCHMARK.json. bench_e2e exits non-zero when a
# unit failed, so passing means failed_frac == 0.
#
# Usage: smoke.sh <directory holding bench_e2e and trace_lint> <BENCHMARK.json>
set -euo pipefail
bin="$1"
benchmark_json="$2"

"$bin/bench_e2e" --runs 5 --scale 0.02 --seconds 0 --json smoke.json > smoke.out
"$bin/bench_e2e" --compare smoke.json smoke.json --bounds "$benchmark_json"
"$bin/bench_e2e" --workload tealeaf-calls --scale 0.02 --seconds 0 --trace 1 > smoke_traced.out
"$bin/trace_lint" --trace BENCH_e2e.tealeaf-calls.trace.json

python3 - "$benchmark_json" smoke.out smoke_traced.out <<'EOF'
import json
import sys

spec = json.load(open(sys.argv[1]))
for path, key in ((sys.argv[2], "end_to_end"), (sys.argv[3], "per_layer")):
    result = json.loads(open(path).read().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (path, result)
    expected = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (path, sorted(set(got.items()) ^ set(expected.items())))
print("bench_e2e_smoke: result lines match BENCHMARK.json")
EOF
