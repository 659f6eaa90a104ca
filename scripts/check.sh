#!/bin/sh
# Lightweight pre-merge gate: byte-compile the package, run the parlint
# static checkers, prove the scan-operator laws, then run the test
# suite.  Usage: scripts/check.sh [extra pytest args...]
set -eu
cd "$(dirname "$0")/.."

# The example scripts run as subprocesses and need the package on the
# path too (pytest's `pythonpath` setting only covers its own process).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python -m compileall -q src
python -m repro lint src
# Dataflow tier: the buffer-ownership analysis must prove src/repro free
# of unwaived borrowed-view mutations and escapes (PPR6xx) — the static
# half of the zero-copy safety argument (the runtime half is the
# read-only guard the parity suites enable).
python -m repro lint src/repro --select PPR6
# Lint self-test smoke: the known-bad corpus must still fail, and the
# dataflow corpus must trip both new checkers.
if python -m repro lint tests/analysis/corpus > /dev/null 2>&1; then
    echo "parlint corpus unexpectedly clean" >&2
    exit 1
fi
corpus_codes="$(python -m repro lint tests/analysis/corpus \
    --select PPR6 || true)"
for code in PPR601 PPR602 PPR603 PPR604 PPR605 PPR606; do
    case "$corpus_codes" in
        *"$code"*) ;;
        *) echo "parlint corpus smoke: $code not caught" >&2; exit 1 ;;
    esac
done
echo "parlint corpus smoke: PPR601-606 all caught"
# Law tier: exhaustive associativity+identity proofs for every
# registered scan operator (licenses the parallel scans of paper §2).
python -m pytest tests/analysis/test_operator_laws.py -q
# DFA proof tier: minimisation must preserve behaviour for every shipped
# automaton (equivalence vs the canonical form, idempotence, Hopcroft vs
# data-parallel engine agreement, registry distinctness, strict
# inclusion) — what licenses running sweeps on the minimised automaton.
python -m pytest tests/analysis/test_dfa_proofs.py -q
# Kernel tier: strided sweeps (uniform k and the mixed-stride k=8 SWAR
# ladder) must be bit-identical to unit stride (STVs, emissions, final
# state, invalid position; both executors; minimised and raw automata).
python -m pytest tests/kernels/test_parity.py -q
# Partition tier: the field partition must be bit-identical to the
# stable radix-sort oracle (css, column offsets, per-column field index,
# final table) across dialects, tagging modes and executors.
python -m pytest tests/core/test_partition.py \
    tests/core/test_partition_parity.py -q
# Columnar tier: the convert stage (fused zero-copy or copying, as the
# data allows) must equal the sequential reference (dialects x tagging
# modes x executors), string columns must alias the CSS, and the buffer
# layer/feather round-trips hold.
python -m pytest tests/core/test_columnar_parity.py \
    tests/columnar -q

# Observability smoke: a sharded CLI parse must emit a Chrome trace that
# the repo's own validator accepts, with worker spans and merged metrics.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
python - "$OBS_TMP" <<'EOF'
import sys, pathlib
rows = b"".join(
    b"%d,%d.25,item-%d\n" % (i, i, i) for i in range(200))
pathlib.Path(sys.argv[1], "smoke.csv").write_bytes(rows)
EOF
python -m repro parse "$OBS_TMP/smoke.csv" --workers 4 \
    --trace "$OBS_TMP/trace.json" --metrics > /dev/null
python - "$OBS_TMP/trace.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
names = {e.get("name") for e in doc["traceEvents"]}
assert "parse" in names and "sharded:contexts" in names, sorted(names)
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("obs smoke: trace valid,", len(doc["traceEvents"]), "events")
EOF

# Strided-kernel smoke: an explicitly strided sharded parse must still
# produce a valid trace and report the stride it ran with.
python -m repro parse "$OBS_TMP/smoke.csv" --stride 2 --workers 2 \
    --trace "$OBS_TMP/trace_strided.json" --metrics > /dev/null
python - "$OBS_TMP/trace_strided.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 2.0, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("kernels smoke: strided trace valid")
EOF

# k=8 SWAR smoke: a pipe-delimited unquoted parse minimises to a single
# state, so the full k=8 ladder fits easily; a sharded --stride 8 run
# must report stride 8 and the default table budget.
python - "$OBS_TMP" <<'EOF'
import sys, pathlib
rows = b"".join(b"%d|%d.25|item-%d\n" % (i, i, i) for i in range(200))
pathlib.Path(sys.argv[1], "smoke_pipe.csv").write_bytes(rows)
EOF
python -m repro parse "$OBS_TMP/smoke_pipe.csv" --delimiter '|' \
    --quote '' --no-crlf --stride 8 --workers 2 \
    --trace "$OBS_TMP/trace_k8.json" --metrics > /dev/null
python - "$OBS_TMP/trace_k8.json" <<'EOF'
import json, sys
from repro.kernels import DEFAULT_TABLE_BUDGET
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 8.0, doc["metrics"]
assert doc["metrics"]["gauges"]["kernels.table_budget"] \
    == float(DEFAULT_TABLE_BUDGET), doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("kernels smoke: k=8 sharded trace valid")
EOF

# Minimisation proof smoke: the registry-wide proof sweep must be clean,
# and a shrunken --table-budget must narrow the auto-picked stride.
python - <<'EOF'
from repro.analysis.dfaproofs import verify_all
broken = {s: [str(v) for v in vs] for s, vs in verify_all().items() if vs}
assert not broken, broken
print("dfa proofs smoke: registry sweep clean")
EOF
python -m repro parse "$OBS_TMP/smoke.csv" --table-budget 1 \
    --trace "$OBS_TMP/trace_budget.json" --metrics > /dev/null
python - "$OBS_TMP/trace_budget.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 1.0, doc["metrics"]
assert doc["metrics"]["gauges"]["kernels.table_budget"] == 1.0, \
    doc["metrics"]
print("kernels smoke: shrunken table budget degrades to unit stride")
EOF

# Partition smoke: a sharded parse must still produce a valid trace and
# report the number of fields the field partition placed.
python -m repro parse "$OBS_TMP/smoke.csv" \
    --workers 2 --trace "$OBS_TMP/trace_fieldrun.json" --metrics > /dev/null
python - "$OBS_TMP/trace_fieldrun.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert doc["metrics"]["gauges"]["partition.fields"] > 0, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("partition smoke: field partition trace valid")
EOF

# Columnar export smoke: a sharded parse must write a feather-style
# file that the repo's own reader round-trips.
python -m repro parse "$OBS_TMP/smoke.csv" --workers 2 \
    --output "$OBS_TMP/out.feather" --output-format feather > /dev/null
python - "$OBS_TMP/out.feather" <<'EOF'
import sys
from repro.columnar import read_feather
table = read_feather(sys.argv[1])
assert table.num_rows == 200, table
assert table.num_columns == 3, table
assert table.column(2).value(199) == "item-199", table.row(199)
print("columnar smoke: feather round-trip,", table.num_rows, "rows")
EOF

# Bench smoke: the stride sweep must run end to end and emit the
# machine-readable rows (tiny input; the committed BENCH_kernels.json
# is produced by the full benchmark run).
python benchmarks/bench_kernels.py --bytes 65536 --repeats 1 \
    --out "$OBS_TMP/bench_kernels.json" > /dev/null
python - "$OBS_TMP/bench_kernels.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
strides = {r["stride"] for r in doc["rows"]}
assert {"1", "2", "4", "8", "auto"} <= strides, strides
workloads = {r["workload"] for r in doc["rows"]}
assert {"yelp", "taxi", "logs"} <= workloads, workloads
assert all({"workload", "seconds", "mb_per_s", "resolved_stride"}
           <= r.keys() for r in doc["rows"])
# The logs automaton minimises to one state: auto must reach k=8 there.
logs_auto = next(r for r in doc["rows"]
                 if r["workload"] == "logs" and r["stride"] == "auto")
assert logs_auto["resolved_stride"] == 8, logs_auto
print("bench smoke:", len(doc["rows"]), "sweep rows")
EOF

# Partition bench smoke: the field-vs-radix sweep must run end to end
# and emit both the stage rows and the kernel rows (the radix_bits sweep
# and the field partition, radix_bits None).
python benchmarks/bench_partition.py --bytes 65536 --repeats 1 \
    --out "$OBS_TMP/bench_partition.json" > /dev/null
python - "$OBS_TMP/bench_partition.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
strategies = {r["strategy"] for r in doc["stage_rows"]}
assert {"radix", "field-run"} <= strategies, strategies
bits = {r["radix_bits"] for r in doc["kernel_rows"]}
assert {1, 2, 4, 8, None} <= bits, bits
print("partition bench smoke:", len(doc["stage_rows"]), "stage rows,",
      len(doc["kernel_rows"]), "kernel rows")
EOF

# Columnar bench smoke: the export sweep must run end to end and emit
# fused rows with the zero-copy counters.
python benchmarks/bench_columnar_export.py --bytes 65536 --repeats 1 \
    --out "$OBS_TMP/bench_columnar.json" > /dev/null
python - "$OBS_TMP/bench_columnar.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
paths = {r["path"] for r in doc["path_rows"]}
assert {"fused", "write_feather"} <= paths, paths
fused = [r for r in doc["path_rows"] if r["path"] == "fused"]
assert all(r["zero_copy_columns"] > 0 for r in fused), fused
assert all(r["bytes_copied"] < r["value_bytes"] for r in fused), fused
print("columnar bench smoke:", len(doc["path_rows"]), "path rows")
EOF

# Planner smoke: a --plan auto CLI parse must emit a valid Chrome trace
# carrying the plan.* spans and metrics of the decision it made.
python -m repro parse "$OBS_TMP/smoke.csv" --plan auto \
    --trace "$OBS_TMP/trace_plan.json" --metrics > /dev/null
python - "$OBS_TMP/trace_plan.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
names = {e.get("name") for e in doc["traceEvents"]}
assert {"plan.probe", "plan.decide", "parse"} <= names, sorted(names)
assert doc["metrics"]["counters"]["plan.decisions"] == 1, doc["metrics"]
assert doc["metrics"]["gauges"]["plan.chunk_size"] > 0, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("planner smoke: --plan auto trace valid, chunk",
      int(doc["metrics"]["gauges"]["plan.chunk_size"]), "stride",
      int(doc["metrics"]["gauges"]["plan.kernel_stride"]))
EOF

# Planner admission smoke: a tenant with a tiny cost budget must bounce
# at admission (priced by the planner), while the default tenant parses.
python - "$OBS_TMP" <<'EOF'
import pathlib, sys
from repro.errors import AdmissionError
from repro.serve.service import IngestService, ServiceConfig, TenantPolicy

data = pathlib.Path(sys.argv[1], "smoke.csv").read_bytes()
config = ServiceConfig(
    tenants={"tiny": TenantPolicy(max_cost_seconds=1e-12)})
with IngestService(config) as svc:
    try:
        svc.parse(data, tenant="tiny")
        raise SystemExit("over-budget request was accepted")
    except AdmissionError as error:
        assert error.reason == "over-budget", error.reason
    assert svc.parse(data).num_rows == 200
    rejects = svc.metrics.counters["serve.admission.rejects.over_budget"]
    assert rejects == 1, rejects
print("planner smoke: over-budget tenant rejected at admission")
EOF

# Plan bench smoke: the auto-vs-fixed sweep must run end to end and
# embed the chosen plan with its rationale (tiny input; the committed
# BENCH_plan.json is produced by the full benchmark run).
python benchmarks/bench_plan.py --bytes 65536 --repeats 1 --rounds 2 \
    --out "$OBS_TMP/bench_plan.json" > /dev/null
python - "$OBS_TMP/bench_plan.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
workloads = {r["workload"] for r in doc["rows"]}
assert {"yelp", "taxi", "logs"} <= workloads, workloads
autos = [r for r in doc["rows"] if r["config"] == "auto"]
assert len(autos) == 3, autos
for row in autos:
    decision = row["decision"]
    assert decision["rationale"], row["workload"]
    assert decision["chosen"]["chunk_size"] == row["chunk"], row
print("plan bench smoke:", len(doc["rows"]), "cells,",
      sum(len(r["decision"]["candidates"]) for r in autos),
      "candidates scored")
EOF

# Serve smoke: start the ingest service on an ephemeral port, hit it
# with concurrent clients (one oversized request that must bounce at
# admission with a per-tenant reject), require the served tables to be
# bit-identical to a direct parse, then shut down cleanly via SIGTERM.
python - "$OBS_TMP" <<'EOF'
import pathlib, re, signal, subprocess, sys, threading

tmp = sys.argv[1]
data = pathlib.Path(tmp, "smoke.csv").read_bytes()

server = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", "0",
     "--max-request-mb", "1"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
banner = server.stdout.readline()
port = int(re.search(r":(\d+) ", banner).group(1))

from repro.columnar.serialize import write_feather
from repro.core.parser import ParPaRawParser
from repro.errors import AdmissionError
from repro.serve import RemoteClient

expected = write_feather(ParPaRawParser().parse(data).table)
failures = []

def good_client(name):
    try:
        table = RemoteClient("127.0.0.1", port, tenant=name).parse(data)
        if write_feather(table) != expected:
            failures.append(f"{name}: payload not bit-identical")
    except Exception as error:
        failures.append(f"{name}: {error!r}")

def oversized_client():
    try:
        RemoteClient("127.0.0.1", port, tenant="big").parse(
            b"x" * (1024 * 1024 + 1))
        failures.append("oversized request was accepted")
    except AdmissionError as error:
        if error.reason != "oversized":
            failures.append(f"wrong reject reason: {error.reason}")
    except Exception as error:
        failures.append(f"oversized: wrong error {error!r}")

threads = [threading.Thread(target=good_client, args=(f"t{i}",))
           for i in range(2)] + [threading.Thread(target=oversized_client)]
for t in threads: t.start()
for t in threads: t.join(60)

status = RemoteClient("127.0.0.1", port).status()
assert status["requests"]["completed"] == 2, status["requests"]
assert status["requests"]["rejected"] == 1, status["requests"]
assert status["tenants"]["big"]["rejects"] == 1, status["tenants"]

server.send_signal(signal.SIGTERM)
out, _ = server.communicate(timeout=60)
assert server.returncode == 0, (server.returncode, out)
assert "drained cleanly" in out, out
assert not failures, failures
print("serve smoke: 3 concurrent clients, 1 admission reject, "
      "bit-identical payloads, clean drain")
EOF

# Benchmark tier: the repository benchmark's own tests, which import
# the stage, executor, planner and timer APIs it drives.
python -m pytest perfbench/tests -q

python -m pytest "$@"
