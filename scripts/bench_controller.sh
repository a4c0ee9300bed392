#!/usr/bin/env bash
# Controller-throughput benchmark harness (internal/admission
# BenchmarkControllerThroughput: a seeded multi-tenant arrival stream
# replayed into a gated scheduler controller — every decision runs the
# real pricing machinery, runs complete instantly and before the next
# arrival, so ns/op is the admission path plus that run's hand-off):
#
#   scripts/bench_controller.sh [output.json]   # regenerate BENCH_CONTROLLER.json + BENCHMARK.md
#   scripts/bench_controller.sh --check [ref]   # regression gate vs committed numbers
#   scripts/bench_controller.sh --report [ref]  # regenerate BENCHMARK.md from the committed JSON only
#
# BENCHTIME (default 2000x) controls -benchtime. A fixed iteration
# count — not a duration — keeps the admit/queue/reject fractions
# comparable across machines: every run replays the same 2000 arrivals.
#
# The emitted JSON carries a frozen "baseline" section (the numbers at
# the benchmark's introduction) and a "current" section (this run).
# --check reruns the benchmark and fails if any case's ns/op regresses
# by more than 25% against the committed "current" section. --report
# rebuilds BENCHMARK.md deterministically from the committed JSON
# without running anything — CI diffs the result against the checked-in
# file, so the JSON and the human-readable table cannot drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2000x}"

run_bench() {
  go test ./internal/admission/ -run NONE -bench BenchmarkControllerThroughput \
    -benchtime "$benchtime"
}

# parse_bench <raw>: one
# "case ns_per_op decisions_per_sec admit_frac queued_frac reject_frac"
# row per line.
parse_bench() {
  awk '
    /^BenchmarkControllerThroughput\// {
      name = $1
      sub(/^BenchmarkControllerThroughput\//, "", name)
      sub(/-[0-9]+$/, "", name)
      ns = dps = adm = que = rej = "null"
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")         ns = $(i - 1)
        if ($i == "decisions/sec") dps = $(i - 1)
        if ($i == "admit_frac")    adm = $(i - 1)
        if ($i == "queued_frac")   que = $(i - 1)
        if ($i == "reject_frac")   rej = $(i - 1)
      }
      print name, ns, dps, adm, que, rej
    }
  ' <<<"$1"
}

# json_rows <file> <section>: extract the same row shape from a
# committed JSON's "baseline" results or top-level "current" array.
json_rows() {
  awk -v want="$2" '
    /"baseline": \{/ { section = "baseline" }
    /"current": \[/  { section = "current" }
    section == want && /"case":/ {
      line = $0
      gsub(/[",{}\[\]:]/, " ", line)
      n = split(line, f, /[ \t]+/)
      ns = dps = adm = que = rej = "null"
      for (i = 1; i <= n; i++) {
        if (f[i] == "case")              name = f[i + 1]
        if (f[i] == "ns_per_op")         ns = f[i + 1]
        if (f[i] == "decisions_per_sec") dps = f[i + 1]
        if (f[i] == "admit_frac")        adm = f[i + 1]
        if (f[i] == "queued_frac")       que = f[i + 1]
        if (f[i] == "reject_frac")       rej = f[i + 1]
      }
      print name, ns, dps, adm, que, rej
    }
  ' "$1"
}

# write_report <ref.json> <out.md>: BENCHMARK.md is a pure function of
# the committed JSON — no dates, no host re-detection — so CI can
# regenerate it and `git diff --exit-code` the result.
write_report() {
  local ref="$1" out="$2"
  local bt goos goarch cpu
  bt="$(awk -F'"' '/"benchtime":/ { print $4; exit }' "$ref")"
  goos="$(awk -F'"' '/"goos":/ { print $4; exit }' "$ref")"
  goarch="$(awk -F'"' '/"goarch":/ { print $4; exit }' "$ref")"
  cpu="$(awk -F'"' '/"cpu":/ { print $4; exit }' "$ref")"
  {
    echo "# Controller throughput"
    echo
    echo "Sustained admission-decision rate of the multi-tenant scheduler"
    echo "controller (\`internal/admission\` + \`internal/scheduler\`): a seeded"
    echo "three-tenant arrival stream is replayed into a gated controller on"
    echo "the virtual clock, every submission priced against the live spot"
    echo "market, then packed onto a shared deployment, queued, or rejected."
    echo "Runs complete instantly, and each admitted job's run finishes"
    echo "before the next arrival, so ns/decision is the controller's own"
    echo "admission path — validate, price (one simulator decision pass),"
    echo "pack — plus the dispatch and completion of that run, not graph"
    echo "execution."
    echo
    echo "Fixed workload: \`-benchtime ${bt}\` (same arrivals every run);"
    echo "recorded on ${goos}/${goarch}, ${cpu}."
    echo
    echo "## Current (\`BENCH_CONTROLLER.json\`)"
    echo
    echo "| case | ns/decision | decisions/sec | admitted | queued | rejected |"
    echo "|------|------------:|--------------:|---------:|-------:|---------:|"
    json_rows "$ref" current | awk '{ printf("| %s | %d | %.1f | %.1f%% | %.1f%% | %.1f%% |\n", $1, $2, $3, $4 * 100, $5 * 100, $6 * 100) }'
    echo
    echo "## Baseline (frozen at the benchmark's introduction)"
    echo
    echo "| case | ns/decision | decisions/sec | admitted | queued | rejected |"
    echo "|------|------------:|--------------:|---------:|-------:|---------:|"
    json_rows "$ref" baseline | awk '{ printf("| %s | %d | %.1f | %.1f%% | %.1f%% | %.1f%% |\n", $1, $2, $3, $4 * 100, $5 * 100, $6 * 100) }'
    echo
    echo "## Reproducing"
    echo
    echo '```'
    echo "scripts/bench_controller.sh           # rerun + refreeze BENCH_CONTROLLER.json + this file"
    echo "scripts/bench_controller.sh --check   # regression gate (>25% ns/decision fails)"
    echo "scripts/bench_controller.sh --report  # rebuild this file from the committed JSON"
    echo '```'
    echo
    echo "Generated by \`scripts/bench_controller.sh\` from"
    echo "\`scripts/BENCH_CONTROLLER.json\` — edit neither by hand; CI fails if"
    echo "they drift apart."
  } > "$out"
  echo "wrote $out" >&2
}

if [[ "${1:-}" == "--report" ]]; then
  ref="${2:-scripts/BENCH_CONTROLLER.json}"
  [[ -f "$ref" ]] || { echo "bench report: reference $ref not found" >&2; exit 2; }
  write_report "$ref" BENCHMARK.md
  exit 0
fi

if [[ "${1:-}" == "--check" ]]; then
  ref="${2:-scripts/BENCH_CONTROLLER.json}"
  [[ -f "$ref" ]] || { echo "bench check: reference $ref not found" >&2; exit 2; }

  raw="$(run_bench)"
  echo "$raw" >&2

  parse_bench "$raw" | awk -v ref="$(json_rows "$ref" current)" -v refname="$ref" '
    BEGIN {
      n = split(ref, lines, "\n")
      for (i = 1; i <= n; i++) {
        split(lines[i], f, " ")
        if (f[1] != "") refns[f[1]] = f[2]
      }
      printf("%-12s %14s %14s %8s\n", "case", "ns/decision", "ref", "ratio")
    }
    {
      name = $1; ns = $2
      if (!(name in refns)) {
        printf("%-12s (new case, no reference — skipped)\n", name)
        next
      }
      r = ns / refns[name]
      flag = ""
      if (r > 1.25) { flag = " SLOW"; bad = 1 }
      printf("%-12s %14d %14d %7.2fx%s\n", name, ns, refns[name], r, flag)
      checked++
    }
    END {
      if (checked == 0) { print "bench check: no cases matched " refname > "/dev/stderr"; exit 2 }
      if (bad) {
        print "bench check: FAILED (>25% ns/decision vs " refname ")" > "/dev/stderr"
        exit 1
      }
      print "bench check: ok (" checked " cases within thresholds)" > "/dev/stderr"
    }
  '
  exit $?
fi

out="${1:-scripts/BENCH_CONTROLLER.json}"

raw="$(run_bench)"
echo "$raw" >&2

{
  printf '{\n'
  printf '  "benchmark": "BenchmarkControllerThroughput",\n'
  printf '  "benchtime": "%s",\n' "$benchtime"
  awk '
    $1 == "goos:"   { printf("  \"goos\": \"%s\",\n", $2) }
    $1 == "goarch:" { printf("  \"goarch\": \"%s\",\n", $2) }
    $1 == "cpu:"    { $1 = ""; sub(/^ /, ""); printf("  \"cpu\": \"%s\",\n", $0) }
  ' <<<"$raw"
  # Frozen numbers at the benchmark's introduction (2000 fixed
  # iterations of the seed-42 stream, pricing against the seed-11
  # market month).
  cat <<'BASELINE'
  "baseline": {
    "note": "admission path at introduction: per-submission sim.Decide pricing, FFD packing, EDF wait queue",
    "results": [
      {"case": "pool=8", "ns_per_op": 5049480, "decisions_per_sec": 198.0, "admit_frac": 0.9365, "queued_frac": 0.0275, "reject_frac": 0.036},
      {"case": "pool=64", "ns_per_op": 5428884, "decisions_per_sec": 184.2, "admit_frac": 0.964, "queued_frac": 0, "reject_frac": 0.036}
    ]
  },
BASELINE
  printf '  "current": [\n'
  parse_bench "$raw" | awk '
    {
      if (n++) printf(",\n")
      printf("    {\"case\": \"%s\", \"ns_per_op\": %s, \"decisions_per_sec\": %s, \"admit_frac\": %s, \"queued_frac\": %s, \"reject_frac\": %s}", $1, $2, $3, $4, $5, $6)
    }
    END { printf("\n") }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"
echo "wrote $out" >&2
write_report "$out" BENCHMARK.md
