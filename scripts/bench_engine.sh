#!/usr/bin/env bash
# Engine message-plane microbenchmark harness
# (internal/engine BenchmarkEngineMessagePlane plus its loopback-TCP
# twin internal/dist BenchmarkEngineMessagePlaneDist — dist cases are
# recorded under a "dist/" prefix; the ns/superstep gap between the
# two is the price of the process split — and the checkpoint plane
# BenchmarkCheckpointPlaneDist under "ckpt/", recording full- vs
# delta-checkpoint bytes):
#
#   scripts/bench_engine.sh [output.json]   # regenerate BENCH_ENGINE.json
#   scripts/bench_engine.sh --check [ref]   # regression gate vs committed numbers
#
# BENCHTIME (default 2s) controls -benchtime. The JSON header records
# nproc, GOMAXPROCS and the Go version next to goos/goarch/cpu.
#
# The emitted JSON carries three sections: "baseline" holds the frozen
# pre-message-plane numbers (per-vertex inbox slices, O(V) liveness
# scan) measured on the same benchmark immediately before the rewrite,
# "dist_baseline" holds the frozen pre-mesh distributed numbers (every
# batch relayed through the coordinator, compute and send serialized),
# and "current" holds this run.
#
# --check reruns the benchmark and compares each case against the
# "current" section of the committed BENCH_ENGINE.json (or [ref]).
# It fails if any case's ns/superstep regresses by more than 25%, its
# allocs/op more than doubles, for dist/ cases its wirebytes/superstep
# grows by more than 25%, or for ckpt/ cases its deltabytes/ckpt grows
# by more than 25%. Wall-clock numbers on
# shared CI runners are noisy — the job that runs this is advisory —
# but the alloc and wirebyte gates are deterministic: they keep the
# observability hooks, engine work and the peer-mesh data plane honest
# about hot-path allocations and bytes on the wire.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"

run_bench() {
  go test ./internal/engine/ -run NONE -bench BenchmarkEngineMessagePlane \
    -benchmem -benchtime "$benchtime"
  go test ./internal/dist/ -run NONE \
    -bench 'BenchmarkEngineMessagePlaneDist|BenchmarkCheckpointPlaneDist' \
    -benchmem -benchtime "$benchtime"
}

# parse_bench <raw>: one
# "case ns_per_op ns_per_superstep bytes allocs frames wirebytes fullb deltab"
# row per line (frames/wirebytes are null for in-process cases,
# fullb/deltab only set for the ckpt/ checkpoint-plane cases).
parse_bench() {
  awk '
    /^Benchmark(EngineMessagePlane(Dist)?|CheckpointPlaneDist)\// {
      name = $1
      sub(/^BenchmarkCheckpointPlaneDist\//, "ckpt/", name)
      sub(/^BenchmarkEngineMessagePlaneDist\//, "dist/", name)
      sub(/^BenchmarkEngineMessagePlane\//, "", name)
      sub(/-[0-9]+$/, "", name)
      ns = bytes = allocs = step = frames = wbytes = fullb = deltab = "null"
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")               ns = $(i - 1)
        if ($i == "ns/superstep")        step = $(i - 1)
        if ($i == "B/op")                bytes = $(i - 1)
        if ($i == "allocs/op")           allocs = $(i - 1)
        if ($i == "frames/superstep")    frames = $(i - 1)
        if ($i == "wirebytes/superstep") wbytes = $(i - 1)
        if ($i == "fullbytes/ckpt")      fullb = $(i - 1)
        if ($i == "deltabytes/ckpt")     deltab = $(i - 1)
      }
      print name, ns, step, bytes, allocs, frames, wbytes, fullb, deltab
    }
  ' <<<"$1"
}

if [[ "${1:-}" == "--check" ]]; then
  ref="${2:-BENCH_ENGINE.json}"
  [[ -f "$ref" ]] || { echo "bench check: reference $ref not found" >&2; exit 2; }

  raw="$(run_bench)"
  echo "$raw" >&2

  # Reference rows from the committed JSON's "current" section (same
  # row shape as the baseline section, so gate on the section marker).
  ref_rows="$(awk '
    /"current": \[/ { in_cur = 1; next }
    in_cur && /^  \]/ { in_cur = 0 }
    in_cur && /"case":/ {
      line = $0
      gsub(/[",{}:]/, " ", line)
      n = split(line, f, /[ \t]+/)
      wbytes = deltab = "null"
      for (i = 1; i <= n; i++) {
        if (f[i] == "case")                    name = f[i + 1]
        if (f[i] == "ns_per_superstep")        step = f[i + 1]
        if (f[i] == "allocs_per_op")           allocs = f[i + 1]
        if (f[i] == "wirebytes_per_superstep") wbytes = f[i + 1]
        if (f[i] == "deltabytes_per_ckpt")     deltab = f[i + 1]
      }
      print name, step, allocs, wbytes, deltab
    }
  ' "$ref")"

  parse_bench "$raw" | awk -v ref="$ref_rows" -v refname="$ref" '
    BEGIN {
      n = split(ref, lines, "\n")
      for (i = 1; i <= n; i++) {
        split(lines[i], f, " ")
        if (f[1] != "") {
          refstep[f[1]] = f[2]; refallocs[f[1]] = f[3]
          refwbytes[f[1]] = f[4]; refdeltab[f[1]] = f[5]
        }
      }
      printf("%-34s %14s %14s %8s %10s %10s %8s %8s\n",
             "case", "ns/superstep", "ref", "ratio", "allocs/op", "ref", "ratio", "wbytes")
    }
    {
      name = $1; step = $3; allocs = $5; wbytes = $7; deltab = $9
      if (!(name in refstep)) {
        printf("%-34s (new case, no reference — skipped)\n", name)
        next
      }
      sr = step / refstep[name]
      ar = refallocs[name] > 0 ? allocs / refallocs[name] : (allocs > 0 ? 99 : 1)
      flag = ""
      if (sr > 1.25) { flag = flag " SLOW"; bad = 1 }
      if (ar > 2.0)  { flag = flag " ALLOCS"; bad = 1 }
      # dist cases also report wire traffic; gate bytes/superstep so a
      # data-plane change cannot silently inflate what crosses the mesh.
      wr = "    -   "
      if (wbytes != "null" && refwbytes[name] != "null" && refwbytes[name] > 0) {
        w = wbytes / refwbytes[name]
        wr = sprintf("%7.2fx", w)
        if (w > 1.25) { flag = flag " WIREBYTES"; bad = 1 }
      }
      # ckpt cases report the delta-checkpoint payload; gate it so an
      # encoder change cannot silently fatten the chain back towards
      # full snapshots (the wcc-materiality floor lives in the
      # benchmark itself).
      if (deltab != "null" && refdeltab[name] != "null" && refdeltab[name] > 0) {
        d = deltab / refdeltab[name]
        wr = sprintf("%7.2fx", d)
        if (d > 1.25) { flag = flag " DELTABYTES"; bad = 1 }
      }
      printf("%-34s %14d %14d %7.2fx %10d %10d %7.2fx %s%s\n",
             name, step, refstep[name], sr, allocs, refallocs[name], ar, wr, flag)
      checked++
    }
    END {
      if (checked == 0) { print "bench check: no cases matched " refname > "/dev/stderr"; exit 2 }
      if (bad) {
        print "bench check: FAILED (>25% ns/superstep, >2x allocs/op, or >25% wirebytes/superstep vs " refname ")" > "/dev/stderr"
        exit 1
      }
      print "bench check: ok (" checked " cases within thresholds)" > "/dev/stderr"
    }
  '
  exit $?
fi

out="${1:-BENCH_ENGINE.json}"

raw="$(run_bench)"
echo "$raw" >&2

{
  printf '{\n'
  printf '  "benchmark": "BenchmarkEngineMessagePlane + BenchmarkEngineMessagePlaneDist",\n'
  printf '  "benchtime": "%s",\n' "$benchtime"
  # The machine the numbers were taken on: the worker/shard sweeps only
  # mean something next to the core count they ran against. GOMAXPROCS
  # is read off the benchmark names (go test appends -N unless N is 1).
  printf '  "nproc": %s,\n' "$(nproc)"
  awk '/^Benchmark/ {
    printf("  \"gomaxprocs\": %s,\n", match($1, /-[0-9]+$/) ? substr($1, RSTART + 1) : 1)
    exit
  }' <<<"$raw"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  # run_bench invokes `go test` twice (engine + dist), so each header
  # key appears twice in the raw output — emit only the first of each,
  # or the JSON carries duplicated keys.
  awk '
    $1 == "goos:"   && !seen_goos++   { printf("  \"goos\": \"%s\",\n", $2) }
    $1 == "goarch:" && !seen_goarch++ { printf("  \"goarch\": \"%s\",\n", $2) }
    $1 == "cpu:"    && !seen_cpu++    { $1 = ""; sub(/^ /, ""); printf("  \"cpu\": \"%s\",\n", $0) }
  ' <<<"$raw"
  # Frozen pre-rewrite numbers (engine as of PR 1, 2s benchtime, same
  # benchmark and graph: RMAT scale 12, undirected, weighted).
  cat <<'BASELINE'
  "baseline": {
    "note": "message plane before sender-side combining / worklists / pooled arenas",
    "results": [
      {"case": "pagerank/workers=1", "ns_per_op": 10624802, "ns_per_superstep": 965890, "bytes_per_op": 9173688, "allocs_per_op": 3507},
      {"case": "pagerank/workers=4", "ns_per_op": 14297795, "ns_per_superstep": 1299799, "bytes_per_op": 6650680, "allocs_per_op": 3936},
      {"case": "pagerank/workers=8", "ns_per_op": 13178718, "ns_per_superstep": 1198064, "bytes_per_op": 5834360, "allocs_per_op": 4685},
      {"case": "pagerank-plain/workers=1", "ns_per_op": 21694357, "ns_per_superstep": 1972212, "bytes_per_op": 11334136, "allocs_per_op": 14961},
      {"case": "pagerank-plain/workers=4", "ns_per_op": 26171153, "ns_per_superstep": 2379194, "bytes_per_op": 8811128, "allocs_per_op": 15390},
      {"case": "pagerank-plain/workers=8", "ns_per_op": 20140811, "ns_per_superstep": 1830981, "bytes_per_op": 7994821, "allocs_per_op": 16139},
      {"case": "sssp/workers=1", "ns_per_op": 7953578, "ns_per_superstep": 611813, "bytes_per_op": 7289296, "allocs_per_op": 3512},
      {"case": "sssp/workers=4", "ns_per_op": 10732655, "ns_per_superstep": 825588, "bytes_per_op": 5929616, "allocs_per_op": 3965},
      {"case": "sssp/workers=8", "ns_per_op": 9647343, "ns_per_superstep": 742103, "bytes_per_op": 5308688, "allocs_per_op": 4745},
      {"case": "wcc/workers=1", "ns_per_op": 4101052, "ns_per_superstep": 820209, "bytes_per_op": 9172336, "allocs_per_op": 3460},
      {"case": "wcc/workers=4", "ns_per_op": 4950940, "ns_per_superstep": 990187, "bytes_per_op": 6646688, "allocs_per_op": 3796},
      {"case": "wcc/workers=8", "ns_per_op": 4335742, "ns_per_superstep": 867147, "bytes_per_op": 5826848, "allocs_per_op": 4421}
    ]
  },
BASELINE
  # Frozen pre-mesh distributed numbers (PR 6 plane: batches relayed
  # through the coordinator via batchToOffset, compute → flush → barrier
  # fully serialized, graph rebuilt per shard per session; 2s benchtime,
  # same RMAT scale-12 graph).
  cat <<'DIST_BASELINE'
  "dist_baseline": {
    "note": "distributed plane before the shard-to-shard peer mesh, compute/send overlap and the memoized graph build (all batches relayed through the coordinator)",
    "results": [
      {"case": "dist/pagerank/shards=2", "ns_per_op": 255041329, "ns_per_superstep": 23185552, "bytes_per_op": 125845638, "allocs_per_op": 33405, "frames_per_superstep": 12.55, "wirebytes_per_superstep": 892669},
      {"case": "dist/pagerank/shards=4", "ns_per_op": 398117845, "ns_per_superstep": 36192503, "bytes_per_op": 194296477, "allocs_per_op": 41042, "frames_per_superstep": 39.64, "wirebytes_per_superstep": 1415851},
      {"case": "dist/sssp/shards=2", "ns_per_op": 206613239, "ns_per_superstep": 15893310, "bytes_per_op": 54336096, "allocs_per_op": 2378, "frames_per_superstep": 12.31, "wirebytes_per_superstep": 41355},
      {"case": "dist/sssp/shards=4", "ns_per_op": 299840231, "ns_per_superstep": 23064601, "bytes_per_op": 91425372, "allocs_per_op": 6469, "frames_per_superstep": 37.69, "wirebytes_per_superstep": 86011}
    ]
  },
DIST_BASELINE
  printf '  "current": [\n'
  parse_bench "$raw" | awk '
    {
      if (n++) printf(",\n")
      printf("    {\"case\": \"%s\", \"ns_per_op\": %s, \"ns_per_superstep\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", $1, $2, $3, $4, $5)
      if ($6 != "null") printf(", \"frames_per_superstep\": %s, \"wirebytes_per_superstep\": %s", $6, $7)
      if ($8 != "null") printf(", \"fullbytes_per_ckpt\": %s, \"deltabytes_per_ckpt\": %s", $8, $9)
      printf("}")
    }
    END { printf("\n") }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"
echo "wrote $out" >&2
