#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the harness-path lint gate.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo build --release --examples --offline
# The figure benches and the repository benchmark (perfbench/, its own
# workspace) build against the library APIs but are outside tier-1:
# compile both so an API change cannot silently break them.
cargo build --release --offline -p nqp-bench --benches
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline

# The simulator, the experiment runner, and the trace subsystem are the
# fallible substrate everything else leans on: no unwrap()/expect() may
# land in their library code (this covers journal.rs — the crash-safety
# layer must itself surface faults, not panic — executor.rs, the
# parallel sweep executor, whose worker pool must degrade via
# poison-tolerant lock recovery instead of unwrap, and nqp-trace's
# artifact parser, which must reject malformed input with typed
# errors). The crate roots carry
#   #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
# (tests are exempt); this clippy pass makes the deny effective.
# nqp-query and nqp-storage joined the deny list with the vectorized
# operator path: both engines' operators are harness-path code.
cargo clippy -p nqp-sim -p nqp-core -p nqp-trace -p nqp-serve -p nqp-advisor -p nqp-tier \
  -p nqp-query -p nqp-storage --lib --offline

# Crash-safe resume smoke test: interrupt a journaled sweep after two
# cells, resume it from the journal, and require the resumed table to
# be byte-identical to an uninterrupted run of the same grid.
CLI=target/release/nqp-cli
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
ARGS=(sweep w2 --machine B --threads 4 --n 8000 --card 800 --trials 2
      --faults "offline@3:node=1")
"$CLI" "${ARGS[@]}" > "$SMOKE/full.txt"
"$CLI" "${ARGS[@]}" --journal "$SMOKE/j.jsonl" --max-cells 2 > "$SMOKE/part.txt" 2> "$SMOKE/part.err"
grep -q "interrupted" "$SMOKE/part.err"
"$CLI" "${ARGS[@]}" --resume "$SMOKE/j.jsonl" > "$SMOKE/resumed.txt" 2> "$SMOKE/resumed.err"
grep -q "resuming: 2 of 4" "$SMOKE/resumed.err"
diff "$SMOKE/full.txt" "$SMOKE/resumed.txt"
grep -q "degraded" "$SMOKE/full.txt"   # the outage run is salvage, not failure

# Parallel sweep smoke: --jobs 4 must produce stdout and CSV
# byte-identical to the serial run of the same grid (the determinism
# contract of the parallel executor, DESIGN.md §4c).
"$CLI" "${ARGS[@]}" --csv "$SMOKE/serial.csv" > /dev/null
"$CLI" "${ARGS[@]}" --jobs 4 --csv "$SMOKE/parallel.csv" > "$SMOKE/parallel.txt"
diff "$SMOKE/serial.csv" "$SMOKE/parallel.csv"
diff "$SMOKE/full.txt" "$SMOKE/parallel.txt"

# --retry-budget is a per-config quota at every job count, so a grid
# where the budget binds prints the same table and CSV at --jobs 1, 2
# and 3 (the sweep exits 1: every trial of a config faulted).
RBARGS=(sweep w1 --machine B --threads 4 --n 4000 --card 400 --trials 3 --retries 3
        --faults "alloc@2:attempts=3" --retry-budget 2)
for j in 1 2 3; do
  "$CLI" "${RBARGS[@]}" --jobs "$j" --csv "$SMOKE/rb$j.csv" > "$SMOKE/rb$j.txt" 2> /dev/null || true
done
grep -q "faulted" "$SMOKE/rb1.txt"
for j in 2 3; do
  diff "$SMOKE/rb1.txt" "$SMOKE/rb$j.txt"
  diff "$SMOKE/rb1.csv" "$SMOKE/rb$j.csv"
done

# A journal written under --jobs resumes serially to the same bytes.
"$CLI" "${ARGS[@]}" --jobs 4 --journal "$SMOKE/jp.jsonl" --max-cells 2 > /dev/null 2>&1
"$CLI" "${ARGS[@]}" --resume "$SMOKE/jp.jsonl" > "$SMOKE/presumed.txt" 2> /dev/null
diff "$SMOKE/full.txt" "$SMOKE/presumed.txt"

# Trace determinism smoke: --trace-dir artifacts must be byte-identical
# between a serial and a --jobs 4 run of the same grid, and rendering
# one must produce a perf-stat report and Perfetto-loadable JSON.
"$CLI" "${ARGS[@]}" --trace-dir "$SMOKE/t1" > /dev/null
"$CLI" "${ARGS[@]}" --trace-dir "$SMOKE/t2" --jobs 4 > /dev/null
diff -r "$SMOKE/t1" "$SMOKE/t2"
ARTIFACT=$(ls "$SMOKE/t1"/*.trace | head -1)
"$CLI" trace "$ARTIFACT" --chrome "$SMOKE/t1.json" --report | grep -q "Performance counter stats"
grep -q '"traceEvents"' "$SMOKE/t1.json"

# Fast-path differential gate (DESIGN.md §4e): the page-granular fast
# path must be bit-identical to the per-line reference model
# (NQP_REFERENCE=1) — sweep stdout, CSV, and every trace artifact
# byte-for-byte, on a grid that exercises fault injection, AutoNUMA,
# THP, and node-offline evacuation.
"$CLI" "${ARGS[@]}" --csv "$SMOKE/fast.csv" --trace-dir "$SMOKE/tfast" > "$SMOKE/fastpath.txt"
NQP_REFERENCE=1 "$CLI" "${ARGS[@]}" --csv "$SMOKE/ref.csv" --trace-dir "$SMOKE/tref" > "$SMOKE/refpath.txt"
diff "$SMOKE/fastpath.txt" "$SMOKE/refpath.txt"
diff "$SMOKE/fast.csv" "$SMOKE/ref.csv"
diff -r "$SMOKE/tfast" "$SMOKE/tref"

# Sharded-trial smoke (DESIGN.md's sharded determinism): --shards N
# spreads one trial's simulated workers across N host threads and must
# be invisible in every output — stdout, CSV, and trace artifacts
# byte-identical to the serial run of the same grid — and compose with
# --jobs. The grid here includes the node-offline fault plan, so the
# merge path is exercised under evacuation too.
"$CLI" "${ARGS[@]}" --shards 2 --csv "$SMOKE/shards2.csv" --trace-dir "$SMOKE/ts2" > "$SMOKE/shards2.txt"
"$CLI" "${ARGS[@]}" --shards 4 --jobs 2 --csv "$SMOKE/shards4.csv" --trace-dir "$SMOKE/ts4" > "$SMOKE/shards4.txt"
diff "$SMOKE/fast.csv" "$SMOKE/shards2.csv"
diff "$SMOKE/fast.csv" "$SMOKE/shards4.csv"
diff "$SMOKE/fastpath.txt" "$SMOKE/shards2.txt"
diff "$SMOKE/fastpath.txt" "$SMOKE/shards4.txt"
diff -r "$SMOKE/tfast" "$SMOKE/ts2"
diff -r "$SMOKE/tfast" "$SMOKE/ts4"

# Shard count is not part of the grid fingerprint: a journal written at
# --shards 4 resumes at --shards 2 to the uninterrupted bytes.
"$CLI" "${ARGS[@]}" --shards 4 --journal "$SMOKE/js.jsonl" --max-cells 2 > /dev/null 2>&1
"$CLI" "${ARGS[@]}" --shards 2 --resume "$SMOKE/js.jsonl" > "$SMOKE/shresumed.txt" 2> /dev/null
diff "$SMOKE/full.txt" "$SMOKE/shresumed.txt"

# Bad shard counts are rejected up front.
if "$CLI" sweep w2 --machine B --trials 1 --shards 0 > /dev/null 2>&1; then
  echo "check.sh: --shards 0 must exit nonzero" >&2
  exit 1
fi

# An empty grid must fail loudly, not exit 0 with no output.
if "$CLI" sweep w2 --machine B --trials 0 > /dev/null 2>&1; then
  echo "check.sh: empty sweep grid must exit nonzero" >&2
  exit 1
fi

# Serve smoke (DESIGN.md §4f): run a short open-loop serve, kill it
# after one config cell, resume from the journal, and require the
# resumed report (stdout, CSV, JSON) to be byte-identical to the
# uninterrupted run — same discipline as the sweep gates above.
SARGS=(serve w1,w3 --machine B --threads 4 --duration 30 --seed 7
       --arrivals "burst:rate=2,x=4")
"$CLI" "${SARGS[@]}" --csv "$SMOKE/sa.csv" --json "$SMOKE/sa.json" > "$SMOKE/sfull.txt"
"$CLI" "${SARGS[@]}" --journal "$SMOKE/sj.jsonl" --max-cells 1 > /dev/null 2> "$SMOKE/spart.err"
grep -q "interrupted" "$SMOKE/spart.err"
"$CLI" "${SARGS[@]}" --resume "$SMOKE/sj.jsonl" --csv "$SMOKE/sb.csv" \
    --json "$SMOKE/sb.json" > "$SMOKE/sresumed.txt" 2> "$SMOKE/sresumed.err"
grep -q "resuming: 1 of 2" "$SMOKE/sresumed.err"
diff "$SMOKE/sfull.txt" "$SMOKE/sresumed.txt"
diff "$SMOKE/sa.csv" "$SMOKE/sb.csv"
diff "$SMOKE/sa.json" "$SMOKE/sb.json"

# Parallel serve is byte-identical to serial, and an empty serve spec
# fails loudly.
"$CLI" "${SARGS[@]}" > "$SMOKE/sparallel.txt" --jobs 2
diff "$SMOKE/sfull.txt" "$SMOKE/sparallel.txt"

# Serve calibrates its class profiles through the real engine, so
# --shards must be invisible there too.
"$CLI" "${SARGS[@]}" --shards 4 > "$SMOKE/sshards.txt"
diff "$SMOKE/sfull.txt" "$SMOKE/sshards.txt"
if "$CLI" serve w1 --machine B --tenants 0 > /dev/null 2>&1; then
  echo "check.sh: empty serve spec must exit nonzero" >&2
  exit 1
fi

# Online-advisor smoke (DESIGN.md §4g): the phase-shift sweep with the
# epoch-driven controller and the AutoNUMA contender must be
# byte-identical serial vs --jobs, and resume from a killed journal to
# the same bytes — the controller re-tunes mid-trial, so this pins that
# its decisions are a pure function of model-cycle state.
AARGS=(sweep wshift --machine S --threads 4 --trials 2
       --advisor online,autonuma)
"$CLI" "${AARGS[@]}" > "$SMOKE/afull.txt"
"$CLI" "${AARGS[@]}" --jobs 3 > "$SMOKE/ajobs.txt"
diff "$SMOKE/afull.txt" "$SMOKE/ajobs.txt"
"$CLI" "${AARGS[@]}" --journal "$SMOKE/aj.jsonl" --max-cells 3 > /dev/null 2> "$SMOKE/apart.err"
grep -q "interrupted" "$SMOKE/apart.err"
"$CLI" "${AARGS[@]}" --resume "$SMOKE/aj.jsonl" > "$SMOKE/aresumed.txt" 2> /dev/null
diff "$SMOKE/afull.txt" "$SMOKE/aresumed.txt"

# Tiering smoke (DESIGN.md §4i): a knobs × tiering-policies sweep on
# the CXL machine, killed mid-grid and resumed, must be byte-identical
# to the uninterrupted run — the tier daemon's decisions are epoch
# state, so kill-and-resume replays them exactly. `--tier` is part of
# the grid fingerprint (it changes what runs), so the resume must also
# reconstruct the crossed grid itself.
TARGS=(sweep w3 --machine machine_b_cxl --threads 4 --n 6000 --trials 2
       --tier none+hot-watermark:pwm=2)
"$CLI" "${TARGS[@]}" --csv "$SMOKE/ta.csv" > "$SMOKE/tfull.txt"
"$CLI" "${TARGS[@]}" --journal "$SMOKE/tj.jsonl" --max-cells 2 > /dev/null 2> "$SMOKE/tpart.err"
grep -q "interrupted" "$SMOKE/tpart.err"
"$CLI" "${TARGS[@]}" --resume "$SMOKE/tj.jsonl" --csv "$SMOKE/tb.csv" > "$SMOKE/tresumed.txt" 2> /dev/null
diff "$SMOKE/tfull.txt" "$SMOKE/tresumed.txt"
diff "$SMOKE/ta.csv" "$SMOKE/tb.csv"
grep -q "tier=hot-watermark" "$SMOKE/tfull.txt"

# Malformed --tier specs and unknown machines are typed BadSpec errors:
# nonzero exit, the flag and token named — never a panic.
if "$CLI" sweep w3 --machine machine_b_cxl --trials 1 --tier bogus > /dev/null 2> "$SMOKE/tbad.err"; then
  echo "check.sh: \`--tier bogus\` must exit nonzero" >&2
  exit 1
fi
grep -q -- "--tier" "$SMOKE/tbad.err"
grep -q "malformed" "$SMOKE/tbad.err"
if "$CLI" sweep w1 --machine machine_z --trials 1 > /dev/null 2> "$SMOKE/mbad.err"; then
  echo "check.sh: unknown --machine must exit nonzero" >&2
  exit 1
fi
grep -q "machine_z" "$SMOKE/mbad.err"
grep -q "machine_b_cxl" "$SMOKE/mbad.err"   # the error lists the valid names

# Malformed runtime specs must exit nonzero with a typed error naming
# the offending token — never a panic, never a silent default.
for bad in '--outage 12..junk:node=1' '--arrivals poisson:rate=wat' \
           '--arrivals burst:rate=1,on=18446744073709551615,off=1' \
           '--advisor offline'; do
  # shellcheck disable=SC2086
  if "$CLI" serve w1 --machine B --duration 10 $bad > /dev/null 2> "$SMOKE/bad.err"; then
    echo "check.sh: \`serve $bad\` must exit nonzero" >&2
    exit 1
  fi
  grep -q "malformed" "$SMOKE/bad.err"
done
("$CLI" serve w1 --machine B --duration 10 --outage "12..junk:node=1" 2>&1 || true) \
  | grep -q '`junk`'

# Serve outage recovery smoke: with --advisor online the run reports a
# re-tune cycle after the outage window; kill-and-resume must still be
# byte-identical with the advisor in the loop.
SOARGS=(serve w1,w3 --machine B --threads 4 --duration 40 --seed 7
        --arrivals "burst:rate=2,x=4" --outage "12..20:node=1" --advisor online)
"$CLI" "${SOARGS[@]}" > "$SMOKE/sofull.txt"
grep -q "re-tuned at" "$SMOKE/sofull.txt"
"$CLI" "${SOARGS[@]}" --journal "$SMOKE/soj.jsonl" --max-cells 1 > /dev/null 2>&1
"$CLI" "${SOARGS[@]}" --resume "$SMOKE/soj.jsonl" > "$SMOKE/soresumed.txt" 2> /dev/null
diff "$SMOKE/sofull.txt" "$SMOKE/soresumed.txt"

# Vectorized-path gates (DESIGN.md §4j): the batch-at-a-time engine is
# crossed into the sweep grid with --engine, and its outputs must be
# invariant under --jobs/--shards, tracing, the reference memory model,
# and kill-and-resume — the same identity discipline as every other
# executor knob.
VARGS=(sweep w3 --machine B --threads 4 --n 6000 --trials 2 --engine tuple+vec)
"$CLI" "${VARGS[@]}" --csv "$SMOKE/va.csv" --trace-dir "$SMOKE/vt1" > "$SMOKE/vfull.txt"
grep -q "engine=vec" "$SMOKE/vfull.txt"
"$CLI" "${VARGS[@]}" --jobs 2 --shards 2 --csv "$SMOKE/vb.csv" --trace-dir "$SMOKE/vt2" > "$SMOKE/vjobs.txt"
diff "$SMOKE/vfull.txt" "$SMOKE/vjobs.txt"
diff "$SMOKE/va.csv" "$SMOKE/vb.csv"
diff -r "$SMOKE/vt1" "$SMOKE/vt2"

# Kill-and-resume across the engine-crossed grid (--engine is part of
# the grid fingerprint, so the resume reconstructs the crossed grid).
"$CLI" "${VARGS[@]}" --journal "$SMOKE/vj.jsonl" --max-cells 2 > /dev/null 2> "$SMOKE/vpart.err"
grep -q "interrupted" "$SMOKE/vpart.err"
"$CLI" "${VARGS[@]}" --resume "$SMOKE/vj.jsonl" --csv "$SMOKE/vc.csv" > "$SMOKE/vresumed.txt" 2> /dev/null
diff "$SMOKE/vfull.txt" "$SMOKE/vresumed.txt"
diff "$SMOKE/va.csv" "$SMOKE/vc.csv"

# The vectorized path under the per-line reference model: bit-identical.
NQP_REFERENCE=1 "$CLI" "${VARGS[@]}" --csv "$SMOKE/vref.csv" > "$SMOKE/vrefpath.txt"
diff "$SMOKE/vfull.txt" "$SMOKE/vrefpath.txt"
diff "$SMOKE/va.csv" "$SMOKE/vref.csv"

# `--engine tuple` spelled out is the default: byte-identical stdout.
"$CLI" sweep w1 --machine B --threads 4 --n 6000 --card 600 --trials 2 > "$SMOKE/vdef.txt"
"$CLI" sweep w1 --machine B --threads 4 --n 6000 --card 600 --trials 2 --engine tuple > "$SMOKE/vtup.txt"
diff "$SMOKE/vdef.txt" "$SMOKE/vtup.txt"

# Result identity: each workload's checksum line — the query result —
# must match between engines.
for wk in w1 w2 w3 w4; do
  "$CLI" workload "$wk" --machine B --threads 4 --n 5000 --card 500 --engine tuple \
    | grep checksum > "$SMOKE/ck-t.txt"
  "$CLI" workload "$wk" --machine B --threads 4 --n 5000 --card 500 --engine vec \
    | grep checksum > "$SMOKE/ck-v.txt"
  diff "$SMOKE/ck-t.txt" "$SMOKE/ck-v.txt"
done

# Malformed --engine tokens are typed BadSpec errors: nonzero exit, the
# offending token named — never a panic.
for bad in '--engine bogus'; do
  # shellcheck disable=SC2086
  if "$CLI" workload w1 --machine B --n 500 --card 50 $bad > /dev/null 2> "$SMOKE/vbad.err"; then
    echo "check.sh: \`workload $bad\` must exit nonzero" >&2
    exit 1
  fi
  grep -q "malformed" "$SMOKE/vbad.err"
done
("$CLI" workload w1 --machine B --n 500 --card 50 --engine bogus 2>&1 || true) \
  | grep -q '`bogus`'

# Unknown flags: every subcommand exits nonzero on a flag it never
# reads and names it, instead of running with a default.
for cmd in 'workload w1 --machine B --n 500 --card 50 --thraeds 2' \
           'sweep w1 --machine B --n 500 --card 50 --trials 1 --typo-flag 3' \
           'serve w1 --machine B --duration 10 --batch-size 64'; do
  flag=$(echo "$cmd" | awk '{print $(NF-1)}')
  # shellcheck disable=SC2086
  if "$CLI" $cmd > /dev/null 2> "$SMOKE/flag.err"; then
    echo "check.sh: \`$cmd\` must exit nonzero" >&2
    exit 1
  fi
  grep -q -- "unknown flag \`$flag\`" "$SMOKE/flag.err"
done

echo "check.sh: all gates passed"
