#!/usr/bin/env bash
# Tier-1 CI for the snow-rs workspace:
#
#   1. release build + full workspace test suite;
#   1b. benchmark of record: e2e_bench (BENCHMARK.json) is a workspace of
#      its own that builds against crates/* by path, so nothing above
#      compiles it — build it in release and run its tests, so deleting
#      an API it imports fails here instead of in the benchmark run;
#   2. lints + documentation: `cargo clippy --workspace --all-targets`
#      with warnings denied; `cargo doc --no-deps` must build with
#      warnings denied (broken intra-doc links fail the build) and every
#      doc-example must run (`cargo test --doc`);
#   2b. single-dispatch-core guard: crates/sim/src/engine.rs is the only
#      file in the sim crate allowed to define the dispatch primitives
#      (fn step / run_epoch / dispatch_invocation / deliver /
#      apply_effects / deliver_where / force_invoke / try_dispatch).
#      The serial and sharded engines once carried hand-mirrored copies
#      of this logic; a second definition site means the mirror is back.
#      The same rule covers the fault engine: the fault decision
#      primitives (send_verdict / crash_window / elapsed_crashes / gate /
#      crash_intercept / note_partitions / abort_orphans) may only be
#      defined in engine.rs or fault.rs — fault handling is wired through
#      the one dispatch core, never mirrored per executor;
#   3. golden-fingerprint freshness: the committed seeded-history fixtures
#      (tests/golden_histories.txt) must match what the current engine
#      produces — catching both accidental schedule changes *and* fixture
#      files regenerated without justification;
#   3b. golden *fault* fingerprint freshness: same rule for the faulty
#      matrix (tests/golden_fault_histories.txt) — crash, partition and
#      dup-storm histories are pure functions of their schedules and must
#      reproduce bit-for-bit (regenerate with `--faults --write`);
#   4. parallel-engine parity: the sharded engine must reproduce every
#      golden fixture bit-for-bit at 1 shard and be reproducible at 4
#      shards (tests/parallel_determinism.rs);
#   5. checker differential suite: the graph strict-serializability engine
#      must agree with the complete search on every generated history and
#      convict the Fig. 5 / impossibility histories;
#   5b. stream differential suite: the incremental streaming checker must
#      agree with `check_auto` on the same generated histories, convict
#      the adversarial ones at the right commit index, and keep its live
#      window bounded on long runs (tests/stream_differential.rs);
#   5c. fault suites: fault-engine determinism (golden fault fixtures,
#      1-shard ≡ serial under faults, empty-schedule inertness, the
#      randomized-schedule proptest — tests/fault_determinism.rs) and
#      checker behaviour on fault-laden histories (graph/stream agreement,
#      bounded frontier under aborts, conviction at the offending commit,
#      orphan retirement — tests/fault_checker.rs);
#   6. bench_json smoke run: all three executors (serial flood, sharded
#      parallel flood, tokio runtime read path) and the
#      checker-throughput section must stay alive end to end.  The smoke
#      run does not overwrite BENCH_simcore.json; regenerate that
#      separately with `cargo run -p snow-bench --release --bin
#      bench_json` on quiet hardware;
#   7. checker-throughput regression guard: the smoke run's graph-checker
#      rate at 1k transactions must be within 5x of the tracked artifact
#      (a smoke row on busy CI hardware is noisy; 5x only catches
#      complexity-class regressions);
#   7b. checker_stream regression guard: same 5x rule for the streaming
#      checker's rate at 1k transactions, plus a hard bound on its peak
#      live window — the streaming engine's whole point is O(in-flight +
#      frontier) memory, so a window above 256 on the smoke workload
#      means frontier retirement broke;
#   8. open-loop latency regression guard: the smoke run's open_loop
#      section must exist (curves + knees) and its pre-knee p99 must be
#      within 5x of the tracked artifact.  Open-loop latencies are
#      *virtual ticks* — deterministic per seed, not host noise — so a
#      drift here means the protocols' message behaviour changed;
#   8b. fault-overhead guard: the smoke run's `faults` section compares
#      AlgB throughput clean vs under a 1% message-drop region.  Both
#      rates come from the same run on the same host, so their ratio
#      (slowdown_drop1_vs_clean) cancels host speed; above 5x the fault
#      path has started serializing or retrying pathologically;
#   8c. scenario-matrix guard: the smoke run must produce the `scenarios`
#      section (>= 12 protocol x topology x workload cells, each with a
#      SNOW verdict) and every cell's read p99 must be within 5x of the
#      tracked artifact.  Scenario latencies are virtual site-ticks from
#      pure per-message hashes — deterministic per seed — so a moved p99
#      is a topology/protocol behaviour change, never host noise;
#   9. striped-instrumentation guard: the tokio runtime's per-send
#      transaction bookkeeping must stay striped by TxId — no global
#      `Mutex<HashMap<TxId, …>>` field may reappear in
#      crates/runtime/src/cluster.rs;
#  10. observability smoke: the bench artifact's `obs` section must come
#      out of the smoke run (event-folded sim.* metrics + the streaming
#      checker's frontier counters), and examples/observe_run.rs must run
#      end to end (observed open loop → metrics fold → Perfetto export →
#      checker frontier);
#  10b. fault-engine example: examples/partition_drill.rs must run end to
#      end (isolate a whole topology site mid-workload under the Queue
#      policy, heal, per-phase p99, SNOW verdict over the scarred
#      history);
#  11. observability neutrality: the NullSink path must stay free — the
#      unobserved 100k flood must be within 5% of the tracked artifact
#      (cargo run -p snow-bench --release --bin obs_neutrality);
#  12. virtual-time purity guard: crates/sim must never read the wall
#      clock (`std::time` / `Instant`) — simulator event streams are a
#      pure function of (config, seeds, shards), which is what makes the
#      observability goldens and the determinism proptests meaningful;
#  12b. latency-draw confinement: in crates/sim, stateful RNG draws
#      (`random_range`) may only appear in scheduler.rs.  The `splitmix64`
#      hash has one definition in the workspace, snow_core::hash
#      (crates/core/src/hash.rs), and inside crates/sim only topology.rs
#      (pure per-message latency draws) and fault.rs (per-message fault
#      gates) may use it.  A draw site anywhere else means some engine path
#      started minting latencies of its own, which silently breaks the
#      shard-count independence the scenario matrix is pinned on.
#  12c. causality travels on the message: snow_core's `CausalSummary`
#      (defined only in crates/core/src/msg.rs) is the one place round
#      depth and the non-blocking bit are derived, on every substrate.
#      The per-message causality table it replaced (`send_meta`,
#      `prune_meta`, `chain_depth`, `CausalEnvelope`) and the runtime's
#      private copy (`ancestor_dest_counts`) may not reappear in
#      crates src tests examples.
#  12d. no per-action log: the simulators' trace folds each action into
#      per-transaction instrumentation and stores none.  The deleted log
#      (`struct Action`, `ActionKind`, `fn actions`,
#      `with_action_capacity`) may not reappear under crates/sim/src, and
#      nothing in crates src tests examples may call `trace_capacity(` or
#      `with_trace_capacity(`: both are inert, kept only for e2e_bench,
#      so the only matches allowed are their two definitions.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== test (workspace) =="
cargo test --workspace -q

echo "== benchmark of record (e2e_bench: release build + tests) =="
cargo build --release --offline --manifest-path e2e_bench/Cargo.toml
cargo test --offline --manifest-path e2e_bench/Cargo.toml -q
echo "e2e_bench ok"

echo "== clippy (workspace, all targets, warnings denied) =="
cargo clippy --workspace --all-targets -q -- -D warnings
echo "clippy clean"

echo "== single dispatch core (one step-loop definition site) =="
strays="$(grep -rn --include='*.rs' -E \
    'fn (step|try_dispatch|run_epoch|dispatch_invocation|deliver|apply_effects|deliver_where|force_invoke)\(' \
    crates/sim/src | grep -v '^crates/sim/src/engine.rs:' || true)"
if [ -n "$strays" ]; then
    echo "dispatch primitives defined outside crates/sim/src/engine.rs:" >&2
    echo "$strays" >&2
    echo "The dispatch core was unified to end the Simulation/Shard mirror;" >&2
    echo "route new dispatch logic through engine::DispatchCore instead." >&2
    exit 1
fi
fault_strays="$(grep -rn --include='*.rs' -E \
    'fn (send_verdict|crash_window|elapsed_crashes|gate|crash_intercept|note_partitions|abort_orphans)\(' \
    crates/sim/src \
    | grep -v -e '^crates/sim/src/engine.rs:' -e '^crates/sim/src/fault.rs:' || true)"
if [ -n "$fault_strays" ]; then
    echo "fault decision primitives defined outside engine.rs/fault.rs:" >&2
    echo "$fault_strays" >&2
    echo "Fault injection is wired through the one dispatch core; a second" >&2
    echo "decision site would let executors drift apart under faults." >&2
    exit 1
fi
echo "dispatch core unified (incl. fault primitives)"

echo "== doc build (warnings denied) + doc-tests =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo test --doc --workspace -q
echo "docs ok"

echo "== golden fingerprint freshness =="
if ! diff <(cargo run -q -p snow-bench --release --bin golden_histories) tests/golden_histories.txt; then
    echo "golden_histories.txt is stale or the engine's schedules changed." >&2
    echo "If (and only if) the schedule semantics changed intentionally," >&2
    echo "regenerate with: cargo run -p snow-bench --release --bin golden_histories -- --write" >&2
    exit 1
fi
echo "fixtures fresh"

echo "== golden fault-fingerprint freshness =="
if ! diff <(cargo run -q -p snow-bench --release --bin golden_histories -- --faults) tests/golden_fault_histories.txt; then
    echo "golden_fault_histories.txt is stale or the fault engine's schedules changed." >&2
    echo "If (and only if) the fault semantics changed intentionally," >&2
    echo "regenerate with: cargo run -p snow-bench --release --bin golden_histories -- --faults --write" >&2
    exit 1
fi
echo "fault fixtures fresh"

echo "== parallel-engine parity (golden bit-parity + determinism) =="
cargo test -q --release --test parallel_determinism
echo "parallel parity ok"

echo "== checker differential suite =="
cargo test -q --release --test checker_differential
echo "differential ok"

echo "== stream differential suite =="
cargo test -q --release --test stream_differential
echo "stream differential ok"

echo "== fault suites (determinism + checker behaviour under faults) =="
cargo test -q --release --test fault_determinism
cargo test -q --release --test fault_checker
echo "fault suites ok"

echo "== bench_json smoke =="
smoke_json="$(mktemp)"
cargo run -q -p snow-bench --release --bin bench_json -- --no-write --smoke > "$smoke_json"
if ! grep -q '"parallel_flood"' "$smoke_json" \
    || ! grep -q '"shards": 4' "$smoke_json"; then
    echo "smoke run produced no parallel_flood row" >&2
    exit 1
fi
if ! grep -q '"open_loop"' "$smoke_json" \
    || ! grep -q '"knee"' "$smoke_json" \
    || ! grep -q '"zipf_exponent"' "$smoke_json"; then
    echo "smoke run produced no open_loop section (curves + zipf)" >&2
    exit 1
fi
if ! grep -q '"checker_stream"' "$smoke_json" \
    || ! grep -q '"stream_tx_per_sec"' "$smoke_json"; then
    echo "smoke run produced no checker_stream section" >&2
    exit 1
fi
if ! grep -q '"obs"' "$smoke_json" \
    || ! grep -q '"sim.epochs"' "$smoke_json" \
    || ! grep -q '"edges_added"' "$smoke_json" \
    || ! grep -q '"stream_peak_live_window"' "$smoke_json"; then
    echo "smoke run produced no obs section (sim.* metrics + checker frontier)" >&2
    exit 1
fi
if ! grep -q '"faults"' "$smoke_json" \
    || ! grep -q '"slowdown_drop1_vs_clean"' "$smoke_json" \
    || ! grep -q '"label": "drop1pct"' "$smoke_json"; then
    echo "smoke run produced no faults section (clean vs 1% drop)" >&2
    exit 1
fi
echo "bench smoke ok (serial + parallel flood + runtime + open loop + checker + stream + faults + obs)"

echo "== checker_throughput regression guard =="
rate_at() { # <file> <transactions>: the graph checker's tx_per_sec row
    grep -o "\"transactions\": $2, \"wall_ns\": [0-9]*, \"tx_per_sec\": [0-9.]*" "$1" \
        | sed 's/.*tx_per_sec": //'
}
tracked="$(rate_at BENCH_simcore.json 1000 || true)"
current="$(rate_at "$smoke_json" 1000 || true)"
if [ -z "$tracked" ]; then
    echo "no tracked checker_throughput row; regenerate BENCH_simcore.json" >&2
    exit 1
fi
if [ -z "$current" ]; then
    echo "smoke run produced no checker_throughput row" >&2
    exit 1
fi
if ! awk -v cur="$current" -v ref="$tracked" 'BEGIN { exit !(cur * 5 >= ref) }'; then
    echo "checker_throughput regressed > 5x: tracked ${tracked} tx/s, smoke ${current} tx/s" >&2
    exit 1
fi
echo "checker throughput ok (tracked ${tracked} tx/s, smoke ${current} tx/s)"

echo "== checker_stream regression + bounded-memory guard =="
stream_rate_at() { # <file> <transactions>: the streaming checker's rate row
    grep -o "\"transactions\": $2, \"stream_wall_ns\": [0-9]*, \"stream_tx_per_sec\": [0-9.]*" "$1" \
        | sed 's/.*stream_tx_per_sec": //'
}
stream_tracked="$(stream_rate_at BENCH_simcore.json 1000 || true)"
stream_current="$(stream_rate_at "$smoke_json" 1000 || true)"
if [ -z "$stream_tracked" ]; then
    echo "no tracked checker_stream row; regenerate BENCH_simcore.json" >&2
    exit 1
fi
if [ -z "$stream_current" ]; then
    echo "smoke run produced no checker_stream row" >&2
    exit 1
fi
if ! awk -v cur="$stream_current" -v ref="$stream_tracked" 'BEGIN { exit !(cur * 5 >= ref) }'; then
    echo "checker_stream regressed > 5x: tracked ${stream_tracked} tx/s, smoke ${stream_current} tx/s" >&2
    exit 1
fi
stream_peak="$(grep -o '"peak_live_window": [0-9]*' "$smoke_json" | sed 's/.*: //' | sort -n | tail -1)"
if [ -z "$stream_peak" ] || [ "$stream_peak" -gt 256 ]; then
    echo "streaming checker live window unbounded: peak ${stream_peak:-none} (limit 256)" >&2
    echo "Frontier retirement must keep memory at O(in-flight + frontier width)." >&2
    exit 1
fi
echo "checker stream ok (tracked ${stream_tracked} tx/s, smoke ${stream_current} tx/s, peak window ${stream_peak})"

echo "== open_loop latency regression guard =="
ol_p99_at() { # <file> <rate>: the first curve's (AlgB) p99_ticks at <rate>
    grep -o "\"rate\": $2,[^}]*" "$1" | head -1 \
        | grep -o '"p99_ticks": [0-9]*' | sed 's/.*: //'
}
ol_tracked="$(ol_p99_at BENCH_simcore.json 50 || true)"
ol_current="$(ol_p99_at "$smoke_json" 50 || true)"
if [ -z "$ol_tracked" ]; then
    echo "no tracked open_loop curve; regenerate BENCH_simcore.json" >&2
    exit 1
fi
if [ -z "$ol_current" ]; then
    echo "smoke run produced no open_loop p99 at rate 50" >&2
    exit 1
fi
if ! awk -v cur="$ol_current" -v ref="$ol_tracked" 'BEGIN { exit !(cur <= ref * 5) }'; then
    echo "open-loop p99 regressed > 5x: tracked ${ol_tracked} ticks, now ${ol_current} ticks" >&2
    echo "(virtual-tick latencies are deterministic: this is a behaviour change, not noise)" >&2
    exit 1
fi
echo "open-loop latency ok (tracked p99 ${ol_tracked} ticks, smoke ${ol_current} ticks)"

echo "== fault-overhead guard (1% drop within 5x of clean, same run) =="
fault_slowdown="$(grep -o '"slowdown_drop1_vs_clean": [0-9.]*' "$smoke_json" | sed 's/.*: //')"
if [ -z "$fault_slowdown" ]; then
    echo "smoke run produced no slowdown_drop1_vs_clean ratio" >&2
    exit 1
fi
if ! awk -v s="$fault_slowdown" 'BEGIN { exit !(s <= 5) }'; then
    echo "1% message drop slowed AlgB > 5x (ratio ${fault_slowdown})" >&2
    echo "Both rates come from the same run, so this is not host noise:" >&2
    echo "the fault path has started serializing or retrying pathologically." >&2
    exit 1
fi
echo "fault overhead ok (drop1pct/clean slowdown ${fault_slowdown}x)"

echo "== scenario matrix (presence + per-cell p99 guard) =="
scen_cells() { # <file>: "name read_p99" pairs from the scenarios section
    grep -o '"scenario": "[a-z0-9_/]*/[a-z0-9_/]*"[^}]*"read_p99_ticks": [0-9]*' "$1" \
        | sed 's/"scenario": "\([^"]*\)".*"read_p99_ticks": \([0-9]*\)/\1 \2/'
}
if ! grep -q '"scenarios"' "$smoke_json" \
    || ! grep -q '"matrix_version"' "$smoke_json" \
    || ! grep -q '"snow": "' "$smoke_json"; then
    echo "smoke run produced no scenarios section (matrix + SNOW verdicts)" >&2
    exit 1
fi
current_cells="$(scen_cells "$smoke_json")"
tracked_cells="$(scen_cells BENCH_simcore.json)"
if [ -z "$tracked_cells" ]; then
    echo "no tracked scenarios section; regenerate with:" >&2
    echo "  cargo run -p snow-bench --release --bin bench_json -- --section scenarios" >&2
    exit 1
fi
cell_count="$(echo "$current_cells" | grep -c . || true)"
if [ "$cell_count" -lt 12 ]; then
    echo "scenario matrix shrank to ${cell_count} cells (floor is 12)" >&2
    exit 1
fi
while read -r name cur; do
    ref="$(echo "$tracked_cells" | awk -v n="$name" '$1 == n { print $2 }')"
    [ -z "$ref" ] && continue # a new cell has no tracked baseline yet
    if ! awk -v cur="$cur" -v ref="$ref" 'BEGIN { exit !(cur <= ref * 5) }'; then
        echo "scenario ${name} read p99 regressed > 5x: tracked ${ref}, now ${cur} site-ticks" >&2
        echo "(scenario latencies are deterministic virtual ticks: this is a" >&2
        echo "behaviour change in the topology or protocol, not noise)" >&2
        exit 1
    fi
done <<< "$current_cells"
echo "scenario matrix ok (${cell_count} cells, per-cell p99 within 5x of tracked)"
rm -f "$smoke_json"

echo "== striped tx instrumentation (no global per-send mutex) =="
if ! grep -q 'TX_SHARDS' crates/runtime/src/cluster.rs; then
    echo "runtime lost its TxId-striped instrumentation (TX_SHARDS)" >&2
    exit 1
fi
global_tx_maps="$(grep -nE '^\s*(waiters|instruments|history):\s*Mutex<' \
    crates/runtime/src/cluster.rs || true)"
if [ -n "$global_tx_maps" ]; then
    echo "global per-transaction mutex field reappeared in the runtime:" >&2
    echo "$global_tx_maps" >&2
    echo "Per-send instrumentation must stay striped by TxId (stripe_of);" >&2
    echo "a single map turns every send into a serialization point." >&2
    exit 1
fi
echo "instrumentation striped"

echo "== observability example (observe_run) =="
if ! cargo run -q --release --example observe_run | grep -q '^observe_run ok$'; then
    echo "examples/observe_run.rs did not complete" >&2
    exit 1
fi
echo "observe_run ok"

echo "== fault-engine example (partition_drill) =="
if ! cargo run -q --release --example partition_drill | grep -q '^partition_drill ok$'; then
    echo "examples/partition_drill.rs did not complete" >&2
    exit 1
fi
echo "partition_drill ok"

echo "== observability neutrality (NullSink flood within 5% of tracked) =="
cargo run -q -p snow-bench --release --bin obs_neutrality

echo "== virtual-time purity (no wall clock in crates/sim) =="
wall_clock="$(grep -rn --include='*.rs' -E 'std::time|\bInstant\b' crates/sim/src || true)"
if [ -n "$wall_clock" ]; then
    echo "the simulator read the wall clock:" >&2
    echo "$wall_clock" >&2
    echo "Simulator events are stamped with virtual ticks only; wall time" >&2
    echo "belongs to the runtime substrate (crates/runtime)." >&2
    exit 1
fi
echo "sim is wall-clock free"

echo "== latency-draw confinement (scheduler.rs / topology.rs only) =="
rng_strays="$(grep -rn --include='*.rs' '\brandom_range\b' crates/sim/src \
    | grep -v '^crates/sim/src/scheduler.rs:' || true)"
if [ -n "$rng_strays" ]; then
    echo "stateful RNG draws outside crates/sim/src/scheduler.rs:" >&2
    echo "$rng_strays" >&2
    echo "Draw-order RNG state is shard-count-dependent by construction;" >&2
    echo "new latency models belong in topology.rs as pure per-message hashes." >&2
    exit 1
fi
hash_defs="$(grep -rn --include='*.rs' 'fn splitmix64' crates src tests examples \
    | grep -v '^crates/core/src/hash.rs:' || true)"
if [ -n "$hash_defs" ]; then
    echo "splitmix64 defined outside crates/core/src/hash.rs:" >&2
    echo "$hash_defs" >&2
    echo "The mixer has one home (snow_core::hash::splitmix64); import it." >&2
    exit 1
fi
hash_strays="$(grep -rn --include='*.rs' 'splitmix64' crates/sim/src \
    | grep -v -e '^crates/sim/src/topology.rs:' -e '^crates/sim/src/fault.rs:' || true)"
if [ -n "$hash_strays" ]; then
    echo "splitmix64 used in crates/sim outside topology.rs (latency draws) / fault.rs (fault gates):" >&2
    echo "$hash_strays" >&2
    echo "Per-message hashing has exactly two call sites in the engine; a third" >&2
    echo "means an engine path started minting its own draws." >&2
    exit 1
fi
echo "latency draws confined"

echo "== causal summary has one home (crates/core/src/msg.rs) =="
causal_strays="$(grep -rnwE --include='*.rs' \
    'CausalEnvelope|send_meta|prune_meta|chain_depth|ancestor_dest_counts' \
    crates src tests examples || true)"
summary_defs="$(grep -rnE --include='*.rs' '(struct|enum|type) CausalSummary\b' \
    crates src tests examples | grep -v '^crates/core/src/msg.rs:' || true)"
if [ -n "$causal_strays" ] || [ -n "$summary_defs" ]; then
    echo "causal derivation outside snow_core::CausalSummary:" >&2
    echo "$causal_strays$summary_defs" >&2
    echo "Messages carry their causal summary; derive rounds and N from it" >&2
    echo "(CausalSummary::child / round_depth) instead of a per-message table." >&2
    exit 1
fi
echo "causal summary unified"

echo "== no per-action trace log (trace_capacity is inert) =="
log_strays="$(grep -rnE --include='*.rs' \
    '\bwith_action_capacity\b|\bActionKind\b|\bstruct Action\b|\bfn actions\b' \
    crates/sim/src || true)"
capacity_calls="$(grep -rnE --include='*.rs' 'trace_capacity\(' crates src tests examples \
    | grep -vE -e '^crates/protocols/src/deploy.rs:[0-9]+: *pub fn trace_capacity\(' \
        -e '^crates/sim/src/sim.rs:[0-9]+: *pub fn with_trace_capacity\(' || true)"
if [ -n "$log_strays" ] || [ -n "$capacity_calls" ]; then
    echo "per-action trace log or trace_capacity call outside e2e_bench:" >&2
    printf '%s\n' "$log_strays" "$capacity_calls" | grep -v '^$' >&2
    echo "The trace stores no actions; record an execution through a" >&2
    echo "TraceSink (RecordingSink) instead.  trace_capacity and" >&2
    echo "with_trace_capacity are inert and kept only for e2e_bench." >&2
    exit 1
fi
echo "no per-action trace log"

echo "CI green"
