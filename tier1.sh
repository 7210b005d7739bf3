#!/usr/bin/env bash
# Tier-1 verification: build, full workspace tests, lints, formatting,
# the benchmark smoke, and telemetry-guarded smoke runs. Note: the root
# manifest is both [workspace] and [package], so plain `cargo test`
# would only run the umbrella crate — always pass --workspace.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Fast lane: the kernel crate's unit + property tests (lane-blocked vs
# scalar bitwise identity, f64 and f32) fail in seconds when a kernel
# change is bad, before the full workspace build/test cycle below.
cargo test -q -p mrpic-kernels
# MR fast lane: the `mr` module's unit tests, which hold build_aux and
# couple_currents bit for bit against their reference (oracle) bodies
# on 2-D/3-D multi-box levels, fail in seconds when an MR sweep change
# moves a bit.
cargo test -q -p mrpic-core --lib mr::
# AMR fast lane: the mesh crate's tests, which hold the in-place
# moving-window `shift_data` bit for bit against its reference (oracle)
# bodies (cell/nodal, 2-D/3-D, PML slabs, single box), fail in seconds
# when a shift or exchange change moves a bit.
cargo test -q -p mrpic-amr
# Field fast lane: the field crate's tests, which hold the fused Yee
# rows, the table-driven split-PML update, the one-pass PML interface
# copies and the rolling-row current filter bit for bit against their
# reference (oracle) bodies (2-D/3-D, multi-box, PML corners, junk
# guards), fail in seconds when a field-kernel change moves a bit.
cargo test -q -p mrpic-field
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Benchmark smoke: every mrpic_benchmark workload for a few steps
# through the library/CLI surface the benchmark pins, with its digest
# and invariant checks (exit nonzero on any failure). Performance is
# judged by full `mrpic_benchmark/run.sh` runs, not here.
bash mrpic_benchmark/run.sh --smoke

# Telemetry smoke run: a short slice of the hybrid-target MR config with
# the NaN/Inf sentinel on every step. mrpic_run exits 3 if a guard trips,
# which fails this script.
cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
    target/tier1_smoke_out --steps 40
test -s target/tier1_smoke_out/telemetry.jsonl
# Every record carries the `other` phase that closes the partition of
# the step's wall time.
grep -q '"other":' target/tier1_smoke_out/telemetry.jsonl

# The multi-rank smokes below run a 4-box variant of the same config,
# so every rank owns boxes (on the 1-box deck rank 1 owns nothing).
sed '1s/^{$/{\n  "max_box": [64, 1, 96],/' configs/hybrid_target_mr_2d.json \
    > target/tier1_four_box.json
grep -q '"max_box": \[64, 1, 96\]' target/tier1_four_box.json

# Same config through the mrpic-dist multi-rank runtime (2 rank threads
# over the in-process message-passing transport).
cargo run --release --bin mrpic_run -- target/tier1_four_box.json \
    target/tier1_smoke_dist_out --steps 40 --ranks 2
test -s target/tier1_smoke_dist_out/telemetry.jsonl

# Socket-transport smoke: the same slice again, but the two ranks are
# real OS processes (`mrpic_rank` workers) meshed over Unix-domain
# sockets. The run must be guard-clean, publish the same bitwise state
# digest as the in-process transport, write the same diagnostics
# byte for byte, and leave no socket files behind (the supervisor
# removes the whole mesh directory). Rank 1 must have done particle
# work on every step.
cargo run --release --bin mrpic_run -- target/tier1_four_box.json \
    target/tier1_smoke_sock_out --steps 40 --ranks 2 --transport socket
test -s target/tier1_smoke_sock_out/telemetry.jsonl
grep -q '"guard_trips": 0' target/tier1_smoke_sock_out/summary.json
MEM_DIGEST=$(grep -o '"state_digest": "[0-9a-f]*"' target/tier1_smoke_dist_out/summary.json)
SOCK_DIGEST=$(grep -o '"state_digest": "[0-9a-f]*"' target/tier1_smoke_sock_out/summary.json)
test -n "$MEM_DIGEST" && test "$MEM_DIGEST" = "$SOCK_DIGEST"
test -z "$(find target/tier1_smoke_sock_out -name '*.sock' -o -name '.mesh-*' 2>/dev/null)"
for CSV in ex.csv ey.csv bz.csv $(cd target/tier1_smoke_dist_out && echo spectrum_*.csv); do
    cmp target/tier1_smoke_dist_out/$CSV target/tier1_smoke_sock_out/$CSV
done
R1_PARTICLE_S=$(grep -o '"rank":1,[^}]*' target/tier1_smoke_sock_out/telemetry.jsonl \
    | grep -o '"particle_seconds":[0-9.e+-]*' | cut -d: -f2)
test "$(echo "$R1_PARTICLE_S" | grep -c .)" = 40
if echo "$R1_PARTICLE_S" | awk '$1 == 0 { zero = 1 } END { exit !zero }'; then exit 1; fi

# Elastic smoke: grow 2 -> 4 ranks at step 20 of the same slice. The
# resize must be recorded in the summary, the per-step rank_count in the
# telemetry must actually change, and the final state must still be the
# bitwise state every other transport produced.
cargo run --release --bin mrpic_run -- target/tier1_four_box.json \
    target/tier1_smoke_elastic_out --steps 40 --ranks 2 --elastic grow:20:2
grep -q '"resizes": 1' target/tier1_smoke_elastic_out/summary.json
grep -q '"final_ranks": 4' target/tier1_smoke_elastic_out/summary.json
grep -q '"rank_count":2' target/tier1_smoke_elastic_out/telemetry.jsonl
grep -q '"rank_count":4' target/tier1_smoke_elastic_out/telemetry.jsonl
EL_DIGEST=$(grep -o '"state_digest": "[0-9a-f]*"' target/tier1_smoke_elastic_out/summary.json)
test "$MEM_DIGEST" = "$EL_DIGEST"

# Over-shrinking elastic plan: shrinking 2 ranks by 2 is a usage error,
# refused before any worker spawns or step runs — exit exactly 2 with a
# message naming the event, on both transports, and never a panic.
for TRANSPORT in mem socket; do
    set +e
    cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
        target/tier1_overshrink_out --steps 6 --ranks 2 --elastic shrink:3:2 \
        --transport "$TRANSPORT" 2> target/tier1_overshrink.stderr
    OVERSHRINK_CODE=$?
    set -e
    test "$OVERSHRINK_CODE" = 2
    grep -q 'shrink:3:2' target/tier1_overshrink.stderr
    if grep -q panicked target/tier1_overshrink.stderr; then exit 1; fi
done

# Hostile deck: a max_box with a zero component is a config error —
# exit exactly 2 with a message naming the field, never a panic.
sed '1s/^{$/{\n  "max_box": [0, 1, 0],/' configs/hybrid_target_mr_2d.json \
    > target/tier1_bad_max_box.json
grep -q '"max_box": \[0, 1, 0\]' target/tier1_bad_max_box.json
set +e
cargo run --release --bin mrpic_run -- target/tier1_bad_max_box.json \
    target/tier1_bad_max_box_out --steps 6 2> target/tier1_bad_max_box.stderr
BAD_DECK_CODE=$?
set -e
test "$BAD_DECK_CODE" = 2
grep -q 'max_box\[0\]' target/tier1_bad_max_box.stderr
if grep -q panicked target/tier1_bad_max_box.stderr; then exit 1; fi

# Hostile deck: a PML thinner than 4 cells is a config error — exit
# exactly 2 with a message naming the field, never a panic.
sed 's/"pml": 10,/"pml": 2,/' configs/hybrid_target_mr_2d.json \
    > target/tier1_bad_pml.json
grep -q '"pml": 2,' target/tier1_bad_pml.json
set +e
cargo run --release --bin mrpic_run -- target/tier1_bad_pml.json \
    target/tier1_bad_pml_out --steps 6 2> target/tier1_bad_pml.stderr
BAD_PML_CODE=$?
set -e
test "$BAD_PML_CODE" = 2
grep -q 'pml' target/tier1_bad_pml.stderr
if grep -q panicked target/tier1_bad_pml.stderr; then exit 1; fi

# Seeded chaos smoke: the built-in fault plan injects delays, corruption,
# and transient failures, then crashes rank 1 at step 20; the run must
# recover (checkpoint rollback + replay on the survivor) and exit 0, with
# the injected-fault counters visible in the telemetry. The detected
# crash must also dump the flight recorder: a well-formed blackbox.json
# whose last recorded step equals the summary's failure_step.
cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
    target/tier1_smoke_chaos_out --steps 40 --ranks 2 --fault-seed 42
test -s target/tier1_smoke_chaos_out/telemetry.jsonl
grep -q '"faults":{' target/tier1_smoke_chaos_out/telemetry.jsonl
grep -q '"recoveries":1' target/tier1_smoke_chaos_out/telemetry.jsonl
grep -q '"schema": "mrpic-blackbox-v1"' target/tier1_smoke_chaos_out/blackbox.json
grep -q '"reason": "rank_loss"' target/tier1_smoke_chaos_out/blackbox.json
CHAOS_BB=$(grep -o '"last_step": [0-9]*' target/tier1_smoke_chaos_out/blackbox.json | grep -o '[0-9]*')
CHAOS_FAIL=$(grep -o '"failure_step": [0-9]*' target/tier1_smoke_chaos_out/summary.json | grep -o '[0-9]*')
test -n "$CHAOS_BB" && test "$CHAOS_BB" = "$CHAOS_FAIL"

# Forced guard-trip smoke: --poison-step plants a NaN in Ex after step
# 10, so the sentinel must trip (exit 3) and the flight recorder must
# dump a blackbox whose last step matches the summary's failure_step.
set +e
cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
    target/tier1_smoke_poison_out --steps 40 --poison-step 10
POISON_CODE=$?
set -e
test "$POISON_CODE" = 3
grep -q '"schema": "mrpic-blackbox-v1"' target/tier1_smoke_poison_out/blackbox.json
grep -q '"reason": "guard_trip"' target/tier1_smoke_poison_out/blackbox.json
# Blackbox step entries are the full step records (phases included).
grep -q '"phases"' target/tier1_smoke_poison_out/blackbox.json
POISON_BB=$(grep -o '"last_step": [0-9]*' target/tier1_smoke_poison_out/blackbox.json | grep -o '[0-9]*')
POISON_FAIL=$(grep -o '"failure_step": [0-9]*' target/tier1_smoke_poison_out/summary.json | grep -o '[0-9]*')
test -n "$POISON_BB" && test "$POISON_BB" = "$POISON_FAIL"

# Live metrics smoke: scrape /metrics mid-run on a 2-process socket
# mesh. The supervisor aggregates the workers' pushed Metrics frames and
# serves the fleet exposition; `mrpic_top --scrape` fetches it, validates
# the Prometheus text format (exit 1 on malformed output), and prints it.
# Both pinned series must be present and nonzero for rank 0 while the
# run is still going; the run itself must then finish guard-clean.
METRICS_DIR=target/tier1_metrics_out
rm -rf "$METRICS_DIR"
cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
    "$METRICS_DIR" --steps 400 --ranks 2 --transport socket \
    --metrics-addr 127.0.0.1:0 --metrics-interval 2 \
    --metrics-out "$METRICS_DIR/metrics.json" &
METRICS_RUN_PID=$!
for _ in $(seq 200); do [ -f "$METRICS_DIR/metrics.addr" ] && break; sleep 0.1; done
test -f "$METRICS_DIR/metrics.addr"
METRICS_ADDR=$(cat "$METRICS_DIR/metrics.addr")
SCRAPED=0
for _ in $(seq 100); do
    if cargo run --release --bin mrpic_top -- --scrape "$METRICS_ADDR" \
        > "$METRICS_DIR/scrape.txt" 2>/dev/null \
        && grep -Eq 'mrpic_wire_bytes_total\{rank="0"\} [1-9]' "$METRICS_DIR/scrape.txt" \
        && grep -Eq 'mrpic_step_imbalance\{rank="0"\} [1-9]' "$METRICS_DIR/scrape.txt"; then
        SCRAPED=1
        break
    fi
    sleep 0.1
done
test "$SCRAPED" = 1
wait "$METRICS_RUN_PID"
# The one-shot snapshot must exist and round-trip through mrpic_prof's
# metrics-snapshot comparer (a self-compare has nothing to regress).
grep -q '"schema": "mrpic-metrics-v1"' "$METRICS_DIR/metrics.json"
cargo run --release --bin mrpic_prof -- \
    --compare "$METRICS_DIR/metrics.json" "$METRICS_DIR/metrics.json" --threshold 5

# Traced 2-rank smoke: --trace-out writes Chrome-trace JSON; mrpic_prof
# validates that it parses and that spans nest correctly per thread
# track (exit 1 otherwise) and reports imbalance / comm matrix / top
# spans, plus the message-bytes and recv-wait distributions derived
# from the `send` and `recv_wait` spans.
cargo run --release --bin mrpic_run -- configs/hybrid_target_mr_2d.json \
    target/tier1_smoke_trace_out --steps 20 --ranks 2 \
    --trace-out target/tier1_smoke_trace_out/trace.json
test -s target/tier1_smoke_trace_out/trace.json
cargo run --release --bin mrpic_prof -- target/tier1_smoke_trace_out/trace.json \
    > target/tier1_smoke_trace_out/prof.txt
cat target/tier1_smoke_trace_out/prof.txt
grep -Eq '^  send bytes +[1-9]' target/tier1_smoke_trace_out/prof.txt
grep -Eq '^  recv_wait ns +[1-9]' target/tier1_smoke_trace_out/prof.txt

# Live load-balance gate: the skewed laser-foil config puts every
# particle in the high-x boxes, so a uniform SFC split starves rank 0.
# Run the same 2-rank slice with the policy disabled (--no-lb) and
# enabled, then require the run-mean telemetry imbalance to improve by
# at least 5% (mrpic_prof exits 4 otherwise) and an adopted LbDecision
# to appear in the telemetry. Wall time is only sanity-checked with a
# forgiving threshold: the in-process ranks share one address space, so
# adoption mostly moves *attributed* work at this scale.
cargo run --release --bin mrpic_run -- configs/laser_foil_skewed_2d.json \
    target/tier1_lb_off --steps 40 --ranks 2 --no-lb
cargo run --release --bin mrpic_run -- configs/laser_foil_skewed_2d.json \
    target/tier1_lb_on --steps 40 --ranks 2
cargo run --release --bin mrpic_prof -- \
    --compare target/tier1_lb_off/summary.json target/tier1_lb_on/summary.json \
    --only imbalance --min-improve 5
cargo run --release --bin mrpic_prof -- \
    --compare target/tier1_lb_off/summary.json target/tier1_lb_on/summary.json \
    --only wall_s --threshold 50
grep -q '"lb":{' target/tier1_lb_on/telemetry.jsonl
grep -q '"adopted":"' target/tier1_lb_on/telemetry.jsonl
grep -q '"lb_adoptions": 0' target/tier1_lb_off/summary.json

# Balanced counterpart: same domain with the plasma spread uniformly.
# The armed policy must decline to act (trigger never crosses the
# threshold, so zero adoptions) and the run must not regress vs --no-lb.
# Both runs cover the whole deck (142 steps, ~0.6 s each) so the wall
# gate weighs the armed policy's per-step cost, not host noise on a
# fraction of a second.
cargo run --release --bin mrpic_run -- configs/laser_foil_balanced_2d.json \
    target/tier1_lb_bal_off --steps 142 --ranks 2 --no-lb
cargo run --release --bin mrpic_run -- configs/laser_foil_balanced_2d.json \
    target/tier1_lb_bal_on --steps 142 --ranks 2
cargo run --release --bin mrpic_prof -- \
    --compare target/tier1_lb_bal_off/summary.json target/tier1_lb_bal_on/summary.json \
    --only wall_s --threshold 25
grep -q '"lb_adoptions": 0' target/tier1_lb_bal_on/summary.json

# mrpic-serve smoke: one-slot server, short quantum. A low-priority LWFA
# job is submitted first; once the status endpoint shows it running, a
# higher-priority laser-foil job is submitted and must overtake it (the
# LWFA job is checkpointed, parked, and resumed bitwise identically).
# The server log pins the order: job 2's "complete" line must precede
# job 1's, with preempt/resume edges in between. SIGTERM must drain
# cleanly (exit 0, fsynced log, socket file removed).
SERVE_DIR=target/tier1_serve
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
SOCK="$SERVE_DIR/serve.sock"
cargo run --release --bin mrpic_serve -- --socket "$SOCK" --slots 1 --quantum 5 \
    --log "$SERVE_DIR/server.jsonl" \
    --metrics-addr 127.0.0.1:0 --metrics-addr-file "$SERVE_DIR/metrics.addr" &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
test -S "$SOCK"

cargo run --release --bin mrpic_run -- configs/lwfa_2d.json "$SERVE_DIR/lo" \
    --submit "$SOCK" --tenant background --steps 1200 &
LO_PID=$!
LO_SEEN=0
for _ in $(seq 300); do
    if cargo run --release --bin mrpic_run -- --serve-status "$SOCK" \
        | grep -q '"state": "running"'; then
        LO_SEEN=1
        break
    fi
    sleep 0.1
done
test "$LO_SEEN" = 1

# A reader that closes the pipe after one byte must not make the status
# printer panic on the broken pipe (it exits 0 instead).
cargo run --release --bin mrpic_run -- --serve-status "$SOCK" \
    2>"$SERVE_DIR/epipe.err" | head -c 1 >/dev/null
if grep -q panicked "$SERVE_DIR/epipe.err"; then exit 1; fi

# With job 1 live, the server's /metrics endpoint must expose the fleet
# view: scheduler gauges plus the running job's per-tenant series.
test -f "$SERVE_DIR/metrics.addr"
SERVE_METRICS_ADDR=$(cat "$SERVE_DIR/metrics.addr")
SERVE_SCRAPED=0
for _ in $(seq 100); do
    if cargo run --release --bin mrpic_top -- --scrape "$SERVE_METRICS_ADDR" \
        > "$SERVE_DIR/scrape.txt" 2>/dev/null \
        && grep -q 'mrpic_serve_slots 1' "$SERVE_DIR/scrape.txt" \
        && grep -Eq 'mrpic_serve_job_steps_total\{job="1",tenant="background",state="running"\}' \
            "$SERVE_DIR/scrape.txt" \
        && grep -q 'mrpic_serve_tenant_jobs{tenant="background"} 1' "$SERVE_DIR/scrape.txt"; then
        SERVE_SCRAPED=1
        break
    fi
    sleep 0.1
done
test "$SERVE_SCRAPED" = 1

cargo run --release --bin mrpic_run -- configs/laser_foil_skewed_2d.json "$SERVE_DIR/hi" \
    --submit "$SOCK" --tenant interactive --priority 5 --steps 40
wait "$LO_PID"

grep -q '"guard_trips": 0' "$SERVE_DIR/lo/summary.json"
grep -q '"guard_trips": 0' "$SERVE_DIR/hi/summary.json"
test -s "$SERVE_DIR/lo/telemetry.jsonl"
test -s "$SERVE_DIR/hi/telemetry.jsonl"
HI_DONE=$(grep -n '"event":"complete","job":2' "$SERVE_DIR/server.jsonl" | cut -d: -f1)
LO_DONE=$(grep -n '"event":"complete","job":1' "$SERVE_DIR/server.jsonl" | cut -d: -f1)
test -n "$HI_DONE" && test -n "$LO_DONE" && test "$HI_DONE" -lt "$LO_DONE"
grep -q '"event":"preempt"' "$SERVE_DIR/server.jsonl"
grep -q '"event":"resume"' "$SERVE_DIR/server.jsonl"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test ! -e "$SOCK"
grep -q '"event":"shutdown"' "$SERVE_DIR/server.jsonl"
