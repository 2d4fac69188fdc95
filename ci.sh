#!/usr/bin/env bash
# The CI pipeline: the GitHub Actions workflow runs exactly this script.
# Everything is offline: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> program lines (informational)"
# Non-blank lines of the library and binary sources, each file cut at
# its first #[cfg(test)] (or #![cfg(test)], a test-only module file) so
# unit tests do not count. Not a gate.
total=0
for dir in src crates/*/src; do
  n="$(find "$dir" -name '*.rs' | sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#!?\[cfg\(test\)\]/ { cut = 1 }
    !cut && NF { n++ }
    END { print n + 0 }')"
  printf '  %-20s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '  %-20s %6d\n' total "$total"

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings (intra-doc links)"
# A renamed or deleted item must not leave a stale doc link behind.
# --lib sidesteps the hierbus_serve bin/lib doc filename collision.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> frozen benchmark build (offline)"
# benchmark/ is a package of its own (frozen sources and lockfile) that
# calls the public harness and serve APIs; building it here turns an API
# break into a CI failure instead of a broken benchmark pipeline. Cargo
# rewrites the frozen lockfile whenever a workspace crate's dependencies
# change, so restore it afterwards: a CI run leaves benchmark/ untouched.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
bench_status=0
cargo build --release --offline --manifest-path benchmark/Cargo.toml || bench_status=$?
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"
[ "$bench_status" -eq 0 ] || exit "$bench_status"

echo "==> frozen benchmark smoke (every workload, smoke size)"
# One smoke-size run of each workload through the binary just built,
# run directly so cargo leaves the frozen lockfile alone. The last line
# is the run's JSON summary: it must report a correct run in which no
# operation failed.
for workload in table3_mix explore_jcvm serve_cold serve_hot; do
  summary="$(benchmark/target/release/hierbus-benchmark run --workload "$workload" --seed 1 --smoke 2>/dev/null | tail -n 1)"
  if ! grep -q '"correct":true' <<< "$summary" || ! grep -q '"failed":0,' <<< "$summary"; then
    echo "benchmark smoke: $workload was incorrect or failed operations: $summary" >&2
    exit 1
  fi
done

echo "==> campaign smoke (2 workers, tiny matrix)"
cargo run --release -p hierbus-bench --bin explore_jcvm -- --smoke --workers 2

echo "==> arbitration smoke (both policies, DMA on/off, three layers)"
# Cross-layer equivalence gate for the multi-master path: per-master
# outcomes, committed memory, cycle- and grant-exact layer 1, the 1e-9
# energy pin and the per-master ledger partition.
cargo run --release -p hierbus-bench --bin arbitration_smoke

echo "==> examples that assert cross-layer agreement"
# Each of these examples asserts that the layers agree (cycle-exact
# layer 1, identical outcomes and memory, grant lines, the crypto
# driver's results, and its layer-2 cycles at or above layer 1's, the
# Table 1 shape on program traffic) or, for smartcard_boot, the ISS boot
# flow's checksum; a failed assert exits non-zero and stops CI. The
# release build above already compiled them. smartcard_boot also
# rewrites its results/obs artifacts, gated below.
for example in quickstart fault_injection multi_master crypto_coprocessor smartcard_boot; do
  ./target/release/examples/"$example" > /dev/null
done

echo "==> bench smoke (hot-path differential + scaling regression, release)"
# The perf layer's correctness story in a release build: the scalar
# layer-1 energy path (`on_frame`, the word-packed XOR+popcount diff)
# must stay to_bits-exact against the bit-loop reference
# (`on_frame_reference`) for every layer-1 consumer, and 2-worker
# campaigns must not lose throughput (the test skips itself on
# single-CPU runners).
cargo test --release -q --test energy_hotpath_diff --test campaign_scaling_regression -- --nocapture

echo "==> serve daemon smoke (cold run, cached replay, drain)"
# Pipe a tiny session into the daemon binary: the first run must
# simulate, the identical resubmission must replay from cache, and EOF
# must drain the session cleanly. A second invocation checks that a
# shutdown request is acknowledged with a bye event.
serve_out="$(printf '%s\n' \
  '{"v":1,"id":"a","op":"run","scenarios":[{"kind":"mix","seed":7,"count":50}]}' \
  '{"v":1,"id":"b","op":"run","scenarios":[{"kind":"mix","seed":7,"count":50}]}' \
  | ./target/release/hierbus-serve --workers 2 2>/dev/null)"
echo "$serve_out" | grep -q '"req":"a".*"cached":false' \
  || { echo "serve smoke: first run was not simulated" >&2; exit 1; }
echo "$serve_out" | grep -q '"req":"b".*"cached":true' \
  || { echo "serve smoke: resubmission was not served from cache" >&2; exit 1; }
# The cached replay splices the stored bytes into its event line: its
# result payload must equal the fresh run's byte for byte.
serve_payload() {
  echo "$serve_out" | sed -n "s/^.*\"req\":\"$1\",\"event\":\"result\".*\"cached\":$2,\"result\":\(.*\)}\$/\1/p"
}
fresh_payload="$(serve_payload a false)"
cached_payload="$(serve_payload b true)"
[ -n "$fresh_payload" ] && [ "$fresh_payload" = "$cached_payload" ] \
  || { echo "serve smoke: cached result payload differs from the fresh one" >&2; exit 1; }
printf '%s\n' '{"v":1,"id":"q","op":"shutdown"}' \
  | ./target/release/hierbus-serve 2>/dev/null | grep -q '"event":"bye"' \
  || { echo "serve smoke: shutdown was not acknowledged" >&2; exit 1; }

echo "==> serve telemetry smoke (health, snapshot, request trace)"
# The v2 telemetry surface through the real binary: an idle daemon's
# health probe answers ok, a subscription acks with a snapshot, and a
# traced run dumps a non-empty Perfetto trace connected by its trace id.
trace_tmp="$(mktemp -d)"
tel_out="$(printf '%s\n' \
  '{"v":2,"id":"h","op":"health"}' \
  '{"v":2,"id":"sub","op":"subscribe","every_ms":60000}' \
  '{"v":2,"id":"r","op":"run","scenarios":[{"kind":"mix","seed":9,"count":50}]}' \
  '{"v":2,"id":"d","op":"dump-trace"}' \
  | ./target/release/hierbus-serve --workers 2 --trace-dir "$trace_tmp" 2>/dev/null)"
echo "$tel_out" | grep -q '"event":"health".*"status":"ok"' \
  || { echo "serve telemetry smoke: health did not answer ok" >&2; exit 1; }
echo "$tel_out" | grep -q '"event":"snapshot"' \
  || { echo "serve telemetry smoke: subscribe did not ack with a snapshot" >&2; exit 1; }
echo "$tel_out" | grep -q '"event":"done".*"trace":"t1"' \
  || { echo "serve telemetry smoke: run was not traced" >&2; exit 1; }
grep -q '"trace":"t1"' "$trace_tmp"/t1.trace.json \
  || { echo "serve telemetry smoke: dumped trace is empty or disconnected" >&2; exit 1; }
rm -rf "$trace_tmp"

echo "==> serve telemetry gate (traces, event log, exposition)"
# In-process end-to-end validation of the telemetry plane's external
# surfaces: Perfetto trace connectivity, JSONL event-log schema, and the
# Prometheus text exposition's cumulative-bucket arithmetic.
cargo run --release -p hierbus-bench --bin check_telemetry

echo "==> throughput JSON schema gate"
# BENCH_throughput.json must parse and carry the campaign scaling fields
# the regression tracking depends on, with the production layer-1 path
# at least as fast as the bit-loop reference in the same run.
cargo run --release -p hierbus-bench --bin check_throughput

echo "==> results staleness gate (deterministic tables)"
# Every bin below prints byte-deterministic output (table3_simperf is
# wall-clock based and exempt). Regenerate each and diff against the
# committed results/ copy so a model change can't silently strand the
# published numbers. The committed tables come from 1-worker runs; the
# campaign-backed bins (explore_jcvm, ablations) regenerate here on 2
# workers, so the diff also pins the merge's worker-count independence.
# Refresh with:
#   cargo run --release -p hierbus-bench --bin all_tables
stale_tmp="$(mktemp -d)"
trap 'rm -rf "$stale_tmp"' EXIT
for bin in table1_timing table2_energy fig6_sampling explore_jcvm ablations attribution; do
  CAMPAIGN_WORKERS=2 ./target/release/"$bin" > "$stale_tmp/$bin.txt" 2>/dev/null
  if ! diff -u "results/$bin.txt" "$stale_tmp/$bin.txt"; then
    echo "results/$bin.txt is stale — regenerate with the all_tables bin" >&2
    exit 1
  fi
done

echo "==> attribution JSON schema gate, observed-run artifacts"
# The attribution bin above rewrote results/obs/attribution_*.json as a
# side effect; validate the schema and fail if the rewrite left the
# committed copies stale.
cargo run --release -p hierbus-bench --bin check_attribution
# The table1_timing and table2_energy runs and the smartcard_boot
# example above also rewrote their observed-run artifacts (the RTL/L1/L2
# span streams, energy tracks and per-layer record metrics, the boot
# flow's spans and metrics); they are deterministic, so they are gated
# too. table3_simperf's artifacts carry wall-clock numbers, so they stay
# ungated.
obs_gated=('results/obs/attribution_*')
for bin in table1_timing table2_energy smartcard_boot; do
  for ext in trace.json metrics.csv metrics.prom; do
    obs_gated+=("results/obs/$bin.$ext")
  done
done
if ! git diff --quiet -- "${obs_gated[@]}"; then
  git --no-pager diff --stat -- "${obs_gated[@]}" >&2
  echo "results/obs artifacts are stale — commit the regenerated files" >&2
  exit 1
fi

echo "==> campaign scaling smoke (1/2/4/N workers, tiny matrix)"
# Measures a 2x2 slice of the exploration campaign and validates its
# campaign_explore section in-process with the validator
# check_throughput runs on the committed file. It writes nothing:
# BENCH_throughput.json stays as committed.
cargo run --release -p hierbus-bench --bin campaign_scaling -- --smoke

echo "CI OK"
