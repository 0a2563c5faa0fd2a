#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the layering lint, tier-1
# tests, the verifier acceptance sweep, the Release -Werror build,
# sanitizer runs, clang-tidy, the telemetry stats gate, and the bench
# smoke.
# Each stage can be skipped by name: `scripts/ci.sh tier1 asan` runs only
# those; no arguments runs everything available on this machine.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"
GENERATOR=()
command -v ninja >/dev/null && GENERATOR=(-G Ninja)

want() {
  [[ $# -eq 0 ]] && return 0
  local stage="$1"; shift
  [[ $# -eq 0 ]] && return 0
  for s in "$@"; do [[ "$s" == "$stage" ]] && return 0; done
  return 1
}
STAGES=("$@")

stage_tier1() {
  # Warnings are errors in the tier-1 build: src/, tools/, bench/, tests/.
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build -j "$JOBS"
  ctest --test-dir build -j "$JOBS" --output-on-failure
  # Every workload through every pass boundary with the verifier fatal.
  # hlic rejects mixed-language batches by design, so the C and BASIC
  # workloads sweep as separate batches.
  local c_workloads basic_workloads
  c_workloads=$(./build/tools/hlic --list-workloads \
    | awk '$2 != "BASIC" {print $1}')
  basic_workloads=$(./build/tools/hlic --list-workloads \
    | awk '$2 == "BASIC" {print $1}')
  # shellcheck disable=SC2086
  ./build/tools/hlic --verify-hli=fatal --stats $c_workloads
  # shellcheck disable=SC2086
  ./build/tools/hlic --verify-hli=fatal --stats $basic_workloads
  # Independent-analyzer acceptance: the irdep audit must refute no HLI
  # independence claim on any workload, and the loop classifier must
  # find real parallelism (at least one DOALL and one DOACROSS).
  # shellcheck disable=SC2086
  ./build/tools/hlic --audit-deps=fatal --stats $c_workloads
  # shellcheck disable=SC2086
  ./build/tools/hlic --audit-deps=fatal --stats $basic_workloads
  ./build/tools/hlic --analyze=loops 102.swim | tee build/LOOPS_swim.txt
  grep -q DOALL build/LOOPS_swim.txt
  grep -q DOACROSS build/LOOPS_swim.txt
  # The second front-end must reach the classifier with provable
  # parallelism too: the BASIC stencil's sweep loops are DOALL.
  ./build/tools/hlic --analyze=loops basic.stencil \
    | tee build/LOOPS_basic.txt
  grep -q DOALL build/LOOPS_basic.txt
  # Text-vs-HLIB differential round-trip suites + serialize bench smoke.
  ./build/tests/hli/hli_tests \
    --gtest_filter='Binary*:Store*:*WorkloadRoundTrip*'
  ./build/tests/driver/driver_tests --gtest_filter='*StoreImport*'
  ./build/tools/hlic --emit=binary --stats --run wc
  ./build/bench/bench_serialize --json build/BENCH_serialize.json
}

stage_release() {
  # Build only: the optimizer's extra analysis at -O3 must not turn up a
  # warning the RelWithDebInfo tier-1 build misses.
  cmake -B build-release "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-release -j "$JOBS"
}

stage_fuzz() {
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS" --target hlifuzz
  # Bounded differential smoke: fixed seed range, full 22-config matrix,
  # fails on any divergence.  ~10s; a CI failure reproduces locally with
  # the printed seed alone.
  ./build/tools/hlifuzz --seed 1 --iterations 200 --quiet \
    --json build/FUZZ_smoke.json
  ./build/tools/hlifuzz --seed 90001 --iterations 50 --features all --quiet
  # Self-test: planted miscompiles must be detected and reduced.
  ./build/tools/hlifuzz --seed 1 --iterations 2 --plant-bug drop-store \
    --no-reduce --quiet
  ./build/tools/hlifuzz --seed 1 --iterations 2 --plant-bug negate-branch \
    --no-reduce --quiet
  # Second front-end: the same differential harness on generated BASIC
  # sources, plus the planted-defect self-test through that path.
  ./build/tools/hlifuzz --frontend=basic --seed 50001 --iterations 50 --quiet
  ./build/tools/hlifuzz --frontend=basic --seed 1 --iterations 2 \
    --plant-bug drop-store --no-reduce --quiet
}

stage_asan() {
  cmake -B build-asan "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Debug \
    -DSANITIZE=address,undefined
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure
  # Fuzz smoke under ASan/UBSan: interpreter + maintenance code on random
  # programs (fewer iterations; sanitized runs are ~10x slower).
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ./build-asan/tools/hlifuzz --seed 1 --iterations 25 --quiet
}

stage_parexec() {
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS" --target hlic parexec_tests
  # Byte-identity gate: `--run` stdout (return value, output hash, emit
  # count, dynamic insns) must match a serial run exactly on every
  # workload at 2, 3 and 4 lanes; the parexec summary goes to stderr by
  # design.  DOALL chunk shapes follow the lane count, and 3 lanes gives
  # uneven tiles.
  local workloads w n
  workloads=$(./build/tools/hlic --list-workloads | awk '{print $1}')
  for w in $workloads; do
    ./build/tools/hlic "$w" --run > "build/RUN_serial_$w.txt"
    for n in 2 3 4; do
      ./build/tools/hlic "$w" --run --exec-threads=$n \
        > "build/RUN_par${n}_$w.txt"
      cmp "build/RUN_serial_$w.txt" "build/RUN_par${n}_$w.txt"
    done
  done
  # Non-vacuousness: the grids must actually dispatch at default options
  # (the cost model predicts their win), and the DOACROSS post-wait path
  # must run.  The model declines every DOACROSS(1) plan of the suite, so
  # the post-wait witness is a DOACROSS(3) loop forced onto the pool at
  # 2, 3 and 4 lanes, byte-identical to serial.
  ./build/tools/hlic 102.swim --run --exec-threads=4 2>&1 >/dev/null \
    | grep -E 'parexec: loops [1-9]'
  ./build/tests/backend/parexec_tests \
    --gtest_filter='ParexecEndToEndTest.DoacrossPostWaitPreservesRecurrence'
}

stage_tsan() {
  cmake -B build-tsan "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSANITIZE=thread
  cmake --build build-tsan -j "$JOBS" \
    --target driver_tests parexec_tests service_tests hlic
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/driver/driver_tests \
    --gtest_filter='Parallel*:*Parallel*:*Parexec*'
  # Compile service under TSan: cross-request HliStore sharing, the
  # sharded cache under mixed traffic, and concurrent clients against
  # one server.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/service/service_tests \
    --gtest_filter='StoreSharing*:*Concurrent*'
  # Parallel loop runtime under TSan: the pool/post-wait unit suite (its
  # DOACROSS and trap-parity tests force dispatch past the cost model)
  # plus a threaded end-to-end subset of the suite.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/backend/parexec_tests
  for w in 102.swim 101.tomcatv 141.apsi; do
    TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/hlic "$w" --run \
      --exec-threads=4 > /dev/null
  done
  # Full determinism suite under TSan: all 14 C workloads compiled
  # serially and with a worker pool must produce byte-identical JSON
  # stats — any cross-thread interleaving that leaks into results shows
  # up as a cmp failure, any data race as a TSan report.  The BASIC
  # workloads run as their own batch (mixed-language batches are
  # rejected by design).
  local workloads
  workloads=$(./build-tsan/tools/hlic --list-workloads \
    | awk '$2 != "BASIC" {print $1}')
  # shellcheck disable=SC2086
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/hlic --stats=json \
    --jobs 1 $workloads > build-tsan/STATS_serial.json
  # shellcheck disable=SC2086
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/hlic --stats=json \
    --jobs "$JOBS" $workloads > build-tsan/STATS_parallel.json
  cmp build-tsan/STATS_serial.json build-tsan/STATS_parallel.json
  workloads=$(./build-tsan/tools/hlic --list-workloads \
    | awk '$2 == "BASIC" {print $1}')
  # shellcheck disable=SC2086
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/hlic --stats=json \
    --jobs 1 $workloads > build-tsan/STATS_basic_serial.json
  # shellcheck disable=SC2086
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/hlic --stats=json \
    --jobs "$JOBS" $workloads > build-tsan/STATS_basic_parallel.json
  cmp build-tsan/STATS_basic_serial.json build-tsan/STATS_basic_parallel.json
}

stage_tidy() {
  if ! command -v run-clang-tidy >/dev/null; then
    echo "ci: run-clang-tidy not found, skipping lint" >&2
    return 0
  fi
  cmake -B build "${GENERATOR[@]}"
  run-clang-tidy -p build -quiet "$(pwd)/(src|tools)/.*\.cpp$"
}

stage_stats() {
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS" --target hlic
  local workloads basic_workloads
  workloads=$(./build/tools/hlic --list-workloads \
    | awk '$2 != "BASIC" {print $1}')
  basic_workloads=$(./build/tools/hlic --list-workloads \
    | awk '$2 == "BASIC" {print $1}')
  # Determinism gate: the JSON stats report must be byte-identical
  # however many workers compiled the sweep.  C and BASIC batches run
  # separately (mixed-language batches are rejected by design).
  # shellcheck disable=SC2086
  ./build/tools/hlic --stats=json --jobs 1 $workloads \
    > build/STATS_serial.json
  # shellcheck disable=SC2086
  ./build/tools/hlic --stats=json --jobs 8 $workloads \
    > build/STATS_parallel.json
  cmp build/STATS_serial.json build/STATS_parallel.json
  # shellcheck disable=SC2086
  ./build/tools/hlic --stats=json --jobs 1 $basic_workloads \
    > build/STATS_basic_serial.json
  # shellcheck disable=SC2086
  ./build/tools/hlic --stats=json --jobs 8 $basic_workloads \
    > build/STATS_basic_parallel.json
  cmp build/STATS_basic_serial.json build/STATS_basic_parallel.json
  # Effectiveness gate: HLI-assisted scheduling prunes DDG edges across
  # the sweep; with --no-hli the pruning counter must not appear at all
  # (nonzero counters only are rendered).
  grep -q '"sched.ddg_edges_pruned":[1-9]' build/STATS_serial.json
  # shellcheck disable=SC2086
  ./build/tools/hlic --no-hli --stats=json $workloads \
    > build/STATS_nohli.json
  ! grep -q 'ddg_edges_pruned' build/STATS_nohli.json
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
serial = json.load(open('build/STATS_serial.json'))
nohli = json.load(open('build/STATS_nohli.json'))
pruned = serial['total'].get('sched.ddg_edges_pruned', 0)
assert pruned > 0, 'HLI-assisted scheduling pruned no DDG edges'
assert nohli['total'].get('sched.ddg_edges_pruned', 0) == 0, \
    'pruning counter must be zero with --no-hli'
assert len(serial['inputs']) == len(nohli['inputs'])
print('stats gate: %d DDG edges pruned across %d workloads'
      % (pruned, len(serial['inputs'])))
EOF
  fi
}

stage_query_perf() {
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS" --target bench_query_micro hli_tests
  # Perf gate, on the medians of bench_query_micro's trials for every
  # DDG-shaped block size: the batched BlockConflictMatrix row scan must
  # be no slower than the scalar per-pair path, and the scheduler's
  # memory phase as it runs (GccConflictRows + HliPairs::conflict_row, a
  # row per reference) no slower than the per-pair gcc_may_conflict +
  # HliPairs::mem_pair loop it replaced.  The second comparison is the
  # shape backend/sched.cpp executes.
  ./build/bench/bench_query_micro --json build/BENCH_query.json
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
report = json.load(open('build/BENCH_query.json'))
blocks = [w for w in report['per_workload'] if w['name'].startswith('block/')]
assert blocks, 'bench_query_micro reported no block sweep'
for w in blocks:
    assert w['batched_ns_per_pair_median'] <= w['scalar_ns_per_pair_median'], \
        '%s: batched %.2f ns/pair slower than scalar %.2f ns/pair' \
        % (w['name'], w['batched_ns_per_pair_median'],
           w['scalar_ns_per_pair_median'])
    assert (w['sched_row_ns_per_pair_median'] <=
            w['sched_pair_ns_per_pair_median']), \
        '%s: scheduler rows %.2f ns/pair slower than pairs %.2f ns/pair' \
        % (w['name'], w['sched_row_ns_per_pair_median'],
           w['sched_pair_ns_per_pair_median'])
print('query perf gate: ' + ', '.join(
    '%s %.1fx (scheduler rows %.1fx)'
    % (w['name'], w['speedup'], w['sched_row_speedup']) for w in blocks))
EOF
  fi
  # Identity gate: batching on vs off must emit byte-identical RTL for
  # all 17 programs under paper_table2 and production.
  ./build/tests/hli/hli_tests \
    --gtest_filter=BatchQueryTest.RtlByteIdenticalBatchingOnAndOff
}

stage_service() {
  cmake -B build "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS" --target hlid hlic service_tests
  # In-process harness first (sockets, caches, faults, store sharing).
  ./build/tests/service/service_tests
  # Black-box sweep against a real out-of-process server: every workload
  # compiled cold AND warm through hlid must be byte-identical to a
  # direct hlic compile, and the warm pass must be served by the caches.
  local port_file=build/hlid.port
  rm -f "$port_file"
  ./build/tools/hlid --port=0 --port-file="$port_file" \
    2> build/hlid.stderr &
  local server_pid=$!
  # shellcheck disable=SC2064
  trap "kill $server_pid 2>/dev/null || true" EXIT
  for _ in $(seq 1 100); do [[ -s "$port_file" ]] && break; sleep 0.1; done
  [[ -s "$port_file" ]] || { echo "ci: hlid never wrote its port" >&2; exit 1; }
  local port connect workloads w
  port=$(cat "$port_file")
  connect="--connect=127.0.0.1:$port"
  ./build/tools/hlid --client "$connect" --ping
  workloads=$(./build/tools/hlic --list-workloads | awk '{print $1}')
  for w in $workloads; do
    # RTL byte-identity against a direct in-process hlic compile.
    ./build/tools/hlic --dump-rtl "$w" > "build/SVC_direct_$w.txt"
    ./build/tools/hlid --client "$connect" --dump-rtl "$w" \
      > "build/SVC_rtl_$w.txt"
    cmp "build/SVC_direct_$w.txt" "build/SVC_rtl_$w.txt"
    # Cold-vs-warm byte-identity on the full service surface (RTL +
    # canonical stats text; --stats flips the options fingerprint, so
    # the first of these two is itself a cold compile).
    ./build/tools/hlid --client "$connect" --dump-rtl --stats "$w" \
      > "build/SVC_cold_$w.txt"
    ./build/tools/hlid --client "$connect" --dump-rtl --stats "$w" \
      > "build/SVC_warm_$w.txt"
    cmp "build/SVC_cold_$w.txt" "build/SVC_warm_$w.txt"
  done
  # The warm half of the sweep must have hit the caches.
  ./build/tools/hlid --client "$connect" --server-stats \
    | tee build/SVC_stats.txt
  grep -Eq 'service\.cache_hits=[1-9]' build/SVC_stats.txt
  ./build/tools/hlid --client "$connect" --shutdown
  wait "$server_pid" || true
  trap - EXIT
  # Latency bench + the warm/cold ratio gate (in-process server).
  ./build/tools/hlid --bench --bench-out=build/BENCH_service.json
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
report = json.load(open('build/BENCH_service.json'))
assert report['service_cache_hits'] > 0, 'warm sweep never hit the cache'
assert report['warm_speedup'] >= 5.0, \
    'warm/cold ratio %.1fx below the 5x gate' % report['warm_speedup']
print('service gate: warm %.1fx faster than cold, p99 %dus, %d workloads'
      % (report['warm_speedup'], report['warm_p99_us'],
         len(report['per_workload'])))
EOF
  fi
}

stage_layering() {
  # Include-boundary lint: no file outside the front-end layer may
  # include a front-end header other than the thin-waist contract and
  # the testgen facades (docs/thin-waist.md).  Pure text scan; no build.
  bash scripts/check_layering.sh
}

stage_bench() {
  cmake -B build "${GENERATOR[@]}"
  cmake --build build -j "$JOBS" --target run_benches
  ls -l build/BENCH_*.json
}

want layering "${STAGES[@]}" && stage_layering
want tier1 "${STAGES[@]}" && stage_tier1
want release "${STAGES[@]}" && stage_release
want parexec "${STAGES[@]}" && stage_parexec
want fuzz  "${STAGES[@]}" && stage_fuzz
want asan  "${STAGES[@]}" && stage_asan
want tsan  "${STAGES[@]}" && stage_tsan
want tidy  "${STAGES[@]}" && stage_tidy
want stats "${STAGES[@]}" && stage_stats
want query_perf "${STAGES[@]}" && stage_query_perf
want service "${STAGES[@]}" && stage_service
want bench "${STAGES[@]}" && stage_bench
echo "ci: all requested stages passed"
