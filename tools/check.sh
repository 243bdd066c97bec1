#!/usr/bin/env bash
# Concurrency-correctness build & test matrix for the ConVGPU tree.
#
# Legs (each in its own build-* directory so they never poison each other):
#   1. gcc       — default toolchain, -Werror, full ctest suite, plus the
#                  smoke runs below
#   2. tidy      — clang-tidy over src/ (skipped loudly if not installed)
#   3. tsa       — Clang -Wthread-safety -Werror compile (skipped if no clang)
#   4. tsan      — -fsanitize=thread build + full ctest suite
#   5. asan      — -fsanitize=address,undefined build + full ctest suite
#   6. format    — clang-format --dry-run on tracked sources (skipped if absent)
#   7. pipelining — the link-concurrency suites only (ReplyRouter demux,
#                  caller-led reads, reordered replies, daemon-death fault
#                  paths, the 64x4 hammer, the reactor, the buffered
#                  client, the ledger page) under BOTH TSan and ASan; the
#                  fast loop for work on scheduler_link/protocol/ipc.
#                  Subset of legs 4+5.
#   8. reconnect — the daemon-restart suites (fault harness, reattach and
#                  replay paths, RestoreProcess reconciliation) under BOTH
#                  TSan and ASan; the fast loop for work on the reconnect
#                  state machine. Subset of legs 4+5.
#   9. codec     — the wire-encoding suites (codec property tests, binary/
#                  JSON interop with each frame answered in its own
#                  encoding, protocol round trips) under BOTH TSan and
#                  ASan; the fast loop for work on codec.cc and the
#                  handshake. Subset of legs 4+5.
#
# The gcc leg additionally runs as must-complete smoke:
#   - the codec microbenchmark, which enforces the zero-allocation
#     steady-state contracts for the encoders and for a whole reactor round
#     trip (exits nonzero on regression);
#   - the decode fuzzer, which replays its deterministic seed corpus;
#   - the virtual-time table harnesses fig7_finish_time, fig8_suspended_time,
#     ablation_multigpu and ablation_overhead (each exits nonzero when a
#     simulation fails);
#   - `cloud_sim 38 BF 7 --json`, whose output must parse as JSON.
#
# Clang legs are advisory on machines without clang; set CONVGPU_REQUIRE_CLANG=1
# to turn those skips into failures (CI with clang installed should do this).
#
# Usage: tools/check.sh [leg...]   e.g. `tools/check.sh tsan asan`
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CONVGPU_JOBS:-$(nproc 2>/dev/null || echo 2)}"
REQUIRE_CLANG="${CONVGPU_REQUIRE_CLANG:-0}"

PASS=()
FAIL=()
SKIP=()

note() { printf '\n==== %s ====\n' "$*"; }

skip_leg() {  # name reason
  if [ "${REQUIRE_CLANG}" = "1" ]; then
    echo "FAIL(required): $1 — $2"
    FAIL+=("$1")
  else
    echo "SKIP: $1 — $2"
    SKIP+=("$1")
  fi
}

run_leg() {  # name: run "$@" and record the result
  local name="$1"; shift
  if "$@"; then
    PASS+=("${name}")
  else
    FAIL+=("${name}")
  fi
}

build_and_test() {  # dir cmake-extra-args...
  local dir="$1"; shift
  cmake -B "${ROOT}/${dir}" -S "${ROOT}" "$@" &&
    cmake --build "${ROOT}/${dir}" -j "${JOBS}" &&
    ctest --test-dir "${ROOT}/${dir}" --output-on-failure -j "${JOBS}"
}

leg_gcc() {
  note "leg: gcc (default toolchain, -Werror, full suite + smoke runs)"
  run_leg gcc gcc_impl
}

gcc_impl() {
  local bench="${ROOT}/build-gcc/bench"
  build_and_test build-gcc -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    "${bench}/codec_microbench" --benchmark_min_time=0.05 &&
    "${ROOT}/build-gcc/tools/fuzz_decode" &&
    "${bench}/fig7_finish_time" >/dev/null &&
    "${bench}/fig8_suspended_time" >/dev/null &&
    "${bench}/ablation_multigpu" >/dev/null &&
    "${bench}/ablation_overhead" >/dev/null &&
    "${ROOT}/build-gcc/examples/cloud_sim" 38 BF 7 --json |
      python3 -c 'import json,sys; json.load(sys.stdin)'
}

leg_tidy() {
  note "leg: clang-tidy"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip_leg tidy "clang-tidy not installed"
    return
  fi
  run_leg tidy tidy_impl
}

tidy_impl() {
  cmake -B "${ROOT}/build-tidy" -S "${ROOT}" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || return 1
  local sources
  sources=$(find "${ROOT}/src" -name '*.cc') || return 1
  # shellcheck disable=SC2086
  clang-tidy -p "${ROOT}/build-tidy" --quiet ${sources}
}

leg_tsa() {
  note "leg: Clang thread-safety analysis (-Wthread-safety -Werror)"
  if ! command -v clang++ >/dev/null 2>&1; then
    skip_leg tsa "clang++ not installed (annotations compile to no-ops under GCC)"
    return
  fi
  run_leg tsa build_and_test build-tsa \
          -DCMAKE_CXX_COMPILER=clang++ -DCONVGPU_THREAD_SAFETY=ON
}

leg_tsan() {
  note "leg: ThreadSanitizer (full suite, suppressions=tools/tsan.supp)"
  run_leg tsan tsan_impl
}

tsan_impl() {
  cmake -B "${ROOT}/build-tsan" -S "${ROOT}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCONVGPU_SANITIZE=thread &&
    cmake --build "${ROOT}/build-tsan" -j "${JOBS}" &&
    TSAN_OPTIONS="suppressions=${ROOT}/tools/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}"
}

leg_asan() {
  note "leg: AddressSanitizer + UBSan (full suite)"
  run_leg asan asan_impl
}

asan_impl() {
  cmake -B "${ROOT}/build-asan" -S "${ROOT}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCONVGPU_SANITIZE=address,undefined &&
    cmake --build "${ROOT}/build-asan" -j "${JOBS}" &&
    ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
      ctest --test-dir "${ROOT}/build-asan" --output-on-failure -j "${JOBS}"
}

# The filtered legs below rebuild the tsan/asan trees and run one subset of
# the suite there. Each first checks that its filter still selects a test:
# after a test is deleted or renamed, a filter that matches nothing would
# otherwise pass having run nothing.
require_tests() {  # build-dir filter
  local count
  count=$(ctest --test-dir "$1" -N -R "$2" | sed -n 's/^Total Tests: //p')
  if [ "${count:-0}" -eq 0 ]; then
    echo "FAIL: filter '$2' selects no test in $1"
    return 1
  fi
}

tsan_subset() {  # filter
  cmake -B "${ROOT}/build-tsan" -S "${ROOT}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCONVGPU_SANITIZE=thread &&
    cmake --build "${ROOT}/build-tsan" -j "${JOBS}" &&
    require_tests "${ROOT}/build-tsan" "$1" &&
    TSAN_OPTIONS="suppressions=${ROOT}/tools/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}" \
            -R "$1"
}

asan_subset() {  # filter
  cmake -B "${ROOT}/build-asan" -S "${ROOT}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCONVGPU_SANITIZE=address,undefined &&
    cmake --build "${ROOT}/build-asan" -j "${JOBS}" &&
    require_tests "${ROOT}/build-asan" "$1" &&
    ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
      ctest --test-dir "${ROOT}/build-asan" --output-on-failure -j "${JOBS}" \
            -R "$1"
}

# MessageServer/MessageClient cover the reactor and the buffered client the
# link's callers read through; SchedulerServerStart the daemon's readiness;
# LedgerPage the page's seqlock, read by callers while the daemon writes it.
PIPELINING_FILTER='ReplyRouter|SchedulerLinkPipelining|PipelinedLink|ProtocolTest|FailureInjection|Hammer|MessageServer|MessageClient|SchedulerServerStart|LedgerPage'

leg_pipelining() {
  note "leg: pipelining concurrency suites under TSan + ASan"
  run_leg pipelining-tsan tsan_subset "${PIPELINING_FILTER}"
  run_leg pipelining-asan asan_subset "${PIPELINING_FILTER}"
}

# Also matches SchedulerLinkPipeliningTest.ReconnectGetsAFreshIdSpace, which
# belongs in the reconnect fast loop anyway. LedgerPage: a reattach swaps
# the page a link reads.
RECONNECT_FILTER='Reconnect|RestoreProcess|LedgerPage'

leg_reconnect() {
  note "leg: daemon-restart suites under TSan + ASan"
  run_leg reconnect-tsan tsan_subset "${RECONNECT_FILTER}"
  run_leg reconnect-asan asan_subset "${RECONNECT_FILTER}"
}

# CodecTest/CodecPropertyTest (codec.cc), WireInterop (each frame answered
# in its own encoding, on container and main sockets alike), plus the
# protocol round-trip suites both encodings must agree with.
CODEC_FILTER='Codec|WireInterop|Protocol'

leg_codec() {
  note "leg: wire-encoding suites under TSan + ASan"
  run_leg codec-tsan tsan_subset "${CODEC_FILTER}"
  run_leg codec-asan asan_subset "${CODEC_FILTER}"
}

leg_format() {
  note "leg: clang-format (dry run, tracked sources)"
  if ! command -v clang-format >/dev/null 2>&1; then
    skip_leg format "clang-format not installed"
    return
  fi
  run_leg format format_impl
}

format_impl() {
  git -C "${ROOT}" ls-files '*.cc' '*.h' '*.cpp' |
    (cd "${ROOT}" && xargs clang-format --dry-run -Werror)
}

LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
  LEGS=(gcc tidy tsa tsan asan format)
fi

for leg in "${LEGS[@]}"; do
  case "${leg}" in
    gcc) leg_gcc ;;
    tidy) leg_tidy ;;
    tsa) leg_tsa ;;
    tsan) leg_tsan ;;
    asan) leg_asan ;;
    pipelining) leg_pipelining ;;
    reconnect) leg_reconnect ;;
    codec) leg_codec ;;
    format) leg_format ;;
    *) echo "unknown leg: ${leg}"; FAIL+=("${leg}") ;;
  esac
done

note "summary"
[ ${#PASS[@]} -gt 0 ] && echo "passed:  ${PASS[*]}"
[ ${#SKIP[@]} -gt 0 ] && echo "skipped: ${SKIP[*]}"
if [ ${#FAIL[@]} -gt 0 ]; then
  echo "FAILED:  ${FAIL[*]}"
  exit 1
fi
echo "all run legs passed"
