#!/bin/sh
# Sanitizer leg for CI: build with -DPFM_SANITIZE=ON (ASan + UBSan) and
# run the daemon/concurrency and checkpoint tests under it. The daemon is
# the one part of the codebase with real thread/descriptor lifetime
# hazards — descriptor leaks on checkpoint error paths, double-fclose,
# worker threads outliving stop(). The checkpoint suites (ctest label
# ckptstore: checkpoint round-trips, corruption deaths and the golden
# fixture, plus the store's own tests) drive every reader path, and all
# of them go through the manifest parser, the LZ codec and the blob
# loader: raw byte-twiddling over attacker-shaped (corrupt) input,
# exactly what the instrumented build catches and the plain build
# cannot. The PMP suite rides along: its rotate/merge bit
# arithmetic and the reference-model lockstep are cheap and exactly the
# code UBSan pays off on (shift widths, popcount-driven indexing). The
# trace-frontend suite joins for the same reason: block (de)compression,
# CRC framing, and record decoding over deliberately corrupted trace
# files are untrusted-input byte-twiddling.
#
# Usage: scripts/ci_sanitize.sh [build-dir]   (default: build-sanitize)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

cmake -B "$BUILD_DIR" -S . -DPFM_SANITIZE=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target pfm_daemon_tests \
    pfm_ckpt_store_tests pfm_pmp_tests pfm_trace_tests pfm_daemon \
    pfm_client
(cd "$BUILD_DIR" && ctest -L 'daemon|ckptstore|pmp|trace' --output-on-failure -j2)
