#!/usr/bin/env bash
# Run the simulation-core test suites under AddressSanitizer +
# UndefinedBehaviorSanitizer, and the sharded-pipeline suite under
# ThreadSanitizer.
#
# The zero-allocation core trades owned buffers for shared ones: pooled
# PayloadRef slabs are refcounted across in-flight events, taps, and the
# receiving handler; CaptureStore hashes inbound payloads in place through
# borrowed batch spans, and the scanner's R2 callback borrows the delivery
# buffer for the duration of the call; InlineAction relocates closures inside
# a fixed buffer during heap sifts. A lifetime or aliasing mistake in any of
# those would corrupt memory rather than fail a value assertion, and a
# missed happens-before edge between shard loops would corrupt the merge —
# this preset makes both loud. The batched send path (Network::send_batch
# building bytes on demand and scheduling one delivery event per surviving
# datagram, handlers that unbind themselves mid-batch) rides along via
# test_net / test_pipeline, RRL via test_rrl, and the stream transport (pooled connection slots, segment queues reusing the same
# PayloadRef slabs, reassembly across capacity classes) via test_stream plus
# the DoTCP-retry suites in test_prober / test_alloc_budget. Resolver hosts
# are built just in time and destroyed once quiescent; test_lifecycle runs
# that retirement against hosts with work left (delayed responses, open
# resolutions, forwarded ports, the ports a 2% loss leaks) and a 2% loss
# campaign on one and three shards, so a callback that outlives its host is a
# use-after-free this preset reports. Usage:
#
#   scripts/sanitize_net_tests.sh          # configure, build, run both
#   BUILD_DIR=build-asan TSAN_BUILD_DIR=build-tsan scripts/sanitize_net_tests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-sanitize}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
TESTS=(test_net test_stream test_prober test_pipeline test_alloc_budget test_obs test_rrl
       test_lifecycle)

status=0

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DORP_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TESTS[@]}"

for t in "${TESTS[@]}"; do
  echo "==== $t (asan+ubsan) ===="
  "$BUILD_DIR/tests/$t" || status=1
done

# TSan is incompatible with ASan, so the cross-thread checks (S shard loops
# running concurrently, merged on the coordinator; obs beacons published by
# shards while the progress reporter thread reads them) need their own tree.
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DORP_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j"$(nproc)" --target test_pipeline test_obs

# PipelineSharding.* includes TcpFallbackSweepIsPinned, so the stream
# transport runs under TSan with DoTCP fallback engaged across the
# thread-count sweep, not just in single-threaded unit tests.
echo "==== test_pipeline PipelineSharding.* (tsan) ===="
"$TSAN_BUILD_DIR/tests/test_pipeline" --gtest_filter='PipelineSharding.*' ||
  status=1

echo "==== test_obs ObsPipeline.* (tsan) ===="
"$TSAN_BUILD_DIR/tests/test_obs" --gtest_filter='ObsPipeline.*' || status=1

exit $status
