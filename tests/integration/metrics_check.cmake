# Aggregate-metrics round trip: run the CLI search in both precisions with
# --metrics / --metrics-prom, then validate both export formats against the
# schema (tools/check_metrics.py), requiring the entry points and the
# model-drift histograms to actually be populated. Registered under
# `ctest -L observability` for the default, avx2 and scalar dispatch
# suites; any non-zero exit fails the test.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (${rc}): ${out}${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

run(${GSKNN_CLI} generate --out ${WORK_DIR}/data.gsknn --d 16 --n 1500 --seed 7)

# f64 search: populates kernel_f64 and the f64 drift histogram.
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8
    --out ${WORK_DIR}/nn64.csv
    --metrics=${WORK_DIR}/m64.json --metrics-prom=${WORK_DIR}/m64.prom)

# f32 search (separate process, fresh registry): kernel_f32 + f32 drift.
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8 --f32
    --out ${WORK_DIR}/nn32.csv
    --metrics=${WORK_DIR}/m32.json --metrics-prom=${WORK_DIR}/m32.prom)

foreach(f m64.json m64.prom m32.json m32.prom)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "search --metrics did not write ${f}")
  endif()
endforeach()

run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/m64.json
    --prom ${WORK_DIR}/m64.prom
    --require-entry kernel_f64 --require-drift f64 --verbose)
message(STATUS "${last_output}")

run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/m32.json
    --prom ${WORK_DIR}/m32.prom
    --require-entry kernel_f32 --require-drift f32 --verbose)
message(STATUS "${last_output}")

# The batch scheduler records both the batch envelope and the per-task
# kernel samples (layered counting is part of the contract).
run(${GSKNN_CLI} batch --data ${WORK_DIR}/data.gsknn --k 8 --tasks 3
    --out ${WORK_DIR}/nnb.csv --metrics=${WORK_DIR}/mb.json)
run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/mb.json
    --require-entry batch --require-entry kernel_f64)
message(STATUS "${last_output}")

# Tree-solver leg: the rkd forest records its own rkd_forest sample through
# the entry bracket, and every leaf kernel records a kernel_f64 sample
# beneath it (the same layered counting as batch).
run(${GSKNN_CLI} allnn --data ${WORK_DIR}/data.gsknn --k 8 --trees 2
    --leaf 256 --out ${WORK_DIR}/ann.bin --metrics=${WORK_DIR}/ma.json)
run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/ma.json
    --require-entry rkd_forest --require-entry kernel_f64)
message(STATUS "${last_output}")

# Pack-cache leg: --repeat 2 reruns the search against the same PackedRefs
# handle, so the second pass is all warm traffic — the pack_hits counter
# must be nonzero in the export (axis completeness for the cache counters).
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8
    --pack-cache --repeat 2 --out ${WORK_DIR}/nnp.csv
    --metrics=${WORK_DIR}/mp.json --metrics-prom=${WORK_DIR}/mp.prom)
run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/mp.json
    --prom ${WORK_DIR}/mp.prom
    --require-counter pack_hits --require-counter pack_misses)
message(STATUS "${last_output}")

# Serving leg: an open-loop trace through the async runtime must populate
# both lane entry points and the queue/fusion counters — a burst at high
# offered rate guarantees at least one coalesced dispatch.
run(${GSKNN_CLI} serve-sim --queries 128 --rate 1000000 --n 2048
    --workers 1 --metrics=${WORK_DIR}/ms.json
    --metrics-prom=${WORK_DIR}/ms.prom)
run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/ms.json
    --prom ${WORK_DIR}/ms.prom
    --require-entry serve_interactive --require-entry serve_bulk
    --require-counter serve_enqueued --require-counter serve_fused_calls
    --require-counter serve_fused_queries)
message(STATUS "${last_output}")

# Overload-protection leg: --chaos drives a deliberately slow worker past
# the watchdog, trips the breaker, and sheds hopeless-budget submits via
# predictive admission — all three protection counters must reach the
# export (the CLI itself also asserts they fired).
run(${GSKNN_CLI} serve-sim --queries 64 --rate 1000000 --n 2048
    --workers 1 --chaos --metrics=${WORK_DIR}/mc.json
    --metrics-prom=${WORK_DIR}/mc.prom)
run(${PYTHON} ${CHECK_METRICS} --json ${WORK_DIR}/mc.json
    --prom ${WORK_DIR}/mc.prom
    --require-counter serve_shed_predictive
    --require-counter serve_watchdog_fires
    --require-counter serve_breaker_open)
message(STATUS "${last_output}")
