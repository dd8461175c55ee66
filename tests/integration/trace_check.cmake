# Observability round trip: run the CLI with --profile --trace on a tiny
# problem, then validate the trace against the Chrome trace_event schema
# (tools/check_trace.py) and render the profile through the roofline
# reporter (tools/roofline_report.py). Registered under `ctest -L
# observability`; any non-zero exit fails the test.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (${rc}): ${out}${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

run(${GSKNN_CLI} generate --out ${WORK_DIR}/data.gsknn --d 16 --n 1200 --seed 3)
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8
    --out ${WORK_DIR}/nn.csv
    --profile=${WORK_DIR}/prof.json --trace=${WORK_DIR}/trace.json)

foreach(f prof.json trace.json)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "search --profile --trace did not write ${f}")
  endif()
endforeach()

# Schema-validate the trace. The tiny problem still produces at least one
# pack_r + pack_q + micro span per cache block, so require a handful.
run(${PYTHON} ${CHECK_TRACE} ${WORK_DIR}/trace.json --min-spans 3 --verbose)
message(STATUS "${last_output}")

# The roofline reporter must parse the profile and degrade gracefully when
# the host has no PMU access (no --strict: efficiency flags are advisory
# here — this test gates the plumbing, not the machine's speed).
run(${PYTHON} ${ROOFLINE} ${WORK_DIR}/prof.json --threshold 0.5)
message(STATUS "${last_output}")

# The row selection after each panel records one span per team thread:
# Var#5 at two threads must record select spans.
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8 --variant 5
    --threads 2 --out ${WORK_DIR}/nn5.csv --trace=${WORK_DIR}/trace5.json)
run(${PYTHON} ${CHECK_TRACE} ${WORK_DIR}/trace5.json --require-phase select
    --require-phase micro --verbose)
message(STATUS "${last_output}")

# A second run into the same sink paths must overwrite, not append (the
# trace stays parseable after reuse of the output file).
run(${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn --k 8
    --out ${WORK_DIR}/nn.csv
    --trace=${WORK_DIR}/trace.json)
run(${PYTHON} ${CHECK_TRACE} ${WORK_DIR}/trace.json --min-spans 3)
