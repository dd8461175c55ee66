# End-to-end exercise of the gsknn CLI. Any non-zero exit or missing output
# fails the test.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
  execute_process(COMMAND ${GSKNN_CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gsknn ${ARGN} failed (${rc}): ${out}${err}")
  endif()
endfunction()

run(generate --out ${WORK_DIR}/data.gsknn --d 8 --n 500 --dist mixture --clusters 4 --seed 7)
run(info --data ${WORK_DIR}/data.gsknn)
run(search --data ${WORK_DIR}/data.gsknn --k 3 --out ${WORK_DIR}/nn.csv)
run(allnn --data ${WORK_DIR}/data.gsknn --k 3 --out ${WORK_DIR}/allnn.csv --trees 3 --leaf 64)
run(generate --out ${WORK_DIR}/data.csv --d 4 --n 100 --csv)
run(search --data ${WORK_DIR}/data.csv --k 2 --out ${WORK_DIR}/nn2.csv --norm cos)

foreach(f nn.csv allnn.csv nn2.csv)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "expected output ${f} missing")
  endif()
  file(STRINGS ${WORK_DIR}/${f} lines)
  list(LENGTH lines count)
  if(count LESS 2)
    message(FATAL_ERROR "${f} has no data rows")
  endif()
endforeach()

# --profile: a sizeable single-threaded search must produce a Table-5-style
# breakdown on stdout plus a parseable JSON profile whose attributed phases
# account for (nearly) the whole kernel wall time.
run(generate --out ${WORK_DIR}/prof_data.gsknn --d 32 --n 4000 --seed 11)
run(search --data ${WORK_DIR}/prof_data.gsknn --k 16 --out ${WORK_DIR}/prof_nn.csv
    --threads 1 --profile ${WORK_DIR}/prof.json)
if(NOT EXISTS ${WORK_DIR}/prof.json)
  message(FATAL_ERROR "search --profile did not write prof.json")
endif()
file(READ ${WORK_DIR}/prof.json profile_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  # string(JSON) both validates that the profile parses and extracts the
  # accounting fields. phase_total + other == wall holds by construction
  # (other is the clamped remainder), so the real check is the attributed
  # share: unattributed time must be under 10% of the wall.
  string(JSON algorithm GET "${profile_json}" algorithm)
  string(JSON wall GET "${profile_json}" wall_seconds)
  string(JSON phase_total GET "${profile_json}" phase_total)
  string(JSON other GET "${profile_json}" other_seconds)
  string(JSON micro GET "${profile_json}" phases micro)
  string(JSON invocations GET "${profile_json}" invocations)
  if(NOT algorithm STREQUAL "gsknn")
    message(FATAL_ERROR "profile algorithm is '${algorithm}', expected gsknn")
  endif()
  if(NOT invocations EQUAL 1)
    message(FATAL_ERROR "profile should record 1 invocation, got ${invocations}")
  endif()
  if(NOT wall GREATER 0 OR NOT micro GREATER 0)
    message(FATAL_ERROR "profile has empty timings: wall=${wall} micro=${micro}")
  endif()
  # CMake's if() compares numbers as doubles, but math() is integer-only —
  # get wall/10 by appending a decimal exponent instead of dividing. The wall
  # for this problem size is milliseconds-to-seconds, so %.9g printed it in
  # plain decimal form; guard on that so the suffix stays parseable.
  if(wall MATCHES "^[0-9]+\\.?[0-9]*$")
    if(other GREATER "${wall}e-1")
      message(FATAL_ERROR "profile attributes < 90% of wall: wall=${wall}s "
                          "phases=${phase_total}s other=${other}s")
    endif()
  endif()
  message(STATUS "profile ok: wall=${wall}s phases=${phase_total}s other=${other}s")

  # The work counters run whenever a profile is attached: every (query,
  # reference) pair is a candidate, and each one is a heap push or a root
  # reject.
  string(JSON m GET "${profile_json}" m)
  string(JSON n GET "${profile_json}" n)
  string(JSON candidates GET "${profile_json}" counters candidates_evaluated)
  string(JSON pushes GET "${profile_json}" counters heap_pushes)
  string(JSON rejects GET "${profile_json}" counters root_rejects)
  math(EXPR mn "${m} * ${n}")
  math(EXPR classified "${pushes} + ${rejects}")
  if(NOT candidates EQUAL mn OR NOT classified EQUAL candidates)
    message(FATAL_ERROR "profile counters inexact: m*n=${mn} "
                        "candidates=${candidates} pushes=${pushes} "
                        "rejects=${rejects}")
  endif()
  message(STATUS "counters ok: candidates=${candidates} pushes=${pushes} "
                 "rejects=${rejects}")
endif()

# allnn honors --threads: every leaf kernel of a --threads 1 run is one
# thread, and the profile's rate is the flops of all its leaf calls over
# their summed wall, not the last call's alone.
run(allnn --data ${WORK_DIR}/prof_data.gsknn --k 8 --out ${WORK_DIR}/allnn_prof.csv
    --trees 2 --leaf 256 --threads 1 --profile ${WORK_DIR}/allnn_prof.json)
file(READ ${WORK_DIR}/allnn_prof.json allnn_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON threads GET "${allnn_json}" threads)
  string(JSON invocations GET "${allnn_json}" invocations)
  string(JSON flops GET "${allnn_json}" flops)
  string(JSON m GET "${allnn_json}" m)
  string(JSON n GET "${allnn_json}" n)
  string(JSON d GET "${allnn_json}" d)
  if(NOT threads EQUAL 1)
    message(FATAL_ERROR "allnn --threads 1 profile reports threads=${threads}")
  endif()
  # flops sums (2d+3)·m·n over every leaf call, so with more than one call it
  # exceeds the last call's share.
  math(EXPR last_flops "(2 * ${d} + 3) * ${m} * ${n}")
  if(NOT invocations GREATER 1 OR NOT flops GREATER last_flops)
    message(FATAL_ERROR "allnn profile flops=${flops} over ${invocations} "
                        "calls should exceed the last call's ${last_flops}")
  endif()
  message(STATUS "allnn profile ok: threads=${threads} calls=${invocations} "
                 "flops=${flops}")
endif()

# Error paths must fail cleanly (non-zero, no crash).
execute_process(COMMAND ${GSKNN_CLI} search --data /nonexistent --k 3 --out ${WORK_DIR}/x.csv
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "search on missing file should fail")
endif()
execute_process(COMMAND ${GSKNN_CLI} bogus-subcommand
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand should fail")
endif()
# Only auto, 1 and 5 name a variant; the retired placements 2, 3 and 6 are
# usage errors (exit 1 naming the variant), never a silent search.
foreach(v 2 3 6)
  execute_process(COMMAND ${GSKNN_CLI} search --data ${WORK_DIR}/data.gsknn
                    --k 3 --variant ${v} --out ${WORK_DIR}/bad_variant.csv
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "unknown variant '${v}'")
    message(FATAL_ERROR "search --variant ${v} should be a usage error, "
                        "got exit ${rc}: ${err}")
  endif()
endforeach()
