# Golden-record check: reruns a bench binary with `--json` and requires each
# fresh record to equal the committed record with the same key fields, on
# every field but the six that VisitExactFields (src/core/metrics.h) leaves
# out (the three oracle counts and three wall-clock timings) and the
# micro-bench timing us_per_op. Values compare as CMake's JSON parser
# renders them, 17 significant digits for a double, so a record written in
# shortest round-trip form pins every bit. A change that moves one of these
# fields regenerates the record on purpose (docs/PERFORMANCE.md names each
# record's CMake target).
#
#   cmake -DBENCH=<bench binary> [-DARGS=<arg|arg|...>] [-DFAULTS=<spec>]
#         -DRECORD=<committed JSON array> -DOUT=<JSON to write>
#         -DKEYS=<field|field|...> -DROWS=<records the run must write>
#         [-DLARGE=1] -P check_golden_record.cmake
#
# ARGS separates the bench arguments with '|'. FAULTS is appended as
# `--faults SPEC`, its ';' escaped so that the spec stays one argument.
# The committed file may hold more records than the run writes (a quick
# run checks its subset of a full sweep); a key field a record lacks counts
# as empty. LARGE=1 skips the check unless WATTER_RUN_LARGE is set, the gate
# of the `large` ctest label.
cmake_minimum_required(VERSION 3.20)
foreach(var BENCH RECORD OUT KEYS ROWS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden_record: -D${var}=... is required")
  endif()
endforeach()
if(LARGE AND NOT DEFINED ENV{WATTER_RUN_LARGE})
  message(STATUS "skipped: WATTER_RUN_LARGE is not set")
  return()
endif()

string(REPLACE "|" ";" args "${ARGS}")
if(DEFINED FAULTS)
  string(REPLACE ";" "\\;" spec "${FAULTS}")  # One list element.
  list(APPEND args --faults "${spec}")
endif()
execute_process(COMMAND "${BENCH}" ${args} --json "${OUT}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${RECORD}" committed)
file(READ "${OUT}" fresh)
string(REPLACE "|" ";" keys "${KEYS}")
set(skipped oracle_queries oracle_batches oracle_batch_points
    bucket_build_seconds algorithm_seconds running_time_per_order_us
    us_per_op)

# The key of the JSON object `record`, in `out`, and a digest of it that
# can name a variable, in `out_id`.
function(record_key record out out_id)
  set(key "")
  foreach(field IN LISTS keys)
    string(JSON value ERROR_VARIABLE missing GET "${record}" ${field})
    if(missing)
      set(value "")
    endif()
    string(APPEND key "[${field}=${value}]")
  endforeach()
  string(MD5 id "${key}")
  set(${out} "${key}" PARENT_SCOPE)
  set(${out_id} "${id}" PARENT_SCOPE)
endfunction()

string(JSON count LENGTH "${committed}")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON record GET "${committed}" ${i})
  record_key("${record}" key id)
  if(DEFINED committed_${id})
    message(FATAL_ERROR "${RECORD} holds two records keyed ${key}")
  endif()
  set(committed_${id} ${i})
endforeach()

string(JSON fresh_count LENGTH "${fresh}")
if(NOT fresh_count EQUAL ROWS)
  message(FATAL_ERROR "the fresh run wrote ${fresh_count} records, "
                      "expected ${ROWS}")
endif()

set(compared 0)
set(mismatches 0)
math(EXPR last "${fresh_count} - 1")
foreach(k RANGE ${last})
  string(JSON got_record GET "${fresh}" ${k})
  record_key("${got_record}" key id)
  if(NOT DEFINED committed_${id})
    message(FATAL_ERROR "${RECORD} holds no record keyed ${key}")
  endif()
  if(DEFINED fresh_${id})
    message(FATAL_ERROR "the fresh run wrote two records keyed ${key}")
  endif()
  set(fresh_${id} ${k})
  string(JSON want_record GET "${committed}" ${committed_${id}})
  string(JSON fields LENGTH "${want_record}")
  string(JSON fresh_fields LENGTH "${got_record}")
  if(NOT fresh_fields EQUAL fields)
    message(SEND_ERROR "${key}: ${fields} committed fields, "
                       "${fresh_fields} fresh")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
  math(EXPR last_field "${fields} - 1")
  foreach(f RANGE ${last_field})
    string(JSON name MEMBER "${want_record}" ${f})
    if(name IN_LIST skipped)
      continue()
    endif()
    string(JSON want GET "${want_record}" ${name})
    string(JSON got ERROR_VARIABLE missing GET "${got_record}" ${name})
    math(EXPR compared "${compared} + 1")
    if(missing OR NOT got STREQUAL want)
      message(SEND_ERROR "${key} ${name}: committed ${want}, fresh ${got}")
      math(EXPR mismatches "${mismatches} + 1")
    endif()
  endforeach()
endforeach()

if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} mismatches against ${RECORD}")
endif()
message(STATUS "${compared} fields of ${fresh_count} records match ${RECORD}")
