# Golden-record check of BENCH_pool.json: reruns bench_pool_stats with the
# `post-seeding` label and requires every field of every committed
# `post-seeding` record to equal the fresh run's, except the two wall-clock
# fields (running_time_per_order_us, us_per_op). A change that moves a
# counter regenerates the records (`--target bench_pool_json`) on purpose.
#
#   cmake -DBENCH=<bench_pool_stats> -DRECORD=<BENCH_pool.json>
#         -DOUT=<json to write> -P check_pool_record.cmake
foreach(var BENCH RECORD OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_pool_record: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" --label post-seeding --json "${OUT}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${RECORD}" committed)
file(READ "${OUT}" fresh)

# Indices of the committed post-seeding records; the fresh run writes the
# same records in the same order.
set(indices "")
string(JSON count LENGTH "${committed}")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON label GET "${committed}" ${i} label)
  if(label STREQUAL "post-seeding")
    list(APPEND indices ${i})
  endif()
endforeach()
list(LENGTH indices expected_count)
string(JSON fresh_count LENGTH "${fresh}")
if(expected_count EQUAL 0 OR NOT fresh_count EQUAL expected_count)
  message(FATAL_ERROR "${RECORD} holds ${expected_count} post-seeding "
                      "records; the fresh run wrote ${fresh_count}")
endif()

set(k 0)
set(compared 0)
set(mismatches 0)
foreach(i IN LISTS indices)
  string(JSON case GET "${committed}" ${i} case)
  string(JSON fields LENGTH "${committed}" ${i})
  string(JSON fresh_fields LENGTH "${fresh}" ${k})
  if(NOT fresh_fields EQUAL fields)
    message(SEND_ERROR "${case}: ${fields} committed fields, "
                       "${fresh_fields} fresh")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
  math(EXPR last_field "${fields} - 1")
  foreach(f RANGE ${last_field})
    string(JSON name MEMBER "${committed}" ${i} ${f})
    if(name STREQUAL "running_time_per_order_us" OR name STREQUAL "us_per_op")
      continue()
    endif()
    string(JSON want GET "${committed}" ${i} ${name})
    string(JSON got ERROR_VARIABLE missing GET "${fresh}" ${k} ${name})
    math(EXPR compared "${compared} + 1")
    if(missing OR NOT got STREQUAL want)
      message(SEND_ERROR "${case} ${name}: committed ${want}, fresh ${got}")
      math(EXPR mismatches "${mismatches} + 1")
    endif()
  endforeach()
  math(EXPR k "${k} + 1")
endforeach()

if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} mismatches against ${RECORD}")
endif()
message(STATUS "${compared} fields of ${expected_count} post-seeding "
               "records match ${RECORD}")
