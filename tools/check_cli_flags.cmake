# Each watter_cli subcommand exits 2 with a usage error on a flag it does not
# read instead of ignoring it: another subcommand's flag, or in generate a
# platform flag. A numeric flag does the same unless its whole value is a
# finite number: a whole one in range for counts and seeds, and not
# negative for --threads and --budget. Every case below stops while
# parsing, before any scenario is generated or file written.
#
#   cmake -DCLI=<watter_cli> -P check_cli_flags.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "check_cli_flags: -DCLI=... is required")
endif()

# Each case: the arguments, separated by '|', then after the last '=' the
# expected message.
set(cases
  "generate|--out|.|--metrics-json|m.json=generate does not read --metrics-json"
  "generate|--out|.|--dispatch|serial=generate does not read --dispatch"
  "train|--model|m.txt|--metrics-json|m.json=train does not read --metrics-json"
  "train|--model|m.txt|--dispatch|serial=train does not read --dispatch"
  "evaluate|--model|m.txt|--strategy|online=evaluate does not read --strategy"
  "evaluate|--model|m.txt|--out|.=evaluate does not read --out"
  "run|--model|m.txt=run does not read --model"
  "run|--out|.=run does not read --out"
  "generate|--strategy|online=generate does not read --strategy"
  "generate|--out|.|--threads|4=generate does not read --threads"
  "generate|--out|.|--faults|dropouts=2=generate does not read --faults"
  "generate|--out|.|--budget|5=generate does not read --budget"
  "generate|--out|.|--trace|t.json=generate does not read --trace"
  "generate|--out|.|--timeline|t.json=generate does not read --timeline"
  "run|--threads|abc=--threads: not a number: 'abc'"
  "run|--threads|-1=--threads must be at least 0, not -1"
  "run|--orders|60x=--orders: not a number: '60x'"
  "run|--orders|1e300=--orders: not an integer in range: '1e300'"
  "run|--workers|2.5=--workers: not an integer in range: '2.5'"
  "run|--budget|nope=--budget: not a number: 'nope'"
  "run|--budget|-7=--budget must be at least 0, not -7"
  "run|--tau|1.6abc=--tau: not a number: '1.6abc'"
  "run|--eta|nan=--eta: not a finite number: 'nan'"
  "run|--duration|2h=--duration: not a number: '2h'"
  "run|--seed|-1=--seed: not an integer in range: '-1'"
  "run|--city-seed|18446744073709551616=--city-seed: not an integer in range")
foreach(case IN LISTS cases)
  string(FIND "${case}" "=" split REVERSE)
  string(SUBSTRING "${case}" 0 ${split} args)
  math(EXPR start "${split} + 1")
  string(SUBSTRING "${case}" ${start} -1 expected)
  string(REPLACE "|" ";" args "${args}")
  execute_process(COMMAND "${CLI}" ${args}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "watter_cli ${args}: exit ${status}, expected 2")
  endif()
  string(FIND "${err}" "${expected}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "watter_cli ${args}: stderr lacks '${expected}':\n${err}")
  endif()
endforeach()
list(LENGTH cases count)
message(STATUS "${count} unread-flag and malformed-number cases exit 2 "
               "with a usage error")
