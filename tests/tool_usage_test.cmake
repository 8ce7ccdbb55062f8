# Runs each tsp-run command with one bad argument: every one must exit
# 2 and name the flag or positional argument it rejects, and the value
# where there is one. Each command fails while its command line is
# parsed, so none starts a thread or a simulation or touches a file.
#
#   cmake -DTSP_RUN=<tsp-run> -P tool_usage_test.cmake

set(failures 0)

# expect_usage_error(<message> <command...>): <command> exits 2 and its
# stderr matches the regex <message>.
function(expect_usage_error message)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE code
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 60)
    string(REPLACE ";" " " command "${ARGN}")
    if(NOT code STREQUAL "2")
        message(SEND_ERROR "${command}: exit ${code}, expected 2: ${err}")
    elseif(NOT err MATCHES "${message}")
        message(SEND_ERROR "${command}: no '${message}' in: ${err}")
    else()
        message(STATUS "${command}: exit 2, ${err}")
        return()
    endif()
    math(EXPR failed "${failures} + 1")
    set(failures ${failed} PARENT_SCOPE)
endfunction()

expect_usage_error("--port: value 0 " ${TSP_RUN} client --port 0)
expect_usage_error("--alg: unknown algorithm: NOPE"
    ${TSP_RUN} client --alg NOPE --port 1)
expect_usage_error("--deadline: invalid numeric value '-5'"
    ${TSP_RUN} client --port 1 --deadline -5)
expect_usage_error("--port is required" ${TSP_RUN} client)
expect_usage_error("--workers: value 0 " ${TSP_RUN} serve --workers 0)
expect_usage_error("--workers: value '1025' "
    ${TSP_RUN} serve --workers 1025)
expect_usage_error("--clients: value '1025' "
    ${TSP_RUN} serve --clients 1025)
expect_usage_error("--scale: value 3 is not a power of two"
    ${TSP_RUN} serve --scale 3)
expect_usage_error("--app: unknown application: Bogus"
    ${TSP_RUN} sample --app Bogus)
expect_usage_error("<app>: unknown application: Bogus"
    ${TSP_RUN} sweep Bogus)
expect_usage_error("--deadline: invalid numeric value 'x'"
    ${TSP_RUN} sweep Water --deadline x)
expect_usage_error("--jobs: value '1025' "
    ${TSP_RUN} hierarchy Water --jobs 1025)
expect_usage_error("--fault: fault spec 'bogus' "
    ${TSP_RUN} sweep Water --fault bogus)
expect_usage_error("--bogus: unknown flag" ${TSP_RUN} sweep Water --bogus)
expect_usage_error("<algorithm>: unknown algorithm: BOGUS"
    ${TSP_RUN} Water BOGUS 4)
expect_usage_error("<processors>: value 0 " ${TSP_RUN} Water LOAD-BAL 0)

# trace: the positionals parse before any file is read or written.
expect_usage_error("<app>: unknown application: Bogus"
    ${TSP_RUN} trace gen Bogus x.tspt)
expect_usage_error("<scale>: value 3 is not a power of two"
    ${TSP_RUN} trace gen Water x.tspt 3)
expect_usage_error("<thread>: invalid numeric value 'nope'"
    ${TSP_RUN} trace dump x.tspt nope)
expect_usage_error("trace <command>: unknown command: bogus"
    ${TSP_RUN} trace bogus)

# Each retry flag names one meaning (serve --shed-*, client
# --reconnect*): --retry-budget and --retry-backoff are neither.
expect_usage_error("--retry-budget: unknown flag"
    ${TSP_RUN} serve --retry-budget 1)
expect_usage_error("--retry-backoff: unknown flag"
    ${TSP_RUN} serve --retry-backoff 1)
expect_usage_error("--retry-budget: unknown flag"
    ${TSP_RUN} client --port 1 --retry-budget 1)
expect_usage_error("--retry-backoff: unknown flag"
    ${TSP_RUN} client --port 1 --retry-backoff 1)

if(failures)
    message(FATAL_ERROR "${failures} tsp-run commands broke the usage rule")
endif()
