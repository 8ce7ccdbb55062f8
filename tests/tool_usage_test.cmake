# Runs each tool with one bad value: every one must exit 2 and name
# the flag or positional argument it rejects. Each command fails while
# its command line is parsed, so none starts a thread or a simulation.
#
#   cmake -DTSP_RUN=<tsp-run> -DTSP_SERVE=<tsp-serve>
#         -DTSP_CLIENT=<tsp-client> -P tool_usage_test.cmake

set(failures 0)

# expect_usage_error(<name> <command...>): <command> exits 2 and its
# stderr names <name>.
function(expect_usage_error name)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE code
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 60)
    string(REPLACE ";" " " command "${ARGN}")
    if(NOT code STREQUAL "2")
        message(SEND_ERROR "${command}: exit ${code}, expected 2: ${err}")
    elseif(NOT err MATCHES "${name}")
        message(SEND_ERROR "${command}: the message names no ${name}: ${err}")
    else()
        message(STATUS "${command}: exit 2, ${err}")
        return()
    endif()
    math(EXPR failed "${failures} + 1")
    set(failures ${failed} PARENT_SCOPE)
endfunction()

expect_usage_error(--port ${TSP_CLIENT} --port 0)
expect_usage_error(--alg ${TSP_CLIENT} --alg NOPE --port 1)
expect_usage_error(--deadline ${TSP_CLIENT} --port 1 --deadline -5)
expect_usage_error(--workers ${TSP_SERVE} --workers 0)
expect_usage_error(--workers ${TSP_SERVE} --workers 1025)
expect_usage_error(--clients ${TSP_SERVE} --clients 1025)
expect_usage_error(--scale ${TSP_SERVE} --scale 3)
expect_usage_error(--app ${TSP_RUN} sample --app Bogus)
expect_usage_error(<app> ${TSP_RUN} sweep Bogus)
expect_usage_error(--deadline ${TSP_RUN} sweep Water --deadline x)
expect_usage_error(--jobs ${TSP_RUN} hierarchy Water --jobs 1025)
expect_usage_error(--fault ${TSP_RUN} sweep Water --fault bogus)
expect_usage_error(<algorithm> ${TSP_RUN} Water BOGUS 4)
expect_usage_error(<processors> ${TSP_RUN} Water LOAD-BAL 0)

if(failures)
    message(FATAL_ERROR "${failures} tool commands broke the usage rule")
endif()
