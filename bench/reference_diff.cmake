# Runs BIN with the flags ARGS in the directory DIR, emptied first, at
# 50K + 10K instructions per run (the budgets every reference under ci/
# was made at; VARS or BIN's flags may say otherwise) and with the
# environment settings NAME=VALUE in VARS. BIN must exit with STATUS
# (default 0). The other settings are optional; each one set adds a
# requirement:
#   MATCH    BIN's standard output, kept as DIR/out.txt, matches this
#            regular expression
#   REF      the output equals this file byte for byte (on a mismatch,
#            diff shows where)
#   TRAILER  the output's last line starts with this text and is left
#            out of that comparison
#   KILL     BIN first runs with killafter:KILL added to PUBS_FAULT and
#            must die by SIGKILL, leaving the file JOURNAL non-empty;
#            the run held to the rest is its --resume
#   RERUN    the flags of a second run in DIR, held to the same, which
#            must add no file to DIR
#   CHECK    a command that must exit 0 in DIR after the runs
set(ENV{PUBS_BENCH_INSTS} 50000)
set(ENV{PUBS_BENCH_WARMUP} 10000)
separate_arguments(settings UNIX_COMMAND "${VARS}")
foreach(setting ${settings})
    string(REGEX MATCH "^([^=]+)=(.*)" _ "${setting}")
    set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
endforeach()
if(NOT STATUS)
    set(STATUS 0)
endif()
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})

# Run BIN with the flags ARGN and hold it to STATUS, REF, TRAILER and
# MATCH.
function(run_and_compare)
    execute_process(COMMAND ${BIN} ${ARGN} WORKING_DIRECTORY ${DIR}
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    string(REPLACE ";" " " flags "${ARGN}")
    if(NOT status STREQUAL STATUS)
        message(FATAL_ERROR "${flags}: exit ${status}, want ${STATUS}\n"
            "${err}")
    endif()
    file(WRITE ${DIR}/out.txt "${out}")
    if(MATCH AND NOT out MATCHES "${MATCH}")
        message(FATAL_ERROR "${flags}: output does not match ${MATCH}\n"
            "${err}")
    endif()
    if(TRAILER)
        string(REGEX REPLACE "\n${TRAILER}[^\n]*\n$" "\n" out "${out}")
    endif()
    if(REF)
        file(READ ${REF} ref)
        if(NOT out STREQUAL ref)
            file(WRITE ${DIR}/compared.txt "${out}")
            execute_process(COMMAND diff ${REF} ${DIR}/compared.txt)
            message(FATAL_ERROR "${flags}: output differs from ${REF}")
        endif()
    endif()
endfunction()

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(KILL)
    set(plan $ENV{PUBS_FAULT})
    set(ENV{PUBS_FAULT} "${plan},killafter:${KILL}")
    # Through sh, which reports death by SIGKILL as 137; CMake reports
    # death by any signal as "Subprocess killed".
    execute_process(COMMAND sh -c "\"$@\"; exit $?" sh ${BIN} ${args}
        WORKING_DIRECTORY ${DIR} RESULT_VARIABLE status OUTPUT_QUIET
        ERROR_VARIABLE err)
    set(size 0)
    if(EXISTS ${DIR}/${JOURNAL})
        file(SIZE ${DIR}/${JOURNAL} size)
    endif()
    if(NOT status EQUAL 137 OR size EQUAL 0)
        message(FATAL_ERROR "killafter:${KILL}: exit ${status}, want 137 "
            "(SIGKILL); ${JOURNAL} holds ${size} bytes\n${err}")
    endif()
    set(ENV{PUBS_FAULT} "${plan}")
    list(APPEND args --resume)
endif()
run_and_compare(${args})
if(RERUN)
    file(GLOB_RECURSE before ${DIR}/*)
    separate_arguments(args UNIX_COMMAND "${RERUN}")
    run_and_compare(${args})
    file(GLOB_RECURSE after ${DIR}/*)
    if(NOT before STREQUAL after)
        message(FATAL_ERROR "${RERUN}: added files to ${DIR}")
    endif()
endif()
if(CHECK)
    separate_arguments(check UNIX_COMMAND "${CHECK}")
    execute_process(COMMAND ${check} WORKING_DIRECTORY ${DIR}
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${CHECK}: exit ${status}")
    endif()
endif()
