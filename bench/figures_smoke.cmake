# bench_figures (BIN) at budgets so small that caches stay cold and no
# program is compute-intensive (Fig. 9's compute set is empty) and, with
# FAULT, under that PUBS_FAULT plan with one retry per run. It must exit
# 0 having printed every table and figure.
set(ENV{PUBS_BENCH_INSTS} 3000)
set(ENV{PUBS_BENCH_WARMUP} 500)
set(args --jobs 2)
if(FAULT)
    set(ENV{PUBS_FAULT} ${FAULT})
    set(ENV{PUBS_PROC_RETRIES} 1)
    set(ENV{PUBS_PROC_BACKOFF_MS} 1)
    set(args --procs 2)
endif()
execute_process(COMMAND ${BIN} ${args}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0 OR NOT out MATCHES
        "TABLE I:.*TABLE II:.*cost sensitivity.*FIGURE 8:.*FIGURE 9:.*FIGURE 10:.*FIGURE 11:.*FIGURE 12:.*FIGURE 13:.*FIGURE 15.*TABLE IV:.*FIGURE 16:.*ABLATION: table tagging.*ABLATION: Section III-C")
    message(FATAL_ERROR "exit ${status}\n${out}\n${err}")
endif()
