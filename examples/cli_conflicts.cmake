# pubs_sim_cli (BIN) with each setting its mode would drop: a sweep's
# (--jobs, --procs, --journal, PUBS_BENCH_CSV, PUBS_FAULT) on a single
# or sampled run, and one Simulator's under --check lockstep or --sample.
# Every combination must exit 2 with the usage and a complaint naming
# the setting, and leave its working directory (DIR) empty.
function(expect_refused mode flag)
    file(REMOVE_RECURSE ${DIR})
    file(MAKE_DIRECTORY ${DIR})
    execute_process(COMMAND ${BIN} ${ARGN} --insts 2000 --warmup 500
        WORKING_DIRECTORY ${DIR}
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    file(GLOB left ${DIR}/*)
    if(NOT status EQUAL 2 OR left OR NOT err MATCHES
            "^error: ${flag} does not apply to ${mode}\nusage: ")
        string(REPLACE ";" " " flags "${ARGN}")
        message(FATAL_ERROR "${flags}: exit ${status}, left [${left}]\n"
            "${out}\n${err}")
    endif()
endfunction()

expect_refused(--sample --report --sample 2 --report d.html)
expect_refused(--sample --pipeview --sample 2 --pipeview p.out)
expect_refused(--sample --progress --sample 2 --progress)
expect_refused(--sample --save-checkpoint --sample 2 --save-checkpoint s.ckpt)
expect_refused(--sample --skip
    --sample 2 --skip 5000 --save-checkpoint s.ckpt)
expect_refused(--sample --restore-checkpoint
    --sample 2 --restore-checkpoint /nonexistent.ckpt)
expect_refused("--check lockstep" --pipeview
    --check lockstep --pipeview p.out)
expect_refused("--check lockstep" --stats-json
    --check lockstep --stats-json s.json)
expect_refused("--check lockstep" --skip --check lockstep --skip 100)
expect_refused("--check lockstep" --save-checkpoint
    --check lockstep --save-checkpoint s.ckpt)
expect_refused("--check lockstep" --restore-checkpoint
    --check lockstep --restore-checkpoint /nonexistent.ckpt)
expect_refused(--sample --branch-profile --sample 2 --branch-profile)
expect_refused(--sample --telemetry --sample 2 --telemetry)
# Each of the sweep's settings, on a run in MODE given the flags ARGN.
function(expect_sweep_settings_refused mode)
    expect_refused(${mode} --jobs ${ARGN} --jobs 3)
    expect_refused(${mode} --procs ${ARGN} --procs 2)
    expect_refused(${mode} --journal ${ARGN} --journal j.jnl)
    expect_refused(${mode} --journal ${ARGN} --journal j.jnl --resume)
    set(ENV{PUBS_BENCH_CSV} .)
    expect_refused(${mode} PUBS_BENCH_CSV ${ARGN})
    unset(ENV{PUBS_BENCH_CSV})
    set(ENV{PUBS_FAULT} crash:0.5)
    expect_refused(${mode} PUBS_FAULT ${ARGN})
    unset(ENV{PUBS_FAULT})
endfunction()
expect_sweep_settings_refused("a single run")
expect_sweep_settings_refused(--sample --sample 2)
file(REMOVE_RECURSE ${DIR})
