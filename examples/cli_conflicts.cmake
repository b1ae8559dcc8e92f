# pubs_sim_cli (BIN) with each flag that --check lockstep or --sample
# would drop. Every combination must exit 2 with the usage and a
# complaint naming the flag, and leave its working directory (DIR)
# empty.
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
file(REMOVE_RECURSE ${DIR})
