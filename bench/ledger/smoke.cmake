# ledger_smoke: one round of every workload, then two traced runs of
# check-nonequivalent whose deterministic counters must not drift
# (`qsimec bench-diff` exits non-zero on any counter or verdict change).
#
#   cmake -DLEDGER=path/to/ledger -DQSIMEC=path/to/qsimec -DWORK=dir -P smoke.cmake

function(run_ledger)
  execute_process(COMMAND ${LEDGER} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 2 AND err MATCHES "assertions or sanitizers")
    # an unfit build (Debug, sanitizers) has nothing worth timing
    message(STATUS "ledger_smoke skipped: ${err}")
    set(skipped TRUE PARENT_SCOPE)
  elseif(NOT rc EQUAL 0)
    message(FATAL_ERROR "ledger ${ARGN} exited with ${rc}: ${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
foreach(workload check-equivalent check-nonequivalent batch-cold daemon-warm)
  run_ledger(--workload ${workload} --seconds 0 --dir ${WORK}/${workload})
  if(skipped)
    return()
  endif()
endforeach()

foreach(run a b)
  run_ledger(--workload check-nonequivalent --seconds 0 --traced
             --json-out ${WORK}/traced-${run}.json --dir ${WORK}/traced)
endforeach()
execute_process(COMMAND ${QSIMEC} bench-diff ${WORK}/traced-a.json
                        ${WORK}/traced-b.json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "counters drifted between two traced runs")
endif()
