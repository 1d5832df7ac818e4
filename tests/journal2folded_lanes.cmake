# Fixture test for tools/journal2folded.py: fold a committed journal of a
# four-lane simulation stage whose dd.gc pauses (80 ms in total) exceed the
# stage's wall interval (60 ms, ts 1000..61000). Child time must be taken
# per lane, so the stage keeps a self-time frame and the stage's frames sum
# to its wall time. Driven from tests/CMakeLists.txt (test name
# tools.journal2folded_lanes).

execute_process(
  COMMAND ${PYTHON3} ${FOLD_SCRIPT} ${JOURNAL}
  RESULT_VARIABLE rc OUTPUT_VARIABLE folded ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journal2folded failed (${rc}): ${err}")
endif()

set(stage_sum 0)
foreach(frame "flow;simulation" "flow;simulation;dd.gc"
              "flow;simulation;sim.stimulus")
  if(NOT folded MATCHES "(^|\n)${frame} ([0-9]+)\n")
    message(FATAL_ERROR "missing frame '${frame}' in folded output:\n${folded}")
  endif()
  math(EXPR stage_sum "${stage_sum} + ${CMAKE_MATCH_2}")
endforeach()

# each frame is rounded to whole microseconds on its own
if(stage_sum LESS 59998 OR stage_sum GREATER 60002)
  message(FATAL_ERROR
          "simulation frames sum to ${stage_sum} us, not the stage's 60000 us "
          "wall time:\n${folded}")
endif()
