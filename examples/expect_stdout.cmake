# Runs the program EXE and fails unless it exits 0 and its stdout equals the
# file EXPECTED byte for byte.  On a mismatch the actual stdout is left in
# ACTUAL for diffing.
#   cmake -DEXE=<program> -DEXPECTED=<file> -DACTUAL=<file> -P expect_stdout.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} differs from ${EXPECTED}; see ${ACTUAL}")
endif()
