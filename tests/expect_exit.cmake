# Runs one command and fails unless it exits with EXIT and its output
# (stdout and stderr together) matches MATCH and, when given, does not
# match NOT_MATCH. ARGS is one space-separated string.
#
#   cmake -DPROG=<binary> "-DARGS=--trails 3" -DEXIT=2
#         "-DMATCH=unknown option --trails" [-DNOT_MATCH=<regex>] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "${PROG} ${ARGS}: exit '${code}', expected ${EXIT}\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${PROG} ${ARGS}: output does not match '${MATCH}'\n${out}")
endif()
if(DEFINED NOT_MATCH AND out MATCHES "${NOT_MATCH}")
  message(FATAL_ERROR "${PROG} ${ARGS}: output matches '${NOT_MATCH}'\n${out}")
endif()
