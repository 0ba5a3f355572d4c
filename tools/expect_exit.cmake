# Runs a command and checks its exit code and combined output:
#
#   cmake -DEXIT=<code> [-DMATCH=<regex>] [-DNO_MATCH=<regex>]
#         -P expect_exit.cmake -- <command> [args...]
#
# A plain add_test checks only one of the two: PASS_REGULAR_EXPRESSION
# ignores the exit code.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(APPEND out "${err}")
if(NOT "${code}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXIT}; output:\n${out}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}")
endif()
if(DEFINED NO_MATCH AND out MATCHES "${NO_MATCH}")
  message(FATAL_ERROR "output matches '${NO_MATCH}':\n${out}")
endif()
