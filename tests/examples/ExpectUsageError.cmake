# Runs EXPLORER with the arguments after `--` and requires a usage error:
# exit code 2 and exactly one stderr line, containing EXPECT.
#
#   cmake -DEXPLORER=path -DEXPECT=text -P ExpectUsageError.cmake -- args...

set(Args)
set(Collect OFF)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(Collect)
    list(APPEND Args "${CMAKE_ARGV${I}}")
  elseif(CMAKE_ARGV${I} STREQUAL "--")
    set(Collect ON)
  endif()
endforeach()

execute_process(COMMAND "${EXPLORER}" ${Args}
  RESULT_VARIABLE Code OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Code EQUAL 2)
  message(FATAL_ERROR "exit code ${Code}, want 2; stderr:\n${Err}")
endif()
string(REGEX MATCHALL "\n" Newlines "${Err}")
list(LENGTH Newlines Lines)
if(NOT Lines EQUAL 1)
  message(FATAL_ERROR "want one stderr line, got ${Lines}:\n${Err}")
endif()
string(FIND "${Err}" "${EXPECT}" At)
if(At EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${Err}")
endif()
