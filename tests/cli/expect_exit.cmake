# Runs one idseval_cli command line and checks how it fails.
#
#   cmake -DCLI=<idseval_cli> -DARGS="evaluate|--seed|-1" -DEXPECT_EXIT=2
#         [-DEXPECT_ERR=<regex>] [-DDEEP_JSON=<file>] -P expect_exit.cmake
#
# ARGS is '|'-separated (';' would split on the add_test command line).
# DEEP_JSON first writes a one-line file of 200000 '[' to that path, the
# input that used to overflow the JSON parser's stack.
if(DEFINED DEEP_JSON)
  string(REPEAT "[" 200000 deep)
  file(WRITE "${DEEP_JSON}" "${deep}\n")
endif()
string(REPLACE "|" ";" argv "${ARGS}")
execute_process(COMMAND "${CLI}" ${argv}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "idseval_cli ${argv}: exit '${rc}', expected ${EXPECT_EXIT}\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR
          "idseval_cli ${argv}: stderr does not match '${EXPECT_ERR}':\n${err}")
endif()
