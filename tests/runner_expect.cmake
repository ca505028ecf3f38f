# Tool-level check of one scenario_runner script: the run must exit with
# EXPECT_EXIT, its narration must match EXPECT_OUTPUT (a regex, optional)
# and its metrics sidecar must match EXPECT_SIDECAR (a regex, optional).
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DSCRIPT=<script.scn>
#         -DWORKDIR=<scratch dir> -DEXPECT_EXIT=<code>
#         [-DEXPECT_OUTPUT=<regex>] [-DEXPECT_SIDECAR=<regex>]
#         -P runner_expect.cmake

file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${RUNNER}" "${SCRIPT}" --metrics m.json
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "scenario_runner exited ${status}, expected ${EXPECT_EXIT}:\n"
          "${out}${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
          "narration does not match '${EXPECT_OUTPUT}':\n${out}")
endif()
if(DEFINED EXPECT_SIDECAR)
  file(READ "${WORKDIR}/m.json" sidecar)
  if(NOT sidecar MATCHES "${EXPECT_SIDECAR}")
    message(FATAL_ERROR "metrics sidecar does not match '${EXPECT_SIDECAR}'")
  endif()
endif()
