# Runs one bench binary into a fresh output directory, then checks the
# reports it wrote against the committed baselines with
# tools/check_bench_baseline.py, timing fields excluded. ctest runs one of
# these per bench (bench/CMakeLists.txt); by hand:
#
#   cmake -DBENCH=build/bench/bench_service -DOUT=build/e4 \
#         -DREPORTS=BENCH_E4_service -DSOURCE_DIR=. -DPYTHON=python3 \
#         -P bench/check_baseline.cmake
#
# BENCH_ARGS (optional) and REPORTS are comma-separated lists.
string(REPLACE "," ";" BENCH_ARGS "${BENCH_ARGS}")
string(REPLACE "," ";" REPORTS "${REPORTS}")
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(ENV{DQSQ_BENCH_OUT_DIR} "${OUT}")
execute_process(COMMAND "${BENCH}" ${BENCH_ARGS}
                RESULT_VARIABLE status
                OUTPUT_FILE "${OUT}/stdout.txt"
                ERROR_FILE "${OUT}/stderr.txt")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${status}); see ${OUT}/stderr.txt")
endif()
set(pairs)
foreach(report IN LISTS REPORTS)
  list(APPEND pairs "${SOURCE_DIR}/bench/baselines/${report}.json"
                    "${OUT}/${report}.json")
endforeach()
execute_process(COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/check_bench_baseline.py"
                        ${pairs}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench baseline mismatch for ${BENCH}")
endif()
