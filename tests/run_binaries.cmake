# Run every test binary named on the command line, in order, and fail on
# the first non-zero exit:
#
#   cmake -P run_binaries.cmake <binary>...
#
# The binaries inherit this process's environment, so a ctest test that
# sets ENVIRONMENT on the wrapper (avx2_suite: LOSSYFFT_SIMD=avx2) re-runs
# them under that setting without a second build tree.
if(CMAKE_ARGC LESS 4)
  message(FATAL_ERROR "usage: cmake -P run_binaries.cmake <binary>...")
endif()
math(EXPR last "${CMAKE_ARGC} - 1")
set(ran 0)
foreach(i RANGE 3 ${last})
  set(bin "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${bin}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} failed (exit ${rc}) with "
                        "LOSSYFFT_SIMD=$ENV{LOSSYFFT_SIMD}")
  endif()
  math(EXPR ran "${ran} + 1")
endforeach()
message(STATUS "${ran} binaries passed with LOSSYFFT_SIMD=$ENV{LOSSYFFT_SIMD}")
