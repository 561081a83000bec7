# Build file of the frame-budget benchmark. It is injected into the
# repository's own top-level CMake project, so the benchmark links the
# libraries exactly as the repository builds them (same options,
# warnings and compile definitions):
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_coterie_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build --target perfbench -j4
#
# perfbench/run.py does exactly this before it runs a workload.
# A version check, not cmake_minimum_required: that would reset the
# repository's policy settings for its whole top-level directory.
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "perfbench needs CMake >= 3.19 (cmake_language DEFER)")
endif()

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

# The include runs right after project(coterie); the repository's
# compile definitions and library targets come later in its
# CMakeLists, so the target is declared once that file is done.
function(perfbench_add_target)
    add_executable(perfbench "${PERFBENCH_DIR}/perfbench.cc")
    target_compile_definitions(perfbench PRIVATE
        PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
        PERFBENCH_SANITIZE="${COTERIE_SANITIZE}")
    target_link_libraries(perfbench PRIVATE coterie)
endfunction()
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL perfbench_add_target)
