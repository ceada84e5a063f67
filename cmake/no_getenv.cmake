# Fails if any C++ source under src/, tools/, bench/ or examples/ calls
# getenv: the simulator, its benchmarks and its examples are driven by
# configs and command-line flags, never by the environment.
#
#   cmake -DROOT=/path/to/repo -P no_getenv.cmake
if(NOT DEFINED ROOT)
  message(FATAL_ERROR "no_getenv.cmake: ROOT is required")
endif()

set(dirs src tools bench examples)
set(sources "")
foreach(dir IN LISTS dirs)
  file(GLOB_RECURSE found ${ROOT}/${dir}/*.cpp ${ROOT}/${dir}/*.hpp)
  if(NOT found)
    message(FATAL_ERROR "no sources found under ${ROOT}/${dir}")
  endif()
  list(APPEND sources ${found})
endforeach()
set(offenders "")
foreach(path IN LISTS sources)
  file(STRINGS ${path} hits REGEX "getenv")
  if(hits)
    file(RELATIVE_PATH rel ${ROOT} ${path})
    list(APPEND offenders "${rel}")
  endif()
endforeach()
list(LENGTH sources count)
if(offenders)
  message(FATAL_ERROR "getenv called in: ${offenders}")
endif()
message(STATUS "${count} sources, none calls getenv")
