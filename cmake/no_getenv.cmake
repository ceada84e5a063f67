# Fails if any C++ source under src/ or tools/ calls getenv: the simulator's
# behaviour is chosen by configs and command-line flags, never by the
# environment.
#
#   cmake -DROOT=/path/to/repo -P no_getenv.cmake
if(NOT DEFINED ROOT)
  message(FATAL_ERROR "no_getenv.cmake: ROOT is required")
endif()

file(GLOB_RECURSE sources
  ${ROOT}/src/*.cpp ${ROOT}/src/*.hpp ${ROOT}/tools/*.cpp ${ROOT}/tools/*.hpp)
set(offenders "")
foreach(path IN LISTS sources)
  file(STRINGS ${path} hits REGEX "getenv")
  if(hits)
    file(RELATIVE_PATH rel ${ROOT} ${path})
    list(APPEND offenders "${rel}")
  endif()
endforeach()
list(LENGTH sources count)
if(count EQUAL 0)
  message(FATAL_ERROR "no sources found under ${ROOT}/src and ${ROOT}/tools")
endif()
if(offenders)
  message(FATAL_ERROR "getenv called in: ${offenders}")
endif()
message(STATUS "${count} sources, none calls getenv")
