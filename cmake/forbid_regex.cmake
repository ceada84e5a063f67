# Fails if any C++ source under the listed directories has a line matching
# REGEX, naming every offending file. Backs the source-policy ctests (no
# getenv, no test-support header in production code).
#
#   cmake -DROOT=/path/to/repo "-DDIRS=src;tools" -DREGEX=getenv \
#         -P forbid_regex.cmake
foreach(var ROOT DIRS REGEX)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "forbid_regex.cmake: ${var} is required")
  endif()
endforeach()

set(sources "")
foreach(dir IN LISTS DIRS)
  file(GLOB_RECURSE found ${ROOT}/${dir}/*.cpp ${ROOT}/${dir}/*.hpp)
  if(NOT found)
    message(FATAL_ERROR "no sources found under ${ROOT}/${dir}")
  endif()
  list(APPEND sources ${found})
endforeach()
set(offenders "")
foreach(path IN LISTS sources)
  file(STRINGS ${path} hits REGEX "${REGEX}")
  if(hits)
    file(RELATIVE_PATH rel ${ROOT} ${path})
    list(APPEND offenders "${rel}")
  endif()
endforeach()
list(LENGTH sources count)
if(offenders)
  message(FATAL_ERROR "'${REGEX}' matches in: ${offenders}")
endif()
message(STATUS "${count} sources, none matches '${REGEX}'")
