# Writes a sweep journal, damages one record (or the manifest), and expects
# --resume to refuse it with exit 1 and one stderr line matching
# EXPECT_STDERR:
#
#   cmake -DSWEEP=/path/to/wrsn_sweep -DDIR=work_dir -DCASE=token
#         -DEXPECT_STDERR=regex -P sweep_journal_corrupt.cmake
#
# The sweep is `--sweep seed=1,2 --seeds 2` on one thread, so the cells are
# journaled in task order: ids 1-4 = (point 0, rep 0), (0, 1), (1, 0), (1, 1)
# with seeds 1, 2, 2, 3. CASE picks the damage:
#   token  id and point no longer exact integers ("id":-1,"point":0.9)
#   order  a repeated id
#   seed   a seed that is not the point seed + replica
#   twice  one cell recorded a second time
#   digit  one digit of the first cell's first metric value changed (the
#          record still parses; only its checksum catches it)
#   campaign  a manifest campaign hash of another campaign
foreach(var SWEEP DIR CASE EXPECT_STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_journal_corrupt.cmake: ${var} is required")
  endif()
endforeach()

set(file journal.jsonl)
if(CASE STREQUAL "token")
  set(from "\"id\":1,\"point\":0,")
  set(to "\"id\":-1,\"point\":0.9,")
elseif(CASE STREQUAL "order")
  set(from "\"id\":3,")
  set(to "\"id\":2,")
elseif(CASE STREQUAL "seed")
  set(from "\"replica\":1,\"seed\":2,")
  set(to "\"replica\":1,\"seed\":7,")
elseif(CASE STREQUAL "twice")
  set(from "\"id\":3,\"point\":1,\"replica\":0,")
  set(to "\"id\":3,\"point\":0,\"replica\":0,")
elseif(CASE STREQUAL "digit")
  # Matched after the journal is written, below.
elseif(CASE STREQUAL "campaign")
  set(file manifest.json)
  set(from "\"campaign_hash\":[0-9]+")
  set(to "\"campaign_hash\":1")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

set(args --sweep seed=1,2 --days 0.1 --seeds 2 --threads 1)
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${SWEEP}" ${args} --journal "${DIR}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journaled sweep failed (${rc}): ${err}")
endif()

file(READ "${DIR}/${file}" journal)
if(CASE STREQUAL "digit")
  # The last digit of cell 1's first metric value, plus one mod 10; the
  # match carries "id":1, so the literal replace below touches one record.
  string(REGEX MATCH "\"id\":1,[^\n]*\"m\":\\[[^],]*[0-9]" from "${journal}")
  if(from STREQUAL "")
    message(FATAL_ERROR "no metric value found in ${file}:\n${journal}")
  endif()
  string(LENGTH "${from}" n)
  math(EXPR last "${n} - 1")
  string(SUBSTRING "${from}" ${last} 1 digit)
  string(SUBSTRING "${from}" 0 ${last} head)
  math(EXPR flipped "(${digit} + 1) % 10")
  set(to "${head}${flipped}")
  string(REPLACE "${from}" "${to}" damaged "${journal}")
else()
  string(REGEX REPLACE "${from}" "${to}" damaged "${journal}")
endif()
if(damaged STREQUAL journal)
  message(FATAL_ERROR "'${from}' not found in ${file}:\n${journal}")
endif()
file(WRITE "${DIR}/${file}" "${damaged}")

execute_process(COMMAND "${SWEEP}" ${args} --resume "${DIR}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "resume of a damaged journal exited '${rc}', expected 1\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
