// wrsn_jsonl_check — validate a JSON-lines file with core/json's parser.
//
//   wrsn_jsonl_check FILE [--schema wrsn.trace] [--whole]
//
// --whole treats FILE as one multi-line JSON document instead of JSON lines
// (used for the Chrome trace-event export, which is a single pretty-spread
// object); --schema then checks textual containment over the whole document.
//
// Every non-empty line must be one well-formed JSON value. With --schema,
// the first line must additionally be a meta record carrying
// "schema":"<name>" and a "version" field (the JSONL trace contract; see
// obs/trace.hpp). Schema-specific record checks:
//   wrsn.spans          every span record carries the schema-v2 fields
//                       (obs/spans.hpp) and t1_s >= t0_s
//   wrsn.snapshot       checkpoint manifests (sim/snapshot.hpp): snapshot
//                       records carry id/file/t_s/events/bytes/terminal,
//                       ids are strictly increasing, and at most one record
//                       is terminal — the last one
//   wrsn.sweep-journal  sweep journals (wrsn_sweep --journal): cell records
//                       carry id/point/replica/seed/m and a matching
//                       checksum `sum` as their last field, ids are strictly
//                       increasing, and at most one `done` record exists —
//                       on the last line
// Exit 0 when the whole file validates; exit 1 with the first offending
// line number otherwise. Used as the ctest smoke check for
// `wrsn_trace --format jsonl`, `wrsn_sim --spans/--checkpoint` and
// `wrsn_sweep --journal`.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"

namespace {

// Extracts the numeric value following `"key":` in an already-validated JSON
// line; returns false when the key is absent.
bool find_number(const std::string& line, const std::string& key, double* out) {
  const auto pos = line.find('"' + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

// Span records must carry every schema-v2 field. json_validate has already
// run, so textual containment is a sound check for key presence.
const char* check_span_record(const std::string& line) {
  static const char* const kRequired[] = {"id", "parent", "root",  "track",
                                          "subject", "name", "t0_s", "t1_s",
                                          "outcome", "value", "mark"};
  for (const char* key : kRequired) {
    if (line.find('"' + std::string(key) + "\":") == std::string::npos) {
      return key;
    }
  }
  return nullptr;
}

// Field-presence check shared by the journal-style schemas.
const char* first_missing(const std::string& line,
                          const std::vector<const char*>& required) {
  for (const char* key : required) {
    if (line.find('"' + std::string(key) + "\":") == std::string::npos) {
      return key;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace wrsn;
  std::string path, schema;
  bool whole = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      std::cout << "wrsn_jsonl_check FILE [--schema NAME] [--whole]\n";
      return 0;
    }
    if (a == "--schema") {
      WRSN_REQUIRE(i + 1 < args.size(), "--schema needs a value");
      schema = args[++i];
    } else if (a == "--whole") {
      whole = true;
    } else if (path.empty()) {
      path = a;
    } else {
      std::cerr << "unexpected argument '" << a << "'\n";
      return 2;
    }
  }
  WRSN_REQUIRE(!path.empty(), "usage: wrsn_jsonl_check FILE [--schema NAME]");

  std::ifstream in(path);
  WRSN_REQUIRE(in.good(), "cannot open '" + path + "'");

  if (whole) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string doc = buffer.str();
    std::string whole_error;
    if (!json_validate(doc, &whole_error)) {
      std::cerr << path << ": invalid JSON: " << whole_error << '\n';
      return 1;
    }
    if (!schema.empty() && doc.find(schema) == std::string::npos) {
      std::cerr << path << ": document does not mention schema '" << schema
                << "'\n";
      return 1;
    }
    std::cout << path << ": whole-file JSON ok (" << doc.size() << " bytes)\n";
    return 0;
  }

  std::string line, error;
  std::size_t line_no = 0, records = 0;
  // Journal-schema state: monotone-id and single-terminal-record checks.
  double last_id = 0.0;
  std::size_t terminal_line = 0;  // line of a terminal/done record, if seen
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!json_validate(line, &error)) {
      std::cerr << path << ':' << line_no << ": invalid JSON: " << error << '\n';
      return 1;
    }
    if (terminal_line != 0) {
      std::cerr << path << ':' << line_no
                << ": record after the terminal record on line " << terminal_line
                << '\n';
      return 1;
    }
    if (records == 0 && !schema.empty()) {
      // Cheap containment check is enough for a smoke test; the structural
      // guarantees come from json_validate above.
      const bool has_schema =
          line.find("\"schema\":\"" + schema + "\"") != std::string::npos;
      const bool has_version = line.find("\"version\":") != std::string::npos;
      if (!has_schema || !has_version) {
        std::cerr << path << ":1: meta record does not declare schema '"
                  << schema << "' with a version\n";
        return 1;
      }
    }
    if (records > 0 && schema == "wrsn.spans" &&
        line.find("\"record\":\"span\"") != std::string::npos) {
      if (const char* missing = check_span_record(line)) {
        std::cerr << path << ':' << line_no << ": span record missing field '"
                  << missing << "'\n";
        return 1;
      }
      double t0 = 0.0, t1 = 0.0;
      if (find_number(line, "t0_s", &t0) && find_number(line, "t1_s", &t1) &&
          t1 < t0) {
        std::cerr << path << ':' << line_no << ": span ends before it starts ("
                  << t1 << " < " << t0 << ")\n";
        return 1;
      }
    }
    if (records > 0 && schema == "wrsn.snapshot" &&
        line.find("\"record\":\"snapshot\"") != std::string::npos) {
      if (const char* missing = first_missing(
              line, {"id", "file", "t_s", "events", "bytes", "terminal"})) {
        std::cerr << path << ':' << line_no
                  << ": snapshot record missing field '" << missing << "'\n";
        return 1;
      }
      double id = 0.0;
      find_number(line, "id", &id);
      if (id <= last_id) {
        std::cerr << path << ':' << line_no << ": snapshot id " << id
                  << " not greater than previous id " << last_id << '\n';
        return 1;
      }
      last_id = id;
      if (line.find("\"terminal\":true") != std::string::npos) {
        terminal_line = line_no;
      }
    }
    if (records > 0 && schema == "wrsn.sweep-journal") {
      if (line.find("\"record\":\"cell\"") != std::string::npos) {
        if (const char* missing = first_missing(
                line, {"id", "point", "replica", "seed", "m", "sum"})) {
          std::cerr << path << ':' << line_no
                    << ": cell record missing field '" << missing << "'\n";
          return 1;
        }
        if (json_checksum_ok(line) != true) {
          std::cerr << path << ':' << line_no << ": cell record checksum mismatch\n";
          return 1;
        }
        double id = 0.0;
        find_number(line, "id", &id);
        if (id <= last_id) {
          std::cerr << path << ':' << line_no << ": cell id " << id
                    << " not greater than previous id " << last_id << '\n';
          return 1;
        }
        last_id = id;
      } else if (line.find("\"record\":\"done\"") != std::string::npos) {
        terminal_line = line_no;
      }
    }
    ++records;
  }
  if (records == 0) {
    std::cerr << path << ": no JSON records found\n";
    return 1;
  }
  std::cout << path << ": " << records << " JSON record(s) ok\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "wrsn_jsonl_check: " << e.what() << '\n';
  return 1;
}
