#pragma once
// Shared report plumbing of the before/after microbenches (bench_traffic,
// bench_snapshot): a report is `{"schema":"<schema>","runs":[ ... ]}` with
// one JSON object per run, and `--append` adds a run to the report already
// at the output path, so one file can hold a parent and a change row.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace wrsn::bench {

// Writes `run` (one JSON object) to `path` as a report of `schema`: alone,
// or with `append` after the runs of the report already there. Returns
// false, with a message on stderr, if that file is not a report of the same
// schema or `path` cannot be written.
inline bool write_report(const std::string& path, const std::string& schema,
                         const std::string& run, bool append) {
  const std::string head = "{\"schema\":\"" + schema + "\",\"runs\":[\n";
  const std::string tail = "\n]}\n";
  std::string doc = head + run + tail;
  if (append) {
    std::ifstream in(path);
    std::stringstream old;
    old << in.rdbuf();
    const std::string prev = old.str();
    if (prev.size() < head.size() + tail.size() || prev.rfind(head, 0) != 0 ||
        prev.compare(prev.size() - tail.size(), tail.size(), tail) != 0) {
      std::cerr << "'" << path << "' is not a " << schema << " report\n";
      return false;
    }
    doc = prev.substr(0, prev.size() - tail.size()) + ",\n" + run + tail;
  }
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open '" << path << "'\n";
    return false;
  }
  out << doc;
  std::cout << "wrote " << path << '\n';
  return true;
}

}  // namespace wrsn::bench
