#pragma once
// Crash-atomic file output and fsync'd append-only journals.
//
// write_file_atomic() writes `PATH.tmp`, fsyncs it, then rename(2)s over
// PATH, so a reader (or a resumed sweep) either sees the old file or the
// complete new one — never a truncated tail. AtomicFile is the streaming
// variant: build the file through an ostream, then commit() performs the
// same fsync+rename dance; a destructor without commit() unlinks the temp.
// A PATH that exists but is not a regular file (/dev/null, /dev/stdout, a
// FIFO) cannot be replaced by a rename and is written in place.
//
// JournalWriter appends single lines to a log with O_APPEND and fsyncs
// after each record, which is the durability contract the sweep journal
// (wrsn_sweep --resume) depends on: a record that made it back to the
// caller is on disk.

#include <fstream>
#include <string>
#include <string_view>

namespace wrsn {

// Atomically replace `path` with `content` (tmp + fsync + rename).
void write_file_atomic(const std::string& path, std::string_view content);

class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  [[nodiscard]] std::ostream& stream() { return out_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Flush, fsync, and rename into place. Throws on I/O failure.
  void commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

class JournalWriter {
 public:
  // Opens (creating if needed) `path` for fsync'd appends.
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Appends `line` (a trailing '\n' is added) and fsyncs before returning.
  void append(std::string_view line);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace wrsn
