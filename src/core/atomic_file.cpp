#include "core/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/error.hpp"

namespace wrsn {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw InvalidArgument(what + " '" + path + "': " + std::strerror(errno));
}

// fsync by path; used for both the temp file contents and (best-effort)
// the containing directory so the rename itself is durable.
void fsync_path(const std::string& path, bool required) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (required) throw_errno("cannot open for fsync", path);
    return;
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0 && required) throw_errno("fsync failed for", path);
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void rename_into_place(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename to", path);
  }
  fsync_path(parent_dir(path), /*required=*/false);
}

// rename(2) would replace a device, FIFO or terminal (`--out /dev/stdout`,
// `--spans /dev/null`) with a regular file, so such a target is written in
// place instead.
bool writes_in_place(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  AtomicFile file(path);
  file.stream().write(content.data(), static_cast<std::streamsize>(content.size()));
  file.commit();
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)),
      tmp_path_(writes_in_place(path_) ? path_ : path_ + ".tmp") {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw_errno("cannot open", tmp_path_);
}

AtomicFile::~AtomicFile() {
  if (!committed_ && tmp_path_ != path_) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

void AtomicFile::commit() {
  out_.flush();
  if (!out_) throw_errno("write failed for", tmp_path_);
  out_.close();
  if (tmp_path_ != path_) {
    fsync_path(tmp_path_, /*required=*/true);
    rename_into_place(tmp_path_, path_);
  }
  committed_ = true;
}

JournalWriter::JournalWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("cannot open journal", path);
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(std::string_view line) {
  std::string rec(line);
  rec.push_back('\n');
  std::size_t off = 0;
  while (off < rec.size()) {
    const ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("append failed for journal", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) throw_errno("fsync failed for journal", path_);
}

}  // namespace wrsn
