#include "common/file_util.h"

#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dj {

Result<std::string> ReadFileToString(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string out;
#if defined(__unix__) || defined(__APPLE__)
  // A regular file's size is known up front: read it in one call, with no
  // regrowth of `out`. The loop below still reads a tail that grew since.
  struct stat st;
  if (::fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out.resize(static_cast<size_t>(st.st_size));
    out.resize(std::fread(out.data(), 1, out.size(), f));
  }
#endif
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) return Status::IoError("read error on '" + path + "'");
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool had_error = std::ferror(f) != 0 || written != content.size();
  if (std::fclose(f) != 0) had_error = true;
  if (had_error) return Status::IoError("write error on '" + path + "'");
  return Status::Ok();
}

Status WriteStringToFileAtomic(const std::string& path,
                               std::string_view content) {
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool had_error = std::ferror(f) != 0 || written != content.size();
  if (!had_error && std::fflush(f) != 0) had_error = true;
#if defined(__unix__) || defined(__APPLE__)
  if (!had_error && ::fsync(fileno(f)) != 0) had_error = true;
#endif
  if (std::fclose(f) != 0) had_error = true;
  if (had_error) {
    std::remove(tmp.c_str());
    return Status::IoError("write error on '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
#if defined(__unix__) || defined(__APPLE__)
  // Make the rename durable: fsync the containing directory (best-effort —
  // some filesystems refuse directory fds).
  std::string dir = p.has_parent_path() ? p.parent_path().string() : ".";
  int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
  return Status::Ok();
}

}  // namespace dj
