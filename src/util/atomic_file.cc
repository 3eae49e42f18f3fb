#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace anc {

namespace {

std::string ErrnoText() { return std::strerror(errno); }

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int flags, const char* what) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(std::string("cannot open ") + what + path +
                           " for fsync: " + ErrnoText());
  }
  const int rc = ::fsync(fd);
  const std::string error = rc != 0 ? ErrnoText() : std::string();
  ::close(fd);
  if (rc != 0) {
    return Status::IoError(std::string("fsync failed on ") + what + path +
                           ": " + error);
  }
  return Status::OK();
}

}  // namespace

Status ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st {};
  Status status;
  if (::fstat(fd, &st) != 0) {
    status = Status::IoError("cannot stat " + path + ": " + ErrnoText());
  } else {
    out->resize(static_cast<size_t>(st.st_size));
    size_t done = 0;
    while (done < out->size()) {
      const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        status = Status::IoError("read failed on " + path + ": " + ErrnoText());
        break;
      }
      if (n == 0) break;  // shrank since fstat
      done += static_cast<size_t>(n);
    }
    out->resize(done);
  }
  ::close(fd);
  return status;
}

Status WriteAll(int fd, const void* bytes, size_t size,
                const std::string& path) {
  const char* p = static_cast<const char*>(bytes);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed on " + path + ": " + ErrnoText());
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for writing: " +
                           ErrnoText());
  }
  const Status written = WriteAll(fd, bytes.data(), bytes.size(), path);
  if (::close(fd) != 0 && written.ok()) {
    return Status::IoError("close failed on " + path + ": " + ErrnoText());
  }
  return written;
}

Status FsyncFile(const std::string& path) {
  return FsyncPath(path, O_RDONLY, "");
}

Status FsyncDir(const std::string& dir) {
  return FsyncPath(dir, O_RDONLY | O_DIRECTORY, "directory ");
}

Status AtomicReplace(const std::string& path, const std::string& tmp,
                     const std::function<Status(const std::string&)>& write,
                     const std::function<Status()>& before_rename) {
  ANC_RETURN_NOT_OK(write(tmp));
  ANC_RETURN_NOT_OK(FsyncFile(tmp));
  if (before_rename) ANC_RETURN_NOT_OK(before_rename());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " -> " + path + ": " +
                           ErrnoText());
  }
  return FsyncDir(ParentDir(path));
}

Status AtomicReplace(const std::string& path, const std::string& tmp,
                     std::string_view bytes,
                     const std::function<Status()>& before_rename) {
  return AtomicReplace(
      path, tmp,
      [bytes](const std::string& target) { return WriteFile(target, bytes); },
      before_rename);
}

}  // namespace anc
