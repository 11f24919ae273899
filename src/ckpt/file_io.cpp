#include "ckpt/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace virec::ckpt {

namespace {

std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

bool write_all(int fd, const u8* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::vector<u8>& bytes) {
  // pid separates processes (forked children included); the counter
  // separates threads and successive calls within one process.
  static std::atomic<u64> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw CkptError("cannot create " + tmp + ": " + errno_text());
  std::string why;
  if (!write_all(fd, bytes.data(), bytes.size())) why = errno_text();
  if (::close(fd) != 0 && why.empty()) why = errno_text();
  if (!why.empty()) {
    ::unlink(tmp.c_str());
    throw CkptError("cannot write " + tmp + ": " + why);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    why = errno_text();
    ::unlink(tmp.c_str());
    throw CkptError("cannot rename " + tmp + " to " + path + ": " + why);
  }
}

bool read_file(const std::string& path, std::vector<u8>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < out->size()) {
      const ssize_t n = ::read(fd, out->data() + got, out->size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    ok = got == out->size();
  }
  ::close(fd);
  return ok;
}

void seal(Encoder& enc) { enc.put_u32(crc32(enc.bytes().data(), enc.size())); }

Decoder unseal(const std::vector<u8>& bytes, std::string context) {
  if (bytes.size() < sizeof(u32)) {
    throw CkptError(context + ": too short for its CRC");
  }
  const std::size_t body = bytes.size() - sizeof(u32);
  u32 stored = 0;
  for (std::size_t i = 0; i < sizeof(u32); ++i) {
    stored |= static_cast<u32>(bytes[body + i]) << (8 * i);
  }
  if (crc32(bytes.data(), body) != stored) {
    throw CkptError(context + ": CRC mismatch");
  }
  return Decoder(bytes.data(), body, std::move(context));
}

}  // namespace virec::ckpt
