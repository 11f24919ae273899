#include "svc/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "ckpt/file_io.hpp"
#include "common/version.hpp"

namespace fs = std::filesystem;

namespace virec::svc {

namespace {

// Entry layout (via ckpt::Encoder, little-endian):
//   u32 magic, u32 format_version, u64 spec_hash,
//   str provenance, f64 wall_secs,
//   u32 identity_len + identity bytes (canonical spec encoding),
//   u32 payload_crc, u32 payload_len + payload (encoded RunResult),
//   u32 entry_crc (crc32 of every preceding byte).
// The trailing entry_crc covers the whole file, so a flip anywhere —
// header, provenance, identity, payload — reads as corruption; the
// payload_crc additionally survives future envelope-layout changes.
constexpr const char* kEntrySuffix = ".vres";

/// An entry's envelope; identity and payload point into the file bytes.
struct Envelope {
  u64 hash = 0;
  std::string provenance;
  double wall_secs = 0.0;
  const u8* identity = nullptr;
  u32 identity_len = 0;
  const u8* payload = nullptr;
  u32 payload_len = 0;
};

/// Decode the envelope of entry file @p bytes, checking the entry CRC,
/// the magic, the bounds and the payload CRC. Throws CkptError on any
/// corruption; returns false for an entry of another format version.
bool open_entry(const std::vector<u8>& bytes, Envelope* env) {
  ckpt::Decoder dec = ckpt::unseal(bytes, "store entry");
  if (dec.get_u32() != kStoreMagic) {
    throw ckpt::CkptError("store entry: bad magic");
  }
  if (dec.get_u32() != kStoreFormatVersion) return false;
  env->hash = dec.get_u64();
  env->provenance = dec.get_str();
  env->wall_secs = dec.get_f64();
  env->identity_len = dec.get_u32();
  env->identity = dec.view(env->identity_len);
  const u32 payload_crc = dec.get_u32();
  env->payload_len = dec.get_u32();
  env->payload = dec.view(env->payload_len);
  dec.finish();
  if (ckpt::crc32(env->payload, env->payload_len) != payload_crc) {
    throw ckpt::CkptError("store entry: payload CRC mismatch");
  }
  return true;
}

bool is_entry_file(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == kEntrySuffix;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("result store: cannot create directory " + dir_ +
                             (ec ? ": " + ec.message() : ""));
  }
}

std::string ResultStore::entry_path(u64 hash) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(hash));
  return dir_ + "/" + name + kEntrySuffix;
}

bool ResultStore::lookup_entry(u64 hash, const sim::RunSpec& spec,
                               StoreEntry* out) const {
  std::vector<u8> bytes;
  if (!ckpt::read_file(entry_path(hash), &bytes)) return false;
  try {
    Envelope env;
    if (!open_entry(bytes, &env) || env.hash != hash) return false;
    // Identity verification: the stored canonical spec bytes must match
    // the requested spec exactly — a hash collision or codec drift is a
    // miss, never a wrong result.
    ckpt::Encoder want;
    ckpt::encode_spec_identity(want, spec);
    if (env.identity_len != want.size() ||
        std::memcmp(env.identity, want.bytes().data(), want.size()) != 0) {
      return false;
    }
    ckpt::Decoder pdec(env.payload, env.payload_len, "store payload");
    StoreEntry entry;
    entry.result = ckpt::decode_result(pdec);
    pdec.finish();
    entry.provenance = std::move(env.provenance);
    entry.wall_secs = env.wall_secs;
    if (out != nullptr) *out = std::move(entry);
    return true;
  } catch (const ckpt::CkptError&) {
    return false;  // truncated/corrupt entry: a miss, the point re-runs
  }
}

bool ResultStore::lookup(u64 hash, const sim::RunSpec& spec,
                         sim::RunResult* out) const {
  StoreEntry entry;
  if (!lookup_entry(hash, spec, &entry)) return false;
  if (out != nullptr) *out = std::move(entry.result);
  return true;
}

void ResultStore::put(u64 hash, const sim::RunSpec& spec,
                      const sim::RunResult& result, double wall_secs) {
  ckpt::Encoder payload;
  ckpt::encode_result(payload, result);

  ckpt::Encoder enc;
  enc.put_u32(kStoreMagic);
  enc.put_u32(kStoreFormatVersion);
  enc.put_u64(hash);
  enc.put_str(build::provenance());
  enc.put_f64(wall_secs);
  ckpt::Encoder identity;
  ckpt::encode_spec_identity(identity, spec);
  enc.put_u32(static_cast<u32>(identity.size()));
  enc.raw(identity.bytes().data(), identity.size());
  enc.put_u32(ckpt::crc32(payload.bytes().data(), payload.size()));
  enc.put_u32(static_cast<u32>(payload.size()));
  enc.raw(payload.bytes().data(), payload.size());
  ckpt::seal(enc);
  // Concurrent writers of one point (daemons sharing the store, a
  // sweep resuming beside them) each rename a complete file; last
  // writer wins, which is safe because identical specs produce
  // identical results.
  ckpt::write_file_atomic(entry_path(hash), enc.bytes());
}

std::size_t ResultStore::size() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (is_entry_file(e)) ++n;
  }
  return n;
}

ResultStore::VerifyReport ResultStore::verify(bool repair) {
  VerifyReport report;
  std::vector<u8> bytes;  // reused across entries
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_file(e)) continue;
    ++report.total;
    bool ok = false;
    bool foreign = false;
    if (ckpt::read_file(e.path().string(), &bytes)) {
      try {
        Envelope env;
        foreign = !open_entry(bytes, &env);
        ok = !foreign;
      } catch (const ckpt::CkptError&) {
        // corrupt: ok stays false
      }
    }
    if (foreign) {
      ++report.foreign;
    } else if (ok) {
      ++report.ok;
    } else {
      ++report.corrupt;
      if (repair) {
        std::error_code rm;
        fs::remove(e.path(), rm);
        if (!rm) report.removed.push_back(e.path().string());
      }
    }
  }
  return report;
}

std::size_t ResultStore::gc(std::size_t keep) {
  struct File {
    fs::path path;
    fs::file_time_type mtime;
  };
  std::vector<File> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_file(e)) continue;
    std::error_code mec;
    files.push_back({e.path(), fs::last_write_time(e.path(), mec)});
  }
  if (files.size() <= keep) return 0;
  // Newest first; equal mtimes (common on coarse-granularity
  // filesystems, where a whole burst of writes lands on one timestamp)
  // tie-break on the filename — the spec hash — so which entries
  // survive is deterministic rather than directory-iteration order.
  std::sort(files.begin(), files.end(), [](const File& a, const File& b) {
    if (a.mtime != b.mtime) return a.mtime > b.mtime;
    return a.path.filename() < b.path.filename();
  });
  std::size_t removed = 0;
  for (std::size_t i = keep; i < files.size(); ++i) {
    std::error_code rm;
    fs::remove(files[i].path, rm);
    if (!rm) ++removed;
  }
  return removed;
}

}  // namespace virec::svc
