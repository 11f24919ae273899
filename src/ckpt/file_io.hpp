// The one way persisted artifacts reach and leave the disk. Snapshots
// (.vckpt), result-store entries (.vres) and functional streams (.vfs)
// are all assembled in memory with an Encoder and written through
// write_file_atomic, so a killed or racing writer never leaves a
// half-written file under a live name. .vres and .vfs additionally
// share the "body + trailing CRC-32" frame of seal/unseal.
#pragma once

#include <string>
#include <vector>

#include "ckpt/serialize.hpp"

namespace virec::ckpt {

/// Write @p bytes to @p path atomically: the bytes go to a temp file
/// beside it, named uniquely per process and call (pid + counter), which
/// is then renamed over @p path. Concurrent writers of one path each
/// rename a complete file, so the last one wins and no reader ever sees
/// a torn file. On failure the temp file is removed and CkptError is
/// thrown.
void write_file_atomic(const std::string& path, const std::vector<u8>& bytes);

/// Read all of @p path into @p out (reusing its capacity); false if the
/// file cannot be opened or read.
bool read_file(const std::string& path, std::vector<u8>* out);

/// Append the CRC-32 of every byte encoded so far (the trailing-CRC
/// frame of .vres and .vfs files).
void seal(Encoder& enc);

/// Decoder over the body of a sealed buffer: the bytes before its
/// trailing CRC-32. Throws CkptError if the buffer is too short for a
/// CRC or the CRC does not match, so a flip of any byte is caught.
Decoder unseal(const std::vector<u8>& bytes, std::string context);

}  // namespace virec::ckpt
