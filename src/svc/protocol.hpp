// Wire protocol of the virec-simd daemon (docs/service.md): newline-
// delimited JSON over a local Unix socket, each line framed with a
// trailing CRC:
//
//   <compact json> <crc32 of the json, 8 lowercase hex digits>\n
//
// so a torn or corrupted line is detected before parsing. Specs and
// results travel as hex-encoded ckpt spec-codec bytes, not as JSON
// numbers — doubles cross the wire by bit pattern, so a client's
// CSV/JSON output is byte-identical to a local run's.
//
// Message vocabulary (type field):
//   client -> server: hello, sweep {id, specs:[hex]}, stats, ping,
//                     shutdown
//   server -> client: hello {provenance, protocol}, point {id, index,
//                     source, result:hex}, error {id, index, message},
//                     done {id, points, executed, store_hits,
//                     dedup_hits, failed}, busy {id, retry_after_secs},
//                     stats {...}, pong, bye
#pragma once

#include <string>
#include <vector>

#include "ckpt/spec_codec.hpp"

namespace virec::svc::proto {

/// Bumped on incompatible wire changes; exchanged in hello and checked
/// by both sides.
inline constexpr u32 kProtocolVersion = 1;

/// Wrap a message body in the CRC frame (appends " <crc8hex>\n").
/// @p body must not contain a newline.
std::string frame(const std::string& body);

/// Strip and verify the CRC frame of one received line (with or
/// without the trailing newline). Returns false — corrupt or
/// malformed — without touching @p body on failure.
bool unframe(const std::string& line, std::string* body);

/// Lowercase hex of raw bytes, and its inverse. from_hex rejects odd
/// lengths and non-hex characters.
std::string to_hex(const std::vector<u8>& bytes);
bool from_hex(const std::string& hex, std::vector<u8>* out);

/// Specs/results as hex-encoded canonical codec bytes (the wire form).
/// The decoders return false on any malformed payload.
std::string encode_spec_hex(const sim::RunSpec& spec);
bool decode_spec_hex(const std::string& hex, sim::RunSpec* out);
std::string encode_result_hex(const sim::RunResult& result);
bool decode_result_hex(const std::string& hex, sim::RunResult* out);

}  // namespace virec::svc::proto
