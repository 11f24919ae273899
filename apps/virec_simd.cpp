// virec-simd — the simulation service daemon (docs/service.md).
//
//   virec-simd --socket /tmp/virec.sock --store .virec-store --jobs 8
//   virec-simd --store .virec-store --store-verify --repair
//   virec-simd --store .virec-store --store-gc 10000
//   virec-simd --version
//
// Serves experiment points over a local Unix socket (NDJSON with CRC
// framing; see src/svc/protocol.hpp). Every completed point is
// persisted in a content-addressed ResultStore, so repeated sweeps —
// across clients, across daemon restarts — cost one simulator run per
// unique point. Concurrent requests for the same point coalesce onto
// one execution; queued work drains round-robin across clients; a full
// queue rejects new batches with a retry-after hint instead of growing
// without bound.
//
// Clients: `virec-sim --connect SOCKET` and bench harnesses via
// svc::ServiceClient.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/cli_parse.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "common/version.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/result_store.hpp"
#include "svc/socket.hpp"
#include "svc/sweep_service.hpp"

using namespace virec;

namespace {

struct Options {
  std::string socket_path = "virec-simd.sock";
  std::string store_dir = ".virec-store";
  u32 jobs = 0;  // 0 = hardware concurrency
  std::size_t max_pending = 4096;
  double retry_after_secs = 0.25;
  bool version = false;
  bool help = false;
  bool store_verify = false;
  bool repair = false;
  bool store_gc = false;
  std::size_t gc_keep = 0;
};

void print_usage() {
  std::cout <<
      "virec-simd — simulation service daemon with a content-addressed "
      "result cache\n"
      "\n"
      "usage: virec-simd [options]\n"
      "  --socket PATH     Unix socket to listen on\n"
      "                    (default virec-simd.sock)\n"
      "  --store DIR       result store directory (default .virec-store)\n"
      "  --jobs N          simulator worker threads (0 = all hardware\n"
      "                    threads, the default)\n"
      "  --max-pending N   admission limit: queued executions before new\n"
      "                    batches are rejected busy (default 4096)\n"
      "  --retry-after S   retry hint (seconds) carried by busy replies\n"
      "                    (default 0.25)\n"
      "  --store-verify    scan every store entry, report corruption and\n"
      "                    exit (no daemon); --repair deletes bad entries\n"
      "  --store-gc N      keep only the newest N store entries and exit\n"
      "  --version         print build provenance and exit\n";
}

bool parse(int argc, char** argv, Options& opt) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") opt.help = true;
    else if (arg == "--version") opt.version = true;
    else if (arg == "--socket") opt.socket_path = value();
    else if (arg == "--store") opt.store_dir = value();
    else if (arg == "--jobs") opt.jobs = cli::parse_u32(arg, value());
    else if (arg == "--max-pending")
      opt.max_pending = cli::parse_u64(arg, value());
    else if (arg == "--retry-after") {
      opt.retry_after_secs = cli::parse_double(arg, value());
      if (!(opt.retry_after_secs >= 0)) {
        throw std::invalid_argument("--retry-after: must be >= 0");
      }
    }
    else if (arg == "--store-verify") opt.store_verify = true;
    else if (arg == "--repair") opt.repair = true;
    else if (arg == "--store-gc") {
      opt.store_gc = true;
      opt.gc_keep = cli::parse_u64(arg, value());
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
  }
  return true;
}

/// Everything a connection handler needs; owned by main for the
/// daemon's lifetime.
struct Daemon {
  Daemon(const Options& opt)
      : store(opt.store_dir),
        service(
            svc::ServiceConfig{
                opt.jobs == 0
                    ? std::max(1u, std::thread::hardware_concurrency())
                    : opt.jobs,
                opt.max_pending, opt.retry_after_secs},
            &store),
        listener(opt.socket_path),
        stream_dir((std::filesystem::path(store.dir()) / "streams").string()) {
    // Sampled points replay shared functional streams; persisting them
    // beside the result store means daemon restarts skip the golden
    // prepass too (docs/performance.md, "Stream reuse"). The store key
    // ignores stream_dir, so cached results are unaffected.
    std::error_code ec;
    std::filesystem::create_directories(stream_dir, ec);
    if (ec) stream_dir.clear();  // degrade to in-memory sharing
  }

  svc::ResultStore store;
  svc::SweepService service;
  svc::UnixListener listener;
  std::string stream_dir;  // "" = no on-disk stream persistence
  std::atomic<bool> stop{false};

  /// Open connections, so shutdown can wake handlers blocked in
  /// read_line (their threads are joined by main before exit).
  std::mutex conns_mu;
  std::unordered_set<svc::UnixConn*> conns;
  std::mutex log_mu;

  void shutdown_all() {
    stop = true;
    listener.shutdown();
    std::lock_guard<std::mutex> lk(conns_mu);
    for (svc::UnixConn* c : conns) c->shutdown();
  }

  void log(const std::string& line) {
    std::lock_guard<std::mutex> lk(log_mu);
    std::cerr << line << "\n";
  }
};

/// The signal handler may only touch async-signal-safe calls: shut the
/// pre-captured listening fd down, which unblocks accept(); main then
/// runs the orderly shutdown path.
volatile std::sig_atomic_t g_signalled = 0;
int g_listen_fd = -1;

void on_signal(int) {
  g_signalled = 1;
  if (g_listen_fd >= 0) ::shutdown(g_listen_fd, SHUT_RDWR);
}

std::string compact(const std::function<void(JsonWriter&)>& fill) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  fill(w);
  w.end_object();
  return os.str();
}

void handle_sweep(Daemon& d, svc::UnixConn& conn, const JsonValue& msg,
                  const std::string& client_key) {
  const u64 id = msg.at("id").as_u64();
  const JsonValue& spec_hexes = msg.at("specs");
  if (!spec_hexes.is_array()) {
    throw JsonParseError("specs is not an array");
  }

  // Decode the batch up front. Undecodable entries are answered as
  // per-point errors (not a dropped connection): the client may be
  // newer than the daemon, and the rest of its batch is still useful.
  const std::size_t total = spec_hexes.array.size();
  std::vector<sim::RunSpec> specs;
  std::vector<std::size_t> spec_index;  // position in the wire batch
  std::vector<std::size_t> bad;
  specs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    sim::RunSpec spec;
    if (spec_hexes.array[i].is_string() &&
        svc::proto::decode_spec_hex(spec_hexes.array[i].string, &spec)) {
      // The wire codec does not carry stream_dir (it is host-local);
      // the daemon supplies its own persistent stream store.
      if (spec.sample_windows > 0) spec.stream_dir = d.stream_dir;
      specs.push_back(std::move(spec));
      spec_index.push_back(i);
    } else {
      bad.push_back(i);
    }
  }
  for (const std::size_t i : bad) {
    conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
      w.kv("type", "error");
      w.kv("id", id);
      w.kv("index", static_cast<u64>(i));
      w.kv("message", "undecodable spec");
    })));
  }

  svc::SweepTicket ticket;
  // Set by the delivery callback when the client stops accepting
  // frames; the polling loop below then withdraws the client.
  auto write_failed = std::make_shared<std::atomic<bool>>(false);
  try {
    // Streamed delivery: each point goes out the moment it resolves.
    // Write failures (client gone) flag the connection so unstarted
    // points are cancelled; executions already running still finish
    // and land in the store, so the client's retry is all cache hits.
    ticket = d.service.submit(
        client_key, specs,
        [&conn, &spec_index, id, write_failed](std::size_t index,
                                               const sim::RunResult* result,
                                               svc::PointSource source,
                                               const std::string& error) {
          const u64 wire_index = spec_index[index];
          if (result == nullptr) {
            if (!conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
                  w.kv("type", "error");
                  w.kv("id", id);
                  w.kv("index", wire_index);
                  w.kv("message", error);
                })))) {
              write_failed->store(true);
            }
            return;
          }
          if (!conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
                w.kv("type", "point");
                w.kv("id", id);
                w.kv("index", wire_index);
                w.kv("source", svc::point_source_name(source));
                w.kv("result", svc::proto::encode_result_hex(*result));
              })))) {
            write_failed->store(true);
          }
        });
  } catch (const svc::ServiceBusy& busy) {
    conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
      w.kv("type", "busy");
      w.kv("id", id);
      w.kv("retry_after_secs", busy.retry_after_secs);
    })));
    return;
  }
  // Poll instead of a blind wait: a client that disconnects mid-stream
  // must not keep its unstarted points occupying admission slots until
  // they all simulate into the void. Cancelling fails this client's
  // waiters, so the ticket drains promptly after the reclaim.
  while (!ticket.wait_for(0.25)) {
    if (d.stop || write_failed->load() || conn.peer_closed()) {
      const std::size_t reclaimed = d.service.cancel(client_key);
      d.log("sweep id=" + std::to_string(id) + " client=" + client_key +
            ": client gone, cancelled " + std::to_string(reclaimed) +
            " queued point(s)");
      ticket.wait();
      break;
    }
  }
  const svc::SweepTicket::Counts counts = ticket.counts();
  conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
    w.kv("type", "done");
    w.kv("id", id);
    w.kv("points", static_cast<u64>(total));
    w.kv("executed", static_cast<u64>(counts.executed));
    w.kv("store_hits", static_cast<u64>(counts.store_hits));
    w.kv("dedup_hits", static_cast<u64>(counts.dedup_hits));
    w.kv("failed", static_cast<u64>(counts.failed + bad.size()));
  })));
  std::ostringstream log;
  log << "sweep id=" << id << " client=" << client_key << " points=" << total
      << " executed=" << counts.executed
      << " store_hits=" << counts.store_hits
      << " dedup_hits=" << counts.dedup_hits
      << " failed=" << counts.failed + bad.size();
  d.log(log.str());
}

void handle_conn(Daemon& d, svc::UnixConn conn, u64 conn_id) {
  {
    std::lock_guard<std::mutex> lk(d.conns_mu);
    d.conns.insert(&conn);
  }
  std::string client_key = "conn#" + std::to_string(conn_id);
  std::string line;
  while (!d.stop && conn.read_line(&line)) {
    std::string body;
    if (!svc::proto::unframe(line, &body)) {
      d.log("client " + client_key + ": corrupt frame, dropping connection");
      break;
    }
    try {
      const JsonValue msg = json_parse(body);
      const std::string& type = msg.at("type").string;
      if (type == "hello") {
        if (msg.at("protocol").as_u64() != svc::proto::kProtocolVersion) {
          conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
            w.kv("type", "error");
            w.kv("id", u64{0});
            w.kv("index", u64{0});
            w.kv("message", "protocol version mismatch");
          })));
          break;
        }
        if (const JsonValue* name = msg.find("client")) {
          // Fairness key stays unique per connection even when many
          // clients announce the same name.
          client_key = name->string + "#" + std::to_string(conn_id);
        }
        conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
          w.kv("type", "hello");
          w.kv("protocol", svc::proto::kProtocolVersion);
          w.kv("provenance", build::provenance());
        })));
      } else if (type == "sweep") {
        handle_sweep(d, conn, msg, client_key);
      } else if (type == "stats") {
        const svc::SweepService::Stats s = d.service.stats();
        const u64 entries = d.store.size();
        conn.write_line(svc::proto::frame(compact([&](JsonWriter& w) {
          w.kv("type", "stats");
          w.kv("executed", static_cast<u64>(s.executed));
          w.kv("store_hits", static_cast<u64>(s.store_hits));
          w.kv("dedup_hits", static_cast<u64>(s.dedup_hits));
          w.kv("failed", static_cast<u64>(s.failed));
          w.kv("pending", static_cast<u64>(s.pending));
          w.kv("inflight", static_cast<u64>(s.inflight));
          w.kv("store_entries", entries);
          w.kv("provenance", build::provenance());
        })));
      } else if (type == "ping") {
        conn.write_line(svc::proto::frame("{\"type\":\"pong\"}"));
      } else if (type == "shutdown") {
        conn.write_line(svc::proto::frame("{\"type\":\"bye\"}"));
        d.log("shutdown requested by " + client_key);
        d.shutdown_all();
        break;
      } else {
        d.log("client " + client_key + ": unknown message type " + type);
        break;
      }
    } catch (const JsonParseError& e) {
      d.log("client " + client_key + ": bad message (" + e.what() +
            "), dropping connection");
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(d.conns_mu);
    d.conns.erase(&conn);
  }
}

int run_daemon(const Options& opt) {
  Daemon d(opt);
  g_listen_fd = d.listener.native_handle();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::ostringstream hello;
  hello << "virec-simd listening on " << opt.socket_path << " (store "
        << d.store.dir() << ", " << d.store.size() << " entr"
        << (d.store.size() == 1 ? "y" : "ies") << "; "
        << build::provenance() << ")";
  d.log(hello.str());

  std::vector<std::thread> handlers;
  u64 next_conn_id = 1;
  for (;;) {
    svc::UnixConn conn = d.listener.accept();
    if (!conn.valid()) break;  // listener shut down (signal or message)
    handlers.emplace_back(
        [&d, conn = std::move(conn), id = next_conn_id]() mutable {
          handle_conn(d, std::move(conn), id);
        });
    ++next_conn_id;
  }
  d.shutdown_all();
  for (std::thread& t : handlers) t.join();
  d.log("virec-simd stopped");
  return 0;
}

int run_store_verify(const Options& opt) {
  svc::ResultStore store(opt.store_dir);
  const svc::ResultStore::VerifyReport report = store.verify(opt.repair);
  std::cout << "store " << store.dir() << "\n"
            << "entries " << report.total << "\n"
            << "ok " << report.ok << "\n"
            << "corrupt " << report.corrupt << "\n"
            << "foreign " << report.foreign << "\n";
  for (const std::string& path : report.removed) {
    std::cout << "removed " << path << "\n";
  }
  return report.corrupt > 0 && !opt.repair ? 1 : 0;
}

int run_store_gc(const Options& opt) {
  svc::ResultStore store(opt.store_dir);
  const std::size_t removed = store.gc(opt.gc_keep);
  std::cout << "store " << store.dir() << "\n"
            << "removed " << removed << "\n"
            << "entries " << store.size() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      print_usage();
      return 2;
    }
    if (opt.help) {
      print_usage();
      return 0;
    }
    if (opt.version) {
      std::cout << "virec-simd\n"
                << "provenance " << build::provenance() << "\n"
                << "protocol " << svc::proto::kProtocolVersion << "\n"
                << "store_format " << svc::kStoreFormatVersion << "\n"
                << "spec_codec " << ckpt::kSpecCodecVersion << "\n";
      return 0;
    }
    if (opt.store_verify) return run_store_verify(opt);
    if (opt.store_gc) return run_store_gc(opt);
    return run_daemon(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
