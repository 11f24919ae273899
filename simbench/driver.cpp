// simbench driver: one repetition of one benchmark workload, in a fresh
// process (run.py starts one process per repetition, so the
// process-wide StreamCache and every modelled cache start empty).
//
//   simbench_driver --workload paper_grid --wseed 42 --trace 0 \
//                   --tmp DIR [--trace-out FILE]
//
// Calls only the simulator's public API (RunSpec / run_spec_tiered,
// System, ParallelExecutor, ResultStore / SweepService, spec_hash,
// StreamCache::stats). Prints one JSON object on stdout: set-up and
// timed-phase timings, per-point outcomes (run.py checks them against
// the reference digests), layer counts read from System::registry()
// and, with --trace 1, span totals and self times. Spans are recorded
// in memory around the calls into each layer and written to
// --trace-out (Chrome trace-event JSON) when the process ends.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "svc/result_store.hpp"
#include "svc/sweep_service.hpp"
#include "tiered/func_stream.hpp"

namespace {

using namespace virec;
using sim::RunResult;
using sim::RunSpec;
using sim::Scheme;

constexpr u32 kJobs = 4;               // worker threads for pooled phases
constexpr u64 kGridIters = 25'600;     // paper scale (fig09/fig12 sizing)
constexpr u32 kSampleWindows = 10;
constexpr u64 kGather16Iters = 2'048;
constexpr u64 kTriad16Iters = 512;
constexpr int kStoreRounds = 900;      // timed re-submissions of the store
constexpr int kProbeRounds = 20;       // traced-only direct lookup rounds

const Scheme kSchemes[] = {Scheme::kBanked,       Scheme::kSoftware,
                           Scheme::kPrefetchFull, Scheme::kPrefetchExact,
                           Scheme::kViReC,        Scheme::kNSF};

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------------- tracing

enum class Phase { kSetup, kTimed, kProbe };

struct Span {
  const char* name;
  u64 id;
  u64 parent;  // 0 = root
  double t0, t1;
  u32 thread;
  Phase phase;
};

class Tracer {
 public:
  bool on = false;
  std::atomic<Phase> phase{Phase::kSetup};

  u64 open() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  u32 thread_index() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_thread_++;
  }
  void close(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<u64> next_id_{1};
  std::mutex mu_;
  u32 next_thread_ = 0;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local u64 t_open_span = 0;
thread_local u32 t_thread = ~0u;

// RAII span around one call into a layer; free when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name) {
    if (!g_tracer.on) return;
    if (t_thread == ~0u) t_thread = g_tracer.thread_index();
    span_ = {name, g_tracer.open(), t_open_span, now_s(), 0.0, t_thread,
             g_tracer.phase.load(std::memory_order_relaxed)};
    t_open_span = span_.id;
  }
  ~Scope() {
    if (span_.id == 0) return;
    span_.t1 = now_s();
    t_open_span = span_.parent;
    g_tracer.close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_{nullptr, 0, 0, 0.0, 0.0, 0, Phase::kSetup};
};

// ------------------------------------------------------------ point output

using Counts = std::map<std::string, double>;

struct PointOut {
  std::string label;
  RunResult result;         // as run_spec would report it
  double est_ipc = -1.0;    // sampled points only
  double ci_half_pct = 0.0; // sampled points only
  double latency_s = 0.0;
  double skip_efficiency = 0.0;  // traced nmp16 points only
  std::string error;
  Counts counts;
};

std::string short_label(const RunSpec& spec) {
  std::string label = spec.workload + "/" + sim::scheme_name(spec.scheme) +
                      "/" + core::policy_name(spec.policy);
  if (spec.num_cores > 1) label += "/c" + std::to_string(spec.num_cores);
  label += "/t" + std::to_string(spec.threads_per_core);
  char ctx[16];
  std::snprintf(ctx, sizeof ctx, "/x%.3g", spec.context_fraction);
  return label + ctx;
}

// Layer counts of one full-model point, summed over cores.
Counts registry_counts(const sim::System& system, const RunResult& r) {
  Counts c;
  c["cpu.instructions"] = static_cast<double>(r.instructions);
  c["cpu.context_switches"] = static_cast<double>(r.context_switches);
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    c[std::string("cpu.cpi.") + cycle_bucket_name(static_cast<CycleBucket>(b))] =
        r.cpi_stack[b];
  }
  // Stat-name suffix -> layer metric; every matching stat is summed.
  static const std::pair<const char*, const char*> kSuffix[] = {
      {".core.cycles", "cpu.core_cycles"},
      {".rf_hits", "core.rf_hits"},
      {".rf_misses", "core.rf_misses"},
      {".bsi_fills", "core.bsi_fills"},
      {".bsi_spills", "core.bsi_spills"},
      {".csl_sysreg_prefetches", "core.csl_sysreg_prefetches"},
      {".dcache.reads", "mem.dcache_accesses"},
      {".dcache.writes", "mem.dcache_accesses"},
      {".dcache.misses", "mem.dcache_misses"},
      {"dram.reads", "mem.dram_reads"},
      {"dram.writes", "mem.dram_writes"},
      {"dram.row_conflicts", "mem.dram_row_conflicts"},
      {"xbar.transfers", "mem.xbar_transfers"},
      {"xbar.contention_cycles", "mem.xbar_contention_cycles"},
  };
  // Every metric is present, 0 where the scheme has no such stat.
  for (const auto& [suffix, metric] : kSuffix) c[metric] += 0.0;
  for (const Stat& stat : system.registry().all_scalars()) {
    for (const auto& [suffix, metric] : kSuffix) {
      const std::size_t n = std::strlen(suffix);
      if (stat.name.size() >= n &&
          stat.name.compare(stat.name.size() - n, n, suffix) == 0) {
        c[metric] += stat.value;
      }
    }
  }
  return c;
}

// One full-model point through System, as run_spec does it, with spans
// around program/system build and the run.
PointOut run_full_point(const RunSpec& spec, bool heartbeat) {
  PointOut out;
  out.label = short_label(spec);
  const double t0 = now_s();
  Scope point("sim.point");
  try {
    std::unique_ptr<sim::System> system;
    {
      Scope build("sim.build");
      system = std::make_unique<sim::System>(
          sim::build_config(spec), workloads::find_workload(spec.workload),
          spec.params);
    }
    if (heartbeat) {
      // One heartbeat at the end of the run (observer only).
      system->set_progress(
          [&out](const sim::RunProgress& p) {
            out.skip_efficiency = p.skip_efficiency;
          },
          1e9);
    }
    {
      Scope run("sim.run");
      out.result = system->run();
    }
    Scope collect("bench.collect");
    if (!out.result.check_ok) {
      out.error = "workload check failed: " + out.result.check_msg;
    }
    out.counts = registry_counts(*system, out.result);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.latency_s = now_s() - t0;
  return out;
}

PointOut run_sampled_point(const RunSpec& spec) {
  PointOut out;
  out.label = short_label(spec);
  const double t0 = now_s();
  Scope point("sim.point");
  try {
    sim::TieredResult tr;
    {
      Scope run("tiered.run");
      tr = sim::run_spec_tiered(spec);
    }
    Scope collect("bench.collect");
    // The estimate through the standard fields, exactly as run_spec
    // reports a sampled point.
    out.result = tr.full;
    out.result.cycles = static_cast<Cycle>(std::llround(tr.est_cycles));
    out.result.instructions = tr.total_insts;
    out.result.ipc = tr.est_ipc;
    out.est_ipc = tr.est_ipc;
    out.ci_half_pct = tr.cpi_mean > 0 ? 100.0 * tr.cpi_ci_half / tr.cpi_mean : 0.0;
    Counts& c = out.counts;
    c["cpu.instructions"] = static_cast<double>(tr.total_insts);
    c["cpu.core_cycles"] = static_cast<double>(out.result.cycles);
    c["cpu.context_switches"] = static_cast<double>(tr.full.context_switches);
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      c[std::string("cpu.cpi.") + cycle_bucket_name(static_cast<CycleBucket>(b))] =
          tr.full.cpi_stack[b];
    }
    c["tiered.functional_s"] = tr.wall_secs_functional;
    c["tiered.detailed_s"] = tr.wall_secs_detailed;
    c["tiered.insts_detailed"] = static_cast<double>(tr.insts_detailed);
    c["tiered.insts_total"] = static_cast<double>(tr.total_insts);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.latency_s = now_s() - t0;
  return out;
}

// Run @p specs on a ParallelExecutor; every task records its own slot
// and never throws, so one failing point does not hide the others.
template <typename Fn>
std::vector<PointOut> run_pool(const std::vector<RunSpec>& specs, Fn fn) {
  std::vector<PointOut> outs(specs.size());
  sim::ParallelExecutor pool(kJobs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool.submit_task([&outs, &specs, &fn, i] {
      outs[i] = fn(specs[i]);
      return outs[i].result;
    });
  }
  pool.join();
  return outs;
}

// --------------------------------------------------------------- workloads

// The 12 scheme/policy configurations of fig09/fig12: every scheme at
// lrc, plus virec under each of the 6 other policies.
std::vector<RunSpec> scheme_policy_variants(const RunSpec& base) {
  std::vector<RunSpec> specs;
  for (Scheme scheme : kSchemes) {
    RunSpec spec = base;
    spec.scheme = scheme;
    spec.policy = core::PolicyKind::kLRC;
    specs.push_back(spec);
  }
  for (core::PolicyKind policy : core::all_policies()) {
    if (policy == core::PolicyKind::kLRC) continue;
    RunSpec spec = base;
    spec.scheme = Scheme::kViReC;
    spec.policy = policy;
    specs.push_back(spec);
  }
  return specs;
}

// {gather, hist} x 12 configurations at paper scale, ctx 0.8.
std::vector<RunSpec> paper_grid_specs(u64 wseed) {
  std::vector<RunSpec> specs;
  for (const char* workload : {"gather", "hist"}) {
    RunSpec base;
    base.workload = workload;
    base.context_fraction = 0.8;
    base.params.iters_per_thread = kGridIters;
    base.params.seed = wseed;
    const std::vector<RunSpec> variants = scheme_policy_variants(base);
    specs.insert(specs.end(), variants.begin(), variants.end());
  }
  return specs;
}

std::vector<RunSpec> nmp16_specs(u64 wseed) {
  std::vector<RunSpec> specs;
  for (const auto& [workload, iters] :
       {std::pair<const char*, u64>{"gather", kGather16Iters},
        std::pair<const char*, u64>{"triad", kTriad16Iters}}) {
    RunSpec spec;
    spec.workload = workload;
    spec.scheme = Scheme::kViReC;
    spec.num_cores = 16;
    spec.threads_per_core = 8;
    spec.context_fraction = 0.8;
    spec.params.iters_per_thread = iters;
    spec.params.seed = wseed;
    specs.push_back(spec);
  }
  return specs;
}

// Distinct default-sizing points: 4 workloads x 3 context fractions x
// 2 thread counts x 12 configurations = 288.
std::vector<RunSpec> store_specs(u64 wseed) {
  std::vector<RunSpec> specs;
  for (const char* workload : {"gather", "hist", "triad", "spmv"}) {
    for (double ctx : {0.6, 0.8, 1.0}) {
      for (u32 threads : {4u, 8u}) {
        RunSpec base;
        base.workload = workload;
        base.context_fraction = ctx;
        base.threads_per_core = threads;
        base.params.seed = wseed;
        const std::vector<RunSpec> variants = scheme_policy_variants(base);
        specs.insert(specs.end(), variants.begin(), variants.end());
      }
    }
  }
  return specs;
}

bool same_result(const RunResult& a, const RunResult& b) {
  ckpt::Encoder ea, eb;
  ckpt::encode_result(ea, a);
  ckpt::encode_result(eb, b);
  return ea.bytes() == eb.bytes();
}

// --------------------------------------------------------------- reporting

struct Report {
  std::string workload;
  u64 wseed = 0;
  bool traced = false;
  u32 lanes = 1;
  double t_ready = 0.0;  // CLOCK_MONOTONIC at the start of the timed phase
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<PointOut> points;      // checked against reference digests
  std::vector<double> latencies_us;  // one per timed operation
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  Counts counts;                     // layer counts (timed phase)
  double skip_efficiency = -1.0;
  sim::StreamCache::Stats stream{};
};

void fail(Report& rep, const std::string& what) {
  ++rep.failed;
  if (rep.errors.size() < 8) rep.errors.push_back(what);
}

void account_points(Report& rep, const std::vector<PointOut>& points,
                    bool timed) {
  for (const PointOut& p : points) {
    ++rep.attempted;
    if (!p.error.empty()) fail(rep, p.label + ": " + p.error);
    if (timed) {
      rep.latencies_us.push_back(1e6 * p.latency_s);
      for (const auto& [name, value] : p.counts) rep.counts[name] += value;
    }
  }
}

void write_map(JsonWriter& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [name, value] : m) w.kv(name, value);
  w.end_object();
}

// Per-phase span totals (seconds, calls, longest) by name, plus the
// self-time split of the timed phase: each span's self time (duration
// minus its direct children) divided by the number of lanes doing work,
// so self times + unattributed == wall.
void write_span_summary(JsonWriter& w, const Report& rep) {
  std::map<u64, double> child_time;
  for (const Span& s : g_tracer.spans()) {
    if (s.parent != 0) child_time[s.parent] += s.t1 - s.t0;
  }
  struct Totals {
    std::map<std::string, double> total, calls, longest;
  };
  std::map<Phase, Totals> by_phase;
  std::map<std::string, double> self;
  double self_sum = 0.0;
  for (const Span& s : g_tracer.spans()) {
    const double dur = s.t1 - s.t0;
    Totals& t = by_phase[s.phase];
    t.total[s.name] += dur;
    t.calls[s.name] += 1;
    t.longest[s.name] = std::max(t.longest[s.name], dur);
    if (s.phase != Phase::kTimed) continue;
    const double own = (dur - child_time[s.id]) / rep.lanes;
    self[s.name] += own;
    self_sum += own;
  }
  w.begin_object();
  for (const auto& [phase, name] :
       {std::pair{Phase::kSetup, "setup"}, std::pair{Phase::kTimed, "timed"},
        std::pair{Phase::kProbe, "probe"}}) {
    const Totals& t = by_phase[phase];
    w.key(name);
    w.begin_object();
    w.key("total_s");
    write_map(w, t.total);
    w.key("calls");
    write_map(w, t.calls);
    w.key("longest_s");
    write_map(w, t.longest);
    w.end_object();
  }
  w.key("self_s");
  write_map(w, self);
  w.kv("unattributed_s", rep.wall_s - self_sum);
  w.end_object();
}

// Peak resident set of this process image, in MB. Not ru_maxrss: exec
// carries the parent's peak over into it, so it would report run.py's
// own memory whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_report(const Report& rep) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("workload", rep.workload);
  w.kv("wseed", rep.wseed);
  w.kv("traced", rep.traced);
  w.kv("build_type", SIMBENCH_BUILD_TYPE);
  w.kv("compiler", SIMBENCH_COMPILER);
  w.kv("lanes", rep.lanes);
  w.kv("t_ready", rep.t_ready);
  w.kv("wall_s", rep.wall_s);
  w.kv("cpu_s", rep.cpu_s);
  w.kv("peak_rss_mb", peak_rss_mb());
  w.kv("attempted", rep.attempted);
  w.kv("failed", rep.failed);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : rep.errors) w.value(e);
  w.end_array();
  w.key("points");
  w.begin_array();
  for (const PointOut& p : rep.points) {
    w.begin_object();
    w.kv("label", p.label);
    w.kv("cycles", p.result.cycles);
    w.kv("instructions", p.result.instructions);
    w.kv("ipc", p.result.ipc);
    w.kv("est_ipc", p.est_ipc);
    w.kv("ci_half_pct", p.ci_half_pct);
    w.key("cpi");
    w.begin_array();
    for (double c : p.result.cpi_stack) w.value(c);
    w.end_array();
    w.kv("error", p.error);
    w.end_object();
  }
  w.end_array();
  w.key("latencies_us");
  w.begin_array();
  for (double l : rep.latencies_us) w.value(l);
  w.end_array();
  w.key("counts");
  write_map(w, rep.counts);
  w.kv("skip_efficiency", rep.skip_efficiency);
  w.key("stream");
  w.begin_object();
  w.kv("built", rep.stream.built);
  w.kv("mem_hits", rep.stream.mem_hits);
  w.end_object();
  if (rep.traced) {
    w.key("spans");
    write_span_summary(w, rep);
  }
  w.end_object();
  std::printf("%s\n", os.str().c_str());
}

// Chrome trace-event JSON (open in Perfetto): one complete event per span.
void write_trace(const std::string& path, double epoch) {
  std::ofstream f(path);
  JsonWriter w(f, 0);
  w.begin_array();
  for (const Span& s : g_tracer.spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", s.thread);
    w.kv("ts", 1e6 * (s.t0 - epoch));
    w.kv("dur", 1e6 * (s.t1 - s.t0));
    w.key("args");
    w.begin_object();
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  f << "\n";
  if (!f) throw std::runtime_error("cannot write trace " + path);
}

// Marks the start and end of the timed phase.
void begin_timed(Report& rep) {
  rep.cpu_s = cpu_now_s();
  g_tracer.phase = Phase::kTimed;
  rep.t_ready = now_s();
}

void end_timed(Report& rep) {
  rep.wall_s = now_s() - rep.t_ready;
  rep.cpu_s = cpu_now_s() - rep.cpu_s;
  g_tracer.phase = Phase::kProbe;
}

void run_paper_grid(Report& rep) {
  const std::vector<RunSpec> specs = paper_grid_specs(rep.wseed);
  rep.lanes = kJobs;
  begin_timed(rep);
  rep.points = run_pool(specs, [](const RunSpec& s) {
    return run_full_point(s, false);
  });
  end_timed(rep);
  account_points(rep, rep.points, true);
}

void run_sampled_grid(Report& rep) {
  std::vector<RunSpec> specs = paper_grid_specs(rep.wseed);
  for (RunSpec& spec : specs) {
    spec.sample_windows = kSampleWindows;
    spec.stream_reuse = true;
  }
  rep.lanes = kJobs;
  begin_timed(rep);
  rep.points = run_pool(specs, run_sampled_point);
  end_timed(rep);
  account_points(rep, rep.points, true);
  rep.stream = sim::StreamCache::instance().stats();
  // One golden stream per functional identity (gather, hist); more
  // means reuse broke, fewer means a stream leaked in from elsewhere.
  ++rep.attempted;
  if (rep.stream.built != 2) {
    fail(rep, "stream_builds " + std::to_string(rep.stream.built) + " != 2");
  }
}

void run_nmp16(Report& rep) {
  const std::vector<RunSpec> specs = nmp16_specs(rep.wseed);
  rep.lanes = 1;
  begin_timed(rep);
  for (const RunSpec& spec : specs) {
    // The skip-efficiency heartbeat is an observer: traced run only.
    rep.points.push_back(run_full_point(spec, rep.traced));
  }
  end_timed(rep);
  account_points(rep, rep.points, true);
  if (rep.traced) {
    // Cycles fast-forwarded / elapsed, weighted by each point's cycles.
    double skipped = 0.0, cycles = 0.0;
    for (const PointOut& p : rep.points) {
      skipped += p.skip_efficiency * static_cast<double>(p.result.cycles);
      cycles += static_cast<double>(p.result.cycles);
    }
    rep.skip_efficiency = cycles > 0 ? skipped / cycles : 0.0;
  }
}

void run_store_warm(Report& rep, const std::string& tmp) {
  const std::vector<RunSpec> specs = store_specs(rep.wseed);
  svc::ResultStore store(tmp + "/store");
  // Set-up: execute every point once and persist it.
  rep.points = run_pool(specs, [](const RunSpec& s) {
    return run_full_point(s, false);
  });
  account_points(rep, rep.points, false);
  std::vector<u64> hashes(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    hashes[i] = ckpt::spec_hash(specs[i]);
    if (!rep.points[i].error.empty()) continue;
    Scope put("svc.put");
    store.put(hashes[i], specs[i], rep.points[i].result,
              rep.points[i].latency_s);
  }

  // Timed: every point re-requested through fresh services, one
  // single-point request at a time (a closed loop of one client); each
  // must be a disk-store hit carrying the set-up result bit-exactly.
  rep.lanes = 1;
  // Every request is a hit served inside submit(), so the service's
  // executor threads stay idle; one is enough (the default).
  const svc::ServiceConfig config;
  double instructions = 0.0;
  begin_timed(rep);
  for (int round = 0; round < kStoreRounds; ++round) {
    Scope service_scope("svc.service");
    svc::SweepService service(config, &store);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double t = now_s();
      RunResult got;
      bool delivered = false;
      svc::PointSource source = svc::PointSource::kExecuted;
      {
        Scope submit("svc.submit");
        svc::SweepTicket ticket = service.submit(
            "simbench", {specs[i]},
            [&](std::size_t, const RunResult* r, svc::PointSource src,
                const std::string&) {
              if (r != nullptr) got = *r;
              delivered = r != nullptr;
              source = src;
            });
        ticket.wait();
      }
      rep.latencies_us.push_back(1e6 * (now_s() - t));
      ++rep.attempted;
      if (!delivered || source != svc::PointSource::kStoreHit) {
        fail(rep, rep.points[i].label + ": not served as a store hit");
      } else if (!same_result(got, rep.points[i].result)) {
        fail(rep, rep.points[i].label + ": store hit differs from its run");
      }
      instructions += static_cast<double>(got.instructions);
    }
  }
  end_timed(rep);
  rep.counts["svc.points_served"] = static_cast<double>(rep.latencies_us.size());
  rep.counts["cpu.instructions_served"] = instructions;

  if (rep.traced) {
    // Direct layer calls, outside the timed phase: per-call latency of
    // the key hash and of a verified store read.
    for (int round = 0; round < kProbeRounds; ++round) {
      for (const RunSpec& spec : specs) {
        u64 h;
        {
          Scope hash("ckpt.spec_hash");
          h = ckpt::spec_hash(spec);
        }
        RunResult r;
        Scope lookup("svc.lookup");
        if (!store.lookup(h, spec, &r)) fail(rep, "direct lookup missed");
      }
    }
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench_driver: %s\nusage: simbench_driver --workload "
               "{paper_grid|sampled_grid|nmp16|store_warm} --wseed N "
               "--trace {0|1} --tmp DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const double t0 = now_s();
  Report rep;
  std::string tmp, trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      rep.workload = value;
    } else if (arg == "--wseed") {
      rep.wseed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      rep.traced = value == "1";
    } else if (arg == "--tmp") {
      tmp = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || tmp.empty()) usage("--wseed and --tmp are required");
  g_tracer.on = rep.traced;
  try {
    if (rep.workload == "paper_grid") {
      run_paper_grid(rep);
    } else if (rep.workload == "sampled_grid") {
      run_sampled_grid(rep);
    } else if (rep.workload == "nmp16") {
      run_nmp16(rep);
    } else if (rep.workload == "store_warm") {
      run_store_warm(rep, tmp);
    } else {
      usage(("unknown workload " + rep.workload).c_str());
    }
    if (rep.traced && !trace_out.empty()) write_trace(trace_out, t0);
    print_report(rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
