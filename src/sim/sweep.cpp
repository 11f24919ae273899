#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <unordered_map>

#include "ckpt/spec_codec.hpp"
#include "common/cycle_account.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "svc/result_store.hpp"

namespace virec::sim {

std::string sweep_key(const std::string& workload, Scheme scheme, u32 threads,
                      double fraction) {
  u64 fraction_bits;
  std::memcpy(&fraction_bits, &fraction, sizeof fraction_bits);
  std::string key = workload;
  key += '\0';
  key += std::to_string(static_cast<int>(scheme));
  key += '\0';
  key += std::to_string(threads);
  key += '\0';
  key += std::to_string(fraction_bits);
  return key;
}

SweepResults::SweepResults(std::vector<SweepRecord> records)
    : records_(std::move(records)) {
  index_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const RunSpec& s = records_[i].spec;
    // emplace: first record for a key wins, matching the old linear
    // scan's front-to-back behaviour.
    index_.emplace(sweep_key(s.workload, s.scheme, s.threads_per_core,
                             s.context_fraction),
                   i);
  }
}

std::vector<const SweepRecord*> SweepResults::where(
    const std::function<bool(const SweepRecord&)>& predicate) const {
  std::vector<const SweepRecord*> out;
  for (const SweepRecord& record : records_) {
    if (predicate(record)) out.push_back(&record);
  }
  return out;
}

const SweepRecord* SweepResults::find(const std::string& workload,
                                      Scheme scheme, u32 threads,
                                      double fraction) const {
  const auto it = index_.find(sweep_key(workload, scheme, threads, fraction));
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::optional<Cycle> SweepResults::cycles_of(const std::string& workload,
                                             Scheme scheme, u32 threads,
                                             double fraction) const {
  const SweepRecord* record = find(workload, scheme, threads, fraction);
  if (record == nullptr) return std::nullopt;
  return record->result.cycles;
}

void SweepResults::write_csv(std::ostream& os) const {
  os << "workload,scheme,policy,cores,threads,ctx,phys_regs,cycles,"
        "instructions,ipc,switches,rf_hit_rate,rf_fills,rf_spills";
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    os << ",cpi_" << cycle_bucket_name(static_cast<CycleBucket>(b));
  }
  os << '\n';
  for (const SweepRecord& r : records_) {
    os << r.spec.workload << ',' << scheme_name(r.spec.scheme) << ','
       << core::policy_name(r.spec.policy) << ',' << r.spec.num_cores << ','
       << r.spec.threads_per_core << ',' << r.spec.context_fraction << ','
       << spec_phys_regs(r.spec) << ',' << r.result.cycles << ','
       << r.result.instructions << ',' << r.result.ipc << ','
       << r.result.context_switches << ',' << r.result.rf_hit_rate << ','
       << r.result.rf_fills << ',' << r.result.rf_spills;
    // CPI-stack columns: each bucket's cycles per committed instruction
    // (their sum is the point's total CPI).
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      os << ','
         << (r.result.instructions == 0
                 ? 0.0
                 : r.result.cpi_stack[b] /
                       static_cast<double>(r.result.instructions));
    }
    os << '\n';
  }
}

void SweepResults::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_array();
  for (const SweepRecord& r : records_) {
    w.begin_object();
    w.key("spec");
    w.begin_object();
    w.kv("workload", r.spec.workload);
    w.kv("scheme", scheme_name(r.spec.scheme));
    w.kv("policy", core::policy_name(r.spec.policy));
    w.kv("cores", r.spec.num_cores);
    w.kv("threads", r.spec.threads_per_core);
    w.kv("ctx", r.spec.context_fraction);
    w.kv("phys_regs", spec_phys_regs(r.spec));
    w.end_object();
    w.key("result");
    w.begin_object();
    w.kv("cycles", r.result.cycles);
    w.kv("instructions", r.result.instructions);
    w.kv("ipc", r.result.ipc);
    w.kv("context_switches", r.result.context_switches);
    w.kv("rf_hit_rate", r.result.rf_hit_rate);
    w.kv("rf_fills", r.result.rf_fills);
    w.kv("rf_spills", r.result.rf_spills);
    w.kv("check_ok", r.result.check_ok);
    w.key("cpi_stack");
    w.begin_object();
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      w.kv(cycle_bucket_name(static_cast<CycleBucket>(b)),
           r.result.cpi_stack[b]);
    }
    w.end_object();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  os << "\n";
}

Sweep& Sweep::over_workloads(std::vector<std::string> workloads) {
  workloads_ = std::move(workloads);
  return *this;
}
Sweep& Sweep::over_schemes(std::vector<Scheme> schemes) {
  schemes_ = std::move(schemes);
  return *this;
}
Sweep& Sweep::over_policies(std::vector<core::PolicyKind> policies) {
  policies_ = std::move(policies);
  return *this;
}
Sweep& Sweep::over_threads(std::vector<u32> threads) {
  threads_ = std::move(threads);
  return *this;
}
Sweep& Sweep::over_context_fractions(std::vector<double> fractions) {
  fractions_ = std::move(fractions);
  return *this;
}
Sweep& Sweep::over_cores(std::vector<u32> cores) {
  cores_ = std::move(cores);
  return *this;
}

std::size_t Sweep::size() const {
  auto dim = [](std::size_t n) { return n == 0 ? 1 : n; };
  return dim(workloads_.size()) * dim(schemes_.size()) *
         dim(policies_.size()) * dim(threads_.size()) *
         dim(fractions_.size()) * dim(cores_.size());
}

std::vector<RunSpec> Sweep::specs() const {
  // Missing axes fall back to the base spec's value.
  const std::vector<std::string> workloads =
      workloads_.empty() ? std::vector<std::string>{base_.workload}
                         : workloads_;
  const std::vector<Scheme> schemes =
      schemes_.empty() ? std::vector<Scheme>{base_.scheme} : schemes_;
  const std::vector<core::PolicyKind> policies =
      policies_.empty() ? std::vector<core::PolicyKind>{base_.policy}
                        : policies_;
  const std::vector<u32> threads =
      threads_.empty() ? std::vector<u32>{base_.threads_per_core} : threads_;
  const std::vector<double> fractions =
      fractions_.empty() ? std::vector<double>{base_.context_fraction}
                         : fractions_;
  const std::vector<u32> cores =
      cores_.empty() ? std::vector<u32>{base_.num_cores} : cores_;

  std::vector<RunSpec> out;
  for (const std::string& w : workloads) {
    for (Scheme s : schemes) {
      for (core::PolicyKind p : policies) {
        for (u32 t : threads) {
          for (double f : fractions) {
            for (u32 c : cores) {
              RunSpec spec = base_;
              spec.workload = w;
              spec.scheme = s;
              spec.policy = p;
              spec.threads_per_core = t;
              spec.context_fraction = f;
              spec.num_cores = c;
              out.push_back(spec);
            }
          }
        }
      }
    }
  }
  return out;
}

SweepResults Sweep::run(u32 jobs, svc::ResultStore* store,
                        SweepProgressFn on_point) const {
  std::vector<RunSpec> grid = specs();
  std::vector<RunResult> results(grid.size());
  // Group grid indices by identity hash: a grid whose axes collapse to
  // the same point (repeated list values, axes the scheme ignores)
  // simulates each unique point once and copies the result to every
  // duplicate index. CSV/JSON output is unchanged — every grid row is
  // still emitted, duplicates just share one execution.
  std::vector<u64> hashes(grid.size());
  std::unordered_map<u64, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    hashes[i] = ckpt::spec_hash(grid[i]);
    groups[hashes[i]].push_back(i);
  }
  auto scatter = [&](std::size_t rep) {
    const std::vector<std::size_t>& members = groups[hashes[rep]];
    for (std::size_t m = 1; m < members.size(); ++m) {
      results[members[m]] = results[members[0]];
    }
  };
  // Serve what the store already holds; run the rest, putting each
  // fresh completion as it lands (crash-safe progress). Results are
  // reassembled in grid order either way.
  std::vector<std::size_t> pending;
  std::size_t pending_points = 0;  // including duplicate indices
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (groups[hashes[i]].front() != i) continue;
    if (store != nullptr && store->lookup(hashes[i], grid[i], &results[i])) {
      scatter(i);
    } else {
      pending.push_back(i);
      pending_points += groups[hashes[i]].size();
    }
  }
  const std::size_t total = grid.size();
  // Shared across worker threads: points completed so far. Store hits
  // count as done immediately (one up-front heartbeat).
  auto done =
      std::make_shared<std::atomic<std::size_t>>(total - pending_points);
  if (on_point && done->load() > 0) on_point(done->load(), total, 0.0);
  ParallelExecutor pool(jobs);
  for (const std::size_t idx : pending) {
    const RunSpec& spec = grid[idx];
    const std::size_t copies = groups[hashes[idx]].size();
    pool.submit_task(
        [spec, store, on_point, done, total, copies, hash = hashes[idx]] {
          const auto t0 = std::chrono::steady_clock::now();
          RunResult result = run_spec(spec);
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          if (store != nullptr) store->put(hash, spec, result, secs);
          if (on_point) on_point(done->fetch_add(copies) + copies, total, secs);
          return result;
        },
        spec_label(spec));
  }
  std::vector<RunResult> fresh = pool.join();
  for (std::size_t j = 0; j < pending.size(); ++j) {
    results[pending[j]] = std::move(fresh[j]);
    scatter(pending[j]);
  }
  std::vector<SweepRecord> records;
  records.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    records.push_back(SweepRecord{std::move(grid[i]), std::move(results[i])});
  }
  return SweepResults(std::move(records));
}

}  // namespace virec::sim
