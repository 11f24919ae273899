// Declarative experiment sweeps: build a grid of RunSpecs, run them
// all, and collect flat records that can be printed, filtered, or
// exported as CSV. The figure harnesses in bench/ are hand-rolled for
// readability; this is the programmatic interface for new studies.
//
//   sim::Sweep sweep;
//   sweep.base().workload = "gather";
//   sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
//        .over_threads({4, 8})
//        .over_context_fractions({1.0, 0.8, 0.4});
//   sim::SweepResults results = sweep.run();
//   results.write_csv(std::cout);
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runner.hpp"

namespace virec::svc {
class ResultStore;
}

namespace virec::sim {

/// One completed experiment point: the spec that produced it plus the
/// flattened result metrics.
struct SweepRecord {
  RunSpec spec;
  RunResult result;
};

/// Lookup key for an experiment point: the axes the figure harnesses
/// index results by. Encodes the context fraction by its exact bit
/// pattern so keyed lookups match the same doubles the grid was built
/// from (no epsilon comparison — sweeps reuse the literal values).
std::string sweep_key(const std::string& workload, Scheme scheme, u32 threads,
                      double fraction);

class SweepResults {
 public:
  explicit SweepResults(std::vector<SweepRecord> records);

  const std::vector<SweepRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Records matching a predicate.
  std::vector<const SweepRecord*> where(
      const std::function<bool(const SweepRecord&)>& predicate) const;

  /// Record matching (workload, scheme, threads, fraction) via the
  /// keyed index built at construction — O(1), not a rescan. Returns
  /// nullptr if absent; the first record wins when the grid visits the
  /// same point twice.
  const SweepRecord* find(const std::string& workload, Scheme scheme,
                          u32 threads, double fraction) const;

  /// Cycles of the record matching (workload, scheme, threads,
  /// fraction); nullopt if absent.
  std::optional<Cycle> cycles_of(const std::string& workload, Scheme scheme,
                                 u32 threads, double fraction) const;

  /// CSV with a fixed header:
  /// workload,scheme,policy,cores,threads,ctx,phys_regs,cycles,
  /// instructions,ipc,switches,rf_hit_rate,rf_fills,rf_spills
  void write_csv(std::ostream& os) const;

  /// JSON array of {spec: {...}, result: {...}} records — the
  /// machine-readable counterpart of write_csv for the bench/sweep
  /// pipeline (same fields, no string re-parsing).
  void write_json(std::ostream& os) const;

 private:
  std::vector<SweepRecord> records_;
  // sweep_key -> index into records_, built once by the constructor.
  std::unordered_map<std::string, std::size_t> index_;
};

class Sweep {
 public:
  /// The spec every grid point starts from.
  RunSpec& base() { return base_; }

  Sweep& over_workloads(std::vector<std::string> workloads);
  Sweep& over_schemes(std::vector<Scheme> schemes);
  Sweep& over_policies(std::vector<core::PolicyKind> policies);
  Sweep& over_threads(std::vector<u32> threads);
  Sweep& over_context_fractions(std::vector<double> fractions);
  Sweep& over_cores(std::vector<u32> cores);

  /// Number of grid points.
  std::size_t size() const;

  /// Materialise the grid (exposed for tests).
  std::vector<RunSpec> specs() const;

  /// Run every point on @p jobs worker threads (0 = hardware
  /// concurrency, 1 = serial on the calling thread); throws if any
  /// workload check fails. Results are deterministic and ordered by
  /// grid position regardless of the job count.
  ///
  /// With a @p store, points already in it are not simulated — their
  /// stored results are used instead — and every fresh completion is
  /// put into it as it lands. An interrupted sweep resumed against the
  /// same store reproduces the uninterrupted output byte for byte, and
  /// any other sweep or virec-simd sharing the store benefits too.
  ///
  /// @p on_point, when set, is invoked after each point completes —
  /// (points done so far, total points, wall seconds the completing
  /// point took; 0 for store hits, reported once up front). It may be
  /// called concurrently from worker threads: make it thread-safe.
  using SweepProgressFn =
      std::function<void(std::size_t done, std::size_t total,
                         double point_wall_secs)>;
  SweepResults run(u32 jobs = 1, svc::ResultStore* store = nullptr,
                   SweepProgressFn on_point = {}) const;

 private:
  RunSpec base_;
  std::vector<std::string> workloads_;
  std::vector<Scheme> schemes_;
  std::vector<core::PolicyKind> policies_;
  std::vector<u32> threads_;
  std::vector<double> fractions_;
  std::vector<u32> cores_;
};

}  // namespace virec::sim
