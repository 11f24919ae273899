// Sweep utility tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "sim/sweep.hpp"
#include "svc/result_store.hpp"
#include "svc/sweep_service.hpp"

namespace virec::sim {
namespace {

Sweep tiny_sweep() {
  Sweep sweep;
  sweep.base().workload = "reduce";
  sweep.base().params.iters_per_thread = 32;
  sweep.base().params.elements = 1 << 12;
  return sweep;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Sweep::run against @p store; *executed counts the points it
/// simulated (store hits report 0 s, once, up front).
SweepResults run_counting(const Sweep& sweep, u32 jobs,
                          svc::ResultStore* store, std::size_t* executed) {
  std::atomic<std::size_t> runs{0};
  SweepResults results =
      sweep.run(jobs, store, [&runs](std::size_t, std::size_t, double secs) {
        if (secs > 0.0) ++runs;
      });
  *executed = runs.load();
  return results;
}

TEST(Sweep, GridSizeIsProduct) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_threads({2, 4})
      .over_context_fractions({1.0, 0.5, 0.25});
  EXPECT_EQ(sweep.size(), 12u);
  EXPECT_EQ(sweep.specs().size(), 12u);
}

TEST(Sweep, MissingAxesUseBase) {
  Sweep sweep = tiny_sweep();
  sweep.base().threads_per_core = 3;
  sweep.over_schemes({Scheme::kViReC});
  const std::vector<RunSpec> specs = sweep.specs();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].threads_per_core, 3u);
  EXPECT_EQ(specs[0].workload, "reduce");
}

TEST(Sweep, RunProducesOneRecordPerPoint) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2, 4});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 4u);
  for (const SweepRecord& record : results.records()) {
    EXPECT_TRUE(record.result.check_ok);
    EXPECT_GT(record.result.cycles, 0u);
  }
}

TEST(Sweep, CyclesLookup) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2});
  const SweepResults results = sweep.run();
  EXPECT_TRUE(
      results.cycles_of("reduce", Scheme::kBanked, 2, 1.0).has_value());
  EXPECT_FALSE(
      results.cycles_of("gather", Scheme::kBanked, 2, 1.0).has_value());
}

TEST(Sweep, WhereFilters) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2, 4});
  const SweepResults results = sweep.run();
  const auto banked = results.where([](const SweepRecord& r) {
    return r.spec.scheme == Scheme::kBanked;
  });
  EXPECT_EQ(banked.size(), 2u);
}

TEST(Sweep, CsvHasHeaderAndRows) {
  Sweep sweep = tiny_sweep();
  sweep.over_threads({2});
  const SweepResults results = sweep.run();
  std::ostringstream os;
  results.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("workload,scheme,policy"), std::string::npos);
  EXPECT_NE(csv.find("reduce,virec,lrc"), std::string::npos);
  // header + 1 row
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Sweep, PolicyAxis) {
  Sweep sweep = tiny_sweep();
  sweep.base().scheme = Scheme::kViReC;
  sweep.base().context_fraction = 0.5;
  sweep.over_policies(
      {core::PolicyKind::kPLRU, core::PolicyKind::kLRC});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results.records()[0].spec.policy, core::PolicyKind::kPLRU);
  EXPECT_EQ(results.records()[1].spec.policy, core::PolicyKind::kLRC);
}

TEST(Sweep, CoresAxisRunsMulticore) {
  Sweep sweep = tiny_sweep();
  sweep.over_cores({1, 2});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.records()[1].result.check_ok);
}

TEST(Sweep, FindUsesKeyedIndex) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_context_fractions({1.0, 0.5});
  const SweepResults results = sweep.run();
  const SweepRecord* hit = results.find("reduce", Scheme::kViReC, 8, 0.5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->spec.scheme, Scheme::kViReC);
  EXPECT_EQ(hit->spec.context_fraction, 0.5);
  EXPECT_EQ(hit->result.cycles,
            results.cycles_of("reduce", Scheme::kViReC, 8, 0.5).value());
  EXPECT_EQ(results.find("reduce", Scheme::kViReC, 8, 0.7), nullptr);
  EXPECT_EQ(results.find("gather", Scheme::kViReC, 8, 0.5), nullptr);
}

TEST(Sweep, ParallelRunIsByteIdenticalToSerial) {
  // Mixed scheme/policy grid; the CSV and JSON documents must come out
  // byte-identical whatever the job count.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_policies({core::PolicyKind::kPLRU, core::PolicyKind::kLRC})
      .over_threads({2, 4})
      .over_context_fractions({1.0, 0.5});
  const SweepResults serial = sweep.run(1);
  const SweepResults parallel = sweep.run(4);
  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);

  std::ostringstream csv1, csv4, json1, json4;
  serial.write_csv(csv1);
  parallel.write_csv(csv4);
  serial.write_json(json1);
  parallel.write_json(json4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(json1.str(), json4.str());
}

TEST(Sweep, FailingPointPropagatesFromParallelRun) {
  Sweep sweep = tiny_sweep();
  sweep.over_workloads({"reduce", "no-such-kernel", "gather"})
      .over_threads({2, 4});
  // Must throw (unknown workload, wrapped with the point's spec label)
  // and terminate — no deadlocked join.
  EXPECT_THROW(sweep.run(4), std::runtime_error);
  try {
    sweep.run(1);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("workload=no-such-kernel"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ResumedRunIsByteIdenticalToUninterrupted) {
  // Simulate a killed sweep: store only half the grid, then resume
  // against the same store. The resumed CSV and JSON must reproduce an
  // uninterrupted run byte for byte.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_policies({core::PolicyKind::kPLRU, core::PolicyKind::kLRC})
      .over_threads({2, 4});
  const std::string dir = fresh_dir("sweep_resume");

  const SweepResults clean = sweep.run(2);

  {
    // "First run, killed partway": the first half of the grid is stored.
    svc::ResultStore store(dir);
    const std::vector<RunSpec> grid = sweep.specs();
    for (std::size_t i = 0; i < grid.size() / 2; ++i) {
      store.put(ckpt::spec_hash(grid[i]), grid[i], run_spec(grid[i]));
    }
  }

  svc::ResultStore store(dir);
  EXPECT_EQ(store.size(), sweep.size() / 2);
  std::size_t executed = 0;
  const SweepResults resumed = run_counting(sweep, 2, &store, &executed);
  EXPECT_EQ(executed, sweep.size() - sweep.size() / 2);

  std::ostringstream csv_clean, csv_resumed, json_clean, json_resumed;
  clean.write_csv(csv_clean);
  resumed.write_csv(csv_resumed);
  clean.write_json(json_clean);
  resumed.write_json(json_resumed);
  EXPECT_EQ(csv_clean.str(), csv_resumed.str());
  EXPECT_EQ(json_clean.str(), json_resumed.str());

  // The resume stored the other half, so a second resume runs nothing
  // new and still reproduces the same documents.
  svc::ResultStore full(dir);
  EXPECT_EQ(full.size(), sweep.size());
  const SweepResults replay = run_counting(sweep, 1, &full, &executed);
  EXPECT_EQ(executed, 0u);
  std::ostringstream csv_replay;
  replay.write_csv(csv_replay);
  EXPECT_EQ(csv_clean.str(), csv_replay.str());
  std::filesystem::remove_all(dir);
}

TEST(Sweep, DuplicateGridPointsSimulateOnce) {
  // A threads axis with repeated values collapses to two unique points;
  // the output must still carry one row per grid index, with duplicate
  // rows byte-identical to their representative.
  Sweep sweep = tiny_sweep();
  sweep.over_threads({2, 2, 4, 2});

  const SweepResults results = sweep.run(2);
  ASSERT_EQ(results.size(), 4u);
  std::ostringstream csv_os;
  results.write_csv(csv_os);
  const std::string csv = csv_os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_EQ(results.records()[0].result.cycles,
            results.records()[1].result.cycles);
  EXPECT_EQ(results.records()[0].result.cycles,
            results.records()[3].result.cycles);

  // With a store, only the unique points are stored — and the
  // progress callback still reports every grid index as done.
  const std::string dir = fresh_dir("sweep_dup");
  svc::ResultStore store(dir);
  std::atomic<std::size_t> last_done{0};
  sweep.run(1, &store, [&last_done](std::size_t done, std::size_t, double) {
    last_done = done;
  });
  EXPECT_EQ(last_done.load(), 4u);
  EXPECT_EQ(store.size(), 2u);  // one entry per unique point

  // Resuming from that store runs nothing and reproduces the same CSV.
  std::size_t executed = 0;
  const SweepResults resumed = run_counting(sweep, 1, &store, &executed);
  EXPECT_EQ(executed, 0u);
  std::ostringstream csv_resumed;
  resumed.write_csv(csv_resumed);
  EXPECT_EQ(csv, csv_resumed.str());
  std::filesystem::remove_all(dir);
}

TEST(Sweep, ResumesFromStoreFilledByService) {
  // One store serves every consumer: a grid a SweepService (the
  // virec-simd core) executed resumes as a local sweep with nothing
  // left to simulate, and reproduces the service's results exactly.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2, 4});
  const std::string dir = fresh_dir("sweep_from_service");
  svc::ResultStore store(dir);
  {
    svc::SweepService service(svc::ServiceConfig{}, &store);
    svc::SweepTicket ticket = service.submit(
        "test", sweep.specs(),
        [](std::size_t, const RunResult*, svc::PointSource,
           const std::string&) {});
    ticket.wait();
    EXPECT_EQ(ticket.counts().executed, sweep.size());
  }

  std::size_t executed = 0;
  const SweepResults resumed = run_counting(sweep, 2, &store, &executed);
  EXPECT_EQ(executed, 0u);
  std::ostringstream csv_clean, csv_resumed;
  sweep.run(1).write_csv(csv_clean);
  resumed.write_csv(csv_resumed);
  EXPECT_EQ(csv_clean.str(), csv_resumed.str());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace virec::sim
