// System assembly and runner tests: offload, multi-core lockstep,
// configuration derivation.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/runner.hpp"

namespace virec::sim {
namespace {

workloads::WorkloadParams tiny_params() {
  workloads::WorkloadParams params;
  params.iters_per_thread = 32;
  params.elements = 1 << 12;
  return params;
}

TEST(SchemeNames, RoundTrip) {
  for (Scheme s : {Scheme::kBanked, Scheme::kSoftware, Scheme::kPrefetchFull,
                   Scheme::kPrefetchExact, Scheme::kViReC, Scheme::kNSF}) {
    EXPECT_EQ(parse_scheme(scheme_name(s)), s);
  }
  EXPECT_THROW(parse_scheme("bogus"), std::invalid_argument);
}

TEST(Config, NmpDefaultMatchesTable1) {
  const SystemConfig config = SystemConfig::nmp_default();
  EXPECT_EQ(config.mem.icache.size_bytes, 32u * 1024);
  EXPECT_EQ(config.mem.dcache.size_bytes, 8u * 1024);
  EXPECT_EQ(config.mem.dcache.hit_latency, 2u);
  EXPECT_EQ(config.mem.dcache.mshrs, 24u);
  EXPECT_FALSE(config.mem.has_l2);
  EXPECT_EQ(config.core.sq_entries, 5u);
  EXPECT_EQ(config.mem.dram.t_cl, 14u);
}

TEST(Config, ContextRegsScalesWithFraction) {
  EXPECT_EQ(context_regs(1.0, 6, 4), 24u);
  EXPECT_EQ(context_regs(0.5, 6, 4), 12u);
  EXPECT_EQ(context_regs(0.4, 6, 8), 20u);  // ceil(2.4 * 8)
  EXPECT_GE(context_regs(0.01, 6, 1), 4u);  // floor of 4
}

TEST(Config, ContextRegsRejectsBadFractions) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 0.0}) {
    EXPECT_THROW(context_regs(bad, 6, 4), std::invalid_argument) << bad;
  }
  // ceil(1e9 * 6 * 8) registers cannot be counted in a u32.
  EXPECT_THROW(context_regs(1e9, 6, 8), std::invalid_argument);
  EXPECT_EQ(context_regs(1e8, 6, 4), 2'400'000'000u);
  RunSpec spec;
  spec.context_fraction = std::nan("");
  EXPECT_THROW(build_config(spec), std::invalid_argument);
}

TEST(Runner, SpecDerivesPhysRegs) {
  RunSpec spec;
  spec.workload = "gather";  // active context 6
  spec.threads_per_core = 4;
  spec.context_fraction = 0.5;
  EXPECT_EQ(spec_phys_regs(spec), 12u);
  spec.phys_regs = 99;
  EXPECT_EQ(spec_phys_regs(spec), 99u);
}

TEST(Runner, BuildConfigAppliesOverrides) {
  RunSpec spec;
  spec.dcache_bytes = 2048;
  spec.dcache_latency = 5;
  spec.num_cores = 3;
  spec.policy = core::PolicyKind::kPLRU;
  const SystemConfig config = build_config(spec);
  EXPECT_EQ(config.mem.dcache.size_bytes, 2048u);
  EXPECT_EQ(config.mem.dcache.hit_latency, 5u);
  EXPECT_EQ(config.num_cores, 3u);
  EXPECT_EQ(config.virec.policy, core::PolicyKind::kPLRU);
}

TEST(System, SingleCoreRunsAndChecks) {
  RunSpec spec;
  spec.workload = "reduce";
  spec.scheme = Scheme::kViReC;
  spec.threads_per_core = 4;
  spec.params = tiny_params();
  const RunResult result = run_spec(spec);
  EXPECT_TRUE(result.check_ok);
  EXPECT_GT(result.ipc, 0.0);
}

TEST(System, MultiCorePartitionsWork) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = Scheme::kBanked;
  spec.threads_per_core = 2;
  spec.params = tiny_params();
  spec.num_cores = 4;  // 8 threads across 4 cores
  const RunResult result = run_spec(spec);
  EXPECT_TRUE(result.check_ok);
  // All four cores executed instructions.
  EXPECT_GT(result.instructions, 4u * 2u * 32u * 4u);
}

TEST(System, SharedMemoryContentionSlowsCores) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = Scheme::kBanked;
  spec.threads_per_core = 4;
  spec.params = tiny_params();
  spec.params.iters_per_thread = 128;
  spec.num_cores = 1;
  const Cycle one = run_spec(spec).cycles;
  spec.num_cores = 8;
  const Cycle eight = run_spec(spec).cycles;
  // Eight cores share the crossbar and DRAM: slower than a private run,
  // even though each core has the same per-core work.
  EXPECT_GT(eight, one);
}

TEST(System, PerCoreStatsAccessible) {
  RunSpec spec;
  spec.workload = "stride";
  spec.scheme = Scheme::kViReC;
  spec.threads_per_core = 4;
  spec.params = tiny_params();
  System system(build_config(spec), workloads::find_workload("stride"),
                spec.params);
  system.run();
  EXPECT_GT(system.core(0).cycle(), 0u);
  EXPECT_GT(system.manager(0).stats().get("rf_hits"), 0.0);
  EXPECT_GT(system.memory_system().dcache(0).stats().get("reads"), 0.0);
}

TEST(System, OffloadSeedsBackingRegion) {
  RunSpec spec;
  spec.workload = "gather";
  spec.threads_per_core = 2;
  spec.params = tiny_params();
  System system(build_config(spec), workloads::find_workload("gather"),
                spec.params);
  // Before running, thread 1's offloaded x2 (iteration count) must sit
  // in the reserved region.
  const u64 v = system.memory_system().memory().read_u64(
      system.memory_system().reg_addr(0, 1, 2));
  EXPECT_EQ(v, spec.params.iters_per_thread);
}

TEST(System, FailedCheckRaises) {
  RunSpec spec;
  spec.workload = "gather";
  spec.threads_per_core = 2;
  spec.params = tiny_params();
  System system(build_config(spec), workloads::find_workload("gather"),
                spec.params);
  // Corrupt one thread's offloaded accumulator so the result is wrong.
  system.memory_system().memory().write_u64(
      system.memory_system().reg_addr(0, 0, 3), 12345);
  const RunResult result = system.run();
  EXPECT_FALSE(result.check_ok);
  EXPECT_FALSE(result.check_msg.empty());
}

TEST(System, EverySchemeYieldsSameArchitecturalResult) {
  // The central cross-scheme property: timing machinery must never
  // change computed values.
  RunSpec spec;
  spec.workload = "triad";
  spec.threads_per_core = 4;
  spec.params = tiny_params();
  for (Scheme scheme : {Scheme::kBanked, Scheme::kSoftware,
                        Scheme::kPrefetchFull, Scheme::kPrefetchExact,
                        Scheme::kViReC, Scheme::kNSF}) {
    spec.scheme = scheme;
    const RunResult result = run_spec(spec);
    EXPECT_TRUE(result.check_ok) << scheme_name(scheme);
  }
}

TEST(System, RunnerThrowsOnCheckFailure) {
  // run_spec wraps check failures into exceptions; exercised through a
  // deliberately corrupted System is covered above, so here we just
  // confirm normal paths do not throw.
  RunSpec spec;
  spec.workload = "copy";
  spec.params = tiny_params();
  EXPECT_NO_THROW(run_spec(spec));
}

}  // namespace
}  // namespace virec::sim
