#include "sim/system_config.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace virec::sim {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBanked: return "banked";
    case Scheme::kSoftware: return "software";
    case Scheme::kPrefetchFull: return "prefetch-full";
    case Scheme::kPrefetchExact: return "prefetch-exact";
    case Scheme::kViReC: return "virec";
    case Scheme::kNSF: return "nsf";
  }
  return "?";
}

Scheme parse_scheme(const std::string& name) {
  for (Scheme s : {Scheme::kBanked, Scheme::kSoftware, Scheme::kPrefetchFull,
                   Scheme::kPrefetchExact, Scheme::kViReC, Scheme::kNSF}) {
    if (name == scheme_name(s)) return s;
  }
  throw std::invalid_argument("unknown scheme '" + name + "'");
}

SystemConfig SystemConfig::nmp_default() {
  SystemConfig config;
  config.num_cores = 1;
  config.threads_per_core = 8;
  config.scheme = Scheme::kViReC;
  config.core.num_threads = 8;
  config.core.sq_entries = 5;
  // Table 1 memory system: 32 kB 4-way icache (2 cycles), 8 kB 4-way
  // dcache (2 cycles, 24 MSHRs), crossbar to 2-channel DDR5-6400.
  config.mem.num_cores = 1;
  config.mem.icache = mem::CacheConfig{.name = "icache",
                                       .size_bytes = 32 * 1024,
                                       .assoc = 4,
                                       .hit_latency = 2,
                                       .mshrs = 8};
  config.mem.dcache = mem::CacheConfig{.name = "dcache",
                                       .size_bytes = 8 * 1024,
                                       .assoc = 4,
                                       .hit_latency = 2,
                                       .mshrs = 24};
  config.mem.has_l2 = false;
  return config;
}

u32 context_regs(double fraction, u32 active_regs, u32 threads) {
  std::ostringstream why;
  why << "context fraction " << fraction;
  if (!std::isfinite(fraction) || fraction <= 0.0) {
    why << " is not a finite number > 0";
    throw std::invalid_argument(why.str());
  }
  const double per_thread = fraction * static_cast<double>(active_regs);
  const double total = std::ceil(per_thread * static_cast<double>(threads));
  if (total > static_cast<double>(std::numeric_limits<u32>::max())) {
    why << " needs " << total << " physical registers (max 4294967295)";
    throw std::invalid_argument(why.str());
  }
  return std::max<u32>(static_cast<u32>(total), 4);
}

}  // namespace virec::sim
