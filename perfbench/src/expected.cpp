// Recorded report digests (FNV-1a 64 over the concatenated
// exploration_report_json of a pass, and over every finalist's SimStats)
// for the default seed 1 and the held-out seed 7. figures_grid ignores the
// seed. Regenerate by running a workload and copying the "report digest"
// line from stderr — only when a change is meant to alter the reports.

#include <vector>

#include "workloads.h"

namespace perfbench {

ExpectedDigests expected_digests(const std::string& workload,
                                 std::uint64_t seed, bool smoke) {
  struct Entry {
    const char* workload;
    std::uint64_t seed;  ///< 0: any seed.
    std::uint64_t report;
    std::uint64_t sim_stats;
  };
  static const std::vector<Entry> kEntries = {
      {"figures_grid", 0, 0x68fa116864e9d45full, 0xcbf29ce484222325ull},
      {"anneal_synth32", 1, 0x5976cc6bfaf5202eull, 0xcbf29ce484222325ull},
      {"anneal_synth32", 7, 0x651ce6a2adb9f83dull, 0xcbf29ce484222325ull},
      {"sim_rank_synth32", 1, 0xf8caecf6f1e33833ull, 0x7e7def37ed36977full},
      {"sim_rank_synth32", 7, 0x1708d9d241d03e71ull, 0x2179dd0ce7fb2017ull},
  };
  ExpectedDigests expected;
  if (smoke) return expected;
  for (const auto& entry : kEntries) {
    if (workload == entry.workload && (entry.seed == 0 || entry.seed == seed)) {
      expected.found = true;
      expected.report = entry.report;
      expected.sim_stats = entry.sim_stats;
    }
  }
  return expected;
}

}  // namespace perfbench
