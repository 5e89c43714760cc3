// chaos_soak: run N seeded chaos scenarios against the simulated cluster
// and write a JSON report. Every scenario is a pure function of its seed,
// so a soak failure ships its own reproducer:
//
//   ./chaos_soak --seeds 200 --base-seed 1 --out chaos_report.json
//   ./chaos_soak --seed 137            # replay one failing seed, verbose
//   ./chaos_soak --seeds 50 --no-fencing   # demo: the checker catches the
//                                          # missing epoch check
//   ./chaos_soak --seeds 50 --history --elasticity
//                    # record per-op histories, check linearizability, and
//                    # race scale-out/drain/scale-in against the faults
//
// Exit code 0 when every seed passes, 1 on invariant failures, 2 on bad
// arguments, 3 when at least one failure is a *history* (linearizability)
// violation — CI tells checker catches from final-state catches by code.
// The report carries the seeds run, per-seed wall-clock and, with
// --history, the part of it the history check took (checker cost
// regressions show up here), the failures with violations and full event
// timelines, and the exact replay command. The first history violation's
// minimal failing sub-history is also written to its own JSON file.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/logging.h"

namespace {

using wattdb::chaos::ChaosConfig;
using wattdb::chaos::ScenarioResult;

struct SoakArgs {
  int seeds = 50;
  uint64_t base_seed = 1;
  // >= 0: replay exactly this one seed, with the timeline printed.
  int64_t replay_seed = -1;
  std::string out = "chaos_report.json";
  std::string history_out = "history_violation.json";
  bool fencing = true;
  bool history = false;
  bool elasticity = false;
  bool verbose = false;
};

void Usage() {
  std::cerr
      << "usage: chaos_soak [--seeds N] [--base-seed B] [--seed X]\n"
      << "                  [--out report.json] [--no-fencing] [--history]\n"
      << "                  [--elasticity] [--history-out file.json]\n"
      << "  --seeds N       run seeds B..B+N-1 (default 50)\n"
      << "  --base-seed B   first seed of the sweep (default 1)\n"
      << "  --seed X        replay a single seed and print its fault\n"
      << "                  schedule and timeline\n"
      << "  --out FILE      JSON report path (default chaos_report.json)\n"
      << "  --no-fencing    disable catalog epoch fencing (bug demo)\n"
      << "  --history       record per-op histories and run the\n"
      << "                  linearizability checker (exit 3 on violation)\n"
      << "  --history-out F write the first history violation's minimal\n"
      << "                  failing sub-history here (default\n"
      << "                  history_violation.json)\n"
      << "  --elasticity    race seeded scale-out / drain / scale-in\n"
      << "                  decisions against the fault schedule\n"
      << "  --verbose       engine INFO logging (replay debugging)\n";
}

bool ParseArgs(int argc, char** argv, SoakArgs* args) {
  auto value_of = [&](int* i) -> const char* {
    const char* eq = std::strchr(argv[*i], '=');
    if (eq != nullptr) return eq + 1;
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  auto is_flag = [&](int i, const char* name) {
    return std::strcmp(argv[i], name) == 0 ||
           (std::strncmp(argv[i], name, std::strlen(name)) == 0 &&
            argv[i][std::strlen(name)] == '=');
  };
  for (int i = 1; i < argc; ++i) {
    if (is_flag(i, "--seeds")) {
      const char* v = value_of(&i);
      if (v == nullptr) return false;
      args->seeds = std::atoi(v);
    } else if (is_flag(i, "--base-seed")) {
      const char* v = value_of(&i);
      if (v == nullptr) return false;
      args->base_seed = std::strtoull(v, nullptr, 10);
    } else if (is_flag(i, "--seed")) {
      const char* v = value_of(&i);
      if (v == nullptr) return false;
      args->replay_seed = std::atoll(v);
    } else if (is_flag(i, "--out")) {
      const char* v = value_of(&i);
      if (v == nullptr) return false;
      args->out = v;
    } else if (is_flag(i, "--history-out")) {
      const char* v = value_of(&i);
      if (v == nullptr) return false;
      args->history_out = v;
    } else if (std::strcmp(argv[i], "--no-fencing") == 0) {
      args->fencing = false;
    } else if (std::strcmp(argv[i], "--history") == 0) {
      args->history = true;
    } else if (std::strcmp(argv[i], "--elasticity") == 0) {
      args->elasticity = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      args->verbose = true;
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return false;
    }
  }
  return args->seeds > 0;
}

std::string ReplayCommand(const SoakArgs& args, uint64_t seed) {
  std::string cmd = "./chaos_soak --seed " + std::to_string(seed);
  if (!args.fencing) cmd += " --no-fencing";
  if (args.history) cmd += " --history";
  if (args.elasticity) cmd += " --elasticity";
  return cmd;
}

/// FNV-1a-64 of the event timeline, lines joined by '\n', as 16 hex
/// digits. PASS lines carry it so that an event moved in simulated time
/// shows in the soak output even when no count changes.
std::string TimelineDigest(const std::vector<std::string>& timeline) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char c) { h = (h ^ c) * 0x100000001b3ULL; };
  for (size_t i = 0; i < timeline.size(); ++i) {
    if (i > 0) mix('\n');
    for (const char c : timeline[i]) mix(static_cast<unsigned char>(c));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

int main(int argc, char** argv) {
  SoakArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  if (args.verbose) wattdb::SetLogLevel(wattdb::LogLevel::kInfo);

  std::vector<uint64_t> seeds;
  if (args.replay_seed >= 0) {
    seeds.push_back(static_cast<uint64_t>(args.replay_seed));
  } else {
    for (int i = 0; i < args.seeds; ++i) seeds.push_back(args.base_seed + i);
  }

  std::vector<ScenarioResult> failures;
  /// Host time of one seed: the whole scenario, and its history check.
  struct SeedWall {
    uint64_t seed;
    int64_t ms;
    double check_ms;
  };
  std::vector<SeedWall> wall_ms;
  bool history_violation_seen = false;
  bool history_dump_written = false;
  int run = 0;
  for (const uint64_t seed : seeds) {
    ChaosConfig config;
    config.seed = seed;
    config.epoch_fencing = args.fencing;
    config.record_history = args.history;
    config.elasticity = args.elasticity;
    const auto t0 = std::chrono::steady_clock::now();
    const ScenarioResult result = wattdb::chaos::RunScenario(config);
    const int64_t ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    wall_ms.push_back({seed, ms, result.history_check_ms});
    ++run;
    if (result.passed) {
      std::cout << "seed " << seed << ": PASS (nodes=" << result.nodes
                << " crashes=" << result.crashes_injected
                << " partitions=" << result.partitions_injected
                << " promoted=" << result.replicas_promoted
                << " committed=" << result.committed_txns
                << " fenced_refusals=" << result.stale_route_refusals;
      if (args.elasticity) {
        std::cout << " spares=" << result.spare_nodes
                  << " elastic=" << result.elastic_actions;
      }
      if (args.history) {
        std::cout << " history_ops=" << result.history_ops
                  << " keys_checked=" << result.history_keys_checked;
        if (result.history_keys_over_budget > 0) {
          std::cout << " keys_over_budget=" << result.history_keys_over_budget;
        }
      }
      std::cout << " end=" << result.sim_end
                << " timeline=" << TimelineDigest(result.timeline)
                << " wall=" << ms << "ms)\n";
    } else {
      std::cout << "seed " << seed << ": FAIL (wall=" << ms << "ms)\n";
      for (const std::string& v : result.violations) {
        std::cout << "  violation: " << v << "\n";
      }
      // A history violation names its offending seed and ships the minimal
      // failing sub-history; the first one also lands in --history-out for
      // the CI artifact.
      for (const auto& hv : result.history_violations) {
        history_violation_seen = true;
        std::cout << "  history violation (seed " << seed << "): " << hv.anomaly
                  << "; minimal failing sub-history has "
                  << hv.sub_history.size() << " op(s)\n";
        if (!history_dump_written) {
          std::ofstream hout(args.history_out);
          hout << "{\"seed\":" << seed << ",\"replay\":\""
               << wattdb::chaos::JsonEscape(ReplayCommand(args, seed))
               << "\",\"violation\":" << wattdb::chaos::ToJson(hv) << "}\n";
          hout.close();
          history_dump_written = true;
          std::cout << "  minimal sub-history written to " << args.history_out
                    << "\n";
        }
      }
      std::cout << "  replay: " << ReplayCommand(args, seed) << "\n";
      failures.push_back(result);
    }
    if (args.replay_seed >= 0) {
      // Replays print the *entire drawn schedule* up front — faults and
      // elasticity actions alike — then the merged event timeline.
      std::cout << "fault schedule of seed " << seed << ":\n";
      for (const std::string& line : result.fault_schedule) {
        std::cout << "  " << line << "\n";
      }
      std::cout << "timeline of seed " << seed << ":\n";
      for (const std::string& line : result.timeline) {
        std::cout << "  " << line << "\n";
      }
    }
  }

  // One JSON report: summary, per-seed wall-clock, plus the failing seeds'
  // full results (the CI workflow uploads this as an artifact and prints
  // the replay command).
  std::ofstream out(args.out);
  out << "{\"seeds_run\":" << run << ",\"seeds_failed\":" << failures.size()
      << ",\"epoch_fencing\":" << (args.fencing ? "true" : "false")
      << ",\"history\":" << (args.history ? "true" : "false")
      << ",\"elasticity\":" << (args.elasticity ? "true" : "false")
      << ",\"first_failing_replay\":\""
      << (failures.empty()
              ? ""
              : wattdb::chaos::JsonEscape(
                    ReplayCommand(args, failures.front().seed)))
      << "\",\"wall_ms\":[";
  for (size_t i = 0; i < wall_ms.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"seed\":" << wall_ms[i].seed << ",\"ms\":" << wall_ms[i].ms;
    // Written here only, never to stdout: stdout is diffed between builds
    // with just its `wall=` times cut.
    if (args.history) out << ",\"check_ms\":" << wall_ms[i].check_ms;
    out << "}";
  }
  out << "],\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out << ",";
    out << wattdb::chaos::ToJson(failures[i]);
  }
  out << "]}\n";
  out.close();

  std::cout << run << " seeds run, " << failures.size() << " failed; report "
            << "written to " << args.out << "\n";
  if (!failures.empty()) {
    std::cout << "first failing replay: "
              << ReplayCommand(args, failures.front().seed) << "\n";
    return history_violation_seen ? 3 : 1;
  }
  return 0;
}
