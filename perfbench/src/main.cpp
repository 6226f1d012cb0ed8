//===- perfbench/src/main.cpp - benchmark driver --------------------------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// alive_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--root DIR] [--work DIR] [--out DIR] [--commit ID]
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
/// runs report the end-to-end metrics, traced runs the per-layer ones.
/// The full record (host and build metadata, sample counts, the slowest
/// items and, when traced, every span) is written under --out. The exit
/// code is 0 when every correctness gate and trace-parity check passed,
/// 1 when one failed, and 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using Value = alive::support::json::Value;

namespace {

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: alive_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--work DIR] "
               "[--out DIR] [--commit ID]\n"
               "       alive_perfbench --list-metrics\n"
               "       alive_perfbench --write-discover-golden DIR\n",
               Msg);
  return 2;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && P == S.data() + S.size();
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string Out, Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      for (const auto &[N, U] : endToEndMetrics())
        std::printf("end_to_end %s %s\n", N.c_str(), U.c_str());
      for (const auto &[N, U] : perLayerMetrics())
        std::printf("per_layer %s %s\n", N.c_str(), U.c_str());
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    uint64_t N = 0;
    if (A == "--write-discover-golden") {
      return writeDiscoverGolden(V);
    } else if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseU64(V, O.Seed))
        return usage("--seed expects a whole number");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseU64(V, N) || N == 0)
        return usage("--seconds expects a positive whole number");
      O.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace expects 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--root") {
      O.Root = V;
    } else if (A == "--work") {
      O.Work = V;
    } else if (A == "--out") {
      Out = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == O.Workload;
  if (!Known)
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  if (O.Work.empty())
    O.Work = ".perfbench-work";
  O.Work += "/" + O.Workload + "-" + std::to_string(::getpid());

  RunOutcome R = runWorkload(O);
  std::error_code EC;
  std::filesystem::remove_all(O.Work, EC);

  Value Meta = Value::object();
  Meta.set("workload", Value(O.Workload));
  Meta.set("seed", Value(O.Seed));
  Meta.set("seconds", Value(O.Seconds));
  Meta.set("trace", Value(O.Trace));
  Meta.set("jobs", Value(static_cast<uint64_t>(R.Jobs)));
  Meta.set("nproc", Value(static_cast<uint64_t>(nprocCount())));
  Meta.set("hardware_concurrency",
           Value(static_cast<uint64_t>(std::thread::hardware_concurrency())));
  Meta.set("build_type", Value(PERFBENCH_BUILD_TYPE));
  Meta.set("compiler", Value(std::string("g++ ") + __VERSION__));
  Meta.set("commit", Value(Commit));

  const bool Correct = R.Problems.empty() && R.Attempted > 0;
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: FAIL: %s\n", P.c_str());
  if (!R.SlowestTable.empty())
    std::fprintf(stderr, "%s\n", R.SlowestTable.c_str());

  if (!Out.empty()) {
    std::filesystem::create_directories(Out, EC);
    std::string Base = Out + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + (O.Trace ? "-traced" : "");
    Value Rec = Value::object();
    Rec.set("meta", Meta);
    Rec.set("correct", Value(Correct));
    Rec.set("attempted", Value(R.Attempted));
    Rec.set("failed", Value(R.Failed));
    Value Ms = Value::object();
    for (const Metric &M : R.Metrics)
      Ms.set(M.Name, Value(M.Value));
    Rec.set("metrics", std::move(Ms));
    Rec.set("detail", R.Detail);
    Value Probs = Value::array();
    for (const std::string &P : R.Problems)
      Probs.push(Value(P));
    Rec.set("problems", std::move(Probs));
    std::ofstream(Base + ".json") << Rec.str(2) << "\n";
    if (!R.SlowestTable.empty())
      std::ofstream(Base + "-slowest.md") << R.SlowestTable;
    if (!R.Spans.empty())
      std::ofstream(Base + ".spans.jsonl") << spansToJsonLines(R.Spans);
  }

  std::printf("perfbench: %s\n", Meta.str().c_str());
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Line += (I ? ", " : "") + alive::support::json::quote(M.Name) +
            ": {\"value\": " + number(M.Value) +
            ", \"unit\": " + alive::support::json::quote(M.Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
