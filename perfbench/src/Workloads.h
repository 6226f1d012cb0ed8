//===- perfbench/src/Workloads.h - benchmark workloads ----------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads run the public entry points users hit:
///
///  * int-corpus     — service::runBatch over the 324-transform corpus
///                     (`alivec verify --jobs=1`), in the seed's order;
///  * fp-corpus      — service::runBatch over opts/fp/*.opt at nproc jobs;
///  * discover-sweep — discover::runDiscover at `alivec discover` defaults;
///  * alived-mixed   — an in-process service::Server reached through
///                     service::callServer by two closed-loop clients.
///
/// An untraced run reports the end-to-end metrics. A traced run repeats
/// one pass with timing decorators and spans, checks it against an
/// untraced pass (trace parity), and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "support/JSON.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = "."; ///< checkout root (opts/, perfbench/golden/)
  std::string Work;       ///< scratch directory, relative to the cwd
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunOutcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Correctness-gate and trace-parity failures; any entry fails the run.
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;
  unsigned Jobs = 1;
  /// Sample counts, metric sources and other facts for the result record.
  alive::support::json::Value Detail = alive::support::json::Value::object();
  /// The slowest items of the traced run, as a Markdown table.
  std::string SlowestTable;
  std::vector<Span> Spans;
};

const std::vector<std::string> &workloadNames();

/// Names and units of the metrics a run reports: the end-to-end set
/// untraced, the per-layer set traced.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// CPUs this process may run on (what `nproc` prints).
unsigned nprocCount();

RunOutcome runWorkload(const RunOptions &O);

/// Runs discover-sweep once and writes the golden files its correctness
/// gate compares against into \p Dir.
int writeDiscoverGolden(const std::string &Dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
