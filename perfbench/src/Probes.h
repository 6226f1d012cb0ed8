//===- perfbench/src/Probes.h - timing decorators ---------------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decorators the traced run installs through public hooks, so it measures
/// the solver and the stores from outside the library:
///
///  * timedSessionFactory() builds the session the verifier would have
///    built (same backend, same budgets) and wraps it in a TimingSession,
///    installed as VerifyConfig::SessionFactory. The verifier layers its
///    query cache and verdict store outside it, exactly as without the
///    hook, so every check that reaches a backend becomes one `smt.check`
///    span and the backend's own counters are tallied as it returns them.
///  * TimingVerdictStore wraps VerifyConfig::Store with `store.*` spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "smt/QueryCache.h"
#include "smt/Session.h"
#include "verifier/Verifier.h"

#include <memory>
#include <mutex>

namespace perfbench {

/// Backend-side solver counters summed over every timed session.
class BackendTally {
public:
  void add(const alive::smt::SolverStats &D);
  alive::smt::SolverStats total() const;

private:
  mutable std::mutex Mu;
  alive::smt::SolverStats Sum; ///< guarded by Mu
};

/// VerifyConfig::SessionFactory for \p Cfg: the verifier's own session for
/// that configuration, wrapped in a TimingSession that reports to \p Tally.
/// \p Tally must outlive every verify call made with the factory.
std::function<std::unique_ptr<alive::smt::SolverSession>(
    alive::smt::TermContext &)>
timedSessionFactory(const alive::verifier::VerifyConfig &Cfg,
                    BackendTally &Tally);

class TimingVerdictStore final : public alive::smt::VerdictStore {
public:
  explicit TimingVerdictStore(std::shared_ptr<alive::smt::VerdictStore> Inner)
      : Inner(std::move(Inner)) {}
  bool lookupQuery(const std::string &Key,
                   alive::smt::QueryCache::Entry &Out) override;
  void insertQuery(const std::string &Key,
                   const alive::smt::QueryCache::Entry &E) override;

private:
  std::shared_ptr<alive::smt::VerdictStore> Inner;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
