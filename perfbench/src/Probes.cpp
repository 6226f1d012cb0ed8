//===- perfbench/src/Probes.cpp - timing decorators for the traced run ----===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "Trace.h"

using namespace alive;
using namespace perfbench;

// The verifier's session constructor (verifier/Verifier.cpp). It has no
// public header; the precondition-inference engine declares it the same
// way. Calling it keeps the timed session's backend and budgets identical
// to an untimed run by construction.
namespace alive {
namespace verifier {
std::unique_ptr<smt::SolverSession> makeSession(const VerifyConfig &Cfg,
                                                smt::TermContext &Ctx);
} // namespace verifier
} // namespace alive

namespace {

/// Forwards to an inner session and mirrors its accounting exactly: each
/// check is classified as the inner session classified it, and every other
/// counter the inner session moved is folded in. The verifier therefore
/// reads the same SolverStats through this decorator as without it.
class TimingSession final : public smt::SolverSession {
public:
  TimingSession(std::unique_ptr<smt::SolverSession> Inner, BackendTally &Tally)
      : Inner(std::move(Inner)), Tally(Tally) {}

  void add(smt::TermRef T) override {
    smt::SolverStats Before = Inner->stats();
    Inner->add(T);
    absorb(Inner->stats().deltaSince(Before));
  }
  void push() override {
    smt::SolverStats Before = Inner->stats();
    Inner->push();
    absorb(Inner->stats().deltaSince(Before));
  }
  void pop() override {
    smt::SolverStats Before = Inner->stats();
    Inner->pop();
    absorb(Inner->stats().deltaSince(Before));
  }
  std::string name() const override { return "timed(" + Inner->name() + ")"; }

protected:
  smt::CheckResult checkImpl(const std::vector<smt::TermRef> &Assumptions,
                             const smt::ResourceLimits *Override) override {
    ScopedSpan Span("smt.check");
    smt::SolverStats Before = Inner->stats();
    smt::CheckResult R = Inner->check(Assumptions, Override);
    smt::SolverStats D = Inner->stats().deltaSince(Before);
    ServedFromCache = D.CacheHits != 0;
    ServedFromStore = D.StoreHits != 0;
    WarmReuse = D.IncrementalReuses != 0;
    absorb(D);
    Tally.add(D);
    return R;
  }

private:
  /// Folds everything but the per-check classification and answer
  /// counters, which the base class's check() adds itself.
  void absorb(smt::SolverStats D) {
    D.Queries = D.IncrementalReuses = D.CacheHits = D.StoreHits = 0;
    D.SatAnswers = D.UnsatAnswers = D.UnknownAnswers = 0;
    D.UnknownBy = {};
    Stats.merge(D);
  }

  std::unique_ptr<smt::SolverSession> Inner;
  BackendTally &Tally;
};

} // namespace

void BackendTally::add(const smt::SolverStats &D) {
  std::lock_guard<std::mutex> L(Mu);
  Sum.merge(D);
}

smt::SolverStats BackendTally::total() const {
  std::lock_guard<std::mutex> L(Mu);
  return Sum;
}

std::function<std::unique_ptr<smt::SolverSession>(smt::TermContext &)>
perfbench::timedSessionFactory(const verifier::VerifyConfig &Cfg,
                               BackendTally &Tally) {
  // The backend alone: the verifier wraps the factory's session in its
  // store and cache tiers itself.
  verifier::VerifyConfig Backend = Cfg;
  Backend.SessionFactory = nullptr;
  Backend.Store = nullptr;
  Backend.Cache = nullptr;
  return [Backend, &Tally](smt::TermContext &Ctx) {
    return std::make_unique<TimingSession>(
        verifier::makeSession(Backend, Ctx), Tally);
  };
}

bool TimingVerdictStore::lookupQuery(const std::string &Key,
                                     smt::QueryCache::Entry &Out) {
  ScopedSpan Span("store.lookup_query");
  return Inner->lookupQuery(Key, Out);
}

void TimingVerdictStore::insertQuery(const std::string &Key,
                                     const smt::QueryCache::Entry &E) {
  ScopedSpan Span("store.insert_query");
  Inner->insertQuery(Key, E);
}
