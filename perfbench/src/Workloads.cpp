//===- perfbench/src/Workloads.cpp - the benchmark's four workloads -------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Inputs.h"
#include "Probes.h"
#include "Stats.h"

#include "analysis/Lint.h"
#include "analysis/StaticFilter.h"
#include "discover/Candidate.h"
#include "discover/Discover.h"
#include "parser/Parser.h"
#include "semantics/VCGen.h"
#include "service/BatchRunner.h"
#include "service/ResultStore.h"
#include "service/Server.h"
#include "support/ThreadPool.h"
#include "typing/TypeConstraints.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

using namespace alive;
using namespace perfbench;
using Value = support::json::Value;

namespace {

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

using MetricMap = std::map<std::string, double>;

const std::vector<std::pair<std::string, std::string>> EndToEnd = {
    {"setup_s", "s"},           {"items_per_s", "1/s"},
    {"cpu_ms_per_item", "ms"},  {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
};

const std::vector<std::pair<std::string, std::string>> PerLayer = {
    {"failed_share", "ratio"},
    {"parser.parse_ms", "ms"},
    {"typing.enumerate_ms", "ms"},
    {"typing.assignments", "count"},
    {"semantics.encode_ms", "ms"},
    {"semantics.terms", "count"},
    {"analysis.filter_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.discharged", "count"},
    {"analysis.discharge_ratio", "ratio"},
    {"smt.check_ms", "ms"},
    {"smt.check_p99_ms", "ms"},
    {"smt.checks", "count"},
    {"smt.cold_starts", "count"},
    {"smt.cold_queries", "count"},
    {"smt.incremental_reuses", "count"},
    {"smt.cache_hits", "count"},
    {"smt.cache_hit_ratio", "ratio"},
    {"smt.store_hits", "count"},
    {"smt.escalations", "count"},
    {"smt.z3_fallbacks", "count"},
    {"smt.unknowns", "count"},
    {"smt.aig.gate_calls", "count"},
    {"smt.aig.saved_ratio", "ratio"},
    {"smt.sat.preprocess_ms", "ms"},
    {"smt.sat.eliminated_vars", "count"},
    {"smt.cache.contention", "count"},
    {"verifier.verify_ms", "ms"},
    {"verifier.verify_p50_ms", "ms"},
    {"verifier.verify_p99_ms", "ms"},
    {"verifier.self_ms", "ms"},
    {"verifier.queries", "count"},
    {"discover.enumerate_ms", "ms"},
    {"discover.canonicalize_ms", "ms"},
    {"discover.abstract_ms", "ms"},
    {"discover.abstract_killed", "count"},
    {"discover.diff_ms", "ms"},
    {"discover.diff_killed", "count"},
    {"discover.solver_bound", "count"},
    {"discover.kill_ratio", "ratio"},
    {"discover.driver_self_ms", "ms"},
    {"service.batch_ms", "ms"},
    {"service.parallel_efficiency", "ratio"},
    {"service.store.report_hits", "count"},
    {"service.store.report_hit_ratio", "ratio"},
    {"service.store.inserted_records", "count"},
    {"service.server.latency_p50_ms", "ms"},
    {"service.server.coalesced", "count"},
    {"service.server.shed", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
};

void emitMetrics(RunOutcome &R, const MetricMap &M, bool Traced) {
  for (const auto &[Name, Unit] : Traced ? PerLayer : EndToEnd) {
    auto It = M.find(Name);
    R.Metrics.push_back({Name, It == M.end() ? 0.0 : It->second, Unit});
  }
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// Process and file helpers
//===----------------------------------------------------------------------===//

double cpuMs() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return (RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) * 1e3 +
         (RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) / 1e3;
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // Linux reports KiB
}

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Out.push_back(L);
  return Out;
}

//===----------------------------------------------------------------------===//
// Reading batch reports
//===----------------------------------------------------------------------===//

/// One transform per chunk, cut at `Name:` lines as alivec cuts a corpus.
struct Chunk {
  std::string Name;
  std::string Text;
};

std::vector<Chunk> splitByName(const std::string &Text) {
  std::vector<Chunk> Out;
  for (const std::string &L : lines(Text)) {
    if (L.rfind("Name:", 0) == 0) {
      std::string N = L.substr(5);
      N.erase(0, N.find_first_not_of(" \t"));
      N.erase(N.find_last_not_of(" \t\r") + 1);
      Out.push_back({N, ""});
    }
    if (!Out.empty())
      Out.back().Text += L + "\n";
  }
  return Out;
}

/// One item's lines in a verify report, and its status word ("correct",
/// "INCORRECT", "unknown", "ERROR"; empty when the item is missing).
struct Block {
  std::string Status;
  std::string Text;
};

const char SummaryPrefix[] = "---- batch summary:";

bool isHeaderOf(const std::string &Line, const std::string &Name) {
  return Line.size() > Name.size() && Line.compare(0, Name.size(), Name) == 0 &&
         Line[Name.size()] == ' ';
}

/// Splits the per-item part of a verify report, given the items' names in
/// input order (the order alivec prints them in).
std::vector<Block> reportBlocks(const std::string &Out,
                                const std::vector<std::string> &Names) {
  std::vector<Block> Blocks(Names.size());
  size_t Next = 0;
  Block *Cur = nullptr;
  for (const std::string &L : lines(Out)) {
    if (L.rfind(SummaryPrefix, 0) == 0)
      break;
    if (Next < Names.size() && isHeaderOf(L, Names[Next])) {
      Cur = &Blocks[Next];
      size_t B = L.find_first_not_of(' ', Names[Next].size());
      size_t E = B == std::string::npos ? B : L.find_first_of(" :", B);
      Cur->Status = B == std::string::npos ? "" : L.substr(B, E - B);
      ++Next;
    }
    if (Cur)
      Cur->Text += L + "\n";
  }
  return Blocks;
}

/// The report without its batch summary (which carries timing and the
/// solver accounting of how the answer was obtained).
std::string reportBody(const std::string &Out) {
  size_t P = Out.find(SummaryPrefix);
  return P == std::string::npos ? Out : Out.substr(0, P);
}

/// "N transforms | a correct | b incorrect | c unknown | d faulted".
std::string summaryCounts(const std::string &Out) {
  size_t P = Out.find(SummaryPrefix);
  if (P == std::string::npos)
    return "";
  size_t E = Out.find(" faulted", P);
  return E == std::string::npos ? "" : Out.substr(P, E - P);
}

const char *statusOf(verifier::Verdict V) {
  switch (V) {
  case verifier::Verdict::Correct:
    return "correct";
  case verifier::Verdict::Incorrect:
    return "INCORRECT";
  case verifier::Verdict::Unknown:
    return "unknown";
  case verifier::Verdict::TypeError:
  case verifier::Verdict::EncodeError:
    break;
  }
  return "ERROR";
}

bool isFailure(const std::string &Status) {
  return Status != "correct" && Status != "INCORRECT";
}

uint64_t checksOf(const smt::SolverStats &S) {
  return S.Queries + S.IncrementalReuses + S.CacheHits + S.StoreHits;
}

service::BatchOptions batchOptions(const std::string &Mode,
                                   const std::vector<std::string> &Opts,
                                   RunOutcome &R) {
  auto O = service::parseBatchOptions(Mode, Opts);
  if (!O.ok()) {
    R.Problems.push_back("bad options: " + O.message());
    return {};
  }
  return O.take();
}

//===----------------------------------------------------------------------===//
// Span arithmetic
//===----------------------------------------------------------------------===//

std::vector<double> durations(const std::vector<Span> &Spans,
                              const std::string &Name) {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.ms());
  return Out;
}

double sumMs(const std::vector<Span> &Spans, const std::string &Name) {
  double T = 0;
  for (double D : durations(Spans, Name))
    T += D;
  return T;
}

/// Self time of every \p Name span: its duration minus the time its
/// solver and store child spans cover.
double selfMs(const std::vector<Span> &Spans, const std::string &Name) {
  auto Kids = childrenByParent(Spans);
  double T = 0;
  for (const Span &S : Spans) {
    if (S.Name != Name)
      continue;
    std::vector<const Span *> Layer;
    for (const Span *K : Kids[S.Id])
      if (K->Name.rfind("smt.", 0) == 0 || K->Name.rfind("store.", 0) == 0)
        Layer.push_back(K);
    T += selfTimeMs(S, Layer);
  }
  return T;
}

/// Number of \p Child spans directly under each span id.
std::map<uint64_t, uint64_t> childCounts(const std::vector<Span> &Spans,
                                         const std::string &Child) {
  std::map<uint64_t, uint64_t> Out;
  for (const Span &S : Spans)
    if (S.Name == Child)
      ++Out[S.Parent];
  return Out;
}

/// Activates a tracer for one scope.
class TraceScope {
public:
  explicit TraceScope(Tracer &T) { setActiveTracer(&T); }
  ~TraceScope() { setActiveTracer(nullptr); }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;
};

//===----------------------------------------------------------------------===//
// Verified items: per-transform results and the slowest-items table
//===----------------------------------------------------------------------===//

struct VerifiedItem {
  std::string Name;
  verifier::VerifyResult Result;
  uint64_t SpanId = 0;
  double Ms = 0;
};

std::string slowestTable(const std::vector<VerifiedItem> &Items,
                         const std::vector<Span> &Spans, size_t N,
                         const std::string &Caption) {
  auto Checks = childCounts(Spans, "smt.check");
  std::vector<const VerifiedItem *> Order;
  for (const VerifiedItem &It : Items)
    Order.push_back(&It);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const VerifiedItem *A, const VerifiedItem *B) {
                     return A->Ms > B->Ms;
                   });
  std::ostringstream OS;
  OS << Caption << "\n\n"
     << "| transform | verdict | verify ms | smt checks | cold starts | "
        "queries | assignments |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (size_t I = 0; I != std::min(N, Order.size()); ++I) {
    const VerifiedItem &It = *Order[I];
    char Ms[32];
    std::snprintf(Ms, sizeof(Ms), "%.2f", It.Ms);
    OS << "| " << It.Name << " | " << statusOf(It.Result.V) << " | " << Ms
       << " | " << Checks[It.SpanId] << " | " << It.Result.Stats.ColdStarts
       << " | " << It.Result.NumQueries << " | "
       << It.Result.NumTypeAssignments << " |\n";
  }
  return OS.str();
}

/// Fills the verifier and solver metrics of a set of traced verify calls.
void verifierMetrics(MetricMap &M, const std::vector<VerifiedItem> &Items,
                     const std::vector<Span> &Spans) {
  std::vector<double> Ms;
  smt::SolverStats S;
  uint64_t Queries = 0;
  for (const VerifiedItem &It : Items) {
    Ms.push_back(It.Ms);
    S.merge(It.Result.Stats);
    Queries += It.Result.NumQueries;
  }
  M["verifier.verify_ms"] = sumMs(Spans, "verifier.verify");
  M["verifier.verify_p50_ms"] = median(Ms);
  M["verifier.verify_p99_ms"] = nearestRank(Ms, 99);
  M["verifier.self_ms"] = selfMs(Spans, "verifier.verify");
  M["verifier.queries"] = Queries;
  M["analysis.discharged"] = S.StaticallyDischarged;
  M["analysis.discharge_ratio"] =
      ratio(S.StaticallyDischarged, S.StaticallyDischarged + Queries);
  M["smt.checks"] = checksOf(S);
  M["smt.cold_starts"] = S.ColdStarts;
  M["smt.cold_queries"] = S.Queries;
  M["smt.incremental_reuses"] = S.IncrementalReuses;
  M["smt.cache_hits"] = S.CacheHits;
  M["smt.cache_hit_ratio"] = ratio(S.CacheHits, checksOf(S));
  M["smt.store_hits"] = S.StoreHits;
  M["smt.escalations"] = S.Escalations;
  M["smt.z3_fallbacks"] = S.FragmentFallbacks;
  M["smt.unknowns"] = S.UnknownAnswers;
}

/// Backend counters and solver timings from the timed sessions.
void backendMetrics(MetricMap &M, const BackendTally &Tally,
                    const std::vector<Span> &Spans,
                    const smt::QueryCache *Cache) {
  smt::SolverStats B = Tally.total();
  std::vector<double> Checks = durations(Spans, "smt.check");
  M["smt.check_ms"] = sumMs(Spans, "smt.check");
  M["smt.check_p99_ms"] = nearestRank(Checks, 99);
  M["smt.aig.gate_calls"] = B.RewriteGateCalls;
  M["smt.aig.saved_ratio"] = ratio(B.RewriteSavedGates, B.RewriteGateCalls);
  M["smt.sat.preprocess_ms"] = B.PreprocessUs / 1e3;
  M["smt.sat.eliminated_vars"] = B.EliminatedVars;
  if (Cache)
    M["smt.cache.contention"] = Cache->stats().Contention;
}

/// Typing, encoding and abstract-analysis calls on \p T outside verify,
/// recorded as shadow spans.
void shadowLayers(const ir::Transform &T, const verifier::VerifyConfig &Cfg,
                  uint64_t &Assignments, uint64_t &Terms) {
  auto Sys = typing::TypeConstraintSystem::fromTransform(T);
  Result<std::vector<typing::TypeAssignment>> Types =
      std::vector<typing::TypeAssignment>();
  {
    ScopedSpan S("typing.enumerate", /*Shadow=*/true);
    Types = typing::enumerateTypesNative(Sys, Cfg.Types);
  }
  if (Types.ok()) {
    Assignments += Types.get().size();
    for (const typing::TypeAssignment &A : Types.get()) {
      {
        ScopedSpan S("semantics.encode", /*Shadow=*/true);
        smt::TermContext Ctx;
        semantics::Encoder Enc(Ctx, T, A, Cfg.Encoding);
        if (Enc.encode().ok())
          Terms += Ctx.numTerms();
      }
      ScopedSpan S("analysis.filter", /*Shadow=*/true);
      analysis::analyzeRefinement(T, A, Cfg.Encoding.PtrWidth);
    }
  }
  ScopedSpan S("analysis.lint", /*Shadow=*/true);
  analysis::lintTransform(T);
}

void shadowLayerMetrics(MetricMap &M, const std::vector<Span> &Spans,
                        uint64_t Assignments, uint64_t Terms) {
  M["typing.enumerate_ms"] = sumMs(Spans, "typing.enumerate");
  M["typing.assignments"] = Assignments;
  M["semantics.encode_ms"] = sumMs(Spans, "semantics.encode");
  M["semantics.terms"] = Terms;
  M["analysis.filter_ms"] = sumMs(Spans, "analysis.filter");
  M["analysis.lint_ms"] = sumMs(Spans, "analysis.lint");
}

/// One pass of a batch workload: one runBatch or runDiscover call.
struct Pass {
  double WallMs = 0;
  double CpuMs = 0;
  uint64_t Items = 0;
  uint64_t Failed = 0;
};

/// True while another round of typical length \p RoundMs still fits in
/// the \p Seconds budget that started at \p Start.
bool fits(Clock::time_point Start, double Seconds, double RoundMs) {
  return msSince(Start) + RoundMs <= Seconds * 1e3;
}

/// Runs passes while another pass of median length fits in \p Seconds.
template <typename PassFn>
std::vector<Pass> timedPasses(double Seconds, PassFn Run) {
  std::vector<Pass> Passes;
  std::vector<double> Walls;
  const auto Start = Clock::now();
  do {
    Passes.push_back(Run());
    Walls.push_back(Passes.back().WallMs);
  } while (fits(Start, Seconds, median(Walls)));
  return Passes;
}

/// End-to-end metrics of a batch workload. A pass is one round trip of
/// the command the workload stands for, so the latency metrics are pass
/// wall times.
void batchEndToEnd(RunOutcome &R, MetricMap &M, double SetupS,
                   const std::vector<Pass> &Passes) {
  std::vector<double> Rates, Walls;
  double Cpu = 0;
  uint64_t Items = 0;
  for (const Pass &P : Passes) {
    Rates.push_back(P.Items / (P.WallMs / 1e3));
    Walls.push_back(P.WallMs);
    Cpu += P.CpuMs;
    Items += P.Items;
    R.Attempted += P.Items;
    R.Failed += P.Failed;
  }
  M["setup_s"] = SetupS;
  M["items_per_s"] = median(Rates);
  M["cpu_ms_per_item"] = ratio(Cpu, Items);
  M["peak_rss_mb"] = peakRssMb();
  M["latency_p50_ms"] = median(Walls);
  // Far fewer passes than a true p99 needs: nearest rank is the slowest.
  M["latency_p99_ms"] = nearestRank(Walls, 99);
  Value PassMs = Value::array(), PassCpuMs = Value::array();
  for (const Pass &P : Passes) {
    PassMs.push(Value(P.WallMs));
    PassCpuMs.push(Value(P.CpuMs));
  }
  R.Detail.set("pass_ms", std::move(PassMs));
  R.Detail.set("pass_cpu_ms", std::move(PassCpuMs));
  R.Detail.set("latency_samples", Value(static_cast<uint64_t>(Walls.size())));
  R.Detail.set("latency_p99_note",
               Value("per-pass samples; with fewer than " +
                     std::to_string(samplesNeededFor(99)) +
                     " passes the nearest-rank p99 is the slowest pass"));
}

/// Runs \p Setup at least 11 times and for at least 50 ms, and returns
/// its median wall time in seconds. A set-up of a fraction of a
/// millisecond then reads its warm cost, not the noise of a few samples.
template <typename Fn> double medianSetupS(Fn Setup) {
  std::vector<double> S;
  const auto Start = Clock::now();
  while (S.size() < 11 || msSince(Start) < 50) {
    auto T0 = Clock::now();
    Setup();
    S.push_back(msSince(T0) / 1e3);
  }
  return median(S);
}

constexpr size_t SlowestN = 10;

//===----------------------------------------------------------------------===//
// int-corpus and fp-corpus
//===----------------------------------------------------------------------===//

struct VerifyInput {
  std::vector<Chunk> Chunks;
  std::vector<std::string> Names;
  std::vector<std::string> Expect; ///< int-corpus: expected status
  std::vector<std::string> Golden; ///< fp-corpus: expected report block
  std::string Text;
  service::BatchOptions Opts;
  unsigned Jobs = 1;
};

const char *const FpFiles[] = {"arith", "fcmp", "invalid"};

VerifyInput makeVerifyInput(const RunOptions &O, bool Fp, RunOutcome &R) {
  VerifyInput In;
  if (!Fp) {
    std::vector<Item> Items = intCorpusInput(O.Seed);
    In.Text = renderOpt(Items);
    for (const Item &It : Items)
      In.Expect.push_back(It.ExpectCorrect ? "correct" : "INCORRECT");
  } else {
    for (const char *F : FpFiles) {
      std::string Base = O.Root + "/opts/fp/" + F, Opt, Expected;
      if (!readFile(Base + ".opt", Opt) ||
          !readFile(Base + ".expected", Expected)) {
        R.Problems.push_back("cannot read " + Base + ".{opt,expected}");
        return In;
      }
      std::vector<std::string> Names;
      for (const Chunk &C : splitByName(Opt))
        Names.push_back(C.Name);
      for (Block &B : reportBlocks(Expected, Names))
        In.Golden.push_back(std::move(B.Text));
      In.Text += Opt;
    }
  }
  In.Chunks = splitByName(In.Text);
  for (const Chunk &C : In.Chunks)
    In.Names.push_back(C.Name);
  // Validate the generated input: every chunk parses to one transform.
  auto Parsed = parser::parseTransforms(In.Text);
  if (!Parsed.ok() || Parsed.get().size() != In.Chunks.size())
    R.Problems.push_back("workload input does not parse");
  In.Jobs = Fp ? nprocCount() : 1;
  In.Opts = batchOptions("verify", {"--jobs=" + std::to_string(In.Jobs)}, R);
  return In;
}

/// Checks one pass's statuses (and, for fp-corpus, report bytes) against
/// the expected answers; returns the number of failed items.
uint64_t gateVerify(const VerifyInput &In, const std::vector<Block> &Blocks,
                    RunOutcome &R) {
  uint64_t Failed = 0;
  for (size_t I = 0; I != In.Names.size(); ++I) {
    const Block &B = Blocks[I];
    Failed += isFailure(B.Status);
    bool Ok = In.Golden.empty() ? B.Status == In.Expect[I]
                                : B.Text == In.Golden[I];
    if (!Ok && R.Problems.size() < 20)
      R.Problems.push_back("wrong answer for " + In.Names[I] + ": got '" +
                           B.Status + "'");
  }
  return Failed;
}

struct BatchPass {
  Pass P;
  std::vector<std::string> Statuses;
  smt::SolverStats Solver;
};

BatchPass runVerifyPass(const VerifyInput &In, RunOutcome &R) {
  BatchPass BP;
  double C0 = cpuMs();
  auto T0 = Clock::now();
  service::BatchOutcome B =
      service::runBatch(In.Opts, "workload.opt", In.Text, nullptr, nullptr);
  BP.P.WallMs = msSince(T0);
  BP.P.CpuMs = cpuMs() - C0;
  std::vector<Block> Blocks = reportBlocks(B.Out, In.Names);
  BP.P.Items = In.Names.size();
  BP.P.Failed = gateVerify(In, Blocks, R);
  for (const Block &Bl : Blocks)
    BP.Statuses.push_back(Bl.Status);
  BP.Solver = B.Solver;
  return BP;
}

void runVerifyWorkload(const RunOptions &O, bool Fp, RunOutcome &R) {
  VerifyInput In;
  double SetupS = medianSetupS([&] {
    RunOutcome Scratch;
    In = makeVerifyInput(O, Fp, Scratch);
    R.Problems = std::move(Scratch.Problems);
  });
  R.Jobs = In.Jobs;
  if (!R.Problems.empty())
    return;
  MetricMap M;

  if (!O.Trace) {
    std::vector<Pass> Passes =
        timedPasses(O.Seconds, [&] { return runVerifyPass(In, R).P; });
    batchEndToEnd(R, M, SetupS, Passes);
    emitMetrics(R, M, false);
    return;
  }

  // Untraced reference pass.
  BatchPass Plain = runVerifyPass(In, R);
  R.Attempted = Plain.P.Items;
  R.Failed = Plain.P.Failed;

  // Traced pass: the same items, parsed and verified one by one on the
  // batch's worker count with the batch's shared query cache.
  Tracer Tr;
  BackendTally Tally;
  verifier::VerifyConfig Cfg = In.Opts.Cfg;
  auto Cache = std::make_shared<smt::QueryCache>(
      1 << 16, smt::QueryCache::shardCountForJobs(In.Jobs));
  Cfg.Cache = Cache;
  Cfg.SessionFactory = timedSessionFactory(Cfg, Tally);
  std::vector<VerifiedItem> Items(In.Chunks.size());
  double TracedMs = 0, TracedCpuMs = 0;
  {
    TraceScope TS(Tr);
    double C0 = cpuMs();
    auto T0 = Clock::now();
    ScopedSpan Root("bench.traced_pass");
    Tr.setRoot(Root.id());
    support::ThreadPool::parallelFor(In.Jobs, Items.size(), [&](size_t I) {
      setCurrentRequest(I + 1);
      VerifiedItem &It = Items[I];
      It.Name = In.Names[I];
      std::unique_ptr<ir::Transform> T;
      {
        ScopedSpan P("parser.parse");
        auto Parsed = parser::parseTransforms(In.Chunks[I].Text);
        if (Parsed.ok() && Parsed.get().size() == 1)
          T = std::move(Parsed.get()[0]);
      }
      if (T) {
        ScopedSpan V("verifier.verify");
        It.Result = verifier::verify(*T, Cfg);
        It.SpanId = V.id();
        It.Ms = V.elapsedMs();
      } else {
        It.Result.V = verifier::Verdict::EncodeError;
      }
      setCurrentRequest(0);
    });
    TracedMs = msSince(T0);
    TracedCpuMs = cpuMs() - C0;
  }
  std::vector<Span> Pipeline = Tr.spans();

  // Trace parity: verdicts, the number of solver checks and the static
  // discharges always; cold queries only when the run is serial. How the
  // remaining checks split between warm-session reuses and query-cache
  // hits varies between two untraced runs of the same input (even
  // serially), and at several jobs the shared cache makes the cold count
  // timing-dependent too, so neither is a parity condition.
  smt::SolverStats Traced;
  for (size_t I = 0; I != Items.size(); ++I) {
    Traced.merge(Items[I].Result.Stats);
    if (statusOf(Items[I].Result.V) != Plain.Statuses[I])
      R.Problems.push_back("trace parity: verdict of " + Items[I].Name +
                           " differs");
  }
  auto Same = [&](const char *What, uint64_t A, uint64_t B) {
    if (A != B)
      R.Problems.push_back(std::string("trace parity: ") + What + " " +
                           std::to_string(A) + " traced vs " +
                           std::to_string(B) + " untraced");
  };
  Same("solver checks", checksOf(Traced), checksOf(Plain.Solver));
  Same("statically discharged", Traced.StaticallyDischarged,
       Plain.Solver.StaticallyDischarged);
  if (In.Jobs == 1)
    Same("cold queries", Traced.Queries, Plain.Solver.Queries);

  // Shadow spans: the layers verify runs internally, called standalone.
  Tracer Sh;
  uint64_t Assignments = 0, Terms = 0;
  {
    TraceScope TS(Sh);
    for (size_t I = 0; I != In.Chunks.size(); ++I) {
      setCurrentRequest(I + 1);
      auto Parsed = parser::parseTransforms(In.Chunks[I].Text);
      if (Parsed.ok() && Parsed.get().size() == 1)
        shadowLayers(*Parsed.get()[0], Cfg, Assignments, Terms);
    }
    setCurrentRequest(0);
  }
  std::vector<Span> Shadow = Sh.spans();

  M["failed_share"] = ratio(R.Failed, R.Attempted);
  M["parser.parse_ms"] = sumMs(Pipeline, "parser.parse");
  shadowLayerMetrics(M, Shadow, Assignments, Terms);
  verifierMetrics(M, Items, Pipeline);
  backendMetrics(M, Tally, Pipeline, Cache.get());
  M["service.batch_ms"] = Plain.P.WallMs;
  M["service.parallel_efficiency"] =
      ratio(Plain.P.CpuMs, In.Jobs * Plain.P.WallMs);
  M["bench.trace_overhead_ratio"] = ratio(TracedMs, Plain.P.WallMs);
  R.Detail.set("traced_pass_ms", Value(TracedMs));
  R.Detail.set("traced_pass_cpu_ms", Value(TracedCpuMs));
  const uint64_t CheckSamples = durations(Pipeline, "smt.check").size();
  R.Detail.set("smt_check_samples", Value(CheckSamples));
  R.Detail.set("verify_samples", Value(static_cast<uint64_t>(Items.size())));
  R.SlowestTable = slowestTable(
      Items, Pipeline, SlowestN,
      "Slowest transforms of " + O.Workload + " (traced pass, " +
          std::to_string(In.Jobs) + " jobs)");
  emitMetrics(R, M, true);
  R.Spans = std::move(Pipeline);
  R.Spans.insert(R.Spans.end(), Shadow.begin(), Shadow.end());
}

//===----------------------------------------------------------------------===//
// discover-sweep
//===----------------------------------------------------------------------===//

const char DiscoverGoldenOpt[] = "/perfbench/golden/discover-sweep.opt";
const char DiscoverGoldenCounters[] =
    "/perfbench/golden/discover-sweep.counters";

std::vector<std::pair<std::string, uint64_t>>
counterList(const discover::DiscoverCounters &C) {
  return {{"enumerated", C.Enumerated},
          {"materialize_failed", C.MaterializeFailed},
          {"duplicates", C.Duplicates},
          {"unique", C.Unique},
          {"untypeable", C.Untypeable},
          {"abstract_killed", C.AbstractKilled},
          {"diff_killed", C.DiffKilled},
          {"vacuous", C.Vacuous},
          {"solver_bound", C.SolverBound},
          {"replayed", C.Replayed},
          {"fresh", C.Fresh},
          {"correct", C.Correct},
          {"incorrect", C.Incorrect},
          {"unknown", C.Unknown},
          {"generalized", C.Generalized},
          {"generalize_failed", C.GeneralizeFailed},
          {"seed_duplicates", C.SeedDuplicates},
          {"subsumed", C.Subsumed},
          {"final_rejected", C.FinalRejected},
          {"emitted", C.Emitted}};
}

std::string renderCounters(const discover::DiscoverCounters &C) {
  std::string Out;
  for (const auto &[K, V] : counterList(C))
    Out += K + "=" + std::to_string(V) + "\n";
  return Out;
}

/// The options `alivec discover --jobs=N` runs with, built as the batch
/// runner's discover mode builds them (including its query cache).
discover::DiscoverOptions discoverOptions(const service::BatchOptions &Opts,
                                          unsigned Jobs) {
  discover::DiscoverOptions DO;
  DO.Enum.Depth = Opts.DiscoverDepth;
  DO.Enum.Limit = Opts.DiscoverLimit;
  DO.Enum.FP = Opts.DiscoverFP;
  DO.Enum.IdiomSeeds = Opts.DiscoverSeeds;
  DO.Cfg = Opts.Cfg;
  DO.FinalWidths = Opts.DiscoverFinalWidths;
  DO.Jobs = Jobs;
  DO.Generalize = Opts.DiscoverGeneralize;
  DO.InferBudgetMs = Opts.InferBudgetMs;
  if (Opts.UseCache)
    DO.Cfg.Cache = std::make_shared<smt::QueryCache>(
        1 << 16, smt::QueryCache::shardCountForJobs(Jobs));
  return DO;
}

struct DiscoverInput {
  std::string GoldenOpt;
  std::string GoldenCounters;
  service::BatchOptions Opts;
  unsigned Jobs = 1;
};

DiscoverInput makeDiscoverInput(const RunOptions &O, RunOutcome &R) {
  DiscoverInput In;
  if (!readFile(O.Root + DiscoverGoldenOpt, In.GoldenOpt) ||
      !readFile(O.Root + DiscoverGoldenCounters, In.GoldenCounters))
    R.Problems.push_back("cannot read the discover-sweep golden files");
  else if (!parser::parseTransforms(In.GoldenOpt).ok())
    R.Problems.push_back("the discover-sweep golden .opt does not parse");
  In.Jobs = nprocCount();
  In.Opts = batchOptions("discover", {"--jobs=" + std::to_string(In.Jobs)}, R);
  return In;
}

struct DiscoverPass {
  Pass P;
  discover::DiscoverResult Res;
};

DiscoverPass runDiscoverPass(const DiscoverInput &In, RunOutcome &R,
                             BackendTally *Tally = nullptr) {
  DiscoverPass DP;
  discover::DiscoverOptions DO = discoverOptions(In.Opts, In.Jobs);
  if (Tally)
    DO.Cfg.SessionFactory = timedSessionFactory(DO.Cfg, *Tally);
  double C0 = cpuMs();
  auto T0 = Clock::now();
  {
    ScopedSpan Run("discover.run");
    if (Tracer *T = activeTracer())
      T->setRoot(Run.id());
    DP.Res = discover::runDiscover(DO, nullptr, nullptr);
  }
  DP.P.WallMs = msSince(T0);
  DP.P.CpuMs = cpuMs() - C0;
  DP.P.Items = DP.Res.Counters.Enumerated;
  DP.P.Failed = DP.Res.Counters.Unknown + (DP.Res.Exit != 0);
  if (DP.Res.OptText != In.GoldenOpt)
    R.Problems.push_back("discover output differs from the golden .opt");
  if (renderCounters(DP.Res.Counters) != In.GoldenCounters)
    R.Problems.push_back("discover counters differ from the golden: " +
                         renderCounters(DP.Res.Counters));
  return DP;
}

/// The sweep's stage-2 funnel, re-run standalone on the same candidates.
struct FunnelCounts {
  uint64_t Unique = 0, Untypeable = 0, AbstractKilled = 0, DiffKilled = 0,
           Vacuous = 0, SolverBound = 0;
};

void runDiscoverWorkload(const RunOptions &O, RunOutcome &R) {
  DiscoverInput In;
  double SetupS = medianSetupS([&] {
    RunOutcome Scratch;
    In = makeDiscoverInput(O, Scratch);
    R.Problems = std::move(Scratch.Problems);
  });
  R.Jobs = In.Jobs;
  if (!R.Problems.empty())
    return;
  MetricMap M;

  if (!O.Trace) {
    std::vector<Pass> Passes =
        timedPasses(O.Seconds, [&] { return runDiscoverPass(In, R).P; });
    batchEndToEnd(R, M, SetupS, Passes);
    emitMetrics(R, M, false);
    return;
  }

  DiscoverPass Plain = runDiscoverPass(In, R);
  R.Attempted = Plain.P.Items;
  R.Failed = Plain.P.Failed;

  Tracer Tr;
  BackendTally Tally;
  DiscoverPass Traced;
  {
    TraceScope TS(Tr);
    Traced = runDiscoverPass(In, R, &Tally);
  }
  std::vector<Span> Pipeline = Tr.spans();
  if (Traced.Res.OptText != Plain.Res.OptText ||
      renderCounters(Traced.Res.Counters) != renderCounters(Plain.Res.Counters))
    R.Problems.push_back("trace parity: traced discover output differs");

  // Shadow spans: enumeration, canonicalization and the funnel stages on
  // the same candidates, then the solver-bound survivors verified one by
  // one at the sweep widths.
  discover::DiscoverOptions DO = discoverOptions(In.Opts, In.Jobs);
  verifier::VerifyConfig SweepCfg = DO.Cfg;
  SweepCfg.Jobs = 1;
  Tracer Sh;
  BackendTally ShadowTally;
  SweepCfg.SessionFactory = timedSessionFactory(SweepCfg, ShadowTally);
  FunnelCounts FC;
  std::vector<VerifiedItem> Verified;
  uint64_t Assignments = 0;
  {
    TraceScope TS(Sh);
    std::vector<discover::CandidateSpec> Specs;
    {
      ScopedSpan S("discover.enumerate", /*Shadow=*/true);
      Specs = discover::enumerateCandidates(DO.Enum);
    }
    struct Cand {
      std::unique_ptr<ir::Transform> T;
      enum { Untypeable, Abstract, Diff, Vacuous, Survivor } Stage = Survivor;
      uint64_t Assignments = 0;
    };
    std::vector<Cand> Cands;
    std::set<std::string> Seen;
    for (const discover::CandidateSpec &Spec : Specs) {
      auto TR = discover::materialize(Spec);
      if (!TR.ok())
        continue;
      Cand C;
      C.T = TR.take();
      std::string Key;
      {
        ScopedSpan S("discover.canonicalize", /*Shadow=*/true);
        Key = discover::canonicalize(*C.T).pairKey();
      }
      if (Seen.insert(Key).second)
        Cands.push_back(std::move(C));
    }
    const discover::FunnelConfig &FCfg = DO.Funnel;
    support::ThreadPool::parallelFor(In.Jobs, Cands.size(), [&](size_t I) {
      Cand &C = Cands[I];
      setCurrentRequest(I + 1);
      auto Sys = typing::TypeConstraintSystem::fromTransform(*C.T);
      Result<std::vector<typing::TypeAssignment>> Feasible =
          std::vector<typing::TypeAssignment>();
      {
        ScopedSpan S("typing.enumerate", /*Shadow=*/true);
        Feasible = typing::enumerateTypesNative(Sys, SweepCfg.Types);
      }
      if (!Feasible.ok() || Feasible.get().empty()) {
        C.Stage = Cand::Untypeable;
        setCurrentRequest(0);
        return;
      }
      C.Assignments = Feasible.get().size();
      // The sweep types the abstract check at the exhaustive width only.
      typing::TypeEnumConfig One;
      One.Widths = {FCfg.ExhaustiveWidth};
      One.PtrWidth = FCfg.PtrWidth;
      One.MaxAssignments = 1;
      auto At = typing::enumerateTypesNative(Sys, One);
      if (At.ok() && !At.get().empty()) {
        ScopedSpan S("discover.abstract", /*Shadow=*/true);
        if (discover::abstractRefutes(*C.T, At.get()[0], FCfg.PtrWidth))
          C.Stage = Cand::Abstract;
      }
      if (C.Stage == Cand::Survivor) {
        ScopedSpan S("discover.diff", /*Shadow=*/true);
        switch (discover::differentialTest(*C.T, Sys, FCfg)) {
        case discover::DiffVerdict::Refuted:
          C.Stage = Cand::Diff;
          break;
        case discover::DiffVerdict::Vacuous:
          C.Stage = Cand::Vacuous;
          break;
        case discover::DiffVerdict::Survive:
        case discover::DiffVerdict::Unsupported:
          break;
        }
      }
      setCurrentRequest(0);
    });
    std::vector<const Cand *> Survivors;
    for (const Cand &C : Cands) {
      ++FC.Unique;
      Assignments += C.Assignments;
      switch (C.Stage) {
      case Cand::Untypeable:
        ++FC.Untypeable;
        break;
      case Cand::Abstract:
        ++FC.AbstractKilled;
        break;
      case Cand::Diff:
        ++FC.DiffKilled;
        break;
      case Cand::Vacuous:
        ++FC.Vacuous;
        break;
      case Cand::Survivor:
        ++FC.SolverBound;
        Survivors.push_back(&C);
        break;
      }
    }
    Verified.resize(Survivors.size());
    support::ThreadPool::parallelFor(In.Jobs, Survivors.size(), [&](size_t I) {
      setCurrentRequest(Cands.size() + I + 1);
      ScopedSpan V("verifier.verify", /*Shadow=*/true);
      // The candidate's text on one line names it in the table.
      std::string Text = Survivors[I]->T->str();
      std::replace(Text.begin(), Text.end(), '\n', ' ');
      Verified[I].Name = Text.substr(0, Text.find_last_not_of(' ') + 1);
      Verified[I].Result = verifier::verify(*Survivors[I]->T, SweepCfg);
      Verified[I].SpanId = V.id();
      Verified[I].Ms = V.elapsedMs();
      setCurrentRequest(0);
    });
  }
  std::vector<Span> Shadow = Sh.spans();

  const discover::DiscoverCounters &C = Plain.Res.Counters;
  auto Same = [&](const char *What, uint64_t Shadowed, uint64_t Real) {
    if (Shadowed != Real)
      R.Problems.push_back(std::string("trace parity: shadow ") + What + " " +
                           std::to_string(Shadowed) + " vs sweep " +
                           std::to_string(Real));
  };
  Same("unique", FC.Unique, C.Unique);
  Same("untypeable", FC.Untypeable, C.Untypeable);
  Same("abstract_killed", FC.AbstractKilled, C.AbstractKilled);
  Same("diff_killed", FC.DiffKilled, C.DiffKilled);
  Same("vacuous", FC.Vacuous, C.Vacuous);
  Same("solver_bound", FC.SolverBound, C.SolverBound);

  M["failed_share"] = ratio(R.Failed, R.Attempted);
  M["typing.enumerate_ms"] = sumMs(Shadow, "typing.enumerate");
  M["typing.assignments"] = Assignments;
  verifierMetrics(M, Verified, Shadow);
  // The sweep's own solver work: backend checks timed inside runDiscover.
  backendMetrics(M, Tally, Pipeline, nullptr);
  smt::SolverStats B = Tally.total();
  M["smt.checks"] = B.Queries + B.IncrementalReuses;
  M["smt.cold_starts"] = B.ColdStarts;
  M["smt.cold_queries"] = B.Queries;
  M["smt.incremental_reuses"] = B.IncrementalReuses;
  M["smt.escalations"] = B.Escalations;
  M["smt.z3_fallbacks"] = B.FragmentFallbacks;
  M["smt.unknowns"] = B.UnknownAnswers;
  M["smt.cache_hits"] = 0;
  M["smt.cache_hit_ratio"] = 0;
  M["smt.store_hits"] = 0;
  M["discover.enumerate_ms"] = sumMs(Shadow, "discover.enumerate");
  M["discover.canonicalize_ms"] = sumMs(Shadow, "discover.canonicalize");
  M["discover.abstract_ms"] = sumMs(Shadow, "discover.abstract");
  M["discover.abstract_killed"] = FC.AbstractKilled;
  M["discover.diff_ms"] = sumMs(Shadow, "discover.diff");
  M["discover.diff_killed"] = FC.DiffKilled;
  M["discover.solver_bound"] = FC.SolverBound;
  M["discover.kill_ratio"] =
      ratio(FC.Untypeable + FC.AbstractKilled + FC.DiffKilled + FC.Vacuous,
            FC.Unique);
  M["discover.driver_self_ms"] = selfMs(Pipeline, "discover.run");
  M["service.batch_ms"] = Plain.P.WallMs;
  M["service.parallel_efficiency"] =
      ratio(Plain.P.CpuMs, In.Jobs * Plain.P.WallMs);
  M["bench.trace_overhead_ratio"] = ratio(Traced.P.WallMs, Plain.P.WallMs);
  R.Detail.set("verifier_source",
               Value("shadow verify of the solver-bound survivors"));
  R.Detail.set("smt_source", Value("backend checks inside runDiscover"));
  R.Detail.set("traced_pass_ms", Value(Traced.P.WallMs));
  R.SlowestTable = slowestTable(
      Verified, Shadow, SlowestN,
      "Slowest solver-bound candidates of discover-sweep (shadow verify at "
      "the sweep widths, " + std::to_string(In.Jobs) + " jobs)");
  emitMetrics(R, M, true);
  R.Spans = std::move(Pipeline);
  R.Spans.insert(R.Spans.end(), Shadow.begin(), Shadow.end());
}

//===----------------------------------------------------------------------===//
// alived-mixed
//===----------------------------------------------------------------------===//

constexpr unsigned ServerWorkers = 2;
constexpr unsigned Clients = 2;
constexpr size_t EpisodeRequests = 1500;
/// A quarter of the corpus: four consecutive episodes (one cycle) send
/// every corpus transform exactly once as a first sighting.
constexpr size_t EpisodeFresh = 81;
const std::vector<std::string> RequestOpts = {"--jobs=1"};
const char RequestPath[] = "alived-mixed.opt";

struct Reply {
  std::string Status; ///< protocol status, or the transport error
  int Exit = 0;
  std::string Out, Err;
  double Ms = 0;
};

struct Episode {
  double SetupS = 0;
  double WallMs = 0;
  double CpuMs = 0;
  std::vector<uint32_t> Plan;
  std::vector<Reply> Replies;
  Value ServerStats;
  service::ResultStore::Stats Store;
};

/// Connects and hangs up at once, so a stopping server's accept loop
/// wakes now instead of at its next poll timeout.
void wakeServer(const std::string &Sock) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Sock.size() >= sizeof(Addr.sun_path))
    return;
  std::memcpy(Addr.sun_path, Sock.c_str(), Sock.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return;
  ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  ::close(Fd);
}

/// One episode: a fresh store and server, two closed-loop clients sending
/// the episode's requests, then the server's own numbers and a shutdown.
Episode runEpisode(const RunOptions &O, const std::vector<std::string> &Texts,
                   unsigned Index, RunOutcome &R) {
  namespace fs = std::filesystem;
  Episode E;
  std::string Dir = O.Work + "/store" + std::to_string(Index);
  std::string Sock = O.Work + "/s" + std::to_string(Index) + ".sock";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::remove(Sock, EC);
  fs::create_directories(Dir, EC);

  auto T0 = Clock::now();
  auto Opened = service::ResultStore::open(Dir);
  if (!Opened.ok()) {
    R.Problems.push_back("cannot open a store: " + Opened.message());
    return E;
  }
  std::shared_ptr<service::ResultStore> Store = Opened.take();
  service::ServerConfig SC;
  SC.SocketPath = Sock;
  SC.Workers = ServerWorkers;
  auto Srv = std::make_unique<service::Server>(SC, Store);
  if (Status S = Srv->start(); !S.ok()) {
    R.Problems.push_back("cannot start the server: " + S.message());
    return E;
  }
  std::thread Runner([&] { Srv->run(); });
  service::Request StatsReq;
  StatsReq.Verb = "stats";
  bool Connected = service::callServer(Sock, StatsReq).ok();
  E.SetupS = msSince(T0) / 1e3;

  if (Connected) {
    E.Plan = alivedEpisodePlan(O.Seed, Index, Texts.size(), EpisodeRequests,
                               EpisodeFresh);
    E.Replies.resize(E.Plan.size());
    std::atomic<size_t> Next{0};
    double C0 = cpuMs();
    auto T1 = Clock::now();
    std::vector<std::thread> Cs;
    for (unsigned C = 0; C != Clients; ++C)
      Cs.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < E.Plan.size();) {
          service::Request Q;
          Q.Id = I + 1;
          Q.Verb = "verify";
          Q.Path = RequestPath;
          Q.Text = Texts[E.Plan[I]];
          Q.Opts = RequestOpts;
          setCurrentRequest(Q.Id);
          ScopedSpan Span("service.request");
          auto Res = service::callServer(Sock, Q);
          Reply &Rp = E.Replies[I];
          Rp.Ms = Span.elapsedMs();
          if (Res.ok()) {
            Rp.Status = Res.get().StatusStr;
            Rp.Exit = Res.get().Exit;
            Rp.Out = std::move(Res.get().Out);
            Rp.Err = std::move(Res.get().Err);
          } else {
            Rp.Status = "transport: " + Res.message();
          }
        }
        setCurrentRequest(0);
      });
    for (std::thread &T : Cs)
      T.join();
    E.WallMs = msSince(T1);
    E.CpuMs = cpuMs() - C0;
    auto St = service::callServer(Sock, StatsReq);
    if (St.ok())
      E.ServerStats = St.get().Stats;
  } else {
    R.Problems.push_back("cannot connect to the server");
  }
  Srv->requestStop();
  wakeServer(Sock);
  Runner.join();
  Srv.reset();
  E.Store = Store->stats();
  Store.reset();
  fs::remove_all(Dir, EC);
  fs::remove(Sock, EC);
  // Each episode stands for a fresh daemon: hand the freed heap back, so
  // the peak resident size is that of one episode, not the fragmentation
  // that many short-lived connection threads leave over a whole run.
  malloc_trim(0);
  return E;
}

/// What a local runBatch of the same request prints.
struct LocalAnswer {
  int Exit = 0;
  std::string Body, Counts, Err;
};

/// Checks every reply against a local run of the same request; returns
/// the number of failed requests.
uint64_t gateReplies(const Episode &E, const std::vector<std::string> &Texts,
                     std::map<uint32_t, LocalAnswer> &Local, RunOutcome &R) {
  service::BatchOptions Opts = batchOptions("verify", RequestOpts, R);
  uint64_t Failed = 0;
  for (size_t I = 0; I != E.Replies.size(); ++I) {
    uint32_t K = E.Plan[I];
    auto It = Local.find(K);
    if (It == Local.end()) {
      service::BatchOutcome B =
          service::runBatch(Opts, RequestPath, Texts[K], nullptr, nullptr);
      It = Local.emplace(K, LocalAnswer{B.Exit, reportBody(B.Out),
                                        summaryCounts(B.Out), B.Err})
               .first;
    }
    const Reply &Rp = E.Replies[I];
    const LocalAnswer &L = It->second;
    bool Failure = Rp.Status != "ok" || Rp.Exit == 3 || Rp.Exit == 4;
    Failed += Failure;
    bool Same = Rp.Exit == L.Exit && reportBody(Rp.Out) == L.Body &&
                summaryCounts(Rp.Out) == L.Counts && Rp.Err == L.Err;
    if (!Failure && !Same && R.Problems.size() < 20)
      R.Problems.push_back("alived reply for request " + std::to_string(I + 1) +
                           " differs from a local run");
  }
  return Failed;
}

uint64_t statU(const Value &V, std::initializer_list<const char *> Path) {
  const Value *Cur = &V;
  for (const char *P : Path)
    Cur = &Cur->get(P);
  return Cur->asUInt();
}

void runAlivedWorkload(const RunOptions &O, RunOutcome &R) {
  std::vector<Item> Corpus = corpusItems();
  std::vector<std::string> Texts;
  for (const Item &It : Corpus)
    Texts.push_back(renderOpt({It}));
  R.Jobs = ServerWorkers;
  std::error_code EC;
  std::filesystem::create_directories(O.Work, EC);
  std::map<uint32_t, LocalAnswer> Local;
  MetricMap M;

  if (!O.Trace) {
    // Whole cycles only, so every run solves each corpus transform the
    // same number of times.
    const unsigned PerCycle = (Texts.size() + EpisodeFresh - 1) / EpisodeFresh;
    std::vector<double> Setups, Lat, Cycles;
    double Cpu = 0, WallMs = 0;
    uint64_t Requests = 0;
    const auto Start = Clock::now();
    const size_t NeedSamples = samplesNeededFor(99);
    for (unsigned I = 0; R.Problems.empty() &&
                         (Lat.size() < NeedSamples ||
                          fits(Start, O.Seconds, median(Cycles)));) {
      auto T0 = Clock::now();
      for (unsigned K = 0; K != PerCycle && R.Problems.empty(); ++K, ++I) {
        Episode E = runEpisode(O, Texts, I, R);
        Setups.push_back(E.SetupS);
        WallMs += E.WallMs;
        Cpu += E.CpuMs;
        Requests += E.Replies.size();
        for (const Reply &Rp : E.Replies)
          Lat.push_back(Rp.Ms);
        R.Failed += gateReplies(E, Texts, Local, R);
      }
      Cycles.push_back(msSince(T0));
    }
    R.Attempted = Requests;
    M["setup_s"] = median(Setups);
    M["items_per_s"] = ratio(Requests, WallMs / 1e3);
    M["cpu_ms_per_item"] = ratio(Cpu, Requests);
    M["peak_rss_mb"] = peakRssMb();
    M["latency_p50_ms"] = median(Lat);
    M["latency_p99_ms"] =
        tailPercentile(Lat, 99).value_or(nearestRank(Lat, 100));
    R.Detail.set("episodes", Value(static_cast<uint64_t>(Setups.size())));
    R.Detail.set("cycles", Value(static_cast<uint64_t>(Cycles.size())));
    R.Detail.set("latency_samples", Value(static_cast<uint64_t>(Lat.size())));
    emitMetrics(R, M, false);
    return;
  }

  // One untraced and one traced episode over the same request plan; the
  // traced one records a span per request on the client side.
  Episode Plain = runEpisode(O, Texts, 0, R);
  Tracer Tr;
  Episode Traced;
  {
    TraceScope TS(Tr);
    Traced = runEpisode(O, Texts, 0, R);
  }
  if (!R.Problems.empty())
    return;
  R.Attempted = Plain.Replies.size();
  R.Failed = gateReplies(Plain, Texts, Local, R);
  gateReplies(Traced, Texts, Local, R);
  auto Checks = [](const Value &S) {
    return statU(S, {"solver", "cold_queries"}) +
           statU(S, {"solver", "incremental_reuses"}) +
           statU(S, {"solver", "cache_hits"}) +
           statU(S, {"solver", "store_hits"});
  };
  if (Checks(Traced.ServerStats) != Checks(Plain.ServerStats))
    R.Problems.push_back("trace parity: server solver checks " +
                         std::to_string(Checks(Traced.ServerStats)) +
                         " traced vs " +
                         std::to_string(Checks(Plain.ServerStats)));

  // Shadow spans on the client side: every request's parse (a warm
  // request reparses its text on the server too), then each distinct
  // transform verified once, with its query verdicts written to a store
  // through the timing decorator, and its layers called standalone.
  Tracer Sh;
  BackendTally Tally;
  service::BatchOptions Opts = batchOptions("verify", RequestOpts, R);
  verifier::VerifyConfig Cfg = Opts.Cfg;
  Cfg.Jobs = 1;
  auto Cache = std::make_shared<smt::QueryCache>(1 << 16, 16);
  Cfg.Cache = Cache;
  std::string ShadowDir = O.Work + "/shadow-store";
  std::filesystem::remove_all(ShadowDir, EC);
  std::filesystem::create_directories(ShadowDir, EC);
  auto ShadowStore = service::ResultStore::open(ShadowDir);
  if (ShadowStore.ok())
    Cfg.Store = std::make_shared<TimingVerdictStore>(
        std::shared_ptr<service::ResultStore>(ShadowStore.take()));
  Cfg.SessionFactory = timedSessionFactory(Cfg, Tally);
  std::vector<VerifiedItem> Verified;
  uint64_t Assignments = 0, Terms = 0;
  {
    TraceScope TS(Sh);
    std::set<uint32_t> Done;
    for (size_t I = 0; I != Plain.Plan.size(); ++I) {
      uint32_t K = Plain.Plan[I];
      setCurrentRequest(I + 1);
      std::unique_ptr<ir::Transform> T;
      {
        ScopedSpan P("parser.parse", /*Shadow=*/true);
        auto Parsed = parser::parseTransforms(Texts[K]);
        if (Parsed.ok() && Parsed.get().size() == 1)
          T = std::move(Parsed.get()[0]);
      }
      if (!T || !Done.insert(K).second)
        continue;
      VerifiedItem It;
      It.Name = Corpus[K].Name;
      {
        ScopedSpan V("verifier.verify", /*Shadow=*/true);
        It.Result = verifier::verify(*T, Cfg);
        It.SpanId = V.id();
        It.Ms = V.elapsedMs();
      }
      Verified.push_back(std::move(It));
      shadowLayers(*T, Cfg, Assignments, Terms);
    }
    setCurrentRequest(0);
  }
  Cfg.Store.reset();
  std::filesystem::remove_all(ShadowDir, EC);
  std::vector<Span> Shadow = Sh.spans();
  std::vector<Span> Pipeline = Tr.spans();

  const Value &S = Plain.ServerStats;
  M["failed_share"] = ratio(R.Failed, R.Attempted);
  M["parser.parse_ms"] = sumMs(Shadow, "parser.parse");
  shadowLayerMetrics(M, Shadow, Assignments, Terms);
  verifierMetrics(M, Verified, Shadow);
  backendMetrics(M, Tally, Shadow, Cache.get());
  // The server's own solver work, from its stats verb.
  M["smt.cold_queries"] = statU(S, {"solver", "cold_queries"});
  M["smt.incremental_reuses"] = statU(S, {"solver", "incremental_reuses"});
  M["smt.cache_hits"] = statU(S, {"solver", "cache_hits"});
  M["smt.store_hits"] = statU(S, {"solver", "store_hits"});
  M["smt.cold_starts"] = statU(S, {"solver", "cold_starts"});
  M["smt.checks"] = Checks(S);
  M["smt.cache_hit_ratio"] = ratio(M["smt.cache_hits"], M["smt.checks"]);
  M["smt.sat.preprocess_ms"] = statU(S, {"preprocess", "preprocess_ms"});
  M["smt.sat.eliminated_vars"] = statU(S, {"preprocess", "eliminated_vars"});
  M["smt.cache.contention"] = statU(S, {"preprocess", "cache_contention"});
  const Value &Hist = S.get("histograms").get("request_latency_ms");
  M["service.batch_ms"] = Hist.get("sum_ms").asDouble();
  M["service.parallel_efficiency"] =
      ratio(Plain.CpuMs, ServerWorkers * Plain.WallMs);
  M["service.store.report_hits"] = Plain.Store.ReportHits;
  M["service.store.report_hit_ratio"] =
      ratio(Plain.Store.ReportHits,
            Plain.Store.ReportHits + Plain.Store.ReportMisses);
  M["service.store.inserted_records"] = Plain.Store.InsertedRecords;
  M["service.server.latency_p50_ms"] = Hist.get("p50_ms").asDouble();
  M["service.server.coalesced"] =
      statU(S, {"counters", "requests_coalesced_total"});
  M["service.server.shed"] = statU(S, {"counters", "requests_shed_total"});
  M["bench.trace_overhead_ratio"] = ratio(Traced.WallMs, Plain.WallMs);
  R.Detail.set("smt_source",
               Value("server stats verb for counts; shadow verify for "
                     "timings, escalations, unknowns and AIG counters"));
  R.Detail.set("verifier_source",
               Value("shadow verify of each distinct transform of episode 0"));
  R.Detail.set("latency_samples",
               Value(static_cast<uint64_t>(Plain.Replies.size())));
  R.SlowestTable = slowestTable(
      Verified, Shadow, SlowestN,
      "Slowest transforms of alived-mixed episode 0 (shadow verify, 1 job)");
  emitMetrics(R, M, true);
  R.Spans = std::move(Pipeline);
  R.Spans.insert(R.Spans.end(), Shadow.begin(), Shadow.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "int-corpus", "fp-corpus", "discover-sweep", "alived-mixed"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndMetrics() {
  return EndToEnd;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  return PerLayer;
}

unsigned perfbench::nprocCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

RunOutcome perfbench::runWorkload(const RunOptions &O) {
  RunOutcome R;
  if (O.Workload == "int-corpus")
    runVerifyWorkload(O, /*Fp=*/false, R);
  else if (O.Workload == "fp-corpus")
    runVerifyWorkload(O, /*Fp=*/true, R);
  else if (O.Workload == "discover-sweep")
    runDiscoverWorkload(O, R);
  else if (O.Workload == "alived-mixed")
    runAlivedWorkload(O, R);
  else
    R.Problems.push_back("unknown workload '" + O.Workload + "'");
  return R;
}

int perfbench::writeDiscoverGolden(const std::string &Dir) {
  RunOutcome R;
  service::BatchOptions Opts = batchOptions(
      "discover", {"--jobs=" + std::to_string(nprocCount())}, R);
  if (!R.Problems.empty())
    return 2;
  discover::DiscoverResult Res = discover::runDiscover(
      discoverOptions(Opts, nprocCount()), nullptr, nullptr);
  std::ofstream(Dir + "/discover-sweep.opt", std::ios::binary) << Res.OptText;
  std::ofstream(Dir + "/discover-sweep.counters", std::ios::binary)
      << renderCounters(Res.Counters);
  return Res.Exit;
}
