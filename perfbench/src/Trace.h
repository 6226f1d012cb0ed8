//===- perfbench/src/Trace.h - in-memory spans ------------------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer. A
/// span has a name, a start and end on the steady clock, the span that
/// caused it, and the request it belongs to. Spans stay in memory until
/// the run ends. The parent of a new span is the innermost open span of
/// the calling thread, or the tracer's root when the thread has none (a
/// worker thread of a library-owned pool).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = no parent
  uint64_t Request = 0;
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// A standalone call made beside the real pipeline on the same input,
  /// not a child of the pipeline's own call.
  bool Shadow = false;

  double ms() const { return (EndNs - StartNs) / 1e6; }
};

class Tracer {
public:
  Tracer() = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  void record(Span S);
  std::vector<Span> spans() const;

  /// Parent for spans opened on threads with no open span of their own.
  void setRoot(uint64_t Id) { Root.store(Id, std::memory_order_relaxed); }
  uint64_t root() const { return Root.load(std::memory_order_relaxed); }

private:
  mutable std::mutex Mu;
  std::vector<Span> Done; ///< guarded by Mu
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> Root{0};
};

/// The tracer spans go to; null when tracing is off.
Tracer *activeTracer();
void setActiveTracer(Tracer *T);

/// Sets the request id of the spans the calling thread opens (0 = none).
void setCurrentRequest(uint64_t Id);

/// Opens a span on construction and records it on destruction. A no-op
/// when no tracer is active.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, bool Shadow = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return S.Id; }
  /// Elapsed time so far (valid with or without a tracer).
  double elapsedMs() const { return (nowNs() - S.StartNs) / 1e6; }

private:
  Span S;
  uint64_t SavedCurrent = 0;
};

/// A span's duration minus the part of its interval that its children
/// cover. Children may overlap (parallel workers): the union counts once.
double selfTimeMs(const Span &Parent, const std::vector<const Span *> &Kids);

/// Children of every span, by parent id.
std::map<uint64_t, std::vector<const Span *>>
childrenByParent(const std::vector<Span> &Spans);

/// One JSON object per span, one per line.
std::string spansToJsonLines(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
