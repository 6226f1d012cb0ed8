//===- perfbench/src/Trace.cpp - in-memory spans for the traced run -------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/JSON.h"

#include <algorithm>

using namespace perfbench;

namespace {
std::atomic<Tracer *> Active{nullptr};
thread_local uint64_t CurrentSpan = 0;
thread_local uint64_t CurrentRequest = 0;
} // namespace

void Tracer::record(Span S) {
  std::lock_guard<std::mutex> L(Mu);
  Done.push_back(std::move(S));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Done;
}

Tracer *perfbench::activeTracer() {
  return Active.load(std::memory_order_acquire);
}

void perfbench::setActiveTracer(Tracer *T) {
  Active.store(T, std::memory_order_release);
}

void perfbench::setCurrentRequest(uint64_t Id) { CurrentRequest = Id; }

ScopedSpan::ScopedSpan(const char *Name, bool Shadow) {
  S.StartNs = nowNs();
  Tracer *T = activeTracer();
  if (!T)
    return;
  S.Id = T->newId();
  S.Parent = CurrentSpan ? CurrentSpan : T->root();
  S.Request = CurrentRequest;
  S.Name = Name;
  S.Shadow = Shadow;
  SavedCurrent = CurrentSpan;
  CurrentSpan = S.Id;
}

ScopedSpan::~ScopedSpan() {
  if (!S.Id)
    return;
  CurrentSpan = SavedCurrent;
  S.EndNs = nowNs();
  if (Tracer *T = activeTracer())
    T->record(std::move(S));
}

double perfbench::selfTimeMs(const Span &Parent,
                             const std::vector<const Span *> &Kids) {
  std::vector<std::pair<int64_t, int64_t>> Iv;
  Iv.reserve(Kids.size());
  for (const Span *K : Kids) {
    int64_t B = std::max(K->StartNs, Parent.StartNs);
    int64_t E = std::min(K->EndNs, Parent.EndNs);
    if (B < E)
      Iv.push_back({B, E});
  }
  std::sort(Iv.begin(), Iv.end());
  int64_t Covered = 0, CurB = 0, CurE = 0;
  bool Open = false;
  for (auto [B, E] : Iv) {
    if (Open && B <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Covered += CurE - CurB;
    CurB = B;
    CurE = E;
    Open = true;
  }
  if (Open)
    Covered += CurE - CurB;
  return (Parent.EndNs - Parent.StartNs - Covered) / 1e6;
}

std::map<uint64_t, std::vector<const Span *>>
perfbench::childrenByParent(const std::vector<Span> &Spans) {
  std::map<uint64_t, std::vector<const Span *>> Out;
  for (const Span &S : Spans)
    Out[S.Parent].push_back(&S);
  return Out;
}

std::string perfbench::spansToJsonLines(const std::vector<Span> &Spans) {
  using alive::support::json::Value;
  std::string Out;
  for (const Span &S : Spans) {
    Value O = Value::object();
    O.set("id", Value(S.Id));
    O.set("parent", Value(S.Parent));
    O.set("request", Value(S.Request));
    O.set("name", Value(S.Name));
    O.set("start_ns", Value(static_cast<int64_t>(S.StartNs)));
    O.set("end_ns", Value(static_cast<int64_t>(S.EndNs)));
    O.set("shadow", Value(S.Shadow));
    Out += O.str() + "\n";
  }
  return Out;
}
