//===- perfbench/src/Inputs.cpp - seeded workload inputs ------------------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "corpus/Corpus.h"

#include <algorithm>

using namespace perfbench;

uint64_t perfbench::nextRandom(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double perfbench::nextUnit(uint64_t &State) {
  return static_cast<double>(nextRandom(State) >> 11) * 0x1.0p-53;
}

std::vector<size_t> perfbench::permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  uint64_t State = Seed;
  for (size_t I = N; I > 1; --I) {
    // Rejection sampling keeps the draw exactly uniform in [0, I).
    uint64_t Limit = UINT64_MAX - UINT64_MAX % I;
    uint64_t R;
    do
      R = nextRandom(State);
    while (R >= Limit);
    std::swap(P[I - 1], P[R % I]);
  }
  return P;
}

std::vector<Item> perfbench::corpusItems() {
  std::vector<Item> Out;
  for (const alive::corpus::CorpusEntry &E : alive::corpus::fullCorpus())
    Out.push_back({E.Name, E.Text, E.ExpectCorrect});
  return Out;
}

std::vector<Item> perfbench::intCorpusInput(uint64_t Seed) {
  std::vector<Item> All = corpusItems();
  std::vector<Item> Out;
  Out.reserve(All.size());
  for (size_t I : permutation(All.size(), Seed))
    Out.push_back(All[I]);
  return Out;
}

std::string perfbench::renderOpt(const std::vector<Item> &Items) {
  std::string Out;
  for (const Item &It : Items) {
    Out += "Name: " + It.Name + "\n" + It.Text;
    if (!It.Text.empty() && It.Text.back() != '\n')
      Out += "\n";
    Out += "\n";
  }
  return Out;
}

std::vector<uint32_t> perfbench::alivedEpisodePlan(uint64_t Seed,
                                                   unsigned Episode,
                                                   size_t CorpusSize,
                                                   size_t Length,
                                                   size_t Fresh) {
  Fresh = std::min({Fresh, CorpusSize, Length});
  // Consecutive episodes take consecutive slices of one seeded order of
  // the corpus, so a run's first sightings cover the corpus evenly.
  std::vector<size_t> Order = permutation(CorpusSize, Seed);
  std::vector<uint32_t> Plan;
  Plan.reserve(Length);
  for (size_t K = 0; K != Fresh; ++K)
    Plan.push_back(static_cast<uint32_t>(
        Order[(static_cast<size_t>(Episode) * Fresh + K) % CorpusSize]));
  uint64_t State = (Seed * 0x2545F4914F6CDD1Dull + Episode + 1) ^
                   0xA5A5A5A5A5A5A5A5ull;
  while (Plan.size() != Length) {
    double U = nextUnit(State);
    Plan.push_back(Plan[static_cast<size_t>(U * U * Fresh)]);
  }
  return Plan;
}
