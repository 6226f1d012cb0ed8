//===- perfbench/src/Inputs.h - seeded workload inputs ----------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload inputs made from the benchmark seed. The generator is
/// splitmix64 with a Fisher-Yates shuffle written out here, so one seed
/// gives byte-identical inputs on every standard library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: advances \p State and returns the next 64 random bits.
uint64_t nextRandom(uint64_t &State);

/// Uniform in [0, 1) from the top 53 bits of the next draw.
double nextUnit(uint64_t &State);

/// A seeded permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, uint64_t Seed);

/// One transform of a workload, with the answer the run is checked
/// against.
struct Item {
  std::string Name;
  std::string Text;           ///< Alive DSL without the Name: line
  bool ExpectCorrect = true;  ///< int-corpus ground truth
};

/// The hand-translated corpus (corpus::fullCorpus) in its own order.
std::vector<Item> corpusItems();

/// int-corpus: the corpus in the seed's permutation.
std::vector<Item> intCorpusInput(uint64_t Seed);

/// Renders items as one `.opt` text ("Name:" line, body, blank line).
std::string renderOpt(const std::vector<Item> &Items);

/// alived-mixed: the corpus indexes one episode sends, in order. The
/// episode opens with \p Fresh first sightings, the episode's slice of one
/// seeded order of the corpus; the rest of its \p Length requests repeat
/// them, skewed towards the ones sent first (the popular ones). Repeats
/// start once every first sighting is sent, so a repeat rarely waits on
/// a first sighting still being solved.
std::vector<uint32_t> alivedEpisodePlan(uint64_t Seed, unsigned Episode,
                                        size_t CorpusSize, size_t Length,
                                        size_t Fresh);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
