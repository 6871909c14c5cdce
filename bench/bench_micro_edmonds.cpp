// google-benchmark comparison of the two Chu-Liu/Edmonds implementations —
// the paper-faithful recursive-contraction solver (kept as the reference in
// test_edmonds) vs the skew-heap solver that cascade extraction uses —
// across graph sizes.
#include <benchmark/benchmark.h>

#include "algo/arborescence.hpp"
#include "util/rng.hpp"

namespace {

using namespace rid;

std::vector<algo::WeightedArc> random_arcs(graph::NodeId n, std::size_t m,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<algo::WeightedArc> arcs;
  arcs.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    const auto v = static_cast<graph::NodeId>(rng.next_below(n));
    // Log-probability-like weights, as the extraction pipeline uses.
    arcs.push_back({u, v, -rng.uniform(0.0, 5.0), i});
  }
  return arcs;
}

void BM_EdmondsSimple(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto arcs = random_arcs(n, static_cast<std::size_t>(n) * 8, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo::max_branching_simple(n, arcs));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_EdmondsSimple)->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12);

void BM_EdmondsFast(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto arcs = random_arcs(n, static_cast<std::size_t>(n) * 8, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo::max_branching_fast(n, arcs));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_EdmondsFast)->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

void BM_EdmondsFastDense(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto arcs =
      random_arcs(n, static_cast<std::size_t>(n) * 64, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo::max_branching_fast(n, arcs));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_EdmondsFastDense)->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
