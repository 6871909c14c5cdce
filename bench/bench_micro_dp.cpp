// google-benchmark scaling of the k-ISOMIT-BT dynamic program: tree size,
// k cap, and the binarized-vs-general formulations.
#include <benchmark/benchmark.h>

#include "core/tree_dp.hpp"
#include "gen/trees.hpp"
#include "oracles/general_tree_dp.hpp"
#include "util/rng.hpp"

namespace {

using namespace rid;

core::CascadeTree random_cascade_tree(graph::NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  const gen::EdgeList el = gen::random_bounded_tree(n, 4, rng);
  core::CascadeTree tree;
  tree.parent.assign(n, graph::kInvalidNode);
  for (const auto& [p, c] : el.edges) tree.parent[c] = p;
  tree.in_g.resize(n);
  tree.in_g[0] = 1.0;
  for (graph::NodeId v = 1; v < n; ++v)
    tree.in_g[v] = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.05, 1.0);
  tree.global.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) tree.global[v] = v;
  tree.parent_edge.assign(n, graph::kInvalidEdge);
  tree.state.assign(n, graph::NodeState::kPositive);
  tree.root = 0;
  return tree;
}

void BM_TreeDpCompute(benchmark::State& state) {
  const auto tree =
      random_cascade_tree(static_cast<graph::NodeId>(state.range(0)), 3);
  const auto kmax = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    core::BinarizedTreeDp dp(tree);
    benchmark::DoNotOptimize(dp.compute(kmax));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TreeDpCompute)
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Args({4096, 8})
    ->Args({1024, 16})
    ->Args({1024, 32});

void BM_GeneralTreeDp(benchmark::State& state) {
  const auto tree =
      random_cascade_tree(static_cast<graph::NodeId>(state.range(0)), 3);
  const auto kmax = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::general_tree_opt_curve(tree, kmax));
  }
}
BENCHMARK(BM_GeneralTreeDp)->Args({256, 8})->Args({1024, 8})->Args({4096, 8});

void BM_SolveTreeWithPenalty(benchmark::State& state) {
  const auto tree =
      random_cascade_tree(static_cast<graph::NodeId>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_tree(tree, 0.1, {}));
  }
}
BENCHMARK(BM_SolveTreeWithPenalty)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Binarization(benchmark::State& state) {
  const auto tree =
      random_cascade_tree(static_cast<graph::NodeId>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::binarize_tree(tree.parent, tree.in_g, 1.0));
  }
}
BENCHMARK(BM_Binarization)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
