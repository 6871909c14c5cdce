// Cross-module property and fuzz tests: randomized round trips and
// brute-force cross-checks that complement the per-module unit tests.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "algo/components.hpp"
#include "oracles/scc.hpp"
#include "core/rid.hpp"
#include "core/snapshot_io.hpp"
#include "core/tree_dp.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "graph/graph_io.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace rid {
namespace {

using graph::EdgeId;
using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;

SignedGraph random_graph(util::Rng& rng, NodeId n, std::size_t m) {
  const auto el = gen::erdos_renyi(n, m, rng);
  SignedGraph g = gen::assign_signs_uniform(
      el, {.positive_probability = 0.75}, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.0, 1.0));
  return g;
}

// --- golden RNG values (stability contract for reproducibility) -----------------

TEST(GoldenRng, Seed42StreamIsStable) {
  util::Rng rng(42);
  EXPECT_EQ(rng.next_u64(), 1546998764402558742ULL);
  EXPECT_EQ(rng.next_u64(), 6990951692964543102ULL);
  EXPECT_EQ(rng.next_u64(), 12544586762248559009ULL);
  EXPECT_EQ(rng.next_u64(), 17057574109182124193ULL);
  util::Rng doubles(42);
  EXPECT_DOUBLE_EQ(doubles.next_double(), 0.083862971059882163);
  EXPECT_DOUBLE_EQ(doubles.next_double(), 0.37898025066266861);
  EXPECT_DOUBLE_EQ(doubles.next_double(), 0.68004341102813937);
}

// --- robustness ------------------------------------------------------------------

TEST(Fuzz, SanitizedRidNeverThrowsOnCorruptedSnapshots) {
  // Arbitrary garbage state vectors (wrong sizes, invalid bytes) must never
  // crash a kRepair run — the contract behind RepairPolicy::kRepair.
  util::Rng rng(5151);
  for (int trial = 0; trial < 12; ++trial) {
    const NodeId n = 10 + static_cast<NodeId>(rng.next_below(70));
    const SignedGraph g = random_graph(rng, n, 3 * n);
    // Wrong length in either direction, random bytes in [-6, 6].
    const std::size_t len = rng.next_below(2 * n + 1);
    std::vector<NodeState> states(len);
    for (auto& s : states)
      s = static_cast<NodeState>(static_cast<int>(rng.next_below(13)) - 6);

    core::RidConfig config;
    config.repair_policy = core::RepairPolicy::kRepair;
    config.budget.max_tree_nodes = 32;  // also exercise degradation
    core::DetectionResult result;
    ASSERT_NO_THROW(result = core::run_rid(g, states, config))
        << "trial " << trial;
    // Diagnostics cover every tree; degradations never abort the run.
    EXPECT_EQ(result.diagnostics.trees.size(), result.num_trees)
        << "trial " << trial;
    EXPECT_EQ(result.diagnostics.num_ok + result.diagnostics.num_degraded +
                  result.diagnostics.num_failed,
              result.num_trees)
        << "trial " << trial;
  }
}

// --- round trips -----------------------------------------------------------------

TEST(Fuzz, GraphIoRoundTripsRandomGraphs) {
  util::Rng rng(101);
  for (int trial = 0; trial < 15; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(60));
    const std::size_t m = rng.next_below(4 * n);
    const SignedGraph g = random_graph(rng, n, std::min<std::size_t>(
        m, static_cast<std::size_t>(n) * (n - 1)));
    std::stringstream buffer;
    graph::save_weighted(g, buffer);
    const graph::LoadedGraph loaded = graph::load_weighted(buffer);
    ASSERT_EQ(loaded.graph.num_edges(), g.num_edges()) << "trial " << trial;
    // Node labels are compacted in file order; build label -> compact map.
    std::vector<NodeId> compact(n, graph::kInvalidNode);
    for (NodeId c = 0; c < loaded.original_label.size(); ++c)
      compact[static_cast<NodeId>(loaded.original_label[c])] = c;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const NodeId lsrc = compact[g.edge_src(e)];
      const NodeId ldst = compact[g.edge_dst(e)];
      ASSERT_NE(lsrc, graph::kInvalidNode);
      ASSERT_NE(ldst, graph::kInvalidNode);
      const EdgeId le = loaded.graph.find_edge(lsrc, ldst);
      ASSERT_NE(le, graph::kInvalidEdge) << "trial " << trial;
      EXPECT_NEAR(loaded.graph.edge_weight(le), g.edge_weight(e), 1e-6);
      EXPECT_EQ(loaded.graph.edge_sign(le), g.edge_sign(e));
    }
  }
}

TEST(Fuzz, SnapshotRoundTripsRandomStates) {
  util::Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 1 + static_cast<NodeId>(rng.next_below(200));
    std::vector<NodeState> states(n);
    for (auto& s : states) {
      switch (rng.next_below(4)) {
        case 0: s = NodeState::kInactive; break;
        case 1: s = NodeState::kPositive; break;
        case 2: s = NodeState::kNegative; break;
        default: s = NodeState::kUnknown; break;
      }
    }
    std::stringstream buffer;
    core::save_snapshot(states, buffer);
    EXPECT_EQ(core::load_snapshot(buffer, n), states) << "trial " << trial;
  }
}

TEST(Fuzz, CsvRoundTripsHostileFields) {
  util::Rng rng(107);
  const std::string alphabet = "ab,\"\n\r x";
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> fields(1 + rng.next_below(6));
    for (auto& field : fields) {
      const std::size_t len = rng.next_below(12);
      for (std::size_t i = 0; i < len; ++i)
        field.push_back(alphabet[rng.next_below(alphabet.size())]);
      // csv_parse_line is the single-line variant: embedded newlines are
      // exercised through escaping only when quoted; strip raw newlines.
      std::erase(field, '\n');
      std::erase(field, '\r');
    }
    std::ostringstream line;
    util::CsvWriter writer(line);
    writer.write_row(fields);
    EXPECT_EQ(util::csv_parse_line(line.str()), fields) << "trial " << trial;
  }
}

// --- brute-force cross-checks ------------------------------------------------------

TEST(Fuzz, WccMatchesUndirectedBfs) {
  util::Rng rng(109);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(80));
    const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1);
    const SignedGraph g = random_graph(
        rng, n, std::min<std::size_t>(rng.next_below(3 * n), max_edges));
    const algo::Components comps = algo::weakly_connected_components(g);
    // Undirected adjacency reference.
    std::vector<std::vector<NodeId>> adj(n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      adj[g.edge_src(e)].push_back(g.edge_dst(e));
      adj[g.edge_dst(e)].push_back(g.edge_src(e));
    }
    std::vector<int> label(n, -1);
    int count = 0;
    for (NodeId s = 0; s < n; ++s) {
      if (label[s] != -1) continue;
      std::vector<NodeId> queue{s};
      label[s] = count;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const NodeId w : adj[queue[head]]) {
          if (label[w] == -1) {
            label[w] = count;
            queue.push_back(w);
          }
        }
      }
      ++count;
    }
    ASSERT_EQ(comps.count, static_cast<NodeId>(count)) << "trial " << trial;
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        EXPECT_EQ(comps.label[a] == comps.label[b], label[a] == label[b])
            << "trial " << trial;
      }
    }
  }
}

TEST(Fuzz, SccMatchesMutualReachability) {
  util::Rng rng(113);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(12));
    const std::size_t cap = static_cast<std::size_t>(n) * (n - 1);
    const SignedGraph g = random_graph(
        rng, n, std::min<std::size_t>(rng.next_below(3 * n), cap));
    const algo::SccResult scc = algo::strongly_connected_components(g);
    // Floyd-Warshall reachability.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (NodeId v = 0; v < n; ++v) reach[v][v] = true;
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      reach[g.edge_src(e)][g.edge_dst(e)] = true;
    for (NodeId k = 0; k < n; ++k)
      for (NodeId i = 0; i < n; ++i)
        for (NodeId j = 0; j < n; ++j)
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        EXPECT_EQ(scc.component[a] == scc.component[b],
                  reach[a][b] && reach[b][a])
            << "trial " << trial;
      }
    }
  }
}

// --- MFC structural invariants -------------------------------------------------------

TEST(Fuzz, MfcInvariantsOnRandomGraphs) {
  util::Rng rng(127);
  for (int trial = 0; trial < 15; ++trial) {
    const NodeId n = 20 + static_cast<NodeId>(rng.next_below(200));
    SignedGraph g = random_graph(rng, n, 6 * n);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.set_edge_weight(e, rng.uniform(0.0, 0.4));
    diffusion::SeedSet seeds;
    const std::size_t num_seeds = 1 + rng.next_below(8);
    for (const auto v : rng.sample_without_replacement(n, num_seeds)) {
      seeds.nodes.push_back(static_cast<NodeId>(v));
      seeds.states.push_back(rng.bernoulli(0.5) ? NodeState::kPositive
                                                : NodeState::kNegative);
    }
    util::Rng sim_rng = rng.split();
    const diffusion::Cascade cascade =
        diffusion::simulate_mfc(g, seeds, {}, sim_rng);

    // Attempts are bounded by the edge count (one per directed pair).
    EXPECT_LE(cascade.num_attempts, g.num_edges());
    // Infected list is duplicate-free and consistent with the state array.
    std::set<NodeId> infected(cascade.infected.begin(),
                              cascade.infected.end());
    EXPECT_EQ(infected.size(), cascade.infected.size());
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(graph::is_active(cascade.state[v]),
                infected.count(v) == 1u);
    }
    // Activators are infected and connected by a real diffusion edge.
    for (const NodeId v : cascade.infected) {
      const NodeId a = cascade.activator[v];
      if (a == graph::kInvalidNode) continue;
      EXPECT_TRUE(graph::is_active(cascade.state[a]));
      const EdgeId e = cascade.activation_edge[v];
      EXPECT_EQ(g.edge_src(e), a);
      EXPECT_EQ(g.edge_dst(e), v);
    }
    // Seeds are all infected.
    for (const NodeId s : seeds.nodes) EXPECT_EQ(infected.count(s), 1u);
  }
}

// --- DP selection rules ---------------------------------------------------------------

TEST(Fuzz, GreedyStopNeverBeatsGlobalMinimum) {
  util::Rng rng(131);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = 3 + static_cast<NodeId>(rng.next_below(20));
    std::vector<NodeId> parent(n);
    std::vector<double> in_g(n);
    parent[0] = graph::kInvalidNode;
    in_g[0] = 1.0;
    for (NodeId v = 1; v < n; ++v) {
      parent[v] = static_cast<NodeId>(rng.next_below(v));
      in_g[v] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.05, 1.0);
    }
    core::CascadeTree tree;
    tree.parent = parent;
    tree.in_g = in_g;
    tree.global.resize(n);
    for (NodeId v = 0; v < n; ++v) tree.global[v] = v;
    tree.parent_edge.assign(n, graph::kInvalidEdge);
    tree.state.assign(n, NodeState::kPositive);
    tree.root = 0;

    const double beta = rng.uniform(0.0, 1.5);
    core::TreeDpOptions greedy;
    greedy.greedy_stop = true;
    core::TreeDpOptions global;
    global.greedy_stop = false;
    const auto a = core::solve_tree(tree, beta, greedy);
    const auto b = core::solve_tree(tree, beta, global);
    // The global rule optimizes the penalized objective; greedy can stop
    // early but never find anything strictly better.
    EXPECT_GE(a.objective + 1e-12, b.objective) << "trial " << trial;
    EXPECT_LE(a.k, b.k + 0u + n) << "sanity";
  }
}

}  // namespace
}  // namespace rid
