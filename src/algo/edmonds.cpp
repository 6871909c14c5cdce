// Implementations of max_branching_simple / max_branching_fast (see
// arborescence.hpp for the contract).
//
// Both solvers reduce coverage-maximizing branchings to a single
// maximum-weight spanning arborescence rooted at a virtual node `n` that has
// an arc to every real node with weight -BIG, where BIG exceeds the total
// absolute real weight. Minimizing the number of virtual arcs used (i.e.
// real roots) therefore lexicographically dominates the real weight.
#include "algo/arborescence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "algo/skew_heap.hpp"
#include "algo/union_find.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::algo {

namespace {

/// Shared instrumentation entry for both solver variants: one span per
/// invocation (the "Edmonds" slice of the extraction phase) plus run/arc
/// counters.
void count_branching_run(util::trace::TraceSpan& span, graph::NodeId n,
                         std::size_t num_arcs) {
  span.tag("nodes", static_cast<std::int64_t>(n));
  span.tag("arcs", static_cast<std::int64_t>(num_arcs));
  util::metrics::global().counter("edmonds.runs").add(1);
  util::metrics::global().counter("edmonds.arcs").add(num_arcs);
}

}  // namespace

namespace {

constexpr std::uint32_t kVirtualArc = 0xffffffffu;

struct InternalArc {
  graph::NodeId src;
  graph::NodeId dst;
  double weight;
  /// Index of the corresponding arc one contraction level below
  /// (level 0: index into the caller's arc span, or kVirtualArc).
  std::uint32_t lower;
};

double compute_big(std::span<const WeightedArc> arcs) {
  double sum = 1.0;
  for (const WeightedArc& a : arcs) sum += std::abs(a.weight);
  return sum;
}

/// Builds the level-0 arc list: all real arcs plus one virtual arc per node.
std::vector<InternalArc> level0_arcs(graph::NodeId n,
                                     std::span<const WeightedArc> arcs,
                                     double big) {
  std::vector<InternalArc> out;
  out.reserve(arcs.size() + n);
  for (std::uint32_t i = 0; i < arcs.size(); ++i) {
    const WeightedArc& a = arcs[i];
    if (a.src >= n || a.dst >= n)
      throw std::out_of_range("max_branching: arc endpoint >= num_nodes");
    if (a.src == a.dst) continue;  // self-loops can never be selected
    out.push_back({a.src, a.dst, a.weight, i});
  }
  for (graph::NodeId v = 0; v < n; ++v) out.push_back({n, v, -big, kVirtualArc});
  return out;
}

Branching finalize(graph::NodeId n, std::span<const WeightedArc> arcs,
                   const std::vector<std::uint32_t>& selected_per_node) {
  Branching result;
  result.parent.assign(n, graph::kInvalidNode);
  result.parent_arc.assign(n, graph::kInvalidEdge);
  result.num_roots = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint32_t arc = selected_per_node[v];
    if (arc == kVirtualArc) {
      ++result.num_roots;
      continue;
    }
    result.parent[v] = arcs[arc].src;
    result.parent_arc[v] = arc;
    result.total_weight += arcs[arc].weight;
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Simple solver: iterative levels of best-in-arc selection + cycle
// contraction, then top-down unwinding. This mirrors the paper's
// MWSG (Alg. 2) / Contract-Circles (Alg. 3) / extraction loop (Alg. 4).
// ---------------------------------------------------------------------------

Branching max_branching_simple(graph::NodeId num_nodes,
                               std::span<const WeightedArc> arcs,
                               const util::BudgetScope* budget) {
  const graph::NodeId n = num_nodes;
  if (n == 0) return Branching{};
  RID_FAILPOINT("edmonds.solve");
  util::trace::TraceSpan span("edmonds_simple");
  count_branching_run(span, n, arcs.size());
  util::BudgetChecker checker(budget);
  const double big = compute_big(arcs);

  struct Level {
    std::uint32_t n = 0;                 // nodes at this level (incl. root)
    std::uint32_t root = 0;              // root node id at this level
    std::vector<InternalArc> arcs;       // arcs at this level
    std::vector<std::uint32_t> best;     // per node: best in-arc index or ~0
    std::vector<std::uint32_t> comp;     // node -> next-level node id
  };

  std::vector<Level> levels;
  levels.push_back({});
  levels.back().n = n + 1;
  levels.back().root = n;
  levels.back().arcs = level0_arcs(n, arcs, big);

  constexpr std::uint32_t kNone = 0xffffffffu;

  // --- contraction phase ---
  while (true) {
    Level& level = levels.back();
    const std::uint32_t ln = level.n;
    level.best.assign(ln, kNone);
    for (std::uint32_t i = 0; i < level.arcs.size(); ++i) {
      checker.tick();
      const InternalArc& a = level.arcs[i];
      if (a.dst == level.root) continue;
      if (level.best[a.dst] == kNone ||
          a.weight > level.arcs[level.best[a.dst]].weight) {
        level.best[a.dst] = i;
      }
    }

    // Find cycles in the functional graph v -> src(best[v]).
    // color: 0 unvisited, 1 on current walk, 2 done.
    std::vector<std::uint8_t> color(ln, 0);
    std::vector<std::uint32_t> cycle_id(ln, kNone);
    std::uint32_t num_cycles = 0;
    color[level.root] = 2;
    for (std::uint32_t start = 0; start < ln; ++start) {
      if (color[start] != 0) continue;
      // Walk up predecessors until a visited node.
      std::uint32_t u = start;
      std::vector<std::uint32_t> walk;
      while (color[u] == 0) {
        color[u] = 1;
        walk.push_back(u);
        if (level.best[u] == kNone) break;  // reached the root's frontier
        u = level.arcs[level.best[u]].src;
      }
      if (color[u] == 1 && level.best[u] != kNone) {
        // u is on the current walk -> the tail of `walk` from u is a cycle.
        const auto it = std::find(walk.begin(), walk.end(), u);
        for (auto jt = it; jt != walk.end(); ++jt)
          cycle_id[*jt] = num_cycles;
        ++num_cycles;
      }
      for (const std::uint32_t w : walk) color[w] = 2;
    }

    if (num_cycles == 0) break;

    // Contract: cycles become supernodes, others keep singleton ids.
    Level next;
    level.comp.assign(ln, kNone);
    std::uint32_t next_id = 0;
    std::vector<std::uint32_t> cycle_node(num_cycles, kNone);
    for (std::uint32_t v = 0; v < ln; ++v) {
      if (cycle_id[v] == kNone) {
        level.comp[v] = next_id++;
      } else if (cycle_node[cycle_id[v]] == kNone) {
        cycle_node[cycle_id[v]] = next_id;
        level.comp[v] = next_id++;
      } else {
        level.comp[v] = cycle_node[cycle_id[v]];
      }
    }
    next.n = next_id;
    next.root = level.comp[level.root];
    next.arcs.reserve(level.arcs.size());
    for (std::uint32_t i = 0; i < level.arcs.size(); ++i) {
      const InternalArc& a = level.arcs[i];
      const std::uint32_t cu = level.comp[a.src];
      const std::uint32_t cv = level.comp[a.dst];
      if (cu == cv) continue;
      double w = a.weight;
      if (cycle_id[a.dst] != kNone)
        w -= level.arcs[level.best[a.dst]].weight;
      next.arcs.push_back({cu, cv, w, i});
    }
    levels.push_back(std::move(next));
  }

  // --- unwinding phase ---
  // covering[v] = arc index (at that level) selected to enter node v. At the
  // top level the best[] selection is acyclic and therefore optimal.
  std::vector<std::uint32_t> covering = levels.back().best;
  for (std::size_t li = levels.size() - 1; li > 0; --li) {
    const Level& upper = levels[li];
    const Level& lower = levels[li - 1];
    std::vector<std::uint32_t> lower_covering(lower.n, kNone);
    // Map each selected upper arc to its lower arc; mark the entry node.
    for (std::uint32_t v = 0; v < upper.n; ++v) {
      const std::uint32_t arc = covering[v];
      if (arc == kNone) continue;
      const std::uint32_t le = upper.arcs[arc].lower;
      lower_covering[lower.arcs[le].dst] = le;
    }
    // Nodes not entered from outside keep their in-cycle best arc.
    for (std::uint32_t v = 0; v < lower.n; ++v) {
      if (v == lower.root) continue;
      if (lower_covering[v] == kNone) lower_covering[v] = lower.best[v];
    }
    covering = std::move(lower_covering);
  }

  // covering now refers to level-0 arcs; translate to caller arc indices.
  std::vector<std::uint32_t> selected(n, kVirtualArc);
  const Level& base = levels.front();
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint32_t arc = covering[v];
    if (arc == kNone) continue;
    selected[v] = base.arcs[arc].lower;  // kVirtualArc for virtual arcs
  }
  return finalize(n, arcs, selected);
}

// ---------------------------------------------------------------------------
// Fast solver: Tarjan-style with skew heaps and rollback union-find
// (Gabow et al. reconstruction). Internally minimizes, so weights are
// negated.
// ---------------------------------------------------------------------------

Branching max_branching_fast(graph::NodeId num_nodes,
                             std::span<const WeightedArc> arcs,
                             const util::BudgetScope* budget) {
  const graph::NodeId n = num_nodes;
  if (n == 0) return Branching{};
  RID_FAILPOINT("edmonds.solve");
  util::trace::TraceSpan span("edmonds");
  count_branching_run(span, n, arcs.size());
  util::BudgetChecker checker(budget);
  const double big = compute_big(arcs);

  struct Arc {
    graph::NodeId src;
    graph::NodeId dst;
    std::uint32_t id;  // caller index or kVirtualArc
  };
  std::vector<Arc> all;
  all.reserve(arcs.size() + n);
  SkewHeapPool pool;
  pool.reserve(arcs.size() + n);
  const std::uint32_t total_nodes = n + 1;
  const graph::NodeId root = n;
  std::vector<SkewHeapPool::Handle> heap(total_nodes, SkewHeapPool::kEmpty);

  const auto add_arc = [&](graph::NodeId src, graph::NodeId dst, double w,
                           std::uint32_t id) {
    const auto arc_index = static_cast<std::uint32_t>(all.size());
    all.push_back({src, dst, id});
    heap[dst] = pool.meld(heap[dst], pool.make(-w, arc_index));  // minimize
  };
  for (std::uint32_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].src >= n || arcs[i].dst >= n)
      throw std::out_of_range("max_branching: arc endpoint >= num_nodes");
    if (arcs[i].src == arcs[i].dst) continue;
    add_arc(arcs[i].src, arcs[i].dst, arcs[i].weight, i);
  }
  for (graph::NodeId v = 0; v < n; ++v) add_arc(root, v, -big, kVirtualArc);

  RollbackUnionFind uf(total_nodes);
  std::vector<std::int64_t> seen(total_nodes, -1);
  seen[root] = root;
  std::vector<std::uint32_t> path(total_nodes);
  std::vector<std::uint32_t> queued(total_nodes);  // arc taken at path[i]
  std::vector<std::uint32_t> incoming(total_nodes, kVirtualArc + 0);
  std::vector<bool> has_incoming(total_nodes, false);

  struct Contraction {
    std::uint32_t node;        // representative after contraction
    std::size_t uf_time;       // rollback point
    std::vector<std::uint32_t> cycle_arcs;  // arcs taken around the cycle
  };
  std::vector<Contraction> contractions;

  for (std::uint32_t s = 0; s < total_nodes; ++s) {
    std::uint32_t u = static_cast<std::uint32_t>(uf.find(s));
    if (seen[u] >= 0) continue;
    std::size_t qi = 0;
    while (seen[u] < 0) {
      checker.tick();
      if (pool.empty(heap[u])) {
        // Unreachable from the root — cannot happen with virtual arcs.
        throw std::logic_error("max_branching_fast: disconnected node");
      }
      const std::uint32_t arc_index = pool.top_payload(heap[u]);
      const double key = pool.top_key(heap[u]);
      pool.add_all(heap[u], -key);  // future in-arcs of u pay w - w(best)
      heap[u] = pool.pop(heap[u]);
      queued[qi] = arc_index;
      path[qi++] = u;
      seen[u] = s;
      u = static_cast<std::uint32_t>(uf.find(all[arc_index].src));
      if (seen[u] == static_cast<std::int64_t>(s)) {
        // Contract the cycle discovered on the current path.
        Contraction contraction;
        contraction.uf_time = uf.time();
        SkewHeapPool::Handle cyc = SkewHeapPool::kEmpty;
        std::uint32_t w = 0;
        do {
          w = path[--qi];
          contraction.cycle_arcs.push_back(queued[qi]);
          cyc = pool.meld(cyc, heap[w]);
        } while (uf.unite(u, w));
        u = static_cast<std::uint32_t>(uf.find(u));
        heap[u] = cyc;
        seen[u] = -1;
        contraction.node = u;
        contractions.push_back(std::move(contraction));
      }
    }
    for (std::size_t i = 0; i < qi; ++i) {
      const std::uint32_t rep =
          static_cast<std::uint32_t>(uf.find(all[queued[i]].dst));
      incoming[rep] = queued[i];
      has_incoming[rep] = true;
    }
  }

  // Unwind contractions newest-first, assigning the winning external arc to
  // its true entry node and the stored cycle arcs to the rest.
  for (auto it = contractions.rbegin(); it != contractions.rend(); ++it) {
    const std::uint32_t rep = it->node;
    const std::uint32_t winner = incoming[rep];
    uf.rollback(it->uf_time);
    for (const std::uint32_t cycle_arc : it->cycle_arcs) {
      const std::uint32_t v =
          static_cast<std::uint32_t>(uf.find(all[cycle_arc].dst));
      incoming[v] = cycle_arc;
      has_incoming[v] = true;
    }
    const std::uint32_t entry =
        static_cast<std::uint32_t>(uf.find(all[winner].dst));
    incoming[entry] = winner;
    has_incoming[entry] = true;
  }

  std::vector<std::uint32_t> selected(n, kVirtualArc);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!has_incoming[v]) continue;
    selected[v] = all[incoming[v]].id;  // kVirtualArc for virtual arcs
  }
  return finalize(n, arcs, selected);
}

}  // namespace rid::algo
