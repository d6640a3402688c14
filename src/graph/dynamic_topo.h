// Incremental cycle detection via a dynamic topological order
// (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
// Acyclic Graphs", JEA 2007).
//
// The online RSGT/SGT schedulers admit one operation at a time, adding the
// arcs it induces and rejecting the operation if an arc would close a
// cycle. Rechecking acyclicity from scratch per arc costs O(V+E) each;
// Pearce-Kelly maintains a topological order and repairs only the
// affected region, which is near-constant for the mostly-forward arc
// streams schedulers produce. bench_graph_ablation quantifies the gap.
//
// All traversal scratch is owned by the instance, so AddEdge/AddEdges/
// WouldCreateCycle perform no heap allocations in the steady state.
#ifndef RELSER_GRAPH_DYNAMIC_TOPO_H_
#define RELSER_GRAPH_DYNAMIC_TOPO_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "util/undo_log.h"

namespace relser {

/// A DAG that stays acyclic: edge insertions that would create a cycle are
/// rejected (returning kCycle) and leave the structure unchanged.
class IncrementalTopology {
 public:
  enum class AddResult {
    kInserted,   ///< edge added, order repaired
    kDuplicate,  ///< edge already present; no change
    kCycle,      ///< insertion would create a cycle; rejected
  };

  /// Creates an empty DAG over `node_count` nodes, ordered by node id.
  explicit IncrementalTopology(std::size_t node_count);

  /// Grows the node universe; new nodes are appended at the end of the
  /// topological order.
  void EnsureNodes(std::size_t node_count);

  /// Pre-sizes the underlying edge index for `expected_edges` edges.
  void Reserve(std::size_t expected_edges) { graph_.Reserve(expected_edges); }

  /// Pre-reserves per-node adjacency capacity; see
  /// Digraph::ReserveAdjacency.
  void ReserveAdjacency(std::size_t per_node) {
    graph_.ReserveAdjacency(per_node);
  }

  /// Attempts to insert edge from -> to, repairing the order if needed.
  AddResult AddEdge(NodeId from, NodeId to);

  /// Attempts to insert a batch of arcs atomically. Returns true when the
  /// whole batch is in (duplicates are fine); when any arc would close a
  /// cycle, every arc inserted by this call is removed, every position
  /// its repairs moved is restored, and false is returned: a rejected
  /// batch leaves the graph *and the order* exactly as they were.
  /// Because the outcome depends only on whether graph ∪ batch is
  /// acyclic, the result is independent of arc order; order-consistent
  /// arcs are inserted first so the Pearce-Kelly repair regions of the
  /// remaining arcs stay small.
  /// This is the shared replacement for the per-caller "insert one edge at
  /// a time and unwind on failure" helpers the schedulers used to carry.
  bool AddEdges(const std::vector<std::pair<NodeId, NodeId>>& arcs);

  /// Removes all edges incident to `node` (transaction retirement in the
  /// online schedulers). The current order remains valid.
  void IsolateNode(NodeId node);

  /// Returns to a fresh instance's state (reorder counter aside) in time
  /// proportional to the nodes edges touched since the last Clear,
  /// keeping every buffer's storage.
  void Clear();

  /// Removes one edge (trial-insertion rollback). Edge removal never
  /// invalidates the maintained order. Returns true when removed.
  bool RemoveEdge(NodeId from, NodeId to) {
    return graph_.RemoveEdge(from, to);
  }

  /// Undo journal (the exact-abort rollback of core/online.h). While
  /// journaling is on, every edge AddEdge/AddEdges insert and every
  /// position a Pearce-Kelly repair moves is logged, and RollbackTo(mark)
  /// undoes the entries from `mark` on: the edge set and the order return
  /// to exactly what they were when JournalEnd() returned `mark`. Edge
  /// removals (RemoveEdge, IsolateNode) are not journaled, so a caller
  /// that removes edges must switch journaling off first (which also
  /// forgets every entry). Off by default.
  void set_journaling(bool on) {
    journaling_ = on;
    journal_.Reset(journal_.end());
  }
  std::size_t JournalEnd() const { return journal_.end(); }
  /// Entries currently journaled (between ForgetBefore and JournalEnd).
  std::size_t JournalSize() const { return journal_.size(); }
  void RollbackTo(std::size_t mark);
  /// Forgets the entries before `mark`; no later rollback may reach them.
  void ForgetBefore(std::size_t mark) { journal_.DropBefore(mark); }

  /// True iff the edge would close a cycle, *without* inserting it.
  bool WouldCreateCycle(NodeId from, NodeId to) const;

  /// Position of `node` in the maintained topological order.
  std::size_t OrderOf(NodeId node) const { return position_[node]; }

  /// Current topological order (node ids, first to last).
  std::vector<NodeId> Order() const;

  const Digraph& graph() const { return graph_; }
  std::size_t node_count() const { return graph_.node_count(); }
  std::size_t edge_count() const { return graph_.edge_count(); }

  /// The edge whose insertion last returned kCycle (from AddEdge or
  /// AddEdges). Meaningful only immediately after a rejected insertion;
  /// the observability layer reads it to name the witnessing arc.
  std::pair<NodeId, NodeId> last_rejected_edge() const {
    return last_rejected_edge_;
  }

  /// Number of Pearce-Kelly order repairs performed so far (insertions
  /// that had to move nodes, as opposed to order-consistent appends).
  std::uint64_t reorder_count() const { return reorder_count_; }

 private:
  // Forward DFS from `start` over nodes with position <= `bound`.
  // Returns false when `target` was reached (cycle); visited nodes are
  // appended to delta_forward_.
  bool DiscoverForward(NodeId start, std::size_t bound, NodeId target);
  // Backward DFS from `start` over nodes with position >= `bound`;
  // visited nodes are appended to delta_backward_.
  void DiscoverBackward(NodeId start, std::size_t bound);
  // Reassigns positions so delta_backward_ precedes delta_forward_.
  void Reorder();
  // Inserts from -> to into the graph (false when present), noting both
  // endpoints as touched and journaling the insertion when on.
  bool Insert(NodeId from, NodeId to);

  Digraph graph_;
  std::vector<std::size_t> position_;  // node -> order index
  std::vector<NodeId> order_;          // order index -> node
  // Repair-DFS scratch: generation stamps (like probe_stamp_ below) make
  // "clear the visited set" a single counter bump instead of a walk over
  // the discovered region — failed insertions and large repairs pay no
  // cleanup pass.
  std::vector<std::uint64_t> visit_stamp_;
  std::uint64_t visit_gen_ = 0;
  std::vector<NodeId> delta_forward_;
  std::vector<NodeId> delta_backward_;
  std::vector<NodeId> stack_;                       // DFS scratch
  std::vector<std::size_t> pool_;                   // Reorder scratch
  std::vector<std::size_t> deferred_;                // AddEdges pass-2 arcs
  // Endpoints of the edges inserted since the last Clear. Repairs move
  // only such nodes, so every other node keeps its id as its position.
  std::vector<NodeId> touched_;
  std::vector<std::uint8_t> touched_mark_;
  // Undo journal; AddEdges also uses it as its own rollback log. An entry
  // is an inserted edge `node -> (value & ~kEdgeTag)`, or a repair move:
  // `node` was at position `value`.
  struct JournalEntry {
    NodeId node;
    std::size_t value;
  };
  static constexpr std::size_t kEdgeTag = std::size_t{1} << 63;
  void LogEdge(NodeId from, NodeId to) {
    journal_.push_back({from, to | kEdgeTag});
  }
  UndoLog<JournalEntry> journal_;
  bool journaling_ = false;
  // WouldCreateCycle scratch: generation stamps avoid a per-probe clear.
  mutable std::vector<std::uint64_t> probe_stamp_;
  mutable std::vector<NodeId> probe_stack_;
  mutable std::uint64_t probe_gen_ = 0;
  std::pair<NodeId, NodeId> last_rejected_edge_{0, 0};
  std::uint64_t reorder_count_ = 0;
};

}  // namespace relser

#endif  // RELSER_GRAPH_DYNAMIC_TOPO_H_
