#include "graph/dynamic_topo.h"

#include <algorithm>

namespace relser {

IncrementalTopology::IncrementalTopology(std::size_t node_count)
    : graph_(node_count),
      position_(node_count),
      order_(node_count),
      visit_stamp_(node_count, 0),
      touched_mark_(node_count, 0),
      probe_stamp_(node_count, 0) {
  for (NodeId node = 0; node < node_count; ++node) {
    position_[node] = node;
    order_[node] = node;
  }
}

void IncrementalTopology::EnsureNodes(std::size_t node_count) {
  const std::size_t old = graph_.node_count();
  if (node_count <= old) return;
  graph_.EnsureNodes(node_count);
  position_.resize(node_count);
  order_.resize(node_count);
  visit_stamp_.resize(node_count, 0);
  touched_mark_.resize(node_count, 0);
  probe_stamp_.resize(node_count, 0);
  for (NodeId node = old; node < node_count; ++node) {
    position_[node] = node;
    order_[node] = node;
  }
}

IncrementalTopology::AddResult IncrementalTopology::AddEdge(NodeId from,
                                                            NodeId to) {
  RELSER_CHECK(from < graph_.node_count() && to < graph_.node_count());
  if (from == to) {
    last_rejected_edge_ = {from, to};
    return AddResult::kCycle;
  }
  if (graph_.HasEdge(from, to)) return AddResult::kDuplicate;
  const std::size_t lower = position_[to];
  const std::size_t upper = position_[from];
  if (lower > upper) {
    // Order already consistent with the new edge.
    Insert(from, to);
    return AddResult::kInserted;
  }
  // Affected region is [lower, upper]; discover it.
  delta_forward_.clear();
  delta_backward_.clear();
  ++visit_gen_;  // discards the previous repair's visited set wholesale
  const bool acyclic = DiscoverForward(to, upper, from);
  if (!acyclic) {
    last_rejected_edge_ = {from, to};
    return AddResult::kCycle;
  }
  DiscoverBackward(from, lower);
  Reorder();
  ++reorder_count_;
  Insert(from, to);
  return AddResult::kInserted;
}

bool IncrementalTopology::Insert(NodeId from, NodeId to) {
  if (!graph_.AddEdge(from, to)) return false;
  for (const NodeId node : {from, to}) {
    if (touched_mark_[node] == 0) {
      touched_mark_[node] = 1;
      touched_.push_back(node);
    }
  }
  if (journaling_) LogEdge(from, to);
  return true;
}

bool IncrementalTopology::AddEdges(
    const std::vector<std::pair<NodeId, NodeId>>& arcs) {
  // The journal doubles as this call's rollback log: edges and position
  // moves are logged even when the caller does not journal, and dropped
  // again on success in that case.
  const std::size_t mark = journal_.end();
  const bool caller_journaling = journaling_;
  journaling_ = true;
  deferred_.clear();
  // Pass 1: arcs the current order already agrees with never trigger a
  // repair; inserting them first keeps the repair regions of pass 2 small.
  // Deferred arcs are remembered by index — pass-2 reorders move
  // positions, so the predicate cannot be re-evaluated later.
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto& [from, to] = arcs[i];
    if (from != to && position_[from] < position_[to]) {
      Insert(from, to);
    } else {
      deferred_.push_back(i);
    }
  }
  bool accepted = true;
  for (const std::size_t i : deferred_) {
    if (AddEdge(arcs[i].first, arcs[i].second) == AddResult::kCycle) {
      // All-or-nothing: unwind every edge and position move of this call.
      RollbackTo(mark);
      accepted = false;
      break;
    }
  }
  journaling_ = caller_journaling;
  if (!journaling_) journal_.Reset(mark);
  return accepted;
}

void IncrementalTopology::RollbackTo(std::size_t mark) {
  while (journal_.end() > mark) {
    const JournalEntry& entry = journal_.back();
    if ((entry.value & kEdgeTag) != 0) {
      graph_.RemoveEdge(entry.node, entry.value & ~kEdgeTag);
    } else {
      position_[entry.node] = entry.value;
      order_[entry.value] = entry.node;
    }
    journal_.pop_back();
  }
}

bool IncrementalTopology::WouldCreateCycle(NodeId from, NodeId to) const {
  if (from == to) return true;
  if (position_[to] > position_[from]) return false;
  // Any path to -> ... -> from must stay within positions <= pos(from).
  ++probe_gen_;
  probe_stack_.clear();
  probe_stack_.push_back(to);
  probe_stamp_[to] = probe_gen_;
  const std::size_t bound = position_[from];
  while (!probe_stack_.empty()) {
    const NodeId node = probe_stack_.back();
    probe_stack_.pop_back();
    if (node == from) return true;
    for (const NodeId succ : graph_.OutNeighbors(node)) {
      if (probe_stamp_[succ] != probe_gen_ && position_[succ] <= bound) {
        probe_stamp_[succ] = probe_gen_;
        probe_stack_.push_back(succ);
      }
    }
  }
  return false;
}

bool IncrementalTopology::DiscoverForward(NodeId start, std::size_t bound,
                                          NodeId target) {
  stack_.clear();
  stack_.push_back(start);
  visit_stamp_[start] = visit_gen_;
  delta_forward_.push_back(start);
  while (!stack_.empty()) {
    const NodeId node = stack_.back();
    stack_.pop_back();
    if (node == target) return false;
    for (const NodeId succ : graph_.OutNeighbors(node)) {
      if (succ == target) return false;
      if (visit_stamp_[succ] != visit_gen_ && position_[succ] <= bound) {
        visit_stamp_[succ] = visit_gen_;
        delta_forward_.push_back(succ);
        stack_.push_back(succ);
      }
    }
  }
  return true;
}

void IncrementalTopology::DiscoverBackward(NodeId start, std::size_t bound) {
  stack_.clear();
  stack_.push_back(start);
  visit_stamp_[start] = visit_gen_;
  delta_backward_.push_back(start);
  while (!stack_.empty()) {
    const NodeId node = stack_.back();
    stack_.pop_back();
    for (const NodeId pred : graph_.InNeighbors(node)) {
      if (visit_stamp_[pred] != visit_gen_ && position_[pred] >= bound) {
        visit_stamp_[pred] = visit_gen_;
        delta_backward_.push_back(pred);
        stack_.push_back(pred);
      }
    }
  }
}

void IncrementalTopology::Reorder() {
  // Sort both deltas by current position, pool their position indices,
  // and reassign: backward set first, then forward set.
  auto by_position = [this](NodeId a, NodeId b) {
    return position_[a] < position_[b];
  };
  std::sort(delta_backward_.begin(), delta_backward_.end(), by_position);
  std::sort(delta_forward_.begin(), delta_forward_.end(), by_position);

  pool_.clear();
  pool_.reserve(delta_backward_.size() + delta_forward_.size());
  for (const NodeId node : delta_backward_) pool_.push_back(position_[node]);
  for (const NodeId node : delta_forward_) pool_.push_back(position_[node]);
  std::sort(pool_.begin(), pool_.end());

  std::size_t slot = 0;
  const auto place = [&](NodeId node) {
    const std::size_t target = pool_[slot++];
    if (position_[node] == target) return;
    // Moves are undone newest-first, so restoring every logged node's old
    // position also restores order_ over the pooled positions.
    if (journaling_) journal_.push_back({node, position_[node]});
    position_[node] = target;
    order_[target] = node;
  };
  for (const NodeId node : delta_backward_) place(node);
  for (const NodeId node : delta_forward_) place(node);
}

void IncrementalTopology::IsolateNode(NodeId node) {
  graph_.IsolateNode(node);
}

void IncrementalTopology::Clear() {
  // A repair permutes the positions of touched nodes among themselves,
  // so resetting exactly those restores the identity order.
  graph_.ClearEdgesOf(touched_);
  for (const NodeId node : touched_) {
    position_[node] = node;
    order_[node] = node;
    touched_mark_[node] = 0;
  }
  touched_.clear();
  journal_.Reset(journal_.end());
}

std::vector<NodeId> IncrementalTopology::Order() const { return order_; }

}  // namespace relser
