#include "ingest/dependency_index.h"

#include <algorithm>
#include <string>

namespace biorank::ingest {

namespace {

bool SameKey(const CanonicalKey& a, const CanonicalKey& b) {
  return a.hash == b.hash && a.repr == b.repr;
}

/// Whether `id` is in range of `marks` and marked.
bool Marked(const std::vector<bool>& marks, int id) {
  return id >= 0 && static_cast<size_t>(id) < marks.size() &&
         marks[static_cast<size_t>(id)];
}

/// Marks `id` if it is in range; an out-of-range id marks nothing.
void Mark(std::vector<bool>& marks, int id) {
  if (id >= 0 && static_cast<size_t>(id) < marks.size()) {
    marks[static_cast<size_t>(id)] = true;
  }
}

}  // namespace

void DependencyIndex::Register(int answer_index, const CanonicalKey& key,
                               const CandidateProvenance& provenance,
                               const QueryGraph& /*graph*/) {
  const size_t slot = static_cast<size_t>(answer_index);
  if (slot >= entries_.size()) entries_.resize(slot + 1);
  AnswerEntry& entry = entries_[slot];
  entry.registered = true;
  entry.key = key;
  entry.nodes = provenance.nodes;
  entry.edges = provenance.edges;
}

std::vector<int> DependencyIndex::AffectedAnswers(
    const EvidenceDelta& delta, const AppliedDelta& applied,
    const QueryGraph& updated_graph) const {
  const ProbabilisticEntityGraph& graph = updated_graph.graph;
  std::vector<bool> edge_marks(static_cast<size_t>(graph.edge_capacity()));
  std::vector<bool> node_marks(static_cast<size_t>(graph.node_capacity()));
  for (const EvidenceDelta::RemoveEdge& op : delta.remove_edges) {
    Mark(edge_marks, op.edge);
  }
  for (const EvidenceDelta::ReweightEdge& op : delta.reweight_edges) {
    Mark(edge_marks, op.edge);
  }
  for (const EvidenceDelta::ReviseNodeProb& op : delta.revise_node_probs) {
    Mark(node_marks, op.node);
  }
  // A node's entity set is fixed when it is added, so the updated graph
  // answers for every registration.
  auto prior_revised = [&](NodeId id) {
    if (delta.revise_source_priors.empty()) return false;
    const std::string& set = graph.node(id).entity_set;
    if (set.empty()) return false;
    for (const EvidenceDelta::ReviseSourcePrior& op :
         delta.revise_source_priors) {
      if (op.entity_set == set) return true;
    }
    return false;
  };
  auto footprint_hit = [&](const AnswerEntry& entry) {
    if (!entry.registered) return false;
    for (EdgeId e : entry.edges) {
      if (Marked(edge_marks, e)) return true;
    }
    for (NodeId id : entry.nodes) {
      if (Marked(node_marks, id) || prior_revised(id)) return true;
    }
    return false;
  };

  // Add-edge rule: every answer reachable from the new edge's head in the
  // updated graph. Any subgraph change caused by an added edge (u, v) is
  // witnessed by a path through that edge continuing v -> ... -> t, so
  // the affected targets are exactly a subset of v's descendants.
  std::vector<bool> visited;
  if (!applied.new_edges.empty()) {
    visited.assign(static_cast<size_t>(graph.node_capacity()), false);
    std::vector<NodeId> stack;
    for (EdgeId e : applied.new_edges) {
      NodeId head = graph.edge(e).to;
      if (!graph.IsValidNode(head) || visited[static_cast<size_t>(head)]) {
        continue;
      }
      visited[static_cast<size_t>(head)] = true;
      stack.push_back(head);
    }
    while (!stack.empty()) {
      NodeId x = stack.back();
      stack.pop_back();
      graph.ForEachOutEdge(x, [&](EdgeId e) {
        NodeId y = graph.edge(e).to;
        if (!visited[static_cast<size_t>(y)]) {
          visited[static_cast<size_t>(y)] = true;
          stack.push_back(y);
        }
      });
    }
  }

  std::vector<int> affected;
  const size_t answers = updated_graph.answers.size();
  for (size_t i = 0; i < std::max(entries_.size(), answers); ++i) {
    if ((i < entries_.size() && footprint_hit(entries_[i])) ||
        (i < answers && Marked(visited, updated_graph.answers[i]))) {
      affected.push_back(static_cast<int>(i));
    }
  }
  return affected;
}

std::vector<CanonicalKey> DependencyIndex::ExclusiveKeys(
    const std::vector<int>& answers) const {
  std::vector<CanonicalKey> keys;
  for (int answer : answers) {
    const size_t slot = static_cast<size_t>(answer);
    if (answer < 0 || slot >= entries_.size() || !entries_[slot].registered) {
      continue;
    }
    const CanonicalKey& key = entries_[slot].key;
    // Exclusive when every user of the key is in `answers`; a user
    // earlier in `answers` has already decided this key, so it is skipped
    // here to emit each key once.
    bool exclusive = true;
    for (size_t j = 0; j < entries_.size() && exclusive; ++j) {
      if (!entries_[j].registered || !SameKey(entries_[j].key, key)) continue;
      exclusive = j >= slot && std::binary_search(answers.begin(),
                                                  answers.end(),
                                                  static_cast<int>(j));
    }
    if (exclusive) keys.push_back(key);
  }
  return keys;
}

bool DependencyIndex::HasKey(const CanonicalKey& key) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const AnswerEntry& entry) {
                       return entry.registered && SameKey(entry.key, key);
                     });
}

}  // namespace biorank::ingest
