#include "storage/snapshot.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "storage/codec.h"
#include "util/crc32c.h"
#include "util/file.h"

namespace biorank::storage {
namespace {

constexpr char kMagic[8] = {'B', 'R', 'S', 'N', 'A', 'P', '0', '1'};
constexpr uint32_t kVersion = 2;

// --- graph (de)serialization ------------------------------------------

void PutGraph(ByteWriter& out, const QueryGraph& qg) {
  const ProbabilisticEntityGraph& g = qg.graph;
  out.PutU64(static_cast<uint64_t>(g.node_capacity()));
  for (NodeId id = 0; id < g.node_capacity(); ++id) {
    const GraphNode& node = g.node(id);
    out.PutDouble(node.p);
    out.PutString(node.label);
    out.PutString(node.entity_set);
    out.PutU8(node.alive ? 1 : 0);
  }
  out.PutU64(static_cast<uint64_t>(g.edge_capacity()));
  for (EdgeId id = 0; id < g.edge_capacity(); ++id) {
    const GraphEdge& edge = g.edge(id);
    out.PutI32(edge.from);
    out.PutI32(edge.to);
    out.PutDouble(edge.q);
    out.PutU8(edge.alive ? 1 : 0);
  }
  out.PutI32(qg.source);
  out.PutU64(qg.answers.size());
  for (NodeId answer : qg.answers) out.PutI32(answer);
}

Status GetGraph(ByteReader& in, QueryGraph& qg) {
  // Reconstruct via the public mutators so adjacency lists and alive
  // counters come out exactly as the original insertion sequence built
  // them: add every node and edge alive, then tombstone the dead edges
  // and nodes (a dead node's incident edges are all already dead in the
  // source graph — RemoveNode killed them — so the final state matches
  // id-for-id). Probabilities were clamped when first stored, so the
  // clamp in AddNode/AddEdge is the identity on valid data; out-of-range
  // or NaN values can only mean corruption and are rejected.
  uint64_t node_cap = 0;
  BIORANK_RETURN_IF_ERROR(in.GetCount(node_cap, sizeof(double) + 17));
  struct PendingNode {
    double p;
    std::string label;
    std::string entity_set;
    bool alive;
  };
  std::vector<PendingNode> nodes(static_cast<size_t>(node_cap));
  for (auto& node : nodes) {
    uint8_t alive = 0;
    BIORANK_RETURN_IF_ERROR(in.GetDouble(node.p));
    BIORANK_RETURN_IF_ERROR(in.GetString(node.label));
    BIORANK_RETURN_IF_ERROR(in.GetString(node.entity_set));
    BIORANK_RETURN_IF_ERROR(in.GetU8(alive));
    node.alive = alive != 0;
    if (!(node.p >= 0.0 && node.p <= 1.0)) {
      return Status::DataLoss("snapshot node probability outside [0,1]");
    }
  }
  uint64_t edge_cap = 0;
  BIORANK_RETURN_IF_ERROR(
      in.GetCount(edge_cap, 2 * sizeof(int32_t) + sizeof(double) + 1));
  struct PendingEdge {
    NodeId from;
    NodeId to;
    double q;
    bool alive;
  };
  std::vector<PendingEdge> edges(static_cast<size_t>(edge_cap));
  for (auto& edge : edges) {
    uint8_t alive = 0;
    BIORANK_RETURN_IF_ERROR(in.GetI32(edge.from));
    BIORANK_RETURN_IF_ERROR(in.GetI32(edge.to));
    BIORANK_RETURN_IF_ERROR(in.GetDouble(edge.q));
    BIORANK_RETURN_IF_ERROR(in.GetU8(alive));
    edge.alive = alive != 0;
    if (!(edge.q >= 0.0 && edge.q <= 1.0)) {
      return Status::DataLoss("snapshot edge probability outside [0,1]");
    }
    if (edge.from < 0 || edge.to < 0 ||
        static_cast<uint64_t>(edge.from) >= node_cap ||
        static_cast<uint64_t>(edge.to) >= node_cap) {
      return Status::DataLoss("snapshot edge endpoint out of range");
    }
  }

  ProbabilisticEntityGraph& g = qg.graph;
  g = ProbabilisticEntityGraph();
  for (const auto& node : nodes) {
    g.AddNode(node.p, node.label, node.entity_set);
  }
  for (const auto& edge : edges) {
    Result<EdgeId> added = g.AddEdge(edge.from, edge.to, edge.q);
    if (!added.ok()) {
      return Status::DataLoss("snapshot edge rejected: " +
                              added.status().message());
    }
  }
  for (EdgeId id = 0; id < g.edge_capacity(); ++id) {
    if (!edges[static_cast<size_t>(id)].alive) {
      BIORANK_RETURN_IF_ERROR(g.RemoveEdge(id));
    }
  }
  for (NodeId id = 0; id < g.node_capacity(); ++id) {
    if (!nodes[static_cast<size_t>(id)].alive) {
      BIORANK_RETURN_IF_ERROR(g.RemoveNode(id));
    }
  }

  BIORANK_RETURN_IF_ERROR(in.GetI32(qg.source));
  uint64_t answer_count = 0;
  BIORANK_RETURN_IF_ERROR(in.GetCount(answer_count, sizeof(int32_t)));
  qg.answers.resize(static_cast<size_t>(answer_count));
  for (auto& answer : qg.answers) {
    BIORANK_RETURN_IF_ERROR(in.GetI32(answer));
  }
  Status valid = qg.Validate();
  if (!valid.ok()) {
    return Status::DataLoss("snapshot graph fails validation: " +
                            valid.message());
  }
  return Status::OK();
}

void PutSession(ByteWriter& out, const SnapshotSession& session) {
  out.PutU64(session.id);
  out.PutU64(session.applied_lsn);
  out.PutI32(session.matched_proteins);
  // Maps are serialized in sorted key order so encoding is deterministic
  // (two checkpoints of identical state produce identical bytes).
  std::vector<std::pair<int, NodeId>> go(session.go_node.begin(),
                                         session.go_node.end());
  std::sort(go.begin(), go.end());
  out.PutU64(go.size());
  for (const auto& [term, node] : go) {
    out.PutI32(term);
    out.PutI32(node);
  }
  std::vector<std::pair<NodeId, std::string>> labels(
      session.answer_labels.begin(), session.answer_labels.end());
  std::sort(labels.begin(), labels.end());
  out.PutU64(labels.size());
  for (const auto& [node, label] : labels) {
    out.PutI32(node);
    out.PutString(label);
  }
  PutGraph(out, session.graph);
}

Status GetSession(ByteReader& in, SnapshotSession& session) {
  BIORANK_RETURN_IF_ERROR(in.GetU64(session.id));
  BIORANK_RETURN_IF_ERROR(in.GetU64(session.applied_lsn));
  BIORANK_RETURN_IF_ERROR(in.GetI32(session.matched_proteins));
  uint64_t n = 0;
  BIORANK_RETURN_IF_ERROR(in.GetCount(n, 2 * sizeof(int32_t)));
  for (uint64_t i = 0; i < n; ++i) {
    int32_t term = 0;
    NodeId node = kInvalidNode;
    BIORANK_RETURN_IF_ERROR(in.GetI32(term));
    BIORANK_RETURN_IF_ERROR(in.GetI32(node));
    session.go_node.emplace(term, node);
  }
  BIORANK_RETURN_IF_ERROR(in.GetCount(n, sizeof(int32_t) + sizeof(uint64_t)));
  for (uint64_t i = 0; i < n; ++i) {
    NodeId node = kInvalidNode;
    std::string label;
    BIORANK_RETURN_IF_ERROR(in.GetI32(node));
    BIORANK_RETURN_IF_ERROR(in.GetString(label));
    session.answer_labels.emplace(node, std::move(label));
  }
  BIORANK_RETURN_IF_ERROR(GetGraph(in, session.graph));
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshot(const SnapshotState& state) {
  ByteWriter out;
  out.PutBytes(kMagic, sizeof(kMagic));
  out.PutU32(kVersion);
  out.PutU64(state.fingerprint);
  out.PutU64(state.wal_lsn);
  out.PutU64(state.next_session_id);
  out.PutU64(state.sessions.size());
  for (const auto& session : state.sessions) PutSession(out, session);
  out.PutU64(state.cache_entries.size());
  for (const auto& cached : state.cache_entries) {
    out.PutString(cached.repr);
    out.PutDouble(cached.entry.lower);
    out.PutDouble(cached.entry.upper);
    out.PutU8(cached.entry.has_value ? 1 : 0);
    out.PutDouble(cached.entry.value);
    out.PutU8(cached.entry.exact ? 1 : 0);
    out.PutI64(cached.entry.trials);
    out.PutI64(cached.entry.tally);
  }
  std::string image = std::move(out).TakeBytes();
  uint32_t crc = util::Crc32c(image.data(), image.size());
  image.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return image;
}

Result<SnapshotState> DecodeSnapshot(const std::string& bytes,
                                     uint64_t expected_fingerprint) {
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint32_t)) {
    return Status::DataLoss("snapshot file shorter than its header");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  uint32_t actual_crc =
      util::Crc32c(bytes.data(), bytes.size() - sizeof(stored_crc));
  if (stored_crc != actual_crc) {
    return Status::DataLoss("snapshot whole-file checksum mismatch");
  }
  ByteReader in(bytes.data(), bytes.size() - sizeof(stored_crc));
  char magic[sizeof(kMagic)];
  BIORANK_RETURN_IF_ERROR(in.GetBytesInto(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("snapshot magic mismatch");
  }
  uint32_t version = 0;
  BIORANK_RETURN_IF_ERROR(in.GetU32(version));
  if (version != kVersion) {
    return Status::DataLoss("snapshot version " + std::to_string(version) +
                            " is not supported");
  }
  SnapshotState state;
  BIORANK_RETURN_IF_ERROR(in.GetU64(state.fingerprint));
  if (state.fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "snapshot belongs to a differently-configured server "
        "(fingerprint mismatch)");
  }
  BIORANK_RETURN_IF_ERROR(in.GetU64(state.wal_lsn));
  BIORANK_RETURN_IF_ERROR(in.GetU64(state.next_session_id));
  uint64_t n = 0;
  BIORANK_RETURN_IF_ERROR(in.GetCount(n, 3 * sizeof(uint64_t)));
  state.sessions.resize(static_cast<size_t>(n));
  for (auto& session : state.sessions) {
    BIORANK_RETURN_IF_ERROR(GetSession(in, session));
  }
  BIORANK_RETURN_IF_ERROR(in.GetCount(n, sizeof(uint64_t) + 4 * 8 + 2));
  state.cache_entries.resize(static_cast<size_t>(n));
  for (auto& cached : state.cache_entries) {
    uint8_t has_value = 0;
    uint8_t exact = 0;
    BIORANK_RETURN_IF_ERROR(in.GetString(cached.repr));
    BIORANK_RETURN_IF_ERROR(in.GetDouble(cached.entry.lower));
    BIORANK_RETURN_IF_ERROR(in.GetDouble(cached.entry.upper));
    BIORANK_RETURN_IF_ERROR(in.GetU8(has_value));
    BIORANK_RETURN_IF_ERROR(in.GetDouble(cached.entry.value));
    BIORANK_RETURN_IF_ERROR(in.GetU8(exact));
    BIORANK_RETURN_IF_ERROR(in.GetI64(cached.entry.trials));
    BIORANK_RETURN_IF_ERROR(in.GetI64(cached.entry.tally));
    cached.entry.has_value = has_value != 0;
    cached.entry.exact = exact != 0;
  }
  if (!in.AtEnd()) {
    return Status::DataLoss("snapshot has trailing bytes after its payload");
  }
  return state;
}

std::string SnapshotFileName(uint64_t lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "snapshot-%016llx.brsnap",
                static_cast<unsigned long long>(lsn));
  return name;
}

Status WriteSnapshotFile(const std::string& dir, const SnapshotState& state,
                         std::string* path_out, uint64_t* bytes_out) {
  std::string path = dir + "/" + SnapshotFileName(state.wal_lsn);
  std::string image = EncodeSnapshot(state);
  BIORANK_RETURN_IF_ERROR(util::AtomicFileWrite(path, image));
  if (path_out != nullptr) *path_out = path;
  if (bytes_out != nullptr) *bytes_out = image.size();
  return Status::OK();
}

std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return found;
  while (struct dirent* entry = ::readdir(handle)) {
    std::string name = entry->d_name;
    const std::string prefix = "snapshot-";
    const std::string suffix = ".brsnap";
    if (name.size() != prefix.size() + 16 + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    uint64_t lsn = 0;
    bool valid = true;
    for (size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
      char c = name[i];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a' + 10);
      } else {
        valid = false;
        break;
      }
      lsn = (lsn << 4) | digit;
    }
    if (valid) found.emplace_back(lsn, dir + "/" + name);
  }
  ::closedir(handle);
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

}  // namespace biorank::storage
