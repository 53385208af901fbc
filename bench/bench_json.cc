#include "bench_json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/parallel.h"

namespace biorank::bench {

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

std::string FieldsToJson(const JsonFields& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(key) + "\": " + value.ToJson();
  }
  out += "}";
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonScalar::JsonScalar(double value) : kind_(Kind::kNumber), number_(value) {}
JsonScalar::JsonScalar(int64_t value) : kind_(Kind::kInt), int_(value) {}
JsonScalar::JsonScalar(int value) : kind_(Kind::kInt), int_(value) {}
JsonScalar::JsonScalar(bool value) : kind_(Kind::kBool), bool_(value) {}
JsonScalar::JsonScalar(const char* value)
    : kind_(Kind::kString), string_(value) {}
JsonScalar::JsonScalar(std::string value)
    : kind_(Kind::kString), string_(std::move(value)) {}

std::string JsonScalar::ToJson() const {
  switch (kind_) {
    case Kind::kNumber:
      return FormatNumber(number_);
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kString:
      return "\"" + JsonEscape(string_) + "\"";
  }
  return "null";
}

// DefaultThreadCount (not Global().slot_count()) so that constructing a
// report never spawns the shared pool's workers in single-threaded
// benches.
JsonReport::JsonReport(std::string name)
    : name_(std::move(name)), threads_(ThreadPool::DefaultThreadCount()) {}

void JsonReport::SetMetric(const std::string& key, JsonScalar value) {
  for (auto& [existing, scalar] : metrics_) {
    if (existing == key) {
      scalar = std::move(value);
      return;
    }
  }
  metrics_.emplace_back(key, std::move(value));
}

void JsonReport::AddRow(JsonFields row) { rows_.push_back(std::move(row)); }

std::string JsonReport::ToJson() const {
  std::string out = "{\n";
  // v2: adds the serving-layer cache metrics (cache_hit_rate,
  // pruned_fraction, ...) emitted by bench_serve_topk and the
  // thread-sweep clamp fields of bench_parallel_scaling; the layout of
  // existing fields is unchanged.
  // v3: adds the ingest metrics emitted by bench_ingest_updates
  // (preserved_hit_rate, update_latency_ms_mean/_max,
  // touched_fraction_max, stale_keys, invalidated_entries); the layout
  // of existing fields is again unchanged.
  // v4: adds the api front-door metrics emitted by bench_api_server
  // (mixed_hit_rate, deterministic_batch, session_rebuild_identical,
  // batch_s_mean, session/eviction counters); layout unchanged again.
  // v5: adds the shard scatter-gather metrics of bench_shard_scaling
  // (merge/short-circuit counters; that bench is deleted); layout
  // unchanged again.
  // v6: adds the anytime/admission fields — bench_api_server's
  // queue_s_total / anytime_refine_s / anytime_identical and the new
  // bench_open_loop report (blocking_p99_s, anytime_p99_s, p99_ratio,
  // slo_p99_s, deadline-rejection counters); layout unchanged again.
  // v7: adds the observability fields — metrics_exposed and the
  // histogram-derived hist_p50_ms/hist_p99_ms of bench_api_server and
  // bench_open_loop (read from the shared biorank_api_query_seconds
  // histogram), bench_serve_topk's obs_overhead_ratio A/B measurement,
  // and bench_shard_scaling's (deleted) rpc_hist_count; layout unchanged
  // again.
  // v8: adds the durability fields — the new bench_durability report
  // (recovery_identical / hit_rate_preserved flags, recovery_seconds,
  // wal_appends_per_sec, checkpoint throughput counters); layout
  // unchanged again.
  out += "  \"schema_version\": 8,\n";
  out += "  \"bench\": \"" + JsonEscape(name_) + "\",\n";
  out += "  \"threads\": " + std::to_string(threads_) + ",\n";
  out += "  \"wall_time_s\": " + FormatNumber(wall_time_s_) + ",\n";
  out += "  \"metrics\": " + FieldsToJson(metrics_) + ",\n";
  out += "  \"rows\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + FieldsToJson(rows_[i]);
  }
  if (!rows_.empty()) out += "\n  ";
  out += "]\n}\n";
  return out;
}

Status JsonReport::Write() const {
  const char* dir = std::getenv("BIORANK_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/BENCH_" + name_ + ".json"
                         : "BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench json: cannot open " << path << "\n";
    return Status::Internal("cannot open " + path);
  }
  out << ToJson();
  out.close();
  if (!out) {
    std::cerr << "bench json: write to " << path << " failed\n";
    return Status::Internal("write to " + path + " failed");
  }
  std::cout << "(bench json written to " << path << ")\n";
  return Status::OK();
}

Status WriteMetricsDump(const std::string& name, const std::string& text) {
  const char* dir = std::getenv("BIORANK_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/METRICS_" + name + ".prom"
                         : "METRICS_" + name + ".prom";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench metrics: cannot open " << path << "\n";
    return Status::Internal("cannot open " + path);
  }
  out << text;
  out.close();
  if (!out) {
    std::cerr << "bench metrics: write to " << path << " failed\n";
    return Status::Internal("write to " + path + " failed");
  }
  std::cout << "(metrics dump written to " << path << ")\n";
  return Status::OK();
}

}  // namespace biorank::bench
