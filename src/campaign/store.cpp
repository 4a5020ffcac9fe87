#include "campaign/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "results/doc.hpp"
#include "telemetry/trace.hpp"

namespace idseval::campaign {

namespace {

constexpr const char* kFormat = "idseval-campaign-v1";

std::string fingerprint_hex(const CampaignSpec& spec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(spec.fingerprint()));
  return buf;
}

results::Doc parse_line(const std::string& line) {
  try {
    return results::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("campaign store: ") + e.what() +
                                ": " + line);
  }
}

const results::Doc& member(const results::Doc& doc, const char* key) {
  const results::Doc* v = doc.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("campaign store: missing field: ") +
                                key);
  }
  return *v;
}

std::string field_string(const results::Doc& doc, const char* key) {
  const results::Doc& v = member(doc, key);
  if (!v.is_string()) {
    throw std::invalid_argument(std::string("campaign store: ") + key +
                                " is not a string");
  }
  return v.as_string();
}

double field_double(const results::Doc& doc, const char* key) {
  const results::Doc& v = member(doc, key);
  if (!v.is_number()) {
    throw std::invalid_argument(std::string("campaign store: ") + key +
                                " is not a number");
  }
  return v.as_double();
}

std::uint64_t field_u64(const results::Doc& doc, const char* key) {
  const results::Doc& v = member(doc, key);
  if (!v.is_number()) {
    throw std::invalid_argument(std::string("campaign store: ") + key +
                                " is not an integer");
  }
  return v.as_u64();
}

bool field_bool(const results::Doc& doc, const char* key) {
  const results::Doc& v = member(doc, key);
  if (!v.is_bool()) {
    throw std::invalid_argument(std::string("campaign store: bad flag: ") +
                                key);
  }
  return v.as_bool();
}

std::string manifest_line(const CampaignSpec& spec) {
  results::Doc doc = results::Doc::object();
  doc.set("type", "manifest")
      .set("format", kFormat)
      .set("name", spec.name)
      .set("fingerprint", fingerprint_hex(spec))
      .set("cells", spec.cell_count());
  return results::to_json(doc);
}

void check_manifest(const std::string& line, const CampaignSpec& spec,
                    const std::string& path) {
  const results::Doc doc = parse_line(line);
  const results::Doc* type = doc.find("type");
  const results::Doc* format = doc.find("format");
  if (type == nullptr || !type->is_string() ||
      type->as_string() != "manifest" || format == nullptr ||
      !format->is_string() || format->as_string() != kFormat) {
    throw std::invalid_argument("campaign store: " + path +
                                " is not an idseval campaign store");
  }
  if (field_string(doc, "fingerprint") != fingerprint_hex(spec)) {
    throw std::invalid_argument(
        "campaign store: " + path +
        " was written for a different spec (fingerprint mismatch); "
        "refusing to resume into it");
  }
}

/// A store file's rows plus how much of the file they account for.
struct LoadedRows {
  std::map<std::size_t, CellResult> results;
  /// Length of the complete-row prefix. Shorter than the file when its
  /// final line was torn by an interrupted append.
  std::size_t complete_bytes = 0;
  /// Whether that prefix ends in a newline (a later append must not glue
  /// its row onto the last one).
  bool ends_with_newline = true;
};

LoadedRows load_rows(std::istream& in, const CampaignSpec& spec,
                     const std::string& path) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::size_t pos = 0;
  LoadedRows rows;
  bool manifest = true;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    const std::size_t end = terminated ? newline : text.size();
    const std::string line = text.substr(pos, end - pos);
    if (manifest) {
      check_manifest(line, spec, path);
      manifest = false;
    } else if (!terminated && !results::validate_json_line(line)) {
      // Every row is written with its newline in one flushed append, so
      // an unterminated unparsable final line is a row the writer was
      // killed in the middle of: the cell never completed. Drop it; the
      // scheduler re-runs that cell. Interior lines get no such grace.
      break;
    } else if (!line.empty()) {
      CellResult result = deserialize_cell(line);
      // Later rows win: a resumed run re-records previously failed cells.
      const std::size_t index = result.cell.index;
      rows.results.insert_or_assign(index, std::move(result));
    }
    pos = terminated ? end + 1 : end;
    rows.complete_bytes = pos;
    rows.ends_with_newline = terminated;
  }
  if (manifest) {
    throw std::invalid_argument("campaign store: " + path + " is empty");
  }
  return rows;
}

}  // namespace

results::Doc cell_to_doc(const CellResult& r) {
  results::Doc doc = results::Doc::object();
  doc.set("type", "cell")
      .set("index", r.cell.index)
      .set("product", products::product(r.cell.product).name)
      .set("profile", r.cell.profile)
      .set("sensitivity", r.cell.sensitivity)
      .set("replicate", r.cell.replicate)
      .set("seed", r.cell.seed)
      .set("ok", r.ok)
      .set("error", r.error)
      .set("score_logistical", r.score_logistical)
      .set("score_architectural", r.score_architectural)
      .set("score_performance", r.score_performance)
      .set("score_total", r.score_total)
      .set("fp_ratio", r.fp_ratio)
      .set("fn_ratio", r.fn_ratio)
      .set("fp_percent_of_benign", r.fp_percent_of_benign)
      .set("fn_percent_of_attacks", r.fn_percent_of_attacks)
      .set("timeliness_sec", r.timeliness_sec)
      .set("offered_pps", r.offered_pps)
      .set("processed_pps", r.processed_pps)
      .set("zero_loss_pps", r.zero_loss_pps)
      .set("system_throughput_pps", r.system_throughput_pps)
      .set("induced_latency_sec", r.induced_latency_sec)
      .set("unified_total_cost", r.unified_total_cost)
      .set("unified_capability", r.unified_capability)
      .set("telemetry", telemetry::to_doc(r.telemetry));
  // Kill-chain stage rollups: only written when present, so flat-scenario
  // rows (and pre-kill-chain stores) keep their exact byte shape.
  if (!r.stages.empty()) {
    results::Doc stages = results::Doc::array();
    for (const auto& stage : r.stages) {
      results::Doc row = results::Doc::object();
      row.set("stage", stage.stage)
          .set("launched", stage.launched)
          .set("detected", stage.detected)
          .set("prevented", stage.prevented)
          .set("mean_latency_sec", stage.mean_latency_sec);
      stages.push(std::move(row));
    }
    doc.set("stages", std::move(stages));
  }
  return doc;
}

std::string serialize_cell(const CellResult& r) {
  return results::to_json(cell_to_doc(r));
}

CellResult deserialize_cell(const std::string& line) {
  const results::Doc doc = parse_line(line);
  if (!doc.is_object() || field_string(doc, "type") != "cell") {
    throw std::invalid_argument("campaign store: not a cell row: " + line);
  }
  CellResult r;
  r.cell.index = static_cast<std::size_t>(field_u64(doc, "index"));
  {
    const std::string name = field_string(doc, "product");
    bool found = false;
    for (const auto& model : products::product_catalog()) {
      if (model.name == name) {
        r.cell.product = model.id;
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("campaign store: unknown product: " +
                                  name);
    }
  }
  r.cell.profile = field_string(doc, "profile");
  r.cell.sensitivity = field_double(doc, "sensitivity");
  r.cell.replicate = static_cast<std::size_t>(field_u64(doc, "replicate"));
  r.cell.seed = field_u64(doc, "seed");
  r.ok = field_bool(doc, "ok");
  r.error = field_string(doc, "error");
  r.score_logistical = field_double(doc, "score_logistical");
  r.score_architectural = field_double(doc, "score_architectural");
  r.score_performance = field_double(doc, "score_performance");
  r.score_total = field_double(doc, "score_total");
  r.fp_ratio = field_double(doc, "fp_ratio");
  r.fn_ratio = field_double(doc, "fn_ratio");
  r.fp_percent_of_benign = field_double(doc, "fp_percent_of_benign");
  r.fn_percent_of_attacks = field_double(doc, "fn_percent_of_attacks");
  r.timeliness_sec = field_double(doc, "timeliness_sec");
  r.offered_pps = field_double(doc, "offered_pps");
  r.processed_pps = field_double(doc, "processed_pps");
  r.zero_loss_pps = field_double(doc, "zero_loss_pps");
  r.system_throughput_pps = field_double(doc, "system_throughput_pps");
  r.induced_latency_sec = field_double(doc, "induced_latency_sec");
  // Stores written before the unified score existed still load; their
  // rows simply carry zeros for both fields.
  if (const results::Doc* v = doc.find("unified_total_cost")) {
    r.unified_total_cost = v->as_double();
  }
  if (const results::Doc* v = doc.find("unified_capability")) {
    r.unified_capability = v->as_double();
  }
  // Stores written before the kill-chain stage rollups existed (or rows
  // from flat-scenario cells) simply carry no stages.
  if (const results::Doc* stages = doc.find("stages")) {
    for (const results::Doc& row : stages->elements()) {
      CellResult::StageOutcome stage;
      stage.stage = field_string(row, "stage");
      stage.launched = static_cast<std::size_t>(field_u64(row, "launched"));
      stage.detected = static_cast<std::size_t>(field_u64(row, "detected"));
      stage.prevented =
          static_cast<std::size_t>(field_u64(row, "prevented"));
      stage.mean_latency_sec = field_double(row, "mean_latency_sec");
      r.stages.push_back(std::move(stage));
    }
  }
  // Stores written before the telemetry field existed still load; their
  // rows simply carry an all-zero snapshot.
  if (const results::Doc* snap = doc.find("telemetry")) {
    try {
      r.telemetry = telemetry::snapshot_from_doc(*snap);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("campaign store: ") + e.what());
    }
  }
  return r;
}

ResultStore::ResultStore(std::string path, const CampaignSpec& spec,
                         bool fresh)
    : path_(std::move(path)) {
  bool exists = false;
  bool needs_newline = false;
  if (!fresh) {
    std::ifstream in(path_);
    if (in.good()) {
      exists = true;
      LoadedRows rows = load_rows(in, spec, path_);
      in.close();
      results_ = std::move(rows.results);
      needs_newline = !rows.ends_with_newline;
      // Cut a torn final row so appends resume on a line boundary.
      if (rows.complete_bytes < std::filesystem::file_size(path_)) {
        std::filesystem::resize_file(path_, rows.complete_bytes);
      }
    }
  }
  file_ = std::fopen(path_.c_str(), exists ? "ab" : "wb");
  if (!file_) {
    throw std::runtime_error("campaign store: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  if (needs_newline) std::fputc('\n', file_);
  if (!exists) {
    const std::string manifest = manifest_line(spec);
    std::fprintf(file_, "%s\n", manifest.c_str());
    std::fflush(file_);
  }
}

ResultStore::~ResultStore() {
  if (file_) std::fclose(file_);
}

bool ResultStore::has_ok(std::size_t index) const {
  std::scoped_lock lock(mutex_);
  const auto it = results_.find(index);
  return it != results_.end() && it->second.ok;
}

std::size_t ResultStore::ok_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [index, result] : results_) {
    if (result.ok) ++n;
  }
  return n;
}

std::size_t ResultStore::failed_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [index, result] : results_) {
    if (!result.ok) ++n;
  }
  return n;
}

void ResultStore::append(const CellResult& result) {
  const std::string line = serialize_cell(result);
  std::scoped_lock lock(mutex_);
  std::fprintf(file_, "%s\n", line.c_str());
  std::fflush(file_);
  results_.insert_or_assign(result.cell.index, result);
}

std::map<std::size_t, CellResult> ResultStore::load(
    const std::string& path, const CampaignSpec& spec) {
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("campaign store: cannot read " + path);
  }
  return load_rows(in, spec, path).results;
}

}  // namespace idseval::campaign
