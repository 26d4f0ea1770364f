#include "obs/ledger.hpp"

#include <sstream>

#include "obs/canonical.hpp"
#include "util/fsio.hpp"

namespace xlp::obs {

std::string LedgerEntry::run_id() const {
  return fnv1a64_hex(canonical_json(params));
}

Json LedgerEntry::to_json() const {
  Json artifact_list = Json::array();
  for (const std::string& a : artifacts) artifact_list.push(a);
  Json record = Json::object()
      .set("schema", "xlp-ledger/1")
      .set("run_id", run_id())
      .set("subcommand", subcommand)
      .set("params", params)
      .set("seed", static_cast<long>(seed))
      .set("git_sha", git_sha)
      .set("hostname", hostname)
      .set("wall_seconds", wall_seconds)
      .set("exit_status", exit_status);
  if (cache_hit >= 0) record.set("cache_hit", cache_hit != 0);
  return record.set("artifacts", std::move(artifact_list));
}

bool append_ledger_entry(const std::string& path, const LedgerEntry& entry) {
  std::string content;
  if (const auto existing = util::read_file(path)) content = *existing;
  content += entry.to_json().dump() + "\n";
  return util::atomic_write_file(path, content);
}

std::vector<Json> read_ledger(const std::string& path) {
  std::vector<Json> records;
  const auto content = util::read_file(path);
  if (!content) return records;
  std::istringstream in(*content);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto record = Json::parse(line); record && record->is_object())
      records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace xlp::obs
