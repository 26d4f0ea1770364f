#include "obs/ledger.hpp"

#include <fcntl.h>
#include <unistd.h>

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
  record.set("artifacts", std::move(artifact_list));
  if (lifecycle)
    record.set("lifecycle",
               Json::object()
                   .set("outcome", lifecycle->outcome)
                   .set("cache_corrupt", lifecycle->cache_corrupt)
                   .set("received_s", lifecycle->received_s)
                   .set("queue_wait_ns", lifecycle->queue_wait_ns)
                   .set("execute_ns", lifecycle->execute_ns)
                   .set("end_to_end_ns", lifecycle->end_to_end_ns));
  return record;
}

bool append_ledger_entry(const std::string& path, const LedgerEntry& entry) {
  if (!util::ensure_parent_dir(path)) return false;
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return false;
  std::string line = entry.to_json().dump() + "\n";
  // A crash mid-append leaves a torn last line without its newline; start
  // on a fresh line so only that record is lost (read_ledger skips it).
  const off_t size = ::lseek(fd, 0, SEEK_END);
  char last = '\n';
  if (size > 0 && ::pread(fd, &last, 1, size - 1) == 1 && last != '\n')
    line.insert(line.begin(), '\n');
  // One write per record: O_APPEND places it at the end atomically, so
  // concurrent appenders — threads or processes — never overwrite each
  // other's lines. A short write is reported as a failure.
  const bool ok = ::write(fd, line.data(), line.size()) ==
                      static_cast<ssize_t>(line.size()) &&
                  ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
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
