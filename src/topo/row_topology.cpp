#include "topo/row_topology.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp::topo {

RowTopology::RowTopology(int n) : n_(n) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
}

RowTopology::RowTopology(int n, std::vector<RowLink> express_links)
    : n_(n), express_(std::move(express_links)) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  for (const RowLink& link : express_) validate_link(link);
  std::sort(express_.begin(), express_.end());
}

void RowTopology::validate_link(RowLink link) const {
  XLP_REQUIRE(link.lo >= 0 && link.hi < n_, "link endpoint out of range");
  XLP_REQUIRE(link.length() >= 2,
              "express link must span at least two hops; local links are "
              "implicit");
}

std::vector<RowLink> RowTopology::all_links() const {
  std::vector<RowLink> out;
  out.reserve(express_.size() + static_cast<std::size_t>(n_ - 1));
  for (int r = 0; r + 1 < n_; ++r) out.push_back({r, r + 1});
  out.insert(out.end(), express_.begin(), express_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void RowTopology::add_express(RowLink link) {
  validate_link(link);
  express_.insert(std::upper_bound(express_.begin(), express_.end(), link),
                  link);
}

bool RowTopology::remove_express(RowLink link) {
  auto it = std::lower_bound(express_.begin(), express_.end(), link);
  if (it == express_.end() || *it != link) return false;
  express_.erase(it);
  return true;
}

int RowTopology::cut_count(int cut) const {
  XLP_REQUIRE(cut >= 0 && cut < n_ - 1, "cut index out of range");
  int count = 1;  // the local link always crosses its own cut
  for (const RowLink& link : express_)
    if (link.crosses(cut)) ++count;
  return count;
}

std::vector<int> RowTopology::cut_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(n_ - 1), 1);
  for (const RowLink& link : express_)
    for (int cut = link.lo; cut < link.hi; ++cut) ++counts[cut];
  return counts;
}

int RowTopology::max_cut_count() const {
  const auto counts = cut_counts();
  return *std::max_element(counts.begin(), counts.end());
}

bool RowTopology::fits_link_limit(int link_limit) const {
  return max_cut_count() <= link_limit;
}

std::vector<int> RowTopology::neighbors_right(int r) const {
  XLP_REQUIRE(r >= 0 && r < n_, "router index out of range");
  std::vector<int> out;
  if (r + 1 < n_) out.push_back(r + 1);
  for (const RowLink& link : express_)
    if (link.lo == r) out.push_back(link.hi);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> RowTopology::neighbors_left(int r) const {
  XLP_REQUIRE(r >= 0 && r < n_, "router index out of range");
  std::vector<int> out;
  if (r - 1 >= 0) out.push_back(r - 1);
  for (const RowLink& link : express_)
    if (link.hi == r) out.push_back(link.lo);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int RowTopology::degree(int r) const {
  XLP_REQUIRE(r >= 0 && r < n_, "router index out of range");
  int deg = 0;
  if (r > 0) ++deg;
  if (r + 1 < n_) ++deg;
  for (const RowLink& link : express_)
    if (link.lo == r || link.hi == r) ++deg;
  return deg;
}

double RowTopology::average_degree() const {
  long total = 0;
  for (int r = 0; r < n_; ++r) total += degree(r);
  return static_cast<double>(total) / n_;
}

RowTopology RowTopology::mirrored() const {
  std::vector<RowLink> mirrored;
  mirrored.reserve(express_.size());
  for (const RowLink& link : express_)
    mirrored.push_back({n_ - 1 - link.hi, n_ - 1 - link.lo});
  return RowTopology(n_, std::move(mirrored));
}

std::string RowTopology::to_string() const {
  std::ostringstream os;
  os << n_ << ":[";
  for (const RowLink& link : express_)
    os << '(' << link.lo << ',' << link.hi << ')';
  os << ']';
  return os.str();
}

std::vector<RowLink> parse_links(const std::string& spec) {
  std::vector<RowLink> links;
  if (spec.empty() || spec == "none") return links;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const char* end = item.data() + item.size();
    RowLink link;
    const auto lo = std::from_chars(item.data(), end, link.lo);
    const bool dash = lo.ec == std::errc() && lo.ptr != end && *lo.ptr == '-';
    const auto hi = std::from_chars(dash ? lo.ptr + 1 : end, end, link.hi);
    if (!dash || hi.ec != std::errc() || hi.ptr != end)
      throw Error(ErrorCode::kParse,
                  "links entries look like lo-hi, comma separated: '" + item +
                      "'");
    links.push_back(link);
  }
  return links;
}

std::string format_links(const RowTopology& row) {
  std::string out;
  for (const RowLink& link : row.express_links()) {
    if (!out.empty()) out += ',';
    out += std::to_string(link.lo) + "-" + std::to_string(link.hi);
  }
  return out;
}

int full_link_limit(int n) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  // Eq. (4): (n/2)*(n/2); for odd n the middle cut separates floor and ceil
  // halves.
  return (n / 2) * ((n + 1) / 2);
}

std::vector<int> valid_link_limits(int n) {
  const int c_full = full_link_limit(n);
  std::vector<int> out;
  for (int c = 1; c < c_full; c *= 2) out.push_back(c);
  out.push_back(c_full);
  return out;
}

}  // namespace xlp::topo
