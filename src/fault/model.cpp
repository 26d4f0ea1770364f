#include "fault/model.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace xlp::fault {

std::string LinkId::to_string() const {
  std::ostringstream os;
  os << (dim == Dim::kRow ? "row" : "col") << index << ":(" << link.lo << ','
     << link.hi << ')';
  return os.str();
}

void FaultSet::add(LinkFault f) {
  XLP_REQUIRE(f.id.link.lo >= 0 && f.id.link.hi > f.id.link.lo,
              "link endpoints must satisfy 0 <= lo < hi");
  XLP_REQUIRE(f.id.index >= 0, "row/column index must be non-negative");
  XLP_REQUIRE(f.forward || f.backward,
              "a link fault must kill at least one direction");
  links_.push_back(f);
}

void FaultSet::add(PortFault f) {
  XLP_REQUIRE(f.router >= 0, "router id must be non-negative");
  XLP_REQUIRE(f.extra_cycles >= 1,
              "port degradation must add at least one cycle");
  ports_.push_back(f);
}

bool FaultSet::kills(Dim dim, int index, int from, int to) const {
  const int lo = std::min(from, to);
  const int hi = std::max(from, to);
  const bool is_forward = from < to;  // lo -> hi direction
  for (const LinkFault& f : links_) {
    if (f.id.dim != dim || f.id.index != index || f.id.link.lo != lo ||
        f.id.link.hi != hi)
      continue;
    if (is_forward ? f.forward : f.backward) return true;
  }
  return false;
}

int FaultSet::extra_pipeline_cycles(int router) const {
  int extra = 0;
  for (const PortFault& f : ports_)
    if (f.router == router) extra += f.extra_cycles;
  return extra;
}

bool FaultSet::remove_link(const LinkId& id) {
  const auto end = std::remove_if(
      links_.begin(), links_.end(),
      [&id](const LinkFault& f) { return f.id == id; });
  const bool removed = end != links_.end();
  links_.erase(end, links_.end());
  return removed;
}

std::string FaultSet::to_string() const {
  std::ostringstream os;
  os << "links[";
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i > 0) os << ' ';
    os << links_[i].id.to_string();
    if (!links_[i].forward) os << "<-";
    else if (!links_[i].backward) os << "->";
  }
  os << "] ports[";
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (i > 0) os << ' ';
    os << ports_[i].router << ":+" << ports_[i].extra_cycles;
  }
  os << ']';
  return os.str();
}

std::vector<LinkId> enumerate_links(const topo::ExpressMesh& mesh,
                                    bool express_only) {
  std::vector<LinkId> out;
  auto add_dim = [&](Dim dim, int count,
                     const topo::RowTopology& (topo::ExpressMesh::*get)(int)
                         const) {
    for (int i = 0; i < count; ++i) {
      const topo::RowTopology& row = (mesh.*get)(i);
      topo::RowLink prev{-1, -1};
      for (const topo::RowLink& link : row.all_links()) {
        if (link == prev) continue;  // duplicates share a channel
        prev = link;
        if (express_only && !link.is_express()) continue;
        out.push_back({dim, i, link});
      }
    }
  };
  add_dim(Dim::kRow, mesh.height(), &topo::ExpressMesh::row);
  add_dim(Dim::kCol, mesh.width(), &topo::ExpressMesh::col);
  return out;
}

namespace {

std::vector<LinkId> candidates(const topo::ExpressMesh& mesh,
                               const SampleOptions& opts) {
  std::vector<LinkId> pool = enumerate_links(mesh, opts.express_only);
  if (pool.empty() && opts.express_only)
    pool = enumerate_links(mesh, /*express_only=*/false);
  return pool;
}

LinkFault make_fault(LinkId id, const SampleOptions& opts, Rng& rng) {
  LinkFault f{id, true, true};
  if (opts.directional) {
    if (rng.bernoulli(0.5)) f.backward = false;
    else f.forward = false;
  }
  return f;
}

}  // namespace

FaultSet sample_k_links(const topo::ExpressMesh& mesh, int k, Rng& rng,
                        const SampleOptions& opts) {
  XLP_REQUIRE(k >= 0, "cannot kill a negative number of links");
  std::vector<LinkId> pool = candidates(mesh, opts);
  FaultSet faults;
  const int draws = std::min<int>(k, static_cast<int>(pool.size()));
  for (int i = 0; i < draws; ++i) {
    const auto pick =
        static_cast<std::size_t>(rng.uniform_below(pool.size()));
    faults.add(make_fault(pool[pick], opts, rng));
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return faults;
}

}  // namespace xlp::fault
