#include "sim/network.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace xlp::sim {

namespace {

/// Index of the port in `ports` facing router `peer`; -1 when none does.
int port_facing(const std::vector<Network::Port>& ports, int peer) {
  for (std::size_t p = 1; p < ports.size(); ++p)
    if (ports[p].peer_router == peer) return static_cast<int>(p);
  return -1;
}

}  // namespace

Network::Network(const topo::ExpressMesh& mesh, route::HopWeights weights)
    : width_(mesh.width()),
      height_(mesh.height()),
      flit_bits_(mesh.flit_bits()),
      mesh_(mesh),
      weights_(weights),
      routing_(mesh, weights) {
  const int nodes = node_count();
  ports_.resize(static_cast<std::size_t>(nodes));

  // Port 0 everywhere: the network interface.
  for (int r = 0; r < nodes; ++r) ports_[r].push_back(Port{});

  // Neighbor ports: row neighbors first (ascending position), then column
  // neighbors — Fig. 3(b)'s outport numbering convention. Parallel
  // duplicate links collapse because add_neighbor is idempotent per peer.
  for (int r = 0; r < nodes; ++r) {
    const int x = r % width_;
    const int y = r / width_;
    std::vector<Port>& ports = ports_[static_cast<std::size_t>(r)];
    auto add_neighbor = [&](int peer) {
      if (port_facing(ports, peer) >= 0) return;
      Port p;
      p.peer_router = peer;
      p.length =
          std::abs(peer % width_ - x) + std::abs(peer / width_ - y);
      p.dx = (peer % width_ > x) - (peer % width_ < x);
      p.dy = (peer / width_ > y) - (peer / width_ < y);
      ports.push_back(p);
    };
    for (int nx : mesh.row(y).neighbors_left(x))
      add_neighbor(y * width_ + nx);
    for (int nx : mesh.row(y).neighbors_right(x))
      add_neighbor(y * width_ + nx);
    for (int ny : mesh.col(x).neighbors_left(y))
      add_neighbor(ny * width_ + x);
    for (int ny : mesh.col(x).neighbors_right(y))
      add_neighbor(ny * width_ + x);
  }

  // Directed channels; both endpoints now have their port tables, so wire
  // up peer_port / in_channel / out_channel.
  for (int r = 0; r < nodes; ++r) {
    for (int p = 1; p < port_count(r); ++p) {
      Port& out = ports_[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(p)];
      const int peer = out.peer_router;
      const int peer_port =
          port_facing(ports_[static_cast<std::size_t>(peer)], r);
      XLP_CHECK(peer_port >= 1, "links must be bidirectional");
      out.peer_port = peer_port;

      const int id = static_cast<int>(channels_.size());
      channels_.push_back({r, p, peer, peer_port, out.length});
      out.out_channel = id;
      ports_[static_cast<std::size_t>(peer)]
            [static_cast<std::size_t>(peer_port)].in_channel = id;
    }
  }
}

int Network::side() const {
  XLP_REQUIRE(width_ == height_, "side() called on a rectangular network");
  return width_;
}

int Network::port_count(int router) const {
  XLP_REQUIRE(router >= 0 && router < node_count(), "router out of range");
  return static_cast<int>(ports_[static_cast<std::size_t>(router)].size());
}

const Network::Port& Network::port(int router, int p) const {
  XLP_REQUIRE(p >= 0 && p < port_count(router), "port out of range");
  return ports_[static_cast<std::size_t>(router)][static_cast<std::size_t>(p)];
}

}  // namespace xlp::sim
