#pragma once

#include <vector>

#include "route/mesh_routing.hpp"
#include "topo/express_mesh.hpp"

namespace xlp::sim {

/// Structural model of the network: routers with numbered ports and the
/// directed channels between them. Port 0 of every router is the network
/// interface (injection/ejection); ports 1.. connect to row neighbors
/// (sorted by position) then column neighbors. Parallel duplicate links
/// between the same pair collapse onto one channel (duplicates can arise in
/// the connection-matrix space; they add unusable capacity, Section 5.4).
class Network {
 public:
  struct Port {
    int peer_router = -1;  // -1 for the NI port
    int peer_port = -1;
    int length = 0;        // wire units; NI "links" have length 0
    int in_channel = -1;   // channel delivering flits into this port
    int out_channel = -1;  // channel this port drives (-1 for NI ports)
    // Unit direction from this router toward the peer (one of dx/dy is
    // non-zero for neighbor ports; both zero for the NI port). Used by the
    // virtual-express bypass to detect straight-through traversal.
    int dx = 0;
    int dy = 0;
  };

  struct Channel {
    int src_router = -1;
    int src_port = -1;
    int dst_router = -1;
    int dst_port = -1;
    int length = 1;
  };

  Network(const topo::ExpressMesh& mesh, route::HopWeights weights);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  /// Routers per side; only valid for square networks (throws otherwise).
  [[nodiscard]] int side() const;
  [[nodiscard]] int node_count() const noexcept { return width_ * height_; }
  [[nodiscard]] int flit_bits() const noexcept { return flit_bits_; }

  [[nodiscard]] int port_count(int router) const;
  [[nodiscard]] const Port& port(int router, int p) const;
  [[nodiscard]] const std::vector<Channel>& channels() const noexcept {
    return channels_;
  }

  [[nodiscard]] const route::MeshRouting& routing() const noexcept {
    return routing_;
  }

  /// The design this network was built from; the fault subsystem reroutes
  /// against it when links die mid-run.
  [[nodiscard]] const topo::ExpressMesh& mesh() const noexcept {
    return mesh_;
  }
  [[nodiscard]] const route::HopWeights& hop_weights() const noexcept {
    return weights_;
  }

 private:
  int width_;
  int height_;
  int flit_bits_;
  topo::ExpressMesh mesh_;
  route::HopWeights weights_;
  route::MeshRouting routing_;
  std::vector<std::vector<Port>> ports_;  // [router][port]
  std::vector<Channel> channels_;
};

}  // namespace xlp::sim
