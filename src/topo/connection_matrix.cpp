#include "topo/connection_matrix.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xlp::topo {

ConnectionMatrix::ConnectionMatrix(int n, int link_limit)
    : n_(n), c_(link_limit) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  XLP_REQUIRE(link_limit >= 1, "link limit must be at least 1");
  bits_.assign(static_cast<std::size_t>(bit_count()), 0);
}

bool ConnectionMatrix::bit(int layer, int interior_idx) const {
  XLP_REQUIRE(layer >= 0 && layer < layers(), "layer out of range");
  XLP_REQUIRE(interior_idx >= 0 && interior_idx < interior(),
              "interior index out of range");
  return bits_[static_cast<std::size_t>(layer * interior() + interior_idx)] !=
         0;
}

void ConnectionMatrix::set_bit(int layer, int interior_idx, bool value) {
  XLP_REQUIRE(layer >= 0 && layer < layers(), "layer out of range");
  XLP_REQUIRE(interior_idx >= 0 && interior_idx < interior(),
              "interior index out of range");
  bits_[static_cast<std::size_t>(layer * interior() + interior_idx)] =
      value ? 1 : 0;
}

void ConnectionMatrix::flip_bit(int layer, int interior_idx) {
  set_bit(layer, interior_idx, !bit(layer, interior_idx));
}

bool ConnectionMatrix::bit_flat(int idx) const {
  XLP_REQUIRE(idx >= 0 && idx < bit_count(), "flat index out of range");
  return bits_[static_cast<std::size_t>(idx)] != 0;
}

void ConnectionMatrix::flip_flat(int idx) {
  XLP_REQUIRE(idx >= 0 && idx < bit_count(), "flat index out of range");
  bits_[static_cast<std::size_t>(idx)] ^= 1;
}

ConnectionMatrix ConnectionMatrix::random(int n, int link_limit, Rng& rng,
                                          double density) {
  ConnectionMatrix m(n, link_limit);
  for (auto& b : m.bits_) b = rng.bernoulli(density) ? 1 : 0;
  return m;
}

RowTopology ConnectionMatrix::decode() const {
  std::vector<RowLink> express;
  for (int layer = 0; layer < layers(); ++layer) {
    int run_start = -1;  // interior index where the current run began
    for (int i = 0; i <= interior(); ++i) {
      const bool set = i < interior() && bit(layer, i);
      if (set && run_start < 0) run_start = i;
      if (!set && run_start >= 0) {
        // Run over interior indices [run_start, i-1] = physical routers
        // [run_start+1, i]; it fuses the segments on both sides into the
        // express link (run_start, i+1) in physical router coordinates.
        express.push_back({run_start, i + 1});
        run_start = -1;
      }
    }
  }
  return RowTopology(n_, std::move(express));
}

ConnectionMatrix ConnectionMatrix::encode(const RowTopology& row,
                                          int link_limit) {
  XLP_REQUIRE(row.fits_link_limit(link_limit),
              "topology exceeds the link limit; cannot encode");
  ConnectionMatrix m(row.size(), link_limit);

  // Greedy interval partitioning: process express links by left endpoint and
  // put each into the first layer whose previously placed links end at or
  // before this link's start. Two links may share an endpoint router within
  // a layer: link (a,b) sets interior bits a+1..b-1 and link (b,c) sets
  // b+1..c-1, so the unset bit at router b keeps the decode() runs separate.
  // Greedy by left endpoint uses exactly max-cut-overlap layers, which is
  // <= C-1 for any placement that fits the limit.
  std::vector<int> layer_free_from(static_cast<std::size_t>(m.layers()), 0);
  for (const RowLink& link : row.express_links()) {
    int chosen = -1;
    for (int layer = 0; layer < m.layers(); ++layer) {
      if (layer_free_from[layer] <= link.lo) {
        chosen = layer;
        break;
      }
    }
    XLP_CHECK(chosen >= 0,
              "interval partitioning ran out of layers for a placement that "
              "fits the link limit");
    for (int r = link.lo + 1; r <= link.hi - 1; ++r)
      m.set_bit(chosen, r - 1, true);
    layer_free_from[chosen] = link.hi;
  }
  return m;
}

std::string ConnectionMatrix::to_string() const {
  std::string out;
  for (int layer = 0; layer < layers(); ++layer) {
    if (layer > 0) out += '|';
    for (int i = 0; i < interior(); ++i) out += bit(layer, i) ? '1' : '0';
  }
  return out;
}

ConnectionMatrix ConnectionMatrix::from_string(int n, int link_limit,
                                               const std::string& text) {
  ConnectionMatrix m(n, link_limit);
  if (m.layers() == 0 || m.interior() == 0) {
    // Degenerate matrices dump as "" (no layers) or "|"-runs of empty
    // rows (no interior routers); accept exactly what to_string() emits.
    XLP_REQUIRE(text == m.to_string(),
                "matrix text does not match the degenerate shape of P(n, C)");
    return m;
  }
  std::vector<std::string> rows;
  std::string row;
  for (const char ch : text) {
    if (ch == '|') {
      rows.push_back(row);
      row.clear();
    } else {
      row += ch;
    }
  }
  rows.push_back(row);
  XLP_REQUIRE(static_cast<int>(rows.size()) == m.layers(),
              "matrix text has the wrong number of layers");
  for (int layer = 0; layer < m.layers(); ++layer) {
    const std::string& r = rows[static_cast<std::size_t>(layer)];
    XLP_REQUIRE(static_cast<int>(r.size()) == m.interior(),
                "matrix layer has the wrong number of columns");
    for (int i = 0; i < m.interior(); ++i) {
      const char ch = r[static_cast<std::size_t>(i)];
      XLP_REQUIRE(ch == '0' || ch == '1', "matrix text must be 0/1 digits");
      m.set_bit(layer, i, ch == '1');
    }
  }
  return m;
}

}  // namespace xlp::topo
