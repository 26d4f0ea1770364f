#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>

#include "fault/reroute.hpp"
#include "latency/packet_mix.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "route/deadlock.hpp"
#include "runctl/control.hpp"
#include "util/check.hpp"
#include "util/numeric.hpp"

namespace xlp::sim {

namespace {

/// Cycles between two samples of every `sim.*` series.
constexpr long kSeriesIntervalCycles = 256;

bool check_sim_enabled() {
  const char* env = std::getenv("XLP_CHECK_SIM");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

Simulator::Simulator(const Network& network, const SimConfig& config)
    : net_(network),
      config_(config),
      rng_(config.seed),
      injection_(network.node_count()) {
  XLP_REQUIRE(config_.vcs_per_port >= 1, "need at least one VC per port");
  XLP_REQUIRE(config_.routing != RoutingMode::kO1Turn ||
                  config_.vcs_per_port >= 2,
              "O1TURN needs at least two VCs per port (one per "
              "orientation class)");
  XLP_REQUIRE(config_.pipeline_stages >= 1, "pipeline needs >= 1 stage");

  const int nodes = net_.node_count();
  const int vcs = config_.vcs_per_port;
  check_ = check_sim_enabled();

  // Flat router state: global VC, port and mask-word numbering.
  vc_base_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  port_base_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  word_base_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  vc_depth_.assign(static_cast<std::size_t>(nodes), 0);
  int max_ports = 0;
  for (int r = 0; r < nodes; ++r) {
    const auto at = static_cast<std::size_t>(r);
    const int ports = net_.port_count(r);
    max_ports = std::max(max_ports, ports);
    vc_depth_[at] = config_.vc_depth_flits(ports, net_.flit_bits());
    vc_base_[at + 1] = vc_base_[at] + ports * vcs;
    port_base_[at + 1] = port_base_[at] + ports;
    word_base_[at + 1] = word_base_[at] + (ports * vcs + 63) / 64;
  }
  // Every input VC starts with its full depth of credits at the sender
  // feeding it: the upstream router's output port, or the NI for port 0.
  // (Its flit ring is laid out when run() knows the longest packet.)
  const auto total_vcs = static_cast<std::size_t>(vc_base_.back());
  credits_.resize(total_vcs);
  for (int r = 0; r < nodes; ++r)
    std::fill(credits_.begin() + vc_base_[static_cast<std::size_t>(r)],
              credits_.begin() + vc_base_[static_cast<std::size_t>(r) + 1],
              vc_depth_[static_cast<std::size_t>(r)]);
  buf_head_.assign(total_vcs, 0);
  buf_size_.assign(total_vcs, 0);
  vc_owned_.assign(total_vcs, 0);
  vc_bypass_.assign(total_vcs, 0);
  vc_out_port_.assign(total_vcs, -1);
  vc_out_vc_.assign(total_vcs, -1);
  vc_downstream_.assign(total_vcs, -1);
  vc_owner_.assign(total_vcs, -1);
  nonempty_bits_.assign(static_cast<std::size_t>(word_base_.back()), 0);
  active_bits_.assign(static_cast<std::size_t>(word_base_.back()), 0);
  buffered_.assign(static_cast<std::size_t>(nodes), 0);
  busy_routers_.assign((static_cast<std::size_t>(nodes) + 63) / 64, 0);
  unrouted_routers_.assign(busy_routers_.size(), 0);
  rr_.assign(static_cast<std::size_t>(port_base_.back()), 0);
  port_grant_epoch_.assign(static_cast<std::size_t>(max_ports), 0);

  port_out_channel_.assign(static_cast<std::size_t>(port_base_.back()), -1);
  port_length_.assign(static_cast<std::size_t>(port_base_.back()), 0);
  port_peer_vc_base_.assign(static_cast<std::size_t>(port_base_.back()), -1);
  for (int r = 0; r < nodes; ++r) {
    for (int p = 1; p < net_.port_count(r); ++p) {
      const Network::Port& port = net_.port(r, p);
      const auto gp = static_cast<std::size_t>(
          port_base_[static_cast<std::size_t>(r)] + p);
      port_out_channel_[gp] = port.out_channel;
      port_length_[gp] = port.length;
      port_peer_vc_base_[gp] =
          vc_base_[static_cast<std::size_t>(port.peer_router)] +
          port.peer_port * vcs;
    }
  }

  const std::size_t channels = net_.channels().size();
  chan_off_.resize(channels);
  chan_cap_.resize(channels);
  chan_dst_vc_base_.resize(channels);
  int chan_slots = 0;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    const Network::Channel& channel = net_.channels()[ch];
    chan_off_[ch] = chan_slots;
    chan_cap_[ch] = channel.length + 1;
    chan_slots += chan_cap_[ch];
    chan_dst_vc_base_[ch] =
        vc_base_[static_cast<std::size_t>(channel.dst_router)] +
        channel.dst_port * vcs;
  }
  chan_buf_.resize(static_cast<std::size_t>(chan_slots));
  chan_arrival_.resize(static_cast<std::size_t>(chan_slots));
  chan_head_.assign(channels, 0);
  chan_size_.assign(channels, 0);
  channel_flits_measured_.assign(channels, 0);

  nodes_.resize(static_cast<std::size_t>(nodes));

  activity_.flit_bits = net_.flit_bits();

  // Fault machinery. With an empty schedule everything below stays inert:
  // routing_ aliases the network's pristine tables and extra_pipeline_ is
  // all zero, so the fault-free fast path is bit-identical to before.
  routing_ = &net_.routing();
  build_port_table(*routing_);
  faults_enabled_ = !config_.faults.empty();
  extra_pipeline_.assign(static_cast<std::size_t>(nodes), 0);
  channel_dead_.assign(net_.channels().size(), 0);
  if (faults_enabled_) {
    XLP_REQUIRE(config_.faults.max_retries >= 0,
                "max_retries must be non-negative");
    const auto& events = config_.faults.events;
    event_active_.assign(events.size(), 0);
    for (std::size_t e = 0; e < events.size(); ++e) {
      const FaultEvent& ev = events[e];
      XLP_REQUIRE(ev.cycle >= 0, "fault cycle must be non-negative");
      XLP_REQUIRE(ev.recover_cycle < 0 || ev.recover_cycle > ev.cycle,
                  "recovery must come after the fault");
      for (const fault::LinkFault& lf : ev.faults.link_faults()) {
        const bool is_row = lf.id.dim == fault::Dim::kRow;
        const int span = is_row ? net_.width() : net_.height();
        const int count = is_row ? net_.height() : net_.width();
        XLP_REQUIRE(lf.id.index < count && lf.id.link.hi < span,
                    "link fault outside the mesh");
      }
      for (const fault::PortFault& pf : ev.faults.port_faults())
        XLP_REQUIRE(pf.router < nodes, "port fault outside the mesh");
      // Order 1 = activation, 0 = recovery; at equal cycles recoveries
      // apply first so a replacement fault set takes over atomically.
      fault_edges_.emplace_back(ev.cycle, 1, e);
      if (ev.recover_cycle >= 0)
        fault_edges_.emplace_back(ev.recover_cycle, 0, e);
    }
    std::sort(fault_edges_.begin(), fault_edges_.end());
  }
}

Simulator::Simulator(const Network& network, const traffic::Demand& demand,
                     const SimConfig& config)
    : Simulator(network, config) {
  XLP_REQUIRE(demand.width() == net_.width() &&
                  demand.height() == net_.height(),
              "demand dimensions do not match the network");
  injection_ = traffic::Injection(demand);
}

std::pair<int, int> Simulator::vc_class(bool y_first) const {
  if (config_.routing != RoutingMode::kO1Turn)
    return {0, config_.vcs_per_port};
  const int half = config_.vcs_per_port / 2;
  return y_first ? std::pair{half, config_.vcs_per_port}
                 : std::pair{0, half};
}

bool Simulator::choose_orientation(const route::MeshRouting& routing,
                                   int src, int dst, bool* y_first) {
  switch (config_.routing) {
    case RoutingMode::kXY: *y_first = false; break;
    case RoutingMode::kYX: *y_first = true; break;
    case RoutingMode::kO1Turn: {
      if (!faults_enabled_) {
        *y_first = rng_.bernoulli(0.5);
        return true;
      }
      // A degraded network may have severed one orientation class; O1TURN
      // traffic survives on the other.
      const bool xy_ok =
          routing.reachable(src, dst, route::Orientation::kXYFirst);
      const bool yx_ok =
          routing.reachable(src, dst, route::Orientation::kYXFirst);
      if (!xy_ok && !yx_ok) return false;
      *y_first = (xy_ok && yx_ok) ? rng_.bernoulli(0.5) : yx_ok;
      return true;
    }
  }
  if (!faults_enabled_) return true;
  return routing.reachable(src, dst,
                           *y_first ? route::Orientation::kYXFirst
                                    : route::Orientation::kXYFirst);
}

long Simulator::create_packet(int src, int dst, int bits) {
  bool y_first = false;
  if (!choose_orientation(admission_routing(), src, dst, &y_first)) {
    ++packets_unroutable_;
    return -1;
  }

  Packet pk;
  pk.id = static_cast<long>(packets_.size());
  pk.src = src;
  pk.dst = dst;
  pk.bits = bits;
  pk.flits = latency::PacketMix::flits_for(bits, net_.flit_bits());
  pk.created = cycle_;
  pk.measured = in_measurement_window();
  pk.y_first = y_first;
  if (pk.measured) ++outstanding_measured_;
  packets_.push_back(pk);

  auto& queue = nodes_[static_cast<std::size_t>(src)].source_queue;
  for (int s = 0; s < pk.flits; ++s) {
    Flit f;
    f.packet = pk.id;
    f.seq = s;
    f.is_head = s == 0;
    f.is_tail = s == pk.flits - 1;
    f.dst = dst;
    f.y_first = y_first;
    queue.push_back(f);
  }
  return pk.id;
}

void Simulator::schedule_packet(int src, int dst, int bits,
                                long create_cycle) {
  XLP_REQUIRE(src >= 0 && src < net_.node_count() && dst >= 0 &&
                  dst < net_.node_count() && src != dst,
              "bad trace packet endpoints");
  XLP_REQUIRE(cycle_ == 0, "schedule_packet must be called before run()");
  scheduled_.emplace_back(create_cycle, src, dst, bits);
}

long Simulator::packet_latency(long packet_id) const {
  XLP_REQUIRE(packet_id >= 0 &&
                  packet_id < static_cast<long>(packets_.size()),
              "unknown packet id");
  const Packet& pk = packets_[static_cast<std::size_t>(packet_id)];
  return pk.ejected < 0 ? -1 : pk.ejected - pk.created;
}

void Simulator::layout_vc_rings(int longest_packet_flits) {
  const int nodes = net_.node_count();
  ring_cap_.resize(static_cast<std::size_t>(nodes));
  buf_off_.resize(static_cast<std::size_t>(vc_base_.back()));
  int flit_slots = 0;
  for (int r = 0; r < nodes; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    ring_cap_[ri] = std::min(vc_depth_[ri], longest_packet_flits);
    for (int g = vc_base_[ri]; g < vc_base_[ri + 1]; ++g) {
      buf_off_[static_cast<std::size_t>(g)] = flit_slots;
      flit_slots += ring_cap_[ri];
    }
  }
  flit_buf_.assign(static_cast<std::size_t>(flit_slots), Flit{});
}

void Simulator::push_flit(int router, int slot, const Flit& f) {
  const auto r = static_cast<std::size_t>(router);
  const auto gi = static_cast<std::size_t>(vc_base_[r] + slot);
  const int cap = ring_cap_[r];
  int& size = buf_size_[gi];
  XLP_CHECK(size < cap,
            "input buffer overflow: credit protocol violated or a VC holds "
            "more than one packet");
  int at = buf_head_[gi] + size;
  if (at >= cap) at -= cap;
  flit_buf_[static_cast<std::size_t>(buf_off_[gi] + at)] = f;
  const auto word = static_cast<std::size_t>(word_base_[r] + slot / 64);
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if (size++ == 0) nonempty_bits_[word] |= bit;
  if ((active_bits_[word] & bit) == 0)
    set_router_bit(unrouted_routers_, router, true);
  if (buffered_[r]++ == 0) set_router_bit(busy_routers_, router, true);
}

Flit Simulator::pop_flit(int router, int slot) {
  const auto r = static_cast<std::size_t>(router);
  const auto g = static_cast<std::size_t>(vc_base_[r] + slot);
  int& head = buf_head_[g];
  const Flit f = flit_buf_[static_cast<std::size_t>(buf_off_[g] + head)];
  if (++head == ring_cap_[r]) head = 0;
  if (--buf_size_[g] == 0)
    nonempty_bits_[static_cast<std::size_t>(word_base_[r] + slot / 64)] &=
        ~(std::uint64_t{1} << (slot % 64));
  if (--buffered_[r] == 0) set_router_bit(busy_routers_, router, false);
  return f;
}

void Simulator::set_active(int router, int slot, bool on) {
  std::uint64_t& word = active_bits_[static_cast<std::size_t>(
      word_base_[static_cast<std::size_t>(router)] + slot / 64)];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  word = on ? (word | bit) : (word & ~bit);
}

void Simulator::release_vc(int router, int slot) {
  const auto g = static_cast<std::size_t>(
      vc_base_[static_cast<std::size_t>(router)] + slot);
  set_active(router, slot, false);
  if (buf_size_[g] > 0) set_router_bit(unrouted_routers_, router, true);
  vc_owned_[g] = 0;
  vc_bypass_[g] = 0;
  vc_out_port_[g] = -1;
  vc_out_vc_[g] = -1;
  vc_downstream_[g] = -1;
  vc_owner_[g] = -1;
}

void Simulator::push_channel(int ch, long arrival, const Flit& f) {
  const auto c = static_cast<std::size_t>(ch);
  int& size = chan_size_[c];
  XLP_CHECK(size < chan_cap_[c], "more flits on a wire than its length");
  if (size == 0) busy_channels_.push_back(ch);
  int at = chan_head_[c] + size++;
  if (at >= chan_cap_[c]) at -= chan_cap_[c];
  const auto idx = static_cast<std::size_t>(chan_off_[c] + at);
  chan_buf_[idx] = f;
  chan_arrival_[idx] = arrival;
}

template <class F>
void Simulator::for_each_router_in(const std::vector<std::uint64_t>& routers,
                                   F&& f) {
  for (std::size_t w = 0; w < routers.size(); ++w) {
    // A copy: visiting a router may clear its own bit, never another's.
    std::uint64_t bits = routers[w];
    while (bits != 0) {
      f(static_cast<int>(w * 64) + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

void Simulator::set_router_bit(std::vector<std::uint64_t>& routers,
                               int router, bool on) {
  std::uint64_t& word = routers[static_cast<std::size_t>(router) / 64];
  const std::uint64_t bit = std::uint64_t{1} << (router % 64);
  word = on ? (word | bit) : (word & ~bit);
}

void Simulator::refresh_unrouted(int router) {
  const auto r = static_cast<std::size_t>(router);
  bool unrouted = false;
  for (int w = word_base_[r]; w < word_base_[r + 1]; ++w)
    unrouted |= (nonempty_bits_[static_cast<std::size_t>(w)] &
                 ~active_bits_[static_cast<std::size_t>(w)]) != 0;
  set_router_bit(unrouted_routers_, router, unrouted);
}

void Simulator::inject(int node) {
  auto& st = nodes_[static_cast<std::size_t>(node)];
  // Graceful reconfiguration gates new packets while the network drains on
  // the old tables (sources keep queueing). A packet already mid-injection
  // keeps sending: its head holds VC claims along an old-table path, so the
  // tail must follow and release them before the tables may swap.
  if (draining_for_swap_ && st.active_vc < 0) return;
  if (st.source_queue.empty()) return;
  Flit& f = st.source_queue.front();
  const int port0 = vc_base_[static_cast<std::size_t>(node)];

  if (f.is_head && st.active_vc < 0) {
    // NI-side VC allocation on the router's local input port, restricted
    // to the packet's orientation class.
    const auto [vc_lo, vc_hi] = vc_class(f.y_first);
    for (int v = vc_lo; v < vc_hi; ++v) {
      const auto g = static_cast<std::size_t>(port0 + v);
      if (!vc_owned_[g]) {
        vc_owned_[g] = 1;
        vc_owner_[g] = f.packet;
        st.active_vc = v;
        st.active_packet = f.packet;
        break;
      }
    }
    if (st.active_vc < 0) return;  // all local VCs of this class busy
  }
  if (st.active_vc < 0) return;
  int& credit = credits_[static_cast<std::size_t>(port0 + st.active_vc)];
  if (credit <= 0) return;

  Flit sent = f;
  sent.vc = st.active_vc;
  st.source_queue.pop_front();
  --credit;

  // NI-to-router wiring is length 0: the flit is written into the router's
  // local input buffer next cycle (the arrival handler stamps ready_cycle).
  ni_arrivals_.push_back({cycle_ + 1, node, sent});
  ++in_network_flits_;
  ++injected_flits_total_;

  if (sent.is_head) packets_[sent.packet].injected = cycle_ + 1;
  if (sent.is_tail) {
    st.active_vc = -1;
    st.active_packet = -1;
  }
}

void Simulator::deliver_channel_arrivals() {
  const bool window = in_measurement_window();
  // NI arrivals.
  while (!ni_arrivals_.empty() &&
         std::get<0>(ni_arrivals_.front()) <= cycle_) {
    auto [when, node, f] = ni_arrivals_.front();
    ni_arrivals_.pop_front();
    XLP_CHECK(when == cycle_, "missed an NI arrival");
    f.ready_cycle = cycle_ + (config_.pipeline_stages - 1) +
                    extra_pipeline_[static_cast<std::size_t>(node)];
    push_flit(node, f.vc, f);
    if (window) ++activity_.buffer_writes;
  }
  // Channel arrivals, over the channels with flits in flight only. Each
  // channel feeds its own input port, so the visiting order is immaterial.
  for (std::size_t i = 0; i < busy_channels_.size();) {
    const int ch = busy_channels_[i];
    const auto c = static_cast<std::size_t>(ch);
    const Network::Channel& channel = net_.channels()[c];
    while (chan_size_[c] > 0 &&
           chan_arrival_[static_cast<std::size_t>(chan_off_[c] +
                                                  chan_head_[c])] <= cycle_) {
      Flit f =
          chan_buf_[static_cast<std::size_t>(chan_off_[c] + chan_head_[c])];
      if (++chan_head_[c] == chan_cap_[c]) chan_head_[c] = 0;
      --chan_size_[c];
      f.ready_cycle =
          cycle_ + (config_.pipeline_stages - 1) +
          extra_pipeline_[static_cast<std::size_t>(channel.dst_router)];
      push_flit(channel.dst_router,
                channel.dst_port * config_.vcs_per_port + f.vc, f);
      if (window) ++activity_.buffer_writes;
    }
    if (chan_size_[c] == 0) {
      busy_channels_[i] = busy_channels_.back();
      busy_channels_.pop_back();
    } else {
      ++i;
    }
  }
}

void Simulator::deliver_credits() {
  while (!credit_returns_.empty() &&
         credit_returns_.front().first <= cycle_) {
    ++credits_[static_cast<std::size_t>(credit_returns_.front().second)];
    credit_returns_.pop_front();
  }
}

void Simulator::build_port_table(const route::MeshRouting& routing) {
  const int w = net_.width();
  const int h = net_.height();
  const auto stride = static_cast<std::size_t>(w + h);
  port_table_.assign(static_cast<std::size_t>(net_.node_count()) * stride,
                     -1);
  // Scratch: router r's port facing each row peer (by column) and each
  // column peer (by row); -1 for non-neighbors.
  std::vector<int> row_port(static_cast<std::size_t>(w));
  std::vector<int> col_port(static_cast<std::size_t>(h));
  for (int r = 0; r < net_.node_count(); ++r) {
    const int x = r % w;
    const int y = r / w;
    std::fill(row_port.begin(), row_port.end(), -1);
    std::fill(col_port.begin(), col_port.end(), -1);
    for (int p = 1; p < net_.port_count(r); ++p) {
      const int peer = net_.port(r, p).peer_router;
      if (peer / w == y)
        row_port[static_cast<std::size_t>(peer % w)] = p;
      else
        col_port[static_cast<std::size_t>(peer / w)] = p;
    }
    int* entry = port_table_.data() + static_cast<std::size_t>(r) * stride;
    // Degraded tables keep next hop -1 for severed targets, so those
    // entries stay -1 and output_port rejects a flit routed there.
    const route::DirectionalShortestPaths& row = routing.row_paths(y);
    for (int tx = 0; tx < w; ++tx) {
      const int next = tx == x ? -1 : row.next_hop(x, tx);
      if (next >= 0) entry[tx] = row_port[static_cast<std::size_t>(next)];
    }
    const route::DirectionalShortestPaths& col = routing.col_paths(x);
    for (int ty = 0; ty < h; ++ty) {
      const int next = ty == y ? -1 : col.next_hop(y, ty);
      if (next >= 0) entry[w + ty] = col_port[static_cast<std::size_t>(next)];
    }
  }
}

int Simulator::output_port(int router, int dst, bool y_first) const {
  if (router == dst) return 0;
  const int w = net_.width();
  const int x = router % w;
  const int y = router / w;
  const int tx = dst % w;
  const int ty = dst / w;
  // XY takes the row segment while x differs; YX only once y matches.
  const bool row = y_first ? y == ty : x != tx;
  const int p = port_table_[static_cast<std::size_t>(router) *
                                static_cast<std::size_t>(w + net_.height()) +
                            static_cast<std::size_t>(row ? tx : w + ty)];
  XLP_CHECK(p >= 1, "no route toward the destination under the live tables");
  return p;
}

void Simulator::allocate(int router) {
  const auto r = static_cast<std::size_t>(router);
  const int vcs = config_.vcs_per_port;
  const int base = vc_base_[r];
  for (int w = word_base_[r]; w < word_base_[r + 1]; ++w) {
    // Buffered VCs without a route, in ascending slot order: VC allocation
    // claims downstream VCs first come, first served.
    std::uint64_t waiting = nonempty_bits_[static_cast<std::size_t>(w)] &
                            ~active_bits_[static_cast<std::size_t>(w)];
    for (; waiting != 0; waiting &= waiting - 1) {
      const int slot = (w - word_base_[r]) * 64 + std::countr_zero(waiting);
      const auto g = static_cast<std::size_t>(base + slot);
      const Flit& head = front_flit(base + slot);
      if (!head.is_head) continue;
      // Route computation against the live (possibly rerouted) tables.
      const int out_port = output_port(router, head.dst, head.y_first);
      if (out_port == 0) {  // ejection needs no downstream VC
        vc_out_port_[g] = 0;
        vc_out_vc_[g] = 0;
        vc_downstream_[g] = -1;
        set_active(router, slot, true);
        continue;
      }
      // VC allocation on the downstream input port, within the packet's
      // orientation class.
      const int peer_base = port_peer_vc_base_[static_cast<std::size_t>(
          port_base_[r] + out_port)];
      const auto [vc_lo, vc_hi] = vc_class(head.y_first);
      for (int u = vc_lo; u < vc_hi; ++u) {
        const auto down = static_cast<std::size_t>(peer_base + u);
        if (vc_owned_[down]) continue;
        vc_owned_[down] = 1;
        vc_owner_[down] = head.packet;
        vc_out_port_[g] = out_port;
        vc_out_vc_[g] = u;
        vc_downstream_[g] = peer_base + u;
        set_active(router, slot, true);
        // Virtual-express bypass: a straight-through packet (arrived via a
        // neighbor port and continues in the same dimension and
        // direction) skips the front pipeline stages at this router.
        const int p = slot / vcs;
        if (config_.virtual_express_bypass && p != 0) {
          const auto& in_port = net_.port(router, p);
          const auto& port = net_.port(router, out_port);
          vc_bypass_[g] = port.dx == -in_port.dx && port.dy == -in_port.dy;
        }
        break;
      }
    }
  }
  refresh_unrouted(router);
}

void Simulator::arbitrate(int router) {
  const auto r = static_cast<std::size_t>(router);
  const int ports = port_base_[r + 1] - port_base_[r];
  const int vcs = config_.vcs_per_port;
  const int slots = ports * vcs;
  const int base = vc_base_[r];

  // One pass over the live input VCs (buffered and routed) collects the
  // switch requests: a VC requests its output when its front flit is ready
  // and, unless it ejects, its downstream VC has a credit.
  requests_.clear();
  for (int w = word_base_[r]; w < word_base_[r + 1]; ++w) {
    std::uint64_t live = nonempty_bits_[static_cast<std::size_t>(w)] &
                         active_bits_[static_cast<std::size_t>(w)];
    for (; live != 0; live &= live - 1) {
      const int slot = (w - word_base_[r]) * 64 + std::countr_zero(live);
      const auto g = static_cast<std::size_t>(base + slot);
      const long ready = effective_ready(base + slot);
      if (ready > cycle_) continue;
      const int out = vc_out_port_[g];
      if (out != 0 &&
          credits_[static_cast<std::size_t>(vc_downstream_[g])] <= 0)
        continue;
      requests_.push_back({out, slot, slot / vcs, ready});
    }
  }
  if (check_) {
    // The request lists miss nothing: an output without a request has no
    // eligible VC in the full scan either.
    for (int out = 0; out < ports; ++out)
      if (std::none_of(requests_.begin(), requests_.end(),
                       [out](const Request& req) { return req.out == out; }))
        check_arbitration(router, out, arbitration_epoch_, -1, 0);
  }
  if (requests_.empty()) return;

  // Group the requests by output, ascending (insertion sort: the lists are
  // a handful of entries).
  for (std::size_t i = 1; i < requests_.size(); ++i) {
    const Request req = requests_[i];
    std::size_t j = i;
    for (; j > 0 && requests_[j - 1].out > req.out; --j)
      requests_[j] = requests_[j - 1];
    requests_[j] = req;
  }
  const long epoch = ++arbitration_epoch_;
  const bool window = in_measurement_window();
  for (std::size_t first = 0; first < requests_.size();) {
    const int out = requests_[first].out;
    std::size_t last = first;
    while (last < requests_.size() && requests_[last].out == out) ++last;
    int& rr = rr_[static_cast<std::size_t>(port_base_[r] + out)];
    // The winner a full slot scan from rr + 1 would find: round-robin
    // takes the smallest cyclic distance past rr, oldest-first the oldest
    // packet with ties going to the smaller distance. An input port that
    // already won an earlier output this cycle is skipped.
    const Request* chosen = nullptr;
    long chosen_age = std::numeric_limits<long>::max();
    int chosen_dist = slots + 1;
    for (std::size_t k = first; k < last; ++k) {
      const Request& req = requests_[k];
      if (port_grant_epoch_[static_cast<std::size_t>(req.port)] == epoch)
        continue;
      const int dist = req.slot > rr ? req.slot - rr : req.slot - rr + slots;
      long age = 0;
      if (config_.arbiter == Arbiter::kOldestFirst)
        age = packets_[static_cast<std::size_t>(
                           front_flit(base + req.slot).packet)]
                  .created;
      if (age < chosen_age || (age == chosen_age && dist < chosen_dist)) {
        chosen = &req;
        chosen_age = age;
        chosen_dist = dist;
      }
    }
    if (check_)
      check_arbitration(router, out, epoch,
                        chosen != nullptr ? chosen->slot : -1,
                        static_cast<int>(last - first));
    first = last;
    if (chosen == nullptr) continue;

    const int slot = chosen->slot;
    const int p = chosen->port;
    const auto g = static_cast<std::size_t>(base + slot);

    // Grant: switch traversal this cycle, link traversal next.
    Flit f = pop_flit(router, slot);
    port_grant_epoch_[static_cast<std::size_t>(p)] = epoch;
    rr = slot;
    ++grants_total_;

    if (window) {
      ++activity_.buffer_reads;
      ++activity_.crossbar_traversals;
      contention_cycles_ += cycle_ - chosen->ready;
      ++grants_measured_;
    }

    // Return the freed buffer slot upstream.
    credit_returns_.push_back({cycle_ + 1, base + slot});

    if (out == 0) {
      --in_network_flits_;
      ++ejected_flits_total_;
      Packet& pk = packets_[static_cast<std::size_t>(f.packet)];
      if (f.is_head) pk.head_ejected = cycle_ + 1;
      if (f.is_tail) {
        pk.ejected = cycle_ + 1;
        last_ejection_cycle_ = cycle_ + 1;
        if (pk.measured) --outstanding_measured_;
      }
    } else {
      const auto gp = static_cast<std::size_t>(port_base_[r] + out);
      const int out_channel = port_out_channel_[gp];
      if (faults_enabled_)
        XLP_CHECK(!channel_dead_[static_cast<std::size_t>(out_channel)],
                  "granted a flit onto a dead channel");
      f.vc = vc_out_vc_[g];
      if (f.is_head) ++packets_[static_cast<std::size_t>(f.packet)].hops;
      push_channel(out_channel, cycle_ + 1 + port_length_[gp], f);
      --credits_[static_cast<std::size_t>(vc_downstream_[g])];
      if (window) {
        activity_.link_flit_units += port_length_[gp];
        ++channel_flits_measured_[static_cast<std::size_t>(out_channel)];
      }
    }

    if (f.is_tail) release_vc(router, slot);
  }
}

SimStats Simulator::run() {
  const long measure_end = config_.warmup_cycles + config_.measure_cycles;
  const long hard_end = measure_end + config_.drain_cycles;
  const int nodes = net_.node_count();
  const bool recording = config_.series != nullptr;

  std::sort(scheduled_.begin(), scheduled_.end());
  // A VC holds the flits of one packet at a time (it is released when the
  // tail leaves), so its ring never needs more slots than the longest
  // packet of the run. Non-positive sizes fail in create_packet as before.
  int longest = 1;
  if (!injection_.empty())
    for (const latency::PacketClass& pc : latency::PacketMix::kClasses)
      longest = std::max(
          longest, latency::PacketMix::flits_for(pc.bits, net_.flit_bits()));
  for (const auto& [when, src, dst, bits] : scheduled_)
    if (bits > 0)
      longest = std::max(
          longest, latency::PacketMix::flits_for(bits, net_.flit_bits()));
  layout_vc_rings(longest);
  const obs::ProfileScope run_scope("sim.run");
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  for (cycle_ = 0; cycle_ < hard_end; ++cycle_) {
    if (cycle_ >= measure_end && outstanding_measured_ == 0 &&
        next_scheduled_ >= scheduled_.size())
      break;
    if (config_.control != nullptr && config_.control->stop_requested()) {
      status = config_.control->status();
      break;
    }
    // Single branch on the disabled path (bench/micro_core sim_run_8x8
    // gates this at <1% overhead); everything else happens inside.
    if (recording) {
      window_flit_cycles_ += in_network_flits_;
      if (cycle_ > 0 && cycle_ % kSeriesIntervalCycles == 0)
        record_series();
    }
    if (faults_enabled_) {
      process_fault_edges();
      if (draining_for_swap_ && in_network_flits_ == 0 &&
          !injection_in_progress())
        perform_swap();
    }
    {
      // Link/credit traversal: flits and credits finishing their wires.
      const obs::ProfileScope phase("sim.traverse");
      deliver_channel_arrivals();
      deliver_credits();
    }
    {
      const obs::ProfileScope phase("sim.inject");
      while (next_scheduled_ < scheduled_.size() &&
             std::get<0>(scheduled_[next_scheduled_]) <= cycle_) {
        const auto [when, src, dst, bits] = scheduled_[next_scheduled_++];
        create_packet(src, dst, bits);
      }
      for (int node = 0; node < nodes; ++node) {
        if (const auto packet = injection_.draw(node, rng_))
          create_packet(node, packet->dst, packet->bits);
        inject(node);
      }
    }
    {
      // Route computation + VC allocation for every head flit.
      const obs::ProfileScope phase("sim.route_vc_alloc");
      for_each_router_in(unrouted_routers_, [this](int r) { allocate(r); });
    }
    {
      // Switch allocation + the grant's crossbar/link traversal.
      const obs::ProfileScope phase("sim.sw_alloc");
      for_each_router_in(busy_routers_, [this](int r) { arbitrate(r); });
    }
    if (check_) check_invariants();
  }
  if (status == runctl::RunStatus::kCompleted) {
    activity_.measured_cycles = config_.measure_cycles;
  } else {
    // Stopped mid-run: normalize rate statistics over the part of the
    // measurement window that actually elapsed (at least one cycle so the
    // divisions below stay well-defined).
    activity_.measured_cycles = std::max<long>(
        1, std::min(config_.measure_cycles, cycle_ - config_.warmup_cycles));
  }
  SimStats stats = finalize();
  stats.status = status;
  if (config_.trace != nullptr) {
    emit_channel_heatmap(stats);
    config_.trace->emit(
        "sim.done",
        obs::Json::object()
            .set("cycles", cycle_)
            .set("packets_offered", stats.packets_offered)
            .set("packets_finished", stats.packets_finished)
            .set("avg_latency", stats.avg_latency)
            .set("drained", stats.drained)
            .set("status", runctl::to_string(status)));
  }
  return stats;
}

void Simulator::process_fault_edges() {
  bool changed = false;
  while (next_fault_edge_ < fault_edges_.size() &&
         std::get<0>(fault_edges_[next_fault_edge_]) <= cycle_) {
    const auto [when, order, ev] = fault_edges_[next_fault_edge_++];
    const bool is_recovery = order == 0;
    event_active_[ev] = is_recovery ? 0 : 1;
    changed = true;
    if (config_.trace != nullptr)
      config_.trace->emit(
          is_recovery ? "fault.recovered" : "fault.injected",
          obs::Json::object()
              .set("cycle", cycle_)
              .set("faults", config_.faults.events[ev].faults.to_string())
              .set("policy", config_.faults.policy ==
                                     FaultPolicy::kDrainThenSwap
                                 ? "drain_then_swap"
                                 : "drop_retransmit"));
  }
  if (!changed) return;
  active_faults_ = {};
  for (std::size_t e = 0; e < event_active_.size(); ++e) {
    if (!event_active_[e]) continue;
    for (const fault::LinkFault& lf :
         config_.faults.events[e].faults.link_faults())
      active_faults_.add(lf);
    for (const fault::PortFault& pf :
         config_.faults.events[e].faults.port_faults())
      active_faults_.add(pf);
  }
  apply_fault_epoch();
}

void Simulator::apply_fault_epoch() {
  fault::RerouteResult rr =
      fault::reroute(net_.mesh(), active_faults_, net_.hop_weights());
  XLP_CHECK(rr.deadlock_free(),
            "rerouted tables are not deadlock-free: " +
                route::describe_channels(rr.cycle_witness));
  pending_routing_ = std::move(rr.routing);
  pending_unreachable_xy_ = std::move(rr.unreachable_xy);
  pending_unreachable_yx_ = std::move(rr.unreachable_yx);
  if (config_.faults.policy == FaultPolicy::kDrainThenSwap &&
      (in_network_flits_ > 0 || injection_in_progress())) {
    draining_for_swap_ = true;
    return;
  }
  perform_swap();
}

bool Simulator::injection_in_progress() const {
  // A node with a claimed NI VC is mid-packet: flits already routed by the
  // old tables are (or will be) holding VCs downstream, so a table swap
  // must wait for its tail even when no flit is currently in the network.
  for (const NodeState& st : nodes_)
    if (st.active_vc >= 0) return true;
  return false;
}

void Simulator::perform_swap() {
  draining_for_swap_ = false;

  // Dead directed channels under the new fault set.
  const int w = net_.width();
  std::vector<char> dead(net_.channels().size(), 0);
  for (std::size_t ch = 0; ch < net_.channels().size(); ++ch) {
    const auto& channel = net_.channels()[ch];
    const int sx = channel.src_router % w, sy = channel.src_router / w;
    const int dx = channel.dst_router % w, dy = channel.dst_router / w;
    dead[ch] = sy == dy
                   ? active_faults_.kills(fault::Dim::kRow, sy, sx, dx)
                   : active_faults_.kills(fault::Dim::kCol, sx, sy, dy);
  }

  // Victim selection (kDropRetransmit): every in-flight packet whose route
  // under the OLD tables (port_table_ still holds them) crosses a newly
  // dead channel. Conservative — a worm that already cleared the channel
  // is purged and retransmitted too.
  std::vector<long> victim_ids;
  if (config_.faults.policy == FaultPolicy::kDropRetransmit) {
    std::vector<char> victim(packets_.size(), 0);
    for (const Packet& pk : packets_) {
      if (pk.injected < 0 || pk.ejected >= 0 || pk.dropped) continue;
      for (int at = pk.src; at != pk.dst;) {
        const Network::Port& port =
            net_.port(at, output_port(at, pk.dst, pk.y_first));
        if (dead[static_cast<std::size_t>(port.out_channel)]) {
          victim[static_cast<std::size_t>(pk.id)] = 1;
          victim_ids.push_back(pk.id);
          break;
        }
        at = port.peer_router;
      }
    }
    if (!victim_ids.empty()) purge_packets(victim);
  }

  // The swap itself. in_network_flits_ == 0 here under kDrainThenSwap.
  degraded_routing_ = std::move(*pending_routing_);
  pending_routing_.reset();
  routing_ = &*degraded_routing_;
  build_port_table(*routing_);
  channel_dead_ = std::move(dead);
  for (int r = 0; r < net_.node_count(); ++r)
    extra_pipeline_[static_cast<std::size_t>(r)] =
        active_faults_.extra_pipeline_cycles(r);

  // Queued-but-uninjected packets chose their orientation under the old
  // tables; re-check it. A severed orientation flips to the surviving one
  // under O1TURN (no rng draw, to keep the stream stable) or loses the
  // packet under pure DOR.
  for (auto& st : nodes_) {
    if (st.source_queue.empty()) continue;
    std::deque<Flit> kept;
    for (Flit& f : st.source_queue) {
      Packet& pk = packets_[static_cast<std::size_t>(f.packet)];
      if (pk.dropped) continue;
      if (pk.injected >= 0) {  // mid-injection: orientation is committed
        kept.push_back(f);
        continue;
      }
      if (f.is_head &&
          !routing_->reachable(pk.src, pk.dst,
                               pk.y_first ? route::Orientation::kYXFirst
                                          : route::Orientation::kXYFirst)) {
        const bool other_ok =
            config_.routing == RoutingMode::kO1Turn &&
            routing_->reachable(pk.src, pk.dst,
                                pk.y_first ? route::Orientation::kXYFirst
                                           : route::Orientation::kYXFirst);
        if (other_ok) {
          pk.y_first = !pk.y_first;
        } else {
          pk.dropped = true;
          ++packets_lost_;
          if (pk.measured) --outstanding_measured_;
          continue;
        }
      }
      f.y_first = pk.y_first;
      kept.push_back(f);
    }
    st.source_queue = std::move(kept);
  }

  // Retransmissions ride the new tables and keep the original creation
  // timestamp, so measured latency includes the fault penalty.
  long retransmitted_now = 0;
  for (const long id : victim_ids) {
    Packet& old = packets_[static_cast<std::size_t>(id)];
    if (old.retries >= config_.faults.max_retries) {
      ++packets_lost_;
      continue;
    }
    bool y_first = false;
    if (!choose_orientation(*routing_, old.src, old.dst, &y_first)) {
      ++packets_lost_;
      continue;
    }
    Packet pk;
    pk.id = static_cast<long>(packets_.size());
    pk.src = old.src;
    pk.dst = old.dst;
    pk.bits = old.bits;
    pk.flits = old.flits;
    pk.created = old.created;
    pk.measured = old.measured;
    pk.y_first = y_first;
    pk.retries = old.retries + 1;
    old.superseded = true;
    if (pk.measured) ++outstanding_measured_;
    packets_.push_back(pk);
    auto& queue = nodes_[static_cast<std::size_t>(pk.src)].source_queue;
    for (int s = 0; s < pk.flits; ++s) {
      Flit f;
      f.packet = pk.id;
      f.seq = s;
      f.is_head = s == 0;
      f.is_tail = s == pk.flits - 1;
      f.dst = pk.dst;
      f.y_first = y_first;
      queue.push_back(f);
    }
    ++packets_retransmitted_;
    ++retransmitted_now;
  }

  ++reroutes_;
  if (config_.trace != nullptr)
    config_.trace->emit(
        "fault.rerouted",
        obs::Json::object()
            .set("cycle", cycle_)
            .set("faults", active_faults_.to_string())
            .set("unreachable_xy",
                 static_cast<long>(pending_unreachable_xy_.size()))
            .set("unreachable_yx",
                 static_cast<long>(pending_unreachable_yx_.size()))
            .set("packets_dropped", static_cast<long>(victim_ids.size()))
            .set("packets_retransmitted", retransmitted_now));
}

void Simulator::purge_packets(const std::vector<char>& victim) {
  const int nodes = net_.node_count();
  const auto is_victim = [&victim](long id) {
    return id >= 0 && id < static_cast<long>(victim.size()) &&
           victim[static_cast<std::size_t>(id)] != 0;
  };

  // Source queues and the NI-side packet claim.
  for (auto& st : nodes_) {
    if (!st.source_queue.empty()) {
      std::deque<Flit> kept;
      for (const Flit& f : st.source_queue)
        if (!is_victim(f.packet)) kept.push_back(f);
      st.source_queue = std::move(kept);
    }
    if (is_victim(st.active_packet)) {
      st.active_vc = -1;
      st.active_packet = -1;
    }
  }

  // Flits in flight from an NI into its router: the NI credit was consumed
  // at injection; restore it directly.
  const int vcs = config_.vcs_per_port;
  {
    std::deque<std::tuple<long, int, Flit>> kept;
    for (auto& entry : ni_arrivals_) {
      const Flit& f = std::get<2>(entry);
      if (is_victim(f.packet)) {
        ++credits_[static_cast<std::size_t>(
            vc_base_[static_cast<std::size_t>(std::get<1>(entry))] + f.vc)];
        --in_network_flits_;
        ++purged_flits_total_;
      } else {
        kept.push_back(std::move(entry));
      }
    }
    ni_arrivals_ = std::move(kept);
  }

  // Flits on the wire: the upstream credit was decremented at grant time
  // and the flit will never occupy the downstream buffer; restore directly.
  for (std::size_t i = 0; i < busy_channels_.size();) {
    const auto c = static_cast<std::size_t>(busy_channels_[i]);
    int kept = 0;
    for (int k = 0; k < chan_size_[c]; ++k) {
      const auto from = static_cast<std::size_t>(
          chan_off_[c] + (chan_head_[c] + k) % chan_cap_[c]);
      const Flit f = chan_buf_[from];
      if (is_victim(f.packet)) {
        ++credits_[static_cast<std::size_t>(chan_dst_vc_base_[c] + f.vc)];
        --in_network_flits_;
        ++purged_flits_total_;
        continue;
      }
      const auto to = static_cast<std::size_t>(
          chan_off_[c] + (chan_head_[c] + kept++) % chan_cap_[c]);
      chan_arrival_[to] = chan_arrival_[from];
      chan_buf_[to] = f;
    }
    chan_size_[c] = kept;
    if (kept == 0) {
      busy_channels_[i] = busy_channels_.back();
      busy_channels_.pop_back();
    } else {
      ++i;
    }
  }

  // Router input buffers: freed slots return upstream over the normal
  // credit path (one cycle), and any VC reservation a victim held is
  // released — including owned-but-empty VCs claimed via allocation.
  for (int r = 0; r < nodes; ++r) {
    const int slots = net_.port_count(r) * vcs;
    for (int slot = 0; slot < slots; ++slot) {
      const int g = vc_base_[static_cast<std::size_t>(r)] + slot;
      const auto gi = static_cast<std::size_t>(g);
      const int size = buf_size_[gi];
      std::vector<Flit> kept;
      for (int k = 0; k < size; ++k) {
        const Flit f = pop_flit(r, slot);
        if (is_victim(f.packet)) {
          credit_returns_.push_back({cycle_ + 1, g});
          --in_network_flits_;
          ++purged_flits_total_;
        } else {
          kept.push_back(f);
        }
      }
      for (const Flit& f : kept) push_flit(r, slot, f);
      if (vc_owned_[gi] && is_victim(vc_owner_[gi])) release_vc(r, slot);
    }
    // Fronts changed: let the worklists rediscover this router.
    refresh_unrouted(r);
  }

  for (std::size_t id = 0; id < victim.size(); ++id) {
    if (!victim[id]) continue;
    Packet& pk = packets_[id];
    pk.dropped = true;
    ++packets_dropped_;
    if (pk.measured) --outstanding_measured_;
  }
}

void Simulator::check_arbitration(int router, int out, long epoch,
                                  int chosen, int requests) const {
  // Reference arbiter: scan every slot after the round-robin pointer in
  // cyclic order, quadratic in the radix.
  const auto r = static_cast<std::size_t>(router);
  const int vcs = config_.vcs_per_port;
  const int slots = net_.port_count(router) * vcs;
  const int rr = rr_[static_cast<std::size_t>(port_base_[r] + out)];
  int expected = -1;
  int eligible = 0;
  long expected_age = std::numeric_limits<long>::max();
  for (int offset = 1; offset <= slots; ++offset) {
    const int idx = (rr + offset) % slots;
    const auto g = static_cast<std::size_t>(vc_base_[r] + idx);
    const bool active =
        (active_bits_[static_cast<std::size_t>(word_base_[r] + idx / 64)] >>
         (idx % 64)) & 1U;
    if (!active || vc_out_port_[g] != out || buf_size_[g] == 0) continue;
    const Flit& front = front_flit(vc_base_[r] + idx);
    const long ready = vc_bypass_[g]
                           ? front.ready_cycle - (config_.pipeline_stages - 1)
                           : front.ready_cycle;
    if (ready > cycle_) continue;
    if (out != 0 &&
        credits_[static_cast<std::size_t>(vc_downstream_[g])] <= 0)
      continue;
    ++eligible;
    if (port_grant_epoch_[static_cast<std::size_t>(idx / vcs)] == epoch)
      continue;
    const long age =
        config_.arbiter == Arbiter::kRoundRobin
            ? 0
            : packets_[static_cast<std::size_t>(front.packet)].created;
    if (expected < 0 || age < expected_age) {
      expected = idx;
      expected_age = age;
    }
  }
  std::ostringstream os;
  os << "XLP_CHECK_SIM: router " << router << " output " << out
     << " at cycle " << cycle_ << ": request list has " << requests
     << " entries and picks slot " << chosen << "; the full scan finds "
     << eligible << " eligible and picks slot " << expected;
  XLP_CHECK(requests == eligible && chosen == expected, os.str());
}

void Simulator::check_invariants() const {
  const int vcs = config_.vcs_per_port;
  const int nodes = net_.node_count();
  const auto fail = [this](const std::string& what) {
    detail::throw_invariant("XLP_CHECK_SIM", __FILE__, __LINE__,
                            "cycle " + std::to_string(cycle_) + ": " + what);
  };
  // Credits outstanding per input VC: credits at the sender + flits on the
  // wire or NI link toward it + flits in it + credit returns pending.
  std::vector<long> tally(credits_.begin(), credits_.end());
  long buffered_total = 0;
  for (int r = 0; r < nodes; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    long count = 0;
    for (int slot = 0; slot < net_.port_count(r) * vcs; ++slot) {
      const int g = vc_base_[ri] + slot;
      const auto gi = static_cast<std::size_t>(g);
      const auto word = static_cast<std::size_t>(word_base_[ri] + slot / 64);
      const bool nonempty = (nonempty_bits_[word] >> (slot % 64)) & 1U;
      const bool active = (active_bits_[word] >> (slot % 64)) & 1U;
      const int size = buf_size_[gi];
      if (nonempty != (size > 0))
        fail("non-empty mask of router " + std::to_string(r) + " slot " +
             std::to_string(slot) + " disagrees with its buffer");
      if (size > 0 && !vc_owned_[gi])
        fail("unowned VC holds flits at router " + std::to_string(r));
      for (int k = 0; k < size; ++k) {
        const Flit& f = flit_buf_[static_cast<std::size_t>(
            buf_off_[gi] + (buf_head_[gi] + k) % ring_cap_[ri])];
        if (f.packet != vc_owner_[gi])
          fail("flit of packet " + std::to_string(f.packet) +
               " in a VC owned by " + std::to_string(vc_owner_[gi]));
      }
      if (active && (!vc_owned_[gi] || vc_out_port_[gi] < 0))
        fail("routed VC without a reservation at router " +
             std::to_string(r));
      count += size;
      tally[gi] += size;
    }
    if (count != buffered_[ri])
      fail("router " + std::to_string(r) + " counts " +
           std::to_string(buffered_[ri]) + " buffered flits, holds " +
           std::to_string(count));
    const bool listed = (busy_routers_[ri / 64] >> (ri % 64)) & 1U;
    if (listed != (count > 0))
      fail("worklist membership of router " + std::to_string(r) +
           " disagrees with its buffers");
    bool unrouted = false;
    for (int w = word_base_[ri]; w < word_base_[ri + 1]; ++w)
      unrouted |= (nonempty_bits_[static_cast<std::size_t>(w)] &
                   ~active_bits_[static_cast<std::size_t>(w)]) != 0;
    if (unrouted != (((unrouted_routers_[ri / 64] >> (ri % 64)) & 1U) != 0))
      fail("unrouted-worklist membership of router " + std::to_string(r) +
           " disagrees with its VCs");
    buffered_total += count;
  }
  long wire_total = 0;
  std::vector<char> busy(chan_size_.size(), 0);
  for (const int ch : busy_channels_) busy[static_cast<std::size_t>(ch)] = 1;
  for (std::size_t c = 0; c < chan_size_.size(); ++c) {
    if ((busy[c] != 0) != (chan_size_[c] > 0))
      fail("busy-channel list disagrees with channel " + std::to_string(c));
    for (int k = 0; k < chan_size_[c]; ++k) {
      const Flit& f = chan_buf_[static_cast<std::size_t>(
          chan_off_[c] + (chan_head_[c] + k) % chan_cap_[c])];
      ++tally[static_cast<std::size_t>(chan_dst_vc_base_[c] + f.vc)];
    }
    wire_total += chan_size_[c];
  }
  for (const auto& [when, node, f] : ni_arrivals_)
    ++tally[static_cast<std::size_t>(
        vc_base_[static_cast<std::size_t>(node)] + f.vc)];
  for (const auto& [when, g] : credit_returns_)
    ++tally[static_cast<std::size_t>(g)];
  const long ni_total = static_cast<long>(ni_arrivals_.size());
  if (in_network_flits_ != buffered_total + wire_total + ni_total)
    fail("in-network flit count " + std::to_string(in_network_flits_) +
         " != buffered " + std::to_string(buffered_total) + " + wire " +
         std::to_string(wire_total) + " + NI " + std::to_string(ni_total));
  if (injected_flits_total_ - ejected_flits_total_ - purged_flits_total_ !=
      in_network_flits_)
    fail("flit conservation: injected " +
         std::to_string(injected_flits_total_) + " - ejected " +
         std::to_string(ejected_flits_total_) + " - purged " +
         std::to_string(purged_flits_total_) + " != in network " +
         std::to_string(in_network_flits_));
  for (int r = 0; r < nodes; ++r)
    for (int g = vc_base_[static_cast<std::size_t>(r)];
         g < vc_base_[static_cast<std::size_t>(r) + 1]; ++g)
      if (tally[static_cast<std::size_t>(g)] !=
          vc_depth_[static_cast<std::size_t>(r)])
        fail("credit conservation: input VC " +
             std::to_string(g - vc_base_[static_cast<std::size_t>(r)]) +
             " of router " + std::to_string(r) + " accounts for " +
             std::to_string(tally[static_cast<std::size_t>(g)]) +
             " slots, has " +
             std::to_string(vc_depth_[static_cast<std::size_t>(r)]));
}

void Simulator::record_series() {
  obs::SeriesRecorder& rec = *config_.series;
  const double x = static_cast<double>(cycle_);
  rec.append("sim.injected_flits", x,
             static_cast<double>(injected_flits_total_ - window_injected_));
  rec.append("sim.ejected_flits", x,
             static_cast<double>(ejected_flits_total_ - window_ejected_));
  rec.append("sim.in_network_flits", x,
             static_cast<double>(in_network_flits_));

  // Occupancy from the incremental per-router counts and VC masks.
  long active_routers = 0;
  for (const int count : buffered_)
    if (count > 0) ++active_routers;
  long occupied_vcs = 0;
  for (const std::uint64_t word : nonempty_bits_)
    occupied_vcs += std::popcount(word);
  const long total_vcs = vc_base_.back();
  rec.append("sim.active_routers", x, static_cast<double>(active_routers));
  rec.append("sim.vc_occupancy", x,
             total_vcs > 0 ? static_cast<double>(occupied_vcs) /
                                 static_cast<double>(total_vcs)
                           : 0.0);

  // Fraction of flit-cycles in the window that did not advance: a flit
  // sitting in the network for a cycle either won a switch grant or
  // stalled (pipeline latency counts as stall here, so zero-load runs
  // report the pipeline floor, not 0).
  const long grants = grants_total_ - window_grants_;
  const double stalled =
      window_flit_cycles_ > 0
          ? 1.0 - static_cast<double>(grants) /
                      static_cast<double>(window_flit_cycles_)
          : 0.0;
  rec.append("sim.stall_fraction", x, std::clamp(stalled, 0.0, 1.0));

  window_injected_ = injected_flits_total_;
  window_ejected_ = ejected_flits_total_;
  window_grants_ = grants_total_;
  window_flit_cycles_ = 0;
}

void Simulator::emit_channel_heatmap(const SimStats& stats) const {
  obs::Json channels = obs::Json::array();
  const double cycles = std::max<double>(
      1.0, static_cast<double>(stats.activity.measured_cycles));
  for (std::size_t ch = 0; ch < stats.channel_flits.size(); ++ch) {
    const auto& channel = net_.channels()[ch];
    channels.push(
        obs::Json::object()
            .set("src", channel.src_router)
            .set("dst", channel.dst_router)
            .set("length", channel.length)
            .set("flits", stats.channel_flits[ch])
            .set("utilization",
                 static_cast<double>(stats.channel_flits[ch]) / cycles));
  }
  config_.trace->emit("sim.channel_utilization",
                      obs::Json::object()
                          .set("measured_cycles",
                               stats.activity.measured_cycles)
                          .set("flit_bits", net_.flit_bits())
                          .set("width", net_.width())
                          .set("height", net_.height())
                          .set("channels", std::move(channels)));
}

SimStats Simulator::finalize() const {
  SimStats stats;
  stats.activity = activity_;
  stats.channel_flits = channel_flits_measured_;
  stats.last_ejection_cycle = last_ejection_cycle_;
  stats.reroutes = reroutes_;
  stats.packets_dropped = packets_dropped_;
  stats.packets_retransmitted = packets_retransmitted_;
  stats.packets_lost = packets_lost_;
  stats.packets_unroutable = packets_unroutable_;

  const long measure_start = config_.warmup_cycles;
  const long measure_end = measure_start + config_.measure_cycles;
  const int nodes = net_.node_count();

  double latency_sum = 0.0;
  double head_latency_sum = 0.0;
  long hops_sum = 0;
  std::vector<double> latencies;
  for (const Packet& pk : packets_) {
    if (pk.superseded) continue;  // its retransmitted copy carries the stats
    if (pk.ejected >= measure_start && pk.ejected < measure_end)
      ++stats.packets_ejected_in_window;
    if (!pk.measured) continue;
    ++stats.packets_offered;
    if (pk.ejected < 0) continue;
    ++stats.packets_finished;
    const auto total = static_cast<double>(pk.ejected - pk.created);
    latency_sum += total;
    head_latency_sum += static_cast<double>(pk.head_ejected - pk.created);
    hops_sum += pk.hops;
    latencies.push_back(total);
    stats.max_latency = std::max(stats.max_latency, total);
  }
  if (stats.packets_finished > 0) {
    stats.avg_latency = latency_sum / stats.packets_finished;
    stats.avg_head_latency = head_latency_sum / stats.packets_finished;
    stats.avg_hops =
        static_cast<double>(hops_sum) / stats.packets_finished;

    double sq = 0.0;
    for (const double x : latencies) {
      const double d = x - stats.avg_latency;
      sq += d * d;
    }
    stats.stddev_latency = std::sqrt(sq / latencies.size());

    // Percentiles through the shared log-bucketed histogram. Latencies are
    // integral cycle counts, so sizing the exact (unit-bucket) range to
    // cover the observed max reproduces the historical sort-based
    // sorted[floor(p * (n - 1))] values byte-for-byte — the histogram's
    // nearest-rank rule is the same formula. (Beyond 2^22 cycles the
    // exact range caps out and quantiles become log-bucketed; no
    // simulation this code runs gets near that.)
    int hist_bits = 1;
    while (hist_bits < 22 &&
           static_cast<double>(1L << hist_bits) <= stats.max_latency)
      ++hist_bits;
    obs::Histogram latency_hist(hist_bits);
    for (const double x : latencies) latency_hist.record(static_cast<long>(x));
    stats.p50_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.50));
    stats.p95_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.95));
    stats.p99_latency =
        static_cast<double>(latency_hist.value_at_quantile(0.99));

    // Batch means over the measurement window for a confidence interval
    // (consecutive batches damp the autocorrelation of queueing systems).
    constexpr int kBatches = 10;
    // activity_.measured_cycles == config_.measure_cycles on a completed
    // run; it is the (shorter) elapsed window when the run was stopped.
    const long batch_span =
        std::max<long>(1, activity_.measured_cycles / kBatches);
    double batch_sum[kBatches] = {};
    long batch_count[kBatches] = {};
    for (const Packet& pk : packets_) {
      if (!pk.measured || pk.ejected < 0) continue;
      const long idx64 = (pk.created - measure_start) / batch_span;
      const int b = static_cast<int>(std::min<long>(idx64, kBatches - 1));
      batch_sum[b] += static_cast<double>(pk.ejected - pk.created);
      ++batch_count[b];
    }
    double means[kBatches];
    int k = 0;
    for (int b = 0; b < kBatches; ++b)
      if (batch_count[b] > 0) means[k++] = batch_sum[b] / batch_count[b];
    if (k >= 2) {
      double mean_of_means = 0.0;
      for (int b = 0; b < k; ++b) mean_of_means += means[b];
      mean_of_means /= k;
      double var = 0.0;
      for (int b = 0; b < k; ++b) {
        const double d = means[b] - mean_of_means;
        var += d * d;
      }
      var /= (k - 1);
      // t-quantile for small k; 2.262 is t(0.975, 9), a good constant for
      // ~10 batches.
      stats.ci95_latency = 2.262 * std::sqrt(var / k);
    }
  }
  stats.drained = stats.packets_finished == stats.packets_offered;

  const double node_cycles =
      static_cast<double>(activity_.measured_cycles) * nodes;
  stats.throughput_packets_per_node_cycle =
      static_cast<double>(stats.packets_ejected_in_window) / node_cycles;
  stats.offered_packets_per_node_cycle =
      static_cast<double>(stats.packets_offered) / node_cycles;
  if (grants_measured_ > 0)
    stats.avg_contention_per_hop =
        static_cast<double>(contention_cycles_) / grants_measured_;
  return stats;
}

}  // namespace xlp::sim
