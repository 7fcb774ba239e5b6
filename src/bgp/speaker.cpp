#include "bgp/speaker.h"

#include <optional>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace dbgp::bgp {

namespace {
constexpr auto kLog = "bgp.speaker";

// Registry mirrors of SpeakerStats, aggregated across every baseline BGP
// speaker in the process (the per-speaker struct stays authoritative).
struct BgpMetrics {
  telemetry::Counter* updates_received;
  telemetry::Counter* prefixes_processed;
  telemetry::Counter* updates_sent;
  telemetry::Counter* routes_rejected_by_policy;
  telemetry::Counter* routes_rejected_by_loop;
  telemetry::Counter* decode_errors;
  telemetry::Counter* refreshes_received;

  static BgpMetrics& get() {
    static BgpMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return BgpMetrics{&reg.counter("bgp.speaker.updates_received"),
                        &reg.counter("bgp.speaker.prefixes_processed"),
                        &reg.counter("bgp.speaker.updates_sent"),
                        &reg.counter("bgp.speaker.routes_rejected_by_policy"),
                        &reg.counter("bgp.speaker.routes_rejected_by_loop"),
                        &reg.counter("bgp.speaker.decode_errors"),
                        &reg.counter("bgp.speaker.refreshes_received")};
    }();
    return m;
  }
};
}  // namespace

BgpSpeaker::BgpSpeaker(Config config)
    : config_(config),
      arena_(std::make_unique<util::RibArena>()),
      interner_(std::make_unique<AttrInterner>()),
      adj_rib_in_(arena_->resource()),
      loc_rib_(arena_->resource()),
      adj_rib_out_(arena_->resource()) {}

PeerId BgpSpeaker::add_peer(AsNumber peer_as, PolicyChain import_policy,
                            PolicyChain export_policy) {
  Peer peer;
  peer.asn = peer_as;
  peer.fsm = SessionFsm(config_.hold_time);
  peer.import_policy = std::move(import_policy);
  peer.export_policy = std::move(export_policy);
  peers_.push_back(std::move(peer));
  peer_metrics_.push_back(telemetry::PeerMetrics::create("bgp.peer", config_.asn, peer_as));
  return static_cast<PeerId>(peers_.size() - 1);
}

Message BgpSpeaker::make_open() const {
  OpenMessage open;
  open.asn = config_.asn;
  open.hold_time = static_cast<std::uint16_t>(config_.hold_time);
  open.router_id = config_.router_id;
  return open;
}

std::vector<Outgoing> BgpSpeaker::start_peer(PeerId peer, double now) {
  std::vector<Outgoing> out;
  Peer& p = peers_.at(peer);
  p.fsm.handle(FsmEvent::kManualStart, now);
  if (p.fsm.handle(FsmEvent::kTcpConnected, now) == FsmAction::kSendOpen) {
    out.push_back({peer, encode_message(make_open())});
  }
  return out;
}

std::vector<Outgoing> BgpSpeaker::stop_peer(PeerId peer, double now) {
  std::vector<Outgoing> out;
  Peer& p = peers_.at(peer);
  const bool was_up = p.fsm.established();
  if (p.fsm.handle(FsmEvent::kManualStop, now) == FsmAction::kSessionDown) {
    // RFC 4271: administrative shutdown sends a Cease NOTIFICATION.
    out.push_back({peer, encode_message(Message{NotificationMessage{6 /* Cease */, 0, {}}})});
    session_down(peer, out, now);
  } else if (was_up) {
    session_down(peer, out, now);
  }
  return out;
}

bool BgpSpeaker::session_established(PeerId peer) const {
  return peers_.at(peer).fsm.established();
}

std::vector<Outgoing> BgpSpeaker::handle_bytes(PeerId from, std::span<const std::uint8_t> data,
                                               double now) {
  try {
    return handle_message(from, decode_message(data), now);
  } catch (const util::DecodeError& e) {
    ++stats_.decode_errors;
    BgpMetrics::get().decode_errors->inc();
    peer_metrics_[from].rejects->inc();
    DBGP_LOG(util::LogLevel::kWarn, kLog) << "decode error from peer " << from << ": "
                                          << e.what();
    // RFC 4271: message error -> NOTIFICATION + close.
    std::vector<Outgoing> out;
    NotificationMessage notif{1 /* Message Header Error */, 0, {}};
    out.push_back({from, encode_message(Message{notif})});
    Peer& p = peers_.at(from);
    if (p.fsm.handle(FsmEvent::kManualStop, now) == FsmAction::kSessionDown) {
      session_down(from, out, now);
    }
    return out;
  }
}

std::vector<Outgoing> BgpSpeaker::handle_message(PeerId from, const Message& m, double now) {
  std::vector<Outgoing> out;
  Peer& p = peers_.at(from);
  switch (message_type(m)) {
    case MessageType::kOpen: {
      const auto& open = std::get<OpenMessage>(m);
      p.fsm.negotiate_hold_time(open.hold_time);
      const FsmAction action = p.fsm.handle(FsmEvent::kOpenReceived, now);
      if (action == FsmAction::kSendKeepAlive) {
        out.push_back({from, encode_message(Message{KeepAliveMessage{}})});
      } else if (action == FsmAction::kSendOpen) {
        // Passive side: answer with our OPEN, then confirm with KEEPALIVE.
        out.push_back({from, encode_message(make_open())});
        out.push_back({from, encode_message(Message{KeepAliveMessage{}})});
      } else if (action == FsmAction::kSendNotificationAndDrop) {
        out.push_back({from, encode_message(Message{NotificationMessage{6, 0, {}}})});
      }
      break;
    }
    case MessageType::kKeepAlive: {
      const FsmAction action = p.fsm.handle(FsmEvent::kKeepAliveReceived, now);
      if (action == FsmAction::kSessionUp) {
        DBGP_LOG(util::LogLevel::kInfo, kLog)
            << "AS" << config_.asn << ": session up with peer " << from;
        send_full_table(from, out, now);
      }
      break;
    }
    case MessageType::kUpdate: {
      const FsmAction action = p.fsm.handle(FsmEvent::kUpdateReceived, now);
      if (action == FsmAction::kSendNotificationAndDrop) {
        out.push_back(
            {from, encode_message(Message{NotificationMessage{5 /* FSM error */, 0, {}}})});
        break;
      }
      auto more = process_update(from, std::get<UpdateMessage>(m), now);
      out.insert(out.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
      break;
    }
    case MessageType::kNotification: {
      if (p.fsm.handle(FsmEvent::kNotificationReceived, now) == FsmAction::kSessionDown) {
        session_down(from, out, now);
      }
      break;
    }
    case MessageType::kRouteRefresh: {
      // RFC 2918: resend our Adj-RIB-Out toward this peer from scratch.
      if (!p.fsm.established()) {
        out.push_back(
            {from, encode_message(Message{NotificationMessage{5 /* FSM error */, 0, {}}})});
        break;
      }
      ++stats_.refreshes_received;
      BgpMetrics::get().refreshes_received->inc();
      adj_rib_out_.clear_peer(from);
      p.pending.clear();
      send_full_table(from, out, now);
      break;
    }
  }
  return out;
}

std::vector<Outgoing> BgpSpeaker::request_refresh(PeerId peer, double /*now*/) {
  std::vector<Outgoing> out;
  if (peers_.at(peer).fsm.established()) {
    out.push_back({peer, encode_message(Message{RouteRefreshMessage{}})});
  }
  return out;
}

bool BgpSpeaker::stage_withdraw(PeerId from, const net::Prefix& prefix) {
  ++stats_.prefixes_processed;
  BgpMetrics::get().prefixes_processed->inc();
  peer_metrics_[from].withdraws_in->inc();
  return adj_rib_in_.remove(from, prefix);
}

bool BgpSpeaker::stage_nlri(PeerId from, const net::Prefix& prefix,
                            const PathAttributes& update_attrs) {
  ++stats_.prefixes_processed;
  BgpMetrics::get().prefixes_processed->inc();
  Peer& p = peers_.at(from);
  AttrBuilder builder(update_attrs);
  // RFC 4271 loop detection: our own AS in the path means discard.
  if (builder.attrs().as_path.contains(config_.asn)) {
    ++stats_.routes_rejected_by_loop;
    BgpMetrics::get().routes_rejected_by_loop->inc();
    peer_metrics_[from].rejects->inc();
    return adj_rib_in_.remove(from, prefix);
  }
  if (!p.import_policy.apply(prefix, builder.attrs(), config_.asn)) {
    ++stats_.routes_rejected_by_policy;
    BgpMetrics::get().routes_rejected_by_policy->inc();
    peer_metrics_[from].rejects->inc();
    // Policy reject acts as an implicit withdraw of the previous route.
    return adj_rib_in_.remove(from, prefix);
  }
  Route route;
  route.prefix = prefix;
  route.attrs = std::move(builder).intern(*interner_);
  route.from_peer = from;
  route.neighbor_as = p.asn;
  route.sequence = ++sequence_;
  adj_rib_in_.upsert(std::move(route));
  return true;
}

std::vector<Outgoing> BgpSpeaker::process_update(PeerId from, const UpdateMessage& update,
                                                 double now) {
  std::vector<Outgoing> out;
  ++stats_.updates_received;
  BgpMetrics::get().updates_received->inc();
  peer_metrics_[from].updates_in->inc();

  for (const auto& prefix : update.withdrawn) {
    if (stage_withdraw(from, prefix)) run_decision(prefix, out, now);
  }

  if (!update.attributes) return out;
  for (const auto& prefix : update.nlri) {
    if (stage_nlri(from, prefix, *update.attributes)) run_decision(prefix, out, now);
  }
  return out;
}

void BgpSpeaker::run_decision(const net::Prefix& prefix, std::vector<Outgoing>& out,
                              double now) {
  // Locally originated routes always win (they model LOCAL_PREF infinity /
  // the IGP route to our own prefix).
  RouteView best;
  Route local_route;
  auto origin_it = originated_.find(prefix);
  if (origin_it != originated_.end()) {
    local_route.prefix = prefix;
    local_route.attrs = origin_it->second;
    local_route.from_peer = kInvalidPeer;
    best = RouteView{&local_route};
  } else {
    best = select_best(adj_rib_in_.candidates(prefix));
  }

  if (!best) {
    // Prefix lost entirely: withdraw everywhere it was advertised.
    if (loc_rib_.remove(prefix)) {
      for (PeerId peer = 0; peer < peers_.size(); ++peer) {
        if (!peers_[peer].fsm.established()) continue;
        if (adj_rib_out_.withdraw(peer, prefix)) {
          queue_delta(peer, prefix, std::nullopt, out, now);
        }
      }
    }
    return;
  }

  if (!loc_rib_.install(*best)) return;  // unchanged

  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    if (!peers_[peer].fsm.established()) continue;
    if (peer == best->from_peer) {
      // Split horizon: never advertise a route back to the peer it came
      // from; withdraw anything previously sent.
      if (adj_rib_out_.withdraw(peer, prefix)) {
        queue_delta(peer, prefix, std::nullopt, out, now);
      }
      continue;
    }
    AttrHandle export_attrs = export_route(peer, *best);
    if (!export_attrs) {
      if (adj_rib_out_.withdraw(peer, prefix)) {
        queue_delta(peer, prefix, std::nullopt, out, now);
      }
      continue;
    }
    if (adj_rib_out_.advertise(peer, prefix, export_attrs)) {
      queue_delta(peer, prefix, std::move(export_attrs), out, now);
    }
  }
}

AttrHandle BgpSpeaker::export_route(PeerId to, const Route& route) const {
  AttrBuilder builder(*route.attrs);
  PathAttributes& attrs = builder.attrs();
  // eBGP export: prepend own AS, set next-hop-self, strip LOCAL_PREF and MED
  // (MED is non-transitive beyond the neighboring AS).
  attrs.as_path.prepend(config_.asn);
  attrs.next_hop = config_.next_hop;
  attrs.local_pref.reset();
  if (route.from_peer != kInvalidPeer) attrs.med.reset();
  if (!peers_.at(to).export_policy.apply(route.prefix, attrs, config_.asn)) return {};
  return std::move(builder).intern(*interner_);
}

void BgpSpeaker::queue_delta(PeerId to, const net::Prefix& prefix,
                             std::optional<AttrHandle> attrs, std::vector<Outgoing>& out,
                             double now) {
  Peer& p = peers_.at(to);
  if (config_.mrai <= 0.0) {
    UpdateMessage update;
    if (attrs) {
      update.attributes = **attrs;  // canonical -> wire copy at the boundary
      update.nlri.push_back(prefix);
    } else {
      update.withdrawn.push_back(prefix);
    }
    emit_update(to, update, out);
    return;
  }
  // MRAI pacing: coalesce (latest state per prefix wins) and flush when the
  // interval allows.
  p.pending[prefix] = std::move(attrs);
  peer_metrics_[to].adj_out_depth->set(static_cast<std::int64_t>(p.pending.size()));
  if (now >= p.next_send) flush_pending(to, out, now);
}

void BgpSpeaker::flush_pending(PeerId to, std::vector<Outgoing>& out, double now) {
  Peer& p = peers_.at(to);
  if (p.pending.empty()) return;
  // One UPDATE carries all withdrawals; announces are grouped per distinct
  // attribute set (here: one message per prefix for simplicity, except the
  // shared withdrawal block).
  UpdateMessage withdraws;
  for (auto& [prefix, attrs] : p.pending) {
    if (attrs) {
      UpdateMessage update;
      update.attributes = **attrs;  // canonical -> wire copy at the boundary
      update.nlri.push_back(prefix);
      emit_update(to, update, out);
    } else {
      withdraws.withdrawn.push_back(prefix);
    }
  }
  if (!withdraws.withdrawn.empty()) emit_update(to, withdraws, out);
  p.pending.clear();
  peer_metrics_[to].adj_out_depth->set(0);
  p.next_send = now + config_.mrai;
}

void BgpSpeaker::emit_update(PeerId to, const UpdateMessage& update, std::vector<Outgoing>& out) {
  ++stats_.updates_sent;
  BgpMetrics::get().updates_sent->inc();
  peer_metrics_[to].updates_out->inc();
  if (!update.withdrawn.empty()) {
    peer_metrics_[to].withdraws_out->inc(update.withdrawn.size());
  }
  out.push_back({to, encode_message(Message{update})});
}

void BgpSpeaker::send_full_table(PeerId to, std::vector<Outgoing>& out, double now) {
  for (const auto& [prefix, route] : loc_rib_.routes()) {
    if (route.from_peer == to) continue;
    AttrHandle export_attrs = export_route(to, route);
    if (!export_attrs) continue;
    if (adj_rib_out_.advertise(to, prefix, export_attrs)) {
      queue_delta(to, prefix, std::move(export_attrs), out, now);
    }
  }
}

void BgpSpeaker::session_down(PeerId peer, std::vector<Outgoing>& out, double now) {
  DBGP_LOG(util::LogLevel::kInfo, kLog)
      << "AS" << config_.asn << ": session down with peer " << peer;
  adj_rib_out_.clear_peer(peer);
  peers_.at(peer).pending.clear();
  peer_metrics_[peer].flaps->inc();
  peer_metrics_[peer].adj_out_depth->set(0);
  for (const auto& prefix : adj_rib_in_.remove_peer(peer)) {
    run_decision(prefix, out, now);
  }
}

std::vector<Outgoing> BgpSpeaker::tick(double now) {
  std::vector<Outgoing> out;
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    const FsmAction action = peers_[peer].fsm.tick(now);
    if (action == FsmAction::kSendKeepAlive) {
      out.push_back({peer, encode_message(Message{KeepAliveMessage{}})});
    } else if (action == FsmAction::kSessionDown) {
      NotificationMessage notif{4 /* Hold Timer Expired */, 0, {}};
      out.push_back({peer, encode_message(Message{notif})});
      session_down(peer, out, now);
    }
    // Flush MRAI-paced deltas whose interval has elapsed.
    if (peers_[peer].fsm.established() && now >= peers_[peer].next_send) {
      flush_pending(peer, out, now);
    }
  }
  return out;
}

std::vector<Outgoing> BgpSpeaker::originate(const net::Prefix& prefix, double now) {
  AttrBuilder builder;
  builder.attrs().origin = Origin::kIgp;
  builder.attrs().next_hop = config_.next_hop;
  originated_[prefix] = std::move(builder).intern(*interner_);
  std::vector<Outgoing> out;
  run_decision(prefix, out, now);
  return out;
}

std::vector<Outgoing> BgpSpeaker::withdraw_origin(const net::Prefix& prefix, double now) {
  std::vector<Outgoing> out;
  if (originated_.erase(prefix) > 0) run_decision(prefix, out, now);
  return out;
}

}  // namespace dbgp::bgp
