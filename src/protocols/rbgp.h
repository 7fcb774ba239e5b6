// R-BGP (Kushman, Kandula, Katabi, Maggs — NSDI'07) as a D-BGP critical
// fix: advertise *backup paths* alongside the primary so ASes stay connected
// during reconvergence ("staying connected in a connected world").
//
// Under D-BGP the backup travels as a path descriptor. A gulf cannot use it
// (it does not understand R-BGP), but it passes it through, so islands of
// R-BGP adopters separated by gulfs still learn each other's failover
// paths — the deployment the paper's CF scenario enables.
//
// Note the Section 3.5 caveat: R-BGP is a two-way protocol in its full form
// (downstream ASes confirm backup activation); that leg must run
// out-of-band of D-BGP, like Wiser's cost exchange. This implementation
// carries the one-way part (backup dissemination) in-band.
#pragma once

#include <map>

#include "core/decision_module.h"

namespace dbgp::protocols {

class RBgpModule : public core::DecisionModule {
 public:
  struct Config {
    ia::IslandId island;
  };

  explicit RBgpModule(Config config) : config_(config) {}

  ia::ProtocolId protocol() const noexcept override { return ia::kProtoRBgp; }
  std::string name() const override { return "r-bgp"; }

  // Caches each candidate's path so annotate_export can pick a backup that
  // is maximally disjoint from the primary.
  bool import_filter(core::IaRoute& route) override;

  // Primary selection is BGP's (R-BGP does not change preference).
  bool better(const core::IaRoute& a, const core::IaRoute& b) const override;

  // Attaches the best disjoint alternative as the backup-path descriptor.
  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;
  // The backup skips paths through the receiving AS.
  bool peer_bound_export() const noexcept override { return true; }

  void on_best_changed(const net::Prefix& prefix, const core::IaRoute* best) override;

  // Reads the backup path carried on a route; empty vector if none.
  static ia::IaPathVector backup_path(const core::IaRoute& route);
  static ia::IaPathVector backup_path(const ia::IntegratedAdvertisement& ia);

 private:
  Config config_;
  // prefix -> (peer -> candidate path vector): the alternatives this AS has
  // heard, from which backups are chosen.
  std::map<net::Prefix, std::map<bgp::PeerId, ia::IaPathVector>> alternatives_;
};

}  // namespace dbgp::protocols
