// BGPSec-like secure path attestations as a D-BGP critical fix.
//
// Each upgraded AS appends an *attestation* binding (prefix, path so far,
// intended next AS) under its key. Receivers verify the chain: a valid,
// unbroken chain from the origin proves nobody redirected or shortened the
// path (prefix-hijack defense).
//
// Substitution note (DESIGN.md): real BGPSec uses ECDSA over an RPKI key
// hierarchy. We model signatures with a keyed 64-bit MAC (SplitMix-based)
// issued by an in-process AttestationAuthority. This preserves everything
// the evaluation exercises — chain construction, per-hop verification,
// detection of forged/reordered/truncated chains — without a crypto library.
//
// The paper is explicit (Section 3.5) that D-BGP *cannot* accelerate
// incremental benefits for protocols needing an unbroken chain: a single
// gulf AS on the path breaks the chain regardless of pass-through. The
// module and its tests demonstrate exactly that behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/decision_module.h"

namespace dbgp::protocols {

// One hop's attestation.
struct Attestation {
  bgp::AsNumber signer = 0;
  bgp::AsNumber target = 0;  // the AS this advertisement was sent to
  std::uint64_t mac = 0;

  bool operator==(const Attestation&) const = default;
};

std::vector<std::uint8_t> encode_attestations(const std::vector<Attestation>& chain);
std::vector<Attestation> decode_attestations(std::span<const std::uint8_t> payload);

// Issues and verifies per-AS keys. Stands in for the RPKI.
class AttestationAuthority {
 public:
  explicit AttestationAuthority(std::uint64_t seed = 0xb67b6531u) : seed_(seed) {}

  // Deterministic per-AS key (the "private key" in the real system; a
  // shared-key MAC here — see the substitution note above).
  std::uint64_t key_for(bgp::AsNumber asn) const noexcept;

  // MAC over (prefix, path-so-far digest, signer, target).
  std::uint64_t sign(bgp::AsNumber signer, bgp::AsNumber target, const net::Prefix& prefix,
                     std::uint64_t path_digest) const noexcept;

  // Verifies a full chain for `prefix` as received by `receiver`, given the
  // AS-level path extracted from the IA path vector (origin last).
  bool verify_chain(const std::vector<Attestation>& chain, const net::Prefix& prefix,
                    bgp::AsNumber receiver) const noexcept;

  // Digest of a partial chain (used as the "path so far" binding).
  static std::uint64_t chain_digest(const std::vector<Attestation>& chain) noexcept;

 private:
  std::uint64_t seed_;
};

class BgpSecModule : public core::DecisionModule {
 public:
  struct Config {
    bgp::AsNumber asn = 0;
    ia::IslandId island;
    // Drop the attestation before exporting to peers outside the island
    // (Section 3.2: "island K could optionally drop the attestation before
    // sending it to insecure islands").
    bool drop_toward_insecure = false;
  };

  BgpSecModule(Config config, const AttestationAuthority* authority)
      : config_(config), authority_(authority) {}

  ia::ProtocolId protocol() const noexcept override { return ia::kProtoBgpSec; }
  std::string name() const override { return "bgpsec"; }

  // Verifies the attestation chain; records validity in the route.
  bool import_filter(core::IaRoute& route) override;

  // Valid chain beats broken/absent chain; ties fall back to BGP ordering.
  bool better(const core::IaRoute& a, const core::IaRoute& b) const override;

  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;
  void annotate_origin(ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;
  // Attestations are signed toward the receiving AS.
  bool peer_bound_export() const noexcept override { return true; }

  // True if the route carries a chain that verified at import.
  bool chain_valid(const core::IaRoute& route) const noexcept;

 private:
  Config config_;
  const AttestationAuthority* authority_;
};

}  // namespace dbgp::protocols
