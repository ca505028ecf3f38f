// Internet SIP provider: registrar + stateless domain proxy.
//
// Plays the role of the paper's providers (siphoc.ch, netvoip.ch,
// polyphone.ethz.ch): stores REGISTER bindings for its domain and forwards
// requests addressed to its users to their registered contact.
//
// Bindings live in the ShardedBindingStore (sip/registrar_store.hpp:
// hash-placed shards, each behind a reader-writer lock with its own expiry
// wheel) at its default 8 shards. set_p2p_resolver() replaces central storage
// entirely with a Chord-lite ring among gateway nodes
// (sip/p2p_resolver.hpp) -- REGISTER publishes into the ring, INVITE
// resolution hops through it.
//
// The `require_outbound_proxy` switch reproduces the polyphone.ethz.ch
// interoperability failure of paper section 3.2: such a provider only
// accepts requests relayed through its own outbound proxy; direct requests
// are rejected with 403. Since SIPHoc overwrites the client's
// outbound-proxy setting with localhost, the SIPHoc proxy can only deduce
// the provider's address from the URI domain via DNS -- which reaches the
// registrar directly and fails. ("This is an open issue which we plan to
// address in the near future.")
#pragma once

#include <map>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "sim/simulator.hpp"
#include "sip/registrar_store.hpp"
#include "sip/transport.hpp"

namespace siphoc::sip {

class P2pResolver;

struct RegistrarConfig {
  std::string domain;  // "voicehoc.ch"
  std::uint16_t port = 5060;
  bool require_outbound_proxy = false;
  net::Address trusted_proxy;  // only source accepted when required
  Duration max_expires = seconds(3600);
  /// Digest authentication (RFC 3261 §22): REGISTER is challenged with 401
  /// unless it carries a valid Authorization for a known account.
  bool require_auth = false;
  std::map<std::string, std::string> credentials;  // username -> password
  /// Digest-nonce hygiene: issued nonces older than `nonce_lifetime` are
  /// purged by the maintenance timer, and the table never exceeds
  /// `nonce_cap` entries (oldest evicted first).
  Duration nonce_lifetime = minutes(5);
  std::size_t nonce_cap = 4096;
  /// Cadence of the maintenance tick (nonce purge + expiry-wheel turn).
  Duration maintenance_interval = seconds(1);
};

class Registrar {
 public:
  Registrar(net::Host& host, RegistrarConfig config);
  ~Registrar();

  using Binding = ContactBinding;

  /// Serverless resolution backend: when set, REGISTER publishes into the
  /// Chord-lite ring through this node and request forwarding resolves
  /// asynchronously over the ring; the local store stays empty. Wire up
  /// before traffic starts (scenario::Testbed does).
  void set_p2p_resolver(P2pResolver* p2p) { p2p_ = p2p; }
  bool p2p_mode() const { return p2p_ != nullptr; }

  std::optional<Binding> binding(const std::string& aor) const;
  std::size_t binding_count() const;
  const RegistrarConfig& config() const { return config_; }
  /// Outstanding digest nonces (bounded; see nonce_cap).
  std::size_t nonce_count() const { return issued_nonces_.size(); }

  // Stats live on the SimContext MetricsRegistry (docs/METRICS.md,
  // "Registrar"); these accessors read the registry series back for tests
  // and examples.
  std::uint64_t registers_accepted() const;
  std::uint64_t registers_rejected() const;
  std::uint64_t requests_forwarded() const;
  std::uint64_t requests_failed() const;

 private:
  void on_message(Message message, net::Endpoint from);
  void handle_register(Message request, net::Endpoint from);
  /// True when the REGISTER may proceed; otherwise a 401 challenge (or 403
  /// for unknown/bad credentials) has been sent.
  bool check_authorization(const Message& request, net::Endpoint from);
  void forward_request(Message request, net::Endpoint from);
  /// Tail of forward_request once the binding is known (sync from the
  /// store, async from the P2P ring).
  void forward_to_binding(Message request, net::Endpoint from,
                          std::optional<Binding> binding);
  void forward_response(Message response);
  void respond(const Message& request, int status, net::Endpoint from);
  void maintenance_tick();
  std::uint64_t read_counter(const char* name) const;
  Counter& counter(const char* name);

  net::Host& host_;
  RegistrarConfig config_;
  Logger log_;
  Transport transport_;
  ShardedBindingStore store_;
  P2pResolver* p2p_ = nullptr;
  std::map<std::string, TimePoint> issued_nonces_;
  std::uint64_t nonce_counter_ = 0;
  sim::PeriodicTimer maintenance_;
};

}  // namespace siphoc::sip
