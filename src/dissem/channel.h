#ifndef CSXA_DISSEM_CHANNEL_H_
#define CSXA_DISSEM_CHANNEL_H_

/// \file channel.h
/// \brief Selective data dissemination over unsecured channels (demo
/// application 2, §3).
///
/// A publisher broadcasts encrypted, indexed content items to many
/// subscribers over an untrusted channel (think satellite/multicast: every
/// card receives every byte). Each subscriber's card filters the stream
/// against that subscriber's rules in real time: it decrypts only the
/// chunks that can contribute to its personalized view, discarding the
/// rest by the skip index — the push-mode economics of §2.3.

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/rule.h"
#include "crypto/container.h"
#include "soe/card_engine.h"
#include "xml/dom.h"

namespace csxa::dissem {

/// \brief One subscriber: a named subject with a card.
class Subscriber {
 public:
  Subscriber(std::string name, soe::CardProfile profile)
      : name_(std::move(name)), card_(profile) {}

  const std::string& name() const { return name_; }
  soe::CardEngine& card() { return card_; }

 private:
  std::string name_;
  soe::CardEngine card_;
};

/// Channel configuration.
struct ChannelOptions {
  size_t chunk_size = crypto::kDefaultChunkSize;
  bool with_index = true;
  /// Skips on the subscriber cards (saves decryption, not broadcast bytes).
  bool use_skip = true;
};

/// What one subscriber received for one published item.
struct Delivery {
  std::string subscriber;
  std::string view_xml;
  soe::SessionStats stats;
};

/// Broadcast-level metrics for one published item.
struct BroadcastReport {
  uint64_t broadcast_wire_bytes = 0;
  size_t item_elements = 0;
  std::vector<Delivery> deliveries;
  /// Slowest card's modeled time — the real-time constraint of the demo
  /// (video dissemination must keep up with the stream).
  double max_subscriber_seconds = 0;
};

/// \brief A dissemination channel: one publisher key, many subscribers.
class Channel {
 public:
  /// `rules_text` covers all subscriber subjects; each registered
  /// subscriber receives the channel key (through the simulated PKI).
  /// Text that does not parse makes every Publish fail until UpdateRules
  /// installs a valid policy.
  Channel(std::string channel_id, std::string rules_text,
          ChannelOptions options, uint64_t seed);

  /// Registers a subscriber and installs the channel key on its card.
  void Subscribe(Subscriber* subscriber);

  /// Publishes one content item: encodes, seals, broadcasts, and runs
  /// every subscriber's card filter over the stream.
  Result<BroadcastReport> Publish(const xml::DomDocument& item);

  /// Replaces the channel's rule set (e.g. a parent tightening control) —
  /// affects the next published item, no re-keying.
  Status UpdateRules(std::string rules_text);

  const std::string& id() const { return channel_id_; }

 private:
  std::string channel_id_;
  Result<core::RuleSet> rules_;  // parsed once per policy
  ChannelOptions options_;
  Rng rng_;
  crypto::SymmetricKey key_;
  std::vector<Subscriber*> subscribers_;
  uint64_t item_counter_ = 0;
};

}  // namespace csxa::dissem

#endif  // CSXA_DISSEM_CHANNEL_H_
