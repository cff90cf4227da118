#include "dissem/channel.h"

#include "core/rule_envelope.h"
#include "skipindex/codec.h"

namespace csxa::dissem {

Channel::Channel(std::string channel_id, std::string rules_text,
                 ChannelOptions options, uint64_t seed)
    : channel_id_(std::move(channel_id)),
      rules_(core::RuleSet::ParseText(rules_text)),
      options_(options),
      rng_(seed) {
  key_ = crypto::SymmetricKey::Generate(&rng_);
}

void Channel::Subscribe(Subscriber* subscriber) {
  subscriber->card().InstallKey(channel_id_, key_);
  subscribers_.push_back(subscriber);
}

Status Channel::UpdateRules(std::string rules_text) {
  CSXA_ASSIGN_OR_RETURN(core::RuleSet parsed,
                        core::RuleSet::ParseText(rules_text));
  rules_ = std::move(parsed);
  return Status::OK();
}

Result<BroadcastReport> Channel::Publish(const xml::DomDocument& item) {
  CSXA_RETURN_IF_ERROR(rules_.status());
  ++item_counter_;
  BroadcastReport report;
  report.item_elements = item.CountElements();

  skipindex::EncodeOptions eopt;
  eopt.with_index = options_.with_index;
  CSXA_ASSIGN_OR_RETURN(Bytes encoded, skipindex::EncodeDocument(item, eopt));
  Bytes container_bytes = crypto::SecureContainer::Seal(
      key_, encoded, options_.chunk_size, &rng_);
  CSXA_ASSIGN_OR_RETURN(crypto::SecureContainer container,
                        crypto::SecureContainer::Parse(container_bytes));

  ByteWriter header_writer;
  container.header().EncodeTo(&header_writer);
  Bytes header_bytes = header_writer.Take();

  // The item counter doubles as the rule-envelope version: every broadcast
  // carries the current policy, and subscriber cards refuse rollbacks.
  const crypto::DocCipher cipher = crypto::DocCipher::For(key_);
  Bytes sealed_rules =
      core::SealRuleEnvelope(cipher, rules_.value(), item_counter_, &rng_);

  // The broadcast buffer the terminal already received. Push-mode
  // sessions charge no round trips for reading it.
  soe::ContainerChunkProvider provider(&container);
  report.broadcast_wire_bytes = provider.TotalWireBytes();

  Bytes rule_message;
  for (Subscriber* sub : subscribers_) {
    // The subscriber's terminal hands its card the envelope's header and
    // the record its card names, out of the broadcast.
    CSXA_ASSIGN_OR_RETURN(core::RuleLabel label,
                          sub->card().LabelFor(channel_id_, sub->name()));
    CSXA_RETURN_IF_ERROR(
        core::CutRuleMessage(sealed_rules, label, &rule_message));
    soe::SessionOptions opts;
    opts.subject = sub->name();
    opts.use_skip = options_.use_skip;
    opts.push_mode = true;
    CSXA_ASSIGN_OR_RETURN(
        soe::SessionOutput out,
        sub->card().RunSession(channel_id_, header_bytes, rule_message,
                               &provider, opts));
    if (out.stats.total_seconds > report.max_subscriber_seconds) {
      report.max_subscriber_seconds = out.stats.total_seconds;
    }
    Delivery d;
    d.subscriber = sub->name();
    d.view_xml = std::move(out.view_xml);
    d.stats = out.stats;
    report.deliveries.push_back(std::move(d));
  }
  return report;
}

}  // namespace csxa::dissem
