// APDU-level tests of the card applet state machine: command ordering,
// error status words, output paging — the "integration inside the SOE"
// face of demonstration objective 2.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/rule_envelope.h"
#include "dsp/store.h"
#include "proxy/publisher.h"
#include "pki/registry.h"
#include "soe/applet.h"
#include "xml/generator.h"
#include "rule_message.h"

namespace csxa {
namespace {

using soe::ApduResponse;
using soe::CsxaApplet;
using soe::Ins;

// The card is issued to "u"; the document's rules also give "v" a view
// that "u" must not be able to reach.
struct AppletFixture {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher{&server, &registry, 808};
  crypto::SymmetricKey key;
  Bytes header;
  Bytes envelope;  // as stored on the DSP
  Bytes message;   // its header and u's record
  std::unique_ptr<dsp::ServiceChunkProvider> provider;
  CsxaApplet applet{soe::CardProfile::EGate(), "u"};

  AppletFixture() {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kAgenda;
    gp.target_elements = 120;
    gp.seed = 3;
    auto doc = xml::GenerateDocument(gp);
    auto receipt = publisher.Publish(
        "doc", doc, "+ u /agenda\n- u //note\n+ v //note\n");
    CSXA_CHECK(receipt.ok());
    key = receipt.value().key;
    // One OpenDocument round trip: header + rule envelope together.
    auto open = server.OpenDocument("doc");
    CSXA_CHECK(open.ok());
    header = open.value().header;
    envelope = open.value().sealed_rules;
    message = MessageFor("u");
    provider = std::make_unique<dsp::ServiceChunkProvider>(&server, "doc");
    applet.SetChunkProvider(provider.get());
  }

  // The envelope's header and `subject`'s record.
  Bytes MessageFor(const char* subject) const {
    return fakes::RuleMessageFor(crypto::DocCipher::For(key), envelope,
                                 subject)
        .value();
  }

  // One exchange; the reply is copied out so a test can keep several.
  ApduResponse Send(Ins ins, Span data = {}) {
    ApduResponse reply;
    applet.Process({ins, data}, &reply);
    return reply;
  }
  ApduResponse Select() {
    ByteWriter w;
    w.PutString("doc");
    w.PutLengthPrefixed(header);
    return Send(Ins::kSelectDocument, w.bytes());
  }
  ApduResponse PutRules() { return Send(Ins::kPutRules, message); }
  ApduResponse Run(const std::string& query) {
    ByteWriter w;
    w.PutString(query);
    w.PutU8(1);  // use_skip
    return Send(Ins::kRunQuery, w.bytes());
  }
  // Runs a session on `rules` and pages its view out ("" on failure).
  std::string ViewOn(Span rules, uint16_t* sw) {
    if ((*sw = Select().sw) != soe::kSwOk) return "";
    if ((*sw = Send(Ins::kPutRules, rules).sw) != soe::kSwOk) return "";
    if ((*sw = Run("").sw) != soe::kSwOk) return "";
    std::string xml;
    for (;;) {
      ApduResponse slice = Send(Ins::kFetchOutput);
      xml.append(reinterpret_cast<const char*>(slice.data.data()),
                 slice.data.size());
      if (slice.sw != soe::kSwMoreData) break;
    }
    return xml;
  }
};

TEST(AppletTest, FullCommandSequence) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  EXPECT_EQ(fx.Select().sw, soe::kSwOk);
  EXPECT_EQ(fx.PutRules().sw, soe::kSwOk);
  ApduResponse run = fx.Run("");
  ASSERT_EQ(run.sw, soe::kSwOk);
  ByteReader r(run.data);
  uint64_t output_size = 0;
  ASSERT_TRUE(r.GetU64(&output_size));
  EXPECT_GT(output_size, 0u);

  // Page the output out.
  std::string xml;
  for (;;) {
    ApduResponse slice = fx.Send(Ins::kFetchOutput);
    ASSERT_TRUE(slice.ok());
    xml.append(reinterpret_cast<const char*>(slice.data.data()),
               slice.data.size());
    if (slice.sw == soe::kSwOk) break;
    EXPECT_EQ(slice.sw, soe::kSwMoreData);
    EXPECT_LE(slice.data.size(), 240u);
  }
  EXPECT_EQ(xml.size(), output_size);
  EXPECT_NE(xml.find("<agenda>"), std::string::npos);
  EXPECT_EQ(xml.find("<note>"), std::string::npos);
}

TEST(AppletTest, SelectWithoutKeyIsSecurityError) {
  AppletFixture fx;
  EXPECT_EQ(fx.Select().sw, soe::kSwSecurityStatus);
}

TEST(AppletTest, RunBeforeSelectFails) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  EXPECT_EQ(fx.Run("").sw, soe::kSwConditionsNotSatisfied);
}

TEST(AppletTest, RunWithoutRulesFails) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  EXPECT_EQ(fx.Run("").sw, soe::kSwConditionsNotSatisfied);
}

TEST(AppletTest, TamperedRulesGiveSecurityStatus) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  fx.message[30] ^= 1;
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);  // opaque blob accepted...
  EXPECT_EQ(fx.Run("").sw, soe::kSwSecurityStatus);  // ...caught here
}

TEST(AppletTest, SelectNamesTheHoldersLabel) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ApduResponse select = fx.Select();
  ASSERT_EQ(select.sw, soe::kSwOk);
  const core::RuleLabel u =
      core::SubjectLabel(crypto::DocCipher::For(fx.key), "u");
  EXPECT_EQ(select.data, Bytes(u.begin(), u.end()));
}

// The card issued to "u" runs as "u" whatever the terminal forwards:
// v's record, the whole envelope or the header alone all fail, and u's
// message gives u's view.
TEST(AppletTest, HolderCannotBeDrivenToAnotherHoldersView) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  uint16_t sw = 0;
  const std::string u_view = fx.ViewOn(fx.message, &sw);
  ASSERT_EQ(sw, soe::kSwOk);
  EXPECT_NE(u_view.find("<agenda>"), std::string::npos);
  EXPECT_EQ(u_view.find("<note>"), std::string::npos);

  const Bytes v_message = fx.MessageFor("v");
  ASSERT_NE(v_message, fx.message);
  const Bytes header_only = fx.MessageFor("nobody");
  const Bytes& envelope = fx.envelope;
  for (const Bytes* forged : {&v_message, &envelope, &header_only}) {
    EXPECT_EQ(fx.ViewOn(*forged, &sw), "");
    EXPECT_EQ(sw, soe::kSwSecurityStatus);
  }
  // The run-query command has no subject field to name "v" with: the old
  // subject-first payload is malformed.
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);
  ByteWriter named;
  named.PutString("v");
  named.PutString("");
  named.PutU8(1);
  EXPECT_EQ(fx.Send(Ins::kRunQuery, named.bytes()).sw, soe::kSwWrongData);
  EXPECT_EQ(fx.ViewOn(fx.message, &sw), u_view);
}

TEST(AppletTest, MalformedCommandsRejected) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  const Bytes truncated{1, 2};
  EXPECT_EQ(fx.Send(Ins::kSelectDocument, truncated).sw, soe::kSwWrongData);
  EXPECT_EQ(fx.Send(static_cast<Ins>(0xEE)).sw, soe::kSwConditionsNotSatisfied);
}

TEST(AppletTest, BadQuerySurfacesAsInternalFamily) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);
  ApduResponse resp = fx.Run("][not xpath");
  EXPECT_NE(resp.sw, soe::kSwOk);
}

TEST(AppletTest, EndSessionResetsState) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);
  ASSERT_EQ(fx.Run("").sw, soe::kSwOk);
  EXPECT_EQ(fx.Send(Ins::kEndSession).sw, soe::kSwOk);
  EXPECT_EQ(fx.Send(Ins::kFetchOutput).sw, soe::kSwConditionsNotSatisfied);
}

}  // namespace
}  // namespace csxa
