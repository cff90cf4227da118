// APDU-level tests of the card applet state machine: command ordering,
// error status words, output paging — the "integration inside the SOE"
// face of demonstration objective 2.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "dsp/store.h"
#include "proxy/publisher.h"
#include "pki/registry.h"
#include "soe/applet.h"
#include "xml/generator.h"

namespace csxa {
namespace {

using soe::ApduResponse;
using soe::CsxaApplet;
using soe::Ins;

struct AppletFixture {
  dsp::DspServer server;
  pki::KeyRegistry registry;
  proxy::Publisher publisher{&server, &registry, 808};
  crypto::SymmetricKey key;
  Bytes header;
  Bytes sealed_rules;
  std::unique_ptr<dsp::ServiceChunkProvider> provider;
  CsxaApplet applet{soe::CardProfile::EGate()};

  AppletFixture() {
    xml::GeneratorParams gp;
    gp.profile = xml::DocProfile::kAgenda;
    gp.target_elements = 120;
    gp.seed = 3;
    auto doc = xml::GenerateDocument(gp);
    auto receipt =
        publisher.Publish("doc", doc, "+ u /agenda\n- u //note\n");
    CSXA_CHECK(receipt.ok());
    key = receipt.value().key;
    // One OpenDocument round trip: header + sealed rules together.
    auto open = server.OpenDocument("doc");
    CSXA_CHECK(open.ok());
    header = open.value().header;
    sealed_rules = open.value().sealed_rules;
    provider = std::make_unique<dsp::ServiceChunkProvider>(&server, "doc");
    applet.SetChunkProvider(provider.get());
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
  ApduResponse PutRules() { return Send(Ins::kPutRules, sealed_rules); }
  ApduResponse Run(const std::string& subject, const std::string& query) {
    ByteWriter w;
    w.PutString(subject);
    w.PutString(query);
    w.PutU8(1);  // use_skip
    return Send(Ins::kRunQuery, w.bytes());
  }
};

TEST(AppletTest, FullCommandSequence) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  EXPECT_EQ(fx.Select().sw, soe::kSwOk);
  EXPECT_EQ(fx.PutRules().sw, soe::kSwOk);
  ApduResponse run = fx.Run("u", "");
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
  EXPECT_EQ(fx.Run("u", "").sw, soe::kSwConditionsNotSatisfied);
}

TEST(AppletTest, RunWithoutRulesFails) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  EXPECT_EQ(fx.Run("u", "").sw, soe::kSwConditionsNotSatisfied);
}

TEST(AppletTest, TamperedRulesGiveSecurityStatus) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  fx.sealed_rules[30] ^= 1;
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);  // opaque blob accepted...
  EXPECT_EQ(fx.Run("u", "").sw, soe::kSwSecurityStatus);  // ...caught here
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
  ApduResponse resp = fx.Run("u", "][not xpath");
  EXPECT_NE(resp.sw, soe::kSwOk);
}

TEST(AppletTest, EndSessionResetsState) {
  AppletFixture fx;
  fx.applet.InstallKey("doc", fx.key);
  ASSERT_EQ(fx.Select().sw, soe::kSwOk);
  ASSERT_EQ(fx.PutRules().sw, soe::kSwOk);
  ASSERT_EQ(fx.Run("u", "").sw, soe::kSwOk);
  EXPECT_EQ(fx.Send(Ins::kEndSession).sw, soe::kSwOk);
  EXPECT_EQ(fx.Send(Ins::kFetchOutput).sw, soe::kSwConditionsNotSatisfied);
}

}  // namespace
}  // namespace csxa
