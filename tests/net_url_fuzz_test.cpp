// Robustness fuzz: the URL parser and HTML extractor must never crash
// or violate their postconditions on arbitrary byte soup — the proxy
// parses whatever the wire carries.
#include <gtest/gtest.h>

#include "browser/engine.h"
#include "net/url.h"
#include "url_inputs.h"
#include "util/rng.h"

namespace panoptes::net {
namespace {

class UrlFuzz : public ::testing::TestWithParam<int> {};

using url_inputs::RandomBytes;

TEST_P(UrlFuzz, ParserNeverCrashesAndRoundTripsWhenAccepting) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 11);
  for (int i = 0; i < 200; ++i) {
    const std::string input = url_inputs::FuzzUrlInput(rng);
    auto url = Url::Parse(input);
    if (url) {
      // Postconditions for accepted input.
      EXPECT_FALSE(url->host().empty());
      EXPECT_TRUE(url->scheme() == "http" || url->scheme() == "https");
      EXPECT_FALSE(url->path().empty());
      EXPECT_EQ(url->path()[0], '/');
      // Reparse of the serialisation must accept and agree.
      auto again = Url::Parse(url->Serialize());
      ASSERT_TRUE(again.has_value()) << url->Serialize();
      EXPECT_EQ(again->host(), url->host());
      EXPECT_EQ(again->RequestTarget(), url->RequestTarget());
    }
  }
}

TEST_P(UrlFuzz, HtmlExtractorSurvivesGarbage) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 40503 + 3);
  std::string html = RandomBytes(rng, 512);
  // Sprinkle attribute fragments to stress the scanner.
  for (int i = 0; i < 5; ++i) {
    size_t pos = rng.NextBelow(html.size());
    const char* fragments[] = {"src=\"", "href=\"", "data-fetch=\"",
                               "\"", "https://"};
    html.insert(pos, fragments[rng.NextBelow(5)]);
  }
  auto urls = browser::ExtractResourceUrls(html);
  for (const auto& url : urls) {
    EXPECT_FALSE(url.host().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace panoptes::net
