// The shared testbed: one host table per executor, checked against the
// per-job install it replaced (tests/oracle/per_job_network.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <typeinfo>

#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "oracle/per_job_network.h"

namespace panoptes::core {
namespace {

uint64_t HostsRegistered() {
  return obs::MetricsRegistry::Default()
      .GetCounter("panoptes_net_hosts_registered_total")
      .Value();
}

// A framework's network over the shared table must answer every
// question a test, the device or the proxy asks exactly like a fresh
// network into which the job installed every host itself.
void ExpectMatchesPerJobInstall(const FrameworkOptions& fw) {
  auto testbed = Testbed::Build(fw.CatalogSeed(), fw.catalog);
  Framework framework(fw, testbed);
  const net::Network& shared = framework.network();
  oracle::PerJobNetwork per_job =
      oracle::InstallPerJobNetwork(testbed->world(), fw.seed ^ 0xFAB51Cull);
  const net::Network& own = *per_job.network;

  const auto names = own.Hostnames();
  ASSERT_EQ(shared.Hostnames(), names);
  EXPECT_EQ(testbed->hosts().size(), names.size());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const net::HostRecord* expected = own.FindByHost(name);
    const net::HostRecord* actual = shared.FindByHost(name);
    ASSERT_NE(expected, nullptr);
    ASSERT_NE(actual, nullptr);
    EXPECT_EQ(actual->hostname, expected->hostname);
    EXPECT_EQ(actual->ip, expected->ip);
    EXPECT_EQ(actual->supports_h3, expected->supports_h3);
    EXPECT_EQ(shared.SupportsH3(name), own.SupportsH3(name));
    EXPECT_EQ(shared.zone().Lookup(name), own.zone().Lookup(name));
    // The reverse mapping lands on the same host.
    const net::HostRecord* by_ip = shared.FindByIp(expected->ip);
    const net::HostRecord* own_by_ip = own.FindByIp(expected->ip);
    ASSERT_NE(by_ip, nullptr);
    ASSERT_NE(own_by_ip, nullptr);
    EXPECT_EQ(by_ip->hostname, own_by_ip->hostname);
    // The same kind of server answers there.
    const net::Server* server = shared.ServerFor(*actual);
    const net::Server* own_server = own.ServerFor(*expected);
    ASSERT_NE(server, nullptr);
    ASSERT_NE(own_server, nullptr);
    EXPECT_EQ(typeid(*server), typeid(*own_server));
    // The genuine leaf names the host and the web CA.
    EXPECT_EQ(actual->leaf.subject, expected->leaf.subject);
    EXPECT_EQ(actual->leaf.issuer, expected->leaf.issuer);
    EXPECT_EQ(shared.LeafFor(name)->subject, name);
  }
  EXPECT_EQ(shared.web_ca().name(), own.web_ca().name());
  // The address plan and its GeoIP ranges are the same too.
  const auto& ranges = framework.geo_plan().ranges();
  ASSERT_EQ(ranges.size(), per_job.geo.ranges().size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].block_key, per_job.geo.ranges()[i].block_key);
  }
}

TEST(HostTableOracle, MatchesAPerJobInstall) {
  {
    SCOPED_TRACE("3-site web");
    FrameworkOptions fw;
    fw.catalog.popular_count = 1;
    fw.catalog.sensitive_count = 2;
    ExpectMatchesPerJobInstall(fw);
  }
  {
    SCOPED_TRACE("40-site web, bounce tracking");
    FrameworkOptions fw;
    fw.seed = 20240521;
    fw.catalog.popular_count = 20;
    fw.catalog.sensitive_count = 20;
    fw.catalog.sitegen.bounce_fraction = 0.5;
    ExpectMatchesPerJobInstall(fw);
  }
}

// Registration is the testbed's work, done once: an executor's jobs
// bind servers to its table and register nothing themselves, and a run
// replayed from the cache builds no testbed at all.
TEST(SharedTestbed, BuiltOncePerExecutor) {
  namespace fs = std::filesystem;
  fs::path cache = fs::temp_directory_path() / "panoptes_shared_testbed_test";
  fs::remove_all(cache);
  FleetOptions options;
  options.jobs = 4;
  options.framework.catalog.popular_count = 1;
  options.framework.catalog.sensitive_count = 2;
  options.cache_dir = cache.string();
  std::vector<device::DeviceCohort> cohorts =
      device::PopulationGenerator::Generate(6, 20231024);
  auto jobs = FleetExecutor::PlanCampaign(
      {*browser::FindSpec("DuckDuckGo"), *browser::FindSpec("Yandex")},
      cohorts, {CampaignKind::kCrawl}, 1);
  ASSERT_EQ(jobs.size(), 12u);

  uint64_t start = HostsRegistered();
  {
    FleetExecutor cold(options);
    auto results = cold.Run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    size_t table = cold.testbed()->hosts().size();
    EXPECT_GT(table, 100u);
    EXPECT_EQ(HostsRegistered() - start, table);
  }
  start = HostsRegistered();
  FleetExecutor warm(options);
  auto replayed = warm.Run(jobs);
  for (const auto& result : replayed) EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(HostsRegistered() - start, 0u);
  fs::remove_all(cache);
}

}  // namespace
}  // namespace panoptes::core
