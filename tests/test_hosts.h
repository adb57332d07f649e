// Hand-built networks for tests: the hosts a test names are registered
// into a fresh net::HostTable in the order given, and a net::Network
// over that table binds each host's server at its slot. This is the
// same two-step shape as a framework's testbed (plan the table, then
// bind), only without a generated web.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/host_table.h"

namespace panoptes::fixtures {

struct TestHost {
  std::string hostname;
  net::IpAddress ip;
  std::shared_ptr<net::Server> server;  // may be null: nothing listens
  bool supports_h3 = false;
};

// A server answering every request with `response`.
inline std::shared_ptr<net::Server> Answering(net::HttpResponse response) {
  return std::make_shared<net::FunctionServer>(
      [response = std::move(response)](const net::HttpRequest&,
                                       const net::ConnectionMeta&) {
        return response;
      });
}

class TestNetwork {
 public:
  // `seed` feeds the table's web CA.
  explicit TestNetwork(const std::vector<TestHost>& hosts = {},
                       uint64_t seed = 1)
      : table_(seed), network_(Register(table_, hosts)) {
    for (const TestHost& host : hosts) {
      network_.Bind(table_.Find(host.hostname)->slot, host.server);
    }
  }

  const net::HostTable& table() const { return table_; }
  net::Network& network() { return network_; }

 private:
  static const net::HostTable* Register(net::HostTable& table,
                                        const std::vector<TestHost>& hosts) {
    for (const TestHost& host : hosts) {
      table.Add(host.hostname, host.ip, host.supports_h3);
    }
    return &table;
  }

  net::HostTable table_;
  net::Network network_;
};

}  // namespace panoptes::fixtures
