// Tests for qbss::route: hash-ring determinism, weighted placement and
// bounded key movement; the endpoint grammar shared with svc; topology
// parsing; the breaker state machine under an injected clock; and an
// end-to-end fleet — two real servers behind an in-process Router —
// covering byte-identity with a direct backend call, trace-id echo,
// per-backend stats, hot-key replication, breaker failover when a
// backend dies, the no-backend shed path, disk-hit flags relayed after a
// backend restart, the server's malformed-frame and idle-peer cases
// against the router, and reader threads joined once their connections
// close (for both roles).
#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/router.hpp"
#include "route/topology.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_instances.hpp"
#include "raw_wire.hpp"
#include "svc/client.hpp"
#include "svc/endpoint.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace qbss::route {
namespace {

std::vector<std::pair<std::string, double>> unit_nodes(int n) {
  std::vector<std::pair<std::string, double>> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back("node" + std::to_string(i), 1.0);
  }
  return nodes;
}

TEST(HashRing, OrderIndependentAndDeterministic) {
  std::vector<std::pair<std::string, double>> nodes = {
      {"gamma", 1.0}, {"alpha", 2.0}, {"beta", 0.5}};
  const HashRing forward(nodes);
  std::reverse(nodes.begin(), nodes.end());
  const HashRing reversed(nodes);

  ASSERT_EQ(forward.size(), 3u);
  ASSERT_EQ(reversed.size(), 3u);
  // Indices are name-sorted regardless of construction order.
  EXPECT_EQ(forward.name(0), "alpha");
  EXPECT_EQ(forward.name(1), "beta");
  EXPECT_EQ(forward.name(2), "gamma");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(forward.name(i), reversed.name(i));
  }
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("key-" + std::to_string(k));
    ASSERT_EQ(forward.primary(hash), reversed.primary(hash));
    ASSERT_EQ(forward.successors(hash, 2), reversed.successors(hash, 2));
  }
}

TEST(HashRing, KeyHashIsStable) {
  // key_hash is a pure function of the bytes: stable within a process,
  // different for different keys, and never equal for the vnode labels
  // of distinct nodes (collisions would merge ring points).
  EXPECT_EQ(HashRing::key_hash("qbss"), HashRing::key_hash("qbss"));
  EXPECT_NE(HashRing::key_hash("qbss"), HashRing::key_hash("qbst"));
  EXPECT_NE(HashRing::key_hash(""), HashRing::key_hash("0"));
}

TEST(HashRing, WeightedPlacementWithinTolerance) {
  const HashRing ring(
      {{"light", 1.0}, {"medium", 2.0}, {"heavy", 4.0}});
  std::map<std::string, int> owned;
  const int kKeys = 40000;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("sample:" + std::to_string(k));
    owned[ring.name(ring.primary(hash))]++;
  }
  // Expected shares 1/7, 2/7, 4/7; vnode placement noise at 64 vnodes
  // per unit weight stays well inside a +-35% relative band.
  const auto share = [&](const char* name) {
    return static_cast<double>(owned[name]) / kKeys;
  };
  EXPECT_NEAR(share("light"), 1.0 / 7.0, 0.35 / 7.0);
  EXPECT_NEAR(share("medium"), 2.0 / 7.0, 0.7 / 7.0);
  EXPECT_NEAR(share("heavy"), 4.0 / 7.0, 1.4 / 7.0);
}

TEST(HashRing, AddingANodeMovesOnlyKeysToIt) {
  const HashRing before(unit_nodes(5));
  auto grown = unit_nodes(5);
  grown.emplace_back("node5", 1.0);
  const HashRing after(grown);

  const int kKeys = 20000;
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("move:" + std::to_string(k));
    const std::string& old_owner = before.name(before.primary(hash));
    const std::string& new_owner = after.name(after.primary(hash));
    if (old_owner != new_owner) {
      ++moved;
      // Consistent hashing's defining property: a remapped key can only
      // have moved TO the new node.
      ASSERT_EQ(new_owner, "node5");
    }
  }
  // ~1/6 of keys move; allow generous slack for vnode placement noise.
  EXPECT_GT(moved, kKeys / 12);
  EXPECT_LT(moved, kKeys / 3);
}

TEST(HashRing, RemovingANodeMovesOnlyItsKeys) {
  const HashRing before(unit_nodes(5));
  auto shrunk = unit_nodes(5);
  shrunk.erase(shrunk.begin() + 2);  // drop node2
  const HashRing after(shrunk);

  const int kKeys = 20000;
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("del:" + std::to_string(k));
    const std::string& old_owner = before.name(before.primary(hash));
    const std::string& new_owner = after.name(after.primary(hash));
    if (old_owner != new_owner) {
      ++moved;
      ASSERT_EQ(old_owner, "node2");  // only node2's keys may move
    } else {
      ASSERT_NE(old_owner, "node2");
    }
  }
  EXPECT_GT(moved, kKeys / 12);
  EXPECT_LT(moved, kKeys / 3);
}

TEST(HashRing, SuccessorsAreDistinctAndNeverThePrimary) {
  const HashRing ring(unit_nodes(4));
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("succ:" + std::to_string(k));
    const std::size_t owner = ring.primary(hash);
    const std::vector<std::size_t> two = ring.successors(hash, 2);
    ASSERT_EQ(two.size(), 2u);
    ASSERT_NE(two[0], owner);
    ASSERT_NE(two[1], owner);
    ASSERT_NE(two[0], two[1]);
    // Asking for more than exists caps at the other nodes.
    const std::vector<std::size_t> all = ring.successors(hash, 10);
    ASSERT_EQ(all.size(), 3u);
    for (const std::size_t s : all) ASSERT_NE(s, owner);
  }
}

TEST(Endpoint, ParsesEveryGrammarForm) {
  svc::Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(svc::parse_endpoint("unix:/tmp/a.sock", &endpoint, &error));
  EXPECT_EQ(endpoint.socket_path, "/tmp/a.sock");
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "unix:/tmp/a.sock");

  ASSERT_TRUE(svc::parse_endpoint("/tmp/b.sock", &endpoint, &error));
  EXPECT_EQ(endpoint.socket_path, "/tmp/b.sock");

  ASSERT_TRUE(svc::parse_endpoint("7070", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 7070);
  EXPECT_TRUE(endpoint.host.empty());
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "127.0.0.1:7070");

  ASSERT_TRUE(svc::parse_endpoint("127.0.0.1:8080", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 8080);
  EXPECT_TRUE(endpoint.host.empty());  // loopback is the default host

  ASSERT_TRUE(svc::parse_endpoint("localhost:9090", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 9090);
  EXPECT_TRUE(endpoint.host.empty());

  ASSERT_TRUE(svc::parse_endpoint("10.1.2.3:80", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "10.1.2.3");
  EXPECT_EQ(endpoint.tcp_port, 80);
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "10.1.2.3:80");
}

TEST(Endpoint, RejectsBadForms) {
  svc::Endpoint endpoint;
  std::string error;
  EXPECT_FALSE(svc::parse_endpoint("", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("unix:", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("0", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("70000", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("words", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint(":80", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("example.com:80", &endpoint, &error))
      << "DNS names must be rejected (router never resolves)";
  EXPECT_FALSE(svc::parse_endpoint("127.0.0.1:notaport", &endpoint,
                                   &error));
}

TEST(Topology, ParsesNamesAddressesWeightsAndComments) {
  std::istringstream in(
      "# fleet\n"
      "alpha unix:/tmp/a.sock\n"
      "\n"
      "beta 127.0.0.1:7070 2.5  # twice the hardware\n"
      "gamma 7071\n");
  Topology topology;
  std::string error;
  ASSERT_TRUE(parse_topology(in, &topology, &error)) << error;
  ASSERT_EQ(topology.backends.size(), 3u);
  EXPECT_EQ(topology.backends[0].name, "alpha");
  EXPECT_EQ(topology.backends[0].endpoint.socket_path, "/tmp/a.sock");
  EXPECT_DOUBLE_EQ(topology.backends[0].weight, 1.0);
  EXPECT_EQ(topology.backends[1].endpoint.tcp_port, 7070);
  EXPECT_DOUBLE_EQ(topology.backends[1].weight, 2.5);
  EXPECT_EQ(topology.backends[2].endpoint.tcp_port, 7071);

  const auto nodes = topology.ring_nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[1].first, "beta");
  EXPECT_DOUBLE_EQ(nodes[1].second, 2.5);
}

TEST(Topology, RejectsBadLines) {
  const auto fails = [](const char* text) {
    std::istringstream in(text);
    Topology topology;
    std::string error;
    const bool ok = parse_topology(in, &topology, &error);
    EXPECT_FALSE(ok) << text;
    EXPECT_FALSE(error.empty());
    return error;
  };
  EXPECT_NE(fails("alpha\n").find("line 1"), std::string::npos);
  fails("alpha unix:/a.sock 0\n");       // weight must be positive
  fails("alpha unix:/a.sock -1\n");      // negative weight
  fails("alpha unix:/a.sock nope\n");    // non-numeric weight
  fails("alpha unix:/a.sock 1 extra\n");  // trailing token
  fails("alpha badhost:xy\n");           // bad address
  fails("alpha unix:/a.sock\nalpha unix:/b.sock\n");  // duplicate name
  fails("# only a comment\n");           // no backends at all
}

TEST(Breaker, TripsAfterThresholdAndReportsEdgesOnce) {
  Breaker breaker(BreakerConfig{3, 100.0});
  const std::int64_t t0 = 1'000'000'000;
  EXPECT_TRUE(breaker.allow(t0));
  EXPECT_FALSE(breaker.record_failure(t0));  // 1st failure: no edge
  EXPECT_FALSE(breaker.record_failure(t0));  // 2nd: still closed
  EXPECT_TRUE(breaker.allow(t0));
  EXPECT_TRUE(breaker.record_failure(t0));  // 3rd: the down edge
  EXPECT_EQ(breaker.state(t0), Breaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(t0));          // open: skip
  EXPECT_FALSE(breaker.record_failure(t0));  // already down: no 2nd edge
  EXPECT_EQ(breaker.failures(), 4);
}

TEST(Breaker, HalfOpenProbeClosesOrReopens) {
  const std::int64_t ms = 1'000'000;
  Breaker breaker(BreakerConfig{1, 100.0});
  EXPECT_TRUE(breaker.record_failure(0));  // threshold 1: trips at once
  EXPECT_FALSE(breaker.allow(50 * ms));    // cooldown still running
  EXPECT_EQ(breaker.state(100 * ms), Breaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(100 * ms));    // claims the probe slot
  EXPECT_FALSE(breaker.allow(100 * ms));   // only one probe at a time
  EXPECT_TRUE(breaker.record_success(100 * ms));  // the up edge
  EXPECT_EQ(breaker.state(100 * ms), Breaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(100 * ms));

  // Round two: a failed probe re-opens silently with a fresh cooldown.
  EXPECT_TRUE(breaker.record_failure(200 * ms));
  EXPECT_TRUE(breaker.allow(300 * ms));            // the probe
  EXPECT_FALSE(breaker.record_failure(300 * ms));  // no second down edge
  EXPECT_FALSE(breaker.allow(350 * ms));           // cooldown restarted
  EXPECT_TRUE(breaker.allow(400 * ms));
  EXPECT_TRUE(breaker.record_success(400 * ms));
}

// ---------------------------------------------------------------------
// End to end: two real servers behind an in-process Router.

std::string socket_path(const char* tag) {
  return "/tmp/qbss-route-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

svc::Request solve_request(std::uint64_t seed) {
  svc::Request request;
  request.algo = "bkpq";
  request.alpha = 3.0;
  request.instance = gen::random_online(8, 10.0, 0.5, 4.0, seed);
  return request;
}

struct Fleet {
  std::string b1_path = socket_path("b1");
  std::string b2_path = socket_path("b2");
  std::string router_path = socket_path("r");
  svc::ServerConfig b1_config;
  svc::ServerConfig b2_config;
  std::unique_ptr<svc::Server> b1;
  std::unique_ptr<svc::Server> b2;
  std::unique_ptr<Router> router;

  /// With a `cache_root`, each backend keeps a disk tier in its own
  /// subdirectory behind a two-entry memory cache.
  explicit Fleet(RouterConfig config = {}, const std::string& cache_root = "") {
    b1_config.workers = 2;
    b1_config.socket_path = b1_path;
    b2_config = b1_config;
    b2_config.socket_path = b2_path;
    if (!cache_root.empty()) {
      b1_config.cache_entries = b2_config.cache_entries = 2;
      b1_config.cache_dir = cache_root + "/b1";
      b2_config.cache_dir = cache_root + "/b2";
    }
    if (!start_backends()) return;
    config.socket_path = router_path;
    config.topology.backends.push_back(
        BackendSpec{"b1", svc::Endpoint{b1_path, "", 0}, 1.0});
    config.topology.backends.push_back(
        BackendSpec{"b2", svc::Endpoint{b2_path, "", 0}, 1.0});
    router = std::make_unique<Router>(std::move(config));
    std::string error;
    if (!router->start(&error)) {
      ADD_FAILURE() << "router start: " << error;
    }
  }

  bool start_backends() {
    b1 = std::make_unique<svc::Server>(b1_config);
    b2 = std::make_unique<svc::Server>(b2_config);
    std::string error;
    if (!b1->start(&error) || !b2->start(&error)) {
      ADD_FAILURE() << "backend start: " << error;
      return false;
    }
    return true;
  }

  void stop_backends() {
    for (svc::Server* server : {b1.get(), b2.get()}) {
      if (server != nullptr) {
        server->shutdown();
        server->wait();
      }
    }
  }

  ~Fleet() {
    if (router) {
      router->shutdown();
      router->wait();
    }
    stop_backends();
    for (const std::string& path : {b1_path, b2_path, router_path}) {
      std::remove(path.c_str());
    }
  }
};

RouterConfig fast_config() {
  RouterConfig config;
  config.health_interval_ms = 50.0;
  config.breaker_failures = 2;
  config.breaker_open_ms = 200.0;
  config.backend_retries = 0;
  config.backend_timeout_ms = 2000.0;
  config.stats_interval_ms = 50.0;
  config.hot_threshold = 3;
  config.replicas = 1;
  return config;
}

TEST(Router, ProxiesByteIdenticallyAndEchoesTraceIds) {
  Fleet fleet(fast_config());
  ASSERT_TRUE(fleet.router);

  svc::Client via_router;
  std::string error;
  ASSERT_TRUE(via_router.connect_unix(fleet.router_path, &error)) << error;
  ASSERT_TRUE(via_router.ping(&error)) << error;

  const svc::Request request = solve_request(7);
  via_router.set_next_trace_id(0xabcdef12345ULL);
  svc::Client::Reply routed;
  ASSERT_TRUE(via_router.call(request, &routed, &error)) << error;
  ASSERT_EQ(routed.status, svc::Status::kOk) << routed.payload;
  // The router must relay the client's trace id end to end, not mint
  // its own.
  EXPECT_EQ(routed.trace_id, 0xabcdef12345ULL);

  // Byte-identity: any backend computes the same payload for the same
  // canonical key, so a direct call to a *specific* backend must match
  // the routed bytes exactly, whichever node the ring picked.
  svc::Client direct;
  ASSERT_TRUE(direct.connect_unix(fleet.b1_path, &error)) << error;
  svc::Client::Reply reference;
  ASSERT_TRUE(direct.call(request, &reference, &error)) << error;
  ASSERT_EQ(reference.status, svc::Status::kOk);
  EXPECT_EQ(routed.payload, reference.payload);

  // A repeat through the router is a backend cache hit, relayed via the
  // cache-hit flag, and byte-identical again.
  svc::Client::Reply repeat;
  ASSERT_TRUE(via_router.call(request, &repeat, &error)) << error;
  ASSERT_EQ(repeat.status, svc::Status::kOk);
  EXPECT_EQ(repeat.payload, routed.payload);
}

TEST(Router, StatsReportPerBackendRows) {
  Fleet fleet(fast_config());
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;
  svc::Client::Reply first;
  ASSERT_TRUE(client.call(solve_request(11), &first, &error)) << error;
  ASSERT_EQ(first.status, svc::Status::kOk);

  svc::Client::Reply stats;
  ASSERT_TRUE(client.stats("json", &stats, &error)) << error;
  EXPECT_NE(stats.payload.find("\"role\":\"route\""), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("backend.b1"), std::string::npos);
  EXPECT_NE(stats.payload.find("backend.b2"), std::string::npos);
  EXPECT_NE(stats.payload.find("state=closed"), std::string::npos);

  const std::vector<Router::BackendStatus> status =
      fleet.router->backend_status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].name, "b1");
  EXPECT_EQ(status[1].name, "b2");
  EXPECT_EQ(status[0].forwarded + status[1].forwarded, 1u);
}

TEST(Router, HotKeysReplicateToTheSuccessor) {
  Fleet fleet(fast_config());  // hot_threshold 3, replicas 1
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;
  const svc::Request request = solve_request(23);
  for (int i = 0; i < 4; ++i) {
    svc::Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, svc::Status::kOk);
  }
  EXPECT_EQ(fleet.router->hot_keys(), 1u);

  // Replication is asynchronous; with two nodes the single successor is
  // whichever backend is not the primary.
  bool replicated = false;
  for (int spin = 0; spin < 100 && !replicated; ++spin) {
    for (const Router::BackendStatus& status :
         fleet.router->backend_status()) {
      if (status.replicated > 0) replicated = true;
    }
    if (!replicated) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(replicated)
      << "hot key never reached the successor backend";
}

TEST(Router, FailsOverWhenABackendDiesAndShedsWhenAllDo) {
  RouterConfig config = fast_config();
  config.hot_threshold = 0;  // isolate failover from hot rotation
  Fleet fleet(std::move(config));
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;

  // Find one request owned by each backend so the kill is guaranteed to
  // hit a covered key range.
  const HashRing ring({{"b1", 1.0}, {"b2", 1.0}});
  svc::Request owned_by_b2;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 64 && !found; ++seed) {
    svc::Request candidate = solve_request(seed);
    const std::uint64_t hash =
        HashRing::key_hash(svc::cache_key(candidate));
    if (ring.name(ring.primary(hash)) == "b2") {
      owned_by_b2 = std::move(candidate);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  // Kill b2. Its keys must fail over to b1 with the client still seeing
  // a clean kOk.
  fleet.b2->shutdown();
  fleet.b2->wait();
  svc::Client::Reply reply;
  ASSERT_TRUE(client.call(owned_by_b2, &reply, &error)) << error;
  EXPECT_EQ(reply.status, svc::Status::kOk) << reply.payload;

  // The breaker hears about the failures; b2 leaves the closed state
  // once the threshold (2) is crossed — the failed proxy call plus the
  // 50 ms health probes get there quickly.
  bool b2_down = false;
  for (int spin = 0; spin < 100 && !b2_down; ++spin) {
    for (const Router::BackendStatus& status :
         fleet.router->backend_status()) {
      if (status.name == "b2" &&
          status.state != Breaker::State::kClosed) {
        b2_down = true;
      }
    }
    if (!b2_down) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(b2_down);

  // Kill b1 too: with no backend left the router sheds rather than
  // hanging the client.
  fleet.b1->shutdown();
  fleet.b1->wait();
  svc::Client::Reply shed;
  ASSERT_TRUE(client.call(solve_request(5), &shed, &error)) << error;
  EXPECT_EQ(shed.status, svc::Status::kShed);
  EXPECT_NE(shed.payload.find("no_backend"), std::string::npos)
      << shed.payload;
}

TEST(Router, RelaysDiskHitsByteIdenticallyAfterBackendRestart) {
  const std::string root =
      "/tmp/qbss-route-" + std::to_string(::getpid()) + "-disk";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  RouterConfig config = fast_config();
  config.hot_threshold = 0;        // no replication pushes
  config.health_interval_ms = 0;   // no probe can trip a breaker mid-restart
  config.backend_retries = 2;      // pooled connections to the old
                                   // processes reconnect transparently
  {
    Fleet fleet(std::move(config), root);
    ASSERT_TRUE(fleet.router);
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;

    // Populate more keys than either memory cache holds.
    constexpr int kKeys = 6;
    std::vector<std::string> first(kKeys);
    for (int k = 0; k < kKeys; ++k) {
      svc::Client::Reply reply;
      ASSERT_TRUE(client.call(solve_request(100 + k), &reply, &error))
          << error;
      ASSERT_EQ(reply.status, svc::Status::kOk) << reply.payload;
      EXPECT_FALSE(reply.cache_hit);
      first[static_cast<std::size_t>(k)] = reply.payload;
    }

    // Restarted backends start with empty memory caches, so every key
    // now comes off disk — and the router must say so.
    fleet.stop_backends();
    ASSERT_TRUE(fleet.start_backends());
    for (int k = 0; k < kKeys; ++k) {
      svc::Client::Reply reply;
      ASSERT_TRUE(client.call(solve_request(100 + k), &reply, &error))
          << error;
      ASSERT_EQ(reply.status, svc::Status::kOk) << reply.payload;
      EXPECT_TRUE(reply.cache_hit) << "key " << k;
      EXPECT_TRUE(reply.disk_hit) << "key " << k;
      EXPECT_EQ(reply.payload, first[static_cast<std::size_t>(k)])
          << "key " << k;
    }
  }
  std::filesystem::remove_all(root);
}

// The server's wire-robustness cases (test_svc's Server.BadMagic...,
// VersionMismatch..., OverLimitPayloadLength..., TruncatedHeader... and
// IdleConnection...) against the router's client-facing side.
TEST(Router, MalformedFramesAndIdlePeersGetTheServersTreatment) {
  RouterConfig config = fast_config();
  config.read_timeout_ms = 100.0;
  Fleet fleet(std::move(config));
  ASSERT_TRUE(fleet.router);
  const std::string& path = fleet.router_path;

  const auto rejects = [&path](const char* what, auto corrupt,
                               const char* message) {
    svc::FrameHeader header;
    unsigned char wire[svc::kHeaderSize];
    svc::encode_header(header, wire);
    corrupt(wire);
    svc::FrameHeader reply;
    std::string payload;
    ASSERT_EQ(svc::roundtrip_raw(path, wire, "", &reply, &payload),
              svc::ReadResult::kFrame)
        << what << ": a malformed header must be answered";
    EXPECT_EQ(reply.status, svc::Status::kError) << what;
    EXPECT_NE(payload.find(message), std::string::npos)
        << what << ": " << payload;
  };
  rejects("bad magic", [](unsigned char* wire) { wire[0] ^= 0xff; },
          "bad frame magic");
  rejects("old version", [](unsigned char* wire) { wire[3] = 0x31; },
          "version mismatch");
  rejects("over-limit length",
          [](unsigned char* wire) {
            // payload_len lives at bytes 12..15, little-endian.
            const std::uint32_t huge = svc::kMaxPayload + 1;
            for (int i = 0; i < 4; ++i) {
              wire[12 + i] = static_cast<unsigned char>(huge >> (8 * i));
            }
          },
          "payload");

  // A torn header cannot be answered (there is no request id to echo):
  // the router just closes.
  const int torn = svc::raw_connect(path);
  ASSERT_GE(torn, 0);
  const unsigned char partial[10] = {0x51, 0x53, 0x53, 0x32};
  ASSERT_TRUE(svc::send_raw(torn, partial, sizeof partial));
  ::shutdown(torn, SHUT_WR);
  svc::FrameHeader reply;
  std::string payload;
  std::string error;
  EXPECT_EQ(svc::read_frame(torn, &reply, &payload, &error),
            svc::ReadResult::kEof);
  ::close(torn);

  // An idle peer is dropped after the read timeout (5 s is a backstop).
  const int idle = svc::raw_connect(path);
  ASSERT_GE(idle, 0);
  svc::set_socket_timeouts(idle, 5000.0, 0.0);
  const svc::ReadResult rc = svc::read_frame(idle, &reply, &payload, &error);
  EXPECT_TRUE(rc == svc::ReadResult::kEof || rc == svc::ReadResult::kError)
      << "the router must drop an idle connection";
  ::close(idle);

  // And the listener survived all of it.
  svc::Client client;
  ASSERT_TRUE(client.connect_unix(path, &error)) << error;
  ASSERT_TRUE(client.ping(&error)) << error;
}

/// Lines in /proc/self/maps: every unjoined exited thread keeps its
/// stack (and guard page) mapped.
long mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ConnectionHost, JoinsReaderThreadsOfClosedConnections) {
  Fleet fleet(fast_config());
  ASSERT_TRUE(fleet.router);
  for (const std::string& path : {fleet.b1_path, fleet.router_path}) {
    std::string error;
    const long before = mapped_regions();
    for (int i = 0; i < 3000; ++i) {
      svc::Client client;
      ASSERT_TRUE(client.connect_unix(path, &error)) << error;
      ASSERT_TRUE(client.ping(&error)) << error;
    }
    EXPECT_LT(mapped_regions() - before, 300) << path;
  }
}

}  // namespace
}  // namespace qbss::route
