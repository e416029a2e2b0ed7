// Tests for qbss::svc: frame header round-trips, request payload
// serialize/parse round-trips and rejection paths, canonical cache keys,
// the sharded LRU result cache, and an end-to-end server over a /tmp
// Unix-domain socket (energy parity with a direct core run, cache-hit
// byte-identity, queue-full and deadline shedding, coalescing, and the
// manifest epilogue written at shutdown). Robustness coverage: typed
// error replies for malformed/corrupted headers (plus a fuzz sweep over
// every header byte), idle-connection read timeouts, the retrying
// client surviving a full server restart with byte-identical cached
// payloads, the overload degradation window, and an in-process chaos
// soak against an active fault plan.
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/retry.hpp"
#include "svc/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faults/faults.hpp"
#include "gen/random_instances.hpp"
#include "io/format.hpp"
#include "obs/diff.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "qbss/bkpq.hpp"
#include "raw_wire.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::svc {
namespace {

core::QInstance small_instance(std::uint64_t seed) {
  return gen::random_online(8, 10.0, 0.5, 4.0, seed);
}

/// A /tmp socket path unique to this process and test (sun_path caps
/// paths at ~107 bytes, so the build tree is not an option).
std::string socket_path(const char* tag) {
  return "/tmp/qbss-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader header;
  header.status = Status::kShed;
  header.flags = kFlagCacheHit;
  header.payload_len = 12345;
  header.request_id = 0xfeedfacecafebeefULL;

  unsigned char wire[kHeaderSize];
  encode_header(header, wire);
  FrameHeader back;
  std::string error;
  ASSERT_TRUE(decode_header(wire, &back, &error)) << error;
  EXPECT_EQ(back.status, Status::kShed);
  EXPECT_EQ(back.flags, kFlagCacheHit);
  EXPECT_EQ(back.payload_len, 12345u);
  EXPECT_EQ(back.request_id, 0xfeedfacecafebeefULL);
}

TEST(Protocol, HeaderRejectsBadMagicAndOversize) {
  FrameHeader header;
  unsigned char wire[kHeaderSize];
  encode_header(header, wire);
  wire[0] ^= 0xff;  // corrupt the magic
  FrameHeader back;
  std::string error;
  EXPECT_FALSE(decode_header(wire, &back, &error));

  header.payload_len = kMaxPayload + 1;
  encode_header(header, wire);
  error.clear();
  EXPECT_FALSE(decode_header(wire, &back, &error));
  EXPECT_NE(error.find("payload"), std::string::npos);
}

TEST(Protocol, RequestRoundTrip) {
  Request request;
  request.algo = "crcd";
  request.alpha = 2.25;
  request.machines = 3;
  request.want_schedule = true;
  request.deadline_ms = 17.5;
  request.instance = small_instance(7);

  Request back;
  std::string error;
  ASSERT_TRUE(parse_request(serialize_request(request), &back, &error))
      << error;
  EXPECT_EQ(back.verb, Verb::kSolve);
  EXPECT_EQ(back.algo, "crcd");
  EXPECT_EQ(back.alpha, 2.25);
  EXPECT_EQ(back.machines, 3);
  EXPECT_TRUE(back.want_schedule);
  EXPECT_EQ(back.deadline_ms, 17.5);
  ASSERT_EQ(back.instance.size(), request.instance.size());
  for (std::size_t i = 0; i < back.instance.size(); ++i) {
    const auto& a = request.instance.jobs()[i];
    const auto& b = back.instance.jobs()[i];
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.query_cost, b.query_cost);
    EXPECT_EQ(a.upper_bound, b.upper_bound);
    EXPECT_EQ(a.exact_load, b.exact_load);
  }
}

TEST(Protocol, ParseRequestRejectsMalformedPayloads) {
  Request out;
  std::string error;
  EXPECT_FALSE(parse_request("nonsense\n", &out, &error));

  // alpha outside (1, 100].
  EXPECT_FALSE(parse_request(
      "qbss-svc/1 solve\nalgo: bkpq\nalpha: 1\ninstance:\n0 1 0.1 1 1\n",
      &out, &error));
  EXPECT_NE(error.find("alpha"), std::string::npos);

  // Unknown field.
  EXPECT_FALSE(parse_request(
      "qbss-svc/1 solve\nbogus: 1\ninstance:\n0 1 0.1 1 1\n", &out,
      &error));

  // Missing instance section.
  EXPECT_FALSE(
      parse_request("qbss-svc/1 solve\nalgo: bkpq\n", &out, &error));
  EXPECT_NE(error.find("instance"), std::string::npos);

  // Instance errors carry the section-relative line number.
  EXPECT_FALSE(parse_request(
      "qbss-svc/1 solve\ninstance:\n0 1 0.1 1\n", &out, &error));
  EXPECT_NE(error.find("instance line 1"), std::string::npos);
}

TEST(Protocol, CacheKeySeparatesResultDeterminingFields) {
  Request request;
  request.instance = small_instance(3);
  const std::string base = cache_key(request);
  EXPECT_EQ(cache_key(request), base) << "key must be deterministic";

  Request other = request;
  other.algo = "crcd";
  EXPECT_NE(cache_key(other), base);

  other = request;
  other.alpha = request.alpha + 0.5;
  EXPECT_NE(cache_key(other), base);

  other = request;
  other.want_schedule = !request.want_schedule;
  EXPECT_NE(cache_key(other), base);

  other = request;
  other.instance = small_instance(4);
  EXPECT_NE(cache_key(other), base);

  // deadline_ms is delivery policy, not a result-determining field.
  other = request;
  other.deadline_ms = 99.0;
  EXPECT_EQ(cache_key(other), base);

  // machines only matters for the multi-machine policy.
  other = request;
  other.machines = request.machines + 1;
  EXPECT_EQ(cache_key(other), base);
  other.algo = "avrq_m";
  Request multi = request;
  multi.algo = "avrq_m";
  EXPECT_NE(cache_key(other), cache_key(multi));

  // -0.0 loads normalize to +0.0 (same value, same schedule).
  Request zero_a;
  zero_a.instance.add(0.0, 4.0, 0.5, 2.0, 0.0);
  Request zero_b;
  zero_b.instance.add(-0.0, 4.0, 0.5, 2.0, 0.0);
  EXPECT_EQ(cache_key(zero_a), cache_key(zero_b));
}

TEST(Protocol, SolveMatchesDirectRunAndIsDeterministic) {
  Request request;
  request.algo = "bkpq";
  request.alpha = 2.5;
  request.want_schedule = true;
  request.instance = small_instance(11);

  std::string payload;
  std::string error;
  ASSERT_TRUE(solve_request(request, &payload, &error)) << error;
  std::string again;
  ASSERT_TRUE(solve_request(request, &again, &error)) << error;
  EXPECT_EQ(payload, again) << "equal requests must render identically";

  SolveResult result;
  ASSERT_TRUE(parse_solve_result(payload, &result, &error)) << error;
  EXPECT_EQ(result.algo, "bkpq");
  EXPECT_TRUE(result.valid);
  const core::QbssRun direct = core::bkpq(request.instance);
  EXPECT_DOUBLE_EQ(result.energy, direct.energy(request.alpha));
  EXPECT_DOUBLE_EQ(result.max_speed, direct.max_speed());

  // The dumped schedule re-validates through the ordinary readers.
  ASSERT_FALSE(result.classical_text.empty());
  ASSERT_FALSE(result.schedule_text.empty());
  std::istringstream classical_in(result.classical_text);
  std::istringstream schedule_in(result.schedule_text);
  const io::Parsed<scheduling::Instance> classical =
      io::read_instance(classical_in);
  ASSERT_TRUE(classical) << classical.error.message;
  const io::Parsed<scheduling::Schedule> schedule =
      io::read_schedule(schedule_in, classical.value->size());
  ASSERT_TRUE(schedule) << schedule.error.message;
  EXPECT_TRUE(scheduling::validate(*classical.value, *schedule.value)
                  .feasible);
}

TEST(Protocol, SolveRejectsUnknownAlgoAndEmptyInstance) {
  Request request;
  request.algo = "no-such-policy";
  request.instance = small_instance(1);
  std::string payload;
  std::string error;
  EXPECT_FALSE(solve_request(request, &payload, &error));
  EXPECT_NE(error.find("algo"), std::string::npos);

  request.algo = "bkpq";
  request.instance = core::QInstance{};
  EXPECT_FALSE(solve_request(request, &payload, &error));

  // The offline policies outside their instance classes: a typed error,
  // never the policy's own contract abort (which would kill the server).
  const auto instance = [](std::vector<std::pair<double, double>> windows) {
    core::QInstance inst;
    for (const auto& [release, deadline] : windows) {
      inst.add(release, deadline, 0.5, 2.0, 1.0);
    }
    return inst;
  };
  const struct {
    const char* algo;
    core::QInstance instance;
    const char* missing;  ///< "" = in the domain, must solve
  } cases[] = {
      {"crcd", instance({{0.0, 4.0}, {1.0, 4.0}}), "common release"},
      {"crp2d", instance({{0.0, 4.0}, {1.0, 8.0}}), "common release"},
      {"crad", instance({{0.0, 4.0}, {1.0, 8.0}}), "common release"},
      {"crcd", instance({{0.0, 4.0}, {0.0, 8.0}}), "common deadline"},
      {"crp2d", instance({{0.0, 4.0}, {0.0, 6.0}}), "power-of-two"},
      {"crcd", instance({{0.0, 4.0}, {0.0, 4.0}}), ""},
      {"crp2d", instance({{0.0, 4.0}, {0.0, 8.0}}), ""},
      {"crad", instance({{0.0, 3.0}, {0.0, 6.0}}), ""},
  };
  for (const auto& c : cases) {
    request.algo = c.algo;
    request.instance = c.instance;
    error.clear();
    const bool solved = solve_request(request, &payload, &error);
    if (*c.missing == '\0') {
      EXPECT_TRUE(solved) << c.algo << ": " << error;
    } else {
      EXPECT_FALSE(solved) << c.algo;
      EXPECT_NE(error.find(c.missing), std::string::npos)
          << c.algo << ": " << error;
    }
  }
}

TEST(Cache, LruEvictsOldestAndRefreshesOnGet) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  cache.put("a", "1");
  cache.put("b", "2");
  PayloadPtr value = cache.get("a");  // refresh: "a" becomes MRU
  ASSERT_TRUE(value);
  EXPECT_EQ(*value, "1");
  cache.put("c", "3");  // evicts "b", the LRU entry
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("a"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  cache.put("a", "updated");
  value = cache.get("a");
  ASSERT_TRUE(value);
  EXPECT_EQ(*value, "updated");
  EXPECT_EQ(cache.size(), 2u) << "put of an existing key must not grow";
}

TEST(Cache, PinnedPayloadSurvivesEvictionAndRefresh) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  const PayloadPtr stored = cache.put("a", "original");
  ASSERT_TRUE(stored);
  const PayloadPtr pinned = cache.get("a");
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned.get(), stored.get()) << "get must pin, not copy";

  // Refresh the key and push it out of the LRU entirely: a holder of the
  // old pin must keep reading the original bytes (this is what lets the
  // wire path sendmsg straight from a cache entry while eviction races).
  cache.put("a", "refreshed");
  cache.put("b", "2");
  cache.put("c", "3");
  EXPECT_FALSE(cache.get("a"));
  EXPECT_EQ(*pinned, "original");
}

TEST(Cache, ShardedCapacityHoldsManyKeys) {
  ResultCache cache(/*capacity=*/64, /*shards=*/8);
  for (int i = 0; i < 64; ++i) {
    cache.put("key" + std::to_string(i), std::to_string(i));
  }
  std::size_t present = 0;
  for (int i = 0; i < 64; ++i) {
    if (cache.get("key" + std::to_string(i))) ++present;
  }
  // Per-shard LRU: uneven shard fill may evict a few, never most.
  EXPECT_GE(present, 48u);
}

TEST(Cache, CapacityNotDivisibleByShardsKeepsFullBudget) {
  // Remainder entries are spread one-per-shard, never dropped
  // (docs/SERVICE.md documents the rounding rule).
  EXPECT_EQ(ResultCache(/*capacity=*/10, /*shards=*/4).capacity(), 10u);
  EXPECT_EQ(ResultCache(/*capacity=*/7, /*shards=*/3).capacity(), 7u);
  EXPECT_EQ(ResultCache(/*capacity=*/64, /*shards=*/8).capacity(), 64u);
  // Capacity below the shard count clamps up: every shard holds >= 1.
  EXPECT_EQ(ResultCache(/*capacity=*/3, /*shards=*/8).capacity(), 8u);
}

TEST(Cache, UnevenCapacityIsUsableNotJustReported) {
  // 7 entries over 3 shards used to silently truncate to 2 per shard
  // (6 total). Fill well past capacity and verify at least 7 of the
  // most recent keys survive in aggregate.
  ResultCache cache(/*capacity=*/7, /*shards=*/3);
  for (int i = 0; i < 64; ++i) {
    cache.put("key" + std::to_string(i), std::to_string(i));
  }
  std::size_t present = 0;
  for (int i = 0; i < 64; ++i) {
    if (cache.get("key" + std::to_string(i))) ++present;
  }
  EXPECT_EQ(present, 7u) << "all shards full => exactly capacity() live";
}

/// Spins up a server on a fresh /tmp socket, runs `body(path)`, then
/// shuts down and returns the manifest path (which `body` may ignore).
template <typename Body>
void with_server(ServerConfig config, const char* tag, Body body) {
  const std::string path = socket_path(tag);
  config.socket_path = path;
  Server server(std::move(config));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  body(path, server);
  server.shutdown();
  server.wait();
  std::remove(path.c_str());
}

TEST(Server, SolvesCachesAndServesByteIdenticalResults) {
  ServerConfig config;
  config.workers = 2;
  const std::string manifest_path =
      "/tmp/qbss-test-" + std::to_string(::getpid()) + "-manifest.json";
  config.manifest_path = manifest_path;
  config.manifest_extra.emplace_back("command", "test");

  with_server(config, "solve", [](const std::string& path, Server&) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;
    ASSERT_TRUE(client.ping(&error)) << error;

    Request request;
    request.algo = "bkpq";
    request.alpha = 3.0;
    request.instance = small_instance(21);

    Client::Reply first;
    ASSERT_TRUE(client.call(request, &first, &error)) << error;
    ASSERT_EQ(first.status, Status::kOk) << first.payload;
    EXPECT_FALSE(first.cache_hit);

    SolveResult result;
    ASSERT_TRUE(parse_solve_result(first.payload, &result, &error))
        << error;
    const core::QbssRun direct = core::bkpq(request.instance);
    EXPECT_DOUBLE_EQ(result.energy, direct.energy(request.alpha));

    // The same request from a different connection must be answered
    // from the cache, byte-identically.
    Client other;
    ASSERT_TRUE(other.connect_unix(path, &error)) << error;
    Client::Reply second;
    ASSERT_TRUE(other.call(request, &second, &error)) << error;
    ASSERT_EQ(second.status, Status::kOk);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.payload, first.payload);
  });

  // The shutdown epilogue must parse back through the manifest reader
  // (the same path `qbss obs-diff` uses) and record the extras.
  std::string load_error;
  const std::optional<obs::ManifestData> manifest =
      obs::load_manifest_file(manifest_path, &load_error);
  ASSERT_TRUE(manifest.has_value()) << load_error;
  std::ifstream raw_in(manifest_path);
  std::stringstream raw;
  raw << raw_in.rdbuf();
  EXPECT_NE(raw.str().find("\"command\""), std::string::npos);
  EXPECT_NE(raw.str().find("\"test\""), std::string::npos);
#ifndef QBSS_OBS_OFF
  EXPECT_GT(manifest->counters.count("svc.requests"), 0u);
  EXPECT_GT(manifest->counters.count("svc.cache.hit"), 0u);
#endif
  std::remove(manifest_path.c_str());
}

#ifndef QBSS_OBS_OFF
TEST(Server, CacheHitTicksZeroCopyCounter) {
  const auto counter_value = [](const char* name) {
    std::uint64_t value = 0;
    for (const auto& [key, count] : obs::registry().snapshot()) {
      if (key == name) value = count;
    }
    return value;
  };
  ServerConfig config;
  config.workers = 1;
  with_server(config, "zerocopy", [&](const std::string& path, Server&) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;

    Request request;
    request.algo = "bkpq";
    request.instance = small_instance(77);

    Client::Reply miss;
    ASSERT_TRUE(client.call(request, &miss, &error)) << error;
    ASSERT_EQ(miss.status, Status::kOk) << miss.payload;
    const std::uint64_t before = counter_value("svc.hit.zero_copy");

    Client::Reply hit;
    ASSERT_TRUE(client.call(request, &hit, &error)) << error;
    ASSERT_EQ(hit.status, Status::kOk);
    EXPECT_TRUE(hit.cache_hit);
    // The hit was answered straight from the pinned cache entry.
    EXPECT_EQ(counter_value("svc.hit.zero_copy"), before + 1);
  });
}
#endif

TEST(Server, MalformedPayloadGetsErrorStatusNotDisconnect) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "error", [](const std::string& path, Server&) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;

    Request bad;
    bad.algo = "no-such-policy";
    bad.instance = small_instance(2);
    Client::Reply reply;
    ASSERT_TRUE(client.call(bad, &reply, &error)) << error;
    EXPECT_EQ(reply.status, Status::kError);
    EXPECT_NE(reply.payload.find("message:"), std::string::npos);

    // The connection survives; a good request still works.
    Request good;
    good.instance = small_instance(2);
    ASSERT_TRUE(client.call(good, &reply, &error)) << error;
    EXPECT_EQ(reply.status, Status::kOk);
  });
}

TEST(Server, QueueFullSheds) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  config.delay_ms = 60.0;  // hold the single worker busy
  with_server(config, "shed", [](const std::string& path, Server&) {
    // Distinct instances so neither the cache nor coalescing absorbs
    // the burst; more clients than worker+queue slots forces shedding.
    constexpr int kClients = 6;
    std::atomic<int> shed{0};
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect_unix(path, &error)) << error;
        Request request;
        request.instance = small_instance(100 + static_cast<unsigned>(c));
        Client::Reply reply;
        ASSERT_TRUE(client.call(request, &reply, &error)) << error;
        if (reply.status == Status::kShed) {
          shed.fetch_add(1);
          EXPECT_NE(reply.payload.find("queue_full"), std::string::npos);
        } else if (reply.status == Status::kOk) {
          ok.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_GT(shed.load(), 0) << "burst must overflow a depth-1 queue";
    EXPECT_GT(ok.load(), 0) << "admitted requests still complete";
  });
}

TEST(Server, ExpiredDeadlineSheds) {
  ServerConfig config;
  config.workers = 1;
  config.delay_ms = 80.0;
  with_server(config, "deadline", [](const std::string& path, Server&) {
    Client blocker;
    Client victim;
    std::string error;
    ASSERT_TRUE(blocker.connect_unix(path, &error)) << error;
    ASSERT_TRUE(victim.connect_unix(path, &error)) << error;

    // Occupy the single worker, then queue a request whose deadline
    // expires long before the worker frees up.
    Request slow;
    slow.instance = small_instance(61);
    Client::Reply slow_reply;
    std::thread blocker_thread([&] {
      ASSERT_TRUE(blocker.call(slow, &slow_reply, &error)) << error;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    Request urgent;
    urgent.instance = small_instance(62);
    urgent.deadline_ms = 1.0;
    Client::Reply reply;
    std::string victim_error;
    ASSERT_TRUE(victim.call(urgent, &reply, &victim_error))
        << victim_error;
    EXPECT_EQ(reply.status, Status::kShed);
    EXPECT_NE(reply.payload.find("deadline"), std::string::npos);
    blocker_thread.join();
    EXPECT_EQ(slow_reply.status, Status::kOk);
  });
}

TEST(Server, CoalescesIdenticalInflightRequests) {
  ServerConfig config;
  config.workers = 1;
  config.delay_ms = 60.0;
  config.queue_depth = 64;
  with_server(config, "coalesce", [](const std::string& path, Server&) {
    // Identical requests from several connections while the first is
    // still in flight: every reply must be ok and byte-identical even
    // though the queue only ever holds one task per key.
    constexpr int kClients = 4;
    Request request;
    request.instance = small_instance(77);
    std::vector<std::string> payloads(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect_unix(path, &error)) << error;
        Client::Reply reply;
        ASSERT_TRUE(client.call(request, &reply, &error)) << error;
        ASSERT_EQ(reply.status, Status::kOk);
        payloads[static_cast<std::size_t>(c)] = reply.payload;
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 1; c < kClients; ++c) {
      EXPECT_EQ(payloads[static_cast<std::size_t>(c)], payloads[0]);
    }
  });
}

TEST(Server, BadMagicGetsTypedErrorReplyThenClose) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "badmagic", [](const std::string& path, Server&) {
    FrameHeader header;
    header.payload_len = 0;
    unsigned char wire[kHeaderSize];
    encode_header(header, wire);
    wire[0] ^= 0xff;  // not "QSS" any more

    FrameHeader reply;
    std::string payload;
    ASSERT_EQ(roundtrip_raw(path, wire, "", &reply, &payload),
              ReadResult::kFrame)
        << "a malformed header must be answered, not silently dropped";
    EXPECT_EQ(reply.status, Status::kError);
    EXPECT_NE(payload.find("bad frame magic"), std::string::npos)
        << payload;
  });
}

TEST(Server, VersionMismatchGetsDistinctTypedError) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "badver", [](const std::string& path, Server&) {
    FrameHeader header;
    unsigned char wire[kHeaderSize];
    encode_header(header, wire);
    wire[3] = 0x31;  // "QSS1": right protocol, old version byte

    FrameHeader reply;
    std::string payload;
    ASSERT_EQ(roundtrip_raw(path, wire, "", &reply, &payload),
              ReadResult::kFrame);
    EXPECT_EQ(reply.status, Status::kError);
    EXPECT_NE(payload.find("version mismatch"), std::string::npos)
        << payload;
  });
}

TEST(Server, OverLimitPayloadLengthGetsTypedError) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "overlen", [](const std::string& path, Server&) {
    FrameHeader header;
    unsigned char wire[kHeaderSize];
    encode_header(header, wire);
    // payload_len lives at bytes 12..15 (little-endian); write
    // kMaxPayload + 1 directly into the wire image.
    const std::uint32_t huge = kMaxPayload + 1;
    wire[12] = static_cast<unsigned char>(huge & 0xff);
    wire[13] = static_cast<unsigned char>((huge >> 8) & 0xff);
    wire[14] = static_cast<unsigned char>((huge >> 16) & 0xff);
    wire[15] = static_cast<unsigned char>((huge >> 24) & 0xff);

    FrameHeader reply;
    std::string payload;
    ASSERT_EQ(roundtrip_raw(path, wire, "", &reply, &payload),
              ReadResult::kFrame);
    EXPECT_EQ(reply.status, Status::kError);
    EXPECT_NE(payload.find("payload"), std::string::npos) << payload;
  });
}

TEST(Server, TruncatedHeaderJustClosesAndServerSurvives) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "trunc", [](const std::string& path, Server&) {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    const unsigned char partial[10] = {0x51, 0x53, 0x53, 0x32};
    ASSERT_TRUE(send_raw(fd, partial, sizeof partial));
    ::shutdown(fd, SHUT_WR);
    // A torn header cannot be answered (there is no request id to echo);
    // the server just closes.
    FrameHeader reply;
    std::string payload;
    std::string error;
    EXPECT_EQ(read_frame(fd, &reply, &payload, &error), ReadResult::kEof);
    ::close(fd);

    // The listener survived: a well-formed request still succeeds.
    Client client;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;
    ASSERT_TRUE(client.ping(&error)) << error;
  });
}

TEST(Server, StatsFrameReportsLifetimeAndWindow) {
  ServerConfig config;
  config.workers = 1;
  config.stats_interval_ms = 50.0;
  with_server(config, "stats", [](const std::string& path, Server&) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;

    Request request;
    request.algo = "bkpq";
    request.instance = small_instance(31);
    Client::Reply reply;
    constexpr int kSolves = 5;
    for (int i = 0; i < kSolves; ++i) {
      ASSERT_TRUE(client.call(request, &reply, &error)) << error;
      ASSERT_EQ(reply.status, Status::kOk) << reply.payload;
    }

    Client::Reply stats;
    ASSERT_TRUE(client.stats("json", &stats, &error)) << error;
    const std::optional<obs::StatsData> frame =
        obs::parse_stats_json(stats.payload, &error);
    ASSERT_TRUE(frame.has_value()) << error << "\n" << stats.payload;
    EXPECT_GT(frame->uptime_seconds, 0.0);
    EXPECT_EQ(frame->extra.at("workers"), "1");
#ifdef QBSS_OBS_OFF
    // Observability compiled out: the stats verb still answers a
    // well-formed frame, with zeroed metrics.
    EXPECT_EQ(frame->lifetime.counters.count("svc.requests"), 0u);
#else
    EXPECT_GE(frame->lifetime.counters.at("svc.requests"),
              static_cast<double>(kSolves));
    EXPECT_GE(frame->lifetime.counters.at("svc.hit.zero_copy"), 1.0);
    EXPECT_GE(frame->lifetime.histograms.at("svc.latency_us").count, 1u);
#endif

    // The Prometheus exposition of the same registry.
    Client::Reply prom;
    ASSERT_TRUE(client.stats("prometheus", &prom, &error)) << error;
    EXPECT_NE(prom.payload.find("# TYPE qbss_uptime_seconds gauge"),
              std::string::npos)
        << prom.payload.substr(0, 200);
#ifndef QBSS_OBS_OFF
    EXPECT_NE(prom.payload.find("# TYPE qbss_svc_requests counter"),
              std::string::npos);
#endif

    // An unknown format is a typed error reply, not a disconnect.
    Request bad;
    bad.verb = Verb::kStats;
    bad.stats_format = "xml";
    Client::Reply rejected;
    ASSERT_TRUE(client.call(bad, &rejected, &error)) << error;
    EXPECT_EQ(rejected.status, Status::kError);
    ASSERT_TRUE(client.ping(&error)) << error;
  });
}

TEST(Server, TraceIdPropagatesEndToEnd) {
  const std::string trace_path =
      "/tmp/qbss-test-" + std::to_string(::getpid()) + "-trace.json";
  obs::set_trace_path(trace_path);
  ServerConfig config;
  config.workers = 1;
  config.trace_sample = 1;  // every nonzero id gets a span chain
  with_server(config, "traceid", [](const std::string& path, Server&) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;

    Request request;
    request.algo = "bkpq";
    request.instance = small_instance(41);

    client.set_next_trace_id(0x1234abcdULL);
    Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kOk) << reply.payload;
    EXPECT_EQ(client.last_trace_id(), 0x1234abcdULL);
    EXPECT_EQ(reply.trace_id, 0x1234abcdULL);  // echoed in the header

    // Auto-generated ids are nonzero and echoed too.
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    EXPECT_NE(client.last_trace_id(), 0u);
    EXPECT_EQ(reply.trace_id, client.last_trace_id());
  });
  obs::flush_trace();
  obs::set_trace_path("");

  std::ifstream in(trace_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
#ifndef QBSS_OBS_OFF
  // The sampled span chain is attributable to the client-stamped id.
  EXPECT_NE(trace.find("0x1234abcd"), std::string::npos);
  EXPECT_NE(trace.find("req.accept"), std::string::npos);
  EXPECT_NE(trace.find("req.cache"), std::string::npos);
  EXPECT_NE(trace.find("req.write"), std::string::npos);
#endif
  std::remove(trace_path.c_str());
}

TEST(Server, HeaderFuzzNeverWedgesTheServer) {
  ServerConfig config;
  config.workers = 1;
  with_server(config, "fuzz", [](const std::string& path, Server&) {
    Request request;
    request.instance = small_instance(5);
    const std::string body = serialize_request(request);
    FrameHeader header;
    header.payload_len = static_cast<std::uint32_t>(body.size());
    header.request_id = 7;

    // Corrupt each header byte in turn. Depending on the byte this is a
    // bad magic, a bad version, an unknown status, an absurd length or a
    // still-valid header; the invariant is that the server always
    // answers or closes — it never crashes and never hangs the reader.
    // kError covers the race where the server rejects the header and
    // closes with our body bytes still unread (an RST on this end); the
    // ping below is what proves the server itself stayed healthy.
    for (std::size_t i = 0; i < kHeaderSize; ++i) {
      unsigned char wire[kHeaderSize];
      encode_header(header, wire);
      wire[i] ^= 0xff;
      FrameHeader reply;
      std::string payload;
      const ReadResult rc = roundtrip_raw(path, wire, body, &reply,
                                          &payload);
      EXPECT_TRUE(rc == ReadResult::kFrame || rc == ReadResult::kEof ||
                  rc == ReadResult::kError)
          << "byte " << i;
    }

    // And the server still serves.
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;
    ASSERT_TRUE(client.ping(&error)) << error;
  });
}

TEST(Server, IdleConnectionIsClosedAfterTheReadTimeout) {
  ServerConfig config;
  config.workers = 1;
  config.read_timeout_ms = 100.0;
  with_server(config, "slowloris", [](const std::string& path, Server&) {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    // Send nothing. The slowloris defense must disconnect us; without it
    // this read would block forever (the 5 s cap is just a backstop).
    set_socket_timeouts(fd, 5000.0, 0.0);
    FrameHeader reply;
    std::string payload;
    std::string error;
    const ReadResult rc = read_frame(fd, &reply, &payload, &error);
    EXPECT_TRUE(rc == ReadResult::kEof || rc == ReadResult::kError)
        << "server must drop an idle connection";
    ::close(fd);

    // Active clients are unaffected.
    Client client;
    ASSERT_TRUE(client.connect_unix(path, &error)) << error;
    ASSERT_TRUE(client.ping(&error)) << error;
  });
}

TEST(Server, RetryingClientSurvivesServerRestartByteIdentically) {
  const std::string path = socket_path("restart");
  Endpoint endpoint;
  endpoint.socket_path = path;
  RetryPolicy policy;
  policy.max_retries = 8;
  policy.base_ms = 5.0;
  policy.attempt_timeout_ms = 2000.0;
  RetryingClient client(endpoint, policy);

  Request request;
  request.algo = "bkpq";
  request.want_schedule = true;
  request.instance = small_instance(33);

  ServerConfig config;
  config.workers = 1;
  config.socket_path = path;
  std::string error;
  std::string first_payload;
  {
    Server server(config);
    ASSERT_TRUE(server.start(&error)) << error;
    Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kOk) << reply.payload;
    first_payload = reply.payload;
    server.shutdown();
    server.wait();
  }

  // The server is gone; the client's socket is dead. A fresh server on
  // the same path must be reachable through the same RetryingClient
  // without any caller-side reconnect logic.
  {
    Server server(config);
    ASSERT_TRUE(server.start(&error)) << error;
    Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kOk) << reply.payload;
    EXPECT_EQ(reply.payload, first_payload)
        << "recomputed result must be byte-identical to the cached one";
    EXPECT_GE(client.reconnects(), 1u);
    server.shutdown();
    server.wait();
  }
  std::remove(path.c_str());
}

TEST(Protocol, MidPayloadDisconnectIsAnErrorNotEof) {
  // A clean close on the header boundary is kEof (peer is just done);
  // a close after a good header but before the payload completes is a
  // torn frame and must surface as kError so callers retry it.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  FrameHeader header;
  header.payload_len = 10;
  unsigned char wire[kHeaderSize];
  encode_header(header, wire);
  ASSERT_TRUE(send_raw(pair[0], wire, kHeaderSize));
  const unsigned char partial[4] = {'t', 'o', 'r', 'n'};
  ASSERT_TRUE(send_raw(pair[0], partial, sizeof partial));
  ::close(pair[0]);

  FrameHeader reply;
  std::string payload;
  std::string error;
  EXPECT_EQ(read_frame(pair[1], &reply, &payload, &error),
            ReadResult::kError);
  EXPECT_NE(error.find("mid-payload"), std::string::npos) << error;
  ::close(pair[1]);
}

TEST(Server, RetryingClientRetriesMidPayloadDisconnect) {
  // A hand-rolled one-shot flaky server: the first connection answers
  // with a good header and then tears the connection mid-payload; the
  // second answers in full. The retrying client must treat the torn
  // read as a transport failure (not a reply) and transparently retry.
  const std::string path = socket_path("tornpayload");
  std::remove(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 2), 0);

  const std::string full_payload(64, 'p');
  std::thread flaky([listener, &full_payload] {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int fd = ::accept(listener, nullptr, nullptr);
      ASSERT_GE(fd, 0);
      FrameHeader request;
      std::string request_payload;
      std::string error;
      ASSERT_EQ(read_frame(fd, &request, &request_payload, &error),
                ReadResult::kFrame)
          << error;
      FrameHeader response;
      response.status = Status::kOk;
      response.request_id = request.request_id;
      response.payload_len =
          static_cast<std::uint32_t>(full_payload.size());
      if (attempt == 0) {
        // Good header, four payload bytes, then a clean close: exactly
        // the tear a server crash mid-write produces.
        unsigned char wire[kHeaderSize];
        encode_header(response, wire);
        ASSERT_TRUE(send_raw(fd, wire, kHeaderSize));
        ASSERT_TRUE(send_raw(
            fd,
            reinterpret_cast<const unsigned char*>(full_payload.data()),
            4));
      } else {
        ASSERT_TRUE(write_frame(fd, response, full_payload, &error)) << error;
      }
      ::close(fd);
    }
  });

  Endpoint endpoint;
  endpoint.socket_path = path;
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_ms = 1.0;
  policy.attempt_timeout_ms = 2000.0;
  RetryingClient client(endpoint, policy);
  Request request;
  request.algo = "bkpq";
  request.instance = small_instance(77);
  Client::Reply reply;
  std::string error;
  ASSERT_TRUE(client.call(request, &reply, &error)) << error;
  EXPECT_EQ(reply.status, Status::kOk);
  EXPECT_EQ(reply.payload, full_payload);
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.reconnects(), 1u);

  flaky.join();
  ::close(listener);
  std::remove(path.c_str());
}

TEST(Server, DegradedWindowServesCacheAndShedsMisses) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  config.delay_ms = 100.0;  // hold the single worker busy
  config.degraded_window_ms = 10000.0;
  with_server(config, "degraded", [](const std::string& path, Server&) {
    std::string error;
    Client primer;
    ASSERT_TRUE(primer.connect_unix(path, &error)) << error;
    Request cached_request;
    cached_request.instance = small_instance(50);
    Client::Reply reply;
    ASSERT_TRUE(primer.call(cached_request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kOk);

    // Occupy the worker, fill the depth-1 queue, then overflow it to
    // trip the degradation window.
    std::thread blocker([&path] {
      Client c;
      std::string e;
      ASSERT_TRUE(c.connect_unix(path, &e)) << e;
      Request r;
      r.instance = small_instance(51);
      Client::Reply rep;
      ASSERT_TRUE(c.call(r, &rep, &e)) << e;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::thread filler([&path] {
      Client c;
      std::string e;
      ASSERT_TRUE(c.connect_unix(path, &e)) << e;
      Request r;
      r.instance = small_instance(52);
      Client::Reply rep;
      ASSERT_TRUE(c.call(r, &rep, &e)) << e;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    Client prober;
    ASSERT_TRUE(prober.connect_unix(path, &error)) << error;
    Request overflow;
    overflow.instance = small_instance(53);
    ASSERT_TRUE(prober.call(overflow, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kShed) << reply.payload;
    EXPECT_NE(reply.payload.find("queue_full"), std::string::npos);

    // Inside the window: a cache miss is fast-shed with the degraded
    // reason, while the primed key is still served from the cache.
    Request miss;
    miss.instance = small_instance(54);
    ASSERT_TRUE(prober.call(miss, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kShed) << reply.payload;
    EXPECT_NE(reply.payload.find("degraded"), std::string::npos);

    ASSERT_TRUE(prober.call(cached_request, &reply, &error)) << error;
    EXPECT_EQ(reply.status, Status::kOk) << reply.payload;
    EXPECT_TRUE(reply.cache_hit);

    blocker.join();
    filler.join();
  });
}

#ifndef QBSS_FAULTS_OFF
TEST(Server, ChaosSoakCompletesEveryRequestByteIdentically) {
  // Everything the fault plan throws at the stack — dropped
  // connections on read, corrupted response headers, compute delays and
  // a one-shot worker stall — must be absorbed by the retry loop: every
  // request completes ok, and repeated answers for a key stay
  // byte-identical.
  struct InjectorReset {
    ~InjectorReset() { faults::injector().configure(faults::FaultPlan{}); }
  } reset;
  faults::FaultPlan plan;
  std::string plan_error;
  ASSERT_TRUE(faults::parse_plan(
      "seed=11,read_short:p=0.05,corrupt_header:p=0.03,delay:ms=2:p=0.5,"
      "worker_stall:after=2:ms=50",
      &plan, &plan_error))
      << plan_error;
  faults::injector().configure(plan);

  ServerConfig config;
  config.workers = 2;
  config.queue_depth = 64;
  with_server(config, "chaos", [](const std::string& path, Server&) {
    constexpr int kThreads = 4;
    constexpr int kRequestsPerThread = 40;
    constexpr int kPool = 6;
    std::vector<Request> pool;
    for (int s = 0; s < kPool; ++s) {
      Request request;
      request.instance = small_instance(200 + static_cast<unsigned>(s));
      pool.push_back(std::move(request));
    }

    std::mutex mu;
    std::map<int, std::string> expected;  // pool index -> first payload
    std::atomic<int> failures{0};
    std::atomic<int> mismatches{0};
    std::atomic<std::uint64_t> retries{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Endpoint endpoint;
        endpoint.socket_path = path;
        RetryPolicy policy;
        policy.max_retries = 12;
        policy.base_ms = 1.0;
        policy.cap_ms = 50.0;
        policy.attempt_timeout_ms = 2000.0;
        policy.jitter_seed = 0xc0ffeeULL + static_cast<unsigned>(t);
        RetryingClient client(endpoint, policy);
        for (int i = 0; i < kRequestsPerThread; ++i) {
          const int index = (t + i) % kPool;
          Client::Reply reply;
          std::string error;
          if (!client.call(pool[static_cast<std::size_t>(index)], &reply,
                           &error) ||
              reply.status != Status::kOk) {
            failures.fetch_add(1);
            continue;
          }
          const std::lock_guard<std::mutex> lock(mu);
          const auto [it, inserted] =
              expected.emplace(index, reply.payload);
          if (!inserted && it->second != reply.payload) {
            mismatches.fetch_add(1);
          }
        }
        retries.fetch_add(client.retries());
      });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0)
        << "every request must eventually complete under chaos";
    EXPECT_EQ(mismatches.load(), 0)
        << "cache hits must stay byte-identical under chaos";
    EXPECT_GT(faults::injector().injected(), 0u)
        << "the fault plan never fired — the soak proved nothing";
    EXPECT_GT(retries.load(), 0u);
  });
}
#endif  // QBSS_FAULTS_OFF

TEST(Server, ClientShutdownFrameStopsTheServer) {
  ServerConfig config;
  config.workers = 1;
  const std::string path = socket_path("shutdown");
  config.socket_path = path;
  Server server(std::move(config));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect_unix(path, &error)) << error;
  ASSERT_TRUE(client.shutdown_server(&error)) << error;
  server.wait();  // returns because the frame initiated shutdown
  EXPECT_GE(server.responses(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qbss::svc
