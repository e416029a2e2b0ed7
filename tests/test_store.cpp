// Tests for qbss::svc::store and the two-tier ResultCache: CRC32C known
// answers, record round-trips across close/reopen, crash recovery
// (bit-flipped payloads and headers, torn tails, deleted manifests,
// unlisted-file sweeps), segment rotation, the byte-budget drop policy,
// compaction of superseded garbage, write-behind persistence with disk
// promotion, a warm restart through the full server serving
// byte-identical disk hits, the `at=store` fault-injection sites, and a
// seeded mutation fuzzer over segment files and the MANIFEST.
#include "svc/store/crc32c.hpp"
#include "svc/store/segment_store.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/xoshiro.hpp"
#include "faults/faults.hpp"
#include "gen/random_instances.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace qbss::svc::store {
namespace {

/// A /tmp scratch directory unique to this process and test, removed
/// (with its files) on destruction.
struct TempDir {
  explicit TempDir(const char* tag)
      : path("/tmp/qbss-store-test-" + std::to_string(::getpid()) + "-" +
             tag) {
    remove_all();
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() { remove_all(); }
  void remove_all() const {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

std::string seg_path(const TempDir& dir, std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%08llu.qseg",
                static_cast<unsigned long long>(id));
  return dir.path + "/" + buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// On-disk size of one record: fixed header + key + payload.
std::size_t record_size(const std::string& key, const std::string& payload) {
  return kRecordHeaderSize + key.size() + payload.size();
}

/// snprintf-based key/value builders — string operator+ chains inlined
/// into test bodies trip a GCC 12 -Wrestrict false positive.
std::string numbered(const char* prefix, int i) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%d", prefix, i);
  return buf;
}

std::string round_value(int round, int i) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "round-%d-value-%d", round, i);
  return buf;
}

TEST(Crc32c, KnownAnswerAndComposition) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // Extension must compose exactly like concatenation — this is what
  // lets record checksums cover key+payload without a joined copy.
  EXPECT_EQ(crc32c_extend(crc32c("abc"), "def"), crc32c("abcdef"));
}

TEST(SegmentStore, RoundTripsRecordsAcrossReopen) {
  TempDir dir("roundtrip");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    RecoveryStats recovery;
    std::string error;
    ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
    EXPECT_EQ(recovery.records, 0u);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.append(numbered("key", i),
                               numbered("payload-", i * 31), &error))
          << error;
    }
    const StorePayloadPtr hit = store.find("key3");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload-93");
    EXPECT_FALSE(store.find("absent"));
    store.close();
  }
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 8u);
  EXPECT_EQ(recovery.corrupt_skipped, 0u);
  EXPECT_EQ(recovery.torn_tail_bytes, 0u);
  EXPECT_FALSE(recovery.manifest_rebuilt);
  for (int i = 0; i < 8; ++i) {
    const StorePayloadPtr hit = store.find(numbered("key", i));
    ASSERT_TRUE(hit) << "key" << i;
    EXPECT_EQ(*hit, numbered("payload-", i * 31));
  }
  EXPECT_EQ(store.verify(nullptr), 0u);
}

TEST(SegmentStore, LaterAppendSupersedesEarlier) {
  TempDir dir("supersede");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("k", "old", &error)) << error;
    ASSERT_TRUE(store.append("k", "new", &error)) << error;
    const StorePayloadPtr hit = store.find("k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "new");
    store.close();
  }
  // Recovery replays in order, so the later record must still win.
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 1u);
  const StorePayloadPtr hit = store.find("k");
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "new");
}

TEST(SegmentStore, RecoverySkipsPayloadBitFlipKeepsRest) {
  TempDir dir("bitflip");
  StoreConfig config;
  config.dir = dir.path;
  const std::string keys[3] = {"alpha", "beta", "gamma"};
  const std::string payloads[3] = {"one-payload", "two-payload",
                                   "three-payload"};
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.append(keys[i], payloads[i], &error)) << error;
    }
    store.close();
  }
  // Flip one byte inside the middle record's payload: its data checksum
  // must fail, it alone is skipped, and its well-formed lengths let the
  // scan resume at the very next record.
  const std::string path = seg_path(dir, 1);
  std::string bytes = read_file(path);
  const std::size_t flip = record_size(keys[0], payloads[0]) +
                           kRecordHeaderSize + keys[1].size() + 2;
  ASSERT_LT(flip, bytes.size());
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x40);
  write_file(path, bytes);

  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.corrupt_skipped, 1u);
  EXPECT_EQ(recovery.records, 2u);
  EXPECT_TRUE(store.find(keys[0]));
  EXPECT_FALSE(store.find(keys[1])) << "corrupt record must read as a miss";
  EXPECT_TRUE(store.find(keys[2]));
  EXPECT_EQ(store.verify(nullptr), 0u)
      << "recovery-skipped records are dead, not verify failures";
}

TEST(SegmentStore, RecoveryResynchronizesPastDamagedHeader) {
  TempDir dir("badheader");
  StoreConfig config;
  config.dir = dir.path;
  const std::string keys[3] = {"alpha", "beta", "gamma"};
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (const std::string& key : keys) {
      ASSERT_TRUE(store.append(key, "payload-for-" + key, &error)) << error;
    }
    store.close();
  }
  // Damage the middle record's header: its lengths can no longer be
  // trusted, so the scanner must resynchronize by finding the next
  // offset that validates as a whole header (the gamma record).
  const std::string path = seg_path(dir, 1);
  std::string bytes = read_file(path);
  const std::size_t header_at = record_size(keys[0], "payload-for-alpha");
  bytes[header_at + 9] = static_cast<char>(bytes[header_at + 9] ^ 0xff);
  write_file(path, bytes);

  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.corrupt_skipped, 1u);
  EXPECT_EQ(recovery.records, 2u);
  EXPECT_TRUE(store.find("alpha"));
  EXPECT_FALSE(store.find("beta"));
  EXPECT_TRUE(store.find("gamma"))
      << "records after a damaged header must be resynchronized, not lost";
}

TEST(SegmentStore, TornTailIsTruncatedOnRecovery) {
  TempDir dir("torntail");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("whole", "intact-payload", &error)) << error;
    ASSERT_TRUE(store.append("torn", "this-append-was-interrupted", &error))
        << error;
    store.close();
  }
  // Cut the file mid-way through the second record, as a crash during
  // the append would: recovery must truncate the tail off and keep the
  // first record.
  const std::string path = seg_path(dir, 1);
  std::string bytes = read_file(path);
  const std::size_t keep = record_size("whole", "intact-payload") + 10;
  ASSERT_LT(keep, bytes.size());
  write_file(path, bytes.substr(0, keep));

  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.torn_tail_bytes, 10u);
  EXPECT_EQ(recovery.records, 1u);
  EXPECT_EQ(recovery.corrupt_skipped, 0u) << "a torn tail is not corruption";
  EXPECT_TRUE(store.find("whole"));
  EXPECT_FALSE(store.find("torn"));

  // The truncation is physical: the next append starts from a clean
  // record boundary and must survive another reopen.
  ASSERT_TRUE(store.append("after", "fresh", &error)) << error;
  store.close();
  SegmentStore again;
  RecoveryStats second;
  ASSERT_TRUE(again.open(config, &second, &error)) << error;
  EXPECT_EQ(second.torn_tail_bytes, 0u);
  EXPECT_EQ(second.records, 2u);
  EXPECT_TRUE(again.find("whole"));
  EXPECT_TRUE(again.find("after"));
}

TEST(SegmentStore, MissingManifestIsRebuiltFromSegments) {
  TempDir dir("manifest");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store.append(numbered("k", i), "v", &error))
          << error;
    }
    store.close();
  }
  ASSERT_EQ(std::remove((dir.path + "/MANIFEST").c_str()), 0);

  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_TRUE(recovery.manifest_rebuilt);
  EXPECT_EQ(recovery.records, 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.find(numbered("k", i))) << i;
  }
  // Recovery rewrote the manifest; the next open is clean again.
  store.close();
  SegmentStore again;
  RecoveryStats second;
  ASSERT_TRUE(again.open(config, &second, &error)) << error;
  EXPECT_FALSE(second.manifest_rebuilt);
}

TEST(SegmentStore, ManifestListingASegmentTwiceStillServesNewAppends) {
  // Found by the mutation fuzzer below. The store must index a segment
  // the manifest names twice once: a second entry with the same id would
  // take the appends while reads look up the first, so a record appended
  // after the reopen would read as a miss.
  TempDir dir("dup-listing");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("old", "old-payload", &error)) << error;
    store.close();
  }
  write_file(dir.path + "/MANIFEST",
             "qbss-store/1\nnext 2\nseg seg-00000001.qseg\n"
             "seg seg-00000001.qseg\n");
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.segments, 1u);
  ASSERT_TRUE(store.append("new", "new-payload", &error)) << error;
  const StorePayloadPtr old_hit = store.find("old");
  ASSERT_TRUE(old_hit);
  EXPECT_EQ(*old_hit, "old-payload");
  const StorePayloadPtr new_hit = store.find("new");
  ASSERT_TRUE(new_hit);
  EXPECT_EQ(*new_hit, "new-payload");
}

/// A MANIFEST that would push segment ids past 2^64 - 1. The store gets
/// a sealed seg-00000001 and an active seg-00000002, then `manifest`, a
/// reopen and three 4 KB appends (4096-byte segments), then another
/// reopen, an append and a compaction, which takes fresh ids too.
/// Nothing may crash, no segment file may shrink or change before the
/// compaction, and every acknowledged record must read back
/// byte-identical. A wrapped id would reopen seg-00000001 with O_TRUNC
/// while it is mapped, and the next find would die with SIGBUS.
void expect_ids_never_wrap(const char* tag, const std::string& manifest,
                           std::size_t acked_after_reopen) {
  TempDir dir(tag);
  StoreConfig config;
  config.dir = dir.path;
  config.segment_bytes = 4096;
  const std::string big(4096, 'b');
  std::map<std::string, std::string> acked;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("sealed", big, &error)) << error;
    ASSERT_TRUE(store.append("active", "small", &error)) << error;
    store.close();
  }
  acked["sealed"] = big;
  acked["active"] = "small";
  const std::string seg1 = read_file(seg_path(dir, 1));
  const std::string seg2 = read_file(seg_path(dir, 2));
  ASSERT_GT(seg1.size(), big.size());
  ASSERT_FALSE(seg2.empty());
  write_file(dir.path + "/MANIFEST", manifest);

  const auto expect_records = [&](SegmentStore& store) {
    for (const auto& [key, payload] : acked) {
      const StorePayloadPtr hit = store.find(key);
      ASSERT_TRUE(hit) << key;
      EXPECT_EQ(*hit, payload) << key;
    }
  };
  const auto expect_intact = [&](SegmentStore& store) {
    EXPECT_EQ(read_file(seg_path(dir, 1)), seg1);
    EXPECT_EQ(read_file(seg_path(dir, 2)).substr(0, seg2.size()), seg2);
    expect_records(store);
  };
  const auto segment_bytes = [&]() {
    std::uintmax_t total = 0;
    for (const auto& file : std::filesystem::directory_iterator(dir.path)) {
      if (file.path().extension() == ".qseg") total += file.file_size();
    }
    return total;
  };
  std::string error;
  {
    SegmentStore store;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    std::size_t taken = 0;
    std::uintmax_t refused_at = 0;
    for (int i = 0; i < 3; ++i) {
      if (store.append(numbered("new", i), big, &error)) {
        acked[numbered("new", i)] = big;
        ++taken;
      } else {
        // Once an append is refused, the segment that could not be
        // sealed takes no more records.
        if (refused_at != 0) {
          EXPECT_EQ(segment_bytes(), refused_at) << i;
        }
        refused_at = segment_bytes();
      }
    }
    EXPECT_EQ(taken, acked_after_reopen);
    expect_intact(store);
    store.close();
  }
  {
    SegmentStore store;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    expect_intact(store);
    const std::uintmax_t before = segment_bytes();
    if (store.append("last", big, &error)) {
      acked["last"] = big;
    } else {
      EXPECT_EQ(segment_bytes(), before);
    }
    expect_intact(store);
    static_cast<void>(store.compact(&error));
    expect_records(store);
    store.close();
  }
  SegmentStore store;
  ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
  expect_records(store);
}

TEST(SegmentStore, ManifestNextAtTheLastIdRefusesAppendsInsteadOfWrapping) {
  // The first seal takes id 2^64 - 1; the next seal has no id left, so
  // append reports it and the full segment takes no more records.
  expect_ids_never_wrap("next-last-id",
                        "qbss-store/1\nnext 18446744073709551615\n"
                        "seg seg-00000001.qseg\nseg seg-00000002.qseg\n",
                        1);
}

TEST(SegmentStore, ManifestNextPast64BitsIsMalformed) {
  // 2^65 - 1 would wrap to 2^64 - 1. It is malformed, so the MANIFEST is
  // rebuilt from the directory and ids continue after seg-00000002.
  expect_ids_never_wrap("next-20-digits",
                        "qbss-store/1\nnext 36893488147419103231\n"
                        "seg seg-00000001.qseg\nseg seg-00000002.qseg\n",
                        3);
}

TEST(SegmentStore, ManifestSegmentNamePast64BitsIsSkipped) {
  // 2^64 + 1 would wrap to id 1 and shadow seg-00000001's records.
  expect_ids_never_wrap("name-20-digits",
                        "qbss-store/1\nnext 3\n"
                        "seg seg-18446744073709551617.qseg\n"
                        "seg seg-00000001.qseg\nseg seg-00000002.qseg\n",
                        3);
}

TEST(SegmentStore, SweepsUnlistedSegmentsAndStrayFiles) {
  TempDir dir("sweep");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("kept", "payload", &error)) << error;
    store.close();
  }
  // A segment file the manifest never heard of (interrupted compaction)
  // and an in-progress tmp file must both be deleted, not resurrected.
  write_file(seg_path(dir, 40), "garbage from an interrupted rewrite");
  write_file(dir.path + "/stray.tmp", "tmp");

  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_FALSE(recovery.manifest_rebuilt);
  EXPECT_EQ(recovery.records, 1u);
  EXPECT_TRUE(store.find("kept"));
  struct stat st{};
  EXPECT_NE(::stat(seg_path(dir, 40).c_str(), &st), 0)
      << "unlisted segment must be swept";
  EXPECT_NE(::stat((dir.path + "/stray.tmp").c_str(), &st), 0)
      << "stray tmp file must be swept";
}

TEST(SegmentStore, SealsAndRecoversMultipleSegments) {
  TempDir dir("rotate");
  StoreConfig config;
  config.dir = dir.path;
  config.segment_bytes = 4096;  // the clamp floor — rotate fast
  config.budget_bytes = 1u << 20;
  const std::string payload(900, 'x');
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(store.append(numbered("k", i), payload, &error))
          << error;
    }
    EXPECT_GE(store.stats().segments, 3u) << "appends must have rotated";
    store.close();
  }
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 12u);
  EXPECT_GE(recovery.segments, 3u);
  for (int i = 0; i < 12; ++i) {
    const StorePayloadPtr hit = store.find(numbered("k", i));
    ASSERT_TRUE(hit) << i;
    EXPECT_EQ(*hit, payload);
  }
}

TEST(SegmentStore, BudgetDropsOldestSegmentWhole) {
  TempDir dir("budget");
  StoreConfig config;
  config.dir = dir.path;
  config.segment_bytes = 4096;
  config.budget_bytes = 8192;  // room for ~2 segments
  const std::string payload(1400, 'b');
  SegmentStore store;
  std::string error;
  ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.append(numbered("k", i), payload, &error))
        << error;
  }
  const StoreStats stats = store.stats();
  EXPECT_GT(stats.dropped_segments, 0u);
  EXPECT_LE(stats.bytes, config.budget_bytes + config.segment_bytes)
      << "the store must stay near its budget";
  // Oldest records go with their segment; the newest survive.
  EXPECT_FALSE(store.contains("k0"));
  EXPECT_TRUE(store.contains("k11"));
}

TEST(SegmentStore, CompactDropsSupersededGarbageAndSurvivesReopen) {
  TempDir dir("compact");
  StoreConfig config;
  config.dir = dir.path;
  std::uint64_t before_bytes = 0;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(store.append(
            numbered("k", i),
            round_value(round, i),
            &error))
            << error;
      }
    }
    before_bytes = store.stats().bytes;
    ASSERT_TRUE(store.compact(&error)) << error;
    const StoreStats after = store.stats();
    EXPECT_LT(after.bytes, before_bytes)
        << "superseded rounds must be gone";
    EXPECT_EQ(after.live_records, 6u);
    for (int i = 0; i < 6; ++i) {
      const StorePayloadPtr hit = store.find(numbered("k", i));
      ASSERT_TRUE(hit) << i;
      EXPECT_EQ(*hit, round_value(3, i));
    }
    store.close();
  }
  // The manifest swap must leave a store the next open reads cleanly.
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 6u);
  EXPECT_EQ(recovery.corrupt_skipped, 0u);
  EXPECT_FALSE(recovery.manifest_rebuilt);
  for (int i = 0; i < 6; ++i) {
    const StorePayloadPtr hit = store.find(numbered("k", i));
    ASSERT_TRUE(hit) << i;
    EXPECT_EQ(*hit, round_value(3, i));
  }
  EXPECT_EQ(store.verify(nullptr), 0u);
}

TEST(SegmentStore, VerifyReportsPostRecoveryBitrot) {
  TempDir dir("bitrot");
  StoreConfig config;
  config.dir = dir.path;
  SegmentStore store;
  std::string error;
  ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
  ASSERT_TRUE(store.append("rotkey", "will-rot-on-disk", &error)) << error;
  store.sync();
  // Corrupt the payload *behind the open store's back*: the index still
  // lists the record, so verify must re-read, fail the checksum, and
  // report it.
  std::string bytes = read_file(seg_path(dir, 1));
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 1);
  write_file(seg_path(dir, 1), bytes);

  std::vector<std::string> report;
  EXPECT_EQ(store.verify(&report), 1u);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].find("checksum"), std::string::npos) << report[0];
  // A find() on the rotten key behaves like recovery: miss + drop.
  EXPECT_FALSE(store.find("rotkey"));
  EXPECT_FALSE(store.contains("rotkey"));
}

TEST(SegmentStore, FindsStayByteIdenticalWhileAnotherThreadAppendsAndSyncs) {
  TempDir dir("sync-race");
  StoreConfig config;
  config.dir = dir.path;
  config.segment_bytes = 4096;  // the writer seals segments under the syncs
  config.budget_bytes = 1u << 20;
  SegmentStore store;
  std::string error;
  ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.append(numbered("k", i), round_value(0, i), &error))
        << error;
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::string werr;
    const std::string payload(100, 'w');
    for (int i = 0; i < 150; ++i) {
      if (!store.append(numbered("w", i), payload, &werr)) break;
      store.sync();
    }
    done = true;
  });
  int rounds = 0;
  int mismatches = 0;
  while (!done || rounds < 100) {
    for (int i = 0; i < 16; ++i) {
      const StorePayloadPtr hit = store.find(numbered("k", i));
      if (!hit || *hit != round_value(0, i)) ++mismatches;
    }
    ++rounds;
  }
  writer.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(store.contains("w149")) << "every append must have landed";
}

TEST(SegmentStore, RecordsAppendedBeforeSyncSurviveAReopen) {
  TempDir dir("sync-reopen");
  StoreConfig config;
  config.dir = dir.path;
  config.segment_bytes = 4096;
  std::string error;
  SegmentStore writer;
  ASSERT_TRUE(writer.open(config, nullptr, &error)) << error;
  const std::string payload(700, 's');
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(writer.append(numbered("k", i), payload, &error)) << error;
    if (i % 4 == 3) writer.sync();  // the store's own fd stays usable
  }
  // Reopen while `writer` still holds the directory, as after a crash:
  // none of close()'s final fsync and manifest rewrite has run.
  SegmentStore reopened;
  RecoveryStats recovery;
  ASSERT_TRUE(reopened.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 12u);
  EXPECT_EQ(recovery.torn_tail_bytes, 0u);
  for (int i = 0; i < 12; ++i) {
    const StorePayloadPtr hit = reopened.find(numbered("k", i));
    ASSERT_TRUE(hit) << i;
    EXPECT_EQ(*hit, payload);
  }
}

/// One seeded mutation of a file's bytes: a bit flip, a byte overwrite,
/// a truncation, or the insertion or deletion of a run of bytes. An
/// inserted run is either random or copied from elsewhere in the same
/// file, which plants duplicate headers and records. Overwrites favour
/// the MANIFEST's own characters, so segment names and ids change.
void mutate(std::string& bytes, Xoshiro256& rng) {
  static constexpr char kGrammar[] = "0123456789\nseg-.q ";
  const auto byte = [&rng] {
    return rng.chance(0.5) ? static_cast<char>(rng() & 0xff)
                           : kGrammar[rng.below(sizeof kGrammar - 1)];
  };
  const std::size_t at = bytes.empty() ? 0 : rng.below(bytes.size());
  switch (rng.below(5)) {
    case 0:  // bit flip
      if (!bytes.empty()) {
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
      }
      break;
    case 1:  // byte overwrite
      if (!bytes.empty()) bytes[at] = byte();
      break;
    case 2:  // truncation
      bytes.resize(at);
      break;
    case 3: {  // insertion of a run
      std::string run;
      if (!bytes.empty() && rng.chance(0.5)) {
        run = bytes.substr(rng.below(bytes.size()), 1 + rng.below(256));
      } else {
        run.resize(1 + rng.below(32));
        for (char& c : run) c = byte();
      }
      bytes.insert(at, run);
      break;
    }
    default:  // deletion of a run
      bytes.erase(at, 1 + rng.below(64));
      break;
  }
}

TEST(SegmentStore, SeededMutationsNeverYieldAWrongPayload) {
  // 64 records across several sealed segments, then 2,000 damaged
  // copies of the directory, each with 1-4 mutations in one segment file
  // or the MANIFEST. Every open must succeed (the store fails open),
  // every find must return nullptr or the exact bytes appended for its
  // key, a record in an undamaged segment must survive, and the
  // recovered store must still take an append.
  TempDir source("fuzz-source");
  TempDir work("fuzz-work");
  StoreConfig config;
  config.dir = source.path;
  config.segment_bytes = 4096;  // the clamp floor — rotate fast
  Xoshiro256 rng(0x5eed'5703);  // fixed seed: every case replays exactly
  std::vector<std::string> keys;
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> home;  // id of the segment holding each record
  std::uint64_t segments = 0;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    for (int i = 0; i < 64; ++i) {
      std::string payload(150 + rng.below(150), '\0');
      for (char& c : payload) c = static_cast<char>(rng() & 0xff);
      home.push_back(store.stats().segments);  // ids run 1..n, newest active
      keys.push_back(numbered("fuzz-key-", i));
      payloads.push_back(std::move(payload));
      ASSERT_TRUE(store.append(keys.back(), payloads.back(), &error))
          << error;
    }
    segments = store.stats().segments;
    store.close();
  }
  ASSERT_GE(segments, 4u) << "want at least three sealed segments";
  for (std::uint64_t id = 1; id <= segments; ++id) {
    ASSERT_TRUE(std::filesystem::exists(seg_path(source, id))) << id;
  }

  config.dir = work.path;
  for (int c = 0; c < 2000; ++c) {
    work.remove_all();
    std::filesystem::copy(source.path, work.path);
    const std::uint64_t target = rng.below(segments + 1);  // 0: MANIFEST
    const std::string path =
        target == 0 ? work.path + "/MANIFEST" : seg_path(work, target);
    std::string bytes = read_file(path);
    const std::uint64_t mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(bytes, rng);
    write_file(path, bytes);

    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error))
        << "case " << c << ": " << error;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const StorePayloadPtr hit = store.find(keys[k]);
      if (hit) {
        ASSERT_EQ(*hit, payloads[k]) << "case " << c << " " << keys[k];
      } else {
        ASSERT_TRUE(target == 0 || home[k] == target)
            << "case " << c << ": " << keys[k] << " lost from undamaged "
            << "segment " << home[k];
      }
    }
    ASSERT_TRUE(store.append("fuzz-fresh", "fresh", &error))
        << "case " << c << ": " << error;
    const StorePayloadPtr fresh = store.find("fuzz-fresh");
    ASSERT_TRUE(fresh) << "case " << c;
    ASSERT_EQ(*fresh, "fresh") << "case " << c;
  }
}

TEST(TieredCache, WriteBehindPersistsAndPromotesAcrossRestart) {
  TempDir dir("tiered");
  DiskTierConfig disk;
  disk.store.dir = dir.path;
  disk.sync = SyncMode::kAlways;
  {
    ResultCache cache(/*capacity=*/4, /*shards=*/2);
    store::RecoveryStats recovery;
    std::string error;
    ASSERT_TRUE(cache.attach_store(disk, &recovery, &error)) << error;
    for (int i = 0; i < 10; ++i) {
      cache.put(numbered("key", i), numbered("value-", i));
    }
    cache.flush();
    // 10 puts into a 4-entry memory tier: evictions are demotions, and
    // every put must be on disk regardless.
    const store::SegmentStore* store = cache.disk();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().live_records, 10u);
  }
  // A fresh cache on the same directory: the memory tier is empty, so
  // the first get is a disk hit that promotes, the second a memory hit.
  ResultCache cache(/*capacity=*/4, /*shards=*/2);
  store::RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(cache.attach_store(disk, &recovery, &error)) << error;
  EXPECT_EQ(recovery.records, 10u);
  bool from_disk = false;
  PayloadPtr hit = cache.get("key7", &from_disk);
  ASSERT_TRUE(hit);
  EXPECT_TRUE(from_disk);
  EXPECT_EQ(*hit, "value-7");
  hit = cache.get("key7", &from_disk);
  ASSERT_TRUE(hit);
  EXPECT_FALSE(from_disk) << "the promoted entry must hit in memory";
  EXPECT_EQ(*hit, "value-7");
  EXPECT_FALSE(cache.get("never-stored", &from_disk));
  EXPECT_FALSE(from_disk);
}

TEST(TieredCache, WarmRestartServesByteIdenticalDiskHits) {
  TempDir dir("warm");
  const std::string socket =
      "/tmp/qbss-store-test-" + std::to_string(::getpid()) + "-warm.sock";
  Request request;
  request.algo = "bkpq";
  request.instance = gen::random_online(8, 10.0, 0.5, 4.0, 33);

  std::string first_payload;
  {
    ServerConfig config;
    config.socket_path = socket;
    config.workers = 1;
    config.cache_dir = dir.path;
    config.cache_sync = "always";
    Server server(std::move(config));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect_unix(socket, &error)) << error;
    Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, Status::kOk) << reply.payload;
    EXPECT_FALSE(reply.cache_hit);
    first_payload = reply.payload;
    server.shutdown();
    server.wait();
  }

  ServerConfig config;
  config.socket_path = socket;
  config.workers = 1;
  config.cache_dir = dir.path;
  Server server(std::move(config));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect_unix(socket, &error)) << error;

  // First request after the restart: nothing solved this lifetime, so
  // the answer must come off disk, flagged as such, byte-identical.
  Client::Reply warm;
  ASSERT_TRUE(client.call(request, &warm, &error)) << error;
  ASSERT_EQ(warm.status, Status::kOk) << warm.payload;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.disk_hit);
  EXPECT_EQ(warm.payload, first_payload);

  // The disk hit promoted the entry: the repeat is a memory hit with
  // the same bytes.
  Client::Reply memory;
  ASSERT_TRUE(client.call(request, &memory, &error)) << error;
  ASSERT_EQ(memory.status, Status::kOk);
  EXPECT_TRUE(memory.cache_hit);
  EXPECT_FALSE(memory.disk_hit);
  EXPECT_EQ(memory.payload, first_payload);

  server.shutdown();
  server.wait();
  std::remove(socket.c_str());
}

#ifndef QBSS_FAULTS_OFF
TEST(StoreFaults, AtStoreClausesInjectOnStoreSitesOnly) {
  struct InjectorReset {
    ~InjectorReset() { faults::injector().configure(faults::FaultPlan{}); }
  } reset;
  TempDir dir("faults");
  StoreConfig config;
  config.dir = dir.path;
  SegmentStore store;
  std::string error;
  ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
  ASSERT_TRUE(store.append("present", "payload", &error)) << error;

  // write_err at the store site: the append fails, the store survives.
  faults::FaultPlan plan;
  std::string plan_error;
  ASSERT_TRUE(faults::parse_plan("seed=5,write_err:at=store:p=1", &plan,
                                 &plan_error))
      << plan_error;
  faults::injector().configure(plan);
  EXPECT_FALSE(store.append("victim", "never-lands", &error));
  EXPECT_NE(error.find("injected store write"), std::string::npos) << error;

  // read_short at the store site: a present key reads as a miss.
  ASSERT_TRUE(faults::parse_plan("seed=5,read_short:at=store:p=1", &plan,
                                 &plan_error))
      << plan_error;
  faults::injector().configure(plan);
  EXPECT_FALSE(store.find("present"));
  EXPECT_TRUE(store.contains("present"))
      << "an injected short read is transient, not an index drop";

  // Back to no faults: everything works again.
  faults::injector().configure(faults::FaultPlan{});
  const StorePayloadPtr hit = store.find("present");
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "payload");
}

TEST(StoreFaults, CorruptHeaderLandsOnDiskAndRecoverySkipsIt) {
  struct InjectorReset {
    ~InjectorReset() { faults::injector().configure(faults::FaultPlan{}); }
  } reset;
  TempDir dir("corruptinject");
  StoreConfig config;
  config.dir = dir.path;
  {
    SegmentStore store;
    std::string error;
    ASSERT_TRUE(store.open(config, nullptr, &error)) << error;
    ASSERT_TRUE(store.append("good", "kept-payload", &error)) << error;

    faults::FaultPlan plan;
    std::string plan_error;
    ASSERT_TRUE(faults::parse_plan("seed=9,corrupt_header:at=store:p=1",
                                   &plan, &plan_error))
        << plan_error;
    faults::injector().configure(plan);
    // The damaged record goes to disk but is never indexed — the fault
    // injects exactly the on-disk corruption recovery exists to absorb.
    ASSERT_TRUE(store.append("damaged", "poisoned-payload", &error)) << error;
    EXPECT_FALSE(store.contains("damaged"));
    faults::injector().configure(faults::FaultPlan{});
    ASSERT_TRUE(store.append("after", "also-kept", &error)) << error;
    store.close();
  }
  SegmentStore store;
  RecoveryStats recovery;
  std::string error;
  ASSERT_TRUE(store.open(config, &recovery, &error)) << error;
  EXPECT_EQ(recovery.corrupt_skipped, 1u);
  EXPECT_EQ(recovery.records, 2u);
  EXPECT_TRUE(store.find("good"));
  EXPECT_FALSE(store.find("damaged"));
  EXPECT_TRUE(store.find("after"))
      << "recovery must resynchronize past the injected corruption";
}
#endif  // QBSS_FAULTS_OFF

}  // namespace
}  // namespace qbss::svc::store
