// qbss::svc::store — the crash-safe on-disk tier behind ResultCache.
//
// An append-only segment store: records (key + serialized response
// payload) are framed with a fixed 24-byte header (magic, version,
// lengths, CRC32C over key+payload, and a CRC32C over the header itself)
// and appended to the active segment file. Segments seal at a size
// threshold, after which they are mmap'd read-only; a fsync'd MANIFEST
// names the live segments in age order. docs/DURABILITY.md specifies the
// byte layout and recovery semantics precisely.
//
// Crash safety is scan-and-verify, never trust-and-crash: open() replays
// every manifested segment, checks both checksums on every record,
// truncates a torn tail record on the newest segment (the only place an
// interrupted append can land), resynchronizes past corrupt records by
// scanning for the next valid header, and counts what it skipped
// (`store.corrupt_skipped`) instead of failing the whole store. A
// missing manifest is rebuilt from the segment files on disk.
//
// Later appends of the same key supersede earlier ones; compact()
// rewrites only the live records into fresh segments and swaps them in
// atomically via the manifest rename, dropping superseded and corrupt
// garbage. When the store grows past its byte budget the oldest sealed
// segment is dropped whole (it holds the least-recently-written data).
//
// Fault injection: appends consume a `QBSS_FAULT(kStoreWrite)`
// opportunity (write_err => failed append, corrupt_header => the record
// goes to disk with a flipped header byte so a later recovery must skip
// it) and reads consume `QBSS_FAULT(kStoreRead)` (read_short => the
// lookup misses), so the chaos plans from PR 5 exercise recovery
// deterministically with `at=store` clauses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace qbss::svc::store {

/// A pinned, immutable payload read from the store (same shape as
/// svc::PayloadPtr; spelled out to keep this header self-contained).
using StorePayloadPtr = std::shared_ptr<const std::string>;

/// Sizing and placement knobs for one store directory.
struct StoreConfig {
  std::string dir;  ///< directory holding segments + MANIFEST
  /// Total on-disk byte budget; the oldest sealed segment is dropped
  /// whole when the store grows past it (>= one segment is always kept).
  std::uint64_t budget_bytes = 256ull << 20;
  /// Seal threshold: the active segment rotates once it reaches this.
  std::uint64_t segment_bytes = 8ull << 20;
};

/// What open() found while replaying the directory.
struct RecoveryStats {
  std::size_t segments = 0;         ///< segment files scanned
  std::size_t records = 0;          ///< live records indexed
  std::size_t corrupt_skipped = 0;  ///< records dropped by checksum/framing
  std::uint64_t torn_tail_bytes = 0;  ///< bytes truncated off the tail
  std::uint64_t bytes = 0;            ///< store size after recovery
  bool manifest_rebuilt = false;      ///< MANIFEST was missing/unreadable
  /// Anything a flight recording should capture: corruption, a torn
  /// tail, or a rebuilt manifest (an unclean shutdown happened).
  [[nodiscard]] bool anomalous() const noexcept {
    return corrupt_skipped > 0 || torn_tail_bytes > 0 || manifest_rebuilt;
  }
};

/// Point-in-time store accounting (stats verb, manifests, `qbss cache`).
struct StoreStats {
  std::size_t segments = 0;
  std::size_t live_records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t appended_records = 0;  ///< appends since open
  std::uint64_t dropped_segments = 0;  ///< budget evictions since open
};

/// One live segment's identity (stats/tooling listing).
struct SegmentInfo {
  std::uint64_t id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  std::size_t live_records = 0;
  bool active = false;
};

/// The append-only checksummed record log. Thread-safe: one mutex
/// serializes appends, reads and maintenance (reads are rare — only
/// memory-tier misses land here).
class SegmentStore {
 public:
  SegmentStore() = default;
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Opens (creating the directory if needed) and recovers `config.dir`:
  /// scans every manifested segment, verifies every record, truncates a
  /// torn tail, skips + counts corrupt records, rebuilds a missing
  /// manifest. False + *error only on environmental failure (unusable
  /// directory, unreadable file) — corruption never fails recovery.
  [[nodiscard]] bool open(StoreConfig config, RecoveryStats* stats,
                          std::string* error);

  [[nodiscard]] bool is_open() const;

  /// Appends one record (superseding any earlier record for `key`),
  /// sealing/rotating the active segment and enforcing the byte budget
  /// as needed. False + *error on a write failure (including an injected
  /// `write_err:at=store`); the store stays usable.
  [[nodiscard]] bool append(const std::string& key,
                            const std::string& payload, std::string* error);

  /// Reads the live payload for `key`, re-verifying its checksum; null
  /// on absence, checksum failure (the entry is then dropped from the
  /// index) or an injected `read_short:at=store`.
  [[nodiscard]] StorePayloadPtr find(const std::string& key);

  [[nodiscard]] bool contains(const std::string& key) const;

  /// fsyncs the active segment (the persister calls this per its sync
  /// mode; sealing and close() always sync).
  void sync();

  /// Syncs, rewrites the manifest and releases every descriptor/map.
  /// open() may be called again afterwards.
  void close();

  /// Re-reads and re-verifies every live record. Returns the number of
  /// verification failures (0 = clean); `out`, when non-null, receives a
  /// human-readable report line per failure.
  [[nodiscard]] std::size_t verify(std::vector<std::string>* out);

  /// Rewrites live records into fresh segments and atomically swaps the
  /// manifest to name only them, dropping superseded/corrupt garbage and
  /// deleting the old files. False + *error leaves the old store intact.
  [[nodiscard]] bool compact(std::string* error);

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::vector<SegmentInfo> segments() const;
  [[nodiscard]] const std::string& dir() const noexcept {
    return config_.dir;
  }

 private:
  /// Where one live record's bytes sit.
  struct Location {
    std::uint64_t segment_id = 0;
    std::uint64_t offset = 0;  ///< record start (header) within segment
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
  };

  /// One segment file: sealed segments carry a read-only mmap, the
  /// active (last) one an append descriptor.
  struct Segment {
    std::uint64_t id = 0;
    std::string path;
    std::uint64_t size = 0;
    int fd = -1;              ///< append fd (active) or read fd (sealed)
    void* map = nullptr;      ///< mmap base (sealed only)
    std::size_t map_len = 0;
  };

  [[nodiscard]] bool scan_segment_locked(Segment& seg, bool newest,
                                         RecoveryStats* stats,
                                         std::string* error);
  [[nodiscard]] bool open_active_locked(std::uint64_t id, std::string* error);
  /// True when `id` may name a new segment. Ids only grow, so it must be
  /// above every live segment's id; a counter wrapped past 2^64 - 1 is
  /// not, and opening its file (O_TRUNC) could truncate a live segment.
  [[nodiscard]] bool fresh_id_locked(std::uint64_t id) const;
  /// Seals the active segment and opens the next; false + *error when
  /// no fresh id is left.
  [[nodiscard]] bool seal_active_locked(std::string* error);
  [[nodiscard]] bool write_manifest_locked(std::string* error);
  void enforce_budget_locked();
  void drop_segment_locked(std::size_t index);
  void release_locked();
  /// Reads + checksum-verifies the record at `loc`; null on any failure.
  [[nodiscard]] StorePayloadPtr read_record_locked(const std::string& key,
                                                   const Location& loc,
                                                   std::string* why);
  [[nodiscard]] Segment* segment_by_id_locked(std::uint64_t id);

  mutable std::mutex mu_;
  StoreConfig config_;
  bool open_ = false;
  std::uint64_t next_segment_id_ = 1;
  std::vector<Segment> segments_;  ///< age order; back() = active
  std::unordered_map<std::string, Location> index_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t dropped_segments_ = 0;
};

/// Record framing constants (shared with tests and docs).
inline constexpr std::uint32_t kRecordMagic = 0x31525351u;  // "QSR1" LE
inline constexpr std::uint32_t kRecordVersion = 1u;
inline constexpr std::size_t kRecordHeaderSize = 24;
inline constexpr std::uint32_t kMaxKeyLen = 1u << 20;
/// Matches the wire protocol's payload cap (svc::kMaxPayload).
inline constexpr std::uint32_t kMaxRecordPayload = 64u << 20;

}  // namespace qbss::svc::store
