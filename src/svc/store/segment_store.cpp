#include "svc/store/segment_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "faults/faults.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "svc/store/crc32c.hpp"

namespace qbss::svc::store {

namespace {

using A = obs::LogArg;

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v & 0xff);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xff);
  out[2] = static_cast<unsigned char>((v >> 16) & 0xff);
  out[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::string segment_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%08llu.qseg",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Parses a segment id: decimal digits only, at most 2^64 - 1. False for
/// anything else, so a value that would wrap is malformed like any other.
bool parse_id(std::string_view digits, std::uint64_t* id) {
  const char* end = digits.data() + digits.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *id = value;
  return true;
}

/// Parses "seg-NNNNNNNN.qseg" back to its id; false for anything else.
bool parse_segment_name(const std::string& name, std::uint64_t* id) {
  if (name.size() < 10 || name.rfind("seg-", 0) != 0) return false;
  if (name.size() < 5 + 5 || name.substr(name.size() - 5) != ".qseg") {
    return false;
  }
  return parse_id(std::string_view(name).substr(4, name.size() - 9), id);
}

/// The decoded fixed-size record header.
struct RecordHeader {
  std::uint32_t key_len = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t data_crc = 0;
};

void encode_record_header(const RecordHeader& h,
                          unsigned char out[kRecordHeaderSize]) {
  put_u32(out, kRecordMagic);
  put_u32(out + 4, kRecordVersion);
  put_u32(out + 8, h.key_len);
  put_u32(out + 12, h.payload_len);
  put_u32(out + 16, h.data_crc);
  // Self-checksum over the first 20 bytes: a header either validates
  // whole or the scanner resynchronizes — lengths are never trusted from
  // a damaged header.
  put_u32(out + 20, crc32c(std::string_view(
                        reinterpret_cast<const char*>(out), 20)));
}

bool decode_record_header(const unsigned char in[kRecordHeaderSize],
                          RecordHeader* h) {
  if (get_u32(in) != kRecordMagic) return false;
  if (get_u32(in + 4) != kRecordVersion) return false;
  const std::uint32_t head_crc = crc32c(
      std::string_view(reinterpret_cast<const char*>(in), 20));
  if (get_u32(in + 20) != head_crc) return false;
  h->key_len = get_u32(in + 8);
  h->payload_len = get_u32(in + 12);
  h->data_crc = get_u32(in + 16);
  if (h->key_len == 0 || h->key_len > kMaxKeyLen) return false;
  if (h->payload_len > kMaxRecordPayload) return false;
  return true;
}

bool write_all(int fd, const void* data, std::size_t len, std::uint64_t off,
               std::size_t* written, std::string* error) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, p + done, len - done,
                               static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("pwrite: ") + std::strerror(errno);
      if (written) *written = done;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (written) *written = done;
  return true;
}

bool read_all(int fd, void* data, std::size_t len, std::uint64_t off,
              std::string* error) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, p + done, len - done, static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("pread: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      if (error) *error = "short read";
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_fd(int fd, std::string* error) {
  if (::fsync(fd) == 0) return true;
  if (error) *error = std::string("fsync: ") + std::strerror(errno);
  return false;
}

/// fsyncs the directory itself so renames/unlinks/creates inside it are
/// durable (the classic crash-safe-rename second half).
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Mirrors the server's per-clause `faults.fired` event for store sites.
void log_store_fault(const faults::Action& action, const char* site) {
  for (std::uint32_t kind = 0; kind < faults::FaultSpec::kKindCount; ++kind) {
    if ((action.fired_kinds & (1u << kind)) == 0) continue;
    QBSS_LOG_WARN(
        "faults.fired", 0, A("site", site),
        A("kind",
          faults::kind_name(static_cast<faults::FaultSpec::Kind>(kind))),
        A("conn", 0), A("delay_ms", action.delay_ms));
  }
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

SegmentStore::~SegmentStore() { close(); }

bool SegmentStore::is_open() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

bool SegmentStore::open(StoreConfig config, RecoveryStats* stats,
                        std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (open_) {
    if (error) *error = "store already open";
    return false;
  }
  if (config.dir.empty()) {
    if (error) *error = "store: no directory";
    return false;
  }
  if (config.segment_bytes < 4096) config.segment_bytes = 4096;
  if (config.budget_bytes < config.segment_bytes) {
    config.budget_bytes = config.segment_bytes;
  }
  config_ = std::move(config);

  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (error) {
      *error = "mkdir " + config_.dir + ": " + std::strerror(errno);
    }
    return false;
  }

  RecoveryStats recovered;

  // Manifest first: the authoritative list of live segments. A missing
  // or unreadable manifest (crash before the first rewrite, or manual
  // deletion) degrades to a directory scan — records are never orphaned
  // just because the name list died.
  std::vector<std::string> names;
  bool have_manifest = false;
  const std::string manifest_path = config_.dir + "/MANIFEST";
  if (std::FILE* f = std::fopen(manifest_path.c_str(), "r")) {
    char line[512];
    bool good = f != nullptr;
    bool first = true;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      std::string text(line);
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
      if (text.empty()) continue;
      if (first) {
        good = text == "qbss-store/1";
        first = false;
        if (!good) break;
        continue;
      }
      if (text.rfind("next ", 0) == 0) {
        if (!parse_id(std::string_view(text).substr(5), &next_segment_id_)) {
          good = false;
          break;
        }
        continue;
      }
      if (text.rfind("seg ", 0) == 0) {
        names.push_back(text.substr(4));
        continue;
      }
      good = false;
      break;
    }
    std::fclose(f);
    have_manifest = good && !first;
  }

  // Collect what is actually on disk (for rebuild and garbage sweep).
  std::vector<std::pair<std::uint64_t, std::string>> on_disk;
  std::vector<std::string> strays;
  if (DIR* d = ::opendir(config_.dir.c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == ".." || name == "MANIFEST") continue;
      std::uint64_t id = 0;
      if (parse_segment_name(name, &id)) {
        on_disk.emplace_back(id, name);
      } else {
        strays.push_back(name);  // tmp files from an interrupted rewrite
      }
    }
    ::closedir(d);
  }
  std::sort(on_disk.begin(), on_disk.end());

  if (!have_manifest) {
    recovered.manifest_rebuilt = true;
    names.clear();
    for (const auto& [id, name] : on_disk) names.push_back(name);
  } else {
    // Segment files on disk but absent from the manifest are garbage
    // from an interrupted compaction or a crashed rotation: delete them
    // rather than resurrect records the manifest already disowned.
    for (const auto& [id, name] : on_disk) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        ::unlink((config_.dir + "/" + name).c_str());
      }
    }
  }
  for (const std::string& name : strays) {
    ::unlink((config_.dir + "/" + name).c_str());
  }

  // Each segment id once: a damaged manifest can list a segment twice,
  // and reads find a segment by id, so records appended to the second
  // entry would be looked up in the first.
  std::vector<std::pair<std::uint64_t, std::string>> listed;
  for (const std::string& name : names) {
    std::uint64_t id = 0;
    if (!parse_segment_name(name, &id)) continue;
    if (std::none_of(listed.begin(), listed.end(),
                     [id](const auto& entry) { return entry.first == id; })) {
      listed.emplace_back(id, name);
    }
  }

  // Scan every listed segment in age order; later records win the index.
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const auto& [id, name] = listed[i];
    Segment seg;
    seg.id = id;
    seg.path = config_.dir + "/" + name;
    const bool newest = i + 1 == listed.size();
    if (!scan_segment_locked(seg, newest, &recovered, error)) {
      release_locked();
      return false;
    }
    if (id >= next_segment_id_) next_segment_id_ = id + 1;
    total_bytes_ += seg.size;
    segments_.push_back(std::move(seg));
  }
  recovered.segments = segments_.size();

  // Seal everything but a still-roomy newest segment; reopen or create
  // the active one. With no fresh id left the full newest segment stays
  // active, readable, and append reports the exhaustion.
  bool need_fresh_active = true;
  if (!segments_.empty() &&
      (segments_.back().size < config_.segment_bytes ||
       !fresh_id_locked(next_segment_id_))) {
    need_fresh_active = false;
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    const bool active = !need_fresh_active && i + 1 == segments_.size();
    if (active || seg.size == 0) continue;
    seg.map = ::mmap(nullptr, seg.size, PROT_READ, MAP_SHARED, seg.fd, 0);
    if (seg.map == MAP_FAILED) {
      seg.map = nullptr;  // pread fallback keeps the segment readable
    } else {
      seg.map_len = seg.size;
    }
  }
  if (need_fresh_active) {
    if (!open_active_locked(next_segment_id_++, error)) {
      release_locked();
      return false;
    }
  }

  recovered.records = index_.size();
  recovered.bytes = total_bytes_;
  open_ = true;
  if (!write_manifest_locked(error)) {
    open_ = false;
    release_locked();
    return false;
  }

  QBSS_COUNT_ADD("store.recovered", recovered.records);
  QBSS_LOG_INFO("cache.recover", 0, A("dir", config_.dir),
                A("segments", recovered.segments),
                A("records", recovered.records),
                A("corrupt_skipped", recovered.corrupt_skipped),
                A("torn_tail_bytes", recovered.torn_tail_bytes),
                A("bytes", recovered.bytes),
                A("manifest_rebuilt", recovered.manifest_rebuilt));
  if (stats) *stats = recovered;
  return true;
}

bool SegmentStore::scan_segment_locked(Segment& seg, bool newest,
                                       RecoveryStats* stats,
                                       std::string* error) {
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (seg.fd < 0) {
    if (error) *error = "open " + seg.path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st{};
  if (::fstat(seg.fd, &st) != 0) {
    if (error) *error = "fstat " + seg.path + ": " + std::strerror(errno);
    return false;
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  std::string bytes(size, '\0');
  if (size > 0 && !read_all(seg.fd, bytes.data(), size, 0, error)) {
    if (error) *error = "read " + seg.path + ": " + *error;
    return false;
  }

  const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto skip_log = [&](std::uint64_t off, const char* reason) {
    ++stats->corrupt_skipped;
    QBSS_COUNT("store.corrupt_skipped");
    QBSS_LOG_WARN("cache.corrupt_skipped", 0, A("segment", seg.path),
                  A("offset", off), A("reason", reason));
  };
  std::uint64_t off = 0;
  while (off < size) {
    // A partial header can only be a torn tail append.
    if (size - off < kRecordHeaderSize) {
      if (newest) {
        stats->torn_tail_bytes += size - off;
        QBSS_COUNT("store.torn_tail");
        ::ftruncate(seg.fd, static_cast<off_t>(off));
        size = off;
      } else {
        skip_log(off, "trailing partial header");
      }
      break;
    }
    RecordHeader header;
    if (!decode_record_header(raw + off, &header)) {
      // Damaged header: the lengths cannot be trusted, so resynchronize
      // by scanning forward for the next offset that validates as a
      // whole header. The skipped gap counts as one corrupt record.
      skip_log(off, "bad record header");
      std::uint64_t next = off + 1;
      bool found = false;
      while (next + kRecordHeaderSize <= size) {
        RecordHeader candidate;
        if (get_u32(raw + next) == kRecordMagic &&
            decode_record_header(raw + next, &candidate)) {
          found = true;
          break;
        }
        ++next;
      }
      if (!found) {
        if (newest) {
          // The damaged bytes end the file: treat them as a torn tail so
          // the next append starts from a clean boundary.
          stats->torn_tail_bytes += size - off;
          QBSS_COUNT("store.torn_tail");
          ::ftruncate(seg.fd, static_cast<off_t>(off));
          size = off;
        }
        break;
      }
      off = next;
      continue;
    }
    const std::uint64_t body = static_cast<std::uint64_t>(header.key_len) +
                               header.payload_len;
    if (off + kRecordHeaderSize + body > size) {
      // Record body runs past EOF: a torn append on the newest segment
      // (truncate it away), data loss anywhere else (count it).
      if (newest) {
        stats->torn_tail_bytes += size - off;
        QBSS_COUNT("store.torn_tail");
        ::ftruncate(seg.fd, static_cast<off_t>(off));
        size = off;
      } else {
        skip_log(off, "record past end of segment");
      }
      break;
    }
    const std::string_view key_bytes(bytes.data() + off + kRecordHeaderSize,
                                     header.key_len);
    const std::string_view payload_bytes(
        bytes.data() + off + kRecordHeaderSize + header.key_len,
        header.payload_len);
    if (crc32c_extend(crc32c(key_bytes), payload_bytes) != header.data_crc) {
      skip_log(off, "data checksum mismatch");
      off += kRecordHeaderSize + body;
      continue;
    }
    index_[std::string(key_bytes)] =
        Location{seg.id, off, header.key_len, header.payload_len};
    off += kRecordHeaderSize + body;
  }
  seg.size = size;
  return true;
}

bool SegmentStore::open_active_locked(std::uint64_t id, std::string* error) {
  Segment seg;
  seg.id = id;
  seg.path = config_.dir + "/" + segment_name(id);
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (seg.fd < 0) {
    if (error) *error = "open " + seg.path + ": " + std::strerror(errno);
    return false;
  }
  segments_.push_back(std::move(seg));
  return true;
}

bool SegmentStore::fresh_id_locked(std::uint64_t id) const {
  return std::all_of(segments_.begin(), segments_.end(),
                     [id](const Segment& seg) { return seg.id < id; });
}

bool SegmentStore::seal_active_locked(std::string* error) {
  if (!fresh_id_locked(next_segment_id_)) {
    if (error) *error = "segment ids exhausted";
    return false;
  }
  Segment& seg = segments_.back();
  if (!fsync_fd(seg.fd, error)) return false;
  if (seg.size > 0) {
    seg.map = ::mmap(nullptr, seg.size, PROT_READ, MAP_SHARED, seg.fd, 0);
    if (seg.map == MAP_FAILED) {
      seg.map = nullptr;  // reads fall back to pread
    } else {
      seg.map_len = seg.size;
    }
  }
  QBSS_COUNT("store.seal");
  if (!open_active_locked(next_segment_id_++, error)) return false;
  return write_manifest_locked(error);
}

bool SegmentStore::write_manifest_locked(std::string* error) {
  const std::string tmp = config_.dir + "/MANIFEST.qtmp";
  const std::string path = config_.dir + "/MANIFEST";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error) *error = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  std::ostringstream out;
  out << "qbss-store/1\n";
  out << "next " << next_segment_id_ << '\n';
  for (const Segment& seg : segments_) {
    out << "seg " << segment_name(seg.id) << '\n';
  }
  const std::string text = out.str();
  std::string werr;
  const bool ok = write_all(fd, text.data(), text.size(), 0, nullptr, &werr) &&
                  fsync_fd(fd, &werr);
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    if (error) *error = "write " + tmp + ": " + werr;
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    if (error) *error = "rename " + tmp + ": " + std::strerror(errno);
    return false;
  }
  fsync_dir(config_.dir);
  return true;
}

bool SegmentStore::append(const std::string& key, const std::string& payload,
                          std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    if (error) *error = "store not open";
    return false;
  }
  if (key.empty() || key.size() > kMaxKeyLen) {
    if (error) *error = "record key length out of range";
    return false;
  }
  if (payload.size() > kMaxRecordPayload) {
    if (error) *error = "record payload exceeds limit";
    return false;
  }

  const faults::Action fault = QBSS_FAULT(faults::Site::kStoreWrite);
  log_store_fault(fault, "store_write");
  if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
  if (fault.drop_connection) {
    if (error) *error = "injected store write error";
    return false;
  }

  RecordHeader header;
  header.key_len = static_cast<std::uint32_t>(key.size());
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.data_crc = crc32c_extend(crc32c(key), payload);
  unsigned char raw[kRecordHeaderSize];
  encode_record_header(header, raw);
  if (fault.corrupt_header) {
    // Injected on-disk corruption: the record lands with a damaged
    // header byte, so this key is lost and the next recovery must skip
    // the record (that is the point — recovery gets exercised).
    raw[20] ^= 0x55;
  }

  // A full active segment means its seal failed: seal before writing,
  // so a segment that cannot be sealed takes no more records.
  if (segments_.back().size >= config_.segment_bytes &&
      !seal_active_locked(error)) {
    return false;
  }
  Segment& seg = segments_.back();
  std::string record;
  record.reserve(kRecordHeaderSize + key.size() + payload.size());
  record.append(reinterpret_cast<const char*>(raw), kRecordHeaderSize);
  record += key;
  record += payload;
  std::size_t written = 0;
  std::string werr;
  const bool ok =
      write_all(seg.fd, record.data(), record.size(), seg.size, &written,
                &werr);
  // Partially written bytes are on disk either way; recovery handles the
  // torn tail, but accounting must include them now.
  seg.size += written;
  total_bytes_ += written;
  if (!ok) {
    if (error) *error = "append " + seg.path + ": " + werr;
    return false;
  }
  ++appended_records_;
  QBSS_COUNT("store.append");
  QBSS_COUNT_ADD("store.append_bytes", record.size());
  if (!fault.corrupt_header) {
    index_[key] = Location{seg.id, seg.size - record.size(), header.key_len,
                           header.payload_len};
  }
  if (seg.size >= config_.segment_bytes) {
    if (!seal_active_locked(error)) return false;
    enforce_budget_locked();
  }
  return true;
}

SegmentStore::Segment* SegmentStore::segment_by_id_locked(std::uint64_t id) {
  for (Segment& seg : segments_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

StorePayloadPtr SegmentStore::read_record_locked(const std::string& key,
                                                 const Location& loc,
                                                 std::string* why) {
  Segment* seg = segment_by_id_locked(loc.segment_id);
  if (seg == nullptr) {
    if (why) *why = "segment gone";
    return nullptr;
  }
  const std::uint64_t total =
      kRecordHeaderSize + static_cast<std::uint64_t>(loc.key_len) +
      loc.payload_len;
  if (loc.offset + total > seg->size) {
    if (why) *why = "record past end of segment";
    return nullptr;
  }
  std::string buf;
  const char* record = nullptr;
  if (seg->map != nullptr && loc.offset + total <= seg->map_len) {
    record = static_cast<const char*>(seg->map) + loc.offset;
  } else {
    buf.assign(total, '\0');
    std::string rerr;
    if (!read_all(seg->fd, buf.data(), total, loc.offset, &rerr)) {
      if (why) *why = rerr;
      return nullptr;
    }
    record = buf.data();
  }
  RecordHeader header;
  if (!decode_record_header(reinterpret_cast<const unsigned char*>(record),
                            &header) ||
      header.key_len != loc.key_len || header.payload_len != loc.payload_len) {
    if (why) *why = "bad record header";
    return nullptr;
  }
  const std::string_view key_bytes(record + kRecordHeaderSize, loc.key_len);
  const std::string_view payload_bytes(
      record + kRecordHeaderSize + loc.key_len, loc.payload_len);
  if (key_bytes != key) {
    if (why) *why = "key mismatch";
    return nullptr;
  }
  if (crc32c_extend(crc32c(key_bytes), payload_bytes) != header.data_crc) {
    if (why) *why = "data checksum mismatch";
    return nullptr;
  }
  return std::make_shared<const std::string>(payload_bytes);
}

StorePayloadPtr SegmentStore::find(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return nullptr;
  const faults::Action fault = QBSS_FAULT(faults::Site::kStoreRead);
  log_store_fault(fault, "store_read");
  if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
  if (fault.drop_connection) return nullptr;  // injected short read = miss
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  std::string why;
  StorePayloadPtr payload = read_record_locked(key, it->second, &why);
  if (payload == nullptr) {
    // Bitrot after recovery: behave exactly like recovery would — count,
    // log, and drop the entry so the tier reports a miss, never garbage.
    QBSS_COUNT("store.corrupt_skipped");
    QBSS_LOG_WARN("cache.corrupt_skipped", 0,
                  A("segment", segment_name(it->second.segment_id)),
                  A("offset", it->second.offset), A("reason", why));
    index_.erase(it);
  }
  return payload;
}

bool SegmentStore::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return open_ && index_.count(key) > 0;
}

void SegmentStore::sync() {
  // fsync a copy of the active segment's descriptor outside the lock, so
  // finds and appends never wait on the disk, and a seal or close that
  // retires the segment meanwhile cannot close the fd under the fsync.
  // Sealed segments were fsynced by seal_active_locked.
  int fd = -1;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!open_ || segments_.empty()) return;
    fd = ::dup(segments_.back().fd);
  }
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void SegmentStore::release_locked() {
  for (Segment& seg : segments_) {
    if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
    if (seg.fd >= 0) ::close(seg.fd);
  }
  segments_.clear();
  index_.clear();
  total_bytes_ = 0;
}

void SegmentStore::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return;
  if (!segments_.empty()) ::fsync(segments_.back().fd);
  std::string ignored;
  static_cast<void>(write_manifest_locked(&ignored));
  release_locked();
  open_ = false;
}

std::size_t SegmentStore::verify(std::vector<std::string>* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t failures = 0;
  for (const auto& [key, loc] : index_) {
    std::string why;
    if (read_record_locked(key, loc, &why) == nullptr) {
      ++failures;
      if (out) {
        std::ostringstream line;
        line << segment_name(loc.segment_id) << " offset " << loc.offset
             << ": " << why;
        out->push_back(line.str());
      }
    }
  }
  return failures;
}

void SegmentStore::drop_segment_locked(std::size_t index) {
  Segment& seg = segments_[index];
  for (auto it = index_.begin(); it != index_.end();) {
    it = it->second.segment_id == seg.id ? index_.erase(it) : std::next(it);
  }
  if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
  if (seg.fd >= 0) ::close(seg.fd);
  ::unlink(seg.path.c_str());
  total_bytes_ -= seg.size;
  ++dropped_segments_;
  QBSS_COUNT("store.segment_drop");
  segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(index));
}

void SegmentStore::enforce_budget_locked() {
  bool dropped = false;
  while (total_bytes_ > config_.budget_bytes && segments_.size() > 1) {
    drop_segment_locked(0);
    dropped = true;
  }
  if (dropped) {
    std::string ignored;
    static_cast<void>(write_manifest_locked(&ignored));
  }
}

bool SegmentStore::compact(std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    if (error) *error = "store not open";
    return false;
  }
  const std::uint64_t before_bytes = total_bytes_;

  // Live records in age order (stable read locality, oldest first).
  std::vector<std::pair<const std::string*, const Location*>> live;
  live.reserve(index_.size());
  for (const auto& [key, loc] : index_) live.emplace_back(&key, &loc);
  std::sort(live.begin(), live.end(), [this](const auto& a, const auto& b) {
    auto order = [this](const Location& loc) {
      for (std::size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].id == loc.segment_id) return i;
      }
      return segments_.size();
    };
    const std::size_t sa = order(*a.second);
    const std::size_t sb = order(*b.second);
    return sa != sb ? sa < sb : a.second->offset < b.second->offset;
  });

  // Rewrite into fresh segments under temporary ids; nothing old is
  // touched until every new byte is durable.
  std::vector<Segment> fresh;
  std::unordered_map<std::string, Location> fresh_index;
  std::uint64_t fresh_bytes = 0;
  std::uint64_t next_id = next_segment_id_;
  std::size_t unreadable = 0;
  const auto fail = [&](const std::string& message) {
    for (Segment& seg : fresh) {
      if (seg.fd >= 0) ::close(seg.fd);
      ::unlink(seg.path.c_str());
    }
    if (error) *error = message;
    return false;
  };
  const auto open_fresh = [&]() {
    // Past 2^64 - 1 the ids would wrap onto live segments.
    if (!(fresh.empty() ? fresh_id_locked(next_id)
                        : next_id > fresh.back().id)) {
      return false;
    }
    Segment seg;
    seg.id = next_id++;
    seg.path = config_.dir + "/" + segment_name(seg.id);
    seg.fd = ::open(seg.path.c_str(),
                    O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (seg.fd < 0) return false;
    fresh.push_back(std::move(seg));
    return true;
  };
  if (!open_fresh()) return fail("compact: cannot create fresh segment");
  for (const auto& [key, loc] : live) {
    std::string why;
    const StorePayloadPtr payload = read_record_locked(*key, *loc, &why);
    if (payload == nullptr) {
      ++unreadable;  // dropped: compaction only carries verified bytes
      QBSS_COUNT("store.corrupt_skipped");
      continue;
    }
    RecordHeader header;
    header.key_len = static_cast<std::uint32_t>(key->size());
    header.payload_len = static_cast<std::uint32_t>(payload->size());
    header.data_crc = crc32c_extend(crc32c(*key), *payload);
    unsigned char raw[kRecordHeaderSize];
    encode_record_header(header, raw);
    std::string record;
    record.reserve(kRecordHeaderSize + key->size() + payload->size());
    record.append(reinterpret_cast<const char*>(raw), kRecordHeaderSize);
    record += *key;
    record += *payload;
    Segment* seg = &fresh.back();
    if (seg->size + record.size() > config_.segment_bytes && seg->size > 0) {
      std::string serr;
      if (!fsync_fd(seg->fd, &serr)) return fail("compact: " + serr);
      if (!open_fresh()) return fail("compact: cannot create fresh segment");
      seg = &fresh.back();
    }
    std::string werr;
    if (!write_all(seg->fd, record.data(), record.size(), seg->size, nullptr,
                   &werr)) {
      return fail("compact: " + werr);
    }
    fresh_index[*key] = Location{seg->id, seg->size, header.key_len,
                                 header.payload_len};
    seg->size += record.size();
    fresh_bytes += record.size();
  }
  for (Segment& seg : fresh) {
    std::string serr;
    if (!fsync_fd(seg.fd, &serr)) return fail("compact: " + serr);
  }
  fsync_dir(config_.dir);

  // The swap: the manifest rename is the commit point. The old index
  // and byte accounting are untouched until it succeeds, so a manifest
  // failure restores the old segment list and the store is exactly as
  // before (modulo fresh files, which are unlinked here and swept by
  // the next open() if we crash first).
  const std::uint64_t saved_next = next_segment_id_;
  std::vector<Segment> old = std::move(segments_);
  segments_ = std::move(fresh);
  next_segment_id_ = next_id;
  std::string merr;
  if (!write_manifest_locked(&merr)) {
    for (Segment& seg : segments_) {
      if (seg.fd >= 0) ::close(seg.fd);
      ::unlink(seg.path.c_str());
    }
    segments_ = std::move(old);
    next_segment_id_ = saved_next;
    if (error) *error = "compact: " + merr;
    return false;
  }
  index_ = std::move(fresh_index);
  total_bytes_ = fresh_bytes;
  // Seal every full fresh segment (mmap); the last one stays active.
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (seg.size == 0) continue;
    seg.map = ::mmap(nullptr, seg.size, PROT_READ, MAP_SHARED, seg.fd, 0);
    if (seg.map == MAP_FAILED) seg.map = nullptr;
    else seg.map_len = seg.size;
  }
  for (Segment& seg : old) {
    if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
    if (seg.fd >= 0) ::close(seg.fd);
    ::unlink(seg.path.c_str());
  }
  fsync_dir(config_.dir);
  QBSS_COUNT("store.compact");
  QBSS_LOG_INFO("cache.compact", 0, A("before_bytes", before_bytes),
                A("after_bytes", total_bytes_),
                A("records", index_.size()), A("unreadable", unreadable));
  return true;
}

StoreStats SegmentStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  StoreStats out;
  out.segments = segments_.size();
  out.live_records = index_.size();
  out.bytes = total_bytes_;
  out.appended_records = appended_records_;
  out.dropped_segments = dropped_segments_;
  return out;
}

std::vector<SegmentInfo> SegmentStore::segments() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    SegmentInfo info;
    info.id = seg.id;
    info.name = segment_name(seg.id);
    info.bytes = seg.size;
    info.active = i + 1 == segments_.size();
    out.push_back(std::move(info));
  }
  for (const auto& [key, loc] : index_) {
    for (SegmentInfo& info : out) {
      if (info.id == loc.segment_id) {
        ++info.live_records;
        break;
      }
    }
  }
  return out;
}

}  // namespace qbss::svc::store
