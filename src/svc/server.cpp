#include "svc/server.hpp"

#include <algorithm>

#include "faults/faults.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace qbss::svc {

namespace {

using A = obs::LogArg;

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

bool deadline_expired(Clock::time_point admitted, double deadline_ms) {
  if (deadline_ms <= 0.0) return false;
  return elapsed_us(admitted) > deadline_ms * 1000.0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t ms_to_ns(double ms) {
  return static_cast<std::int64_t>(ms * 1e6);
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_entries, config_.cache_shards) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.queue_depth < 1) config_.queue_depth = 1;
  if (config_.batch < 1) config_.batch = 1;
}

Server::~Server() {
  shutdown();
  wait();
}

bool Server::start(std::string* error) {
  if (!config_.cache_dir.empty()) {
    // Open (and crash-recover) the disk tier before binding anything:
    // an unusable cache directory fails the whole start instead of
    // serving traffic that silently is not persisted.
    DiskTierConfig disk;
    disk.store.dir = config_.cache_dir;
    disk.store.budget_bytes = static_cast<std::size_t>(
        std::max(1.0, config_.cache_disk_mb) * 1024.0 * 1024.0);
    if (!parse_sync_mode(config_.cache_sync, &disk.sync)) {
      if (error) {
        *error = "bad --sync \"" + config_.cache_sync +
                 "\" (want none, interval or always)";
      }
      return false;
    }
    disk.sync_interval_ms = config_.cache_sync_interval_ms;
    store::RecoveryStats recovery;
    if (!cache_.attach_store(disk, &recovery, error)) return false;
    if (recovery.anomalous()) {
      // Corruption or a rebuilt manifest on startup is exactly what the
      // flight recorder exists for: arm the shutdown dump so the black
      // box of this run is preserved alongside the recovery log event.
      host_.note_flight_trigger();
    }
  }
  if (!host_.start(error)) return false;

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  log_server_start();
  return true;
}

void Server::log_server_start() {
  // The effective configuration as one event: every soak's log/flight
  // artifact is self-describing instead of relying on the CI command
  // line. Endpoint merged into one arg to stay within the arg budget.
  const faults::FaultPlan plan = faults::injector().plan();
  QBSS_LOG_INFO(
      "server.start", 0, A("endpoint", host_.endpoint_label()),
      A("workers", config_.workers), A("queue_depth", config_.queue_depth),
      A("cache_entries", config_.cache_entries),
      A("cache_shards", config_.cache_shards), A("batch", config_.batch),
      A("delay_ms", config_.delay_ms),
      A("read_timeout_ms", config_.read_timeout_ms),
      A("write_timeout_ms", config_.write_timeout_ms),
      A("drain_ms", config_.drain_ms),
      A("degraded_window_ms", config_.degraded_window_ms),
      A("stats_interval_ms", config_.stats_interval_ms),
      A("stats_ring", config_.stats_ring),
      A("trace_sample", config_.trace_sample),
      A("cache_dir", config_.cache_dir.empty()
                         ? std::string_view("none")
                         : std::string_view(config_.cache_dir)),
      A("fault_plan", plan.empty() ? std::string_view("none")
                                   : std::string_view(plan.text)));
}

void Server::shutdown() { host_.shutdown(); }

void Server::wait() { host_.wait(); }

void Server::on_shutdown() {
  if (config_.drain_ms > 0.0) {
    // Bound the shutdown drain: backlog still queued past this point is
    // shed instead of solved, so exit time is O(drain_ms) rather than
    // O(queue_depth * solve time).
    drain_deadline_ns_.store(now_ns() + ms_to_ns(config_.drain_ms),
                             std::memory_order_relaxed);
  }
  std::size_t queued = 0;
  {
    // Taken after the host set its stopping flag, so a worker cannot
    // check its wait predicate in between and miss the notify below.
    const std::lock_guard<std::mutex> lock(queue_mu_);
    queued = queue_.size();
  }
  QBSS_LOG_INFO("server.drain", 0, A("queued", queued),
                A("drain_ms", config_.drain_ms));
  queue_cv_.notify_all();
}

void Server::on_drain() {
  // Readers are gone, so the queue only shrinks now: workers drain the
  // remaining backlog (bounded by queue_depth) and exit.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Workers are gone, so no new puts: drain the write-behind queue and
  // sync, making a clean shutdown lose nothing regardless of sync mode.
  cache_.flush();
  QBSS_LOG_INFO("server.exit", 0, A("responses", responses()));
}

void Server::on_solve(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& frame, Request&& request,
                      const std::string& /*payload*/,
                      Clock::time_point received) {
  // Wire-trace sampling decision: the client stamped a uniform random
  // id, so divisibility picks ~1/trace_sample of traffic. Every response
  // echoes the id regardless; only sampled requests pay for stage
  // timestamps and span emission.
  WireTrace trace;
  trace.id = frame.trace_id;
  trace.sampled = frame.trace_id != 0 && config_.trace_sample != 0 &&
                  frame.trace_id % config_.trace_sample == 0 &&
                  obs::trace_enabled();
  if (trace.sampled) {
    QBSS_COUNT("svc.trace.sampled");
    // obs::now_ns() reads the same steady clock, so the host's receive
    // time is where the accept stage (frame read to parsed) starts.
    trace.read_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            received.time_since_epoch())
            .count());
    trace.parsed_ns = obs::now_ns();
  }

  Waiter self{conn, frame.request_id, received, 0.0, trace};

  const std::string key = cache_key(request);
  self.deadline_ms = request.deadline_ms;

  // Degradation ladder, rung 1: inside the post-overload window the
  // cache still answers (cheap, no queue), but misses are shed fast
  // instead of competing for the queue that just overflowed.
  const bool degraded =
      now_ns() < degraded_until_ns_.load(std::memory_order_relaxed);
  bool disk = false;
  const PayloadPtr hit = cache_.get(key, &disk);
  if (trace.sampled) {
    trace.cache_ns = obs::now_ns();
    self.trace = trace;
  }
  if (hit) {
    // Zero-copy hit: `hit` pins the shard's own bytes (a refcount bump,
    // no payload copy or allocation) and the scatter/gather write sends
    // them straight to the socket. The pin keeps the bytes alive even if
    // the entry is evicted or refreshed while the response drains. A
    // disk hit took one verified store read on the way up (promotion),
    // so it does not count as zero-copy; the payload bytes are
    // byte-identical either way and only the header flags differ.
    if (!disk) QBSS_COUNT("svc.hit.zero_copy");
    if (degraded) QBSS_COUNT("svc.degraded.served");
    QBSS_LOG_DEBUG("req.hit", trace.id, A("conn", conn->id),
                   A("req", frame.request_id), A("degraded", degraded),
                   A("disk", disk));
    respond(self, Status::kOk,
            kFlagCacheHit | (disk ? kFlagDiskHit : 0u), *hit);
    return;
  }
  if (degraded) {
    QBSS_COUNT("svc.shed.degraded");
    QBSS_LOG_WARN("req.degraded", trace.id, A("conn", conn->id),
                  A("req", frame.request_id));
    respond(self, Status::kShed, 0, "reason: degraded\n");
    return;
  }

  if (trace.sampled) {
    // The queue-wait span starts here: registration/coalescing below
    // copies `self` into the in-flight waiter list.
    trace.queued_ns = obs::now_ns();
    self.trace = trace;
  }
  auto inflight = std::make_shared<Inflight>();
  {
    const std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // Identical request already computing: join it, no second solve.
      QBSS_COUNT("svc.coalesced");
      it->second->waiters.push_back(self);
      return;
    }
    inflight->waiters.push_back(self);
    inflight_.emplace(key, inflight);
  }

  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (queue_.size() >= config_.queue_depth) {
      lock.unlock();
      // Undo the in-flight registration and shed every rider (another
      // reader may have coalesced onto it between the two locks).
      std::vector<Waiter> riders;
      {
        const std::lock_guard<std::mutex> ilock(inflight_mu_);
        riders = std::move(inflight->waiters);
        inflight_.erase(key);
      }
      for (const Waiter& w : riders) {
        QBSS_COUNT("svc.shed.queue");
        QBSS_LOG_WARN("req.shed", w.trace.id, A("conn", w.conn->id),
                      A("req", w.request_id), A("reason", "queue_full"));
        respond(w, Status::kShed, 0, "reason: queue_full\n");
      }
      if (config_.degraded_window_ms > 0.0) enter_degraded();
      return;
    }
    queue_.push_back(Task{key, std::move(request), std::move(inflight)});
    QBSS_COUNT("svc.admitted");
    QBSS_LOG_DEBUG("req.admit", trace.id, A("conn", conn->id),
                   A("req", frame.request_id), A("queued", queue_.size()));
    QBSS_HIST("svc.queue_depth", static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Task> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || host_.stopping();
      });
      if (queue_.empty()) {
        if (host_.stopping()) return;
        continue;
      }
      // Batch drain: group small requests into one wakeup.
      const std::size_t take = std::min(config_.batch, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    QBSS_COUNT("svc.batches");
    QBSS_HIST("svc.batch_size", static_cast<double>(batch.size()));
    process_batch(batch);
  }
}

void Server::add_stats_extras(Extras* extra) {
  std::size_t queued = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    queued = queue_.size();
  }
  extra->emplace_back("workers", std::to_string(config_.workers));
  extra->emplace_back("queue_depth", std::to_string(config_.queue_depth));
  extra->emplace_back("queued_now", std::to_string(queued));
  extra->emplace_back("responses", std::to_string(responses()));
  extra->emplace_back("cache_size", std::to_string(cache_.size()));
  extra->emplace_back("cache_evictions", std::to_string(cache_.evictions()));
  if (const store::SegmentStore* disk = cache_.disk()) {
    const store::StoreStats ds = disk->stats();
    extra->emplace_back("disk_segments", std::to_string(ds.segments));
    extra->emplace_back("disk_records", std::to_string(ds.live_records));
    extra->emplace_back("disk_bytes", std::to_string(ds.bytes));
  }
  extra->emplace_back(
      "degraded",
      now_ns() < degraded_until_ns_.load(std::memory_order_relaxed) ? "1"
                                                                    : "0");
}

void Server::enter_degraded() {
  const std::int64_t now = now_ns();
  const std::int64_t until = now + ms_to_ns(config_.degraded_window_ms);
  const std::int64_t prev =
      degraded_until_ns_.exchange(until, std::memory_order_relaxed);
  if (prev < now) QBSS_COUNT("svc.degraded.entered");
}

bool Server::prepare_task(Task& task) {
  // Past the shutdown drain deadline the backlog is answered, not
  // solved: every waiter gets a typed shed so in-flight loss is zero
  // and exit time stays bounded.
  if (host_.stopping()) {
    const std::int64_t drain_by =
        drain_deadline_ns_.load(std::memory_order_relaxed);
    if (drain_by != 0 && now_ns() > drain_by) {
      std::vector<Waiter> abandoned;
      {
        const std::lock_guard<std::mutex> lock(inflight_mu_);
        abandoned = std::move(task.inflight->waiters);
        inflight_.erase(task.key);
      }
      for (const Waiter& w : abandoned) {
        QBSS_COUNT("svc.shed.shutdown");
        QBSS_LOG_WARN("req.shed", w.trace.id, A("conn", w.conn->id),
                      A("req", w.request_id), A("reason", "shutdown"));
        respond(w, Status::kShed, 0, "reason: shutdown\n");
      }
      return false;
    }
  }

  // Shed waiters whose deadline expired while queued; if nobody is left
  // the computation is skipped entirely.
  std::vector<Waiter> expired;
  bool skip = false;
  {
    const std::lock_guard<std::mutex> lock(inflight_mu_);
    auto& waiters = task.inflight->waiters;
    for (std::size_t i = 0; i < waiters.size();) {
      if (deadline_expired(waiters[i].admitted, waiters[i].deadline_ms)) {
        expired.push_back(std::move(waiters[i]));
        waiters.erase(waiters.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (waiters.empty()) {
      inflight_.erase(task.key);
      skip = true;
    }
  }
  for (const Waiter& w : expired) {
    QBSS_COUNT("svc.shed.deadline");
    QBSS_LOG_WARN("req.shed", w.trace.id, A("conn", w.conn->id),
                  A("req", w.request_id), A("reason", "deadline"));
    respond(w, Status::kShed, 0, "reason: deadline\n");
  }
  return !skip;
}

void Server::finish_task(Task& task, SolveItem& item, std::uint64_t picked_ns,
                         std::uint64_t solved_ns) {
  PayloadPtr pinned;
  if (item.ok) {
    // Publish before retiring the in-flight entry so an identical
    // request arriving in between hits the cache instead of recomputing.
    // The returned pin is the exact bytes just stored — responses below
    // leave from it with no further copies.
    pinned = cache_.put(task.key, std::move(item.payload));
  } else {
    QBSS_COUNT("svc.errors");
    item.payload = "message: " + item.payload + "\n";
  }

  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(inflight_mu_);
    waiters = std::move(task.inflight->waiters);
    inflight_.erase(task.key);
  }
  QBSS_LOG_DEBUG("req.solve", waiters.empty() ? 0 : waiters[0].trace.id,
                 A("ok", item.ok),
                 A("bytes", item.ok ? pinned->size() : item.payload.size()),
                 A("waiters", waiters.size()));
  for (Waiter& w : waiters) {
    if (w.trace.sampled) {
      w.trace.picked_ns = picked_ns;
      w.trace.solved_ns = solved_ns;
    }
    respond(w, item.ok ? Status::kOk : Status::kError, 0,
            item.ok ? std::string_view(*pinned) : std::string_view(item.payload));
  }
}

void Server::process_batch(std::vector<Task>& batch) {
  // Phase 1: per-task admission bookkeeping. Collect the tasks that
  // still have live waiters.
  const std::uint64_t picked_ns = obs::now_ns();
  std::vector<std::size_t> solvable;
  solvable.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (prepare_task(batch[i])) solvable.push_back(i);
  }
  if (solvable.empty()) return;

  // Fault/delay hooks: one compute opportunity per solved task, the same
  // count and order as the previous one-solve-at-a-time loop.
  for (std::size_t k = 0; k < solvable.size(); ++k) {
    const faults::Action fault = QBSS_FAULT(faults::Site::kCompute);
    if (fault.any()) {
      std::uint64_t trace_id = 0;
      {
        // The fault hit this task: borrow its first waiter's trace id so
        // the flight recording ties the stall to a concrete request.
        const std::lock_guard<std::mutex> lock(inflight_mu_);
        const auto& waiters = batch[solvable[k]].inflight->waiters;
        if (!waiters.empty()) trace_id = waiters[0].trace.id;
      }
      host_.note_fault(fault, "compute", trace_id, 0);
    }
    if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
    if (config_.delay_ms > 0.0) sleep_ms(config_.delay_ms);
  }

  // Phase 2: one batched solve over the whole drain — the solver arena
  // warms once per batch instead of once per request.
  std::vector<SolveItem> items(solvable.size());
  for (std::size_t k = 0; k < solvable.size(); ++k) {
    items[k].request = &batch[solvable[k]].request;
  }
  solve_request_batch(std::span<SolveItem>(items));
  const std::uint64_t solved_ns = obs::now_ns();

  // Phase 3: publish + respond per task.
  for (std::size_t k = 0; k < solvable.size(); ++k) {
    finish_task(batch[solvable[k]], items[k], picked_ns, solved_ns);
  }
}

void Server::respond(const Waiter& waiter, Status status, std::uint32_t flags,
                     std::string_view payload) {
  const std::uint64_t write_start = waiter.trace.sampled ? obs::now_ns() : 0;
  host_.respond(*waiter.conn, waiter.request_id, waiter.trace.id, status,
                flags, payload, elapsed_us(waiter.admitted));
  if (waiter.trace.sampled) {
    // The whole sampled span chain leaves here, once the response is on
    // the wire, so a request whose connection died mid-flight never
    // emits a half-chain. Stages that never happened (cache hit → no
    // queue/solve) have zero stamps and are skipped.
    const std::uint64_t write_end = obs::now_ns();
    const WireTrace& t = waiter.trace;
    const auto emit = [&t](const char* stage, std::uint64_t a,
                           std::uint64_t b) {
      if (a != 0 && b != 0 && b >= a) obs::trace_emit_request(stage, a, b, t.id);
    };
    emit("req.accept", t.read_ns, t.parsed_ns);
    emit("req.cache", t.parsed_ns, t.cache_ns);
    emit("req.queue", t.queued_ns, t.picked_ns);
    emit("req.solve", t.picked_ns, t.solved_ns);
    emit("req.write", write_start, write_end);
  }
}

void Server::add_manifest_extras(obs::Manifest* manifest) {
  manifest->threads = config_.workers;
  manifest->extra.emplace_back("command", "serve");
  manifest->extra.emplace_back("workers", std::to_string(config_.workers));
  manifest->extra.emplace_back("queue_depth",
                               std::to_string(config_.queue_depth));
  manifest->extra.emplace_back("cache_entries",
                               std::to_string(config_.cache_entries));
  manifest->extra.emplace_back("cache_shards",
                               std::to_string(config_.cache_shards));
  manifest->extra.emplace_back("batch", std::to_string(config_.batch));
  manifest->extra.emplace_back("responses", std::to_string(responses()));
  manifest->extra.emplace_back("cache_size", std::to_string(cache_.size()));
  manifest->extra.emplace_back("cache_evictions",
                               std::to_string(cache_.evictions()));
  if (const store::SegmentStore* disk = cache_.disk()) {
    const store::StoreStats ds = disk->stats();
    manifest->extra.emplace_back("cache_dir", config_.cache_dir);
    manifest->extra.emplace_back("disk_segments",
                                 std::to_string(ds.segments));
    manifest->extra.emplace_back("disk_records",
                                 std::to_string(ds.live_records));
    manifest->extra.emplace_back("disk_bytes", std::to_string(ds.bytes));
  }
}

}  // namespace qbss::svc
