#include "route/router.hpp"

#include <algorithm>
#include <chrono>

#include "faults/faults.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"

namespace qbss::route {

namespace {

using A = obs::LogArg;
using Clock = std::chrono::steady_clock;

/// Distinct hit counts tracked before the table resets (hot verdicts
/// survive the reset; only in-progress counts restart).
constexpr std::size_t kMaxTrackedKeys = 65536;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The health probe's request bytes, serialized once.
const std::string& ping_payload() {
  static const std::string payload = [] {
    svc::Request ping;
    ping.verb = svc::Verb::kPing;
    return svc::serialize_request(ping);
  }();
  return payload;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.topology.ring_nodes()) {
  if (config_.pool_capacity < 1) config_.pool_capacity = 1;
  if (config_.backend_retries < 0) config_.backend_retries = 0;
  // backends_ aligns with ring node indices (name-sorted), so a ring
  // lookup indexes straight into it.
  backends_.reserve(ring_.size());
  const BreakerConfig breaker{config_.breaker_failures,
                              config_.breaker_open_ms};
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    for (const BackendSpec& spec : config_.topology.backends) {
      if (spec.name == ring_.name(i)) {
        backends_.push_back(std::make_unique<Backend>(spec, breaker));
        break;
      }
    }
  }
}

Router::~Router() {
  shutdown();
  wait();
}

bool Router::start(std::string* error) {
  if (backends_.empty()) {
    if (error) *error = "topology declares no backends";
    return false;
  }
  if (!host_.start(error)) return false;
  replication_thread_ = std::thread([this] { replication_loop(); });
  if (config_.health_interval_ms > 0.0) {
    health_thread_ = std::thread([this] { health_loop(); });
  }
  log_route_start();
  return true;
}

void Router::log_route_start() {
  std::string fleet;
  for (const auto& backend : backends_) {
    if (!fleet.empty()) fleet += ",";
    fleet += backend->spec.name;
  }
  const faults::FaultPlan plan = faults::injector().plan();
  QBSS_LOG_INFO(
      "route.start", 0, A("endpoint", host_.endpoint_label()),
      A("backends", fleet), A("replicas", config_.replicas),
      A("hot_threshold", config_.hot_threshold),
      A("health_interval_ms", config_.health_interval_ms),
      A("breaker_failures", config_.breaker_failures),
      A("breaker_open_ms", config_.breaker_open_ms),
      A("backend_timeout_ms", config_.backend_timeout_ms),
      A("backend_retries", config_.backend_retries),
      A("pool_capacity", config_.pool_capacity),
      A("fault_plan", plan.empty() ? std::string_view("none")
                                   : std::string_view(plan.text)));
}

void Router::shutdown() { host_.shutdown(); }

void Router::wait() { host_.wait(); }

void Router::on_shutdown() {
  // Notified under the mutex the replication loop checks its predicate
  // with, so the wakeup cannot fall between that check and the wait.
  const std::lock_guard<std::mutex> lock(replication_mu_);
  replication_cv_.notify_all();
}

void Router::on_drain() {
  if (replication_thread_.joinable()) replication_thread_.join();
  if (health_thread_.joinable()) health_thread_.join();
}

void Router::on_solve(const std::shared_ptr<svc::Connection>& conn,
                      const svc::FrameHeader& frame, svc::Request&& request,
                      const std::string& payload,
                      Clock::time_point received) {
  // The request was parsed only for its cache key: the backend gets the
  // client's bytes unchanged.
  const std::string key = svc::cache_key(request);
  const std::uint64_t hash = HashRing::key_hash(key);
  const std::size_t primary = ring_.primary(hash);
  bool hot = false;
  const bool crossed = note_hit(key, &hot);

  // Candidate order: the ring owner, then every other node in ring
  // order — the tail is the failover ladder. For hot keys the first
  // `replicas + 1` entries all hold the key, so rotate within that
  // prefix to spread the load.
  std::vector<std::size_t> order;
  order.reserve(backends_.size());
  order.push_back(primary);
  const std::vector<std::size_t> succ =
      ring_.successors(hash, backends_.size() - 1);
  order.insert(order.end(), succ.begin(), succ.end());
  const std::size_t replica_set =
      hot && config_.replicas > 0
          ? std::min(config_.replicas + 1, order.size())
          : 1;
  if (replica_set > 1) {
    const std::size_t first =
        hot_rotation_.fetch_add(1, std::memory_order_relaxed) % replica_set;
    std::rotate(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(first),
                order.begin() + static_cast<std::ptrdiff_t>(replica_set));
  }

  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t index = order[i];
    Backend& backend = *backends_[index];
    if (!backend.breaker.allow(now_ns())) continue;
    svc::Client::Reply reply;
    const bool ok = call_backend(index, payload, frame.trace_id, &reply);
    record_backend_result(index, ok);
    if (!ok) continue;
    if (index != order[0]) {
      // The intended backend was skipped (breaker open) or failed the
      // call; the key was served by a later ring node instead.
      QBSS_COUNT("route.failover");
      QBSS_LOG_WARN("route.failover", frame.trace_id,
                    A("backend", backend.spec.name),
                    A("from", backends_[order[0]]->spec.name),
                    A::hex("key", hash));
    }
    backend.forwarded.fetch_add(1, std::memory_order_relaxed);
    QBSS_COUNT("route.forwarded");
    if (reply.cache_hit) QBSS_COUNT("route.hit");
    if (crossed && config_.replicas > 0 && !succ.empty()) {
      Replication task;
      task.payload = payload;
      const std::size_t targets = std::min(config_.replicas, succ.size());
      task.targets.assign(succ.begin(),
                          succ.begin() + static_cast<std::ptrdiff_t>(targets));
      task.key_hash = hash;
      task.trace_id = frame.trace_id;
      enqueue_replication(std::move(task));
    }
    const std::uint32_t flags = (reply.cache_hit ? svc::kFlagCacheHit : 0u) |
                                (reply.disk_hit ? svc::kFlagDiskHit : 0u);
    host_.respond(*conn, frame.request_id, frame.trace_id, reply.status,
                  flags, reply.payload, elapsed_us(received));
    return;
  }

  QBSS_COUNT("route.shed.no_backend");
  QBSS_LOG_WARN("req.shed", frame.trace_id, A("conn", conn->id),
                A("req", frame.request_id), A("reason", "no_backend"));
  host_.respond(*conn, frame.request_id, frame.trace_id, svc::Status::kShed,
                0, "reason: no_backend\n", elapsed_us(received));
}

bool Router::call_backend(std::size_t index, std::string_view payload,
                          std::uint64_t trace_id, svc::Client::Reply* reply) {
  Backend& backend = *backends_[index];
  std::unique_ptr<svc::RetryingClient> client;
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mu);
    if (!backend.pool.empty()) {
      client = std::move(backend.pool.back());
      backend.pool.pop_back();
    }
  }
  if (client) {
    QBSS_COUNT("route.pool.reused");
  } else {
    QBSS_COUNT("route.pool.created");
    svc::RetryPolicy policy;
    policy.max_retries = config_.backend_retries;
    policy.attempt_timeout_ms = config_.backend_timeout_ms;
    policy.jitter_seed = 0x9e3779b97f4a7c15ULL ^
                         (static_cast<std::uint64_t>(index) + 1) *
                             0x100000001b3ULL;
    client =
        std::make_unique<svc::RetryingClient>(backend.spec.endpoint, policy);
  }
  // Echo the caller's trace id through every backend attempt (0 keeps
  // auto-generated ids for untraced callers and health probes).
  client->pin_trace_id(trace_id);
  const Clock::time_point start = Clock::now();
  std::string error;
  const bool ok = client->call_payload(payload, reply, &error);
  QBSS_HIST("route.backend_us", elapsed_us(start));
  client->pin_trace_id(0);
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mu);
    if (backend.pool.size() < config_.pool_capacity) {
      backend.pool.push_back(std::move(client));
    }
  }
  return ok;
}

void Router::record_backend_result(std::size_t index, bool ok) {
  Backend& backend = *backends_[index];
  const std::int64_t now = now_ns();
  if (ok) {
    if (backend.breaker.record_success(now)) {
      QBSS_COUNT("route.backend_up");
      QBSS_LOG_INFO("route.backend_up", 0, A("backend", backend.spec.name));
    }
    return;
  }
  backend.failures.fetch_add(1, std::memory_order_relaxed);
  QBSS_COUNT("route.backend.error");
  if (backend.breaker.record_failure(now)) {
    QBSS_COUNT("route.backend_down");
    QBSS_LOG_WARN("route.backend_down", 0, A("backend", backend.spec.name),
                  A("failures", backend.breaker.failures()));
    host_.note_flight_trigger();
  }
}

bool Router::note_hit(const std::string& key, bool* hot) {
  *hot = false;
  if (config_.hot_threshold == 0) return false;
  const std::lock_guard<std::mutex> lock(hot_mu_);
  if (hot_.count(key) != 0) {
    *hot = true;
    return false;
  }
  if (key_hits_.size() >= kMaxTrackedKeys && key_hits_.count(key) == 0) {
    key_hits_.clear();  // bounded memory; counts restart, verdicts keep
  }
  const std::uint64_t hits = ++key_hits_[key];
  if (hits < config_.hot_threshold) return false;
  key_hits_.erase(key);
  if (hot_.size() >= kMaxTrackedKeys) hot_.clear();
  hot_.emplace(key, true);
  hot_keys_.fetch_add(1, std::memory_order_relaxed);
  QBSS_COUNT("route.hot_keys");
  *hot = true;
  return true;
}

void Router::enqueue_replication(Replication task) {
  {
    const std::lock_guard<std::mutex> lock(replication_mu_);
    replication_queue_.push_back(std::move(task));
  }
  replication_cv_.notify_one();
}

void Router::replication_loop() {
  for (;;) {
    Replication task;
    {
      std::unique_lock<std::mutex> lock(replication_mu_);
      replication_cv_.wait(lock, [this] {
        return !replication_queue_.empty() || host_.stopping();
      });
      if (replication_queue_.empty()) {
        if (host_.stopping()) return;
        continue;
      }
      task = std::move(replication_queue_.front());
      replication_queue_.pop_front();
    }
    for (const std::size_t target : task.targets) {
      if (host_.stopping()) return;
      Backend& backend = *backends_[target];
      if (!backend.breaker.allow(now_ns())) continue;
      svc::Client::Reply reply;
      const bool ok = call_backend(target, task.payload, task.trace_id,
                                   &reply);
      record_backend_result(target, ok);
      if (!ok || reply.status != svc::Status::kOk) continue;
      backend.replicated.fetch_add(1, std::memory_order_relaxed);
      QBSS_COUNT("route.replicate");
      QBSS_LOG_INFO("route.replicate", task.trace_id,
                    A("backend", backend.spec.name),
                    A::hex("key", task.key_hash),
                    A("cache_hit", reply.cache_hit));
    }
  }
}

void Router::health_loop() {
  while (!host_.sleep_until_stop(config_.health_interval_ms)) {
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (host_.stopping()) break;
      QBSS_COUNT("route.health.probes");
      svc::Client::Reply reply;
      const bool ok = call_backend(i, ping_payload(), 0, &reply) &&
                      reply.status == svc::Status::kOk;
      if (!ok) QBSS_COUNT("route.health.failures");
      record_backend_result(i, ok);
    }
  }
}

std::vector<Router::BackendStatus> Router::backend_status() const {
  std::vector<BackendStatus> out;
  out.reserve(backends_.size());
  const std::int64_t now = now_ns();
  for (const auto& backend : backends_) {
    BackendStatus status;
    status.name = backend->spec.name;
    status.addr = svc::endpoint_to_string(backend->spec.endpoint);
    status.state = backend->breaker.state(now);
    status.forwarded = backend->forwarded.load(std::memory_order_relaxed);
    status.failures = backend->failures.load(std::memory_order_relaxed);
    status.replicated = backend->replicated.load(std::memory_order_relaxed);
    out.push_back(std::move(status));
  }
  return out;
}

void Router::add_stats_extras(svc::Extras* extra) {
  extra->emplace_back("role", "route");
  extra->emplace_back("backends", std::to_string(backends_.size()));
  extra->emplace_back("replicas", std::to_string(config_.replicas));
  extra->emplace_back("hot_threshold", std::to_string(config_.hot_threshold));
  extra->emplace_back("hot_keys", std::to_string(hot_keys()));
  extra->emplace_back("responses", std::to_string(responses()));
  // The per-backend breakdown `qbss top`/`scrape` render: one extra per
  // backend, value = "addr state=... forwarded=... failures=...
  // replicated=...".
  for (const BackendStatus& status : backend_status()) {
    extra->emplace_back(
        "backend." + status.name,
        status.addr + " state=" + breaker_state_name(status.state) +
            " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures) +
            " replicated=" + std::to_string(status.replicated));
  }
}

void Router::add_manifest_extras(obs::Manifest* manifest) {
  manifest->extra.emplace_back("command", "route");
  manifest->extra.emplace_back("backends", std::to_string(backends_.size()));
  manifest->extra.emplace_back("replicas", std::to_string(config_.replicas));
  manifest->extra.emplace_back("hot_threshold",
                               std::to_string(config_.hot_threshold));
  manifest->extra.emplace_back("hot_keys", std::to_string(hot_keys()));
  manifest->extra.emplace_back("responses", std::to_string(responses()));
  for (const BackendStatus& status : backend_status()) {
    manifest->extra.emplace_back(
        "backend." + status.name,
        status.addr + " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures) +
            " replicated=" + std::to_string(status.replicated));
  }
}

}  // namespace qbss::route
