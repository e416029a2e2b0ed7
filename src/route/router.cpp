#include "route/router.hpp"

#include <chrono>

#include "faults/faults.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"

namespace qbss::route {

namespace {

using A = obs::LogArg;
using Clock = std::chrono::steady_clock;

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
      A("backends", fleet),
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

// The health loop sleeps in host_.sleep_until_stop(), which the host
// itself wakes on shutdown.
void Router::on_shutdown() {}

void Router::on_drain() {
  if (health_thread_.joinable()) health_thread_.join();
}

void Router::on_solve(const std::shared_ptr<svc::Connection>& conn,
                      const svc::FrameHeader& frame, svc::Request&& request,
                      const std::string& payload,
                      Clock::time_point received) {
  // The request was parsed only for its cache key: the backend gets the
  // client's bytes unchanged.
  const std::uint64_t hash = HashRing::key_hash(svc::cache_key(request));

  // Candidate order: the ring owner, then every other node in ring
  // order — the tail is the failover ladder.
  std::vector<std::size_t> order;
  order.reserve(backends_.size());
  order.push_back(ring_.primary(hash));
  const std::vector<std::size_t> succ =
      ring_.successors(hash, backends_.size() - 1);
  order.insert(order.end(), succ.begin(), succ.end());

  for (const std::size_t index : order) {
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
    out.push_back(std::move(status));
  }
  return out;
}

void Router::add_stats_extras(svc::Extras* extra) {
  extra->emplace_back("role", "route");
  extra->emplace_back("backends", std::to_string(backends_.size()));
  extra->emplace_back("responses", std::to_string(responses()));
  // The per-backend breakdown `qbss top`/`scrape` render: one extra per
  // backend, value = "addr state=... forwarded=... failures=...".
  for (const BackendStatus& status : backend_status()) {
    extra->emplace_back(
        "backend." + status.name,
        status.addr + " state=" + breaker_state_name(status.state) +
            " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures));
  }
}

void Router::add_manifest_extras(obs::Manifest* manifest) {
  manifest->extra.emplace_back("command", "route");
  manifest->extra.emplace_back("backends", std::to_string(backends_.size()));
  manifest->extra.emplace_back("responses", std::to_string(responses()));
  for (const BackendStatus& status : backend_status()) {
    manifest->extra.emplace_back(
        "backend." + status.name,
        status.addr + " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures));
  }
}

}  // namespace qbss::route
