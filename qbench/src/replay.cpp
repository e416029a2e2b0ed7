#include "replay.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>

#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "qbss/run.hpp"
#include "qbss/transform.hpp"
#include "scheduling/yds.hpp"

namespace qbench {

namespace sv = qbss::svc;

const char* policy_span(const std::string& algo) {
  static const std::map<std::string, const char*> kNames = {
      {"crcd", "qbss.policy.crcd"}, {"crp2d", "qbss.policy.crp2d"},
      {"crad", "qbss.policy.crad"}, {"avrq", "qbss.policy.avrq"},
      {"bkpq", "qbss.policy.bkpq"}, {"oaq", "qbss.policy.oaq"},
      {"opt", "qbss.policy.opt"},   {"avrq_m", "qbss.policy.avrq_m"}};
  const auto it = kNames.find(algo);
  return it == kNames.end() ? "qbss.policy.unknown" : it->second;
}

void replay_policy(SpanLog* log, const sv::Request& request,
                   std::uint64_t solve_span) {
  namespace core = qbss::core;
  const core::QInstance& inst = request.instance;
  const char* name = policy_span(request.algo);
  if (request.algo == "avrq_m") {
    std::optional<core::QbssMultiRun> run;
    {
      Scope s(log, name, 0, ~0ull, solve_span);
      run.emplace(core::avrq_m(inst, request.machines));
    }
    Scope v(log, "scheduling.validate", 0, ~0ull, solve_span);
    static_cast<void>(core::validate_multi_run(inst, *run));
    return;
  }
  if (request.algo == "opt") {
    // core::clairvoyant_schedule, call by call: the reduction, then YDS.
    qbss::scheduling::Instance classical;
    qbss::scheduling::Schedule schedule;
    {
      Scope s(log, name, 0, ~0ull, solve_span);
      classical = core::clairvoyant_instance(inst);
      Scope y(log, "scheduling.yds");
      schedule = qbss::scheduling::yds(classical);
    }
    Scope v(log, "scheduling.validate", 0, ~0ull, solve_span);
    static_cast<void>(qbss::scheduling::validate(classical, schedule));
    return;
  }
  core::QbssRun run;
  {
    Scope s(log, name, 0, ~0ull, solve_span);
    if (request.algo == "crcd") run = core::crcd(inst);
    else if (request.algo == "crp2d") run = core::crp2d(inst);
    else if (request.algo == "crad") run = core::crad(inst);
    else if (request.algo == "avrq") run = core::avrq(inst);
    else if (request.algo == "bkpq") run = core::bkpq(inst);
    else run = core::oaq(inst);
  }
  Scope v(log, "scheduling.validate", 0, ~0ull, solve_span);
  static_cast<void>(core::validate_run(inst, run));
}

FramePipe::FramePipe() {
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) fds_[0] = fds_[1] = -1;
}

FramePipe::~FramePipe() {
  for (const int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

std::string FramePipe::roundtrip(const std::string& payload) {
  sv::FrameHeader header;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  std::string error;
  std::string out;
  sv::FrameHeader got;
  if (!sv::write_frame(fds_[0], header, payload, &error) ||
      sv::read_frame(fds_[1], &got, &out, &error) != sv::ReadResult::kFrame) {
    return {};
  }
  return out;
}

namespace {

// Server::handle_request and its worker, call by call.
std::string replay_server(SpanLog* log, const std::string& wire,
                          ReplayServer& server, FramePipe& pipe) {
  Scope root(log, "server.request");
  sv::Request parsed;
  std::string error;
  {
    Scope s(log, "protocol.parse");
    static_cast<void>(sv::parse_request(wire, &parsed, &error));
  }
  std::string key;
  {
    Scope s(log, "protocol.key");
    key = sv::cache_key(parsed);
  }
  sv::PayloadPtr found;
  {
    Scope s(log, "cache.get");
    found = server.cache.get(key);
  }
  if (!found && server.store) {
    {
      Scope s(log, "store.find");
      found = server.store->find(key);
    }
    if (found) {
      Scope s(log, "cache.put");
      static_cast<void>(server.cache.put(key, *found));
    }
  }
  std::string response;
  if (found) {
    response = *found;
  } else {
    std::uint64_t solve_span = 0;
    {
      Scope s(log, "protocol.solve");
      solve_span = s.id();
      static_cast<void>(sv::solve_request(parsed, &response, &error));
    }
    replay_policy(log, parsed, solve_span);
    {
      Scope s(log, "cache.put");
      static_cast<void>(server.cache.put(key, response));
    }
    if (server.store) {
      Scope s(log, "store.append");
      static_cast<void>(server.store->append(key, response, &error));
    }
  }
  Scope s(log, "protocol.frame");
  return pipe.roundtrip(response);
}

}  // namespace

std::string replay_request(SpanLog* log, std::uint64_t trace_id,
                           const sv::Request& request,
                           std::vector<ReplayServer*>& servers,
                           const qbss::route::HashRing* ring,
                           FramePipe& pipe) {
  Scope root(log, "replay.request", trace_id);
  std::string wire;
  {
    Scope s(log, "client.serialize");
    wire = sv::serialize_request(request);
  }
  {
    Scope s(log, "protocol.frame");
    wire = pipe.roundtrip(wire);
  }
  if (ring == nullptr) return replay_server(log, wire, *servers[0], pipe);

  // Router::handle_request + proxy_solve: parse, key, ring, then the
  // pooled backend call re-serializes the parsed request.
  Scope route(log, "route.request");
  sv::Request parsed;
  std::string error;
  {
    Scope s(log, "protocol.parse");
    static_cast<void>(sv::parse_request(wire, &parsed, &error));
  }
  std::string key;
  {
    Scope s(log, "protocol.key");
    key = sv::cache_key(parsed);
  }
  std::size_t owner = 0;
  {
    Scope s(log, "route.ring");
    const std::uint64_t hash = qbss::route::HashRing::key_hash(key);
    owner = ring->primary(hash);
    static_cast<void>(ring->successors(hash, ring->size() - 1));
  }
  std::string forward;
  {
    Scope s(log, "client.serialize");
    forward = sv::serialize_request(parsed);
  }
  {
    Scope s(log, "protocol.frame");
    forward = pipe.roundtrip(forward);
  }
  const std::string response = replay_server(log, forward, *servers[owner], pipe);
  Scope s(log, "protocol.frame");
  return pipe.roundtrip(response);
}

void span_metrics(const std::vector<Span>& spans, Result* result) {
  const LayerTable table = layer_table(spans);
  const auto per_call = [&](const char* name, bool self) {
    const auto it = table.by_name.find(name);
    if (it == table.by_name.end() || it->second.count == 0) return 0.0;
    return (self ? it->second.self_ns : it->second.total_ns) / 1e3 /
           static_cast<double>(it->second.count);
  };
  Result& r = *result;
  r.layer("client.serialize_us", per_call("client.serialize", false), "us");
  r.layer("protocol.parse_us", per_call("protocol.parse", false), "us");
  r.layer("protocol.key_us", per_call("protocol.key", false), "us");
  r.layer("protocol.frame_us", per_call("protocol.frame", false), "us");
  r.layer("protocol.render_us", per_call("protocol.solve", true), "us");
  r.layer("cache.get_us", per_call("cache.get", false), "us");
  r.layer("cache.put_us", per_call("cache.put", false), "us");
  r.layer("store.find_us", per_call("store.find", false), "us");
  r.layer("store.append_us", per_call("store.append", false), "us");
  r.layer("route.ring_us", per_call("route.ring", false), "us");
  for (const char* algo : kAlgos) {
    r.layer(std::string("qbss.policy_us.") + algo,
            per_call(policy_span(algo), false), "us");
  }
  r.layer("scheduling.yds_us", per_call("scheduling.yds", false), "us");
  r.layer("scheduling.validate_us", per_call("scheduling.validate", false),
          "us");
  r.layer("analysis.measure_us", per_call("analysis.measure", false), "us");

  double total = 0.0;
  for (const char* layer : kLayers) {
    if (const auto it = table.by_layer.find(layer); it != table.by_layer.end()) {
      total += it->second.self_ns;
    }
  }
  for (const char* layer : kLayers) {
    const auto it = table.by_layer.find(layer);
    const double self = it == table.by_layer.end() ? 0.0 : it->second.self_ns;
    r.layer(std::string("layer.") + layer + ".share",
            total > 0.0 ? self / total : 0.0, "ratio");
  }
}

void write_trace(const Options& opts, const std::vector<Span>& all,
                 const std::vector<Span>& replayed, Result* result) {
  const std::string stem = opts.out_dir + "/" + opts.workload + "-" +
                           std::to_string(opts.seed);
  if (!write_perfetto(stem + ".trace.json", all)) {
    result->fail("cannot write " + stem + ".trace.json");
    return;
  }
  const LayerTable table = layer_table(replayed);
  double total = 0.0;
  for (const auto& [layer, row] : table.by_layer) total += row.self_ns;
  std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w");
  if (f == nullptr) {
    result->fail("cannot write " + stem + ".layers.txt");
    return;
  }
  std::fprintf(f, "%-28s %9s %14s %14s %8s\n", "span", "count",
               "total_us/call", "self_us/call", "self%");
  const auto rows = [&](const std::map<std::string, LayerTable::Row>& m) {
    for (const auto& [name, row] : m) {
      const double n = static_cast<double>(row.count);
      std::fprintf(f, "%-28s %9zu %14.3f %14.3f %7.2f%%\n", name.c_str(),
                   row.count, row.total_ns / 1e3 / n, row.self_ns / 1e3 / n,
                   total > 0 ? 100.0 * row.self_ns / total : 0.0);
    }
  };
  rows(table.by_name);
  std::fprintf(f, "\n%-28s\n", "by layer");
  rows(table.by_layer);
  std::fclose(f);
  result->notes.push_back("trace: " + stem +
                          ".trace.json (open at ui.perfetto.dev); layer "
                          "table: " + stem + ".layers.txt");
}

double replayed_server_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> own;
  for (const Span& s : spans) {
    if (std::string(s.name) == "server.request") own[s.id] = 0.0;
  }
  for (const Span& s : spans) {
    const auto it = own.find(s.parent);
    if (it == own.end() || s.part_of != 0 ||
        std::string(s.name) == "protocol.frame") {
      continue;
    }
    it->second += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  std::vector<double> values;
  for (const auto& [id, us] : own) values.push_back(us);
  return median(values);
}

}  // namespace qbench
