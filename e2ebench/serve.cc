// Serve workloads: open-loop NDJSON over the in-process Server's unix
// socket -> Broker (2 workers, shared cache) -> solve.
//
//  * serve_repeat: requests drawn Zipf-like from a small pool of
//    fuzz-generated base instances, each sent with freshly renamed symbols
//    and reordered constraints. After an instance's first request, each
//    later one is a canonicalize and lookup (or a coalesced attach), so the
//    cache's read path, parse, render and write are the critical path.
//  * serve_unique: every request is a distinct instance from the fuzz
//    generator's default mix, so every request canonicalizes, misses,
//    solves and inserts: the cache's write path. Exact and binate solving
//    plus queue wait make its tail.
//
// One generator thread multiplexes two connections with ppoll and sends on
// a fixed schedule: a nominal step (latency percentiles) then a high step
// (goodput). Latency runs from each request's scheduled send time to the
// moment its response line is read, so a stall is charged to every request
// it delays. A `metrics` scrape goes out once a second. Both steps sit
// below the service's capacity, so goodput per wall second is the offered
// rate; the end-to-end figure is instead good answers per CPU-second of the
// service's threads, scaled to the reference core's speed.
//
// Checks: every distinct instance (canonical key) is solved once before
// the first phase with solve(), uncached and off the wire, on the same
// canonical instance and budgets the service solves; each response's status must match it,
// its code length too where both are proven minimal, and `ok` code tables
// must pass verify_encoding against the request as sent.
//
// Requests are a pure function of (seed, index), so a run keeps no request
// text in memory: lines are rendered just ahead of their send time, and
// responses are spooled to a file and checked after each phase. The peak
// RSS is taken from the service's start to its stop, after the reference
// solves' freed heap went back to the system.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "cache/canonical.h"
#include "cache/solve_cache.h"
#include "core/verify.h"
#include "fuzz/generator.h"
#include "obs/counters.h"
#include "obs/window.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

using namespace encodesat;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
// Deterministic budgets, so every answer (timeouts included) is the same
// on every run and matches the reference solve: a wire work budget per
// request and a node limit on both covering engines (binate covering
// charges no work units, so only its node limit bounds it). They also cap
// a single solve near 0.1 s; larger budgets let a few seconds-long solves
// per run hold up every response behind them on their connection, and
// with them the median and goodput swing from seed to seed.
constexpr std::uint64_t kWireMaxWork = 5'000'000;
constexpr std::uint64_t kNodeLimit = 5'000;
// A good answer must arrive within this limit to count toward goodput.
constexpr double kLatencyLimitMs = 250;
constexpr double kScrapeIntervalS = 1.0;
// Share of --seconds spent at the nominal rate; the rest is the high step.
constexpr double kNominalShare = 0.6;
// The generator is behind its schedule when its p99 lateness exceeds this;
// such a run measures the generator, not the service, and is invalid.
constexpr double kMaxLateP99Ms = 25;
constexpr double kDrainTimeoutS = 30;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kRepeatPool = 32;
constexpr std::uint32_t kNoRef = ~0u;
constexpr std::size_t kRenderSamples = 2000;
// The instances (serve_unique's requests, serve_repeat's pool) are fuzz
// cases of this fixed run seed; --seed renames and reorders them and draws
// serve_repeat's Zipf sequence. A few budget-capped solves outweigh
// hundreds of typical ones, so instances drawn per seed would make the
// service's work differ from seed to seed; this way every seed does the
// same solving.
constexpr std::uint64_t kInstanceSeed = 1;
constexpr double kCalibrationPeriodS = 0.25;

// Fixed request rates (requests per second). serve_unique's 2-worker
// capacity measured about 850/s; its nominal step is near 30% of that and
// the high step near 60%, low enough that the host's slow phases do not
// tip it over the knee. serve_repeat did not saturate at 16000/s; its
// rates are held where a run's requests stay a few tens of thousands.
struct Rates {
  double nominal;
  double high;
};
Rates rates_for(const std::string& workload) {
  return workload == "serve_repeat" ? Rates{2000, 4000} : Rates{250, 500};
}

// ---- Requests -------------------------------------------------------------

// The options every solve runs under, on the wire and in the reference.
SolveOptions service_options() {
  SolveOptions opts;
  opts.exact.cover_options.max_nodes = kNodeLimit;
  opts.extensions.cover_options.max_nodes = kNodeLimit;
  opts.exec.max_work = kWireMaxWork;
  return opts;
}

// True when the service would cache this instance's answer: only
// untruncated results are stored, so a truncated one is solved again on
// every request.
bool cacheable(const ConstraintSet& cs) {
  SolveRequest req;
  req.constraints = canonicalize(cs).canon.set;
  req.options = service_options();
  return !solve(req).result.truncated;
}

ConstraintSet renamed_and_shuffled(const ConstraintSet& base, std::uint64_t id,
                                   Rng& rng) {
  const std::uint32_t n = base.num_symbols();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  ConstraintSet p = apply_symbol_permutation(base, perm);
  SymbolTable fresh;
  for (std::uint32_t k = 0; k < n; ++k)
    fresh.intern("q" + std::to_string(id) + "_" + std::to_string(k));
  ConstraintSet out(std::move(fresh));
  auto shuffled = [&rng](auto v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.next_below(i)]);
    return v;
  };
  out.faces() = shuffled(p.faces());
  out.dominances() = shuffled(p.dominances());
  out.disjunctives() = shuffled(p.disjunctives());
  out.extended_disjunctives() = shuffled(p.extended_disjunctives());
  out.distance2s() = shuffled(p.distance2s());
  out.nonfaces() = shuffled(p.nonfaces());
  return out;
}

struct Slot {
  double sched = 0;  // seconds from the start of the schedule
  int step = 0;      // 0 nominal, 1 high
  bool scrape = false;
};

// The run's inputs: the schedule and, for serve_repeat, the instance pool
// (see fill_pool). line(i) renders request i the same way every time it is
// called.
struct Plan {
  std::uint64_t seed = 0;
  bool repeat = false;
  double nominal_s = 0;
  double high_s = 0;
  std::vector<Slot> slots;
  std::vector<ConstraintSet> pool;
  std::vector<double> zipf_cdf;

  std::string line(std::size_t i) const {
    const std::string id = std::to_string(i);
    if (slots[i].scrape) return "{\"id\":\"m" + id + "\",\"op\":\"metrics\"}\n";
    ConstraintSet cs;
    Rng rng(fuzz_case_seed(seed ^ 0x5e77e7ull, i));
    if (repeat) {
      const std::size_t b = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.next_double()) -
          zipf_cdf.begin());
      cs = renamed_and_shuffled(pool[std::min(b, pool.size() - 1)], i, rng);
    } else {
      cs = renamed_and_shuffled(
          generate_case(fuzz_case_seed(kInstanceSeed, i)), i, rng);
    }
    return "{\"id\":\"r" + id + "\",\"constraints\":\"" +
           json_escape(cs.to_string()) + "\",\"options\":{\"max_work\":" +
           std::to_string(kWireMaxWork) + "}}\n";
  }
};

Plan make_plan(const Args& args) {
  Plan plan;
  plan.seed = args.seed;
  plan.repeat = args.workload == "serve_repeat";
  const Rates rates = rates_for(args.workload);
  plan.nominal_s = args.seconds * kNominalShare;
  plan.high_s = args.seconds - plan.nominal_s;
  std::vector<Slot> requests;
  for (double t = 0; t < plan.nominal_s; t += 1 / rates.nominal)
    requests.push_back({t, 0, false});
  for (double t = 0; t < plan.high_s; t += 1 / rates.high)
    requests.push_back({plan.nominal_s + t, 1, false});
  double next_scrape = kScrapeIntervalS;
  for (const Slot& r : requests) {
    for (; next_scrape <= r.sched; next_scrape += kScrapeIntervalS)
      plan.slots.push_back(
          {next_scrape, next_scrape < plan.nominal_s ? 0 : 1, true});
    plan.slots.push_back(r);
  }
  return plan;
}

// Draws serve_repeat's instance pool. Instances whose answer the cache
// would not keep are left out: at Zipf popularity one of them re-solves on
// every draw and the workload stops exercising the read path. Telling them
// apart takes a solve of each candidate, so this runs with the reference
// solves, outside set-up.
void fill_pool(Plan* plan) {
  if (!plan->repeat) return;
  double total = 0;
  for (std::uint64_t c = 0; plan->pool.size() < kRepeatPool; ++c) {
    ConstraintSet cs = generate_case(fuzz_case_seed(kInstanceSeed, c));
    if (!cacheable(cs)) continue;
    plan->pool.push_back(std::move(cs));
    total += 1.0 / static_cast<double>(plan->pool.size());
    plan->zipf_cdf.push_back(total);
  }
  for (double& c : plan->zipf_cdf) c /= total;
}

// The constraints of a request line as the server parses them.
std::optional<ConstraintSet> request_constraints(const std::string& line) {
  WireRequest wire;
  std::string error;
  if (!parse_request(line, &wire, &error)) return std::nullopt;
  return parse_constraints(wire.constraints, nullptr);
}

// ---- Reference answers ----------------------------------------------------

// Threads for the benchmark's own reference solves and checks, which run
// while the service is down.
int check_threads() { return std::min(hardware_threads(), 4); }

struct Reference {
  StatusCode status = StatusCode::kInternal;
  SolveResult result;  // canonical space, stage stats dropped
};

struct References {
  std::vector<std::uint32_t> ref;  // per slot; kNoRef for scrapes
  std::vector<Reference> refs;     // per distinct canonical instance
  std::vector<float> parse_us;     // per slot, 0 for scrapes
  std::vector<float> canon_us;
};

// Parses and canonicalizes every request (timing parse_request and
// canonicalize on the lines the run sends), then solves each distinct
// canonical instance once.
References prepare_references(const Plan& plan) {
  const std::size_t n = plan.slots.size();
  References out;
  out.ref.assign(n, kNoRef);
  out.parse_us.assign(n, 0);
  out.canon_us.assign(n, 0);
  std::vector<Hash128> keys(n);
  std::vector<char> parsed(n, 0);
  parallel_for(n, check_threads(), [&](std::size_t i) {
    if (plan.slots[i].scrape) return;
    const std::string line = plan.line(i);
    WireRequest wire;
    std::string err;
    const double t0 = now_s();
    const bool ok = parse_request(line, &wire, &err);
    out.parse_us[i] = static_cast<float>((now_s() - t0) * 1e6);
    std::optional<ConstraintSet> cs;
    if (ok) cs = parse_constraints(wire.constraints, nullptr);
    if (!cs) return;
    const double t1 = now_s();
    keys[i] = canonicalize(*cs).canon.hash;
    out.canon_us[i] = static_cast<float>((now_s() - t1) * 1e6);
    parsed[i] = 1;
  });
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> ref_of_key;
  std::vector<std::size_t> first_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (!parsed[i]) continue;
    const auto [it, fresh] = ref_of_key.emplace(
        std::make_pair(keys[i].hi, keys[i].lo),
        static_cast<std::uint32_t>(first_of.size()));
    if (fresh) first_of.push_back(i);
    out.ref[i] = it->second;
  }
  out.refs.resize(first_of.size());
  parallel_for(first_of.size(), check_threads(), [&](std::size_t r) {
    SolveRequest req;
    req.constraints =
        canonicalize(*request_constraints(plan.line(first_of[r])))
            .canon.set;
    req.options = service_options();
    SolveResponse resp = solve(req);
    resp.result.stats = StageStats();
    out.refs[r] = {resp.status, std::move(resp.result)};
  });
  return out;
}

// Checks one solve response line against its reference. Returns "" when
// it passes; `*good` is set for ok/infeasible answers that pass.
std::string check_response(const Plan& plan, const References& refs,
                           std::size_t idx, const std::string& line,
                           bool* good) {
  *good = false;
  if (refs.ref[idx] == kNoRef) return "request does not parse";
  const Reference& ref = refs.refs[refs.ref[idx]];
  JsonValue v;
  std::string err;
  if (!json_parse(line, &v, &err)) return "response is not JSON: " + err;
  const JsonValue* id = v.find("id");
  const JsonValue* status = v.find("status");
  if (!id || id->str != "r" + std::to_string(idx)) return "wrong id";
  if (!status || !status->is_string()) return "no status";
  const std::string& s = status->str;
  if (s == "internal" || s == "parse_error" || s == "overloaded")
    return "status " + s;
  if (s != status_code_name(ref.status))
    return "status " + s + ", reference " + status_code_name(ref.status);
  if (s == "ok") {
    const std::optional<ConstraintSet> cs = request_constraints(plan.line(idx));
    if (!cs) return "request does not parse";
    const JsonValue* bits = v.find("bits");
    const JsonValue* minimal = v.find("minimal");
    const JsonValue* codes = v.find("codes");
    if (!bits || !bits->is_number() || !codes || !codes->is_object())
      return "ok answer without bits or codes";
    Encoding enc;
    enc.bits = static_cast<int>(bits->number);
    if (enc.bits < 1 || enc.bits > 63) return "bad code length";
    enc.codes.assign(cs->num_symbols(), 0);
    std::vector<bool> seen(cs->num_symbols(), false);
    for (const auto& [name, code] : codes->object) {
      if (!cs->symbols().contains(name) || !code.is_string() ||
          code.str.size() != static_cast<std::size_t>(enc.bits))
        return "bad code table entry " + name;
      const std::uint32_t sym = cs->symbols().at(name);
      std::uint64_t c = 0;
      for (char ch : code.str) {
        if (ch != '0' && ch != '1') return "bad code " + code.str;
        c = (c << 1) | static_cast<std::uint64_t>(ch == '1');
      }
      enc.codes[sym] = c;
      seen[sym] = true;
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end())
      return "code table misses a symbol";
    const std::vector<Violation> bad = verify_encoding(enc, *cs);
    if (!bad.empty()) return "verify_encoding: " + bad.front().to_string();
    const bool proven = minimal && minimal->type == JsonValue::Type::kBool &&
                        minimal->boolean;
    const int ref_bits = ref.result.encoding.bits;
    if (proven && ref.result.minimal && enc.bits != ref_bits)
      return "proven minimum " + std::to_string(enc.bits) + " bits, reference " +
             std::to_string(ref_bits);
  }
  *good = s == "ok" || s == "infeasible";
  return "";
}

// ---- The service and its load generator -----------------------------------

// CPU seconds this process has spent outside the calling thread. Called
// from the load generator while the service runs, that is the service's
// CPU time: its event loop, broker workers and their solves.
double others_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9 - thread_cpu_s();
}

// What a traced run's solve_fn wrapper records per slot. Each record is
// written by the one worker that runs the request and read only after the
// server has stopped and joined its workers.
struct SolveTrace {
  double start = 0;
  double end = 0;
  std::vector<Span> stages;  // the solve's StageStats children, flattened
  bool truncated = false;
  bool from_cache = false;
  std::size_t valid_primes = 0;
};

std::size_t slot_index(const std::string& id) {
  return id.size() > 1 ? std::strtoull(id.c_str() + 1, nullptr, 10)
                       : static_cast<std::size_t>(-1);
}

int connect_unix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// A running service: cache, telemetry and Server on its own thread, plus
// the benchmark's client connections. The destructor closes the clients
// and joins the server thread before any member goes away.
class Service {
 public:
  Service(const std::string& socket, std::vector<SolveTrace>* traces)
      : window_(window_config()) {
    ServerConfig cfg;
    cfg.broker.workers = kWorkers;
    cfg.broker.max_queue = 4096;
    // The work budget arrives on the wire with each request.
    cfg.broker.base_options = service_options();
    cfg.broker.base_options.exec.max_work = 0;
    cfg.broker.cache = &cache_;
    cfg.broker.metrics = &metrics_;
    cfg.broker.window = &window_;
    cfg.metrics = &metrics_;
    cfg.window = &window_;
    if (traces) {
      cfg.broker.solve_fn = [traces](const SolveRequest& req) {
        const std::size_t idx = slot_index(req.id);
        if (idx >= traces->size()) return solve(req);
        SolveTrace& t = (*traces)[idx];
        t.start = now_s();
        SolveResponse resp = solve(req);
        t.end = now_s();
        SpanLog stages;
        stages.join_stages(resp.result.stats, idx, -1, t.start);
        t.stages = stages.spans();
        t.truncated = resp.result.truncated;
        t.from_cache = resp.result.from_cache || resp.result.coalesced;
        t.valid_primes = resp.result.num_valid_primes;
        return resp;
      };
    }
    server_ = std::make_unique<Server>(std::move(cfg));
    thread_ = std::thread([this, socket] { server_->run_unix_socket(socket); });
    const double deadline = now_s() + 5;
    while (static_cast<int>(fds_.size()) < kConnections && now_s() < deadline) {
      const int fd = connect_unix(socket);
      if (fd >= 0) fds_.push_back(fd);
      else std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (static_cast<int>(fds_.size()) < kConnections) {
      shutdown();
      throw std::runtime_error("cannot connect to the service at " + socket);
    }
  }

  ~Service() { shutdown(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Sends a health op on the first connection and waits for its reply.
  void health_check() {
    const std::string req = "{\"id\":\"h0\",\"op\":\"health\"}\n";
    if (send(fds_[0], req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size()))
      throw std::runtime_error("health request not sent");
    std::string reply;
    char buf[4096];
    const double deadline = now_s() + 5;
    while (reply.find('\n') == std::string::npos && now_s() < deadline) {
      pollfd p{fds_[0], POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = read(fds_[0], buf, sizeof buf);
      if (n <= 0) break;
      reply.append(buf, static_cast<std::size_t>(n));
    }
    if (reply.find("\"status\":\"ok\"") == std::string::npos)
      throw std::runtime_error("no healthy reply from the service");
  }

  const std::vector<int>& fds() const { return fds_; }
  Server& server() { return *server_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::uint64_t counter(const char* name) {
    return metrics_.counter(name, /*in_fingerprint=*/false)->value();
  }

 private:
  void shutdown() {
    for (int fd : fds_) close(fd);
    fds_.clear();
    server_->request_drain();
    if (thread_.joinable()) thread_.join();
  }

  static RollingWindow::Config window_config() {
    RollingWindow::Config c;
    c.sub_windows = 60;
    c.sub_window_us = 5'000'000;
    return c;
  }

  SolveCache cache_;
  MetricsRegistry metrics_;
  RollingWindow window_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  std::vector<int> fds_;
};

// What one phase observed per slot, plus the failures it found.
struct PhaseOut {
  std::vector<double> sent;  // absolute now_s(), 0 if never sent
  std::vector<double> recv;  // absolute now_s(), 0 if never answered
  std::vector<char> good;    // ok/infeasible and checked
  double start = 0;          // absolute time of schedule offset 0
  double service_cpu_s = 0;  // CPU time of the service's threads
  double calibration_s = 0;  // median CPU time of calibration_kernel()
  std::size_t queue_depth_max = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::size_t> first_failure;  // message -> slot
};

// Plays the schedule open loop over the service's connections. Response
// lines go to the `spool` file as "<slot> <line>", to be checked after the
// phase: checking as they arrive would compete with the generator and the
// service for the CPU, and holding them in memory would make the
// benchmark's buffers, not the service, the peak RSS.
PhaseOut play(Service& svc, const Plan& plan, bool sample_queue,
              std::FILE* spool) {
  const std::size_t total = plan.slots.size();
  const std::vector<int>& fds = svc.fds();
  const std::size_t conns = fds.size();
  for (int fd : fds) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  PhaseOut out;
  out.sent.assign(total, 0);
  out.recv.assign(total, 0);
  out.good.assign(total, 0);
  std::vector<std::string> outbuf(conns), inbuf(conns);
  std::vector<std::size_t> outoff(conns, 0);
  std::vector<std::deque<std::size_t>> pending(conns);
  std::size_t next = 0, answered = 0;
  std::string next_line = total ? plan.line(0) : "";
  bool broken = false;
  out.start = now_s() + 0.01;
  const double cpu0 = others_cpu_s();
  // The host's speed, measured over the same seconds as the service: it
  // drifts by tens of percent from one run to the next, and kernel times
  // taken while the service was idle did not follow the service's own
  // speed. The kernel takes about 5% of one core; the service keeps well
  // under one of the host's four cores busy, so its own load adds little
  // to the kernel's time. The kernel's CPU time is not the service's.
  PeriodicSampler calibrator(kCalibrationPeriodS, [] {
    const double t0 = thread_cpu_s();
    calibration_kernel();
    return thread_cpu_s() - t0;
  });
  double last_send = out.start;
  std::vector<char> buf(1 << 16);
  while (answered < total && !broken) {
    double now = now_s();
    while (next < total && out.start + plan.slots[next].sched <= now) {
      const std::size_t c = next % conns;
      out.sent[next] = now;
      outbuf[c] += next_line;
      pending[c].push_back(next);
      last_send = now;
      if (++next < total) next_line = plan.line(next);
      now = now_s();
    }
    for (std::size_t c = 0; c < conns; ++c) {
      while (outoff[c] < outbuf[c].size()) {
        const ssize_t n =
            send(fds[c], outbuf[c].data() + outoff[c],
                 outbuf[c].size() - outoff[c], MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          outoff[c] += static_cast<std::size_t>(n);
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            broken = true;
          break;
        }
      }
      if (outoff[c] == outbuf[c].size()) {
        outbuf[c].clear();
        outoff[c] = 0;
      }
    }
    if (sample_queue)
      out.queue_depth_max =
          std::max(out.queue_depth_max, svc.server().broker().queue_depth());
    now = now_s();
    if (next >= total && now - last_send > kDrainTimeoutS) break;
    double wait = next < total ? out.start + plan.slots[next].sched - now : 0.05;
    wait = std::clamp(wait, 0.0, 0.05);
    std::vector<pollfd> pfd(conns);
    for (std::size_t c = 0; c < conns; ++c)
      pfd[c] = {fds[c],
                static_cast<short>(POLLIN | (outbuf[c].empty() ? 0 : POLLOUT)),
                0};
    const timespec ts{0, static_cast<long>(wait * 1e9)};
    if (ppoll(pfd.data(), conns, &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if (!(pfd[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t n = read(fds[c], buf.data(), buf.size());
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            broken = true;
          break;
        }
        inbuf[c].append(buf.data(), static_cast<std::size_t>(n));
      }
      const double t = now_s();
      std::size_t begin = 0, pos;
      while ((pos = inbuf[c].find('\n', begin)) != std::string::npos) {
        if (pending[c].empty()) {
          broken = true;  // an answer nobody asked for
          break;
        }
        const std::size_t idx = pending[c].front();
        pending[c].pop_front();
        out.recv[idx] = t;
        ++answered;
        std::fprintf(spool, "%zu %.*s\n", idx, static_cast<int>(pos - begin),
                     inbuf[c].data() + begin);
        begin = pos + 1;
      }
      inbuf[c].erase(0, begin);
    }
  }
  calibrator.stop();
  out.service_cpu_s = others_cpu_s() - cpu0 - calibrator.cpu_s();
  out.calibration_s = median(calibrator.samples());
  return out;
}

// Checks the spooled responses of a phase, a bounded batch at a time so
// the check adds little to peak RSS.
void check_spool(const Plan& plan, const References& refs, std::FILE* spool,
                 PhaseOut* out) {
  constexpr std::size_t kBatch = 4096;
  std::rewind(spool);
  std::vector<std::pair<std::size_t, std::string>> batch;
  std::vector<std::string> errors;
  char* buf = nullptr;
  std::size_t cap = 0;
  auto flush = [&] {
    errors.assign(batch.size(), std::string());
    parallel_for(batch.size(), check_threads(), [&](std::size_t k) {
      const auto& [idx, line] = batch[k];
      if (plan.slots[idx].scrape) {
        if (line.find("\"status\":\"ok\"") == std::string::npos)
          errors[k] = "metrics scrape failed";
        return;
      }
      bool good = false;
      errors[k] = check_response(plan, refs, idx, line, &good);
      out->good[idx] = good;
    });
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (errors[k].empty()) continue;
      ++out->failed;
      out->first_failure.emplace(errors[k], batch[k].first);
    }
    batch.clear();
  };
  for (ssize_t n; (n = getline(&buf, &cap, spool)) > 0;) {
    char* rest = nullptr;
    const std::size_t idx = std::strtoull(buf, &rest, 10);
    if (idx >= plan.slots.size() || *rest != ' ') continue;
    batch.emplace_back(idx, std::string(rest + 1, buf + n - (buf[n - 1] == '\n')));
    if (batch.size() == kBatch) flush();
  }
  flush();
  std::free(buf);
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    if (out->recv[i] != 0) continue;
    ++out->failed;
    out->first_failure.emplace("no response", i);
  }
}

struct Phase {
  PhaseOut out;
  std::vector<SolveTrace> traces;
  CacheStats cache;
  std::uint64_t coalesced = 0;
  double peak_rss_mb = 0;  // from service start to service stop
};

std::string socket_path(const Args& args) { return args.work_dir + "/e2e.sock"; }

Phase run_phase(const Args& args, const Plan& plan, const References& refs,
                bool traced) {
  Phase ph;
  if (traced) ph.traces.resize(plan.slots.size());
  const std::string spool_path = args.work_dir + "/e2e-responses.txt";
  std::FILE* spool = std::fopen(spool_path.c_str(), "w+");
  if (!spool) throw std::runtime_error("cannot open " + spool_path);
  // The peak RSS covers the service's life only: the reference solves
  // before it and the checks after it are the benchmark's. Freed heap is
  // returned to the system first, so that the service's allocations need
  // fresh pages rather than reusing what the reference solves left behind.
  malloc_trim(0);
  reset_peak_rss();
  {
    Service svc(socket_path(args), traced ? &ph.traces : nullptr);
    svc.health_check();
    ph.out = play(svc, plan, traced, spool);
    ph.cache = svc.cache_stats();
    ph.coalesced = svc.counter("cache.coalesced");
  }
  ph.peak_rss_mb = peak_rss_mb();
  check_spool(plan, refs, spool, &ph.out);
  std::fclose(spool);
  std::remove(spool_path.c_str());
  return ph;
}

}  // namespace

Result run_serve(const Args& args) {
  Result res;
  const Rates rates = rates_for(args.workload);

  // Set-up: build the schedule and bring the service up to its first
  // health reply, several times; report the median.
  std::vector<double> setups;
  Plan plan;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    plan = make_plan(args);
    Service svc(socket_path(args), nullptr);
    svc.health_check();
    setups.push_back(now_s() - t0);
  }
  const double t_ref = now_s();
  fill_pool(&plan);
  const References refs = prepare_references(plan);
  const double check_prep_s = now_s() - t_ref;

  // Untraced phase for the end-to-end metrics; a traced run adds a traced
  // phase with the same schedule for the per-layer metrics.
  std::vector<Phase> phases;
  phases.push_back(run_phase(args, plan, refs, false));
  if (args.trace) phases.push_back(run_phase(args, plan, refs, true));
  for (const Phase& ph : phases) {
    res.attempted += plan.slots.size();
    res.failed += ph.out.failed;
    for (const auto& [why, idx] : ph.out.first_failure)
      res.notes.push_back("FAILED slot " + std::to_string(idx) + ": " + why);
  }

  // End-to-end metrics from the untraced phase.
  const PhaseOut& u = phases[0].out;
  std::vector<double> lat_nominal, scheduled_at, sent_at, scrape_ms;
  std::vector<Answer> high_answers;
  std::size_t scheduled[2] = {0, 0}, sent[2] = {0, 0}, answered[2] = {0, 0};
  std::size_t solves = 0, statuses_ok = 0, statuses_infeasible = 0;
  std::size_t good_in_limit = 0;
  double high_end = 0;
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    const Slot& e = plan.slots[i];
    const double sched = u.start + e.sched;
    ++scheduled[e.step];
    if (u.sent[i] > 0) {
      ++sent[e.step];
      scheduled_at.push_back(sched);
      sent_at.push_back(u.sent[i]);
    }
    if (u.recv[i] > 0) ++answered[e.step];
    if (e.scrape) {
      if (u.recv[i] > 0) scrape_ms.push_back((u.recv[i] - u.sent[i]) * 1e3);
      continue;
    }
    ++solves;
    if (refs.ref[i] != kNoRef) {
      const StatusCode ref = refs.refs[refs.ref[i]].status;
      statuses_ok += ref == StatusCode::kOk;
      statuses_infeasible += ref == StatusCode::kInfeasible;
    }
    const double latency_ms = u.recv[i] > 0 ? (u.recv[i] - sched) * 1e3 : INFINITY;
    good_in_limit += u.good[i] && latency_ms <= kLatencyLimitMs;
    if (e.step == 0 && u.recv[i] > 0) lat_nominal.push_back(latency_ms);
    if (e.step == 1) {
      high_answers.push_back({latency_ms, u.good[i] != 0});
      high_end = std::max(high_end, u.recv[i]);
    }
  }
  // Goodput per second of the high step as it ran: from its first
  // scheduled send until its last answer arrived.
  const double high_span =
      high_end > 0 ? high_end - (u.start + plan.nominal_s) : plan.high_s;
  const double goodput_rps = goodput(high_answers, kLatencyLimitMs, high_span);
  const double p50 = percentile(lat_nominal, 50);
  const double p99 = percentile(lat_nominal, 99);
  const double late_p99 = percentile(lateness_ms(scheduled_at, sent_at), 99);
  // Good answers per CPU-second of the service over the whole untraced
  // phase, at the reference core's speed. At a fixed offered rate below
  // capacity, goodput per wall second is the rate itself; the CPU the
  // service spends on that load is what a faster or slower service changes.
  const double good_per_cpu_s =
      u.service_cpu_s > 0 ? static_cast<double>(good_in_limit) / u.service_cpu_s : 0;
  const double good_per_ref_cpu_s =
      good_per_cpu_s * u.calibration_s / kCalibrationRefS;

  res.end_to_end = {{"setup_s", median(setups), "s"},
                    {"peak_rss_mb", phases[0].peak_rss_mb, "MB"},
                    {"ops_per_s", good_per_ref_cpu_s, "1/s"}};
  res.report = res.end_to_end;
  res.report.push_back({"good_per_cpu_s", good_per_cpu_s, "1/s"});
  res.report.push_back({"calibration_ms", u.calibration_s * 1e3, "ms"});
  res.report.push_back({"service_cpu_s", u.service_cpu_s, "s"});
  res.report.push_back({"good_answers", static_cast<double>(good_in_limit), "count"});
  res.report.push_back({"goodput_rps", goodput_rps, "1/s"});
  res.report.push_back({"p50_ms", p50, "ms"});
  res.report.push_back({"p99_ms", p99, "ms"});
  res.report.push_back({"p99_samples_beyond",
                        static_cast<double>(samples_beyond(lat_nominal.size(), 99)),
                        "count"});
  res.report.push_back({"fail_ratio",
                        static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted),
                        "ratio"});
  res.report.push_back({"latency_limit_ms", kLatencyLimitMs, "ms"});
  res.report.push_back({"rate_nominal", rates.nominal, "1/s"});
  res.report.push_back({"rate_high", rates.high, "1/s"});
  const char* step_names[2] = {"nominal", "high"};
  for (int s = 0; s < 2; ++s) {
    const std::string pre = std::string("loadgen.") + step_names[s];
    auto count = [](std::size_t n) { return static_cast<double>(n); };
    res.report.push_back({pre + ".scheduled", count(scheduled[s]), "count"});
    res.report.push_back({pre + ".sent", count(sent[s]), "count"});
    res.report.push_back({pre + ".answered", count(answered[s]), "count"});
  }
  res.report.push_back({"loadgen.late_ms", late_p99, "ms"});
  res.report.push_back({"distinct_instances",
                        static_cast<double>(refs.refs.size()), "count"});
  res.report.push_back({"answers_ok_share",
                        static_cast<double>(statuses_ok) /
                            static_cast<double>(solves),
                        "ratio"});
  res.report.push_back({"answers_infeasible_share",
                        static_cast<double>(statuses_infeasible) /
                            static_cast<double>(solves),
                        "ratio"});
  res.report.push_back({"check_prep_s", check_prep_s, "s"});
  if (!percentile_valid(lat_nominal.size(), 99))
    res.notes.push_back("p99_ms is not valid: fewer than 10 samples beyond it");
  if (late_p99 > kMaxLateP99Ms) {
    res.valid = false;
    char why[160];
    std::snprintf(why, sizeof why,
                  "load generator fell behind: p99 lateness %.3f ms > %.3f ms",
                  late_p99, kMaxLateP99Ms);
    res.invalid_reason = why;
  }

  if (args.trace) {
    const Phase& t = phases[1];
    SpanLog log;
    std::vector<double> queue_ms, solve_ms, transport_ms, traced_nominal;
    std::size_t truncated = 0, served = 0;
    double valid_primes = 0;
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      const SolveTrace& st = t.traces[i];
      if (plan.slots[i].scrape || t.out.recv[i] == 0) continue;
      if (plan.slots[i].step == 0)
        traced_nominal.push_back(
            (t.out.recv[i] - t.out.start - plan.slots[i].sched) * 1e3);
      if (st.end == 0) continue;  // never reached a worker
      const int root = log.add("request", i, -1, t.out.sent[i], t.out.recv[i]);
      log.add("queue", i, root, t.out.sent[i], st.start);
      log.graft(st.stages, log.add("solve", i, root, st.start, st.end));
      queue_ms.push_back((st.start - t.out.sent[i]) * 1e3);
      solve_ms.push_back((st.end - st.start) * 1e3);
      transport_ms.push_back((t.out.recv[i] - st.end) * 1e3);
      truncated += st.truncated;
      served += st.from_cache;
      if (!st.from_cache) valid_primes += static_cast<double>(st.valid_primes);
    }
    // Render timing: the response a request gets, built from its
    // reference answer mapped through the request's own symbol order, on
    // an evenly spaced sample of up to kRenderSamples requests.
    std::vector<double> parse_us, canon_us, render_us;
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      if (plan.slots[i].scrape || refs.ref[i] == kNoRef) continue;
      parse_us.push_back(refs.parse_us[i]);
      canon_us.push_back(refs.canon_us[i]);
    }
    const std::size_t stride =
        std::max<std::size_t>(1, plan.slots.size() / kRenderSamples);
    for (std::size_t i = 0; i < plan.slots.size(); i += stride) {
      if (plan.slots[i].scrape || refs.ref[i] == kNoRef) continue;
      const Reference& ref = refs.refs[refs.ref[i]];
      const ConstraintSet cs = *request_constraints(plan.line(i));
      const std::vector<std::uint32_t> to_canonical =
          canonicalize(cs).perm.to_canonical;
      SolveResponse resp;
      resp.id = "r" + std::to_string(i);
      resp.status = ref.status;
      resp.result = ref.result;
      if (resp.result.encoding.codes.size() == to_canonical.size())
        for (std::size_t k = 0; k < to_canonical.size(); ++k)
          resp.result.encoding.codes[k] =
              ref.result.encoding.codes[to_canonical[k]];
      const double t0 = now_s();
      const std::string line = render_response(resp, &cs.symbols());
      render_us.push_back((now_s() - t0) * 1e6);
      if (line.empty()) throw std::logic_error("empty rendering");
    }
    const double solves_d =
        static_cast<double>(std::max<std::size_t>(solve_ms.size(), 1));
    LayerValues v;
    add_stage_metrics(log, 1.0, &v);
    v["core.valid_primes"] = valid_primes;
    v["core.truncated_ratio"] = static_cast<double>(truncated) / solves_d;
    v["cache.canonicalize_us"] = median(canon_us);
    v["cache.hit_ratio"] = static_cast<double>(served) / solves_d;
    v["cache.coalesced"] = static_cast<double>(t.coalesced);
    v["cache.inserts"] = static_cast<double>(t.cache.inserts);
    v["cache.evictions"] = static_cast<double>(t.cache.evictions);
    v["cache.bytes"] = static_cast<double>(t.cache.bytes);
    v["service.parse_us"] = median(parse_us);
    v["service.render_us"] = median(render_us);
    v["service.queue_p50_ms"] = percentile(queue_ms, 50);
    v["service.queue_p99_ms"] = percentile(queue_ms, 99);
    v["service.solve_p50_ms"] = percentile(solve_ms, 50);
    v["service.solve_p99_ms"] = percentile(solve_ms, 99);
    v["service.transport_p50_ms"] = percentile(transport_ms, 50);
    v["service.transport_p99_ms"] = percentile(transport_ms, 99);
    v["service.queue_depth_max"] = static_cast<double>(t.out.queue_depth_max);
    v["obs.trace_overhead_ratio"] =
        p50 > 0 ? percentile(traced_nominal, 50) / p50 - 1 : 0;
    v["obs.scrape_ms"] = percentile(scrape_ms, 50);
    v["loadgen.late_ms"] = late_p99;
    res.per_layer = per_layer_metrics(v);
    for (const Metric& m : res.per_layer)
      if (m.value != 0) res.report.push_back(m);
    add_share_notes(log.self_seconds(), &res.notes);
  }
  return res;
}

}  // namespace e2e
