// perfbench driver: drives the shipped serving path (tools/abnn2_server, a
// serve::Supervisor with default options) from one load-generator process
// over TCP loopback, and runs the same requests through the shipped engine
// in-process with the library's obs spans collected.
//
//   perfbench_driver e2e   --workload W --seed S --seconds T --server BIN
//                          --workdir DIR
//   perfbench_driver trace --workload W --seed S --server BIN --workdir DIR
//                          [--spans FILE]
//
// e2e: several server set-ups (median reported by the caller), then a closed
// loop of fresh-session requests for T seconds; every request's logits are
// compared bit for bit with nn::infer_plain.
// trace: a short untraced pass against the server (per-phase bytes, serve
// counters, queue depth sampled with health probes), then the first of those
// requests again through core::InferenceServer / InferenceClient in this
// process, once untraced and once with an obs::Collector installed; the
// per-layer split comes from the library's own spans and counters.
//
// Prints one JSON object with the raw measurements on the last stdout line;
// perfbench/run.py turns it into the benchmark's metrics.
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/complexity.h"
#include "core/inference.h"
#include "crypto/ro.h"
#include "net/framed_channel.h"
#include "net/socket_channel.h"
#include "nn/model_io.h"
#include "obs/obs.h"
#include "offline/factory.h"
#include "offline/pool.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "tracing.h"

extern char** environ;

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {

using namespace abnn2;
using nn::MatU64;

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  const char* scheme;
  std::vector<std::size_t> dims;
  std::size_t ring_bits;
  std::size_t batch;
  std::size_t clients;
  bool warm;
  // Trace mode: requests in the untraced pass against the server, and how
  // many of them run again in-process (untraced and traced).
  std::size_t trace_untraced;
  std::size_t trace_in_process;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"cold-fig4-b1", "s(2,2,2,2)", {784, 128, 128, 10}, 32, 1, 1, false, 4,
       3},
      {"cold-ternary-b128", "ternary", {784, 128, 128, 10}, 32, 128, 1, false,
       2, 1},
      {"warm-ternary-b128-c2", "ternary", {784, 128, 128, 10}, 32, 128, 2,
       true, 4, 2},
  };
  return w;
}

// ---- options ----------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  std::string server;
  std::string workdir;
  std::string spans;
};

// The serving process currently running, killed on every exit path.
pid_t g_live_server = -1;

void kill_live_server() {
  if (g_live_server > 0) {
    ::kill(g_live_server, SIGKILL);
    ::waitpid(g_live_server, nullptr, 0);
    g_live_server = -1;
  }
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  kill_live_server();
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_driver <e2e|trace> --workload W ...");
  Options o;
  o.mode = argv[1];
  if (o.mode != "e2e" && o.mode != "trace") die("unknown mode " + o.mode);
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--server") o.server = v;
    else if (k == "--workdir") o.workdir = v;
    else if (k == "--spans") o.spans = v;
    else die("unknown flag " + k);
  }
  if (o.server.empty() || o.workdir.empty()) die("--server and --workdir are required");
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return w;
  die("unknown workload '" + name + "'");
}

// ---- seeded inputs ------------------------------------------------------------

u64 mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

enum Domain : u64 { kModelSeed = 1, kImageSeed = 2, kDealerSeed = 3 };

/// Warm-up requests are numbered from here, far above any index a timed
/// window reaches.
constexpr u64 kWarmupIdx = u64{1} << 40;

/// Distinct input batches per run. They are made before any request is timed
/// and request i sends batch i mod kDistinctInputs (each request is a fresh
/// session with fresh randomness either way).
constexpr std::size_t kDistinctInputs = 8;

/// Warm workload: timed-window bundles per client are sized to this many
/// times the window over the fastest warm-up request. A client that still
/// runs out fails the run.
constexpr double kBundleHeadroom = 1.5;

/// Warm workload: warm-up rounds on the set-up server. A fresh process's
/// first request can take 1.7x a steady one, so the pool is sized from the
/// fastest request of these rounds, not from the first.
constexpr std::size_t kWarmupRounds = 2;

Block seed_block(u64 seed, u64 domain, u64 idx = 0) {
  return Block(mix64(seed ^ mix64(domain)), mix64(idx ^ mix64(seed + domain)));
}

struct Inputs {
  nn::Model model{ss::Ring(32)};
  std::shared_ptr<const nn::Model> shared;
  std::array<u8, 32> digest{};
  std::string model_path;
};

Inputs make_inputs(const Workload& w, u64 seed, const std::string& dir) {
  Inputs in;
  const ss::Ring ring(w.ring_bits);
  in.model = nn::random_model(ring, nn::FragScheme::parse(w.scheme), w.dims,
                              seed_block(seed, kModelSeed));
  in.model_path = dir + "/model.mdl";
  nn::save_model(in.model, in.model_path);
  in.shared = std::make_shared<const nn::Model>(in.model);
  in.digest = nn::model_digest(in.model);
  return in;
}

/// One request's input batch, its plaintext reference logits and the count of
/// non-negative pre-activations per hidden layer (the optimized ReLU garbles
/// its second circuit only for those, so online bytes depend on them).
struct Request {
  MatU64 x;
  MatU64 ref;
  std::vector<u64> positives;
};

Request make_request(const Workload& w, const nn::Model& m, u64 seed, u64 idx) {
  Request r;
  const ss::Ring ring(w.ring_bits);
  r.x = nn::synthetic_images(w.dims[0], w.batch, w.ring_bits / 2, ring,
                             seed_block(seed, kImageSeed, idx));
  r.ref = nn::infer_plain(m, r.x);
  MatU64 act = r.x;
  for (std::size_t li = 0; li + 1 < m.layers.size(); ++li) {
    const auto& l = m.layers[li];
    MatU64 y = nn::matmul_codes(ring, l.codes, l.scheme, act);
    u64 pos = 0;
    for (std::size_t i = 0; i < y.rows(); ++i)
      for (std::size_t k = 0; k < y.cols(); ++k) {
        if (!l.bias.empty()) y.at(i, k) = ring.add(y.at(i, k), l.bias[i]);
        if (ring.to_signed(y.at(i, k)) >= 0) ++pos;
      }
    r.positives.push_back(pos);
    nn::relu_inplace(ring, y);
    act = std::move(y);
  }
  return r;
}

std::vector<Request> make_requests(const Workload& w, const nn::Model& m,
                                   u64 seed) {
  std::vector<Request> reqs;
  for (u64 i = 0; i < kDistinctInputs; ++i)
    reqs.push_back(make_request(w, m, seed, i));
  return reqs;
}

const Request& request_for(const std::vector<Request>& reqs, u64 idx) {
  return reqs[idx % reqs.size()];
}

// ---- warm-pool bundles ----------------------------------------------------------

struct Bundles {
  offline::MaterialKey key;
  std::deque<std::pair<u64, offline::ClientMaterial>> client;  // handed to e2e clients
  std::vector<offline::MaterialBundle> in_process;  // both halves
  std::size_t generated = 0;
  double wall_s = 0;
  double save_s = 0;
};

/// Generates `n_served + n_in_process` bundles with seeded dealers in parallel,
/// writes the server halves of the first `n_served` to
/// `<pool_dir>/<canonical name>` and keeps everything else in memory. Every
/// bundle is handed out at most once; each `stage` of a run has its own
/// dealer seeds and bundle ids. One spare server half, whose client half is
/// dropped, keeps the pool from running dry: an empty pool sets the server's
/// own factory producing in the background.
Bundles make_bundles(const Workload& w, const Inputs& in, u64 seed, u64 stage,
                     std::size_t n_served, std::size_t n_in_process,
                     const std::string& pool_dir) {
  Bundles b;
  b.key = offline::MaterialKey{in.digest, w.ring_bits, w.batch,
                               static_cast<u64>(ot::kDefaultOtBackend)};
  const std::size_t spare = n_served + n_in_process;
  const std::size_t total = spare + 1;
  std::vector<offline::MaterialBundle> all(total);
  const core::InferenceConfig defaults(ss::Ring(w.ring_bits));
  constexpr std::size_t kDealers = 4;
  const double t0 = now_us();
  std::vector<std::thread> dealers;
  std::vector<std::exception_ptr> errs(kDealers);
  for (std::size_t d = 0; d < kDealers; ++d)
    dealers.emplace_back([&, d] {
      try {
        offline::FactoryOptions fo;
        fo.seed = mix64(seed ^ mix64(kDealerSeed + 16 * stage + d)) | 1;
        fo.batch_mode = defaults.batch_mode;
        fo.chunk_instances = defaults.chunk_instances;
        offline::MaterialFactory f(fo);
        f.register_model(in.shared, in.digest);
        for (std::size_t i = d; i < total; i += kDealers) {
          all[i] = f.generate_now(b.key);
          all[i].seq = stage * 1'000'000 + i + 1;  // unique across dealers
        }
      } catch (...) {
        errs[d] = std::current_exception();
      }
    });
  for (auto& t : dealers) t.join();
  for (auto& e : errs)
    if (e) std::rethrow_exception(e);
  b.wall_s = (now_us() - t0) / 1e6;
  b.generated = total;

  const double s0 = now_us();
  offline::MaterialPool pool;
  for (std::size_t i = 0; i < total; ++i) {
    if (i < n_served || i == spare) {
      offline::MaterialBundle half;
      half.seq = all[i].seq;
      half.server = std::move(all[i].server);
      pool.deposit(b.key, std::move(half));
      if (i != spare) b.client.emplace_back(all[i].seq, std::move(*all[i].client));
    } else {
      b.in_process.push_back(std::move(all[i]));
    }
  }
  mkdir(pool_dir.c_str(), 0755);
  pool.save(pool_dir + "/" +
                  offline::MaterialPool::file_name(b.key, offline::Side::kServer),
              b.key, offline::Side::kServer);
  b.save_s = (now_us() - s0) / 1e6;
  return b;
}

// ---- the serving process ---------------------------------------------------------

// Each party gets its own CPUs, as two machines would: the server the first
// half of the CPUs this process may use, the load generator the rest. Each
// process's runtime pool has one thread per CPU it owns, so the two pools
// together never exceed the CPU count.
struct CpuSplit {
  cpu_set_t all, server, client;
  std::size_t server_threads = 1, client_threads = 1;
  bool pinned = false;
};

CpuSplit split_cpus() {
  CpuSplit c;
  CPU_ZERO(&c.all);
  sched_getaffinity(0, sizeof(c.all), &c.all);
  c.server = c.client = c.all;
  std::vector<int> ids;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &c.all)) ids.push_back(i);
  if (ids.size() < 2) return c;
  c.server_threads = ids.size() / 2;
  c.client_threads = ids.size() - c.server_threads;
  CPU_ZERO(&c.server);
  CPU_ZERO(&c.client);
  for (std::size_t i = 0; i < ids.size(); ++i)
    CPU_SET(ids[i], i < c.server_threads ? &c.server : &c.client);
  c.pinned = true;
  return c;
}

const CpuSplit& cpus() {
  static const CpuSplit c = split_cpus();
  return c;
}

/// Moves this thread to `set` and rebuilds the runtime pool there (pool
/// threads inherit the creating thread's affinity).
void use_cpus(const cpu_set_t& set, std::size_t threads) {
  sched_setaffinity(0, sizeof(cpu_set_t), &set);
  runtime::set_threads(threads);
}

/// The load generator's own CPUs and pool.
void use_client_cpus() { use_cpus(cpus().client, cpus().client_threads); }

/// Every CPU, for work that runs while the server does not (the dealer) or
/// that plays both parties in this process (the in-process runs).
void use_all_cpus() {
  use_cpus(cpus().all, cpus().server_threads + cpus().client_threads);
}

u16 free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0)
    die("bind() failed");
  socklen_t len = sizeof(a);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
  ::close(fd);
  return ntohs(a.sin_port);
}

struct ServerProc {
  pid_t pid = -1;
  u16 port = 0;
  std::string err_path;
  double ready_s = 0;  // spawn -> first health probe answered with ready=1
};

bool probe(u16 port, core::HealthStatus* out, int connect_ms) {
  try {
    SocketOptions so;
    so.connect_timeout_ms = connect_ms;
    so.recv_timeout_ms = 5000;
    auto sock = SocketChannel::connect("127.0.0.1", port, so);
    FramedChannel ch(*sock);
    const core::HealthStatus st = core::probe_health(ch);
    if (out) *out = st;
    return st.ready == 1;
  } catch (const std::exception&) {
    return false;
  }
}

ServerProc spawn_server(const Options& o, const Inputs& in,
                        const std::string& pool_dir, int k) {
  ServerProc s;
  s.port = free_port();
  s.err_path = o.workdir + "/server-" + std::to_string(k) + ".err";
  const std::string out_path = o.workdir + "/server-" + std::to_string(k) + ".out";
  std::vector<std::string> args = {o.server, in.model_path,
                                   std::to_string(s.port)};
  if (!pool_dir.empty()) {
    args.push_back("--pool-dir");
    args.push_back(pool_dir);
  }
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The environment is inherited except for the pool size, which is fixed.
  std::vector<std::string> env_store;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "ABNN2_THREADS=", 14) != 0 &&
        std::strncmp(*e, "ABNN2_TRACE=", 12) != 0)
      env_store.emplace_back(*e);
  env_store.push_back("ABNN2_THREADS=" + std::to_string(cpus().server_threads));
  std::vector<char*> envp;
  for (auto& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, s.err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const double t0 = now_us();
  const int rc = posix_spawn(&s.pid, o.server.c_str(), &fa, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) die("cannot start " + o.server + ": " + std::strerror(rc));
  g_live_server = s.pid;
  sched_setaffinity(s.pid, sizeof(cpu_set_t), &cpus().server);
  for (;;) {
    int status = 0;
    if (::waitpid(s.pid, &status, WNOHANG) == s.pid) {
      g_live_server = -1;
      die("server exited during set-up (see " + s.err_path + ")");
    }
    if (probe(s.port, nullptr, 20)) break;
    if (now_us() - t0 > 120e6) die("server not ready after 120 s");
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  s.ready_s = (now_us() - t0) / 1e6;
  return s;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto rp = line.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream is(line.substr(rp + 2));
  std::string tok;
  double ticks = 0;
  for (int field = 3; is >> tok; ++field) {
    if (field == 14 || field == 15) ticks += std::stod(tok);
    if (field == 15) break;
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_hwm_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024 / 1e6;
  return 0;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Counters from the server's drain summary (logged on SIGTERM).
struct DrainSummary {
  bool found = false;
  unsigned long long served = 0, resumed = 0, reaped = 0, busy = 0,
                     evicted = 0, hits = 0, misses = 0, produced = 0;
  int exit_code = -1;
};

DrainSummary stop_server(ServerProc& s) {
  DrainSummary d;
  if (s.pid <= 0) return d;
  ::kill(s.pid, SIGTERM);
  int status = 0;
  const double t0 = now_us();
  while (::waitpid(s.pid, &status, WNOHANG) != s.pid) {
    if (now_us() - t0 > 30e6) {
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s.pid = -1;
  g_live_server = -1;
  d.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::ifstream f(s.err_path);
  std::string line;
  while (std::getline(f, line)) {
    const auto a = line.find("[serve] drained: ");
    if (a != std::string::npos) {
      d.found = std::sscanf(line.c_str() + a + 17,
                            "%llu batches served, %llu resumed, %llu reaped, "
                            "%llu busy-rejected, %llu evicted",
                            &d.served, &d.resumed, &d.reaped, &d.busy,
                            &d.evicted) == 5;
    }
    const auto p = line.find("[serve] pool: ");
    if (p != std::string::npos)
      std::sscanf(line.c_str() + p + 14,
                  "%llu hit(s), %llu miss(es), %llu bundle(s) produced", &d.hits,
                  &d.misses, &d.produced);
  }
  return d;
}

// ---- JSON output -------------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    os_ << buf;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    os_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') os_ << '\\' << c;
      else if (static_cast<unsigned char>(c) < 0x20) os_ << ' ';
      else os_ << c;
    }
    os_ << '"';
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& begin_obj() { sep(); os_ << '{'; fresh_ = true; return *this; }
  Json& end_obj() { os_ << '}'; fresh_ = false; return *this; }
  Json& begin_arr() { sep(); os_ << '['; fresh_ = true; return *this; }
  Json& end_arr() { os_ << ']'; fresh_ = false; return *this; }
  std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ", ";
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ---- untraced closed loop ---------------------------------------------------------

struct Sample {
  u64 idx = 0;
  std::size_t client = 0;
  bool ok = false;
  bool busy = false;
  bool pool_miss = false;
  bool wrong = false;
  std::string error;
  double start_us = 0;
  double lat_ms = 0;
  u64 off_bytes = 0, on_bytes = 0, off_rounds = 0, on_rounds = 0;
  std::vector<u64> positives;
};

struct LoopResult {
  std::vector<Sample> samples;
  double window_s = 0;
  double cpu_client_s = 0;
  double cpu_server_s = 0;
  bool exhausted = false;
  u64 queue_depth_max = 0;
};

/// Closed loop: `w.clients` threads, each sending its next request only after
/// the previous one completed. Stops issuing at `seconds` (or after
/// `max_requests` in total when nonzero); the window ends when the last
/// request completes.
LoopResult closed_loop(const Workload& w, const std::vector<Request>& reqs,
                       const ServerProc& srv, Bundles* bundles, double seconds,
                       std::size_t max_requests, bool sample_health,
                       u64 idx_base = 0) {
  LoopResult res;
  std::mutex mu;
  u64 next_idx = idx_base;  // guarded by mu
  if (max_requests > 0) max_requests += idx_base;
  std::atomic<bool> done{false};
  const ss::Ring ring(w.ring_bits);

  const double cpu_c0 = self_cpu_s();
  const double cpu_s0 = proc_cpu_s(srv.pid);
  const double t0 = now_us();
  const double t_end = t0 + seconds * 1e6;

  std::thread health;
  if (sample_health)
    health = std::thread([&] {
      while (!done.load()) {
        core::HealthStatus st;
        if (probe(srv.port, &st, 1000)) {
          std::lock_guard<std::mutex> lk(mu);
          res.queue_depth_max = std::max(res.queue_depth_max, st.queue_depth);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

  auto client_main = [&](std::size_t c) {
    for (;;) {
      const bool by_count = max_requests > 0;
      if (!by_count && now_us() >= t_end) return;
      std::optional<std::pair<u64, offline::ClientMaterial>> mat;
      u64 idx;
      {
        std::lock_guard<std::mutex> lk(mu);
        idx = next_idx;
        if (by_count && idx >= max_requests) return;
        if (bundles) {
          if (bundles->client.empty()) {
            res.exhausted = true;
            return;
          }
          mat = std::move(bundles->client.front());
          bundles->client.pop_front();
        }
        ++next_idx;
      }
      const Request& req = request_for(reqs, idx);
      Sample s;
      s.idx = idx;
      s.client = c;
      s.positives = req.positives;
      s.start_us = now_us();
      try {
        core::InferenceConfig cfg(ring);  // shipped defaults
        core::InferenceClient client(cfg);
        if (mat) client.install_material(std::move(mat->second.info),
                                         std::move(mat->second.r),
                                         std::move(mat->second.v), mat->first);
        SocketOptions so;
        so.connect_timeout_ms = 10'000;
        so.recv_timeout_ms = 60'000;
        auto sock = SocketChannel::connect("127.0.0.1", srv.port, so);
        FramedChannel ch(*sock);
        client.run_offline(ch, w.batch);
        if (mat && !client.resumed()) s.pool_miss = true;
        const ChannelStats off = ch.snapshot();
        const MatU64 logits = client.run_online(ch, req.x);
        const ChannelStats on = ch.snapshot() - off;
        s.lat_ms = (now_us() - s.start_us) / 1e3;
        s.off_bytes = off.total_bytes();
        s.off_rounds = off.rounds;
        s.on_bytes = on.total_bytes();
        s.on_rounds = on.rounds;
        s.wrong = !(logits.rows() == req.ref.rows() &&
                    logits.cols() == req.ref.cols() &&
                    logits.data() == req.ref.data());
        s.ok = !s.wrong && !s.pool_miss;
      } catch (const core::ServerBusy& e) {
        s.busy = true;
        s.error = e.what();
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      if (s.lat_ms == 0) s.lat_ms = (now_us() - s.start_us) / 1e3;
      std::lock_guard<std::mutex> lk(mu);
      res.samples.push_back(std::move(s));
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < w.clients; ++c) clients.emplace_back(client_main, c);
  for (auto& t : clients) t.join();
  res.window_s = (now_us() - t0) / 1e6;
  res.cpu_client_s = self_cpu_s() - cpu_c0;
  res.cpu_server_s = proc_cpu_s(srv.pid) - cpu_s0;
  done = true;
  if (health.joinable()) health.join();
  std::sort(res.samples.begin(), res.samples.end(),
            [](const Sample& a, const Sample& b) { return a.idx < b.idx; });
  return res;
}

void emit_samples(Json& j, const std::vector<Sample>& samples) {
  j.begin_arr();
  for (const auto& s : samples) {
    j.begin_obj()
        .key("idx").num(static_cast<double>(s.idx))
        .key("client").num(static_cast<double>(s.client))
        .key("ok").boolean(s.ok)
        .key("wrong").boolean(s.wrong)
        .key("busy").boolean(s.busy)
        .key("pool_miss").boolean(s.pool_miss)
        .key("error").str(s.error)
        .key("lat_ms").num(s.lat_ms)
        .key("off_bytes").num(static_cast<double>(s.off_bytes))
        .key("on_bytes").num(static_cast<double>(s.on_bytes))
        .key("off_rounds").num(static_cast<double>(s.off_rounds))
        .key("on_rounds").num(static_cast<double>(s.on_rounds))
        .key("positives").begin_arr();
    for (u64 p : s.positives) j.num(static_cast<double>(p));
    j.end_arr().end_obj();
  }
  j.end_arr();
}

void emit_drain(Json& j, const DrainSummary& d) {
  j.begin_obj()
      .key("found").boolean(d.found)
      .key("exit_code").num(d.exit_code)
      .key("served").num(static_cast<double>(d.served))
      .key("resumed").num(static_cast<double>(d.resumed))
      .key("reaped").num(static_cast<double>(d.reaped))
      .key("busy").num(static_cast<double>(d.busy))
      .key("pool_hits").num(static_cast<double>(d.hits))
      .key("pool_misses").num(static_cast<double>(d.misses))
      .key("pool_produced").num(static_cast<double>(d.produced))
      .end_obj();
}

void emit_provenance(Json& j, const Options& o, const Workload& w) {
  j.key("workload").str(w.name)
      .key("seed").num(static_cast<double>(o.seed))
      .key("dispatch").str(simd::dispatch_summary())
      .key("ro_mode").str(ro_mode() == RoMode::kSha256 ? "sha256" : "fixed-key-aes")
      .key("ot_backend").str(ot::to_string(core::InferenceConfig(ss::Ring(32)).ot_backend))
      .key("server_threads").num(static_cast<double>(cpus().server_threads))
      .key("client_threads").num(static_cast<double>(runtime::num_threads()))
      .key("nproc").num(static_cast<double>(std::thread::hardware_concurrency()))
      .key("pinned").boolean(cpus().pinned);
}

// ---- the shipped engine in-process -----------------------------------------------

std::string layer_name(const char* base, std::size_t li) {
  return std::string(base) + ".l" + std::to_string(li);
}

std::string obs_name(const char* base, std::size_t li) {
  return std::string(base) + "[" + std::to_string(li) + "]";
}

/// Totals of the obs spans named `name` within one request: wall from the
/// first open to the last close over both parties, bytes seen by the client
/// endpoint (both directions), rounds as the max over the endpoints.
struct ObsTotals {
  double ms = 0;
  u64 bytes = 0, rounds = 0;
};

ObsTotals obs_totals(const std::vector<obs::SpanRecord>& spans,
                     const std::string& name) {
  double start = 1e300, end = 0;
  u64 bytes[2] = {0, 0}, rounds[2] = {0, 0};
  for (const auto& s : spans) {
    if (s.name != name) continue;
    start = std::min(start, s.start_us);
    end = std::max(end, s.start_us + s.dur_us);
    if (s.has_traffic && (s.party == 0 || s.party == 1)) {
      bytes[s.party] += s.traffic.total_bytes();
      rounds[s.party] += s.traffic.rounds;
    }
  }
  if (end == 0) return {};
  return {(end - start) / 1e3, bytes[1], std::max(rounds[0], rounds[1])};
}

/// Busy time of the obs spans with any of `names`, summed per party (pool
/// workers count as their own party); the request waits for the busiest.
double obs_busy_ms(const std::vector<obs::SpanRecord>& spans,
                   std::initializer_list<std::string> names) {
  std::map<int, double> per_party;
  for (const auto& s : spans)
    for (const auto& n : names)
      if (s.name == n) per_party[s.party] += s.dur_us;
  double busiest = 0;
  for (const auto& [party, us] : per_party) busiest = std::max(busiest, us);
  return busiest / 1e3;
}

u64 counter(const std::map<std::string, u64>& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Table 1 prediction of one layer's triplet-generation bytes.
double predicted_triplet_bytes(const nn::FcLayer& layer, std::size_t o,
                               std::size_t l) {
  const core::MatMulShape s{layer.codes.rows(), layer.codes.cols(), o};
  const std::size_t gamma = layer.scheme.gamma(), n = layer.scheme.max_n();
  const double bits = o == 1 ? core::ours_onebatch_comm_bits(s, gamma, n, l)
                             : core::ours_multibatch_comm_bits(s, gamma, n, l);
  return bits / 8;
}

/// The per-layer split of one request, from the library's obs spans and
/// counters (span names as in core/inference.cpp, ot/, gc/).
std::map<std::string, double> layer_values(
    const Workload& w, const nn::Model& m,
    const std::vector<obs::SpanRecord>& spans,
    const std::map<std::string, u64>& counters) {
  std::map<std::string, double> v;
  auto put = [&](const std::string& prefix, const char* sep,
                 const std::string& name) {
    const ObsTotals t = obs_totals(spans, name);
    v[prefix + sep + "ms"] = t.ms;
    v[prefix + sep + "mb"] = static_cast<double>(t.bytes) / 1e6;
    v[prefix + sep + "rounds"] = static_cast<double>(t.rounds);
    return t;
  };
  put("core.offline", "_", "offline");
  put("core.online", "_", "online");
  const std::size_t n_layers = m.layers.size();
  for (std::size_t li = 0; li < n_layers; ++li) {
    const std::string name = layer_name("core.triplets", li);
    const ObsTotals t = put(name, ".", obs_name("triplets", li));
    v[name + ".pred_ratio"] =
        t.bytes > 0 ? static_cast<double>(t.bytes) /
                          predicted_triplet_bytes(m.layers[li], w.batch, w.ring_bits)
                    : 0;
    v[layer_name("nn.linear", li) + ".ms"] =
        obs_busy_ms(spans, {obs_name("linear", li)});
  }
  for (std::size_t li = 0; li + 1 < n_layers; ++li)
    put(layer_name("core.relu", li), ".", obs_name("relu", li));
  v["ot.base.ms"] = obs_busy_ms(spans, {"ot/base-ot-send", "ot/base-ot-recv"});
  const double kk_ms = obs_busy_ms(spans, {"kk13/extend"});
  // Both endpoints count their extended instances.
  const double kk_ots =
      static_cast<double>(counter(counters, "kk13.extend.instances")) / 2;
  v["ot.kk13.extend_ms"] = kk_ms;
  v["ot.kk13.ns_per_ot"] = kk_ots > 0 ? kk_ms * 1e6 / kk_ots : 0;
  v["ot.iknp.extend_ms"] = obs_busy_ms(spans, {"iknp/extend"});
  v["gc.garble_ms"] = obs_busy_ms(spans, {"gc/garble"});
  v["gc.eval_ms"] = obs_busy_ms(spans, {"gc/eval"});
  v["gc.and_gates"] = static_cast<double>(counter(counters, "gc.and_gates"));
  return v;
}

struct PartyCut {
  ChannelStats offline, online;
  double wait_offline_us = 0, wait_online_us = 0;
  int request_span = -1;
};

/// One endpoint: the shipped engine's run_offline and run_online, each
/// inside a benchmark span, with the phase cut taken between them.
template <class Offline, class Online>
void run_party(TraceChannel& ch, PartyCut& cut, Offline offline, Online online) {
  Span req("request");
  cut.request_span = req.id();
  {
    Span s("core.offline", &ch);
    offline();
  }
  cut.offline = ch.snapshot();
  cut.wait_offline_us = ch.recv_wait_us();
  {
    Span s("core.online", &ch);
    online();
  }
  cut.online = ch.snapshot() - cut.offline;
  cut.wait_online_us = ch.recv_wait_us() - cut.wait_offline_us;
}

struct InProcessRun {
  u64 idx = 0;
  bool ok = false;
  bool resumed = false;
  double wall_ms = 0;
  PartyCut server, client;
  std::map<std::string, double> layers;  // traced runs only
};

/// Runs one request through core::InferenceServer and core::InferenceClient
/// with their default configuration, in this process over TCP loopback, each
/// endpoint's transport wrapped in a TraceChannel. When `traced`, an
/// obs::Collector is installed for the request and its spans are kept next
/// to the benchmark's own.
InProcessRun run_in_process(const Workload& w, const Inputs& in,
                            const Request& req, u64 idx,
                            const offline::MaterialBundle* bundle, bool traced) {
  InProcessRun run;
  run.idx = idx;
  g_tracing = traced;
  obs::Collector col;
  const double epoch_us = now_us();
  obs::Collector* prev = obs::set_collector(traced ? &col : nullptr);
  const core::InferenceConfig cfg(in.model.ring);  // shipped defaults
  MatU64 logits;
  SocketListener listener(0);
  std::exception_ptr server_err, client_err;
  std::thread srv([&] {
    try {
      span_context() = SpanContext{-1, idx, 0};
      SocketOptions so;
      so.accept_timeout_ms = 30'000;
      so.recv_timeout_ms = 60'000;
      auto sock = listener.accept(so);
      FramedChannel framed(*sock);
      TraceChannel ch(framed);
      core::InferenceServer server(in.shared, cfg, &in.digest);
      if (bundle) server.install_material(bundle->server->u, w.batch, bundle->seq);
      run_party(ch, run.server, [&] { server.run_offline(ch); },
                [&] { server.run_online(ch); });
    } catch (...) {
      server_err = std::current_exception();
    }
  });
  const double t0 = now_us();
  try {
    span_context() = SpanContext{-1, idx, 1};
    SocketOptions so;
    so.recv_timeout_ms = 60'000;
    auto sock = SocketChannel::connect("127.0.0.1", listener.port(), so);
    FramedChannel framed(*sock);
    TraceChannel ch(framed);
    core::InferenceClient client(cfg);
    if (bundle)
      client.install_material(bundle->client->info, bundle->client->r,
                              bundle->client->v, bundle->seq);
    run_party(ch, run.client, [&] { client.run_offline(ch, w.batch); },
              [&] { logits = client.run_online(ch, req.x); });
    run.resumed = client.resumed();
  } catch (...) {
    client_err = std::current_exception();
  }
  run.wall_ms = (now_us() - t0) / 1e3;
  srv.join();
  obs::set_collector(prev);
  g_tracing = true;
  span_context() = SpanContext{};
  if (client_err) std::rethrow_exception(client_err);
  if (server_err) std::rethrow_exception(server_err);
  run.ok = logits.rows() == req.ref.rows() && logits.cols() == req.ref.cols() &&
           logits.data() == req.ref.data() && run.resumed == (bundle != nullptr);
  if (traced) {
    const auto spans = col.spans();
    run.layers = layer_values(w, in.model, spans, col.counters());
    for (const auto& s : spans) {
      const int parent = s.party == 0   ? run.server.request_span
                         : s.party == 1 ? run.client.request_span
                                        : -1;
      tracer().add(s.name, parent, idx, s.party, epoch_us + s.start_us,
                   epoch_us + s.start_us + s.dur_us,
                   s.has_traffic ? &s.traffic : nullptr);
    }
  }
  return run;
}

// ---- modes ---------------------------------------------------------------------------

int run_e2e(const Options& o, const Workload& w) {
  Inputs in = make_inputs(w, o.seed, o.workdir);
  const std::vector<Request> reqs = make_requests(w, in.model, o.seed);
  // Set-up is measured several times and setup_s is the median of each
  // part. Warm: the set-up pool holds the warm-up rounds' bundles, what the
  // server needs to take its first requests; the timed window's pool is
  // sized and generated after the warm-up, from its fastest request.
  constexpr int kDealerRuns = 3, kStarts = 7;
  const std::size_t warmup_requests = (w.warm ? kWarmupRounds : 1) * w.clients;
  std::unique_ptr<Bundles> first, timed;
  const std::string pool_dir = w.warm ? o.workdir + "/pool" : "";
  std::vector<double> ready, setup_gen;
  for (int k = 0; w.warm && k < kDealerRuns; ++k) {
    use_all_cpus();  // the dealer runs while no server does
    first = std::make_unique<Bundles>(
        make_bundles(w, in, o.seed, k, warmup_requests, 0, pool_dir));
    use_client_cpus();
    setup_gen.push_back(first->wall_s + first->save_s);
  }
  ServerProc srv;
  std::vector<DrainSummary> drains;
  for (int k = 0; k < kStarts; ++k) {
    if (k > 0) drains.push_back(stop_server(srv));
    srv = spawn_server(o, in, pool_dir, k);
    ready.push_back(srv.ready_s);
  }
  // A fresh process is slower on its first requests (heap growth, page
  // faults); a serving process is long-lived, so at least one request per
  // client warms both processes up before the window opens.
  std::vector<Sample> warmup =
      closed_loop(w, reqs, srv, first.get(), 0, warmup_requests, false, kWarmupIdx)
          .samples;
  std::size_t n_timed = 0;
  if (w.warm) {
    double fastest_ms = 1e300;
    for (const auto& s : warmup) fastest_ms = std::min(fastest_ms, s.lat_ms);
    n_timed = static_cast<std::size_t>(std::ceil(
                  kBundleHeadroom * o.seconds * 1e3 / std::max(1.0, fastest_ms))) *
              w.clients;
    drains.push_back(stop_server(srv));
    use_all_cpus();
    timed = std::make_unique<Bundles>(make_bundles(
        w, in, o.seed, kDealerRuns, n_timed + w.clients, 0, pool_dir));
    use_client_cpus();
    srv = spawn_server(o, in, pool_dir, kStarts);
    for (auto& s : closed_loop(w, reqs, srv, timed.get(), 0, w.clients, false,
                               kWarmupIdx + warmup_requests)
                       .samples)
      warmup.push_back(std::move(s));
  }
  LoopResult loop = closed_loop(w, reqs, srv, timed.get(), o.seconds, 0, false);
  const double rss = proc_hwm_mb(srv.pid);
  drains.push_back(stop_server(srv));

  Json j;
  j.begin_obj().key("mode").str("e2e");
  emit_provenance(j, o, w);
  j.key("batch").num(static_cast<double>(w.batch))
      .key("clients").num(static_cast<double>(w.clients))
      .key("ready_s").begin_arr();
  for (double r : ready) j.num(r);
  j.end_arr().key("setup_gen_s").begin_arr();
  for (double g : setup_gen) j.num(g);
  j.end_arr()
      .key("bundles").num(first ? static_cast<double>(first->generated) : 0)
      .key("timed_bundle_gen_s").num(timed ? timed->wall_s + timed->save_s : 0)
      .key("timed_bundles").num(static_cast<double>(n_timed))
      .key("exhausted").boolean(loop.exhausted)
      .key("window_s").num(loop.window_s)
      .key("cpu_client_s").num(loop.cpu_client_s)
      .key("cpu_server_s").num(loop.cpu_server_s)
      .key("server_rss_mb").num(rss)
      .key("drains").begin_arr();
  for (const auto& d : drains) emit_drain(j, d);
  j.end_arr().key("warmup");
  emit_samples(j, warmup);
  j.key("samples");
  emit_samples(j, loop.samples);
  j.end_obj();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

void emit_cut(Json& j, const char* party, const PartyCut& c) {
  const std::string p = party;
  j.key("off_rounds_" + p).num(static_cast<double>(c.offline.rounds))
      .key("on_rounds_" + p).num(static_cast<double>(c.online.rounds))
      .key("wait_" + p + "_offline_ms").num(c.wait_offline_us / 1e3)
      .key("wait_" + p + "_online_ms").num(c.wait_online_us / 1e3);
}

void emit_runs(Json& j, const std::vector<InProcessRun>& runs) {
  j.begin_arr();
  for (const auto& r : runs) {
    j.begin_obj()
        .key("idx").num(static_cast<double>(r.idx))
        .key("ok").boolean(r.ok)
        .key("wall_ms").num(r.wall_ms)
        .key("off_bytes").num(static_cast<double>(r.client.offline.total_bytes()))
        .key("on_bytes").num(static_cast<double>(r.client.online.total_bytes()))
        .key("messages").num(static_cast<double>(
            r.client.offline.messages_sent + r.client.online.messages_sent +
            r.server.offline.messages_sent + r.server.online.messages_sent));
    emit_cut(j, "server", r.server);
    emit_cut(j, "client", r.client);
    j.key("layers").begin_obj();
    for (const auto& [name, v] : r.layers) j.key(name).num(v);
    j.end_obj().end_obj();
  }
  j.end_arr();
}

int run_trace(const Options& o, const Workload& w) {
  Inputs in = make_inputs(w, o.seed, o.workdir);
  const std::vector<Request> reqs = make_requests(w, in.model, o.seed);
  std::unique_ptr<Bundles> bundles;
  std::string pool_dir;
  double pool_load_ms = 0;
  if (w.warm) {
    pool_dir = o.workdir + "/pool";
    {
      Span s("offline.bundle_gen");
      use_all_cpus();
      bundles = std::make_unique<Bundles>(make_bundles(
          w, in, o.seed, 0, w.trace_untraced, w.trace_in_process, pool_dir));
      use_client_cpus();
    }
    // The serving process loads the same file at start-up; timing the
    // offline layer's public loader here isolates that step.
    Span s("offline.pool_load");
    const double t0 = now_us();
    offline::MaterialPool p;
    p.load_dir(pool_dir, offline::Side::kServer);
    pool_load_ms = (now_us() - t0) / 1e3;
  }

  // Untraced pass against the shipped server.
  ServerProc srv = spawn_server(o, in, pool_dir, 0);
  LoopResult loop = closed_loop(w, reqs, srv, bundles.get(), 0,
                                w.trace_untraced, true);
  const double rss = proc_hwm_mb(srv.pid);
  const DrainSummary drain = stop_server(srv);

  // The first requests of that pass again, through the shipped engine in
  // this process: untraced, then traced, so the difference is the tracing
  // overhead alone. Both parties share this process's pool, sized to the
  // two processes' total.
  use_all_cpus();
  std::vector<InProcessRun> plain, traced;
  for (std::size_t r = 0; r < w.trace_in_process; ++r) {
    const offline::MaterialBundle* b = bundles ? &bundles->in_process.at(r) : nullptr;
    plain.push_back(run_in_process(w, in, request_for(reqs, r), r, b, false));
    traced.push_back(run_in_process(w, in, request_for(reqs, r), r, b, true));
  }
  use_client_cpus();
  if (!o.spans.empty()) tracer().write_json(o.spans);

  Json j;
  j.begin_obj().key("mode").str("trace");
  emit_provenance(j, o, w);
  j.key("batch").num(static_cast<double>(w.batch))
      .key("in_process_threads").num(static_cast<double>(
          cpus().server_threads + cpus().client_threads))
      .key("server_rss_mb").num(rss)
      .key("bundle_gen_ms").num(bundles ? bundles->wall_s * 1e3 : 0)
      .key("pool_load_ms").num(pool_load_ms)
      .key("drain");
  emit_drain(j, drain);
  j.key("queue_depth_max").num(static_cast<double>(loop.queue_depth_max))
      .key("samples");
  emit_samples(j, loop.samples);
  j.key("traced");
  emit_runs(j, traced);
  j.key("untraced");
  emit_runs(j, plain);
  j.end_obj();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse_args(argc, argv);
  const Workload& w = find_workload(o.workload);
  ::signal(SIGPIPE, SIG_IGN);
  // The benchmark installs its own collector around each traced request.
  ::unsetenv("ABNN2_TRACE");
  use_client_cpus();
  try {
    return o.mode == "e2e" ? run_e2e(o, w) : run_trace(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    kill_live_server();
    return 1;
  }
}
