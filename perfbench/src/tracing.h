// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, and a Channel decorator that meters receive wait.
// Nothing here changes a byte on the wire; the traced run must reproduce the
// untraced run's per-phase byte totals exactly.
//
// Spans are kept in memory (name, start, end, parent, request id, party and
// the channel traffic seen inside the span), together with the library's own
// obs spans of each traced request, and written as JSON when the benchmark
// ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"

namespace perfbench {

using abnn2::Channel;
using abnn2::ChannelStats;
using abnn2::u64;

inline double now_us() {
  using namespace std::chrono;
  return static_cast<double>(
             duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;
  u64 request = 0;
  int party = -1;  // 0 server, 1 client, -1 neither
  double start_us = 0;
  double end_us = 0;
  bool has_traffic = false;
  ChannelStats traffic;
};

class Tracer {
 public:
  int open(std::string name, int parent, u64 request, int party) {
    std::lock_guard<std::mutex> lk(mu_);
    SpanRecord r;
    r.name = std::move(name);
    r.id = static_cast<int>(spans_.size());
    r.parent = parent;
    r.request = request;
    r.party = party;
    r.start_us = now_us();
    spans_.push_back(std::move(r));
    return spans_.back().id;
  }
  /// Records a span measured elsewhere (the library's obs spans).
  void add(std::string name, int parent, u64 request, int party,
           double start_us, double end_us, const ChannelStats* traffic) {
    std::lock_guard<std::mutex> lk(mu_);
    SpanRecord r;
    r.name = std::move(name);
    r.id = static_cast<int>(spans_.size());
    r.parent = parent;
    r.request = request;
    r.party = party;
    r.start_us = start_us;
    r.end_us = end_us;
    if (traffic) {
      r.has_traffic = true;
      r.traffic = *traffic;
    }
    spans_.push_back(std::move(r));
  }
  void close(int id, const ChannelStats* traffic) {
    const double t = now_us();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id].end_us = t;
    if (traffic) {
      spans_[id].has_traffic = true;
      spans_[id].traffic = *traffic;
    }
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"name\": \"%s\", \"parent\": %d, "
                   "\"request\": %llu, \"party\": %d, \"start_us\": %.3f, "
                   "\"end_us\": %.3f",
                   s.id, s.name.c_str(), s.parent,
                   static_cast<unsigned long long>(s.request), s.party,
                   s.start_us, s.end_us);
      if (s.has_traffic)
        std::fprintf(f, ", \"bytes\": %llu, \"rounds\": %llu, \"messages\": %llu",
                     static_cast<unsigned long long>(s.traffic.total_bytes()),
                     static_cast<unsigned long long>(s.traffic.rounds),
                     static_cast<unsigned long long>(s.traffic.messages_sent));
      std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/// When false, spans and receive-wait clocks do nothing, so the same code
/// runs untraced to measure the tracing overhead.
inline std::atomic<bool> g_tracing{true};
inline bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

/// Per-thread span context: the enclosing span, request id and party.
struct SpanContext {
  int current = -1;
  u64 request = 0;
  int party = -1;
};
inline SpanContext& span_context() {
  thread_local SpanContext ctx;
  return ctx;
}

/// RAII span. With a channel, records that endpoint's traffic delta.
class Span {
 public:
  explicit Span(std::string name, const Channel* ch = nullptr) : ch_(ch) {
    if (!tracing()) return;
    auto& ctx = span_context();
    prev_ = ctx.current;
    if (ch_) before_ = ch_->snapshot();
    id_ = tracer().open(std::move(name), ctx.current, ctx.request, ctx.party);
    ctx.current = id_;
  }
  ~Span() {
    if (id_ < 0) return;
    if (ch_) {
      const ChannelStats d = ch_->snapshot() - before_;
      tracer().close(id_, &d);
    } else {
      tracer().close(id_, nullptr);
    }
    span_context().current = prev_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  const Channel* ch_;
  ChannelStats before_;
  int id_ = -1;
  int prev_ = -1;
};

/// Channel decorator around the transport handed to the library: forwards
/// every call and accumulates the time spent blocked in receives.
class TraceChannel final : public Channel {
 public:
  explicit TraceChannel(Channel& inner) : inner_(inner) {}
  double recv_wait_us() const { return recv_wait_us_; }

 protected:
  void do_send(const void* data, std::size_t n) override {
    inner_.send(data, n);
  }
  void do_recv(void* data, std::size_t n) override {
    if (!tracing()) return inner_.recv(data, n);
    const double t0 = now_us();
    inner_.recv(data, n);
    recv_wait_us_ += now_us() - t0;
  }

 private:
  Channel& inner_;
  double recv_wait_us_ = 0;
};

}  // namespace perfbench
