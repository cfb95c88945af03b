// The serve workload: a TaskService with three tenants, driven by one
// busy-polling generator thread.
//
//   phase A  open loop, Poisson arrivals at a fixed 200 k req/s. Latency
//            runs from the request's due time (carried in Request::a) to
//            the end of its body, so a generator or service stall is
//            charged to every request it delays. A refused request never
//            finishes: it counts as kNeverNs.
//   phase B  closed loop, 256 requests outstanding: capacity in req/s.
//
// The offered rate is a constant, not a calibrated fraction of capacity,
// so two commits see the same load.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/common.hpp"
#include "e2e.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using xtask::serve::Request;
using xtask::serve::ServeConfig;
using xtask::serve::ServiceState;
using xtask::serve::Submit;
using xtask::serve::SubmitStatus;
using xtask::serve::TaskService;
using xtask::serve::TenantStats;

constexpr double kOpenRate = 200'000.0;  // phase A, req/s
constexpr std::uint64_t kOutstanding = 256;  // phase B
constexpr std::uint64_t kWorkNs = 2'000;     // request body: 2 us spin
constexpr double kSloNs = 1e6;               // goodput: done within 1 ms
constexpr double kNeverNs = 1e12;            // latency of a refused request
constexpr double kRateLimit = 2'000'000.0;   // admission, x tenant share
constexpr std::uint32_t kRingCapacity = 16384;  // per tenant
constexpr int kSetupReps = 5;
constexpr int kMaxThreads = 8;

struct Mix {
  const char* name;
  double share;
  int prio;
};
constexpr Mix kMix[] = {
    {"interactive", 0.5, 5}, {"standard", 0.3, 3}, {"bulk", 0.2, 0}};

// Request::b = phase << kPhaseShift | sequence number (open loop only).
enum Phase : std::uint64_t { kWarm, kOpen, kOpenTraced, kClosed, kPhases };
constexpr int kPhaseShift = 56;
constexpr std::uint64_t kSeqMask = (1ull << kPhaseShift) - 1;

/// What request bodies record, for one service instance. Open-loop
/// requests own one slot each, so bodies never share a counter; the
/// generator reads only the per-thread completion counts while running.
struct Record {
  explicit Record(std::size_t open_slots)
      : lat_ns(open_slots, 0), runs(open_slots, 0), accepted(open_slots, 0) {}

  std::vector<std::uint64_t> lat_ns;   // due -> finish, by sequence number
  std::vector<std::uint8_t> runs;      // body executions, by sequence number
  std::vector<std::uint8_t> accepted;  // generator: submit accepted, by seq
  struct alignas(64) Thread {
    std::atomic<std::uint64_t> done[kPhases] = {};
    LogHist queue_ns, exec_ns;  // traced open phase only
  };
  Thread threads[kMaxThreads];
  std::atomic<int> claimed{0};

  std::uint64_t done(Phase p) const {
    std::uint64_t n = 0;
    const int k = claimed.load(std::memory_order_acquire);
    for (int i = 0; i < k && i < kMaxThreads; ++i)
      n += threads[i].done[p].load(std::memory_order_acquire);
    return n;
  }
};

Record* g_record = nullptr;  // set before each service starts its threads

struct ThreadSlot {
  const Record* owner = nullptr;
  int index = 0;
};
thread_local ThreadSlot tl_slot;

void request_body(const Request& r) {
  const std::uint64_t start = now_ns();
  while (now_ns() - start < kWorkNs) xtask::cpu_pause();
  const std::uint64_t finish = now_ns();
  Record& rec = *g_record;
  if (tl_slot.owner != &rec) {
    tl_slot.owner = &rec;
    tl_slot.index = rec.claimed.fetch_add(1, std::memory_order_acq_rel);
    XTASK_CHECK(tl_slot.index < kMaxThreads);
  }
  Record::Thread& t = rec.threads[tl_slot.index];
  const auto phase = static_cast<Phase>(r.b >> kPhaseShift);
  if (phase == kOpen || phase == kOpenTraced) {
    const std::uint64_t seq = r.b & kSeqMask;
    rec.lat_ns[seq] = finish - r.a;
    ++rec.runs[seq];
    if (phase == kOpenTraced) {
      t.queue_ns.add(start - r.t_submit_ns);
      t.exec_ns.add(finish - start);
    }
  }
  t.done[phase].store(t.done[phase].load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
}

struct OpenWindow {
  std::uint64_t first = 0, last = 0;  // sequence numbers [first, last)
  double seconds = 0;
};

class Generator {
 public:
  Generator(TaskService& svc, Record& rec, std::uint64_t seed)
      : svc_(svc), rec_(rec), seed_(seed) {}

  /// Open-loop Poisson arrivals at kOpenRate for `seconds`. Busy-polls the
  /// clock and submits every arrival that is due, so lateness shows up in
  /// gen_lag instead of silently thinning the load.
  OpenWindow open(double seconds, Phase phase) {
    xtask::XorShift rng = stream(phase);
    OpenWindow w;
    w.first = next_seq_;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    double due = static_cast<double>(t0);
    for (std::uint64_t now = t0; now < end; now = now_ns()) {
      while (due <= static_cast<double>(now)) {
        Request r;
        r.fn = request_body;
        r.a = static_cast<std::uint64_t>(due);
        r.b = static_cast<std::uint64_t>(phase) << kPhaseShift;
        const bool slot = phase != kWarm && next_seq_ < rec_.accepted.size();
        if (slot) r.b |= next_seq_;
        const int tenant = pick_tenant(rng);
        const std::uint64_t t_sub = now_ns();
        Submit s;
        if (phase == kOpenTraced) {
          const std::uint64_t c0 = xtask::rdtscp();
          s = svc_.submit(tenant, r);
          submit_cycles_.add(xtask::rdtscp() - c0);
        } else {
          s = svc_.submit(tenant, r);
        }
        ++submitted_;
        if (phase == kOpen) {
          lag_ns_.add(t_sub - r.a);
          lag_max_ns_ = std::max(lag_max_ns_, t_sub - r.a);
        }
        if (slot) {
          rec_.accepted[next_seq_++] = s.status == SubmitStatus::kAccepted;
        } else if (phase != kWarm) {
          overflowed_ = true;  // more arrivals than slots: not measured
        }
        due += -std::log(1.0 - rng.uniform()) / kOpenRate * 1e9;
      }
      xtask::cpu_pause();
    }
    w.last = next_seq_;
    w.seconds = seconds_since(t0);
    return w;
  }

  /// Closed loop: keep kOutstanding requests in flight for `seconds`;
  /// returns completions per second.
  double closed(double seconds) {
    xtask::XorShift rng = stream(kClosed);
    const std::uint64_t done0 = rec_.done(kClosed);
    std::uint64_t sent = 0;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < end) {
      const std::uint64_t done = rec_.done(kClosed) - done0;
      while (sent - done < kOutstanding) {
        Request r;
        r.fn = request_body;
        r.a = now_ns();
        r.b = static_cast<std::uint64_t>(kClosed) << kPhaseShift;
        ++submitted_;
        if (svc_.submit(pick_tenant(rng), r).status != SubmitStatus::kAccepted)
          break;  // refused: counted by the service, retried next poll
        ++sent;
      }
      xtask::cpu_pause();
    }
    const double dt = seconds_since(t0);
    return ratio(static_cast<double>(rec_.done(kClosed) - done0), dt);
  }

  std::uint64_t submitted() const noexcept { return submitted_; }
  std::uint64_t generated() const noexcept { return next_seq_; }  // open loop
  bool overflowed() const noexcept { return overflowed_; }
  const LogHist& lag_ns() const noexcept { return lag_ns_; }
  std::uint64_t lag_max_ns() const noexcept { return lag_max_ns_; }
  const LogHist& submit_cycles() const noexcept { return submit_cycles_; }

 private:
  // One stream per phase: each phase's arrivals depend on the seed only,
  // not on how many arrivals an earlier phase fitted into its window.
  xtask::XorShift stream(Phase p) const { return xtask::XorShift(seed_ * kPhases + p); }

  static int pick_tenant(xtask::XorShift& rng) {
    const double u = rng.uniform();
    double acc = 0;
    for (int t = 0; t < 3; ++t) {
      acc += kMix[t].share;
      if (u < acc) return t;
    }
    return 2;
  }

  TaskService& svc_;
  Record& rec_;
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t submitted_ = 0;
  bool overflowed_ = false;
  LogHist lag_ns_;
  std::uint64_t lag_max_ns_ = 0;
  LogHist submit_cycles_;
};

/// Gives the generator a CPU of its own, so that lateness measures the
/// service and not the generator losing its core to a service thread. The
/// service's threads inherit the mask of the thread that creates them:
/// create the service under for_service(), then run the generator under
/// for_generator(). A no-op on hosts with fewer than 4 CPUs.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0 ||
        CPU_COUNT(&all_) < 4)
      return;
    split_ = true;
    service_ = all_;
    CPU_ZERO(&generator_);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) {
        CPU_CLR(c, &service_);
        CPU_SET(c, &generator_);
        break;
      }
  }
  ~CpuSplit() { set(all_); }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  void for_service() { set(service_); }
  void for_generator() { set(generator_); }

 private:
  void set(const cpu_set_t& s) {
    if (split_) pthread_setaffinity_np(pthread_self(), sizeof s, &s);
  }
  bool split_ = false;
  cpu_set_t all_{}, service_{}, generator_{};
};

ServeConfig make_config(std::uint64_t seed) {
  ServeConfig cfg;
  cfg.runtime_spec =
      "xtask:dlb=naws,tint=128,threads=3,seed=" + std::to_string(seed);
  // Rings deep enough to ride out a multi-millisecond stall of the drain
  // thread at 200 k req/s: the delay then shows in the tail latency
  // instead of as refused requests.
  cfg.ring_capacity = kRingCapacity;
  for (const Mix& m : kMix) {
    xtask::TenantSpec t;
    t.name = m.name;
    t.rate = static_cast<std::uint64_t>(kRateLimit * m.share);
    t.quota = t.rate;
    t.priority = m.prio;
    cfg.tenants.push_back(t);
  }
  return cfg;
}

/// Latencies of the open window's requests (kNeverNs when refused).
std::vector<double> latencies(const Record& rec, const OpenWindow& w) {
  std::vector<double> v;
  v.reserve(w.last - w.first);
  for (std::uint64_t s = w.first; s < w.last; ++s)
    v.push_back(rec.runs[s] == 1 ? static_cast<double>(rec.lat_ns[s]) : kNeverNs);
  return v;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  res.workload = "serve";
  const ServeConfig cfg = make_config(opt.seed);
  res.note("spec", "\"" + cfg.runtime_spec + "\"");

  // Phase lengths: plain runs split the window 2:1 between A and B; traced
  // runs split it A untraced : A traced : B = 1:1:1.
  const double open_s = opt.seconds * (opt.traced ? 1.0 : 2.0) / 3.0;
  const double closed_s = opt.seconds / 3.0;
  const double warm_s = std::min(0.5, opt.seconds / 20.0);
  const auto slots = static_cast<std::size_t>(
      kOpenRate * open_s * (opt.traced ? 2.0 : 1.0) * 1.25 + 4096);

  // Set-up: service construction plus warm-up traffic, repeated in plain
  // runs so that setup_s is a median. The last service is measured.
  CpuSplit cpus;
  std::unique_ptr<Record> rec;
  std::unique_ptr<TaskService> svc;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  std::uint64_t t_life = 0;
  for (int rep = 0; rep < (opt.traced ? 1 : kSetupReps); ++rep) {
    gen.reset();
    svc.reset();  // stops and joins before its Record goes away
    rec = std::make_unique<Record>(slots);
    g_record = rec.get();
    t_life = now_ns();
    cpus.for_service();
    svc = std::make_unique<TaskService>(cfg);
    cpus.for_generator();
    gen = std::make_unique<Generator>(*svc, *rec, opt.seed);
    gen->open(warm_s, kWarm);
    setup_s.push_back(seconds_since(t_life));
  }

  const OpenWindow a = gen->open(open_s, kOpen);
  const OpenWindow a_traced =
      opt.traced ? gen->open(open_s, kOpenTraced) : OpenWindow{};
  // Let phase A's backlog drain so phase B starts from an idle service.
  for (int i = 0; i < 100000 && svc->totals().in_flight != 0; ++i)
    std::this_thread::yield();
  const double capacity = gen->closed(closed_s);
  svc->stop();
  const double life_s = seconds_since(t_life);

  // Accounting: the service's identity, the generator's count, and every
  // open-loop request run exactly once if (and only if) it was accepted.
  const TenantStats tot = svc->totals();
  std::uint64_t executed = 0;
  for (Phase p : {kWarm, kOpen, kOpenTraced, kClosed}) executed += rec->done(p);
  std::uint64_t once_violations = 0;
  for (std::uint64_t s = 0; s < gen->generated(); ++s)
    if (rec->runs[s] != rec->accepted[s]) ++once_violations;
  const bool identity = tot.submitted == tot.executed + tot.shed + tot.rejected +
                                             tot.orphaned &&
                        tot.in_flight == 0 && tot.submitted == gen->submitted() &&
                        tot.executed == executed;
  res.attempted = tot.submitted;
  res.failed = tot.shed + tot.rejected + tot.orphaned + once_violations +
               (identity ? 0 : 1);
  // The measurement is unusable when the generator could not keep its
  // schedule: more than 1% of phase-A arrivals submitted over 50 us late.
  const double gen_lag_p99_us = gen->lag_ns().quantile(0.99) * 1e-3;
  if (gen->overflowed() || gen_lag_p99_us > 50.0) res.valid = false;
  res.note("submitted", static_cast<double>(tot.submitted));
  res.note("open_requests", static_cast<double>(a.last - a.first));

  const std::vector<double> lat = latencies(*rec, a);
  double good = 0;
  for (double l : lat) good += l <= kSloNs ? 1 : 0;
  res.note("gen_lag_us_p99", gen_lag_p99_us);

  if (!opt.traced) {
    res.set("setup_s", median(setup_s));
    res.set("p50_ms", quantile(lat, 0.5) * 1e-6);
    res.set("p90_ms", quantile(lat, 0.9) * 1e-6);
    res.set("ops_per_s", capacity);
    return res;
  }

  LogHist queue, exec;
  for (const Record::Thread& t : rec->threads) {
    queue.merge(t.queue_ns);
    exec.merge(t.exec_ns);
  }
  const double sub = static_cast<double>(tot.submitted);
  res.set("serve.submit_ns_p50", cycles_to_ns(gen->submit_cycles().quantile(0.5)));
  res.set("serve.submit_ns_p99", cycles_to_ns(gen->submit_cycles().quantile(0.99)));
  res.set("serve.queue_us_p50", queue.quantile(0.5) * 1e-3);
  res.set("serve.queue_us_p99", queue.quantile(0.99) * 1e-3);
  res.set("serve.exec_us_p50", exec.quantile(0.5) * 1e-3);
  res.set("serve.reject_frac", ratio(static_cast<double>(tot.rejected), sub));
  res.set("serve.shed_frac", ratio(static_cast<double>(tot.shed), sub));
  res.set("serve.state.throttle_entries",
          static_cast<double>(svc->state_entries(ServiceState::kThrottle)));
  res.set("serve.state.reject_entries",
          static_cast<double>(svc->state_entries(ServiceState::kReject)));
  res.set("serve.lat_p99_us", quantile(lat, 0.99) * 1e-3);
  res.set("serve.slo_goodput_rps", ratio(good, a.seconds));
  res.set("serve.gen_lag_us_p50", gen->lag_ns().quantile(0.5) * 1e-3);
  res.set("serve.gen_lag_us_p99", gen_lag_p99_us);
  res.set("serve.gen_lag_us_max", static_cast<double>(gen->lag_max_ns()) * 1e-3);
  res.set("trace.overhead_frac",
          ratio(quantile(latencies(*rec, a_traced), 0.5), quantile(lat, 0.5)) - 1.0);

  // Runtime counters over the service's life, per executed request. The
  // drain loop is worker 0's one long task; workers 1.. run the requests.
  xtask::Runtime& rt = svc->runtime();
  const xtask::Counters c = rt.profiler().total_counters();
  const int threads = rt.config().num_threads;
  const double life_cycles = life_s * 1e9 * tsc_per_ns();
  set_counter_metrics(res, c, static_cast<double>(tot.executed),
                      life_cycles * threads,
                      static_cast<double>(rt.mode_switches()));
  res.set("serve.inline_frac",
          ratio(static_cast<double>(c.ntasks_imm_exec),
                static_cast<double>(c.ntasks_created)));
  double exec_idle = 0;
  for (int w = 1; w < threads; ++w)
    exec_idle += static_cast<double>(rt.profiler().thread(w).counters.idle_cycles);
  res.set("serve.idle.frac", ratio(exec_idle, life_cycles * (threads - 1)));
  return res;
}

}  // namespace e2e
