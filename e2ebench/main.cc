// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload=<put_tcp_durable|txn_zipf|catchup_50us> --seed=N
//            --seconds=S --trace=<0|1> [--clients=3] [--ops=N]
//            [--data-root=DIR] [--trace-out=FILE] [--inject-wrong=1]
//
// Runs one closed-loop workload (see workloads.h) on `clients` threads and
// checks its results.  A verified warm-up round of a fixed op count comes
// first; peak RSS is read right after it, so it reflects a fixed amount of
// work.  Then five measured rounds of seconds/5 each (or exactly `ops` ops
// per client) run, each on a freshly set-up deployment.  Goodput and the
// latency percentiles are taken per window of every round (half a second;
// the whole round for catch-up), and the run reports their median over the
// windows in which the hypervisor stole little CPU time (see Undisturbed).
// It prints two JSON lines on stdout: a full report (run_info, per-round and
// per-window figures with each window's stolen share, the best-decile window
// figures, sample counts, abort and failure ratios) and, last, the result
// object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// With --trace=0 the metrics are the end-to-end ones, measured with no
// decorator installed.  setup_s is the median of a block of set-up-only
// repetitions (see TimeSetups).  With --trace=1 four rounds
// alternate untraced and traced, and the metrics are the per-layer ledger of
// the traced rounds plus trace.overhead_ratio, the share of goodput the
// decorators cost; the last traced round's spans go to --trace-out.  Exits 1
// when a correctness check fails (a wrong op result or a wrong final state),
// 2 on bad flags.  --inject-wrong=1 corrupts the state the checks compare
// against, to test that they fail.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "e2ebench/ledger.h"
#include "e2ebench/workloads.h"
#include "src/util/threading.h"

namespace e2ebench {
namespace {

// One attempted op of a measured round.
struct Sample {
  uint64_t end_ns;
  uint64_t latency_ns;
  bool good;
};

// One measured round on a fresh deployment.
struct Round {
  bool traced = false;
  bool setup_ok = true;
  double setup_s = 0;
  uint64_t attempted = 0, good = 0, aborted = 0, failed = 0, wrong = 0;
  uint64_t start_ns = 0;
  double elapsed_s = 0;
  std::vector<Sample> samples;  // every attempted op of a measured round
  // Share of the machine's CPU time stolen by the hypervisor, per window of
  // a time-bound round; empty when it cannot be read.
  std::vector<double> steal;
  std::string digest;
  // Traced rounds only.
  uint64_t self_ns = 0;
  uint64_t overlap_ns = 0;
  uint64_t endtx_ns = 0, endtx_rpc_ns = 0, endtx_count = 0;
  uint64_t user_bytes = 0;
  RuntimeCounters runtime;
  LedgerTotals totals;
  uint64_t spans_dropped = 0;

  double goodput() const { return elapsed_s > 0 ? good / elapsed_s : 0; }
  double mean_latency_us() const {
    double sum = 0;
    for (const Sample& s : samples) {
      sum += static_cast<double>(s.latency_ns);
    }
    return samples.empty() ? 0 : sum / samples.size() / 1e3;
  }
  std::vector<uint64_t> latencies() const {
    std::vector<uint64_t> ns;
    ns.reserve(samples.size());
    for (const Sample& s : samples) {
      ns.push_back(s.latency_ns);
    }
    return ns;
  }
};

// Folds `r` into `sum` (counts add; latencies concatenate).
void Merge(Round* sum, const Round& r) {
  sum->attempted += r.attempted;
  sum->good += r.good;
  sum->aborted += r.aborted;
  sum->failed += r.failed;
  sum->wrong += r.wrong;
  sum->elapsed_s += r.elapsed_s;
  sum->samples.insert(sum->samples.end(), r.samples.begin(),
                      r.samples.end());
  sum->self_ns += r.self_ns;
  sum->overlap_ns += r.overlap_ns;
  sum->endtx_ns += r.endtx_ns;
  sum->endtx_rpc_ns += r.endtx_rpc_ns;
  sum->endtx_count += r.endtx_count;
  sum->user_bytes += r.user_bytes;
  sum->runtime += r.runtime;
  sum->totals += r.totals;
  sum->spans_dropped += r.spans_dropped;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Linear interpolation between closest ranks.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (static_cast<double>(v[hi]) - v[lo]);
}

double PercentileUs(const std::vector<uint64_t>& ns, double q) {
  return Quantile(ns, q) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Cumulative CPU time, in ticks, from the machine-wide line of /proc/stat;
// zero where it cannot be read.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user.
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n == 8) {
    t.steal = v[7];
    for (unsigned long long x : v) {
      t.total += x;
    }
  }
  return t;
}

// Windows in a round of `measured_s` seconds: as many of about `window_s`
// as fit, and at least one.
size_t WindowCount(double measured_s, double window_s) {
  return std::max<size_t>(1, static_cast<size_t>(measured_s / window_s + 1e-9));
}

struct Window {
  double goodput;
  double p50_us;
  double tail_us;
  double steal;  // share of CPU time stolen by the hypervisor
};

// Figures over consecutive windows of a round's first `measured_s` seconds,
// ops binned by completion time.  Ops still in flight at the end fall
// outside every window.  A round too short for two windows is one window,
// its goodput taken over the whole round.
std::vector<Window> Windows(const Round& r, double measured_s,
                            double window_s, double tail_q) {
  size_t n = WindowCount(measured_s, window_s);
  auto steal = [&r](size_t i) {
    return i < r.steal.size() ? r.steal[i] : 0.0;
  };
  if (n < 2) {
    std::vector<uint64_t> all = r.latencies();
    return {{r.goodput(), PercentileUs(all, 0.5), PercentileUs(all, tail_q),
             steal(0)}};
  }
  window_s = measured_s / n;
  std::vector<std::vector<uint64_t>> latency(n);
  std::vector<uint64_t> good(n, 0);
  for (const Sample& s : r.samples) {
    size_t i = static_cast<size_t>((s.end_ns - r.start_ns) / 1e9 / window_s);
    if (i < n) {
      latency[i].push_back(s.latency_ns);
      good[i] += s.good;
    }
  }
  std::vector<Window> windows;
  for (size_t i = 0; i < n; ++i) {
    windows.push_back({good[i] / window_s, PercentileUs(latency[i], 0.5),
                       PercentileUs(latency[i], tail_q), steal(i)});
  }
  return windows;
}

// The machine is a VM that shares its host: while other tenants run, the
// hypervisor steals CPU time from it and every figure of the window drops
// (goodput to half, p99 tenfold, for a minute at a time).  Windows where
// more than this share of CPU time was stolen are set aside; stolen time is
// the host's doing, never the program's.
constexpr double kMaxStealShare = 0.02;

// The windows the end-to-end figures come from: every window with little
// stolen time, and at least the least-stolen tenth of them.
std::vector<Window> Undisturbed(std::vector<Window> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal < b.steal;
                   });
  size_t keep = (windows.size() + 9) / 10;
  while (keep < windows.size() && windows[keep].steal <= kMaxStealShare) {
    ++keep;
  }
  windows.resize(keep);
  return windows;
}

// Times one set-up of the workload, then tears it down untimed.
double TimeSetup(const Config& config, bool* ok) {
  uint64_t start = tango::NowNanos();
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  *ok = workload->Setup(nullptr, nullptr);
  return (tango::NowNanos() - start) / 1e9;
}

// Blocks of set-ups tried before the least-stolen one is taken.
constexpr int kSetupAttempts = 3;

// Times a block of `reps` set-ups.  Stolen CPU time slows set-up as it
// slows ops, so a block during which the hypervisor stole more than
// kMaxStealShare is run again, and the least-stolen block is kept.
std::vector<double> TimeSetups(const Config& config, int reps, bool* ok) {
  std::vector<double> kept;
  double kept_steal = 1.0;
  for (int attempt = 0; attempt < kSetupAttempts; ++attempt) {
    CpuTimes before = ReadCpuTimes();
    std::vector<double> block;
    for (int i = 0; i < reps; ++i) {
      block.push_back(TimeSetup(config, ok));
      if (!*ok) {
        return block;
      }
    }
    CpuTimes after = ReadCpuTimes();
    double steal =
        Ratio(after.steal - before.steal, after.total - before.total);
    if (kept.empty() || steal < kept_steal) {
      kept = std::move(block);
      kept_steal = steal;
    }
    if (steal <= kMaxStealShare) {
      break;
    }
  }
  return kept;
}

// Sets up a fresh deployment, runs the clients, then verifies and tears
// down.  A traced round installs the decorators and writes its spans.  Only
// measured rounds keep per-op samples; a time-bound one also samples stolen
// CPU time at the end of every window of about `window_s`.
Round RunRound(const Config& config, bool traced, bool measured,
               double seconds, double window_s, int64_t ops_per_client,
               const std::string& trace_out) {
  Round round;
  round.traced = traced;
  std::unique_ptr<Ledger> ledger;
  if (traced) {
    ledger = std::make_unique<Ledger>();
  }
  std::vector<OpSlot> slots(config.clients);
  uint64_t setup_start = tango::NowNanos();
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  round.setup_ok = workload->Setup(ledger.get(), traced ? slots.data()
                                                        : nullptr);
  round.setup_s = (tango::NowNanos() - setup_start) / 1e9;
  if (!round.setup_ok) {
    return round;
  }

  RuntimeCounters before = workload->Counters();
  std::vector<Round> results(config.clients);  // per client, merged below
  std::atomic<bool> stop{false};
  if (ledger) {
    ledger->set_active(true);
  }
  round.start_ns = tango::NowNanos();
  std::vector<std::thread> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      Round& r = results[c];
      for (uint64_t seq = 1; !stop.load(std::memory_order_relaxed) &&
                             (ops_per_client <= 0 ||
                              seq <= static_cast<uint64_t>(ops_per_client));
           ++seq) {
        uint64_t op_id = (static_cast<uint64_t>(c + 1) << 40) | seq;
        slots[c].set_op(op_id);
        OpContext ctx;
        if (ledger) {
          ctx.ledger = ledger.get();
          ctx.slot = &slots[c];
        }
        uint64_t rpc0 = ctx.OwnRpcNanos();
        uint64_t overlap0 = ctx.OverlapNanos();
        uint64_t t0 = tango::NowNanos();
        Outcome outcome = workload->Op(c, ctx);
        if (ctx.end_ns == 0) {
          ctx.End();
        }
        uint64_t latency = ctx.end_ns - t0;
        if (measured) {
          r.samples.push_back({ctx.end_ns, latency, outcome == Outcome::kOk});
        }
        r.attempted++;
        r.good += outcome == Outcome::kOk;
        r.aborted += outcome == Outcome::kAborted;
        r.failed += outcome == Outcome::kFailed;
        r.wrong += outcome == Outcome::kWrong;
        if (outcome == Outcome::kOk) {
          r.user_bytes += ctx.user_bytes;
        }
        if (ctx.endtx_ns != 0) {
          r.endtx_ns += ctx.endtx_ns;
          r.endtx_rpc_ns += ctx.endtx_rpc_ns;
          r.endtx_count++;
        }
        if (ledger) {
          r.self_ns += latency - (ctx.own_rpc_end_ns - rpc0);
          r.overlap_ns += ctx.overlap_end_ns - overlap0;
          ledger->RecordOp(op_id, t0, ctx.end_ns, outcome == Outcome::kOk);
        }
      }
      slots[c].set_op(0);
    });
  }
  if (ops_per_client <= 0) {
    size_t n = WindowCount(seconds, window_s);
    CpuTimes last = ReadCpuTimes();
    for (size_t i = 1; i <= n; ++i) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              round.start_ns + static_cast<uint64_t>(seconds * 1e9 * i / n))));
      CpuTimes now = ReadCpuTimes();
      if (measured && now.total > last.total) {
        round.steal.push_back(Ratio(now.steal - last.steal,
                                    now.total - last.total));
      }
      last = now;
    }
    stop.store(true);
  }
  for (std::thread& t : clients) {
    t.join();
  }
  round.elapsed_s = (tango::NowNanos() - round.start_ns) / 1e9;
  if (ledger) {
    ledger->set_active(false);
    round.totals = ledger->Sum();
  }
  round.runtime = workload->Counters() - before;
  for (const Round& r : results) {
    Merge(&round, r);
  }

  round.wrong += workload->Verify(&round.digest);
  workload.reset();  // joins every thread that could still touch the ledger
  if (ledger) {
    round.spans_dropped = ledger->SpansDropped();
    if (!trace_out.empty() && !ledger->WriteSpans(trace_out)) {
      std::fprintf(stderr, "e2ebench: cannot write spans to %s\n",
                   trace_out.c_str());
    }
  }
  return round;
}

// Ordered name -> (value, unit) for the JSON output.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  double Get(const std::string& name) const {
    for (const Item& item : items_) {
      if (item.name == name) {
        return item.value;
      }
    }
    return 0;
  }
  std::string Json() const {
    std::string out = "{";
    for (const Item& item : items_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", item.name.c_str(), item.value,
                    item.unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// The per-layer ledger of the traced rounds.  Every metric is emitted on
// every workload; a layer the workload does not reach reads 0.  Call and
// file-system times are means per call; counts are per attempted op.
Metrics LayerMetrics(const Round& p) {
  Metrics m;
  double ops = static_cast<double>(p.attempted);
  double rpc_us_per_op = 0;
  uint64_t calls = 0, failed = 0;
  for (int c = 0; c < kNumRpcClasses; ++c) {
    const LedgerTotals::Rpc& r = p.totals.rpc[c];
    std::string prefix = std::string("rpc.") + RpcClassName(c);
    double per_op = Ratio(r.calls, ops);
    double call_us = Ratio(r.call_ns, r.calls) / 1e3;
    double service_us = Ratio(r.service_ns, r.served) / 1e3;
    m.Add(prefix + ".per_op", per_op, "count");
    m.Add(prefix + ".call_us", call_us, "us");
    m.Add(prefix + ".service_us", service_us, "us");
    m.Add(prefix + ".wire_us", r.calls > 0 ? call_us - service_us : 0, "us");
    rpc_us_per_op += call_us * per_op;
    calls += r.calls;
    failed += r.failed;
  }
  m.Add("rpc.failed_ratio", Ratio(failed, calls), "ratio");
  double self_us = Ratio(p.self_ns, ops) / 1e3;
  double overlap_us = Ratio(p.overlap_ns, ops) / 1e3;
  m.Add("rpc.overlap_us", overlap_us, "us");
  m.Add("client.self_us", self_us, "us");
  m.Add("runtime.endtx_us", Ratio(p.endtx_ns, p.endtx_count) / 1e3, "us");
  m.Add("runtime.endtx_self_us",
        Ratio(p.endtx_ns - p.endtx_rpc_ns, p.endtx_count) / 1e3, "us");
  m.Add("runtime.entries_played_per_op", Ratio(p.runtime.entries_played, ops),
        "count");
  m.Add("runtime.updates_applied_per_op",
        Ratio(p.runtime.updates_applied, ops), "count");
  m.Add("stream.cache_hit_ratio",
        Ratio(p.runtime.cache_hits,
              p.runtime.cache_hits + p.runtime.cache_misses),
        "ratio");
  m.Add("stream.prefetch_batches_per_op",
        Ratio(p.runtime.prefetch_batches, ops), "count");
  m.Add("stream.reconstruction_reads_per_op",
        Ratio(p.runtime.reconstruction_reads, ops), "count");
  m.Add("storage.fs.appends_per_op", Ratio(p.totals.fs_appends, ops), "count");
  m.Add("storage.fs.bytes_per_user_byte",
        Ratio(p.totals.fs_append_bytes, p.user_bytes), "ratio");
  m.Add("storage.fs.fsyncs_per_op", Ratio(p.totals.fs_syncs, ops), "count");
  m.Add("storage.fs.append_us",
        Ratio(p.totals.fs_append_ns, p.totals.fs_appends) / 1e3, "us");
  m.Add("storage.fs.fsync_us",
        Ratio(p.totals.fs_sync_ns, p.totals.fs_syncs) / 1e3, "us");
  // Closure: client self time plus every RPC's call time per op, less the
  // call time hidden by RPCs of one client running in parallel, should
  // account for the mean op latency; the remainder is its own finding.
  double mean_us = p.mean_latency_us();
  double unaccounted = mean_us - self_us - rpc_us_per_op + overlap_us;
  m.Add("ledger.unaccounted_us", unaccounted, "us");
  m.Add("ledger.unaccounted_ratio", Ratio(unaccounted, mean_us), "ratio");
  return m;
}

std::string RunInfoJson() {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = ::open_memstream(&buf, &len);
  if (f == nullptr) {
    return "{}";
  }
  tangobench::WriteRunInfoField(f, "");
  std::fclose(f);
  std::string field(buf, len);
  std::free(buf);
  // "\"run_info\": {...},\n" -> "{...}"
  size_t open = field.find('{');
  size_t close = field.rfind('}');
  if (open == std::string::npos || close == std::string::npos) {
    return "{}";
  }
  return field.substr(open, close - open + 1);
}

std::string RoundJson(const Round& r, const std::vector<Window>& windows,
                      double tail_q) {
  std::string w;
  for (const Window& x : windows) {
    char one[160];
    std::snprintf(one, sizeof(one), "%s[%.1f, %.3f, %.3f, %.4f]",
                  w.empty() ? "" : ", ", x.goodput, x.p50_us, x.tail_us,
                  x.steal);
    w += one;
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"traced\": %s, \"setup_ok\": %s, \"setup_s\": %.6f, "
      "\"attempted\": %llu, \"good\": %llu, \"aborted\": %llu, "
      "\"failed\": %llu, \"wrong_results\": %llu, \"elapsed_s\": %.6f, "
      "\"goodput_ops_per_s\": %.3f, \"lat_p50_us\": %.3f, "
      "\"lat_tail_us\": %.3f, \"lat_mean_us\": %.3f, "
      "\"latency_samples\": %zu, \"abort_ratio\": %.6f, "
      "\"failed_ratio\": %.6f, \"state_digest\": \"%s\", "
      "\"windows_goodput_p50_tail_steal\": [",
      r.traced ? "true" : "false", r.setup_ok ? "true" : "false", r.setup_s,
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.good),
      static_cast<unsigned long long>(r.aborted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.wrong), r.elapsed_s, r.goodput(),
      PercentileUs(r.latencies(), 0.5),
      PercentileUs(r.latencies(), tail_q),
      r.mean_latency_us(), r.samples.size(),
      Ratio(r.aborted, r.attempted), Ratio(r.failed + r.wrong, r.attempted),
      r.digest.c_str());
  return buf + w + "]}";
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--clients=N] [--ops=N] "
               "[--data-root=DIR] [--trace-out=FILE]\n",
               why.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "workload", "seed",      "seconds",   "trace",       "clients",
      "ops",      "data-root", "trace-out", "inject-wrong"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos ||
        std::find(known.begin(), known.end(), arg.substr(2, eq - 2)) ==
            known.end()) {
      Usage("bad flag " + arg);
    }
  }
  tangobench::Flags flags(argc, argv);
  Config config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.clients = static_cast<int>(flags.GetInt("clients", 3));
  config.data_root = flags.GetString("data-root", ".bench_build/data");
  config.inject_wrong = flags.GetInt("inject-wrong", 0) != 0;
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const int64_t ops = flags.GetInt("ops", 0);
  const std::string trace_out = flags.GetString("trace-out", "");
  // Traced runs alternate untraced and traced rounds.
  const int rounds = trace ? 4 : 5;
  std::unique_ptr<Workload> policy = MakeWorkload(config);
  if (policy == nullptr) {
    Usage("unknown workload '" + config.workload + "'");
  }
  if (config.clients < 1 || seconds <= 0 || ops < 0) {
    Usage("clients and seconds must be positive, ops not negative");
  }
  const double round_s = seconds / rounds;
  const double window_s = policy->window_s(round_s);
  const double tail_q = policy->tail_quantile();

  // A verified warm-up round of a fixed op count first: the first round in
  // a process pays for thread pools, heap growth and first-touch page
  // faults.  It keeps no samples, so peak RSS read after it is the
  // program's own for that fixed work.
  Round warmup =
      RunRound(config, false, false, 0, window_s, policy->warmup_ops(), "");
  bool correct = warmup.setup_ok && warmup.wrong == 0;
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> setup_s;
  if (!trace && correct) {
    setup_s = TimeSetups(config, policy->setup_reps(), &correct);
  }
  std::vector<Round> done;
  for (int i = 0; i < rounds && correct; ++i) {
    done.push_back(RunRound(config, trace && i % 2 == 1, true, round_s,
                            window_s, ops, trace_out));
    correct = done.back().setup_ok;
  }

  Metrics metrics;
  Round plain, traced;
  std::vector<std::vector<Window>> windows;
  std::vector<Window> untraced;
  for (const Round& r : done) {
    Merge(r.traced ? &traced : &plain, r);
    windows.push_back(Windows(r, round_s, window_s, tail_q));
    if (!r.traced) {
      untraced.insert(untraced.end(), windows.back().begin(),
                      windows.back().end());
    }
  }
  std::vector<double> goodput, p50, tail, steal;
  for (const Window& w : untraced) {
    steal.push_back(w.steal);
  }
  // The best decile of all window figures, a diagnostic in the report.
  auto best = [&untraced](double Window::*field, double q) {
    std::vector<double> v;
    for (const Window& w : untraced) {
      v.push_back(w.*field);
    }
    return Quantile(v, q);
  };
  char best_json[160];
  std::snprintf(best_json, sizeof(best_json),
                "{\"goodput_ops_per_s\": %.3f, \"lat_p50_us\": %.3f, "
                "\"lat_tail_us\": %.3f}",
                best(&Window::goodput, 0.9), best(&Window::p50_us, 0.1),
                best(&Window::tail_us, 0.1));
  const std::vector<Window> kept = Undisturbed(untraced);
  for (const Window& w : kept) {
    goodput.push_back(w.goodput);
    p50.push_back(w.p50_us);
    tail.push_back(w.tail_us);
  }
  if (!trace) {
    metrics.Add("goodput_ops_per_s", Quantile(goodput, 0.5), "1/s");
    metrics.Add("lat_p50_us", Quantile(p50, 0.5), "us");
    metrics.Add("lat_tail_us", Quantile(tail, 0.5), "us");
    metrics.Add("success_ratio", Ratio(plain.good, plain.attempted), "ratio");
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    metrics = LayerMetrics(traced);
    metrics.Add("trace.overhead_ratio",
                1.0 - Ratio(traced.goodput(), plain.goodput()), "ratio");
  }

  uint64_t attempted = warmup.attempted;
  uint64_t failed = warmup.failed + warmup.wrong;
  std::string rounds_json;
  for (size_t i = 0; i < done.size(); ++i) {
    const Round& r = done[i];
    correct = correct && r.wrong == 0;
    attempted += r.attempted;
    failed += r.failed + r.wrong;
    rounds_json += (rounds_json.empty() ? "" : ", ") +
                   RoundJson(r, windows[i], tail_q);
  }
  std::string extra;
  if (trace) {
    bool closed = std::abs(metrics.Get("ledger.unaccounted_ratio")) <= 0.10;
    if (!closed) {
      std::fprintf(stderr,
                   "e2ebench: ledger does not close: %.1f us of %.1f us "
                   "unaccounted\n",
                   metrics.Get("ledger.unaccounted_us"),
                   traced.mean_latency_us());
    }
    extra = ", \"ledger_closed\": " + std::string(closed ? "true" : "false") +
            ", \"spans_dropped\": " + std::to_string(traced.spans_dropped) +
            ", \"trace_file\": \"" + trace_out + "\"";
  }
  std::printf(
      "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"clients\": %d, \"seconds\": %g, \"tail_percentile\": %g, "
      "\"window_s\": %g, \"windows\": %zu, \"windows_kept\": %zu, "
      "\"steal_share_median\": %.4f, \"setup_samples\": %zu, "
      "\"warmup_ops\": %llu, \"abort_ratio\": %.6f, \"failed_ratio\": %.6f, "
      "\"best_decile_windows\": %s, "
      "\"run_info\": %s, \"rounds\": [%s]%s, \"metrics\": %s}}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      trace ? 1 : 0, config.clients, seconds, tail_q * 100, window_s,
      untraced.size(), kept.size(), Quantile(steal, 0.5), setup_s.size(),
      static_cast<unsigned long long>(warmup.attempted),
      Ratio(warmup.aborted + plain.aborted + traced.aborted, attempted),
      Ratio(failed, attempted), best_json, RunInfoJson().c_str(), rounds_json.c_str(),
      extra.c_str(), metrics.Json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
