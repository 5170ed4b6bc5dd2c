// fleetbench: the repository's end-to-end benchmark.
//
// One process runs one workload in a fixed number of rounds. Each round
// does a cold build of the workload's model from nothing (corpus profile,
// training, int8 tables, Verilog, the feed's window bank, the service and
// its warm-up), then serves a synthetic fleet of monitored processes in a
// saturated closed loop (capacity) and a paced open loop (verdict
// latency). Everything is driven through the public APIs of
// src/{workload,hpc,data,ml,core,hw,serve}; the per-layer numbers of the
// traced run come from timing those calls from here, plus the serve.*
// span histograms the program already records. run.py builds this file,
// runs it and prints the result line; README.md in this directory
// documents the metrics.
//
// Output: one JSON object on the last line of stdout holding the host
// fingerprint, the checks, the end-to-end metrics and (with --trace 1)
// the per-layer metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/two_stage.hpp"
#include "hpc/collector.hpp"
#include "hw/verilog_gen.hpp"
#include "serve/feed.hpp"
#include "serve/service.hpp"
#include "workload/corpus.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace smart2;
using serve::DetectionService;
using serve::ServeConfig;
using serve::StreamFeed;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 finalizer (the benchmark's own copy: the digest must not
/// change when the program's hash does).
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest-rank q-quantile (0 < q <= 1).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  /// Corpus scale of the cold profile (CorpusConfig::scale).
  double scale;
  /// Stage-2 family ("" = auto-select per class) and AdaBoost on top.
  const char* stage2_model;
  bool boost;
  /// Serve on the int8 quantized path instead of the double path.
  bool quantized;
  /// Streams that send one window per period.
  std::size_t active;
  /// 0: the same streams every period. c > 0: each period 1/c of the
  /// active set is replaced by streams that were not active, drawn from a
  /// population of c * active ids.
  std::size_t churn;
  /// Hot swaps in the paced phase too, one per latency segment (the
  /// saturated phase always swaps).
  bool paced_swaps;
  /// Offered rate of the paced phase, windows per second.
  double paced_rate;
  /// Cold builds per run; setup_s is their median.
  std::size_t setups;
};

// Paced rates are about 40% of the median saturated capacity measured on
// a 4-vCPU AVX2 host at 2 lanes (README.md, "Sizing"): low enough that a
// host stall does not push the open loop over the knee. build_boosted
// builds for ~18 s, so it sets up twice per run, not three times.
constexpr Workload kWorkloads[] = {
    {"fleet_steady", 0.05, "J48", false, false, 100'000, 0, false, 2.8e6, 3},
    {"fleet_churn_int8", 0.05, "J48", false, true, 250'000, 4, true, 2.2e6,
     3},
    {"build_boosted", 0.25, "", true, false, 100'000, 0, false, 1.2e6, 2},
};

/// Saturated periods before the first timed window (part of set-up).
constexpr std::uint64_t kWarmPeriods = 8;
/// The verdict digest and alarm_f1 cover this many saturated periods: a
/// fixed amount of work, so both are exact for a given seed.
constexpr std::uint64_t kDigestPeriods = 16;
/// Saturated periods between hot swaps.
constexpr std::uint64_t kSwapEvery = 8;
/// Distinct period blocks of pre-synthesized windows (windows repeat with
/// this period; StreamFeed's own bank repeats every 32 windows).
constexpr std::size_t kBlocks = 8;
/// Paced tick interval.
constexpr double kTickSeconds = 0.002;
constexpr std::size_t kShards = 8;
constexpr std::size_t kWidth = kCommonFeatureCount;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The self-test's size: one cold build of a tiny corpus serving a few
  /// thousand streams, whatever the workload.
  bool tiny = false;
};

/// The tiny size (--tiny): setups, corpus scale, active streams, paced
/// rate.
constexpr std::size_t kTinySetups = 1;
constexpr double kTinyScale = 0.02;
constexpr std::size_t kTinyStreams = 2000;
constexpr double kTinyRate = 200'000;

// ------------------------------------------------------------ host

/// Sink for the calibration chain: a volatile store before the closing
/// clock read keeps the loop inside the timed region.
volatile std::uint64_t g_calib_sink = 0;

double calibrate_ns() {
  // A fixed dependent chain of integer mixes: its time per step moves
  // with the host's clock and contention, never with the program.
  constexpr std::uint64_t kSteps = 1u << 22;
  std::vector<double> reps;
  std::uint64_t x = 0x5eed;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) x = mix(x + i);
    g_calib_sink = x;
    const auto t1 = Clock::now();
    reps.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(kSteps));
  }
  return median(reps);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Host CPU time so far (all CPUs, /proc/stat ticks): {stolen, total}.
/// Time the hypervisor gave to other guests shows up as steal; a run whose
/// steal share is far above zero measured a contended host.
std::pair<double, double> host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0;
  for (int field = 0; field < 10; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ------------------------------------------------------------ the fleet

/// Everything one cold build produces, plus the layer timings of that
/// build.
struct Built {
  std::shared_ptr<TwoStageHmd> served;
  std::vector<double> max_abs;
  Dataset test;
  std::unique_ptr<StreamFeed> feed;
  /// kBlocks blocks of `active` windows each, row-major.
  std::vector<double> blocks;
  std::unique_ptr<DetectionService> service;
  std::size_t apps = 0;
  std::size_t verilog_modules = 0;
  std::size_t verilog_bytes = 0;

  double prep_s = 0.0;      // build_corpus + split + scale reference
  double profile_s = 0.0;   // build_hpc_dataset
  double train_s = 0.0;     // TwoStageHmd::train (includes compile)
  double quantize_s = 0.0;  // save + load + quantize (the int8 artifact)
  double verilog_s = 0.0;   // generate_verilog over every detector
  double feed_s = 0.0;      // StreamFeed + the period blocks
  double warmup_s = 0.0;    // DetectionService + warm-up periods
  double total_s = 0.0;
};

class Fleet {
 public:
  Fleet(const Workload& w, const Options& opt)
      : w_(w),
        active_(opt.tiny ? kTinyStreams : w.active),
        scale_(opt.tiny ? kTinyScale : w.scale),
        rate_(opt.tiny ? kTinyRate : w.paced_rate),
        setups_(opt.tiny ? kTinySetups : w.setups),
        seed_(opt.seed) {}

  std::size_t active() const { return active_; }
  double rate() const { return rate_; }
  double scale() const { return scale_; }
  std::size_t setups() const { return setups_; }

  /// Stream id of slot `j` in period `p`: the slot in the low 32 bits,
  /// the occupant in the high ones. Slot j's occupants all share the
  /// slot's feed stream (and so its class); a replaced occupant is a new
  /// process: a new id the service has to admit.
  std::uint64_t stream_id(std::size_t j, std::uint64_t p) const {
    if (w_.churn == 0) return j;
    const std::uint64_t gen = (p + j % w_.churn) / w_.churn;
    return j | ((gen % w_.churn) << 32);
  }
  static std::size_t slot_of(std::uint64_t id) { return id & 0xffffffffu; }

  /// The feed stream behind slot `j`. The feed's bank is fixed per
  /// workload (its seed is the repository default); the run's seed picks
  /// which of the feed's streams the fleet's slots are, and so each
  /// slot's class and window sequence.
  std::uint64_t feed_stream(std::size_t j) const {
    return mix(seed_ ^ mix(j));
  }

  const double* window(const Built& b, std::size_t j, std::uint64_t p) const {
    return b.blocks.data() + ((p % kBlocks) * active_ + j) * kWidth;
  }

  ServeConfig serve_config() const {
    ServeConfig cfg;
    cfg.shards = kShards;
    const std::size_t per_shard = active_ / kShards + 1;
    // One whole period fits in the rings with hash-imbalance slack.
    cfg.queue_capacity = 2 * per_shard + 1024;
    if (w_.churn == 0) {
      cfg.max_streams_per_shard = 2 * per_shard + 1024;
    } else {
      // Room for the active set plus one replaced quarter: every period
      // admits a quarter of the active set, and LRU evicts as many idle
      // ones; the TTL clears streams idle for longer than a paced period.
      cfg.max_streams_per_shard = per_shard + per_shard / w_.churn + 256;
      const double period_ticks =
          static_cast<double>(active_) / rate_ / kTickSeconds;
      cfg.evict_after_ticks =
          static_cast<std::uint64_t>(std::ceil(1.5 * period_ticks)) + 2;
    }
    cfg.quantized = w_.quantized;
    return cfg;
  }

  /// One cold build, from nothing to a warmed-up service.
  std::unique_ptr<Built> build() const {
    auto b = std::make_unique<Built>();
    const auto t_start = Clock::now();

    auto t0 = Clock::now();
    CorpusConfig corpus_cfg;
    corpus_cfg.scale = scale_;
    corpus_cfg.seed = 42;  // the model build is fixed per workload
    const std::vector<AppSpec> corpus = build_corpus(corpus_cfg);
    b->apps = corpus.size();
    b->prep_s += seconds_between(t0, Clock::now());

    t0 = Clock::now();
    const HpcCollector collector{CollectorConfig{}};
    Dataset all = build_hpc_dataset(corpus, collector);
    b->profile_s = seconds_between(t0, Clock::now());

    t0 = Clock::now();
    Rng split_rng(corpus_cfg.seed ^ 0x517ULL);
    auto [train, test] = all.stratified_split(0.6, split_rng);
    b->test = std::move(test);
    b->max_abs.assign(train.feature_count(), 0.0);
    for (std::size_t i = 0; i < train.size(); ++i) {
      const auto x = train.features(i);
      for (std::size_t f = 0; f < x.size(); ++f)
        b->max_abs[f] = std::max(b->max_abs[f], std::abs(x[f]));
    }
    b->prep_s += seconds_between(t0, Clock::now());

    t0 = Clock::now();
    TwoStageConfig model_cfg;
    model_cfg.stage2_model = w_.stage2_model;
    model_cfg.boost = w_.boost;
    auto hmd = std::make_shared<TwoStageHmd>(model_cfg);
    hmd->train(train);
    b->train_s = seconds_between(t0, Clock::now());

    // The int8 artifact: a save/load round trip re-quantized, the same
    // steps a hot swap takes. The int8 workload serves it; the others keep
    // serving the double model it came from.
    t0 = Clock::now();
    b->served = hmd;
    {
      auto q = reload(*hmd);
      q->quantize({.width = 8, .format = {}}, b->max_abs);
      if (w_.quantized) b->served = std::move(q);
    }
    b->quantize_s = seconds_between(t0, Clock::now());

    t0 = Clock::now();
    const auto emit = [&](const Classifier& c, const std::string& name,
                          const std::vector<std::size_t>& features) {
      const Dataset ref = train.select_features(features);
      VerilogOptions vopt;
      vopt.scale_reference = &ref;
      try {
        const VerilogModule m = generate_verilog(c, name, vopt);
        ++b->verilog_modules;
        b->verilog_bytes += m.source.size();
      } catch (const std::invalid_argument&) {
        // A family with no combinational mapping (MLP) has no module.
      }
    };
    emit(hmd->stage1(), "stage1", hmd->plan().common);
    for (const AppClass c : kMalwareClasses)
      emit(hmd->stage2(c), "stage2_" + std::string(to_string(c)),
           hmd->stage2_feature_indices(c));
    b->verilog_s = seconds_between(t0, Clock::now());

    t0 = Clock::now();
    serve::FeedConfig feed_cfg;
    feed_cfg.streams = active_;
    feed_cfg.seed = 42;
    b->feed = std::make_unique<StreamFeed>(
        feed_cfg, HpcCollector{CollectorConfig{}}, hmd->plan().common);
    b->blocks.assign(kBlocks * active_ * kWidth, 0.0);
    for (std::size_t k = 0; k < kBlocks; ++k)
      for (std::size_t j = 0; j < active_; ++j)
        b->feed->window(feed_stream(j), k,
                        std::span<double>(
                            b->blocks.data() + (k * active_ + j) * kWidth,
                            kWidth));
    b->feed_s = seconds_between(t0, Clock::now());

    t0 = Clock::now();
    b->service = std::make_unique<DetectionService>(b->served, serve_config());
    for (std::uint64_t p = 0; p < kWarmPeriods; ++p) {
      for (std::size_t j = 0; j < active_; ++j)
        b->service->submit(stream_id(j, p),
                           std::span<const double>(window(*b, j, p), kWidth));
      b->service->tick();
    }
    b->warmup_s = seconds_between(t0, Clock::now());
    b->total_s = seconds_between(t_start, Clock::now());
    return b;
  }

  static std::shared_ptr<TwoStageHmd> reload(const TwoStageHmd& hmd) {
    std::stringstream blob;
    hmd.save(blob);
    return std::make_shared<TwoStageHmd>(TwoStageHmd::load(blob));
  }

  /// The successor of a hot swap: a save/load round trip of the served
  /// model, re-quantized on the int8 path.
  std::shared_ptr<TwoStageHmd> successor(const Built& b) const {
    auto next = reload(*b.served);
    if (w_.quantized) next->quantize({.width = 8, .format = {}}, b.max_abs);
    return next;
  }

  /// Digest term of the verdict at position `pos` of the verdict stream.
  /// Summing the terms keeps the fold off the critical path; the position
  /// keeps the digest sensitive to order.
  static std::uint64_t digest_term(std::uint64_t pos,
                                   const serve::StreamVerdict& v) {
    std::uint64_t score_bits = 0;
    std::memcpy(&score_bits, &v.verdict.smoothed_score, sizeof score_bits);
    return mix(pos * 0x9e3779b97f4a7c15ULL ^ v.stream_id ^
               mix(score_bits ^ (v.seq << 24) ^ (v.generation << 48) ^
                   static_cast<std::uint64_t>(v.verdict.alarmed)));
  }

 private:
  const Workload& w_;
  std::size_t active_;
  double scale_;
  double rate_;
  std::size_t setups_;
  std::uint64_t seed_;
};

// ------------------------------------------------------------ phases

struct PhaseCount {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  bool balanced = true;  // submitted == verdicts + dropped, every round
};

/// The saturated phase, summed over the run's rounds.
struct Saturated {
  PhaseCount count;
  double wall_s = 0.0;
  double submit_s = 0.0;
  double tick_s = 0.0;
  double consume_s = 0.0;
  double swap_s = 0.0;  // successor build + swap_model
  std::uint64_t verdicts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t evicted = 0;
  std::uint64_t alarm_edges = 0;
  /// Per swap: swap_model plus the next tick's excess over the round's
  /// median tick (can be negative when the next tick happens to be fast).
  std::vector<double> swap_ms;
  /// Per round: the digest of the first kDigestPeriods periods' verdicts
  /// and alarm_f1 after them.
  std::vector<std::uint64_t> digests;
  std::vector<double> alarm_f1s;

  /// Windows verdicted per wall second over the whole phase.
  double capacity_wps() const {
    return static_cast<double>(verdicts) / wall_s;
  }
};

double f1_of(std::uint64_t tp, std::uint64_t fp, std::uint64_t fn) {
  const std::uint64_t den = 2 * tp + fp + fn;
  return den == 0 ? 0.0 : 2.0 * static_cast<double>(tp) /
                              static_cast<double>(den);
}

/// Closed loop: one window per active stream, tick, read the verdicts,
/// repeat for whole periods until `seconds` have passed and at least
/// kDigestPeriods periods have run. Every kSwapEvery periods a hot swap
/// installs a reloaded copy of the served model. Adds the round to `r`.
void run_saturated(const Fleet& fleet, Built& b, std::uint64_t& period,
                   double seconds, Saturated& r) {
  DetectionService& svc = *b.service;
  const std::size_t n = fleet.active();
  std::vector<std::uint8_t> alarmed(n, 0);
  std::vector<double> tick_s;
  std::vector<std::pair<std::size_t, double>> swaps;  // tick index, swap s
  const serve::ServeStats before = svc.stats();
  std::uint64_t verdicts = 0;
  std::uint64_t h = 0;
  std::uint64_t pos = 0;  // position in this round's verdict stream
  const auto start = Clock::now();
  for (std::uint64_t round_periods = 0;; ++round_periods) {
    const std::uint64_t p = period++;
    const auto t0 = Clock::now();
    if (round_periods > 0 && p % kSwapEvery == 0) {
      auto next = fleet.successor(b);
      const auto s1 = Clock::now();
      svc.swap_model(std::move(next));
      swaps.emplace_back(tick_s.size(),
                         seconds_between(s1, Clock::now()));
    }
    const auto t1 = Clock::now();
    for (std::size_t j = 0; j < n; ++j)
      svc.submit(fleet.stream_id(j, p),
                 std::span<const double>(fleet.window(b, j, p), kWidth));
    const auto t2 = Clock::now();
    verdicts += svc.tick();
    const auto t3 = Clock::now();
    // A monitor reads every verdict: the first kDigestPeriods periods
    // also fold them into the digest and the per-stream alarm state, the
    // rest only count raised alarms.
    const bool digesting = round_periods < kDigestPeriods;
    for (std::size_t s = 0; s < svc.shard_count(); ++s)
      for (const serve::StreamVerdict& v : svc.verdicts(s)) {
        if (digesting) {
          h += Fleet::digest_term(pos++, v);
          alarmed[Fleet::slot_of(v.stream_id)] = v.verdict.alarmed ? 1 : 0;
        }
        r.alarm_edges += v.verdict.alarm_edge ? 1 : 0;
      }
    const auto t4 = Clock::now();
    tick_s.push_back(seconds_between(t2, t3));
    r.swap_s += seconds_between(t0, t1);
    r.submit_s += seconds_between(t1, t2);
    r.tick_s += tick_s.back();
    r.consume_s += seconds_between(t3, t4);
    if (round_periods + 1 == kDigestPeriods) {
      std::uint64_t tp = 0, fp = 0, fn = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const bool malware =
            b.feed->class_of(fleet.feed_stream(j)) != AppClass::kBenign;
        if (alarmed[j] != 0 && malware) ++tp;
        if (alarmed[j] != 0 && !malware) ++fp;
        if (alarmed[j] == 0 && malware) ++fn;
      }
      r.alarm_f1s.push_back(f1_of(tp, fp, fn));
      r.digests.push_back(h);
    }
    if (round_periods + 1 >= kDigestPeriods &&
        seconds_between(start, t4) >= seconds)
      break;
  }
  r.wall_s += seconds_between(start, Clock::now());
  const double typical_tick = median(tick_s);
  for (const auto& [i, swap_s] : swaps)
    r.swap_ms.push_back(1e3 * (swap_s + tick_s[i] - typical_tick));
  const serve::ServeStats after = svc.stats();
  const std::uint64_t offered = after.submitted - before.submitted;
  const std::uint64_t dropped = after.dropped - before.dropped;
  r.count.balanced = r.count.balanced && offered == verdicts + dropped &&
                     after.verdicts - before.verdicts == verdicts;
  r.count.offered += offered;
  r.count.dropped += dropped;
  r.verdicts += verdicts;
  r.admitted += after.admitted - before.admitted;
  r.evicted += after.evicted - before.evicted;
}

/// Windows with emission indices [first, last) that one tick verdicted,
/// returning at time t: window e's latency is t - e / rate.
struct TickSpan {
  double t;
  std::uint64_t first;
  std::uint64_t last;
};

/// Exact q-quantile of the latencies of `spans` plus `infinite` unbounded
/// ones, in seconds; +inf when the quantile falls among those.
double span_quantile(std::span<const TickSpan> spans, std::uint64_t infinite,
                     double rate, double q) {
  std::uint64_t total = infinite;
  double hi = 0.0;
  for (const TickSpan& s : spans) {
    total += s.last - s.first;
    if (s.last > s.first)
      hi = std::max(hi, s.t - static_cast<double>(s.first) / rate);
  }
  if (total == 0) return 0.0;
  const auto need = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  const auto count_le = [&](double v) {
    std::uint64_t c = 0;
    for (const TickSpan& s : spans) {
      // t - e/rate <= v  <=>  e >= (t - v) * rate
      const double lo_e = std::ceil((s.t - v) * rate);
      const std::uint64_t from =
          lo_e <= static_cast<double>(s.first)
              ? s.first
              : std::min<std::uint64_t>(s.last,
                                        static_cast<std::uint64_t>(lo_e));
      c += s.last - from;
    }
    return c;
  };
  if (count_le(hi) < need) return INFINITY;
  double lo = -1.0;
  for (int it = 0; it < 64; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (count_le(mid) >= need) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// How late the generator submitted windows: a fixed histogram of 1 us
/// bins (the last bin takes everything later), so its memory does not
/// depend on how the run went.
class LagHistogram {
 public:
  /// Windows [first, last) submitted at time t (window e due at e / rate).
  void add(double t, std::uint64_t first, std::uint64_t last, double rate) {
    for (std::uint64_t e = first; e < last; ++e) {
      const double lag_us = (t - static_cast<double>(e) / rate) * 1e6;
      const auto bin = static_cast<std::size_t>(std::clamp(
          lag_us, 0.0, static_cast<double>(kBins - 1)));
      ++bins_[bin];
      ++total_;
    }
  }
  double quantile_ms(double q) const {
    const auto need = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      seen += bins_[i];
      if (seen >= need && seen > 0) return static_cast<double>(i + 1) / 1e3;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kBins = 100'000;
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins, 0);
  std::uint64_t total_ = 0;
};

/// The paced phase, summed over the run's rounds.
struct Paced {
  PhaseCount count;
  double wall_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t swaps = 0;
  /// Exact p50 and p99 latency of each segment of every round.
  std::vector<double> segment_p50_ms;
  std::vector<double> segment_p99_ms;
  std::vector<double> tick_ms;
  LagHistogram lag;
};

/// Ticks per latency segment (50 ms, 60k-140k windows at the workloads'
/// rates). Each round's paced phase is cut into whole segments (the last
/// one takes the remainder), about 100 per run, and each segment's exact
/// p50 and p99 are taken. A host stall of a few ms (the hypervisor taking
/// a vCPU away) puts the p99 of the segment it falls in at the stall's
/// length, and a few of them lift its p50 too. On a shared host such
/// stalls come several times a second, so they can hit most segments: the
/// run reports the lower decile (nearest rank) of the segment
/// percentiles, which stays put until nine segments in ten are hit. A
/// slower tick or a costlier swap raises every segment's percentiles, and
/// so the decile.
constexpr std::size_t kSegmentTicks = 25;
/// With paced swaps, every segment swaps once, before this tick of it, so
/// every segment's percentiles include the cost of one hot swap.
constexpr std::size_t kSwapTick = kSegmentTicks / 2;

/// Open loop: window e is due at e / rate after the round starts (stream
/// slot e % active, its period e / active, so each slot sends once per
/// period and slot phases are spread evenly across the period); the
/// driver submits due windows as it goes and ticks every kTickSeconds.
/// With `swaps`, each segment builds a successor and hot-swaps it before its
/// kSwapTick-th tick. Adds the round to `r`.
void run_paced(const Fleet& fleet, Built& b, std::uint64_t& period,
               double seconds, bool swaps, Paced& r) {
  DetectionService& svc = *b.service;
  const std::size_t n = fleet.active();
  const double rate = fleet.rate();
  const serve::ServeStats before = svc.stats();
  const auto ticks = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kTickSeconds));
  const std::size_t segments = std::max<std::size_t>(1, ticks / kSegmentTicks);
  std::vector<TickSpan> done;  // per tick: return time, windows verdicted
  std::vector<std::uint64_t> tick_dropped;
  done.reserve(ticks);
  tick_dropped.reserve(ticks);
  r.tick_ms.reserve(r.tick_ms.size() + ticks);

  std::uint64_t next = 0;   // next emission index to submit
  std::uint64_t batch = 0;  // first emission index not yet ticked
  std::uint64_t dropped = 0;
  std::uint64_t batch_dropped = 0;
  std::size_t slot = 0;
  std::uint64_t p = period;
  const auto start = Clock::now();
  for (std::size_t k = 1; k <= ticks; ++k) {
    // Submit windows as they fall due until tick k is due (the last
    // tick drains what is left).
    const double tick_at = static_cast<double>(k) * kTickSeconds;
    for (;;) {
      const double now = seconds_between(start, Clock::now());
      const bool tick_due = now >= tick_at;
      const std::uint64_t due =
          k == ticks && tick_due ? next
                                 : static_cast<std::uint64_t>(now * rate) + 1;
      if (due > next && (due - next >= 32 || tick_due)) {
        r.lag.add(now, next, due, rate);
        for (; next < due; ++next) {
          if (!svc.submit(fleet.stream_id(slot, p),
                          std::span<const double>(fleet.window(b, slot, p),
                                                  kWidth)))
            ++batch_dropped;
          if (++slot == n) {
            slot = 0;
            ++p;
          }
        }
      }
      if (tick_due) break;
    }
    // Tick k has index k - 1; the last segment's remainder swaps no more.
    if (swaps && (k - 1) % kSegmentTicks == kSwapTick &&
        (k - 1) / kSegmentTicks < segments) {
      svc.swap_model(fleet.successor(b));
      ++r.swaps;
    }
    const auto t0 = Clock::now();
    svc.tick();
    const auto t1 = Clock::now();
    done.push_back({seconds_between(start, t1), batch, next});
    r.tick_ms.push_back(1e3 * seconds_between(t0, t1));
    tick_dropped.push_back(batch_dropped);
    dropped += batch_dropped;
    batch_dropped = 0;
    batch = next;
  }
  r.ticks += ticks;
  r.wall_s += seconds_between(start, Clock::now());
  period = p + 1;
  const serve::ServeStats after = svc.stats();
  const std::uint64_t offered = after.submitted - before.submitted;
  const std::uint64_t lost = after.dropped - before.dropped;
  r.count.balanced = r.count.balanced &&
                     offered == (after.verdicts - before.verdicts) + lost &&
                     offered == next && lost == dropped;
  r.count.offered += offered;
  r.count.dropped += lost;

  // A dropped window never gets a verdict and counts as infinitely late.
  // It stays inside its tick's span, so with drops the finite side is
  // over-counted and the quantiles err on the slow side; the designed
  // rates drop nothing.
  for (std::size_t sgm = 0; sgm < segments; ++sgm) {
    const std::size_t lo = sgm * kSegmentTicks;
    const std::size_t hi = sgm + 1 == segments ? ticks : lo + kSegmentTicks;
    const std::span<const TickSpan> seg(done.data() + lo, hi - lo);
    std::uint64_t seg_dropped = 0;
    for (std::size_t i = lo; i < hi; ++i) seg_dropped += tick_dropped[i];
    r.segment_p50_ms.push_back(1e3 *
                               span_quantile(seg, seg_dropped, rate, 0.50));
    r.segment_p99_ms.push_back(1e3 *
                               span_quantile(seg, seg_dropped, rate, 0.99));
  }
}

// ------------------------------------------------------------ kernels

/// Wall ns per row of fn(begin, m) over `rows` rows split into epochs of
/// kDetectEpoch, fanned over the global pool, repeated for ~`seconds`.
template <typename Fn>
double time_epochs(std::size_t rows, double seconds, Fn&& fn) {
  constexpr std::size_t kEpoch = TwoStageHmd::kDetectEpoch;
  const std::size_t epochs = (rows + kEpoch - 1) / kEpoch;
  const auto pass = [&] {
    parallel::parallel_for(0, epochs, [&](std::size_t e) {
      const std::size_t begin = e * kEpoch;
      fn(begin, std::min(kEpoch, rows - begin));
    });
  };
  pass();  // warm the scratch arenas and the caches
  std::uint64_t done = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    done += rows;
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < seconds);
  return elapsed * 1e9 / static_cast<double>(done);
}

struct Kernels {
  double kernel_ns = 0.0;
  double stage1_ns = 0.0;
  std::array<double, kNumMalwareClasses> stage2_ns{};
  double stage2_share = 0.0;
};

Kernels time_kernels(const Fleet& fleet, const Built& b, bool quantized) {
  Kernels k;
  const TwoStageHmd& hmd = *b.served;
  const std::size_t rows = std::min<std::size_t>(fleet.active(), 65'536);
  const double* block = b.blocks.data();
  std::vector<double> scores(rows);
  std::vector<std::uint8_t> suspected(rows);
  k.kernel_ns = time_epochs(rows, 0.5, [&](std::size_t begin, std::size_t m) {
    if (quantized) {
      hmd.score_epoch_quant(block + begin * kWidth, m, kWidth,
                            scores.data() + begin, suspected.data() + begin);
    } else {
      hmd.score_epoch_into(block + begin * kWidth, m, kWidth,
                           scores.data() + begin, suspected.data() + begin);
    }
  });

  std::vector<double> proba(rows * kNumAppClasses);
  k.stage1_ns = time_epochs(rows, 0.25, [&](std::size_t begin, std::size_t m) {
    hmd.stage1_proba_batch_into(block + begin * kWidth, m, kWidth,
                                proba.data() + begin * kNumAppClasses);
  });

  // Route as score_epoch_into does: rows with P(benign) < 0.95 go to the
  // stage-2 detector of their likeliest malware class.
  std::array<std::vector<double>, kNumMalwareClasses> routed;
  std::size_t to_stage2 = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* pr = proba.data() + i * kNumAppClasses;
    if (pr[label_of(AppClass::kBenign)] >= 0.95) continue;
    std::size_t best = 0;
    for (std::size_t s = 1; s < kNumMalwareClasses; ++s)
      if (pr[label_of(kMalwareClasses[s])] >
          pr[label_of(kMalwareClasses[best])])
        best = s;
    routed[best].insert(routed[best].end(), block + i * kWidth,
                        block + (i + 1) * kWidth);
    ++to_stage2;
  }
  k.stage2_share = static_cast<double>(to_stage2) / static_cast<double>(rows);
  for (std::size_t s = 0; s < kNumMalwareClasses; ++s) {
    // A class no row routes to is timed on the whole block instead.
    std::vector<double>& feats = routed[s];
    if (feats.empty()) feats.assign(block, block + rows * kWidth);
    const std::size_t n = feats.size() / kWidth;
    std::vector<double> out(n);
    k.stage2_ns[s] =
        time_epochs(n, 0.1, [&](std::size_t begin, std::size_t m) {
          hmd.stage2_score_batch_into(kMalwareClasses[s],
                                      feats.data() + begin * kWidth, m, kWidth,
                                      std::span<double>(out.data() + begin, m));
        });
  }
  return k;
}

// ------------------------------------------------------------ output

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    if (!std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "null");
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    raw(key, buf);
  }
  void integer(const char* key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const char* key, std::string_view v) {
    raw(key, "\"" + json_escape(v) + "\"");
  }
  void boolean(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + json_escape(key) + "\": " + v;
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (key == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 == argc) return false;
    const char* v = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::string_view(w.name) == v) opt.workload = &w;
      if (opt.workload == nullptr) return false;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string_view(v) == "1";
    } else {
      return false;
    }
  }
  return opt.workload != nullptr && opt.seconds > 0.0;
}

void set_metrics(bool on) {
  obs::Config cfg = obs::config();
  cfg.metrics = on;
  obs::configure(cfg);
}

double epoch_span_ns(const char* name) {
  return static_cast<double>(obs::histogram(name).sum_ns());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  const Workload& w = *opt.workload;
  const auto steal_start = host_steal_ticks();
  const double calib_start = calibrate_ns();
  const Fleet fleet(w, opt);
  const std::size_t setups = fleet.setups();

  // One round per cold build: build from nothing, then serve the build
  // saturated and paced. Spreading the timed phases over every round
  // samples the host over the whole run, not one stretch of it.
  constexpr std::array<const char*, 3> kEpochSpans = {
      "serve.epoch.index", "serve.epoch.infer", "serve.epoch.verdict"};
  std::array<double, 3> epoch_ns{};
  const double phase_s =
      opt.seconds / (2.0 * static_cast<double>(setups));
  std::unique_ptr<Built> b;
  std::vector<double> setup_s, prep_s, profile_s, train_s, quantize_s,
      verilog_s, feed_s, warmup_s;
  Saturated sat, untraced;
  Paced paced;
  for (std::size_t round = 0; round < setups; ++round) {
    // Hand the previous build's memory back, so each build's peak RSS
    // starts from the same floor.
    b.reset();
    malloc_trim(0);
    b = fleet.build();
    setup_s.push_back(b->total_s);
    prep_s.push_back(b->prep_s);
    profile_s.push_back(b->profile_s);
    train_s.push_back(b->train_s);
    quantize_s.push_back(b->quantize_s);
    verilog_s.push_back(b->verilog_s);
    feed_s.push_back(b->feed_s);
    warmup_s.push_back(b->warmup_s);

    std::uint64_t period = kWarmPeriods;
    set_metrics(opt.trace);
    std::array<double, 3> before{};
    for (std::size_t i = 0; i < kEpochSpans.size(); ++i)
      before[i] = epoch_span_ns(kEpochSpans[i]);
    run_saturated(fleet, *b, period, phase_s, sat);
    for (std::size_t i = 0; i < kEpochSpans.size(); ++i)
      epoch_ns[i] += epoch_span_ns(kEpochSpans[i]) - before[i];
    run_paced(fleet, *b, period, phase_s, w.paced_swaps, paced);
    set_metrics(false);
    // The saturated phase once more, untraced: trace.overhead_frac
    // compares the two.
    if (opt.trace) run_saturated(fleet, *b, period, phase_s, untraced);
  }
  Kernels kern;
  if (opt.trace) kern = time_kernels(fleet, *b, w.quantized);

  // heldout_f1: malware-vs-benign F1 of the served model on the 40% split.
  std::uint64_t tp = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < b->test.size(); ++i) {
    const bool truth = b->test.label(i) != label_of(AppClass::kBenign);
    const bool said = b->served->detect(b->test.features(i)).is_malware;
    if (said && truth) ++tp;
    if (said && !truth) ++fp;
    if (!said && truth) ++fn;
  }
  const double heldout_f1 = f1_of(tp, fp, fn);
  const double calib_end = calibrate_ns();
  const auto steal_end = host_steal_ticks();
  const double total_ticks = steal_end.second - steal_start.second;
  const double steal_frac =
      total_ticks > 0.0 ? (steal_end.first - steal_start.first) / total_ticks
                        : 0.0;

  const double capacity = sat.capacity_wps();
  const double sat_windows = static_cast<double>(sat.verdicts);
  const bool rounds_agree =
      std::adjacent_find(sat.digests.begin(), sat.digests.end(),
                         std::not_equal_to<>()) == sat.digests.end() &&
      std::adjacent_find(sat.alarm_f1s.begin(), sat.alarm_f1s.end(),
                         std::not_equal_to<>()) == sat.alarm_f1s.end();

  JsonObject host;
  host.str("cpu", cpu_model());
  host.integer("nproc", std::thread::hardware_concurrency());
  host.integer("lanes", parallel::thread_count());
  host.str("isa", simd::kIsa);
  host.str("build_type", FLEETBENCH_BUILD_TYPE);
  host.str("compiler", __VERSION__);

  JsonObject config;
  config.str("workload", w.name);
  config.integer("seed", opt.seed);
  config.num("seconds", opt.seconds);
  config.boolean("tiny", opt.tiny);
  config.integer("setups", setups);
  config.num("corpus_scale", fleet.scale());
  config.integer("corpus_apps", b->apps);
  config.integer("active_streams", fleet.active());
  config.integer("population",
                 fleet.active() * std::max<std::size_t>(1, w.churn));
  config.num("paced_rate_wps", fleet.rate());
  config.num("tick_ms", 1e3 * kTickSeconds);
  config.boolean("quantized", w.quantized);
  const ServeConfig scfg = fleet.serve_config();
  config.integer("shards", scfg.shards);
  config.integer("queue_capacity", scfg.queue_capacity);
  config.integer("max_streams_per_shard", scfg.max_streams_per_shard);
  config.integer("evict_after_ticks", scfg.evict_after_ticks);
  {
    // The feed's window bank is traced with the training collector.
    const CollectorConfig cc{};
    const serve::FeedConfig& fc = b->feed->config();
    JsonObject bank;
    bank.integer("cycles_per_sample", cc.cycles_per_sample);
    bank.integer("warmup_cycles", cc.warmup_cycles);
    bank.integer("profiles_per_class", fc.profiles_per_class);
    bank.integer("bank_windows", fc.bank_windows);
    bank.integer("feed_seed", fc.seed);
    bank.num("benign_fraction", fc.benign_fraction);
    bank.num("jitter_sigma", fc.jitter_sigma);
    bank.integer("period_blocks", kBlocks);
    config.raw("feed_bank", bank.render());
  }
  std::string models = "[";
  for (const AppClass c : kMalwareClasses) {
    if (models.size() > 1) models += ", ";
    models += "\"" + json_escape(b->served->stage2_model_name(c)) + "\"";
  }
  config.raw("stage2_models", models + "]");
  config.integer("verilog_modules", b->verilog_modules);
  config.integer("verilog_bytes", b->verilog_bytes);

  JsonObject checks;
  checks.boolean("saturated_balanced", sat.count.balanced);
  checks.boolean("saturated_no_drops", sat.count.dropped == 0);
  checks.boolean("paced_balanced", paced.count.balanced);
  checks.boolean("paced_no_drops", paced.count.dropped == 0);
  checks.boolean("rounds_agree", rounds_agree);
  if (opt.trace) {
    checks.boolean("untraced_balanced", untraced.count.balanced);
    checks.boolean("untraced_no_drops", untraced.count.dropped == 0);
  }

  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(sat.digests.front()));

  JsonObject e2e;
  e2e.num("setup_s", median(setup_s));
  e2e.num("capacity_wps", capacity);
  e2e.num("latency_p50_ms", quantile(paced.segment_p50_ms, 0.1));
  e2e.num("latency_p99_ms", quantile(paced.segment_p99_ms, 0.1));
  e2e.num("alarm_f1", sat.alarm_f1s.front());
  e2e.num("heldout_f1", heldout_f1);
  e2e.num("rss_mb", peak_rss_mb());

  JsonObject layer;
  if (opt.trace) {
    const double profile = median(profile_s);
    const double per_win = 1e9 / sat_windows;
    std::vector<double> tick_ms = paced.tick_ms;
    std::sort(tick_ms.begin(), tick_ms.end());
    layer.num("data.prep_s", median(prep_s));
    layer.num("hpc.profile_s", profile);
    layer.num("hpc.apps_per_s", static_cast<double>(b->apps) / profile);
    layer.num("ml.train_s", median(train_s));
    layer.num("core.quantize_s", median(quantize_s));
    layer.num("hw.verilog_s", median(verilog_s));
    layer.num("serve.feed_bank_s", median(feed_s));
    layer.num("serve.warmup_s", median(warmup_s));
    layer.num("serve.submit_ns", sat.submit_s * per_win);
    layer.num("serve.tick_ns", sat.tick_s * per_win);
    layer.num("serve.consume_ns", sat.consume_s * per_win);
    layer.num("serve.swap_ns", sat.swap_s * per_win);
    layer.num("serve.wall_ns", sat.wall_s * per_win);
    layer.num("serve.tick_p99_ms",
              tick_ms[static_cast<std::size_t>(
                  0.99 * static_cast<double>(tick_ms.size() - 1))]);
    layer.num("core.kernel_ns", kern.kernel_ns);
    layer.num("serve.overhead_ns",
              (sat.submit_s + sat.tick_s) * per_win - kern.kernel_ns);
    layer.num("core.stage1_ns", kern.stage1_ns);
    layer.num("core.stage2.backdoor_ns", kern.stage2_ns[0]);
    layer.num("core.stage2.rootkit_ns", kern.stage2_ns[1]);
    layer.num("core.stage2.virus_ns", kern.stage2_ns[2]);
    layer.num("core.stage2.trojan_ns", kern.stage2_ns[3]);
    layer.num("core.stage2_share", kern.stage2_share);
    layer.num("serve.admit_per_kwin",
              1e3 * static_cast<double>(sat.admitted) / sat_windows);
    layer.num("serve.evict_per_kwin",
              1e3 * static_cast<double>(sat.evicted) / sat_windows);
    layer.num("serve.swap_ms", median(sat.swap_ms));
    layer.num("serve.epoch.index_ns", epoch_ns[0] / sat_windows);
    layer.num("serve.epoch.infer_ns", epoch_ns[1] / sat_windows);
    layer.num("serve.epoch.verdict_ns", epoch_ns[2] / sat_windows);
    layer.num("gen.lag_p99_ms", paced.lag.quantile_ms(0.99));
    layer.num("host.calib_ns", calib_start);
    layer.num("host.calib_end_ns", calib_end);
    layer.num("host.steal_frac", steal_frac);
    const double untraced_cap = untraced.capacity_wps();
    layer.num("trace.overhead_frac", 1.0 - capacity / untraced_cap);
    layer.num("trace.untraced_capacity_wps", untraced_cap);
  }

  JsonObject info;
  info.num("setup_total_s_min",
           *std::min_element(setup_s.begin(), setup_s.end()));
  info.num("setup_total_s_max",
           *std::max_element(setup_s.begin(), setup_s.end()));

  info.integer("saturated_alarm_edges", sat.alarm_edges);
  info.num("saturated_wall_s", sat.wall_s);
  info.integer("paced_ticks", paced.ticks);
  info.integer("paced_segments", paced.segment_p99_ms.size());
  // Medians over the segments: they move with how much the host stalled
  // the run, the end-to-end deciles do not.
  info.num("paced_segment_p50_ms_median", median(paced.segment_p50_ms));
  info.num("paced_segment_p99_ms_median", median(paced.segment_p99_ms));
  info.integer("paced_swaps", paced.swaps);
  info.num("paced_wall_s", paced.wall_s);
  info.num("host_calib_start_ns", calib_start);
  info.num("host_calib_end_ns", calib_end);
  info.num("host_steal_frac", steal_frac);

  JsonObject out;
  out.raw("host", host.render());
  out.raw("config", config.render());
  out.raw("checks", checks.render());
  out.str("digest", digest_hex);
  out.integer("attempted", sat.count.offered + paced.count.offered +
                               untraced.count.offered);
  out.integer("failed", sat.count.dropped + paced.count.dropped +
                            untraced.count.dropped);
  out.raw("end_to_end", e2e.render());
  out.raw("per_layer", layer.render());
  out.raw("info", info.render());
  std::printf("%s\n", out.render().c_str());
  return 0;
}
