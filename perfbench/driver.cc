// Host-cost benchmark driver: runs one workload in this process and prints
// every metric by name as a one-line JSON report (README.md).
//
//   perfbench_driver --workload <build_cold|corpus|inplace> --seed <n>
//                    --seconds <s> --trace <0|1> --expected <expected.tsv>
//                    [--spans <out.tsv>] [--smoke] [--revision <text>]
//   perfbench_driver --emit-expected <out.tsv>
//
// A run is one untimed warm-up pass over the workload's ops in their own
// order (charged to setup_s, and repeated when it is short), then timed
// passes in the seeded order until --seconds have elapsed. Passes are
// always whole, so every run times the same mix of ops whatever the seed
// orders them in. With --trace 1 the timed passes alternate between the
// plain stack and the tapped one; end-to-end numbers come from the plain
// passes, per-layer numbers from the tapped ones.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/failure_catalog.h"
#include "interp/executor.h"
#include "interp/module.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string expected;
  std::string spans;
  std::string revision = "unknown";
  std::string emit_expected;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds >= 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--expected") {
      a->expected = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else if (k == "--revision") {
      a->revision = v;
    } else if (k == "--emit-expected") {
      a->emit_expected = v;
    } else {
      return false;
    }
  }
  return !a->emit_expected.empty() ||
         (!a->workload.empty() && !a->expected.empty());
}

/// build_cold timed passes per requested second (see Main).
constexpr double kColdPassesPerSecond = 6;
/// Set-up repetition (see Main).
constexpr size_t kMaxSetups = 5;
constexpr double kShortSetupS = 1.0;

/// Per-pass counts. They depend only on the workload and the program, so
/// they must repeat exactly across passes and across same-seed runs.
struct Counts {
  uint64_t launches = 0;
  uint64_t ops = 0;
  uint64_t work_items = 0;
  uint64_t barriers = 0;
  uint64_t bytes_copied = 0;
  uint64_t api_calls = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double sim_ratio_geomean = 0;

  bool SameWork(const Counts& o) const {
    return launches == o.launches && ops == o.ops &&
           work_items == o.work_items && barriers == o.barriers &&
           bytes_copied == o.bytes_copied && api_calls == o.api_calls &&
           std::memcmp(&sim_ratio_geomean, &o.sim_ratio_geomean,
                       sizeof(double)) == 0;
  }
  bool SameCache(const Counts& o) const {
    return cache_hits == o.cache_hits && cache_misses == o.cache_misses;
  }
};

/// One timed op.
struct OpSample {
  double ms = 0;
  double cpu_ms = 0;  // user + sys, all threads
  double sys_ms = 0;
  bool wrapped = false;  // ran through cl2cu or cu2cl
};

/// Every op of a pass run once on one kind of stack.
struct Sweep {
  std::vector<OpSample> samples;  // in pass order
  Counts counts;
  int failed = 0;
};

struct PassResult {
  Sweep plain;
  Sweep tapped;  // empty unless the pass was traced
};

class Runner {
 public:
  Runner(Workload& w, const ExpectedTable& table, uint64_t seed)
      : w_(w), table_(table), seed_(seed) {
    // An expected rejection must also carry the expected Table 3
    // category; checked once per distinct op.
    std::set<std::string> seen;
    for (const Op& op : w_.ops) {
      const std::string src = Table3SourceOf(op);
      if (src.empty() || !seen.insert(op.Key()).second) continue;
      auto it = table_.find(op.Key());
      std::string got = Table3Of(src);
      if (it != table_.end() && it->second.table3 != got) {
        bad_keys_.insert(op.Key());
        Fail(op.Key() + ": Table 3 category " + got + ", expected " +
             it->second.table3);
      }
    }
  }

  /// Runs every op, in `order`, on the plain stack and, with `rec`, once
  /// more on the tapped one right next to it (alternating which goes
  /// first), so the two sweeps see the same heap and machine state.
  PassResult RunPass(int pass, const std::vector<size_t>& order,
                     SpanRecorder* rec) {
    PassResult p;
    std::vector<OpResult> plain(order.size()), tapped(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      const size_t i = order[k];
      const bool tapped_first = rec != nullptr && (k + pass) % 2 == 1;
      for (int v = 0; v < (rec ? 2 : 1); ++v) {
        const bool tap = tapped_first == (v == 0) && rec != nullptr;
        Sweep& sweep = tap ? p.tapped : p.plain;
        const uint64_t salt = Mix(seed_ ^ Mix((pass * 2 + tap) * 1000003ull + i));
        (tap ? tapped : plain)[i] = Time(w_.ops[i], salt, tap ? rec : nullptr, &sweep);
      }
    }
    Check(pass, plain, &p.plain);
    if (rec) Check(pass, tapped, &p.tapped);
    return p;
  }

  const std::vector<std::string>& failures() const { return failures_; }
  void Fail(const std::string& why) {
    if (failures_.size() < 20) failures_.push_back(why);
    ++failure_count_;
  }
  int failure_count() const { return failure_count_; }

 private:
  OpResult Time(const Op& op, uint64_t salt, SpanRecorder* rec, Sweep* sweep) {
    OpSample sample;
    sample.wrapped = IsWrapped(op.binding);
    if (rec) rec->set_op(next_op_id_);
    ++next_op_id_;
    const auto cache0 = bridgecl::interp::GetModuleCacheStats();
    const CpuTimes ru0 = ReadCpuTimes();
    const int64_t t0 = NowNs();
    OpResult r = RunOp(op, salt, rec);
    sample.ms = (NowNs() - t0) * 1e-6;
    const CpuTimes ru1 = ReadCpuTimes();
    const auto cache1 = bridgecl::interp::GetModuleCacheStats();
    sample.cpu_ms = (ru1.user_ns - ru0.user_ns + ru1.sys_ns - ru0.sys_ns) * 1e-6;
    sample.sys_ms = (ru1.sys_ns - ru0.sys_ns) * 1e-6;
    sweep->samples.push_back(sample);
    sweep->counts.cache_hits += cache1.hits - cache0.hits;
    sweep->counts.cache_misses += cache1.misses - cache0.misses;
    return r;
  }

  // Compares every op with the expected-outcome table, every translated
  // checksum with the native run of the same app, and fills the counts.
  void Check(int pass, const std::vector<OpResult>& results, Sweep* p) {
    std::map<std::string, double> native_sum, native_sim;  // app.dialect
    for (size_t i = 0; i < w_.ops.size(); ++i) {
      const Op& op = w_.ops[i];
      const OpResult& r = results[i];
      const bridgecl::simgpu::DeviceStats& s = r.stats;
      p->counts.launches += s.kernels_launched;
      p->counts.ops += s.ops_executed;
      p->counts.work_items += s.work_items_executed;
      p->counts.barriers += s.barriers;
      p->counts.bytes_copied += s.host_to_device_bytes +
                                s.device_to_host_bytes +
                                s.device_to_device_bytes;
      p->counts.api_calls += s.api_calls;
      if (op.kind == OpKind::kRun && !IsWrapped(op.binding) && r.status.ok()) {
        const std::string k = op.name + (IsCudaSource(op.binding) ? ".cu" : ".cl");
        native_sum[k] = r.checksum;
        native_sim[k] = r.sim_us;
      }
    }
    std::vector<double> ratios;
    for (size_t i = 0; i < w_.ops.size(); ++i) {
      const Op& op = w_.ops[i];
      const OpResult& r = results[i];
      const std::string got = Outcome(op, r);
      auto it = table_.find(op.Key());
      bool ok = it != table_.end() && it->second.outcome == got &&
                bad_keys_.count(op.Key()) == 0;
      if (op.kind == OpKind::kRun && IsWrapped(op.binding) && r.status.ok()) {
        const std::string k = op.name + (IsCudaSource(op.binding) ? ".cu" : ".cl");
        auto n = native_sum.find(k);
        // The HD7970 run is checked against the table only: an app may
        // report device properties (deviceQuery), which differ by GPU.
        // (A smoke pass may hold no native run to compare with.)
        if (op.binding != Binding::kCu2ClHd7970 && n != native_sum.end() &&
            n->second != r.checksum)
          ok = false;
        auto sim = native_sim.find(k);
        if (sim != native_sim.end() && sim->second > 0 && r.sim_us > 0)
          ratios.push_back(r.sim_us / sim->second);
      }
      if (!ok) {
        ++p->failed;
        Fail(op.Key() + ": pass " + std::to_string(pass) + " got '" + got +
             "', expected '" +
             (it == table_.end() ? std::string("<no row>")
                                 : it->second.outcome) +
             "'");
      }
    }
    p->counts.sim_ratio_geomean = GeoMean(ratios);
    if (w_.salted && p->counts.cache_hits != 0)
      Fail("build_cold: " + std::to_string(p->counts.cache_hits) +
           " module-cache hits in pass " + std::to_string(pass) +
           "; every salted build must miss");
  }

  Workload& w_;
  const ExpectedTable& table_;
  uint64_t seed_;
  uint32_t next_op_id_ = 0;
  std::set<std::string> bad_keys_;  // ops with a wrong Table 3 category
  std::vector<std::string> failures_;
  int failure_count_ = 0;
};

/// The tail percentile: the highest one with at least ten samples beyond
/// it among `per_pass` samples (one pass), so it does not change with how
/// many passes fit in the window. Below 20 samples that percentile would
/// not even reach the median, so the tail is the maximum.
double TailQ(size_t per_pass) {
  return per_pass >= 20 ? static_cast<double>(per_pass - 10) / per_pass : 1.0;
}

/// Per-layer sums over the tapped passes' spans.
struct LayerTotals {
  double op_wall_ns = 0, wrapped_wall_ns = 0;
  double outer_ns = 0, native_ns = 0;
  double launch_ns = 0, launch_cpu_ns = 0;
  double cl2cu_self_ns = 0, cu2cl_self_ns = 0;
  uint64_t cl2cu_calls = 0, cu2cl_calls = 0;
  std::vector<double> launch_us, sync_us, mocl_build_us, mocl_copy_us,
      mcuda_register_us, mcuda_memcpy_us, cl2cu_build_us, cu2cl_register_us;
  double build_ns = 0, copy_ns = 0, sync_ns = 0;
};

LayerTotals AnalyzeSpans(const std::vector<Span>& spans,
                         const std::vector<PassResult>& passes) {
  LayerTotals t;
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = s.end_ns - s.start_ns;
    const std::string_view name = s.name;
    if (IsAppFacing(s.boundary) && s.parent < 0) {
      t.outer_ns += ns;
      if (IsSyncCall(name)) {
        t.sync_us.push_back(ns * 1e-3);
        t.sync_ns += ns;
      }
    }
    if (s.boundary == Boundary::kCl2CuOuter) {
      t.cl2cu_self_ns += ns - child_ns[i];
      ++t.cl2cu_calls;
      if (name == kClBuild) t.cl2cu_build_us.push_back(ns * 1e-3);
    } else if (s.boundary == Boundary::kCu2ClOuter) {
      t.cu2cl_self_ns += ns - child_ns[i];
      ++t.cu2cl_calls;
      if (name == kCudaRegister) t.cu2cl_register_us.push_back(ns * 1e-3);
    }
    if (!IsNativeFacing(s.boundary)) continue;
    t.native_ns += ns;
    if (IsLaunchCall(name)) {
      t.launch_us.push_back(ns * 1e-3);
      t.launch_ns += ns;
      t.launch_cpu_ns += s.cpu_ns;
    }
    if (IsNativeCl(s.boundary)) {
      if (name == kClBuild) t.mocl_build_us.push_back(ns * 1e-3);
      if (IsClCopyCall(name)) t.mocl_copy_us.push_back(ns * 1e-3);
    } else {
      if (name == kCudaRegister) t.mcuda_register_us.push_back(ns * 1e-3);
      if (IsCudaCopyCall(name)) t.mcuda_memcpy_us.push_back(ns * 1e-3);
    }
    if (name == kClBuild || name == kCudaRegister) t.build_ns += ns;
    if (IsClCopyCall(name) || IsCudaCopyCall(name)) t.copy_ns += ns;
  }
  for (const PassResult& p : passes) {
    for (const OpSample& s : p.tapped.samples) {
      t.op_wall_ns += s.ms * 1e6;
      if (s.wrapped) t.wrapped_wall_ns += s.ms * 1e6;
    }
  }
  return t;
}

std::string Quote(const std::string& v) {
  std::string e = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') e += '\\';
    e += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return e + "\"";
}

class JsonObject {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(k, buf);
  }
  void Str(const std::string& k, const std::string& v) { Raw(k, Quote(v)); }
  void Raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int EmitExpected(const std::string& path) {
  // Every op of every workload once, checked against the invariants the
  // apps and Table 3 tests assert, then written as the expected table.
  std::set<std::string> untranslatable;
  for (auto& app : bridgecl::apps::RodiniaUntranslatableApps())
    untranslatable.insert(app->name());
  std::map<std::string, std::string> catalog;
  for (const auto& e : bridgecl::apps::FailureCatalog())
    catalog[e.name] = "classified " + JoinCategories(e.expected_categories);
  std::map<std::string, std::string> rows;
  int violations = 0;
  auto violate = [&](const std::string& why) {
    std::fprintf(stderr, "expected-table invariant violated: %s\n",
                 why.c_str());
    ++violations;
  };
  for (const char* name : kWorkloadNames) {
    auto w = MakeWorkload(name, 0);
    if (!w.ok()) return 2;
    std::map<std::string, std::string> native;  // app.dialect -> outcome
    std::vector<std::pair<const Op*, std::string>> wrapped;
    for (const Op& op : w->ops) {
      OpResult r = RunOp(op, 0, nullptr);
      const std::string got = Outcome(op, r);
      const std::string src = Table3SourceOf(op);
      rows[op.Key()] = got + "\t" + (src.empty() ? "-" : Table3Of(src));
      const bool cuda = op.kind != OpKind::kClassify && IsCudaSource(op.binding);
      const std::string app =
          op.kind == OpKind::kRun ? op.name
                                  : op.name.substr(0, op.name.rfind('.'));
      if (op.kind == OpKind::kClassify) {
        if (got != catalog[op.name])
          violate(op.Key() + ": " + got + " vs Table 3 " + catalog[op.name]);
      } else if (!r.status.ok() && !(cuda && untranslatable.count(app))) {
        violate(op.Key() + ": unexpected " + got);
      } else if (r.status.ok() && cuda && untranslatable.count(app) &&
                 op.kind == OpKind::kRun && IsWrapped(op.binding)) {
        violate(op.Key() + ": untranslatable app ran through cu2cl");
      }
      if (op.kind != OpKind::kRun) continue;
      if (IsWrapped(op.binding))
        wrapped.push_back({&op, got});
      else
        native[op.name + (cuda ? ".cu" : ".cl")] = got;
    }
    for (const auto& [op, got] : wrapped) {
      if (got.rfind("ok", 0) != 0) continue;
      const std::string k = op->name + (IsCudaSource(op->binding) ? ".cu" : ".cl");
      // apps_test: deviceQuery reports device properties, so its HD7970
      // checksum legitimately differs from the Titan one.
      if (native[k] != got &&
          !(op->binding == Binding::kCu2ClHd7970 && op->name == "deviceQuery"))
        violate(op->Key() + ": " + got + " differs from native " + native[k]);
    }
  }
  if (violations != 0) return 1;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "# Expected outcome of every benchmark op (perfbench/README.md)."
               "\n# kind\tname\tbinding\toutcome\ttable3\n");
  for (const auto& [k, v] : rows) std::fprintf(f, "%s\t%s\n", k.c_str(), v.c_str());
  return std::fclose(f) == 0 ? 0 : 2;
}

int Main(int argc, char** argv) {
  const int64_t t_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/driver.cc\n");
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  bridgecl::interp::SetWorkerCount(nproc);
  bridgecl::interp::SetModuleCacheEnabled(1);
  if (!args.emit_expected.empty()) return EmitExpected(args.emit_expected);

  auto table = LoadExpected(args.expected);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 2;
  }
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  Workload& w = *workload;
  if (args.smoke) {
    const Op first = w.ops[w.order[0]];
    w.ops.assign(1, first);
    w.order.assign(1, 0);
  }
  const size_t per_pass = w.ops.size();

  Runner runner(w, *table, args.seed);
  SpanRecorder rec;
  // Warm-up: fills the module cache (except on build_cold, whose builds
  // never hit), starts the worker pool and grows the heap. It runs the ops
  // in the workload's own order, not the seeded one, so that every run
  // starts timing from the same heap: the allocations the warm-up leaves
  // behind fix how much memory glibc hands back to the kernel, and faults
  // back in, on every later pass (README.md).
  //
  // A set-up that took under kShortSetupS (build_cold's takes ~40 ms) is
  // mostly noise, so the warm-up is repeated, with fresh build_cold
  // salts, up to kMaxSetups times; setup_s is the median of the first
  // set-up (from process start) and the repeated warm-ups.
  std::vector<size_t> workload_order(w.ops.size());
  for (size_t i = 0; i < w.ops.size(); ++i) workload_order[i] = i;
  PassResult warm = runner.RunPass(0, workload_order, nullptr);
  std::vector<double> setups = {(NowNs() - t_start) * 1e-9};
  while (setups.size() < kMaxSetups && (NowNs() - t_start) * 1e-9 < kShortSetupS) {
    const int64_t t0 = NowNs();
    warm = runner.RunPass(-static_cast<int>(setups.size()), workload_order, nullptr);
    setups.push_back((NowNs() - t0) * 1e-9);
  }
  const int64_t t_measure = NowNs();
  const double setup_s = Quantile(setups, 0.5);

  // build_cold times a fixed amount of work: its salted builds all stay in
  // the module cache, which never evicts, so a time-bound window would
  // make peak RSS grow with build speed. Its passes are spread evenly over
  // --seconds, idle in between, so they sample the host's speed across
  // the whole window rather than one short stretch of it. A traced pass
  // builds everything twice, so it runs half as many. The other workloads
  // run whole passes back to back until --seconds have elapsed.
  std::vector<PassResult> passes;
  int64_t passes_wall_ns = 0;  // the timed passes, back to back
  if (w.salted) {
    const long n = std::max(1L, std::lround(args.seconds * kColdPassesPerSecond /
                                            (args.trace ? 2 : 1)));
    const double slot_ns = args.seconds * 1e9 / n;
    for (long k = 0; k < (args.smoke ? 1 : n); ++k) {
      const int64_t due = t_measure + static_cast<int64_t>(k * slot_ns);
      if (NowNs() < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      passes.push_back(runner.RunPass(k + 1, w.order, args.trace ? &rec : nullptr));
    }
  } else {
    for (int pass = 1;; ++pass) {
      const double elapsed = (NowNs() - t_measure) * 1e-9;
      if (!passes.empty() && (args.smoke || elapsed >= args.seconds)) break;
      const int64_t p0 = NowNs();
      passes.push_back(runner.RunPass(pass, w.order, args.trace ? &rec : nullptr));
      passes_wall_ns += NowNs() - p0;
    }
  }

  // Determinism: the work counts repeat across every sweep, warm-up
  // included; cache counts repeat across the timed passes.
  for (const PassResult& p : passes) {
    for (const Sweep* s : {&p.plain, &p.tapped}) {
      if (s->samples.empty()) continue;
      if (!s->counts.SameWork(warm.plain.counts))
        runner.Fail("determinism: work counts differ from the warm-up pass");
    }
    if (!p.plain.counts.SameCache(passes[0].plain.counts) ||
        !p.tapped.counts.SameCache(passes[0].tapped.counts))
      runner.Fail("determinism: module-cache counts differ between passes");
  }

  std::vector<double> plain_ms, tapped_ms;
  double plain_total_ms = 0, cpu_ms = 0, sys_ms = 0;
  int attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    for (const OpSample& s : p.plain.samples) {
      plain_ms.push_back(s.ms);
      plain_total_ms += s.ms;
      cpu_ms += s.cpu_ms;
      sys_ms += s.sys_ms;
    }
    for (const OpSample& s : p.tapped.samples) tapped_ms.push_back(s.ms);
    attempted += static_cast<int>(p.plain.samples.size() + p.tapped.samples.size());
    failed += p.plain.failed + p.tapped.failed;
  }
  // The tail of each pass, then the median over the passes: with few ops
  // per pass (inplace) the tail is one pass's slowest op, and the median
  // keeps one slow outlier from standing for the whole run.
  const double tail_q = TailQ(per_pass);
  std::vector<double> pass_tails;
  for (const PassResult& p : passes) {
    std::vector<double> ms;
    for (const OpSample& s : p.plain.samples) ms.push_back(s.ms);
    pass_tails.push_back(Quantile(ms, tail_q));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonObject e2e;
  e2e.Num("setup_s", setup_s);
  // Completed ops per wall second of the timed passes, time between ops
  // included. build_cold idles between its paced passes and a traced
  // pass also runs every op tapped, so there it is ops over their summed
  // wall time.
  const bool pass_wall = !w.salted && !args.trace;
  e2e.Num("ops_per_s", plain_ms.size() / (pass_wall ? passes_wall_ns * 1e-9
                                                    : plain_total_ms * 1e-3));
  e2e.Num("op_ms_p50", Quantile(plain_ms, 0.5));
  e2e.Num("op_ms_tail", Quantile(pass_tails, 0.5));
  e2e.Num("cpu_ms_per_op", cpu_ms / plain_ms.size());
  e2e.Num("peak_rss_mb", ru.ru_maxrss / 1024.0);

  JsonObject details;
  details.Num("op_ms_tail_pct", 100 * tail_q);
  details.Num("op_ms_samples", static_cast<double>(plain_ms.size()));
  details.Num("ops_per_pass", static_cast<double>(per_pass));
  details.Num("timed_passes", static_cast<double>(passes.size()));
  details.Num("setups", static_cast<double>(setups.size()));
  std::string pass_ms = "[";
  for (const PassResult& p : passes) {
    double total = 0;
    for (const OpSample& s : p.plain.samples) total += s.ms;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", pass_ms.size() > 1 ? "," : "", total);
    pass_ms += buf;
  }
  details.Raw("pass_ms", pass_ms + "]");
  details.Num("fail_ratio", attempted ? static_cast<double>(failed) / attempted : 0);

  const Counts& c = passes[0].plain.counts;
  JsonObject layer;
  if (args.trace) {
    const int reps = args.smoke ? 1 : 3;
    std::vector<ProbeSource> probe = w.probe_sources;
    if (args.smoke && probe.size() > 1) probe.resize(1);
    const ProbeResult pr = ProbeFrontEnd(probe, reps, Mix(args.seed + 0x5eed));
    layer.Num("lang.lex_ns_per_byte", pr.lex_ns_per_byte);
    layer.Num("lang.parse_ns_per_byte", pr.parse_ns_per_byte);
    layer.Num("lang.sema_ns_per_byte", pr.sema_ns_per_byte);
    layer.Num("lang.print_ns_per_byte", pr.print_ns_per_byte);
    layer.Num("translator.cl2cu_us_p50", pr.cl2cu_us_p50);
    layer.Num("translator.cu2cl_us_p50", pr.cu2cl_us_p50);
    layer.Num("translator.classify_us_p50", pr.classify_us_p50);
    layer.Num("translator.host_rewrite_us_p50", pr.host_rewrite_us_p50);
    layer.Num("interp.compile_miss_us_p50", pr.compile_miss_us_p50);
    layer.Num("interp.compile_hit_us_p50", pr.compile_hit_us_p50);

    const LayerTotals t = AnalyzeSpans(rec.spans(), passes);
    const double launches_per_pass = static_cast<double>(c.launches);
    const int workers = bridgecl::interp::WorkerCount();
    auto share = [](double part, double whole) {
      return whole > 0 ? part / whole : 0.0;
    };
    layer.Num("interp.cache_hits", static_cast<double>(c.cache_hits));
    layer.Num("interp.cache_misses", static_cast<double>(c.cache_misses));
    layer.Num("interp.launch_us_p50", Quantile(t.launch_us, 0.5));
    layer.Num("interp.launch_us_tail",
              Quantile(t.launch_us, TailQ(static_cast<size_t>(launches_per_pass))));
    layer.Num("interp.launch_share", share(t.launch_ns, t.op_wall_ns));
    layer.Num("interp.launches", launches_per_pass);
    layer.Num("interp.ops", static_cast<double>(c.ops));
    layer.Num("interp.ns_per_op", share(t.launch_ns, double(c.ops) * passes.size()));
    layer.Num("interp.ns_per_work_item",
              share(t.launch_ns, double(c.work_items) * passes.size()));
    layer.Num("simgpu.work_items", static_cast<double>(c.work_items));
    layer.Num("simgpu.barriers", static_cast<double>(c.barriers));
    layer.Num("simgpu.bytes_copied", static_cast<double>(c.bytes_copied));
    layer.Num("process.sys_frac", share(sys_ms, cpu_ms));
    layer.Num("pool.workers", workers);
    layer.Num("pool.cpu_util", share(t.launch_cpu_ns, t.launch_ns * workers));
    layer.Num("mocl.build_us_p50", Quantile(t.mocl_build_us, 0.5));
    layer.Num("mocl.copy_us_p50", Quantile(t.mocl_copy_us, 0.5));
    layer.Num("mcuda.register_module_us_p50", Quantile(t.mcuda_register_us, 0.5));
    layer.Num("mcuda.memcpy_us_p50", Quantile(t.mcuda_memcpy_us, 0.5));
    layer.Num("native.api_calls", static_cast<double>(c.api_calls));
    layer.Num("cl2cu.self_us_per_call",
              share(t.cl2cu_self_ns * 1e-3, static_cast<double>(t.cl2cu_calls)));
    layer.Num("cu2cl.self_us_per_call",
              share(t.cu2cl_self_ns * 1e-3, static_cast<double>(t.cu2cl_calls)));
    layer.Num("cl2cu.build_us_p50", Quantile(t.cl2cu_build_us, 0.5));
    layer.Num("cu2cl.register_module_us_p50", Quantile(t.cu2cl_register_us, 0.5));
    layer.Num("wrappers.self_share",
              share(t.cl2cu_self_ns + t.cu2cl_self_ns, t.wrapped_wall_ns));
    layer.Num("sched.sync_us_p50", Quantile(t.sync_us, 0.5));
    const double driver_ns = t.op_wall_ns - t.outer_ns;
    layer.Num("apps.driver_share", share(driver_ns, t.op_wall_ns));
    const double plain_p50 = Quantile(plain_ms, 0.5);
    layer.Num("trace.overhead_pct",
              share(100 * (Quantile(tapped_ms, 0.5) - plain_p50), plain_p50));
    layer.Num("sim_ratio_geomean", c.sim_ratio_geomean);

    // Where the tapped ops' wall time went; the shares sum to
    // trace.accounted_share, which is 1 up to the taps' own cost.
    const double wrapper_ns = t.cl2cu_self_ns + t.cu2cl_self_ns;
    details.Num("trace.accounted_share",
                share(driver_ns + wrapper_ns + t.native_ns, t.op_wall_ns));
    details.Num("share.driver", share(driver_ns, t.op_wall_ns));
    details.Num("share.wrapper_self", share(wrapper_ns, t.op_wall_ns));
    details.Num("share.native_launch", share(t.launch_ns, t.op_wall_ns));
    details.Num("share.native_build", share(t.build_ns, t.op_wall_ns));
    details.Num("share.native_copy", share(t.copy_ns, t.op_wall_ns));
    details.Num("share.native_other",
                share(t.native_ns - t.launch_ns - t.build_ns - t.copy_ns,
                      t.op_wall_ns));
    details.Num("share.outer_sync", share(t.sync_ns, t.op_wall_ns));
    details.Num("interp.launch_us_tail_pct",
                100 * TailQ(static_cast<size_t>(launches_per_pass)));
    details.Num("spans", static_cast<double>(rec.spans().size()));
    if (!args.spans.empty() && !rec.WriteTsv(args.spans))
      runner.Fail("spans: cannot write " + args.spans);
  }

  JsonObject counts;
  counts.Num("interp.launches", static_cast<double>(c.launches));
  counts.Num("interp.ops", static_cast<double>(c.ops));
  counts.Num("simgpu.work_items", static_cast<double>(c.work_items));
  counts.Num("simgpu.barriers", static_cast<double>(c.barriers));
  counts.Num("simgpu.bytes_copied", static_cast<double>(c.bytes_copied));
  counts.Num("native.api_calls", static_cast<double>(c.api_calls));
  counts.Num("interp.cache_hits", static_cast<double>(c.cache_hits));
  counts.Num("interp.cache_misses", static_cast<double>(c.cache_misses));
  counts.Num("sim_ratio_geomean", c.sim_ratio_geomean);

  JsonObject host;
  host.Num("nproc", nproc);
  host.Num("workers", bridgecl::interp::WorkerCount());
  host.Str("build_type", PERFBENCH_BUILD_TYPE);
  host.Str("compiler", PERFBENCH_COMPILER);
  host.Str("revision", args.revision);
  host.Num("seed", static_cast<double>(args.seed));

  std::string failures = "[";
  for (const std::string& f : runner.failures()) {
    if (failures.size() > 1) failures += ",";
    failures += Quote(f);
  }
  failures += "]";

  JsonObject report;
  report.Str("workload", w.name);
  report.Raw("correct", runner.failure_count() == 0 ? "true" : "false");
  report.Num("attempted", attempted);
  report.Num("failed", failed);
  report.Raw("failures", failures);
  report.Raw("host", host.str());
  report.Raw("end_to_end", e2e.str());
  report.Raw("per_layer", layer.str());
  report.Raw("counts", counts.str());
  report.Raw("details", details.str());
  std::printf("%s\n", report.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
