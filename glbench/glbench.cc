// glbench — the repository benchmark (see README.md beside this file).
//
// One process runs one workload: a fixed list of simulation runs (a
// "pass"), repeated until --seconds have elapsed, and prints summaries
// over the passes (see EndToEndMetrics). Each simulation run is one
// operation; it fails when the machine does not go idle or
// Workload::Validate reports a mismatch, and every pass must reproduce
// the first pass's run fingerprints exactly.
//
//   glbench --workload paper32|em3d256-glh|build1024 [--seed N]
//           --seconds S --trace 0|1 [--sha SHA] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics (untraced, unprofiled).
// --trace 1 alternates untraced and traced passes, then runs one
// profiled pass and the per-layer drivers, and reports the per-layer
// metrics. The last stdout line is one JSON object: correct, attempted,
// failed, metrics.
//
// The simulator is driven only through its public calls: CmpSystem
// construction, Workload::Init, harness::MakeBarrier,
// CmpSystem::RunProgramsStatus, Workload::Validate,
// harness::CollectSystemMetrics and the destructors.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/check.h"
#include "common/json.h"
#include "common/prof.h"
#include "harness/experiment.h"
#include "harness/spec.h"
#include "workloads/em3d.h"

#include "drivers.h"
#include "spans.h"

namespace glbench {
namespace {

using namespace glb;

// Timings of a Debug or sanitizer build measure a different program.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GLBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GLBENCH_SANITIZED 1
#endif
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || defined(GLBENCH_SANITIZED)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

/// The registry's EM3D graph seed, used when --seed is not given.
constexpr std::uint64_t kDefaultGraphSeed = 0xE3D;

harness::ExperimentSpec Em3dRun(const harness::Scale& scale, std::uint64_t graph_seed,
                                harness::BarrierKind kind, const cmp::CmpConfig& cfg) {
  harness::ExperimentSpec s = harness::FactoryExperiment(
      [scale, graph_seed]() -> std::unique_ptr<workloads::Workload> {
        workloads::Em3d::Config c;
        c.nodes = scale.em3d_nodes;
        c.timesteps = scale.em3d_steps;
        c.seed = graph_seed;
        return std::make_unique<workloads::Em3d>(c);
      },
      kind, cfg);
  s.workload = "EM3D";
  s.scale = scale;
  return s;
}

/// The simulation runs of one pass of the named workload (empty for an
/// unknown name). Why each workload was chosen is recorded in README.md.
std::vector<harness::ExperimentSpec> PassRuns(const std::string& name,
                                              std::uint64_t graph_seed) {
  using harness::BarrierKind;
  std::vector<harness::ExperimentSpec> runs;
  if (name == "paper32") {
    const cmp::CmpConfig cfg = cmp::CmpConfig::Table1();
    const harness::Scale scale;
    for (BarrierKind k : {BarrierKind::kGL, BarrierKind::kDSW, BarrierKind::kCSW}) {
      runs.push_back(harness::NamedExperiment("Kernel3", scale, k, cfg));
    }
    for (BarrierKind k : {BarrierKind::kGL, BarrierKind::kDSW, BarrierKind::kCSW}) {
      runs.push_back(Em3dRun(scale, graph_seed, k, cfg));
    }
  } else if (name == "em3d256-glh") {
    cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(256);
    cfg.hier.enabled = true;
    runs.push_back(Em3dRun(harness::Scale::ForCores(256), graph_seed, BarrierKind::kGLH, cfg));
  } else if (name == "build1024") {
    cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(1024);
    cfg.hier.enabled = true;
    harness::Scale scale = harness::Scale::ForCores(1024);
    scale.synthetic_iters = 1;
    runs.push_back(harness::NamedExperiment("Synthetic", scale, BarrierKind::kGLH, cfg));
  }
  return runs;
}

/// What one pass measured. Host times are seconds; counts are summed
/// over the pass's runs.
struct PassResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double sim_s = 0.0;
  /// Largest RSS growth across one CmpSystem constructor. Only the first
  /// pass sees a cold heap (see KeepFreedMemory).
  double build_mb = 0.0;
  std::uint64_t sim_cycles = 0;
  /// ClockProbeNs() just before the pass.
  double probe_ns = 0.0;
  /// Host seconds of each simulation run of the pass, in pass order:
  /// the whole run, and its RunProgramsStatus call.
  std::vector<double> run_wall_s;
  std::vector<double> run_sim_s;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> fingerprints;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Span index range of this pass in the tracer (traced passes).
  std::size_t span_begin = 0;
  std::size_t span_end = 0;
};

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Nanoseconds per step of a dependent integer multiply-xor-shift chain
/// (the best of three 1M-step batches, about 6 ms in all). The chain
/// touches no memory, so its speed is the core's clock rate alone.
double ClockProbeNs() {
  constexpr int kSteps = 1 << 20;
  static volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = seed;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kSteps;
    seed = x;
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Deterministic identity of a run's simulated result: cycles,
/// barriers per core, NoC messages per class and the Figure-6
/// breakdown. Host events are left out: they count simulator work, not
/// simulated behaviour, and a host-speed change may alter them.
std::string Fingerprint(const harness::ExperimentSpec& spec, const harness::RunMetrics& m) {
  std::ostringstream os;
  os << spec.workload << "/" << harness::ToString(spec.barrier) << " cycles=" << m.cycles
     << " barriers=" << m.barriers << " msgs=" << m.msgs_request << "/" << m.msgs_reply << "/"
     << m.msgs_coherence << " breakdown=";
  for (int c = 0; c < core::kNumTimeCats; ++c) {
    const auto cat = static_cast<core::TimeCat>(c);
    os << (c == 0 ? "" : ",") << core::ToString(cat) << ":" << m.breakdown[cat];
  }
  return os.str();
}

void AddCounts(cmp::CmpSystem& sys, std::map<std::string, std::uint64_t>& counts) {
  const StatSet& s = sys.stats();
  counts["sim.events"] += sys.HostEvents();
  counts["noc.msgs"] += s.CounterValue("noc.msgs.request") + s.CounterValue("noc.msgs.reply") +
                        s.CounterValue("noc.msgs.coherence");
  counts["noc.flits"] += s.CounterValue("noc.flits_sent");
  counts["coherence.l1_misses"] += s.CounterValue("l1.misses");
  counts["coherence.l2_requests"] += s.CounterValue("l2.requests");
  counts["core.loads"] += s.CounterValue("core.loads");
  counts["core.stores"] += s.CounterValue("core.stores");
  counts["core.amos"] += s.CounterValue("core.amos");
  counts["core.barrier_arrivals"] += s.CounterValue("core.barriers");
  counts["gline.episodes"] +=
      s.CounterValue("gl.barriers_completed") + s.CounterValue("glh.barriers_completed");
}

/// One simulation run: build, init, barrier, run, collect, validate,
/// teardown, each timed (and traced when `tracer` is non-null).
void RunOnce(const harness::ExperimentSpec& spec, Tracer* tracer, std::int64_t run_id,
             PassResult& pass) {
  Timed run_span(tracer, "run", run_id);
  std::unique_ptr<cmp::CmpSystem> sys;
  std::unique_ptr<workloads::Workload> workload;
  std::unique_ptr<sync::Barrier> barrier;

  const double rss_before = ResidentMb();
  {
    Timed t(tracer, "cmp.build", run_id, &pass.setup_s);
    sys = std::make_unique<cmp::CmpSystem>(spec.cfg);
  }
  pass.build_mb = std::max(pass.build_mb, ResidentMb() - rss_before);
  {
    Timed t(tracer, "workloads.init", run_id, &pass.setup_s);
    workload = spec.factory ? spec.factory() : harness::MakeWorkload(spec.workload, spec.scale);
    GLB_CHECK(workload != nullptr) << "unknown workload " << spec.workload;
    workload->Init(*sys);
  }
  {
    Timed t(tracer, "sync.make_barrier", run_id, &pass.setup_s);
    barrier = harness::MakeBarrier(spec.barrier, *sys);
  }
  sim::RunStatus status;
  {
    Timed t(tracer, "cmp.run", run_id, &pass.sim_s);
    status = sys->RunProgramsStatus(
        [&](core::Core& c, CoreId id) { return workload->Body(c, id, *barrier); },
        spec.max_cycles);
  }
  harness::RunMetrics m;
  {
    Timed t(tracer, "harness.collect", run_id);
    m = harness::CollectSystemMetrics(*sys, status);
  }
  std::string diagnostic;
  {
    Timed t(tracer, "workloads.validate", run_id);
    diagnostic = status.idle ? workload->Validate(*sys) : status.DescribeStall();
  }
  AddCounts(*sys, pass.counts);
  pass.sim_cycles += m.cycles;
  pass.fingerprints.push_back(Fingerprint(spec, m));
  ++pass.attempted;
  if (!diagnostic.empty()) {
    ++pass.failed;
    pass.failures.push_back(pass.fingerprints.back() + ": " + diagnostic);
  }
  {
    Timed t(tracer, "cmp.teardown", run_id);
    barrier.reset();
    workload.reset();
    sys.reset();
  }
}

PassResult RunPass(const std::vector<harness::ExperimentSpec>& runs, Tracer* tracer,
                   std::int64_t& next_run_id) {
  PassResult pass;
  pass.probe_ns = ClockProbeNs();
  if (tracer != nullptr) pass.span_begin = tracer->size();
  const auto t0 = Clock::now();
  {
    Timed pass_span(tracer, "pass", -1);
    for (const harness::ExperimentSpec& spec : runs) {
      const double sim_before = pass.sim_s;
      const auto r0 = Clock::now();
      RunOnce(spec, tracer, next_run_id++, pass);
      pass.run_wall_s.push_back(std::chrono::duration<double>(Clock::now() - r0).count());
      pass.run_sim_s.push_back(pass.sim_s - sim_before);
    }
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (tracer != nullptr) pass.span_end = tracer->size();
  return pass;
}

template <typename F>
std::vector<double> PerPass(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return v;
}

template <typename F>
double MedianOf(const std::vector<PassResult>& passes, F f) {
  return Median(PerPass(passes, f));
}

std::uint64_t Fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : lines) {
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Args {
  std::string workload;
  std::uint64_t graph_seed = kDefaultGraphSeed;
  double seconds = 0.0;
  int trace = -1;
  std::string sha = "unknown";
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "glbench: " << why << "\n"
            << "usage: glbench --workload paper32|em3d256-glh|build1024 [--seed N]\n"
            << "               --seconds S --trace 0|1 [--sha SHA] [--out-dir DIR]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.graph_seed = std::strtoull(value.c_str(), &end, 0);
      if (value.empty() || value[0] == '-' || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--sha") {
      a.sha = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0) {
    Usage("--workload, --seconds and --trace are required");
  }
  return a;
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteProvenance(json::Writer& w, const Args& a) {
  w.Key("provenance");
  w.BeginObject();
  w.Field("git_sha", a.sha);
  w.Field("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.Field("compiler", CompilerId());
  w.Field("build_type", GLBENCH_BUILD_TYPE);
  w.Field("workload", a.workload);
  w.Field("seed", a.graph_seed);
  w.Field("seconds", a.seconds);
  w.Field("trace", static_cast<std::uint64_t>(a.trace));
  w.EndObject();
}

void WriteMetrics(json::Writer& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
}

// Per-layer metrics derived from the spans of the traced passes, plus
// the tracing and profiling overheads.
std::vector<Metric> LayerMetrics(const Tracer& tracer, const std::vector<PassResult>& plain,
                                 const std::vector<PassResult>& traced,
                                 const PassResult& profiled, const prof::Snapshot& prof) {
  static const std::vector<std::pair<const char*, const char*>> kSpanMetrics = {
      {"cmp.build", "cmp.build_ms"},
      {"cmp.teardown", "cmp.teardown_ms"},
      {"cmp.run", "cmp.run_ms"},
      {"workloads.init", "workloads.init_ms"},
      {"workloads.validate", "workloads.validate_ms"},
      {"sync.make_barrier", "sync.make_barrier_ms"},
      {"harness.collect", "harness.collect_ms"},
  };
  std::vector<std::map<std::string, SpanTotals>> totals;
  for (const PassResult& p : traced) totals.push_back(tracer.Totals(p.span_begin, p.span_end));
  const auto ms = [&totals](const std::string& span, bool self) {
    std::vector<double> v;
    for (auto& t : totals) {
      const SpanTotals& s = t[span];
      v.push_back(static_cast<double>(self ? s.self_ns : s.total_ns) / 1e6);
    }
    return Median(std::move(v));
  };

  std::vector<Metric> out;
  double layers_ms = 0.0;
  for (const auto& [span, name] : kSpanMetrics) {
    out.push_back({name, ms(span, false), "ms"});
    layers_ms += out.back().value;
  }
  out.push_back({"cmp.build_mb", plain.front().build_mb, "MB"});
  // The benchmark's own time inside a traced pass: self time of the
  // pass and run spans (between and around the timed calls).
  out.push_back({"bench.self_ms", ms("pass", true) + ms("run", true), "ms"});
  const PassResult& first = traced.front();
  for (const auto& [name, value] : first.counts) {
    out.push_back({name, static_cast<double>(value), "count"});
  }
  const std::uint64_t events = first.counts.at("sim.events");
  out.push_back({"sim.ns_per_event",
                 events == 0 ? 0.0 : ms("cmp.run", false) * 1e6 / static_cast<double>(events),
                 "ns"});

  const double plain_wall = MedianOf(plain, [](const PassResult& p) { return p.wall_s; });
  const double traced_wall = MedianOf(traced, [](const PassResult& p) { return p.wall_s; });
  out.push_back({"trace.overhead_frac", traced_wall / plain_wall - 1.0, "fraction"});
  out.push_back({"host.clock_probe_ns",
                 MedianOf(plain, [](const PassResult& p) { return p.probe_ns; }), "ns"});
  // Share of the untraced pass's wall time that the layer spans cover.
  out.push_back({"trace.accounted_frac", layers_ms / 1e3 / plain_wall, "fraction"});

  static const std::vector<std::pair<prof::Cat, const char*>> kProfCats = {
      {prof::Cat::kEngine, "prof.engine_frac"},     {prof::Cat::kNoc, "prof.noc_frac"},
      {prof::Cat::kCoherence, "prof.coherence_frac"}, {prof::Cat::kBarrier, "prof.barrier_frac"},
      {prof::Cat::kWorkload, "prof.workload_frac"}, {prof::Cat::kOther, "prof.other_frac"},
  };
  const double prof_total = static_cast<double>(prof.total_ns());
  for (const auto& [cat, name] : kProfCats) {
    out.push_back(
        {name, static_cast<double>(prof.ns[static_cast<std::size_t>(cat)]) / prof_total,
         "fraction"});
  }
  out.push_back({"prof.overhead_frac", profiled.wall_s / plain_wall - 1.0, "fraction"});
  return out;
}

// The end-to-end host times (wall_s, setup_s, sim_s) are reference-clock
// seconds: measured seconds times kReferenceProbeNs over the run's
// median ClockProbeNs(). On a shared 4-vCPU KVM guest the probe reads
// 2.0 to 2.5 ns and moves by 20% within a minute, which would otherwise
// move whole runs.
constexpr double kReferenceProbeNs = 2.0;

// Wall and simulation times are taken per simulation run as the 5th
// percentile (kFastQuantile) over the measured passes, summed over the
// pass's runs. The host's interference (other tenants contending for
// cache and memory) only ever adds time, and it comes in episodes that
// slow a run by up to 2x for seconds to minutes: a median follows
// whichever episodes a run falls in, while the fastest runs stay near
// the program's own cost. Taking the percentile per run rather than per
// pass uses every run as a sample; a percentile rather than the minimum
// keeps one timer or scheduler accident from setting the figure.
// setup_s, many short calls per pass, is steady under a median and
// keeps it.
constexpr double kFastQuantile = 0.05;

double FastPassSum(const std::vector<PassResult>& passes,
                   std::vector<double> PassResult::*per_run) {
  double sum = 0.0;
  for (std::size_t i = 0; i < (passes.front().*per_run).size(); ++i) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back((p.*per_run)[i]);
    sum += Quantile(std::move(v), kFastQuantile);
  }
  return sum;
}

std::vector<Metric> EndToEndMetrics(const std::vector<PassResult>& plain) {
  // The first pass warms the heap, page tables and caches; it is checked
  // like every pass but not measured.
  const std::vector<PassResult> measured(plain.begin() + 1, plain.end());
  const double to_ref =
      kReferenceProbeNs / MedianOf(measured, [](const PassResult& p) { return p.probe_ns; });
  return {
      {"wall_s", to_ref * FastPassSum(measured, &PassResult::run_wall_s), "s"},
      {"setup_s", to_ref * MedianOf(measured, [](const PassResult& p) { return p.setup_s; }),
       "s"},
      {"sim_s", to_ref * FastPassSum(measured, &PassResult::run_sim_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_cycles", static_cast<double>(plain.front().sim_cycles), "cycles"},
  };
}

/// Keeps memory the simulator frees inside the process, so every pass
/// after the first reuses pages that are already mapped. Freed pages
/// handed back to the kernel are, on a VM with free-page reporting, handed
/// on to the hypervisor and faulted back in on the next pass: on a shared
/// 4-vCPU KVM guest that is 60% of a build1024 pass and varies 2x with
/// the host's memory pressure, swamping the construction work itself. The footprint stays measured: peak_rss_mb, and cmp.build_mb
/// from the first, cold-heap pass.
void KeepFreedMemory() {
  // 32 MiB is glibc's largest mmap threshold: smaller blocks come from
  // the heap, whose top is then never trimmed.
  GLB_CHECK(mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1) << "mallopt(M_MMAP_THRESHOLD) failed";
  GLB_CHECK(mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max()) == 1)
      << "mallopt(M_TRIM_THRESHOLD) failed";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  KeepFreedMemory();
  if (!kMeasurableBuild) {
    std::cerr << "glbench: refusing to measure a " << GLBENCH_BUILD_TYPE
              << " build without optimization, with assertions or with a sanitizer; "
                 "build with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n";
    return 2;
  }
  const std::vector<harness::ExperimentSpec> runs = PassRuns(args.workload, args.graph_seed);
  if (runs.empty()) Usage("unknown workload " + args.workload);

  Tracer tracer;
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::vector<PassResult> all;  // every pass, for the determinism check
  std::int64_t next_run_id = 0;
  const auto start = Clock::now();
  const auto elapsed = [&start]() {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  if (args.trace == 0) {
    while (plain.size() < 4 || elapsed() < args.seconds) {
      plain.push_back(RunPass(runs, nullptr, next_run_id));
    }
  } else {
    while (traced.size() < 2 || elapsed() < args.seconds) {
      plain.push_back(RunPass(runs, nullptr, next_run_id));
      traced.push_back(RunPass(runs, &tracer, next_run_id));
    }
  }
  all = plain;
  all.insert(all.end(), traced.begin(), traced.end());

  std::vector<Metric> metrics;
  std::vector<Metric> reported;  // the subset the result line carries
  if (args.trace == 0) {
    metrics = EndToEndMetrics(plain);
    reported = metrics;
  } else {
    prof::Enable(true);
    const PassResult profiled = RunPass(runs, nullptr, next_run_id);
    const prof::Snapshot snap = prof::Take();
    prof::Enable(false);
    all.push_back(profiled);
    reported = LayerMetrics(tracer, plain, traced, profiled, snap);
    for (Metric& m : RunDrivers(args.graph_seed)) reported.push_back(std::move(m));
    metrics = EndToEndMetrics(plain);
    metrics.insert(metrics.end(), reported.begin(), reported.end());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const std::vector<std::string>& reference = all.front().fingerprints;
  for (const PassResult& p : all) {
    attempted += p.attempted;
    failed += p.failed;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    for (std::size_t i = 0; i < p.fingerprints.size(); ++i) {
      if (p.fingerprints[i] != reference[i]) {
        ++failed;
        failures.push_back("nondeterministic run: " + p.fingerprints[i] + " vs " + reference[i]);
      }
    }
  }
  const bool correct = failed == 0;

  std::ostringstream digest;
  digest << std::hex << Fnv1a(reference);
  for (const std::string& f : reference) std::cout << "fingerprint " << f << "\n";
  std::cout << "fingerprint-digest " << digest.str() << "\n";
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";
  const auto pass_kind = [&](std::size_t i) {
    return i < plain.size()                   ? "untraced"
           : i < plain.size() + traced.size() ? "traced"
                                              : "profiled";
  };
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::cout << "pass " << i << " " << pass_kind(i) << " wall_s=" << all[i].wall_s
              << " setup_s=" << all[i].setup_s << " sim_s=" << all[i].sim_s
              << " probe_ns=" << all[i].probe_ns << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit << "\n";
  }

  // The full record of this run: provenance, fingerprints, every metric.
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.graph_seed) + "-trace" +
                           std::to_string(args.trace);
  {
    std::ofstream os(stem + ".json");
    json::Writer w(os, /*pretty=*/true);
    w.BeginObject();
    w.Field("schema", "glbench.result");
    w.Field("version", std::uint64_t{1});
    WriteProvenance(w, args);
    w.Key("fingerprints");
    w.BeginArray();
    for (const std::string& f : reference) w.String(f);
    w.EndArray();
    w.Field("fingerprint_digest", digest.str());
    w.Field("correct", correct);
    w.Field("attempted", attempted);
    w.Field("failed", failed);
    w.Key("failures");
    w.BeginArray();
    for (const std::string& f : failures) w.String(f);
    w.EndArray();
    w.Key("passes");
    w.BeginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
      w.BeginObject();
      w.Field("kind", pass_kind(i));
      w.Field("wall_s", all[i].wall_s);
      w.Field("setup_s", all[i].setup_s);
      w.Field("sim_s", all[i].sim_s);
      w.Field("probe_ns", all[i].probe_ns);
      w.EndObject();
    }
    w.EndArray();
    w.Key("metrics");
    WriteMetrics(w, metrics);
    w.EndObject();
    os << "\n";
  }
  if (args.trace == 1) {
    std::ofstream os(stem + "-spans.json");
    tracer.Write(os);
  }

  {
    std::ostringstream os;
    json::Writer w(os);
    w.BeginObject();
    WriteProvenance(w, args);
    w.EndObject();
    std::cout << "provenance " << os.str() << "\n";
  }
  std::ostringstream line;
  json::Writer w(line);
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", attempted);
  w.Field("failed", failed);
  w.Key("metrics");
  WriteMetrics(w, reported);
  w.EndObject();
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace glbench

int main(int argc, char** argv) { return glbench::Main(argc, argv); }
