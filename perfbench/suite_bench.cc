/**
 * @file
 * Suite benchmark: the host cost of the paper's sweeps, end to end and
 * per execution layer.
 *
 * The benchmark reaches the simulator only through its public entry
 * points — ExperimentRunner::prefetch*, System's constructor and mode
 * setters, runSimulation(), Core::retired() and System::profileJson() —
 * and runs one named workload (a fixed list of simulation runs) per
 * invocation:
 *
 *  - Untraced pass (--trace 0): whole rounds of the workload's sweep
 *    run until --seconds have passed, each after a timed set-up (runner
 *    and System construction); the end-to-end metrics are medians over
 *    the rounds.  Every round's simulated statistics must equal the
 *    first round's.
 *  - Traced pass (--trace 1): one untraced reference round, one round
 *    with in-memory spans (sweep > run > construct / simulate) and the
 *    System self-profiler on, then one round per execution mode with a
 *    single layer switched off, each followed by a default round, and
 *    for pool scaling one round at jobs = 1 and one at jobs = nproc.
 *    Simulated statistics must be identical across all of them.
 *
 * Host-time figures carry a time unit (s, ms, ns); simulated ones count
 * ticks, events or instructions.  The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}; --record writes the
 * full run record (host, build, source revision, seed, quantum, rounds,
 * spans) as JSON.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "sim/experiments.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

extern char **environ;

namespace
{

using namespace hetsim;
using namespace hetsim::sim;
using Clock = std::chrono::steady_clock;

/** Times each construction is repeated per round (see setupSeconds). */
constexpr unsigned kSetupReps = 5;
/** Core issue width (Table 1); no core can retire more per tick. */
constexpr double kIssueWidth = 4.0;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Host CPU seconds (user + sys) of this process, all threads. */
double
hostCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One simulation run of a workload's sweep. */
struct Run
{
    MemConfig mem;
    std::string bench;
    unsigned activeCores; ///< 8 = shared run, 1 = IPC_alone run
    /** The fast-served probe: fixed seed and quantum, see kProbe. */
    bool probe = false;
};

/**
 * The fast-served probe, the last run of every round.  Its inputs do not
 * depend on --seed.  servedByFastFraction counts fast arrivals in the
 * measurement window but divides by the misses allocated in it, so
 * misses in flight when the window opens can push it past 1.  On these
 * inputs it reads 1.0044 every time, so the probe fails its [0, 1] check
 * and is counted in `failed` until the fraction is mended.  On seeded
 * runs the same fault shows on some seeds only, so the upper bound is
 * checked on the probe alone.
 */
const Run kProbe{MemConfig::CwfRL, "stream", 8, true};
constexpr std::uint64_t kProbeSeed = 8;
constexpr std::uint64_t kProbeReads = 2000;

struct Workload
{
    std::string name;
    /** Sweep through ExperimentRunner::prefetchThroughput at jobs =
     *  nproc (paper-sweep); otherwise System + runSimulation at
     *  jobs = 1. */
    bool viaRunner = false;
    /** Demand-read quantum.  Runner sweeps pass it as HETSIM_READS
     *  (ExperimentScale then scales it per run, with a 2000-read floor);
     *  the other workloads measure exactly this many reads after as
     *  many warmup reads. */
    std::uint64_t reads = 0;
    std::vector<std::string> benches;
    std::vector<Run> runs;
};

constexpr unsigned kCores = 8;

const std::vector<MemConfig> kFig6Configs = {MemConfig::CwfRD,
                                             MemConfig::CwfRL,
                                             MemConfig::CwfDL};

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    auto shared = [&w](const std::vector<std::string> &benches,
                       const std::vector<MemConfig> &mems) {
        for (const auto &b : benches)
            for (MemConfig m : mems)
                w.runs.push_back(Run{m, b, kCores});
        w.benches = benches;
    };
    if (name == "paper-sweep") {
        // Fig. 6: per workload the DDR3 IPC_alone weight, the DDR3
        // shared run and RD/RL/DL shared runs — the order in which
        // prefetchThroughput submits them to the pool.
        w.viaRunner = true;
        w.reads = 2000;
        w.benches = {"cg",     "leslie3d", "libquantum", "mcf",
                     "omnetpp", "stream",  "lbm",        "gromacs"};
        for (const auto &b : w.benches) {
            w.runs.push_back(Run{MemConfig::BaselineDDR3, b, 1});
            w.runs.push_back(Run{MemConfig::BaselineDDR3, b, kCores});
            for (MemConfig m : kFig6Configs)
                w.runs.push_back(Run{m, b, kCores});
        }
    } else if (name == "dram-bound") {
        w.reads = 2000;
        shared({"stream", "lbm", "milc", "soplex", "libquantum", "mcf"},
               {MemConfig::BaselineDDR3, MemConfig::CwfRL,
                MemConfig::CwfRLAdaptive, MemConfig::HmcCdf});
    } else if (name == "compute-bound") {
        w.reads = 1000;
        shared({"gromacs", "bzip2", "sjeng"},
               {MemConfig::BaselineDDR3, MemConfig::CwfRL});
    } else if (name == "latency-bound") {
        w.reads = 2000;
        w.benches = {"mcf", "omnetpp", "xalancbmk", "astar"};
        for (const auto &b : w.benches)
            for (MemConfig m : {MemConfig::CwfRL, MemConfig::HmcCdf})
                w.runs.push_back(Run{m, b, 1});
    }
    w.runs.push_back(kProbe);
    return w;
}

/** The RunConfig of one run: ExperimentScale's for runner sweeps, the
 *  workload's fixed quantum otherwise (ExperimentScale's tick caps). */
RunConfig
runConfigFor(const Workload &w, const Run &run)
{
    const ExperimentScale scale = ExperimentScale::fromEnv();
    RunConfig rc = scale.runConfig(run.activeCores, kCores);
    if (run.probe) {
        rc.measureReads = kProbeReads;
        rc.warmupReads = kProbeReads;
    } else if (!w.viaRunner) {
        rc.measureReads = w.reads;
        rc.warmupReads = w.reads;
    }
    return rc;
}

std::uint64_t
seedFor(const Run &run, std::uint64_t seed)
{
    return run.probe ? kProbeSeed : seed;
}

const std::vector<std::string> kWorkloadNames = {
    "paper-sweep", "dram-bound", "compute-bound", "latency-bound"};

std::string
runLabel(const Run &r)
{
    return std::string(r.probe ? "probe:" : "") + toString(r.mem) + "/" +
           r.bench + "/a" + std::to_string(r.activeCores);
}

SystemParams
paramsFor(MemConfig mem, std::uint64_t seed)
{
    SystemParams p = ExperimentRunner::paramsFor(mem);
    p.cores = kCores;
    p.seed = seed;
    return p;
}

// ---------------------------------------------------------------------
// Execution modes (one layer switched off at a time)
// ---------------------------------------------------------------------

struct Mode
{
    const char *name;
    Engine engine = Engine::Event;
    bool fastForward = true;
    bool coreBatch = true;
    bool leanCommit = true;
    bool linearSched = false; ///< HETSIM_SCHED=linear at construction
};

const Mode kDefaultMode{"default"};
const std::vector<Mode> kLayerOffModes = {
    {"tick+fastfwd", Engine::Tick, true, true, true, false},
    {"tick", Engine::Tick, false, true, true, false},
    {"no-core-batch", Engine::Event, true, false, true, false},
    {"no-lean-commit", Engine::Event, true, true, false, false},
    {"linear-sched", Engine::Event, true, true, true, true},
};

// ---------------------------------------------------------------------
// Spans (traced pass only; kept in memory, written out at the end)
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string label;
    unsigned depth;
    double startS;
    double durS;
    std::size_t thread;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void
    add(const std::string &name, const std::string &label, unsigned depth,
        Clock::time_point start, Clock::time_point end)
    {
        const std::size_t tid =
            std::hash<std::thread::id>{}(std::this_thread::get_id());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, label, depth,
                              secondsBetween(origin_, start),
                              secondsBetween(start, end), tid});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// One run, driven from outside
// ---------------------------------------------------------------------

/** Everything one run yields: its result, host times and the layer
 *  counters the traced pass reports. */
struct RunSample
{
    bool ok = false;     ///< the run produced a result
    std::string failure; ///< why the run counts as failed; empty if not
    RunResult result;
    std::uint64_t retired = 0;       ///< Core::retired(), all cores
    std::uint64_t windowRetired = 0; ///< Core::retiredInWindow()
    double ctorS = 0;                ///< System construction (host)
    double simS = 0;                 ///< runSimulation (host)
    std::uint64_t tickCalls = 0, skippedTicks = 0;
    std::uint64_t coreEvents = 0, hierEvents = 0, backendEvents = 0;
    std::uint64_t replayTicks = 0;
    std::string profile; ///< System::profileJson(), when profiling
    std::vector<std::string> problems; ///< failed property checks
};

/** Number stored under "key" in a flat one-line JSON object. */
double
jsonField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = json.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/** Properties every run must have, whatever the seed or mode. */
void
checkResult(const Run &run, const RunConfig &rc, const RunResult &r,
            std::vector<std::string> &problems)
{
    auto fail = [&](const std::string &what) {
        problems.push_back(runLabel(run) + ": " + what);
    };
    if (r.perCoreIpc.size() != run.activeCores)
        fail("per-core IPC count differs from the active cores");
    for (double ipc : r.perCoreIpc)
        if (!(ipc > 0.0) || ipc > kIssueWidth)
            fail("per-core IPC " + std::to_string(ipc) +
                 " outside (0, issue width]");
    if (!(r.busUtilization >= 0.0 && r.busUtilization <= 1.0))
        fail("bus utilisation outside [0, 1]");
    // The upper bound of 1 is checked on the probe only (fastServedFault).
    if (!(r.servedByFastFraction >= 0.0))
        fail("fast-served fraction " +
             std::to_string(r.servedByFastFraction) + " below 0");
    if (r.demandReads < rc.measureReads || r.windowTicks >= rc.maxMeasureTicks)
        fail("measurement window hit the tick cap before its read quantum");
}

/** The probe's failure, or "" when its fast-served fraction lies in
 *  [0, 1]. */
std::string
fastServedFault(const Run &run, const RunResult &r)
{
    if (!run.probe ||
        (r.servedByFastFraction >= 0.0 && r.servedByFastFraction <= 1.0))
        return "";
    return "fast-served fraction " + std::to_string(r.servedByFastFraction) +
           " outside [0, 1]";
}

RunSample
runOne(const Run &run, std::uint64_t seed, const RunConfig &rc,
       const Mode &mode, bool profiling, SpanLog *spans)
{
    RunSample s;
    const SystemParams params = paramsFor(run.mem, seedFor(run, seed));
    const auto &profile = workloads::suite::byName(run.bench);
    try {
        const auto t0 = Clock::now();
        System system(params, profile, run.activeCores);
        const auto t1 = Clock::now();
        system.setEngine(mode.engine);
        system.setFastForward(mode.fastForward);
        system.setCoreBatching(mode.coreBatch);
        system.setLeanCommit(mode.leanCommit);
        system.setProfiling(profiling);
        s.result = runSimulation(system, rc);
        const auto t2 = Clock::now();
        s.ctorS = secondsBetween(t0, t1);
        s.simS = secondsBetween(t1, t2);
        if (spans) {
            const std::string label = runLabel(run);
            spans->add("run", label, 1, t0, t2);
            spans->add("construct", label, 2, t0, t1);
            spans->add("simulate", label, 2, t1, t2);
        }
        for (unsigned c = 0; c < system.activeCores(); ++c) {
            s.retired += system.core(c).retired();
            s.windowRetired += system.core(c).retiredInWindow();
        }
        s.tickCalls = system.tickCalls();
        s.skippedTicks = system.skippedTicks();
        s.coreEvents = system.coreEvents();
        s.hierEvents = system.hierarchyEvents();
        s.backendEvents = system.backendEvents();
        s.replayTicks = system.coreReplayTicks();
        if (profiling)
            s.profile = system.profileJson();

        checkResult(run, rc, s.result, s.problems);
        if (system.windowStart() >= rc.maxWarmupTicks)
            s.problems.push_back(runLabel(run) +
                                 ": warmup hit the tick cap");
        double ipc = 0;
        for (unsigned c = 0; c < system.activeCores(); ++c)
            ipc += static_cast<double>(system.core(c).retiredInWindow()) /
                   static_cast<double>(s.result.windowTicks);
        if (std::fabs(ipc - s.result.aggIpc) >
            1e-12 * std::max(1.0, s.result.aggIpc))
            s.problems.push_back(runLabel(run) +
                                 ": aggregate IPC from retiredInWindow() "
                                 "differs from RunResult::aggIpc");
        if (s.retired < s.windowRetired)
            s.problems.push_back(runLabel(run) +
                                 ": retired() below retiredInWindow()");
        s.ok = true;
        s.failure = fastServedFault(run, s.result);
    } catch (const SimError &e) {
        s.failure = e.message;
    } catch (const std::exception &e) {
        s.failure = e.what();
    }
    return s;
}

/** Bit-exact rendering of every simulated statistic of a run. */
std::string
statDigest(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << r.aggIpc << ' ' << r.windowTicks << ' ' << r.seconds << ' '
       << r.demandReads << ' ' << r.writebacks << ' ' << r.dramPowerMw
       << ' ' << r.busUtilization << ' ' << r.latency.queueTicks << ' '
       << r.latency.serviceTicks << ' ' << r.latency.totalTicks << ' '
       << r.criticalWordLatencyTicks << ' ' << r.servedByFastFraction
       << ' ' << r.earlyWakeFraction << ' ' << r.fastLeadTicks << ' '
       << r.fastLeadP50 << ' ' << r.fastLeadP95 << ' ' << r.fastLeadP99
       << ' ' << r.earlyWakeLeadP50 << ' ' << r.earlyWakeLeadP95 << ' '
       << r.earlyWakeLeadP99 << ' ' << r.missLatencyP50 << ' '
       << r.missLatencyP95 << ' ' << r.missLatencyP99 << ' '
       << r.secondAccessGapTicks << ' ' << r.secondBeforeCompleteFraction
       << ' ' << r.mshrFullStalls << ' ' << r.rowHitRate << " |";
    for (double ipc : r.perCoreIpc)
        os << ' ' << ipc;
    os << " |";
    for (double f : r.criticalWordDist)
        os << ' ' << f;
    return os.str();
}

/** Instructions retired in a run's measurement window, recovered from
 *  its RunResult (per-core IPC × window ticks). */
std::uint64_t
windowInstructions(const RunResult &r)
{
    double total = 0;
    for (double ipc : r.perCoreIpc)
        total += std::round(ipc * static_cast<double>(r.windowTicks));
    return static_cast<std::uint64_t>(total);
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

/** One pass over a workload's runs. */
struct Sweep
{
    std::string name;
    unsigned jobs = 1;
    double wallS = 0;
    double cpuS = 0;
    std::vector<RunSample> samples; ///< in workload run order
    unsigned failed = 0;

    double
    simSeconds() const
    {
        double t = 0;
        for (const auto &s : samples)
            t += s.simS;
        return t;
    }
};

/** Scoped HETSIM_SCHED=linear; set and cleared only while no worker
 *  thread exists, so no getenv() races the update. */
class SchedEnv
{
  public:
    explicit SchedEnv(bool linear) : linear_(linear)
    {
        if (linear_)
            setenv("HETSIM_SCHED", "linear", 1);
    }
    ~SchedEnv()
    {
        if (linear_)
            unsetenv("HETSIM_SCHED");
    }

  private:
    bool linear_;
};

/** The workload's runs on a ThreadPool of @p jobs workers (inline when
 *  jobs == 1), each as System construction + runSimulation. */
Sweep
ownSweep(const Workload &w, std::uint64_t seed, unsigned jobs,
         const Mode &mode, bool profiling, SpanLog *spans)
{
    Sweep sw;
    sw.name = std::string(mode.name) + "@j" + std::to_string(jobs) +
              (profiling ? "+profile" : "");
    sw.jobs = jobs;
    sw.samples.resize(w.runs.size());
    SchedEnv sched(mode.linearSched);
    auto body = [&](std::size_t i) {
        const Run &run = w.runs[i];
        sw.samples[i] = runOne(run, seed,
                               runConfigFor(w, run),
                               mode, profiling, spans);
    };
    const double cpu0 = hostCpuSeconds();
    const auto t0 = Clock::now();
    if (jobs <= 1) {
        for (std::size_t i = 0; i < w.runs.size(); ++i)
            body(i);
    } else {
        ThreadPool pool(jobs);
        std::vector<std::future<void>> done;
        for (std::size_t i = 0; i < w.runs.size(); ++i)
            done.push_back(pool.submit([&body, i] { body(i); }));
        for (auto &f : done)
            f.get();
    }
    const auto t1 = Clock::now();
    sw.wallS = secondsBetween(t0, t1);
    sw.cpuS = hostCpuSeconds() - cpu0;
    if (spans)
        spans->add("sweep", sw.name, 0, t0, t1);
    for (const auto &s : sw.samples)
        sw.failed += s.failure.empty() ? 0 : 1;
    return sw;
}

/** The paper-sweep through ExperimentRunner::prefetchThroughput: the
 *  Fig. 6 entry point as the figure bench drives it. */
Sweep
runnerSweep(const Workload &w, std::uint64_t seed, unsigned jobs)
{
    Sweep sw;
    sw.name = "runner@j" + std::to_string(jobs);
    sw.jobs = jobs;
    const double cpu0 = hostCpuSeconds();
    const auto t0 = Clock::now();
    ExperimentRunner runner(jobs); // HETSIM_WORKLOADS = w.benches
    std::vector<SystemParams> configs;
    for (MemConfig m : kFig6Configs)
        configs.push_back(paramsFor(m, seed));
    const SystemParams base = paramsFor(MemConfig::BaselineDDR3, seed);
    runner.prefetchThroughput(configs, base);

    // A run that failed twice in the pool would be re-run by the
    // accessor; count it as failed instead.  Memo keys read
    // "<params>|<bench>|a<active cores>|r<reads>".
    auto failedTwice = [&runner](const Run &run) {
        const std::string tag = "|" + run.bench + "|a" +
                                std::to_string(run.activeCores) + "|";
        for (const auto &f : runner.failures())
            if (!f.recovered && f.config == toString(run.mem) &&
                f.key.find(tag) != std::string::npos)
                return true;
        return false;
    };
    for (const Run &run : w.runs) {
        RunSample s;
        if (run.probe) {
            s = runOne(run, seed, runConfigFor(w, run), kDefaultMode, false,
                       nullptr);
        } else if (failedTwice(run)) {
            s.failure = "failed in the runner's pool and on retry";
        } else {
            const SystemParams p = paramsFor(run.mem, seed);
            s.result = run.activeCores == 1 ? runner.aloneRun(p, run.bench)
                                            : runner.sharedRun(p, run.bench);
            checkResult(run, runConfigFor(w, run),
                        s.result, s.problems);
            s.ok = true;
        }
        sw.failed += s.failure.empty() ? 0 : 1;
        sw.samples.push_back(std::move(s));
    }
    const auto t1 = Clock::now();
    sw.wallS = secondsBetween(t0, t1);
    sw.cpuS = hostCpuSeconds() - cpu0;
    return sw;
}

// ---------------------------------------------------------------------
// Cross-run checks
// ---------------------------------------------------------------------

/** Simulated statistics of @p b must equal those of @p ref run by run. */
void
checkSameStats(const Workload &w, const Sweep &ref, const Sweep &b,
               std::vector<std::string> &problems)
{
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSample &x = ref.samples[i];
        const RunSample &y = b.samples[i];
        if (!x.ok || !y.ok)
            continue;
        if (statDigest(x.result) != statDigest(y.result))
            problems.push_back(runLabel(w.runs[i]) + ": statistics of '" +
                               b.name + "' differ from '" + ref.name + "'");
        if (x.retired && y.retired && x.retired != y.retired)
            problems.push_back(runLabel(w.runs[i]) +
                               ": Core::retired() of '" + b.name +
                               "' differs from '" + ref.name + "'");
    }
}

/** Fig. 6 suite means (normalised weighted throughput over DDR3). */
struct Fig6Means
{
    double rd = 0, rl = 0, dl = 0;
    std::map<std::string, double> rlByBench;
};

Fig6Means
fig6Means(const Workload &w, const Sweep &sw)
{
    std::map<std::string, const RunResult *> alone, base;
    std::map<std::pair<MemConfig, std::string>, const RunResult *> cfg;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const Run &r = w.runs[i];
        if (!sw.samples[i].ok || r.probe)
            continue;
        const RunResult *res = &sw.samples[i].result;
        if (r.activeCores == 1)
            alone[r.bench] = res;
        else if (r.mem == MemConfig::BaselineDDR3)
            base[r.bench] = res;
        else
            cfg[{r.mem, r.bench}] = res;
    }
    std::map<MemConfig, std::vector<double>> norm;
    Fig6Means m;
    for (const auto &b : w.benches) {
        if (!alone.count(b) || !base.count(b))
            continue;
        const double a = alone[b]->perCoreIpc.front();
        const double wtBase = weightedThroughput(base[b]->perCoreIpc, a);
        for (MemConfig c : kFig6Configs) {
            const auto it = cfg.find({c, b});
            if (it == cfg.end())
                continue;
            const double v =
                weightedThroughput(it->second->perCoreIpc, a) / wtBase;
            norm[c].push_back(v);
            if (c == MemConfig::CwfRL)
                m.rlByBench[b] = v;
        }
    }
    m.rd = mean(norm[MemConfig::CwfRD]);
    m.rl = mean(norm[MemConfig::CwfRL]);
    m.dl = mean(norm[MemConfig::CwfDL]);
    return m;
}

Fig6Means
checkFig6(const Workload &w, const Sweep &sw,
          std::vector<std::string> &problems)
{
    const Fig6Means m = fig6Means(w, sw);
    if (!(m.rd > m.rl && m.rl > 1.0 && 1.0 > m.dl))
        problems.push_back("paper-sweep: means do not order RD > RL > 1 > "
                           "DL (RD " + std::to_string(m.rd) + ", RL " +
                           std::to_string(m.rl) + ", DL " +
                           std::to_string(m.dl) + ")");
    for (const auto &b : workloads::suite::word0Winners()) {
        const auto it = m.rlByBench.find(b);
        if (it != m.rlByBench.end() && !(it->second > 1.0))
            problems.push_back("paper-sweep: word-0 winner " + b +
                               " does not gain under RL (" +
                               std::to_string(it->second) + ")");
    }
    return m;
}

/** Failed checks and failed runs of a sweep.  A failed run is counted
 *  in `failed`; `correct` speaks of the runs that did not fail. */
void
collectProblems(const Workload &w, const Sweep &sw,
                std::vector<std::string> &problems,
                std::vector<std::string> &failures)
{
    for (std::size_t i = 0; i < sw.samples.size(); ++i) {
        const RunSample &s = sw.samples[i];
        for (const auto &p : s.problems)
            problems.push_back(sw.name + ": " + p);
        if (!s.failure.empty())
            failures.push_back(sw.name + ": " + runLabel(w.runs[i]) + ": " +
                               s.failure);
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** "metrics": {name: {"value", "unit"}, ...} */
void
writeMetrics(JsonWriter &j, const std::vector<Metric> &metrics)
{
    j.key("metrics").beginObject();
    for (const auto &m : metrics) {
        j.key(m.name).beginObject();
        j.key("value").value(m.value);
        j.key("unit").value(m.unit);
        j.endObject();
    }
    j.endObject();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string record;
    std::string buildType = HETSIM_BENCH_BUILD_TYPE;
    std::string gitRev = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hetsim_suite_bench: %s\nusage: hetsim_suite_bench "
                 "--workload <paper-sweep|dram-bound|compute-bound|"
                 "latency-bound> --seed <n> --seconds <s> --trace <0|1> "
                 "[--record <path>] [--git-rev <rev>] "
                 "[--source-digest <hex>]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--record") {
            o.record = v;
        } else if (a == "--git-rev") {
            o.gitRev = v;
        } else if (a == "--source-digest") {
            o.sourceDigest = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveWorkload ||
        std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                  o.workload) == kWorkloadNames.end())
        usage("--workload names none of the four workloads");
    return o;
}

/** Drop inherited HETSIM_* knobs so every mode is set explicitly, then
 *  fix the quantum (and, for the runner, the workload subset). */
void
resetEnvironment(const Workload &w)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("HETSIM_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const auto &n : names)
        unsetenv(n.c_str());
    setenv("HETSIM_READS", std::to_string(w.reads).c_str(), 1);
    std::string list;
    for (const auto &b : w.benches)
        list += (list.empty() ? "" : ",") + b;
    setenv("HETSIM_WORKLOADS", list.c_str(), 1);
}

/** Host time of everything before simulation starts, summed over the
 *  sweep: runner construction (paper-sweep) plus one System
 *  construction per run.  Each construction is repeated kSetupReps
 *  times and its median counts, so one host stall moves no term. */
double
setupSeconds(const Workload &w, std::uint64_t seed)
{
    auto medianOf = [](const auto &construct) {
        std::vector<double> t;
        for (unsigned i = 0; i < kSetupReps; ++i) {
            const auto t0 = Clock::now();
            const auto made = construct(); // destroyed after timing
            t.push_back(secondsBetween(t0, Clock::now()));
        }
        return median(t);
    };
    double total = 0;
    if (w.viaRunner)
        total += medianOf(
            [] { return std::make_unique<ExperimentRunner>(hostCpus()); });
    for (const Run &run : w.runs) {
        const SystemParams params = paramsFor(run.mem, seedFor(run, seed));
        const auto &profile = workloads::suite::byName(run.bench);
        total += medianOf([&] {
            return std::make_unique<System>(params, profile, run.activeCores);
        });
    }
    return total;
}

struct Outcome
{
    std::vector<Metric> metrics;
    std::vector<std::string> problems; ///< failed checks: correct = false
    std::vector<std::string> failures; ///< failed runs, counted in failed
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<Sweep> sweeps; ///< every sweep run, for the record
    Fig6Means fig6;            ///< paper-sweep only
    JsonWriter extra;          ///< pass-specific record fields
};

unsigned
workloadJobs(const Workload &w)
{
    return w.viaRunner ? hostCpus() : 1;
}

Sweep
untracedRound(const Workload &w, std::uint64_t seed)
{
    return w.viaRunner ? runnerSweep(w, seed, workloadJobs(w))
                       : ownSweep(w, seed, 1, kDefaultMode, false, nullptr);
}

void
untracedPass(const Workload &w, const Options &o, Outcome &out)
{
    // Set-up is timed once per round, outside the round's own timing, so
    // its median spans the whole run like the others'.
    std::vector<double> setup, wall, cpu, mips;
    std::vector<std::vector<double>> runS;
    const auto start = Clock::now();
    do {
        setup.push_back(setupSeconds(w, o.seed));
        Sweep sw = untracedRound(w, o.seed);
        runS.emplace_back();
        // Core::retired() where the run is System-driven; the runner
        // does not expose it, so its runs count window instructions.
        std::uint64_t instr = 0;
        for (const auto &s : sw.samples) {
            runS.back().push_back(s.ctorS + s.simS);
            if (s.ok)
                instr += s.retired ? s.retired : windowInstructions(s.result);
        }
        wall.push_back(sw.wallS);
        cpu.push_back(sw.cpuS);
        mips.push_back(static_cast<double>(instr) / 1e6 / sw.cpuS);
        out.attempted += static_cast<unsigned>(w.runs.size());
        out.failed += sw.failed;
        collectProblems(w, sw, out.problems, out.failures);
        if (!out.sweeps.empty())
            checkSameStats(w, out.sweeps.front(), sw, out.problems);
        else if (w.viaRunner)
            out.fig6 = checkFig6(w, sw, out.problems);
        // Keep the first round (the reference) and the latest.
        if (out.sweeps.size() < 2)
            out.sweeps.push_back(std::move(sw));
        else
            out.sweeps.back() = std::move(sw);
    } while (secondsBetween(start, Clock::now()) < o.seconds);

    out.metrics = {
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"sim_mips", median(mips), "MIPS"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setup), "s"},
    };
    out.extra.beginObject();
    out.extra.key("rounds").value(static_cast<unsigned>(wall.size()));
    auto series = [&](const char *k, const std::vector<double> &v) {
        out.extra.key(k).beginArray();
        for (double x : v)
            out.extra.value(x);
        out.extra.endArray();
    };
    series("wall_s", wall);
    series("cpu_s", cpu);
    series("sim_mips", mips);
    series("setup_s", setup);
    out.extra.key("run_s").beginArray();
    for (const auto &r : runS) {
        out.extra.beginArray();
        for (double x : r)
            out.extra.value(x);
        out.extra.endArray();
    }
    out.extra.endArray();
    out.extra.endObject();
}

void
tracedPass(const Workload &w, const Options &o, Outcome &out,
           SpanLog &spans)
{
    const unsigned jobs = workloadJobs(w);
    const unsigned nproc = hostCpus();
    auto keep = [&](Sweep sw) -> const Sweep & {
        out.attempted += static_cast<unsigned>(w.runs.size());
        out.failed += sw.failed;
        collectProblems(w, sw, out.problems, out.failures);
        // Against the untraced reference and, for Core::retired(),
        // the first System-driven sweep (the runner does not expose it).
        if (!out.sweeps.empty())
            checkSameStats(w, out.sweeps.front(), sw, out.problems);
        if (out.sweeps.size() > 1 && w.viaRunner)
            checkSameStats(w, out.sweeps[1], sw, out.problems);
        out.sweeps.push_back(std::move(sw));
        return out.sweeps.back();
    };

    // Untraced reference, exactly as --trace 0 runs one round.
    const Sweep &plain = keep(untracedRound(w, o.seed));
    if (w.viaRunner)
        out.fig6 = checkFig6(w, plain, out.problems);
    const double plainWall = plain.wallS;

    // Traced: spans around every call, self-profiler on.
    const Sweep &traced =
        keep(ownSweep(w, o.seed, jobs, kDefaultMode, true, &spans));
    const double tracedWall = traced.wallS;
    const std::size_t tracedIdx = out.sweeps.size() - 1;

    // One layer off at a time against the default, on the same runs.
    // A default sweep runs before, between and after the layer-off
    // sweeps.  Each layer-off sweep is compared with the mean of its two
    // neighbours, so slow host drift affects both sides alike, and the
    // largest change between consecutive defaults is the noise a gain
    // has to exceed before it says anything.
    std::vector<double> defaults;
    double baseWall = 0;
    auto runDefault = [&] {
        const Sweep &d =
            keep(ownSweep(w, o.seed, jobs, kDefaultMode, false, nullptr));
        if (defaults.empty())
            baseWall = d.wallS;
        defaults.push_back(d.simSeconds());
    };
    runDefault();
    std::map<std::string, double> simS, gain;
    for (const Mode &m : kLayerOffModes) {
        simS[m.name] = keep(ownSweep(w, o.seed, jobs, m, false, nullptr))
                           .simSeconds();
        runDefault();
        gain[m.name] =
            simS[m.name] - 0.5 * (defaults.rbegin()[1] + defaults.back());
    }
    simS["default"] = sum(defaults) / static_cast<double>(defaults.size());
    double gainNoise = 0;
    for (std::size_t i = 1; i < defaults.size(); ++i)
        gainNoise = std::max(gainNoise, std::fabs(defaults[i] - defaults[i - 1]));

    // Pool scaling in one engine: the same runs at jobs = 1 and nproc;
    // the first default sweep above is one of the two.
    const unsigned otherJobs = jobs == 1 ? nproc : 1;
    const double otherWall =
        keep(ownSweep(w, o.seed, otherJobs, kDefaultMode, false, nullptr))
            .wallS;
    const double wallJ1 = jobs == 1 ? baseWall : otherWall;
    const double wallJn = jobs == 1 ? otherWall : baseWall;

    // Per-layer numbers of the traced sweep (looked up again: later
    // keep() calls may have reallocated out.sweeps).
    const Sweep *t = &out.sweeps[tracedIdx];
    std::vector<double> runS, ctorMs;
    double cores = 0, hier = 0, backend = 0, profiledSim = 0;
    double rowHit = 0, busUtil = 0, fastFrac = 0;
    std::uint64_t coreEv = 0, hierEv = 0, backendEv = 0, ticks = 0,
                  skipped = 0, replay = 0, leanCommits = 0,
                  leanFallbacks = 0, mshrStalls = 0, retired = 0;
    unsigned okRuns = 0;
    for (const auto &s : t->samples) {
        if (!s.ok)
            continue;
        ++okRuns;
        runS.push_back(s.ctorS + s.simS);
        ctorMs.push_back(1e3 * s.ctorS);
        profiledSim += s.simS;
        cores += jsonField(s.profile, "cores_ms");
        hier += jsonField(s.profile, "hierarchy_ms");
        backend += jsonField(s.profile, "backend_ms");
        leanCommits += static_cast<std::uint64_t>(
            jsonField(s.profile, "lean_commits"));
        leanFallbacks += static_cast<std::uint64_t>(
            jsonField(s.profile, "lean_fallbacks"));
        coreEv += s.coreEvents;
        hierEv += s.hierEvents;
        backendEv += s.backendEvents;
        ticks += s.tickCalls;
        skipped += s.skippedTicks;
        replay += s.replayTicks;
        retired += s.retired;
        mshrStalls += s.result.mshrFullStalls;
        rowHit += s.result.rowHitRate;
        busUtil += s.result.busUtilization;
        fastFrac += s.result.servedByFastFraction;
    }
    const double n = std::max(1u, okRuns);
    const std::uint64_t events = coreEv + hierEv + backendEv;
    const double traceOverhead = tracedWall / plainWall - 1.0;

    out.metrics = {
        {"experiments.run_p50_s", median(runS), "s"},
        {"experiments.run_max_s",
         runS.empty() ? 0.0 : *std::max_element(runS.begin(), runS.end()),
         "s"},
        {"experiments.pool_efficiency",
         sum(runS) / (tracedWall * static_cast<double>(jobs)), "ratio"},
        {"experiments.pool_speedup", wallJ1 / wallJn, "x"},
        {"system.ctor_ms", sum(ctorMs) / n, "ms"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.ns_per_event",
         1e9 * simS["default"] / static_cast<double>(std::max<std::uint64_t>(
                                     events, 1)),
         "ns"},
        {"sim.skipped_tick_frac",
         static_cast<double>(skipped) /
             static_cast<double>(std::max<std::uint64_t>(ticks + skipped, 1)),
         "ratio"},
        {"sim.engine_gain_s", gain["tick+fastfwd"], "s"},
        {"sim.fastfwd_gain_s", gain["tick"] - gain["tick+fastfwd"], "s"},
        {"cpu.core_events", static_cast<double>(coreEv), "count"},
        {"cpu.replay_ticks", static_cast<double>(replay), "count"},
        {"cpu.lean_commits", static_cast<double>(leanCommits), "count"},
        {"cpu.lean_fallbacks", static_cast<double>(leanFallbacks), "count"},
        {"cpu.batch_gain_s", gain["no-core-batch"], "s"},
        {"cpu.lean_gain_s", gain["no-lean-commit"], "s"},
        {"cpu.retired_minstr", static_cast<double>(retired) / 1e6, "Minstr"},
        {"profile.cores_ms", cores, "ms"},
        {"cache.hierarchy_events", static_cast<double>(hierEv), "count"},
        {"cache.mshr_full_stalls", static_cast<double>(mshrStalls), "count"},
        {"profile.hierarchy_ms", hier, "ms"},
        {"dram.backend_events", static_cast<double>(backendEv), "count"},
        {"dram.sched_gain_s", gain["linear-sched"], "s"},
        {"dram.row_hit_rate", rowHit / n, "ratio"},
        {"dram.bus_utilization", busUtil / n, "ratio"},
        {"cwf.served_by_fast_frac", fastFrac / n, "ratio"},
        {"profile.backend_ms", backend, "ms"},
        {"profile.unattributed_ms",
         1e3 * profiledSim - (cores + hier + backend), "ms"},
        {"bench.trace_overhead_frac", traceOverhead, "ratio"},
        {"bench.gain_noise_s", gainNoise, "s"},
    };

    out.extra.beginObject();
    out.extra.key("tracing_overhead").beginObject();
    out.extra.key("untraced_wall_s").value(plainWall);
    out.extra.key("traced_wall_s").value(tracedWall);
    out.extra.key("overhead_frac").value(traceOverhead);
    out.extra.endObject();
    out.extra.key("mode_sim_s").beginObject();
    for (const auto &[k, v] : simS)
        out.extra.key(k).value(v);
    out.extra.endObject();
    out.extra.key("default_sim_s").beginArray();
    for (double d : defaults)
        out.extra.value(d);
    out.extra.endArray();
    out.extra.key("gain_noise_s").value(gainNoise);
    out.extra.key("pool").beginObject();
    out.extra.key("jobs1_wall_s").value(wallJ1);
    out.extra.key("jobsN_wall_s").value(wallJn);
    out.extra.key("nproc").value(nproc);
    out.extra.endObject();
    out.extra.key("spans").beginArray();
    for (const auto &s : spans.spans()) {
        out.extra.beginObject();
        out.extra.key("name").value(s.name);
        out.extra.key("label").value(s.label);
        out.extra.key("depth").value(s.depth);
        out.extra.key("start_s").value(s.startS);
        out.extra.key("dur_s").value(s.durS);
        out.extra.key("thread").value(static_cast<std::uint64_t>(s.thread));
        out.extra.endObject();
    }
    out.extra.endArray();
    out.extra.key("profiles").beginArray();
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        out.extra.beginObject();
        out.extra.key("run").value(runLabel(w.runs[i]));
        out.extra.key("self_profile").value(t->samples[i].profile);
        out.extra.endObject();
    }
    out.extra.endArray();
    out.extra.endObject();
}

std::string
recordJson(const Workload &w, const Options &o, const Outcome &out,
           bool correct)
{
    JsonWriter j;
    j.beginObject();
    j.key("benchmark").value("hetsim suite benchmark");
    j.key("workload").value(w.name);
    j.key("pass").value(o.trace ? "traced" : "untraced");
    j.key("seed").value(o.seed);
    j.key("seconds").value(o.seconds);
    j.key("host").beginObject();
    j.key("nproc").value(hostCpus());
    j.key("build_type").value(o.buildType);
    j.key("compiler").value(__VERSION__);
    j.endObject();
    j.key("git_rev").value(o.gitRev);
    j.key("source_digest").value(o.sourceDigest);
    j.key("quantum_reads").value(w.reads);
    j.key("jobs").value(workloadJobs(w));
    j.key("runs").beginArray();
    for (const Run &r : w.runs) {
        const RunConfig rc = runConfigFor(w, r);
        j.beginObject();
        j.key("run").value(runLabel(r));
        j.key("seed").value(seedFor(r, o.seed));
        j.key("measure_reads").value(rc.measureReads);
        j.key("warmup_reads").value(rc.warmupReads);
        j.key("max_warmup_ticks").value(rc.maxWarmupTicks);
        j.key("max_measure_ticks").value(rc.maxMeasureTicks);
        j.endObject();
    }
    j.endArray();
    j.key("sweeps").beginArray();
    for (const auto &sw : out.sweeps) {
        j.beginObject();
        j.key("name").value(sw.name);
        j.key("jobs").value(sw.jobs);
        j.key("wall_s").value(sw.wallS);
        j.key("cpu_s").value(sw.cpuS);
        j.key("sim_s").value(sw.simSeconds());
        j.key("failed").value(sw.failed);
        j.key("runs").beginArray();
        for (const auto &smp : sw.samples) {
            j.beginObject();
            j.key("agg_ipc").value(smp.result.aggIpc);
            j.key("window_ticks").value(
                static_cast<std::uint64_t>(smp.result.windowTicks));
            j.key("demand_reads").value(smp.result.demandReads);
            j.key("ctor_s").value(smp.ctorS);
            j.key("sim_s").value(smp.simS);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    if (w.viaRunner) {
        // Model error against the paper's Fig. 6 suite means.
        j.key("fig6_means").beginObject();
        j.key("RD").value(out.fig6.rd);
        j.key("RL").value(out.fig6.rl);
        j.key("DL").value(out.fig6.dl);
        j.key("paper_RD").value(1.21);
        j.key("paper_RL").value(1.129);
        j.key("paper_DL").value(0.91);
        j.key("RL_by_bench").beginObject();
        for (const auto &[b, v] : out.fig6.rlByBench)
            j.key(b).value(v);
        j.endObject();
        j.endObject();
    }
    j.key("correct").value(correct);
    j.key("attempted").value(out.attempted);
    j.key("failed").value(out.failed);
    j.key("problems").beginArray();
    for (const auto &p : out.problems)
        j.value(p);
    j.endArray();
    j.key("failures").beginArray();
    for (const auto &f : out.failures)
        j.value(f);
    j.endArray();
    writeMetrics(j, out.metrics);
    j.endObject();
    std::string doc = j.str();
    // Splice the pass-specific fields in as "detail".
    doc.pop_back();
    doc += ",\"detail\":" + out.extra.str() + "}";
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload w = makeWorkload(opt.workload);
    resetEnvironment(w);
    setLogThrowOnError(true);

    Outcome out;
    SpanLog spans(Clock::now());
    if (opt.trace)
        tracedPass(w, opt, out, spans);
    else
        untracedPass(w, opt, out);

    const bool correct = out.problems.empty();
    for (const auto &p : out.problems)
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    for (const auto &f : out.failures)
        std::fprintf(stderr, "run failed: %s\n", f.c_str());
    const std::string record = recordJson(w, opt, out, correct);
    if (!opt.record.empty()) {
        std::ofstream f(opt.record);
        f << record << "\n";
        if (!f) {
            std::fprintf(stderr, "cannot write record '%s'\n",
                         opt.record.c_str());
            return 1;
        }
    }

    std::printf("workload %s (%s pass), seed %" PRIu64 ", %u runs/round, "
                "jobs %u of nproc %u\n",
                w.name.c_str(), opt.trace ? "traced" : "untraced",
                opt.seed, static_cast<unsigned>(w.runs.size()),
                workloadJobs(w), hostCpus());
    for (const auto &m : out.metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (w.viaRunner)
        std::printf("  Fig. 6 means over DDR3 (simulated): RD %.4f, RL %.4f, "
                    "DL %.4f; paper 1.21, 1.129, 0.91\n",
                    out.fig6.rd, out.fig6.rl, out.fig6.dl);

    JsonWriter j;
    j.beginObject();
    j.key("correct").value(correct);
    j.key("attempted").value(out.attempted);
    j.key("failed").value(out.failed);
    writeMetrics(j, out.metrics);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
