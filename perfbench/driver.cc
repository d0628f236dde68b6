/**
 * @file
 * Steady benchmark driver for the Janus simulator.
 *
 * Runs one named workload -- a fixed set of experiments -- again and
 * again for a fixed host time, checks every output, and prints the
 * end-to-end metrics: host-time medians over the repeats, calibrated
 * against a fixed reference computation timed around every
 * experiment, plus the simulated results, which are deterministic
 * for a fixed seed. With
 * --trace=1 it prints per-layer metrics instead, taken from spans
 * the driver records around its own calls into each module's public
 * functions (nothing inside src/ is instrumented) and from replaying
 * the run's durable-write journal through the memory, crypto and BMO
 * layers one call at a time.
 *
 *   janus_perfbench --workload=W [--seed=N] [--seconds=S]
 *                   [--trace=0|1] [--smoke] [--spans-out=PATH]
 *                   [--git-describe=TEXT] [--inject-failure]
 *
 * Workloads (perfbench/README.md says why each was chosen):
 *   fig9_c8           7 Table-4 kernels, 8 cores, 1 channel, Janus +
 *                     manual PRE_*, closed loop
 *   sharded_s4        the same on 4 channels (RegionAffine), timed
 *                     on 1 shard-scheduler thread with thread-safe
 *                     memory, checked against 4 threads
 *   tenants_openloop  tenant_mix, 8 cores, open-loop Poisson, QoS
 *                     shaped, group commit K=8, no PRE_*
 *
 * Output: a run manifest, one "metric <name> <value> <unit>" line per
 * metric, the workload's model_digest, and as the last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. An attempt is
 * one experiment of one repeat; it fails when an output check does.
 * The exit status is 1 when any check failed.
 */

#include "bench_common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <unordered_map>

#include "bmo/backend_state.hh"
#include "bmo/bmo_engine.hh"
#include "bmo/merkle_tree.hh"
#include "crypto/aes128.hh"
#include "crypto/crc32.hh"
#include "crypto/md5.hh"
#include "crypto/sha1.hh"
#include "txn/undo_log.hh"
#include "workloads/tenant_mix.hh"

namespace
{

using namespace janus;
using namespace janus::bench;
using Clock = std::chrono::steady_clock;

/**
 * Offered load of tenants_openloop, requests/us/core: the closed-loop
 * saturation rate bench/interference calibrated for tenant_mix on 8
 * cores. Fixed on purpose, so a model change moves latency and shed
 * counts, not the load point.
 */
constexpr double tenantRatePerUsPerCore = 2.1136;

/** Scheduler threads of the sharded machine's thread-invariance
 *  check (untimed): its results must equal the 1-thread timed run. */
constexpr unsigned checkShardThreads = 4;

/** Full-length and --smoke sizes of each workload. */
constexpr unsigned kernelTxnsPerCore = 250;
constexpr unsigned smokeTxnsPerCore = 12;
constexpr unsigned tenantRequestsPerCore = 9000;
constexpr unsigned smokeRequestsPerCore = 150;

/** --inject-failure: corrupt experiment 0's memory before validation,
 *  so the self-test can see a failing output check end the run
 *  non-zero. */
bool injectFailure = false;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- spans ------------------------------------------------------------

/**
 * Host-time spans of the traced run, kept in memory and written once
 * at exit as Chrome trace-event JSON (the TRACE_*.json format; loads
 * in Perfetto). Each span records its name, start, end, the span
 * open around it (parent) and the experiment it belongs to.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    std::size_t
    open(const std::string &name, long experiment, Clock::time_point at)
    {
        const long parent =
            stack_.empty() ? -1 : static_cast<long>(stack_.back());
        spans_.push_back({name, usOf(at), usOf(at), parent, experiment});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t id, Clock::time_point at)
    {
        spans_.at(id).endUs = usOf(at);
        stack_.pop_back();
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\": \"ns\", "
                        "\"traceEvents\": [\n"
                        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
                        "\"name\": \"thread_name\", \"args\": "
                        "{\"name\": \"perfbench\"}}");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         ",\n{\"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"name\": "
                         "\"%s\", \"args\": {\"id\": %zu, "
                         "\"parent\": %ld, \"experiment\": %ld}}",
                         s.startUs, s.endUs - s.startUs, s.name.c_str(),
                         i, s.parent, s.experiment);
        }
        std::fprintf(f, "\n], \"otherData\": {\"spans\": %zu}}\n",
                     spans_.size());
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        double startUs, endUs;
        long parent;
        long experiment;
    };

    double
    usOf(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Run @p fn; record it as a span when @p log is set.
 *  @return its host seconds. */
template <class Fn>
double
timed(SpanLog *log, const std::string &name, long experiment, Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t id = log ? log->open(name, experiment, t0) : 0;
    fn();
    const Clock::time_point t1 = Clock::now();
    if (log)
        log->close(id, t1);
    return std::chrono::duration<double>(t1 - t0).count();
}

// --- journal replay (mem / crypto / bmo host cost per call) ----------

enum ReplayLayer : std::size_t
{
    MemWrite,
    MemRead,
    MemWriteTs,
    AesOtp,
    Sha1Line,
    Md5Line,
    Crc32Line,
    BackendWrite,
    BackendRead,
    MerkleUpdate,
    EngineExecute,
    numReplayLayers
};

constexpr std::array<const char *, numReplayLayers> replayMetric = {
    "mem.write_line_ns",         "mem.read_line_ns",
    "mem.write_line_ts_ns",      "crypto.aes_otp_ns",
    "crypto.sha1_line_ns",       "crypto.md5_line_ns",
    "crypto.crc32_line_ns",      "bmo.backend.write_line_ns",
    "bmo.backend.read_line_ns",  "bmo.merkle.update_ns",
    "bmo.engine.execute_ns"};

struct ReplayCost
{
    double seconds = 0;
    std::uint64_t calls = 0;
};
using ReplayCosts = std::array<ReplayCost, numReplayLayers>;

/** Every replayed call's result folds into this, so none is elided. */
volatile std::uint64_t replaySink = 0;

/**
 * Replay the journaled (lineAddr, data) stream of every channel
 * through each layer's public entry points, one call per durable
 * write, and charge the host time to that layer.
 */
void
replayJournal(NvmSystem &system, SpanLog *log, long exp,
              ReplayCosts &costs)
{
    std::vector<const JournalEntry *> all;
    for (unsigned s = 0; s < system.numShards(); ++s)
        for (const JournalEntry &e : system.mc(s).journal())
            all.push_back(&e);
    std::uint64_t sink = 0;
    auto charge = [&](ReplayLayer layer, std::size_t calls, auto &&fn) {
        costs[layer].seconds += timed(
            log, std::string("replay.") + replayMetric[layer], exp, fn);
        costs[layer].calls += calls;
    };

    SparseMemory mem;
    charge(MemWrite, all.size(), [&] {
        for (const JournalEntry *e : all)
            mem.writeLine(e->lineAddr, e->data);
    });
    charge(MemRead, all.size(), [&] {
        for (const JournalEntry *e : all)
            sink += mem.readLine(e->lineAddr).word(0);
    });
    SparseMemory shared;
    shared.setThreadSafe(true);
    charge(MemWriteTs, all.size(), [&] {
        for (const JournalEntry *e : all)
            shared.writeLine(e->lineAddr, e->data);
    });

    const Aes128 aes(BmoBackendState::defaultKey());
    charge(AesOtp, all.size(), [&] {
        std::uint64_t counter = 0;
        for (const JournalEntry *e : all)
            sink += aes.otp(++counter, e->lineAddr).word(0);
    });
    charge(Sha1Line, all.size(), [&] {
        for (const JournalEntry *e : all)
            sink += Sha1::hash(e->data.data(), lineBytes).prefix64();
    });
    charge(Md5Line, all.size(), [&] {
        for (const JournalEntry *e : all)
            sink += Md5::hash(e->data.data(), lineBytes).prefix64();
    });
    charge(Crc32Line, all.size(), [&] {
        for (const JournalEntry *e : all)
            sink += crc32(e->data.data(), lineBytes);
    });

    // The BMO layers replay each channel's own stream against a fresh
    // instance built from that channel's configuration.
    for (unsigned s = 0; s < system.numShards(); ++s) {
        MemoryController &mc = system.mc(s);
        const std::vector<JournalEntry> &journal = mc.journal();
        const BmoConfig &cfg = mc.backend().config();
        BmoBackendState backend(cfg);
        charge(BackendWrite, journal.size(), [&] {
            for (const JournalEntry &e : journal)
                sink += backend.writeLine(e.lineAddr, e.data).duplicate;
        });
        charge(BackendRead, journal.size(), [&] {
            for (const JournalEntry &e : journal)
                sink += backend.readLine(e.lineAddr).data.word(0);
        });
        // The root is read once per persist epoch, amortising the
        // lazy flush over merkleEpochWrites updates.
        MerkleTree tree(cfg.merkleLevels, 16);
        tree.setNodeCacheCapacity(
            cfg.streamlinedIntegrity ? cfg.merkleCacheNodes : 0);
        const std::size_t flushEvery =
            std::max<std::size_t>(1, cfg.merkleEpochWrites);
        charge(MerkleUpdate, journal.size(), [&] {
            std::size_t n = 0;
            for (const JournalEntry &e : journal) {
                tree.update(mc.backend().merkleLeafOf(e.lineAddr),
                            e.data.data());
                if (++n % flushEvery == 0)
                    sink += tree.root().prefix64();
            }
            sink += tree.root().prefix64();
        });
        // The engine needs nondecreasing ready ticks.
        std::vector<Tick> accepted;
        for (const JournalEntry &e : journal)
            accepted.push_back(e.accepted);
        std::sort(accepted.begin(), accepted.end());
        BmoEngine engine(mc.graph(), mc.engine().units());
        charge(EngineExecute, accepted.size(), [&] {
            for (Tick t : accepted) {
                BmoExecState state(mc.graph());
                sink += engine.execute(state, ExternalInput::Both, t,
                                       BmoExecMode::Parallel);
            }
        });
    }
    replaySink = sink;
}

// --- one experiment, phase by phase ----------------------------------

/** Simulated channel counters runExperiment does not harvest. */
struct ChannelCounts
{
    std::uint64_t irbHits = 0;
    std::uint64_t irbMisses = 0;
    std::uint64_t fullyPreExecuted = 0;
    std::uint64_t writes = 0;
    std::uint64_t gcBatches = 0;
    std::uint64_t gcWritesDeferred = 0;
    std::uint64_t backendWrites = 0;
    std::uint64_t backendDups = 0;
    /** Sum over channels of (time-average queue depth x makespan). */
    double queueDepthTicks = 0;
    /** Sum over channels of the makespan. */
    double channelTicks = 0;
};

/** One experiment of one repeat. */
struct ExpRun
{
    /** Simulated outputs, in the fields runExperiment reports them. */
    ExperimentResult result;
    /** Persist latencies of every channel (mergedBreakdown). */
    Histogram persistNs = Histogram(0, 4000, 200);
    ChannelCounts channels;
    double buildS = 0, systemS = 0, runS = 0, validateS = 0;
    double harvestS = 0, teardownS = 0, wallS = 0;
    /** Requests or transactions offered, and those not served
     *  (shed, rejected, or on a core that failed validation). */
    std::uint64_t offered = 0;
    std::uint64_t unserved = 0;
    std::vector<std::string> failures;
};

/**
 * runExperiment's steps (harness/experiment.cc), each timed on its
 * own: build the module, assemble the system and set up the cores,
 * run the event loop, validate, harvest. With @p replay set the run
 * journals every durable write and replays it afterwards.
 */
ExpRun
runPhased(const ExperimentConfig &config, const std::string &label,
          SpanLog *log, long exp, ReplayCosts *replay)
{
    janus_assert(config.instr != Instrumentation::Auto,
                 "the phased replica does not run the auto pass");
    ExpRun out;
    const Clock::time_point wall0 = Clock::now();
    const std::size_t span =
        log ? log->open("experiment." + label, exp, wall0) : 0;

    Module module;
    std::unique_ptr<Workload> workload;
    out.buildS = timed(log, "harness.build_module", exp, [&] {
        workload = makeWorkload(config.workloadName, config.workload);
        buildTxnLibrary(module);
        workload->buildKernels(module,
                               config.instr == Instrumentation::Manual);
        verify(module);
    });

    std::unique_ptr<NvmSystem> system;
    std::unique_ptr<OpenLoopDriver> driver;
    std::vector<TxnSource> sources;
    out.systemS = timed(log, "harness.system_build", exp, [&] {
        system = std::make_unique<NvmSystem>(config.sys, module);
        if (replay)
            for (unsigned s = 0; s < system->numShards(); ++s)
                system->mc(s).enableJournal();
        if (config.openLoop.enabled)
            driver = std::make_unique<OpenLoopDriver>(
                config.openLoop, config.sys.qos, config.sys.cores,
                config.workload.seed);
        for (unsigned c = 0; c < config.sys.cores; ++c) {
            workload->setupCore(c, *system);
            if (driver) {
                driver->attach(c, &system->mc(system->shardOfCore(c)),
                               workload->source(c, *system));
                system->core(c).setOpenLoopFeed(driver.get());
                sources.emplace_back();
            } else {
                sources.push_back(workload->source(c, *system));
            }
        }
    });

    // A sharded machine on one scheduler thread still takes the
    // memory's striped locks, as every multi-threaded run does.
    const bool lock_memory = system->numShards() > 1;
    if (lock_memory)
        system->mem().setThreadSafe(true);
    ExperimentResult &r = out.result;
    out.runS = timed(log, "harness.run", exp, [&] {
        r.makespan = system->run(std::move(sources));
    });
    if (lock_memory)
        system->mem().setThreadSafe(false);

    if (injectFailure && exp == 0)
        for (Addr a = config.sys.heapBase;
             a < system->allocator().watermark(); a += lineBytes)
            system->mem().writeWord(a, ~system->mem().readWord(a));

    // Output check 1: every closed-loop kernel validates.
    out.validateS = timed(log, "harness.validate", exp, [&] {
        if (config.openLoop.enabled)
            return;
        for (unsigned c = 0; c < config.sys.cores; ++c) {
            ScopedPanicCapture capture;
            try {
                workload->validate(system->mem(), c);
            } catch (const PanicError &e) {
                out.failures.push_back(label + ": " + e.what());
                out.unserved += config.workload.txnsPerCore;
            }
        }
    });

    out.harvestS = timed(log, "harness.harvest", exp, [&] {
        const PersistBreakdown bd = system->mergedBreakdown();
        out.persistNs = bd.totalHistNs;
        r.persistP50Ns = bd.totalHistNs.quantile(0.50);
        r.persistP99Ns = bd.totalHistNs.quantile(0.99);
        r.persistP999Ns = bd.totalHistNs.quantile(0.999);
        r.treeCacheHits = system->treeCacheHits();
        r.treeCacheMisses = system->treeCacheMisses();
        r.merkleSavedRehashes = system->merkleSavedRehashes();
        for (unsigned c = 0; c < config.sys.cores; ++c) {
            TimingCore &core = system->core(c);
            r.instructions += core.instructions();
            r.transactions += core.transactions();
            r.persists += core.persists();
            r.preRequests += core.preRequests();
            r.fenceStallTicks += core.fenceStallTicks();
        }
        r.eventsExecuted = system->eventsExecuted();
        r.schedulerRounds = system->schedulerRounds();
        r.crossShardMessages = system->crossShardMessages();
        r.critPath = system->mergedCritPath();
        if (driver)
            r.tenants = driver->harvest();

        ChannelCounts &ch = out.channels;
        for (unsigned s = 0; s < system->numShards(); ++s) {
            MemoryController &mc = system->mc(s);
            if (config.sys.mode == WritePathMode::Janus) {
                ch.irbHits += mc.frontend().irbHits();
                ch.irbMisses += mc.frontend().irbMisses();
            }
            ch.writes += mc.writes();
            ch.gcBatches += mc.gcBatches();
            ch.gcWritesDeferred += mc.gcWritesDeferred();
            ch.backendWrites += mc.backend().writes();
            ch.backendDups += mc.backend().dupWrites();
            ch.queueDepthTicks +=
                mc.device().queueDepthGauge().timeAverage(r.makespan) *
                static_cast<double>(r.makespan);
            ch.channelTicks += static_cast<double>(r.makespan);
        }
        ch.fullyPreExecuted = system->consumedFullyPreExecuted();
    });

    // Output check 2: every scheduled transaction ran, and the
    // per-tenant books balance.
    if (config.openLoop.enabled) {
        for (const OpenLoopTenantStats &t : r.tenants) {
            out.offered += t.offered;
            out.unserved += t.shed + t.rejected;
            if (t.offered != t.completed + t.shed + t.rejected)
                out.failures.push_back(strprintf(
                    "%s: tenant %s offered %llu != completed %llu + "
                    "shed %llu + rejected %llu",
                    label.c_str(), t.name.c_str(),
                    (unsigned long long)t.offered,
                    (unsigned long long)t.completed,
                    (unsigned long long)t.shed,
                    (unsigned long long)t.rejected));
        }
        const std::uint64_t scheduled =
            std::uint64_t(config.sys.cores) *
            config.openLoop.requestsPerCore;
        if (out.offered != scheduled)
            out.failures.push_back(strprintf(
                "%s: %llu requests offered, %llu scheduled",
                label.c_str(), (unsigned long long)out.offered,
                (unsigned long long)scheduled));
    } else {
        out.offered = std::uint64_t(config.sys.cores) *
                      config.workload.txnsPerCore;
        if (r.transactions != out.offered)
            out.failures.push_back(strprintf(
                "%s: %llu transactions ran, %llu scheduled",
                label.c_str(), (unsigned long long)r.transactions,
                (unsigned long long)out.offered));
    }
    // Output check 3: the critical path partitions every persist.
    const CritPathSummary &cp = r.critPath;
    std::uint64_t edge_sum = 0;
    for (std::uint64_t t : cp.edgeTicks)
        edge_sum += t;
    if (cp.persists == 0 || edge_sum != cp.totalTicks ||
        std::fabs(cp.shareSum() - 1.0) > 1e-9)
        out.failures.push_back(strprintf(
            "%s: critical path share_sum %.12f over %llu persists",
            label.c_str(), cp.shareSum(),
            (unsigned long long)cp.persists));

    if (replay)
        timed(log, "replay", exp,
              [&] { replayJournal(*system, log, exp, *replay); });

    out.teardownS = timed(log, "harness.teardown", exp, [&] {
        driver.reset();
        system.reset();
        workload.reset();
    });
    out.wallS = out.buildS + out.systemS + out.runS + out.validateS +
                out.harvestS + out.teardownS;
    if (log)
        log->close(span, Clock::now());
    return out;
}

// --- host-speed reference ---------------------------------------------

/**
 * Host seconds that calibrated times assume for one reference pass;
 * on the 4-vCPU Xeon VM of perfbench/README.md a pass took 17-28 ms.
 * It sets the scale only; a ratio between two commits does not
 * depend on it.
 */
constexpr double refNominalS = 0.020;

/**
 * A fixed computation timed around every experiment, so that
 * host times can be read at one host speed. A vCPU of a shared VM
 * changes speed by up to 1.7x for minutes at a time as other guests
 * come and go, and no statistic over one run removes that; the
 * reference, run on the same thread just before and after each
 * experiment, slows down with it. It mixes the kinds of work the
 * simulator's hot paths do -- integer hashing rounds, random reads
 * and writes over a table larger than the last-level cache, inserts
 * into a node-based hash map -- and calls nothing in src/, so no
 * change to the simulator moves it. The map's nodes come from an
 * arena of its own: through malloc, the pass would change the heap
 * that the next experiment's set-up allocates from.
 */
class HostReference
{
    static constexpr std::size_t tableWords = std::size_t(1) << 23;
    static constexpr std::size_t arenaBytes = std::size_t(8) << 20;

  public:
    /** Memory it keeps resident: the table and the arena. */
    static constexpr std::size_t residentBytes =
        tableWords * sizeof(std::uint64_t) + arenaBytes;

    /** Allocates and touches the 64 MiB table and the 8 MiB arena,
     *  outside any timing. */
    HostReference() : table_(tableWords, 0), arena_(arenaBytes) {}

    /** @return the host seconds of one pass. */
    double
    seconds()
    {
        const Clock::time_point t0 = Clock::now();
        std::pmr::monotonic_buffer_resource pool(
            arena_.data(), arena_.size(), std::pmr::null_memory_resource());
        std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
        std::uint64_t x = 88172645463325252ull, h = 0;
        for (long i = 0; i < 120000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for (int k = 0; k < 16; ++k) {
                h = (h ^ (x >> k)) * 0x100000001b3ull;
                h = (h << 5) | (h >> 59);
            }
            const std::size_t idx = (x ^ h) & (tableWords - 1);
            table_[idx] += h;
            map[x & 0xffff] += table_[(idx * 7) & (tableWords - 1)];
        }
        sink_ = sink_ + map.size() + h;
        return secondsSince(t0);
    }

  private:
    std::vector<std::uint64_t> table_;
    std::vector<std::byte> arena_;
    volatile std::uint64_t sink_ = 0;
};

// --- workloads ----------------------------------------------------------

struct Experiment
{
    std::string label;
    ExperimentConfig config;
};

/** tenant_mix open-loop configuration: bench/interference's shaped
 *  QoS policy and asymmetric load at the fixed rate above. */
ExperimentConfig
tenantConfig(std::uint64_t seed, unsigned requests)
{
    const unsigned cores = 8;
    RunSpec spec;
    spec.workload = "tenant_mix";
    spec.mode = WritePathMode::Janus;
    spec.instr = Instrumentation::None;
    spec.cores = cores;
    spec.txnsPerCore = requests;
    spec.seed = seed;
    spec.groupCommitK = 8;
    spec.openLoop.enabled = true;
    spec.openLoop.process = ArrivalProcess::Poisson;
    spec.openLoop.ratePerUsPerCore = tenantRatePerUsPerCore;
    spec.openLoop.requestsPerCore = requests;
    spec.openLoop.rateFactorOfCore.resize(cores);
    for (unsigned c = 0; c < cores; ++c) {
        const TenantRole role = tenantMixRole(c);
        const bool reader = role == TenantRole::RandomReader ||
                            role == TenantRole::SequentialReader;
        spec.openLoop.rateFactorOfCore[c] = reader ? 0.7 : 1.2;
    }
    // Writer classes capped at ~1.1x the line rate they offer at
    // saturation, as in bench/interference.
    QosConfig qos = tenantMixQos();
    const double sat_line_interval =
        static_cast<double>(ticks::us) /
        (tenantRatePerUsPerCore * (cores / 4.0));
    qos.tenants[3].shapeIntervalTicks =
        static_cast<Tick>(sat_line_interval / 1.1);
    qos.tenants[3].shapeBurstLines = 8;
    qos.tenants[3].deadlineTicks = 50 * ticks::us;
    qos.tenants[2].shapeIntervalTicks = static_cast<Tick>(
        sat_line_interval / (TenantMixWorkload::pageLines * 1.1));
    qos.tenants[2].shapeBurstLines = 4 * TenantMixWorkload::pageLines;
    qos.tenants[2].deadlineTicks = 100 * ticks::us;
    qos.admissionQueueEntries = 48;
    qos.retryBackoffTicks = 2 * ticks::us;
    qos.maxRetries = 6;
    qos.watchdogEnterPct = 90;
    qos.watchdogExitPct = 50;
    qos.watchdogDwellTicks = 20 * ticks::us;
    spec.qos = qos;
    return toConfig(spec);
}

/** The experiments of workload @p name, or empty if unknown. */
std::vector<Experiment>
workloadExperiments(const std::string &name, std::uint64_t seed,
                    bool smoke)
{
    std::vector<Experiment> exps;
    if (name == "fig9_c8" || name == "sharded_s4") {
        for (const std::string &kernel : allWorkloadNames()) {
            RunSpec spec;
            spec.workload = kernel;
            spec.mode = WritePathMode::Janus;
            spec.instr = Instrumentation::Manual;
            spec.cores = 8;
            spec.txnsPerCore =
                smoke ? smokeTxnsPerCore : kernelTxnsPerCore;
            spec.seed = seed;
            if (name == "sharded_s4") {
                // One scheduler thread: on a shared host the lockstep
                // rounds' wake-ups of a second thread made the timing
                // spread 0.39-0.49 between runs. The results equal a
                // checkShardThreads run, which the driver checks.
                spec.shards = 4;
                spec.shardThreads = 1;
                spec.shardPolicy = ShardRouterPolicy::RegionAffine;
            }
            exps.push_back({kernel, toConfig(spec)});
        }
    } else if (name == "tenants_openloop") {
        exps.push_back(
            {"tenant_mix",
             tenantConfig(seed, smoke ? smokeRequestsPerCore
                                      : tenantRequestsPerCore)});
    }
    return exps;
}

// --- repeats and their summaries ----------------------------------------

/** FNV-1a over the deterministic simulated fields of a result. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const ExperimentResult &r)
    {
        add(std::uint64_t(r.makespan));
        add(r.eventsExecuted);
        add(r.persists);
        add(r.transactions);
        add(r.instructions);
        add(r.persistP50Ns);
        add(r.persistP99Ns);
        add(r.persistP999Ns);
        add(r.critPath.persists);
        add(r.critPath.totalTicks);
        for (std::uint64_t t : r.critPath.edgeTicks)
            add(t);
        for (const OpenLoopTenantStats &t : r.tenants) {
            add(t.offered);
            add(t.completed);
            add(t.shed);
            add(t.rejected);
            add(t.p999Ns);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One pass over every experiment of the workload. */
struct Repeat
{
    std::vector<ExpRun> runs;
    std::uint64_t digest = 0;
    /** HostReference passes of an untraced repeat and their host
     *  seconds. */
    unsigned refPasses = 0;
    double refS = 0;

    double
    sum(double ExpRun::*field) const
    {
        double total = 0;
        for (const ExpRun &r : runs)
            total += r.*field;
        return total;
    }

    double runS() const { return sum(&ExpRun::runS); }
    double wallS() const { return sum(&ExpRun::wallS); }
    double setupS() const { return wallS() - runS(); }

    /** @p host_s of this repeat read at the reference speed: scaled
     *  by refNominalS per reference pass over the passes' time. */
    double
    calibrated(double host_s) const
    {
        return host_s * refNominalS * refPasses / refS;
    }
};

/** One repeat; with @p ref set, a reference pass is timed before
 *  each experiment and after the last, so one brackets each. */
Repeat
runRepeat(const std::vector<Experiment> &exps, SpanLog *log,
          long &next_exp, ReplayCosts *replay, HostReference *ref)
{
    Repeat rep;
    Digest digest;
    const std::size_t span =
        log ? log->open("repeat", -1, Clock::now()) : 0;
    auto time_reference = [&] {
        if (ref) {
            rep.refS += ref->seconds();
            ++rep.refPasses;
        }
    };
    for (const Experiment &e : exps) {
        time_reference();
        rep.runs.push_back(
            runPhased(e.config, e.label, log, next_exp++, replay));
        digest.add(rep.runs.back().result);
    }
    time_reference();
    if (log)
        log->close(span, Clock::now());
    rep.digest = digest.value();
    return rep;
}

/** The public harness entry point on every experiment. */
std::uint64_t
runPublicHarness(const std::vector<Experiment> &exps)
{
    Digest digest;
    for (const Experiment &e : exps)
        digest.add(runExperiment(e.config));
    return digest.value();
}

/** @p exps with every sharded machine at @p threads scheduler
 *  threads. */
std::vector<Experiment>
withShardThreads(std::vector<Experiment> exps, unsigned threads)
{
    for (Experiment &e : exps)
        if (e.config.sys.shards > 1)
            e.config.sys.shardThreads = threads;
    return exps;
}

/** Simulated totals of one repeat (identical across repeats). */
struct SimSummary
{
    std::uint64_t persists = 0;
    double makespanUs = 0;
    double p50Ns = 0, p99Ns = 0;
    double p0P999Ns = 0;
    std::uint64_t offered = 0, unserved = 0;
};

SimSummary
summarize(const Repeat &rep)
{
    SimSummary s;
    Histogram all(0, 4000, 200);
    for (const ExpRun &r : rep.runs) {
        all.merge(r.persistNs);
        s.persists += r.result.persists;
        s.makespanUs += ticks::toNsF(r.result.makespan) / 1e3;
        s.offered += r.offered;
        s.unserved += r.unserved;
        for (const OpenLoopTenantStats &t : r.result.tenants)
            if (t.priority == 0)
                s.p0P999Ns = std::max(s.p0P999Ns, t.p999Ns);
    }
    s.p50Ns = all.quantile(0.50);
    s.p99Ns = all.quantile(0.99);
    return s;
}

// --- output -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::vector<Metric>
endToEndMetrics(const std::vector<Repeat> &reps)
{
    const SimSummary sim = summarize(reps.front());
    std::uint64_t offered = 0, unserved = 0;
    std::vector<double> run, wall, setup;
    for (const Repeat &rep : reps) {
        const SimSummary s = summarize(rep);
        offered += s.offered;
        unserved += s.unserved;
        run.push_back(rep.calibrated(rep.runS()));
        wall.push_back(rep.calibrated(rep.wallS()));
        setup.push_back(rep.calibrated(rep.setupS()));
    }
    const double run_s = median(run);
    return {
        {"persists_per_host_s", static_cast<double>(sim.persists) / run_s,
         "1/s"},
        {"sim_us_per_host_s", sim.makespanUs / run_s, "us/s"},
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        // Without the reference's memory, resident throughout.
        {"peak_rss_mb",
         peakRssMb() - static_cast<double>(HostReference::residentBytes) /
                           (1024.0 * 1024.0),
         "MB"},
        {"persist_p50_ns", sim.p50Ns, "ns"},
        {"persist_p99_ns", sim.p99Ns, "ns"},
        {"sim_makespan_us", sim.makespanUs, "us"},
        {"served_frac",
         offered ? 1.0 - static_cast<double>(unserved) /
                             static_cast<double>(offered)
                 : 0.0,
         "ratio"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Repeat> &traced,
                const std::vector<Repeat> &untraced,
                const ReplayCosts &replay)
{
    // Host times: medians over the traced repeats.
    auto phase = [&](double ExpRun::*field) {
        std::vector<double> xs;
        for (const Repeat &rep : traced)
            xs.push_back(rep.sum(field));
        return median(xs);
    };
    std::vector<double> untraced_run;
    for (const Repeat &rep : untraced)
        untraced_run.push_back(rep.runS());
    const double run_s = phase(&ExpRun::runS);

    // Simulated counts: one traced repeat (all repeats agree).
    const Repeat &rep = traced.front();
    ExperimentResult r;
    ChannelCounts ch;
    std::uint64_t offered = 0, shed = 0, rejected = 0;
    for (const ExpRun &e : rep.runs) {
        const ExperimentResult &x = e.result;
        r.eventsExecuted += x.eventsExecuted;
        r.schedulerRounds += x.schedulerRounds;
        r.crossShardMessages += x.crossShardMessages;
        r.instructions += x.instructions;
        r.transactions += x.transactions;
        r.persists += x.persists;
        r.preRequests += x.preRequests;
        r.fenceStallTicks += x.fenceStallTicks;
        r.treeCacheHits += x.treeCacheHits;
        r.treeCacheMisses += x.treeCacheMisses;
        r.merkleSavedRehashes += x.merkleSavedRehashes;
        r.critPath.merge(x.critPath);
        for (const OpenLoopTenantStats &t : x.tenants) {
            offered += t.offered;
            shed += t.shed;
            rejected += t.rejected;
        }
        const ChannelCounts &c = e.channels;
        ch.irbHits += c.irbHits;
        ch.irbMisses += c.irbMisses;
        ch.fullyPreExecuted += c.fullyPreExecuted;
        ch.writes += c.writes;
        ch.gcBatches += c.gcBatches;
        ch.gcWritesDeferred += c.gcWritesDeferred;
        ch.backendWrites += c.backendWrites;
        ch.backendDups += c.backendDups;
        ch.queueDepthTicks += c.queueDepthTicks;
        ch.channelTicks += c.channelTicks;
    }
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    std::vector<Metric> m = {
        {"harness.build_module_s", phase(&ExpRun::buildS), "s"},
        {"harness.system_build_s", phase(&ExpRun::systemS), "s"},
        {"harness.validate_s", phase(&ExpRun::validateS), "s"},
        {"harness.run_s", run_s, "s"},
        {"harness.scheduler_rounds", count(r.schedulerRounds), "count"},
        {"harness.cross_shard_messages", count(r.crossShardMessages),
         "count"},
        {"harness.openloop.offered", count(offered), "count"},
        {"harness.openloop.shed", count(shed), "count"},
        {"harness.openloop.rejected", count(rejected), "count"},
        {"harness.openloop.p0_p999_ns", summarize(rep).p0P999Ns, "ns"},
        {"sim.events", count(r.eventsExecuted), "count"},
        {"sim.persists", count(r.persists), "count"},
        {"sim.host_ns_per_event",
         ratio(run_s * 1e9, count(r.eventsExecuted)), "ns"},
    };
    for (std::size_t e = 0; e < numCritEdges; ++e) {
        const CritEdge edge = static_cast<CritEdge>(e);
        m.push_back({std::string("sim.critpath.") + critEdgeName(edge) +
                         "_ns",
                     ratio(ticks::toNsF(r.critPath.ticksOf(edge)),
                           count(r.critPath.persists)),
                     "ns"});
    }
    m.push_back({"cpu.instructions", count(r.instructions), "count"});
    m.push_back({"cpu.transactions", count(r.transactions), "count"});
    m.push_back({"cpu.pre_requests", count(r.preRequests), "count"});
    m.push_back({"cpu.fence_stall_us",
                 ticks::toNsF(r.fenceStallTicks) / 1e3, "us"});
    for (std::size_t l = 0; l < numReplayLayers; ++l)
        m.push_back({replayMetric[l],
                     ratio(replay[l].seconds * 1e9,
                           count(replay[l].calls)),
                     "ns"});
    m.push_back({"bmo.dup_ratio",
                 ratio(count(ch.backendDups), count(ch.backendWrites)),
                 "ratio"});
    m.push_back({"bmo.tree_cache_hit_rate",
                 ratio(count(r.treeCacheHits),
                       count(r.treeCacheHits + r.treeCacheMisses)),
                 "ratio"});
    m.push_back({"bmo.merkle_saved_rehashes",
                 count(r.merkleSavedRehashes), "count"});
    m.push_back({"janus.irb_hits", count(ch.irbHits), "count"});
    m.push_back({"janus.irb_misses", count(ch.irbMisses), "count"});
    m.push_back({"janus.fully_preexec_frac",
                 ratio(count(ch.fullyPreExecuted), count(ch.writes)),
                 "ratio"});
    m.push_back({"memctrl.writes", count(ch.writes), "count"});
    m.push_back({"memctrl.gc_batches", count(ch.gcBatches), "count"});
    m.push_back({"memctrl.gc_writes_deferred",
                 count(ch.gcWritesDeferred), "count"});
    m.push_back({"nvm.queue_depth_avg",
                 ratio(ch.queueDepthTicks, ch.channelTicks), "entries"});
    m.push_back({"trace.overhead_frac",
                 run_s / median(untraced_run) - 1.0, "ratio"});
    return m;
}

std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

unsigned
visibleCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans_out;
    std::string git_describe = "unknown";
    double seconds = 30;
    bool trace = false;
    bool smoke = false;
    parseBenchFlags(
        argc, argv,
        {{"--workload=", [&](const char *v) { workload = v; }},
         {"--seconds=",
          [&](const char *v) { seconds = parseCountFlag(v, "--seconds"); }},
         {"--trace=",
          [&](const char *v) {
              if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                  panic("malformed --trace='%s' (expected 0 or 1)", v);
              trace = v[0] == '1';
          }},
         {"--smoke", [&](const char *) { smoke = true; }},
         {"--spans-out=", [&](const char *v) { spans_out = v; }},
         {"--inject-failure", [](const char *) { injectFailure = true; }},
         {"--git-describe=", [&](const char *v) { git_describe = v; }}});
    // Each workload fixes its own machine shape.
    if (shardOverride() || shardThreadsOverride() ||
        shardPolicyOverride())
        panic("--shards/--shard-threads/--shard-policy are fixed by "
              "the workload");
    setQuiet(true);

    const std::uint64_t seed = seedOverride().value_or(1);
    const std::vector<Experiment> exps =
        workloadExperiments(workload, seed, smoke);
    if (exps.empty()) {
        std::fprintf(stderr,
                     "unknown --workload='%s' (fig9_c8, sharded_s4, "
                     "tenants_openloop)\n",
                     workload.c_str());
        return 2;
    }
    const unsigned shard_threads = exps.front().config.sys.shardThreads;
    std::printf(
        "manifest {\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"trace\": %d, \"smoke\": %d, \"build_type\": \"%s\", "
        "\"compiler\": \"%s\", \"visible_cpus\": %u, "
        "\"git_describe\": \"%s\", \"shard_threads\": %u, "
        "\"experiments\": %zu, \"seconds\": %g}\n",
        workload.c_str(), seed, trace, smoke, PERFBENCH_BUILD_TYPE,
        PERFBENCH_COMPILER, visibleCpus(),
        jsonEscaped(git_describe).c_str(), shard_threads, exps.size(),
        seconds);
    std::fflush(stdout);

    const Clock::time_point start = Clock::now();
    const unsigned min_repeats = smoke ? 1 : 3;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const Repeat &rep) {
        for (const ExpRun &r : rep.runs) {
            ++attempted;
            failed += r.failures.empty() ? 0 : 1;
            failures.insert(failures.end(), r.failures.begin(),
                            r.failures.end());
        }
    };

    std::vector<Metric> metrics;
    std::vector<std::uint64_t> digests;
    long next_exp = 0;
    if (!trace) {
        HostReference ref;
        std::vector<Repeat> reps;
        while (reps.size() < min_repeats || secondsSince(start) < seconds) {
            reps.push_back(
                runRepeat(exps, nullptr, next_exp, nullptr, &ref));
            std::printf("repeat %zu run_s %.6f setup_s %.6f ref_s %.6f\n",
                        reps.size(), reps.back().runS(),
                        reps.back().setupS(), reps.back().refS);
            account(reps.back());
            digests.push_back(reps.back().digest);
        }
        metrics = endToEndMetrics(reps);
        const SimSummary sim = summarize(reps.front());
        std::printf("samples persists=%" PRIu64 " repeats=%zu\n",
                    sim.persists, reps.size());
        // After the timed repeats: the public harness must give what
        // the replica gave, a sharded machine at checkShardThreads.
        digests.push_back(
            runPublicHarness(withShardThreads(exps, checkShardThreads)));
    } else {
        // The public harness (a sharded machine at checkShardThreads),
        // then pairs of untraced and traced repeats of the phased
        // replica: every digest must agree.
        digests.push_back(
            runPublicHarness(withShardThreads(exps, checkShardThreads)));
        SpanLog log(start);
        ReplayCosts replay{};
        std::vector<Repeat> untraced, traced;
        while (traced.size() < (smoke ? 1u : 2u) ||
               secondsSince(start) < seconds) {
            untraced.push_back(
                runRepeat(exps, nullptr, next_exp, nullptr, nullptr));
            traced.push_back(runRepeat(exps, &log, next_exp,
                                       traced.empty() ? &replay : nullptr,
                                       nullptr));
            for (const Repeat *rep : {&untraced.back(), &traced.back()}) {
                account(*rep);
                digests.push_back(rep->digest);
            }
        }
        metrics = perLayerMetrics(traced, untraced, replay);
        if (!spans_out.empty() && !log.write(spans_out))
            failures.push_back("cannot write spans to " + spans_out);
    }

    // Output check 4: the simulated results are identical across
    // repeats, traced and untraced runs, and scheduler threads.
    for (std::uint64_t d : digests)
        if (d != digests.front())
            failures.push_back(strprintf(
                "model_digest %016" PRIx64 " != %016" PRIx64, d,
                digests.front()));
    std::printf("model_digest %s %016" PRIx64 " (seed %" PRIu64
                ", %zu runs agree: %s)\n",
                workload.c_str(), digests.front(), seed, digests.size(),
                failures.empty() ? "yes" : "see failures");
    for (const Metric &m : metrics)
        std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit);
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    const bool correct = failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted,
                std::max<std::uint64_t>(failed, correct ? 0 : 1));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    return correct ? 0 : 1;
}
