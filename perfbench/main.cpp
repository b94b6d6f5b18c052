/**
 * @file
 * Repository benchmark: one seeded workload through engine::ProofService.
 *
 *   perfbench --workload <solo-rescue|burst-mixed|streamed-vanilla>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--flip-byte] [--git-sha <sha>] [--out <dir>]
 *             [--measure-saturation]
 *
 * --trace 0 runs one clean measured window and prints the end-to-end
 * metrics. --trace 1 runs a clean window, then a traced window (a span per
 * request, keyed by job id), then replays the public layer calls the prover
 * makes on the workload's own inputs, each under its own span, and prints
 * the per-layer metrics. Spans are kept in memory and written to
 * <out>/<workload>-seed<n>.json when the run ends.
 *
 * Every timed Ok proof must verify and match its circuit's reference proof
 * (made untimed in set-up) byte for byte; otherwise the run reports
 * "correct": false and exits 1. --flip-byte corrupts one byte of the first
 * proof before that gate, so the self-test can prove the gate bites.
 * --smoke shrinks every circuit and the window for the self-test.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/context.hpp"
#include "engine/service.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/vec_ops.hpp"
#include "gadgets/rescue.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "pcs/mkzg.hpp"
#include "poly/mle_store.hpp"
#include "rt/parallel.hpp"
#include "sim/baseline.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/zerocheck.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace zkphire;
using Clock = std::chrono::steady_clock;
using ff::Fr;
using ff::Rng;
using hyperplonk::Circuit;
using hyperplonk::GateSystem;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Fixed deployment and workload constants. BENCHMARK.json states the burst
// rate and the SLO limits in its workload notes; the self-test checks that
// the two agree.
// ---------------------------------------------------------------------------

/** Context thread budget, split by ProofService into one thread per lane. */
constexpr unsigned kThreads = 4;
constexpr unsigned kLanes = 4;

/** burst-mixed arrival rate: about 2/3 of the sustained open-loop
 *  capacity measured once with --measure-saturation at the default seed
 *  (13.4-15.7/s on a 4-core host, against a flood rate of 22-25/s: the
 *  flood never leaves a lane idle, so it never pays for sharding and
 *  recalls). */
constexpr double kBurstRatePerS = 10.0;
/** Minimum proofs per burst-mixed run, so that >= 10 samples lie beyond
 *  p95. */
constexpr std::size_t kBurstMinProofs = 200;

/** Latency limits behind slo_met_share, per workload. */
constexpr double kSoloSloMs = 6000;
constexpr double kBurstSloMs = 750;
constexpr double kStreamedSloMs = 6000;

/** Rescue permutations per solo-rescue circuit (mu = 14 at full size). */
constexpr unsigned kRescuePerms = 128;
constexpr unsigned kRescuePermsSmoke = 2;

/** Streaming layout for streamed-vanilla: every table on a mapped slab,
 *  walked in 2^14-element chunks (one chunk per mu=14 table, two for the
 *  mu+1 product tree). With 2^12 chunks the extra window releases and
 *  re-faults made the proof about 20% slower and its run-to-run spread
 *  about three times wider on a 4-vCPU VM, which the benchmark's bounds
 *  cannot absorb. */
constexpr std::size_t kStreamChunk = std::size_t(1) << 14;

/** Independent set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool flipByte = false;
    bool measureSaturation = false;
    std::string gitSha = "unknown";
    std::string outDir = ".bench_build/perfbench-traces";
};

struct WorkloadSpec {
    std::string name;
    bool openLoop = false;
    bool streamed = false;
    double ratePerS = 0; ///< Open loop only.
    double sloMs = 0;
};

WorkloadSpec
specFor(const std::string &name)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "solo-rescue") {
        s.sloMs = kSoloSloMs;
    } else if (name == "burst-mixed") {
        s.openLoop = true;
        s.ratePerS = kBurstRatePerS;
        s.sloMs = kBurstSloMs;
    } else if (name == "streamed-vanilla") {
        s.streamed = true;
        s.sloMs = kStreamedSloMs;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return s;
}

/** One circuit class instance with everything the gate needs. */
struct Fixture {
    std::string label;
    Circuit circuit{GateSystem::Vanilla};
    const hyperplonk::Keys *keys = nullptr;
    std::vector<std::uint8_t> reference;
    std::size_t proofBytes = 0;
    double modelMs = 0;

    GateSystem system() const { return circuit.system(); }
    unsigned mu() const { return keys->pk.mu; }
};

/** A chain of Rescue permutations over seeded inputs, digest pinned. */
Circuit
makeRescueCircuit(unsigned perms, Rng &rng)
{
    Circuit c(GateSystem::Jellyfish);
    std::array<hyperplonk::Cell, gadgets::RescueParams::width> state = {
        c.addInput(Fr::random(rng)), c.addInput(Fr::random(rng)),
        c.addZero()};
    for (unsigned i = 0; i < perms; ++i)
        state = gadgets::addRescuePermutation(c, state);
    const hyperplonk::Cell pin = c.addPinned(c.witness(state[0]));
    c.copy(state[0], pin);
    c.padToPowerOfTwo();
    return c;
}

/** The workload's distinct circuits, all derived from the seed. */
std::vector<std::pair<std::string, Circuit>>
makeCircuits(const WorkloadSpec &spec, std::uint64_t seed, bool smoke)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x70726f6f66ull);
    std::vector<std::pair<std::string, Circuit>> out;
    if (spec.name == "solo-rescue") {
        const unsigned perms = smoke ? kRescuePermsSmoke : kRescuePerms;
        for (int i = 0; i < 2; ++i)
            out.emplace_back("rescue" + std::to_string(perms) + "#" +
                                 std::to_string(i),
                             makeRescueCircuit(perms, rng));
    } else if (spec.name == "burst-mixed") {
        // Two small proofs to every large one, so that the median latency
        // falls inside the small class instead of in the gap between the
        // classes, where it would jump with the seed's mix.
        const unsigned small = smoke ? 4 : 8, large = smoke ? 5 : 10;
        for (unsigned mu : {small, small, large})
            for (int i = 0; i < 2; ++i) {
                out.emplace_back("vanilla-mu" + std::to_string(mu) + "#" +
                                     std::to_string(out.size()),
                                 hyperplonk::randomVanillaCircuit(mu, rng));
                out.emplace_back("jellyfish-mu" + std::to_string(mu) + "#" +
                                     std::to_string(out.size()),
                                 hyperplonk::randomJellyfishCircuit(mu, rng));
            }
    } else {
        const unsigned mu = smoke ? 6 : 14;
        for (int i = 0; i < 2; ++i)
            out.emplace_back("vanilla-mu" + std::to_string(mu) + "#" +
                                 std::to_string(i),
                             hyperplonk::randomVanillaCircuit(mu, rng));
    }
    return out;
}

rt::Config
contextConfig(const WorkloadSpec &spec)
{
    rt::Config cfg;
    cfg.threads = kThreads;
    if (spec.streamed) {
        cfg.streamThreshold = 1;
        cfg.streamChunk = kStreamChunk;
    }
    return cfg;
}

engine::ServiceOptions
serviceOptions()
{
    engine::ServiceOptions o;
    o.lanes = kLanes;
    o.queueCapacity = 0;
    o.admission = engine::AdmissionPolicy::Block;
    o.sharding = true;
    return o;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around the public calls it makes.
// ---------------------------------------------------------------------------

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root.
    std::uint64_t jobId = 0;  ///< ProofService job id, 0 when none.
    std::string name;
    double startUs = 0;
    double endUs = 0;
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint64_t
    begin(std::string name, std::uint64_t parent = 0, std::uint64_t job = 0,
          Clock::time_point at = Clock::now())
    {
        std::lock_guard<std::mutex> lock(mu);
        Span s;
        s.id = spans.size() + 1;
        s.parent = parent;
        s.jobId = job;
        s.name = std::move(name);
        s.startUs = usSince(at);
        spans.push_back(std::move(s));
        return spans.back().id;
    }
    void
    end(std::uint64_t id, Clock::time_point at = Clock::now())
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.at(id - 1).endUs = usSince(at);
    }
    void
    setJob(std::uint64_t id, std::uint64_t job)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.at(id - 1).jobId = job;
    }
    /** Self time of every span: duration minus the union of its children's
     *  intervals. */
    std::vector<double>
    selfUs() const
    {
        std::lock_guard<std::mutex> lock(mu);
        std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
        for (const Span &s : spans)
            if (s.parent != 0)
                kids[s.parent - 1].emplace_back(s.startUs, s.endUs);
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0, curB = 0, curE = -1;
            for (auto [b, e] : iv) {
                b = std::max(b, spans[i].startUs);
                e = std::min(e, spans[i].endUs);
                if (e <= b)
                    continue;
                if (b > curE) {
                    if (curE > curB)
                        covered += curE - curB;
                    curB = b;
                    curE = e;
                } else {
                    curE = std::max(curE, e);
                }
            }
            if (curE > curB)
                covered += curE - curB;
            self[i] = (spans[i].endUs - spans[i].startUs) - covered;
        }
        return self;
    }

    /** Chrome trace-event JSON ("X" events) with self time in args. */
    void
    write(const std::string &path) const
    {
        const std::vector<double> self = selfUs();
        std::lock_guard<std::mutex> lock(mu);
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%llu,\"parent\":%llu,"
                          "\"job\":%llu,\"self_us\":%.3f}}%s\n",
                          s.name.c_str(),
                          (unsigned long long)(s.jobId ? s.jobId : 0),
                          s.startUs, s.endUs - s.startUs,
                          (unsigned long long)s.id,
                          (unsigned long long)s.parent,
                          (unsigned long long)s.jobId, self[i],
                          i + 1 < spans.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return spans.size();
    }

    /** Self time summed per span name, largest first. */
    std::vector<std::pair<std::string, double>>
    selfMsByName() const
    {
        const std::vector<double> self = selfUs();
        std::lock_guard<std::mutex> lock(mu);
        std::map<std::string, double> byName;
        for (std::size_t i = 0; i < spans.size(); ++i)
            byName[spans[i].name] += self[i] / 1000.0;
        std::vector<std::pair<std::string, double>> out(byName.begin(),
                                                        byName.end());
        std::sort(out.begin(), out.end(), [](const auto &l, const auto &r) {
            return l.second > r.second;
        });
        return out;
    }

  private:
    double
    usSince(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    }

    Clock::time_point origin;
    mutable std::mutex mu; ///< Guards spans.
    std::vector<Span> spans;
};

/** RAII child span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, std::string name, std::uint64_t parent = 0)
        : tracer(t), id(t ? t->begin(std::move(name), parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->end(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    std::uint64_t spanId() const { return id; }

  private:
    Tracer *tracer;
    std::uint64_t id;
};

/** Time fn() in milliseconds, under a span when tracing. */
template <class Fn>
double
timed(Tracer *tracer, const std::string &name, std::uint64_t parent, Fn &&fn)
{
    ScopedSpan span(tracer, name, parent);
    const auto t0 = Clock::now();
    fn();
    return msBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/** Linearly interpolated quantile (numpy "linear"); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

// ---------------------------------------------------------------------------
// Set-up: SRS, lazy bases for every level the proofs touch, preprocessing.
// ---------------------------------------------------------------------------

struct Setup {
    std::unique_ptr<pcs::Srs> srs;
    std::unique_ptr<engine::ProverContext> ctx;
    std::vector<Fixture> fixtures;
    std::vector<double> setupS;       ///< One entry per repetition.
    std::vector<double> srsLevelMs;   ///< Every basesFor call.
    std::vector<double> preprocessMs; ///< Every preprocess call.
};

Setup
runSetup(const WorkloadSpec &spec, const Args &args, Tracer *tracer)
{
    Setup st;
    std::vector<std::pair<std::string, Circuit>> circuits =
        makeCircuits(spec, args.seed, args.smoke);
    unsigned maxMu = 0;
    std::vector<unsigned> levels;
    for (const auto &[label, c] : circuits) {
        unsigned mu = 0;
        while ((std::size_t(1) << mu) < c.numRows())
            ++mu;
        maxMu = std::max(maxMu, mu);
        for (unsigned l : {mu, mu + 1})
            if (std::find(levels.begin(), levels.end(), l) == levels.end())
                levels.push_back(l);
    }
    std::sort(levels.begin(), levels.end());

    const rt::Config cfg = contextConfig(spec);
    const unsigned reps = args.smoke ? 1 : kSetupReps;
    std::vector<const hyperplonk::Keys *> keys;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // Keys reference the SRS: drop the previous context first.
        st.ctx.reset();
        st.srs.reset();
        keys.clear();
        ScopedSpan root(tracer, "setup");
        rt::ScopedConfig scope(cfg);
        const auto t0 = Clock::now();
        Rng srsRng(args.seed ^ 0x5eedc0deull);
        timed(tracer, "pcs.Srs::generate", root.spanId(), [&] {
            st.srs = std::make_unique<pcs::Srs>(
                pcs::Srs::generate(maxMu + 1, srsRng));
        });
        for (unsigned l : levels)
            st.srsLevelMs.push_back(
                timed(tracer, "pcs.Srs::basesFor", root.spanId(),
                      [&] { st.srs->basesFor(l); }));
        st.ctx = std::make_unique<engine::ProverContext>(*st.srs, cfg);
        for (const auto &[label, c] : circuits)
            st.preprocessMs.push_back(
                timed(tracer, "engine.ProverContext::preprocess",
                      root.spanId(),
                      [&] { keys.push_back(&st.ctx->preprocess(c)); }));
        st.setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    // Untimed reference proofs: one per distinct circuit.
    sim::CpuModel model;
    model.threads = kThreads;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        Fixture f;
        f.label = circuits[i].first;
        f.circuit = std::move(circuits[i].second);
        f.keys = keys[i];
        hyperplonk::HyperPlonkProof proof =
            st.ctx->prove(f.keys->pk, f.circuit);
        if (!hyperplonk::verify(f.keys->vk, proof).ok)
            throw std::runtime_error("reference proof for " + f.label +
                                     " does not verify");
        f.reference = hyperplonk::serializeProof(proof);
        f.proofBytes = proof.sizeBytes();
        f.modelMs = model.protocolMs(
            f.system() == GateSystem::Vanilla
                ? sim::ProtocolWorkload::vanilla(f.mu())
                : sim::ProtocolWorkload::jellyfish(f.mu()));
        st.fixtures.push_back(std::move(f));
    }
    return st;
}

// ---------------------------------------------------------------------------
// Measured windows.
// ---------------------------------------------------------------------------

struct Sample {
    std::size_t fixture = 0;
    double latencyMs = 0; ///< Submit (closed) or due time (open) -> resolved.
    double lateMs = 0;    ///< Open loop: submit time - due time.
    engine::ProofResult result;
};

struct Window {
    std::size_t submitted = 0;
    std::vector<Sample> samples;
    double wallS = 0;
    double cpuS = 0;
    engine::ServiceMetrics metrics;
    poly::StoreCounters storeBefore, storeAfter;
};

/** Closed loop, one client: the next request is submitted when the
 *  previous one resolves, until the window is spent. */
Window
runClosedLoop(const Setup &st, double seconds, Rng &rng, Tracer *tracer)
{
    Window w;
    engine::ProofService service(*st.ctx, serviceOptions());
    w.storeBefore = poly::storeCounters();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::size_t next = rng.nextBelow(st.fixtures.size());
    while (msBetween(t0, Clock::now()) < seconds * 1000.0) {
        const Fixture &f = st.fixtures[next];
        engine::ProofRequest req;
        req.pk = &f.keys->pk;
        req.circuit = &f.circuit;
        const auto submitAt = Clock::now();
        const std::uint64_t span =
            tracer ? tracer->begin("request", 0, 0, submitAt) : 0;
        engine::JobHandle h;
        timed(tracer, "engine.ProofService::submitJob", span,
              [&] { h = service.submitJob(req); });
        if (tracer)
            tracer->setJob(span, h.id);
        Sample s;
        s.fixture = next;
        s.result = h.future.get();
        const auto doneAt = Clock::now();
        if (tracer)
            tracer->end(span, doneAt);
        s.latencyMs = msBetween(submitAt, doneAt);
        w.samples.push_back(std::move(s));
        ++w.submitted;
        next = (next + 1) % st.fixtures.size();
    }
    w.wallS = msBetween(t0, Clock::now()) / 1000.0;
    w.cpuS = cpuSeconds() - cpu0;
    w.storeAfter = poly::storeCounters();
    w.metrics = service.metrics();
    return w;
}

struct Arrival {
    double dueMs = 0;
    std::size_t fixture = 0;
    int priority = 0;
};

/** Poisson arrivals at ratePerS over the window, conditioned on their
 *  count: exactly round(rate * seconds) arrival times drawn uniformly and
 *  sorted, so every run submits the same number of requests. The circuit
 *  mix is balanced (every pool entry equally often) and exactly a quarter
 *  of the requests carry priority 1, both in seeded order, so that seeds
 *  differ in timing and order but not in the amount of work. */
std::vector<Arrival>
makeSchedule(const WorkloadSpec &spec, double seconds, std::size_t pool,
             Rng &rng)
{
    const std::size_t n =
        std::size_t(std::llround(spec.ratePerS * seconds));
    std::vector<Arrival> a(n);
    std::vector<double> due(n);
    for (double &d : due)
        d = rng.nextDouble() * seconds * 1000.0;
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < n; ++i) {
        a[i].dueMs = due[i];
        a[i].fixture = i % pool;
        a[i].priority = i < n / 4 ? 1 : 0;
    }
    // Fisher-Yates over the (fixture, priority) pairs; due times stay
    // sorted.
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = rng.nextBelow(i);
        std::swap(a[i - 1].fixture, a[j].fixture);
        std::swap(a[i - 1].priority, a[j].priority);
    }
    return a;
}

/** Open loop: a generator submits on the schedule regardless of
 *  completions; a collector polls the outstanding futures and stamps each
 *  resolution. Latency runs from when the request was due. */
Window
runOpenLoop(const Setup &st, const std::vector<Arrival> &schedule,
            Tracer *tracer)
{
    Window w;
    engine::ProofService service(*st.ctx, serviceOptions());
    struct Pending {
        std::size_t index = 0;
        std::uint64_t span = 0;
        std::future<engine::ProofResult> future;
    };
    std::mutex pendingMu; ///< Guards handoff and generatorDone.
    std::vector<Pending> handoff;
    bool generatorDone = false;
    std::vector<Sample> samples(schedule.size());
    std::vector<Clock::time_point> due(schedule.size());

    w.storeBefore = poly::storeCounters();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();

    std::thread collector([&] {
        std::vector<Pending> live;
        for (;;) {
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(pendingMu);
                for (Pending &p : handoff)
                    live.push_back(std::move(p));
                handoff.clear();
                done = generatorDone;
            }
            for (std::size_t i = 0; i < live.size();) {
                if (live[i].future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                const auto at = Clock::now();
                if (tracer)
                    tracer->end(live[i].span, at);
                Sample &s = samples[live[i].index];
                s.result = live[i].future.get();
                s.latencyMs = msBetween(due[live[i].index], at);
                live[i] = std::move(live.back());
                live.pop_back();
            }
            if (done && live.empty())
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    // The collector must be stopped and joined on every exit path.
    const auto stopCollector = [&] {
        {
            std::lock_guard<std::mutex> lock(pendingMu);
            generatorDone = true;
        }
        collector.join();
    };
    try {
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const Arrival &a = schedule[i];
            due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  a.dueMs));
            std::this_thread::sleep_until(due[i]);
            const Fixture &f = st.fixtures[a.fixture];
            engine::ProofRequest req;
            req.pk = &f.keys->pk;
            req.circuit = &f.circuit;
            engine::SubmitOptions sub;
            sub.priority = a.priority;
            const auto submitAt = Clock::now();
            const std::uint64_t span =
                tracer ? tracer->begin("request", 0, 0, submitAt) : 0;
            engine::JobHandle h;
            timed(tracer, "engine.ProofService::submitJob", span,
                  [&] { h = service.submitJob(req, sub); });
            if (tracer)
                tracer->setJob(span, h.id);
            samples[i].fixture = a.fixture;
            samples[i].lateMs = msBetween(due[i], submitAt);
            std::lock_guard<std::mutex> lock(pendingMu);
            handoff.push_back(Pending{i, span, std::move(h.future)});
        }
    } catch (...) {
        stopCollector();
        throw;
    }
    stopCollector();
    w.wallS = msBetween(t0, Clock::now()) / 1000.0;
    w.cpuS = cpuSeconds() - cpu0;
    w.storeAfter = poly::storeCounters();
    w.metrics = service.metrics();
    w.submitted = schedule.size();
    w.samples = std::move(samples);
    return w;
}

/** One measured window of the given length. Only a clean end-to-end
 *  window must schedule kBurstMinProofs open-loop arrivals; the two halves
 *  of a traced run feed per-layer metrics, which have no such floor. */
Window
runWindow(const WorkloadSpec &spec, const Setup &st, const Args &args,
          double seconds, std::uint64_t stream, Tracer *tracer)
{
    Rng rng(args.seed * 0xd1342543de82ef95ull + stream);
    if (!spec.openLoop)
        return runClosedLoop(st, seconds, rng, tracer);
    std::vector<Arrival> schedule =
        makeSchedule(spec, seconds, st.fixtures.size(), rng);
    if (!args.smoke && !args.trace && schedule.size() < kBurstMinProofs)
        throw std::invalid_argument(
            "burst-mixed needs --seconds >= " +
            std::to_string(double(kBurstMinProofs) / spec.ratePerS) +
            " to schedule at least " + std::to_string(kBurstMinProofs) +
            " proofs");
    return runOpenLoop(st, schedule, tracer);
}

// ---------------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------------

struct Verdict {
    std::size_t okVerified = 0;
    std::size_t failed = 0;
    std::vector<bool> good; ///< Per sample.
    std::vector<double> verifyMs;
};

/** Every Ok proof: serialize, (optionally corrupt one byte), compare with
 *  the reference, deserialize and verify. Anything else is a failure. */
Verdict
checkWindow(const Setup &st, const Window &w, bool flipFirst, Tracer *tracer)
{
    Verdict v;
    v.good.assign(w.samples.size(), false);
    bool flipped = false;
    for (std::size_t i = 0; i < w.samples.size(); ++i) {
        const Sample &s = w.samples[i];
        if (s.result.status != engine::ProofStatus::Ok) {
            std::printf("FAIL request %zu: status %d (%s)\n", i,
                        int(s.result.status), s.result.error.c_str());
            ++v.failed;
            continue;
        }
        const Fixture &f = st.fixtures[s.fixture];
        std::vector<std::uint8_t> bytes =
            hyperplonk::serializeProof(s.result.proof);
        if (flipFirst && !flipped && !bytes.empty()) {
            bytes[bytes.size() / 2] ^= 0x01;
            flipped = true;
        }
        std::string why;
        if (bytes != f.reference)
            why = "bytes differ from the reference proof";
        if (auto p = hyperplonk::deserializeProof(bytes); !p) {
            why += why.empty() ? "" : "; ";
            why += "does not deserialize";
        } else {
            hyperplonk::VerifyResult vr;
            v.verifyMs.push_back(timed(tracer, "hyperplonk::verify", 0, [&] {
                vr = hyperplonk::verify(f.keys->vk, *p);
            }));
            if (!vr.ok) {
                why += why.empty() ? "" : "; ";
                why += "verify: " + vr.error;
            }
        }
        if (!why.empty()) {
            std::printf("FAIL request %zu (%s): %s\n", i, f.label.c_str(),
                        why.c_str());
            ++v.failed;
            continue;
        }
        v.good[i] = true;
        ++v.okVerified;
    }
    return v;
}

// ---------------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    std::size_t samples = 0; ///< 0 = not a sampled statistic.
};

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

std::string
num(double x)
{
    if (!std::isfinite(x))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

void
printStamp(const Args &args, const WorkloadSpec &spec)
{
    const bool asmOn = ff::kernels::asmKernelsEnabled() &&
                       !ff::kernels::genericKernelsForced();
    std::printf(
        "stamp {\"git_sha\": \"%s\", \"nproc\": %ld, \"cpu_model\": \"%s\", "
        "\"asm_kernels\": %s, \"build_type\": \"%s\", \"workload\": \"%s\", "
        "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"smoke\": %s, "
        "\"rate_per_s\": %s, \"slo_ms\": %s}\n",
        jsonEscape(args.gitSha).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
        jsonEscape(cpuModel()).c_str(), asmOn ? "true" : "false",
        PERFBENCH_BUILD_TYPE, jsonEscape(args.workload).c_str(),
        (unsigned long long)args.seed, num(args.seconds).c_str(),
        args.trace ? 1 : 0, args.smoke ? "true" : "false",
        num(spec.ratePerS).c_str(), num(spec.sloMs).c_str());
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        if (m.samples)
            std::printf("%-34s %16.6f %-6s (n=%zu)\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples);
        else
            std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
}

/** Latencies of the samples that resolved Ok and passed the gate. */
std::vector<double>
goodLatencies(const Window &w, const Verdict &v)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < w.samples.size(); ++i)
        if (v.good[i])
            out.push_back(w.samples[i].latencyMs);
    return out;
}

std::vector<Metric>
endToEndMetrics(const WorkloadSpec &spec, const Setup &st, const Window &w,
                const Verdict &v)
{
    const std::vector<double> lat = goodLatencies(w, v);
    std::size_t sloMet = 0;
    for (double l : lat)
        sloMet += l <= spec.sloMs ? 1 : 0;
    const double submitted = double(std::max<std::size_t>(w.submitted, 1));
    std::vector<double> bytes;
    for (const Fixture &f : st.fixtures)
        bytes.push_back(double(f.proofBytes));
    return {
        {"setup_s", "s", median(st.setupS), st.setupS.size()},
        {"latency_p50_ms", "ms", quantile(lat, 0.5), lat.size()},
        {"latency_p95_ms", "ms", quantile(lat, 0.95), lat.size()},
        {"proofs_per_s", "1/s", double(v.okVerified) / w.wallS, 0},
        {"slo_met_share", "share", double(sloMet) / submitted, w.submitted},
        {"ok_share", "share", double(v.okVerified) / submitted, w.submitted},
        {"peak_rss_mb", "MB", peakRssMb(), 0},
        {"proof_bytes", "B", mean(bytes), bytes.size()},
    };
}

// ---------------------------------------------------------------------------
// Traced run: layer replays on the workload's own inputs.
// ---------------------------------------------------------------------------

struct Replay {
    std::vector<double> commitBatchMs, batchOpenMs, zerocheckMs,
        productTreeMs;
    double zerocheckRounds = 0;
    double frMulNs = 0, fqMulNs = 0, frBytes = 0, fqBytes = 0;
};

template <class F>
double
mulVecNs(Tracer *tracer, std::size_t n, Rng &rng)
{
    std::vector<F> a(n), b(n), d(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = F::random(rng);
        b[i] = F::random(rng);
    }
    std::vector<double> perMul;
    for (int rep = 0; rep < 5; ++rep) {
        const double ms = timed(tracer, "ff::mulVec", 0, [&] {
            ff::mulVec(d.data(), a.data(), b.data(), n);
        });
        perMul.push_back(ms * 1e6 / double(n));
    }
    volatile std::uint64_t sink = d[n / 2].isZero() ? 1 : 0;
    (void)sink;
    return median(perMul);
}

Replay
replayLayers(const WorkloadSpec &spec, const Setup &st, const Args &args,
             Tracer *tracer)
{
    Replay r;
    rt::ScopedConfig scope(contextConfig(spec));
    ec::ScopedMsmOptions msmScope(st.ctx->msmOptions());
    poly::ScopedArena arenaScope(&st.ctx->arena());
    Rng rng(args.seed ^ 0x7265706c6179ull);
    for (const Fixture &f : st.fixtures) {
        ScopedSpan root(tracer, "replay");
        const hyperplonk::ProvingKey &pk = f.keys->pk;
        const std::vector<poly::Mle> witness = f.circuit.witnessMles();

        r.commitBatchMs.push_back(
            timed(tracer, "pcs::commitBatch", root.spanId(), [&] {
                (void)pcs::commitBatch(*pk.srs, witness);
            }));

        std::vector<poly::Mle> polys;
        for (const poly::Mle &m : pk.selectors)
            polys.push_back(m);
        for (const poly::Mle &m : witness)
            polys.push_back(m);
        for (const poly::Mle &m : pk.perm.sigma)
            polys.push_back(m);
        std::vector<Fr> z(pk.mu);
        for (Fr &x : z)
            x = Fr::random(rng);
        const Fr rho = Fr::random(rng);
        r.batchOpenMs.push_back(
            timed(tracer, "pcs::batchOpen", root.spanId(), [&] {
                (void)pcs::batchOpen(*pk.srs, polys, z, rho);
            }));

        const gates::Gate &gate = hyperplonk::coreGate(pk.sys);
        std::vector<poly::Mle> tables;
        for (const poly::Mle &m : pk.selectors)
            tables.push_back(m);
        for (const poly::Mle &m : witness)
            tables.push_back(m);
        hash::Transcript tr("perfbench-replay");
        auto plan = st.ctx->plans().maskedPlan(gate.expr);
        std::size_t rounds = 0;
        r.zerocheckMs.push_back(
            timed(tracer, "sumcheck::proveZero", root.spanId(), [&] {
                auto out = sumcheck::proveZero(gate.expr, std::move(tables),
                                               tr, {}, plan);
                rounds = out.challenges.size();
            }));
        r.zerocheckRounds = std::max(r.zerocheckRounds, double(rounds));

        const Fr beta = Fr::random(rng), gamma = Fr::random(rng);
        ScopedSpan tree(tracer, "sumcheck.product_tree", root.spanId());
        const auto t0 = Clock::now();
        hyperplonk::FractionPolys fracs;
        timed(tracer, "hyperplonk::buildFractionPolys", tree.spanId(), [&] {
            fracs = hyperplonk::buildFractionPolys(witness, pk.perm, beta,
                                                   gamma);
        });
        timed(tracer, "sumcheck::buildProductTree", tree.spanId(), [&] {
            (void)sumcheck::buildProductTree(fracs.phi);
        });
        r.productTreeMs.push_back(msBetween(t0, Clock::now()));
    }

    unsigned maxMu = 0;
    for (const Fixture &f : st.fixtures)
        maxMu = std::max(maxMu, f.mu());
    const std::size_t n = std::size_t(1) << maxMu;
    r.frMulNs = mulVecNs<Fr>(tracer, n, rng);
    r.fqMulNs = mulVecNs<ff::Fq>(tracer, n, rng);
    r.frBytes = 3.0 * double(n) * sizeof(Fr);
    r.fqBytes = 3.0 * double(n) * sizeof(ff::Fq);
    return r;
}

std::vector<Metric>
perLayerMetrics(const Setup &st, const Window &clean, const Verdict &cleanV,
                const Window &traced, const Verdict &tracedV,
                const Replay &rp)
{
    const engine::ServiceMetrics &m = traced.metrics;
    std::vector<double> steps[5], shardWidth, measured, modelled;
    double msmCounts[5] = {}, msmMs[3] = {};
    std::size_t good = 0;
    for (std::size_t i = 0; i < traced.samples.size(); ++i) {
        if (!tracedV.good[i])
            continue;
        ++good;
        const Sample &s = traced.samples[i];
        const hyperplonk::ProverStats &ps = s.result.stats;
        steps[0].push_back(ps.witnessCommitMs);
        steps[1].push_back(ps.gateIdentityMs);
        steps[2].push_back(ps.wireIdentityMs);
        steps[3].push_back(ps.batchEvalMs);
        steps[4].push_back(ps.openingMs);
        shardWidth.push_back(double(s.result.shardLanes));
        measured.push_back(ps.totalMs());
        modelled.push_back(st.fixtures[s.fixture].modelMs);
        msmCounts[0] += double(ps.msm.pointAdds);
        msmCounts[1] += double(ps.msm.affineAdds);
        msmCounts[2] += double(ps.msm.batchInversions);
        msmCounts[3] += double(ps.msm.pointDoubles);
        msmCounts[4] += double(ps.msm.denseScalars);
        msmMs[0] += ps.msm.recodeMs;
        msmMs[1] += ps.msm.bucketMs;
        msmMs[2] += ps.msm.foldMs;
    }
    const double perProof = good ? 1.0 / double(good) : 0.0;
    const poly::StoreCounters &a = traced.storeBefore, &b = traced.storeAfter;
    const double hits = double(b.arenaHits - a.arenaHits);
    const double misses = double(b.arenaMisses - a.arenaMisses);
    std::vector<double> late;
    for (const Sample &s : traced.samples)
        late.push_back(s.lateMs);
    const double cleanP50 = quantile(goodLatencies(clean, cleanV), 0.5);
    const double tracedP50 = quantile(goodLatencies(traced, tracedV), 0.5);
    const double modelMs = mean(modelled);

    return {
        {"engine.queue_wait_p50_ms", "ms", m.queueWaitMs.quantileMs(0.5),
         m.queueWaitMs.count()},
        {"engine.shard_recalls", "count", double(m.shardRecalls)},
        {"engine.setup_phase_p50_ms", "ms", m.setupMs.quantileMs(0.5),
         m.setupMs.count()},
        {"engine.online_phase_p50_ms", "ms", m.onlineMs.quantileMs(0.5),
         m.onlineMs.count()},
        {"engine.sharded_phases", "count", double(m.shardedPhases)},
        {"engine.shard_helper_lanes", "count", double(m.shardHelperLanes)},
        {"engine.shard_width_mean", "lanes", mean(shardWidth), good},
        {"engine.retries", "count", double(m.retries)},
        {"rt.cpu_busy_share", "share",
         traced.cpuS / (traced.wallS * double(kThreads))},
        {"hyperplonk.witness_commit_ms", "ms", median(steps[0]), good},
        {"hyperplonk.gate_identity_ms", "ms", median(steps[1]), good},
        {"hyperplonk.wire_identity_ms", "ms", median(steps[2]), good},
        {"hyperplonk.batch_eval_ms", "ms", median(steps[3]), good},
        {"hyperplonk.opening_ms", "ms", median(steps[4]), good},
        {"hyperplonk.verify_ms", "ms", median(tracedV.verifyMs),
         tracedV.verifyMs.size()},
        {"ec.msm_point_adds", "count", msmCounts[0] * perProof},
        {"ec.msm_affine_adds", "count", msmCounts[1] * perProof},
        {"ec.msm_batch_inversions", "count", msmCounts[2] * perProof},
        {"ec.msm_doubles", "count", msmCounts[3] * perProof},
        {"ec.msm_dense_scalars", "count", msmCounts[4] * perProof},
        {"ec.msm_recode_ms", "ms", msmMs[0] * perProof},
        {"ec.msm_bucket_ms", "ms", msmMs[1] * perProof},
        {"ec.msm_fold_ms", "ms", msmMs[2] * perProof},
        {"pcs.commit_batch_ms", "ms", median(rp.commitBatchMs),
         rp.commitBatchMs.size()},
        {"pcs.batch_open_ms", "ms", median(rp.batchOpenMs),
         rp.batchOpenMs.size()},
        {"pcs.srs_level_ms", "ms", median(st.srsLevelMs),
         st.srsLevelMs.size()},
        {"pcs.preprocess_ms", "ms", median(st.preprocessMs),
         st.preprocessMs.size()},
        {"sumcheck.zerocheck_ms", "ms", median(rp.zerocheckMs),
         rp.zerocheckMs.size()},
        {"sumcheck.rounds", "count", rp.zerocheckRounds},
        {"sumcheck.product_tree_ms", "ms", median(rp.productTreeMs),
         rp.productTreeMs.size()},
        {"poly.mapped_bytes", "B", double(b.mappedBytes - a.mappedBytes)},
        {"poly.ram_bytes", "B", double(b.ramBytes - a.ramBytes)},
        {"poly.mapped_allocs", "count",
         double(b.mappedAllocs - a.mappedAllocs)},
        {"poly.arena_hit_ratio", "share",
         hits + misses > 0 ? hits / (hits + misses) : 0.0},
        {"ff.fr_mul_ns", "ns", rp.frMulNs},
        {"ff.fq_mul_ns", "ns", rp.fqMulNs},
        {"ff.fr_mulvec_bytes", "B", rp.frBytes},
        {"ff.fq_mulvec_bytes", "B", rp.fqBytes},
        {"sim.model_ms", "ms", modelMs},
        {"sim.measured_over_model", "ratio",
         modelMs > 0 ? mean(measured) / modelMs : 0.0},
        {"loadgen.late_p95_ms", "ms", quantile(late, 0.95), late.size()},
        {"trace.overhead_share", "share",
         cleanP50 > 0 ? (tracedP50 - cleanP50) / cleanP50 : 0.0},
    };
}

// ---------------------------------------------------------------------------
// Saturation probe (used once to choose kBurstRatePerS).
// ---------------------------------------------------------------------------

/** Prints two capacities of the open-loop workload. Flood: every request
 *  submitted at once, so the queue never empties and no phase shards.
 *  Sustained: open-loop windows of --seconds at rising fractions of the
 *  flood rate; the highest rate whose queue drains within a second of the
 *  last arrival has no growing backlog. */
void
measureSaturation(const WorkloadSpec &spec, const Setup &st,
                  const Args &args)
{
    if (!spec.openLoop)
        throw std::invalid_argument(
            "--measure-saturation applies to the open-loop workload");
    double flood = 0;
    {
        engine::ProofService service(*st.ctx, serviceOptions());
        Rng rng(args.seed);
        const std::size_t n = args.smoke ? 40 : 400;
        std::vector<std::future<engine::ProofResult>> fs;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const Fixture &f = st.fixtures[i % st.fixtures.size()];
            engine::ProofRequest req;
            req.pk = &f.keys->pk;
            req.circuit = &f.circuit;
            fs.push_back(service.submit(req));
        }
        std::size_t ok = 0;
        for (auto &f : fs)
            ok += f.get().ok ? 1 : 0;
        const double s = msBetween(t0, Clock::now()) / 1000.0;
        flood = double(ok) / s;
        std::printf("flood: %zu/%zu ok in %.3f s = %.3f proofs/s\n", ok, n,
                    s, flood);
    }
    double sustained = 0;
    for (double frac : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
        WorkloadSpec probe = spec;
        probe.ratePerS = frac * flood;
        Rng rng(args.seed * 0xd1342543de82ef95ull + 3);
        const std::vector<Arrival> schedule =
            makeSchedule(probe, args.seconds, st.fixtures.size(), rng);
        const Window w = runOpenLoop(st, schedule, nullptr);
        std::vector<double> lat;
        for (const Sample &x : w.samples)
            if (x.result.ok)
                lat.push_back(x.latencyMs);
        const double drainMs =
            w.wallS * 1000.0 - (schedule.empty() ? 0 : schedule.back().dueMs);
        const double p95 = quantile(lat, 0.95);
        const bool holds = drainMs <= 1000.0;
        if (holds)
            sustained = probe.ratePerS;
        std::printf("open loop %.2f/s: p50 %.1f ms p95 %.1f ms drain %.1f "
                    "ms over %zu requests%s\n",
                    probe.ratePerS, quantile(lat, 0.5), p95, drainMs,
                    lat.size(), holds ? "" : "  (growing backlog)");
    }
    std::printf("sustained: %.2f proofs/s; 2/3 of it: %.2f proofs/s\n",
                sustained, sustained * 2.0 / 3.0);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = std::stoi(value()) != 0;
        else if (k == "--git-sha")
            a.gitSha = value();
        else if (k == "--out")
            a.outDir = value();
        else if (k == "--smoke")
            a.smoke = true;
        else if (k == "--flip-byte")
            a.flipByte = true;
        else if (k == "--measure-saturation")
            a.measureSaturation = true;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

int
run(const Args &args)
{
    const WorkloadSpec spec = specFor(args.workload);
    printStamp(args, spec);

    const auto origin = Clock::now();
    std::unique_ptr<Tracer> tracer;
    if (args.trace)
        tracer = std::make_unique<Tracer>(origin);

    const Setup st = runSetup(spec, args, tracer.get());
    for (const Fixture &f : st.fixtures)
        std::printf("circuit %-20s mu=%u rows=%zu proof=%zu B model=%.1f ms\n",
                    f.label.c_str(), f.mu(), f.circuit.numRows(),
                    f.proofBytes, f.modelMs);
    if (args.measureSaturation) {
        measureSaturation(spec, st, args);
        return 0;
    }

    // A traced run splits its time: a clean half, then a traced half; the
    // difference between the two is the tracing overhead.
    const double windowS = args.trace ? args.seconds / 2 : args.seconds;
    const Window clean = runWindow(spec, st, args, windowS, 1, nullptr);
    const Verdict cleanV = checkWindow(st, clean, args.flipByte, nullptr);
    std::size_t attempted = clean.submitted;
    std::size_t failed = cleanV.failed;
    if (spec.openLoop) {
        std::vector<double> late;
        for (const Sample &s : clean.samples)
            late.push_back(s.lateMs);
        std::printf("generator lateness: p50 %.3f ms, p95 %.3f ms, max "
                    "%.3f ms over %zu arrivals\n",
                    quantile(late, 0.5), quantile(late, 0.95),
                    quantile(late, 1.0), late.size());
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEndMetrics(spec, st, clean, cleanV);
    } else {
        const Window traced =
            runWindow(spec, st, args, windowS, 2, tracer.get());
        const Verdict tracedV =
            checkWindow(st, traced, false, tracer.get());
        attempted += traced.submitted;
        failed += tracedV.failed;
        const Replay rp = replayLayers(spec, st, args, tracer.get());
        metrics =
            perLayerMetrics(st, clean, cleanV, traced, tracedV, rp);

        std::filesystem::create_directories(args.outDir);
        const std::string path = args.outDir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        tracer->write(path);
        std::printf("trace: %zu spans written to %s\n", tracer->size(),
                    path.c_str());
        for (const auto &[name, ms] : tracer->selfMsByName())
            std::printf("self %-36s %12.3f ms\n", name.c_str(), ms);
    }
    const bool correct = failed == 0 && attempted > 0;
    printResult(correct, std::max<std::size_t>(attempted, 1), failed,
                metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
