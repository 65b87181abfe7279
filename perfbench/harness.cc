/**
 * @file
 * Open-loop, end-to-end benchmark of the staged dynamic-resolution
 * server, with layer-by-layer attribution in a separate traced run.
 *
 * The served stack is the real one: ObjectStore (a latency-injecting
 * FaultyObjectStore on the remote workload) -> StagedServingEngine
 * (stage-1 preview fetch -> ProgressiveDecoder -> ScaleModel ->
 * stage-4 resume fetch, decode cache, hedged reads, brownout with an
 * int8 tier) -> inner ServingEngine -> planned fp32 / int8 ResNet-18
 * Graphs on the paper's resolution grid (112..448). The deployment is
 * the same in every workload; only the stored corpus, the traffic and
 * the storage tier differ (see workloads()).
 *
 * One generator thread sends requests on a seeded schedule (Poisson
 * arrivals) regardless of completions; waiter threads collect
 * terminals. Latency is timed from each request's scheduled send
 * time. A run is a main phase at the workload's nominal load (60% of
 * --seconds), two steady rungs of a rate ladder (15% each) and an
 * overload rung (10%) far above capacity whose requests carry the
 * latency limit as their deadline, so brownout sheds precision (int8)
 * and then resolution, and requests expire. slo_rps interpolates
 * between the highest rung that meets the latency limit and the next
 * one; the overload rung keeps it from saturating at a steady rung.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--out-dir <dir>]
 *
 * The last line of stdout is one JSON object {correct, attempted,
 * failed, metrics}: end-to-end metrics with --trace 0, per-layer
 * metrics with --trace 1; the line before it is the host block, which
 * is also written with the result to <out-dir>/result_*.json. The
 * traced run repeats the main phase with the fetch-timing decorator
 * and per-request spans (written to <out-dir>/spans_<workload>_<seed>
 * .jsonl at exit) and then probes each layer serially on the
 * workload's own objects; its overload counters (shed, expired,
 * brownout, int8) come from the overload rung. Any correctness check
 * failure exits 1.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/progressive.hh"
#include "core/pipeline.hh"
#include "core/scale_model.hh"
#include "core/staged_engine.hh"
#include "image/image.hh"
#include "image/metrics.hh"
#include "nn/builders.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "sim/accuracy_model.hh"
#include "sim/dataset.hh"
#include "storage/decode_cache.hh"
#include "storage/fault_injection.hh"
#include "util/rng.hh"
#include "util/simd.hh"

#include "timed_store.hh"

using namespace tamres;
using perfbench::FetchRecord;
using perfbench::TimedObjectStore;

namespace {

// ------------------------------------------------------------------
// Clock and host
// ------------------------------------------------------------------

using Steady = std::chrono::steady_clock;
const Steady::time_point kProcessStart = Steady::now();

double
nowS()
{
    return std::chrono::duration<double>(Steady::now() - kProcessStart)
        .count();
}

void
sleepUntilS(double t)
{
    std::this_thread::sleep_until(
        kProcessStart + std::chrono::duration_cast<Steady::duration>(
                            std::chrono::duration<double>(t)));
}

int
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double
peakRssMb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::atof(line + 6);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Continued fraction of the incomplete beta function (Lentz). */
double
betaCf(double a, double b, double x)
{
    constexpr double kTiny = 1e-300;
    auto clampTiny = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
    double c = 1.0;
    double d = 1.0 / clampTiny(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 400; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
        d = 1.0 / clampTiny(1.0 + aa * d);
        c = clampTiny(1.0 + aa / c);
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
        d = 1.0 / clampTiny(1.0 + aa * d);
        c = clampTiny(1.0 + aa / c);
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-14)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
betaInc(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                  std::lgamma(b) + a * std::log(x) +
                                  b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaCf(a, b, x) / a;
    return 1.0 - front * betaCf(b, a, 1.0 - x) / b;
}

/**
 * Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
 * all order statistics, which varies less from run to run than the
 * one or two order statistics a plain sample quantile uses — what a
 * p95 of a few hundred requests needs. 0 when empty.
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
    double est = 0.0, prev = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
        const double cur = betaInc(a, b, static_cast<double>(i + 1) / n);
        est += (cur - prev) * v[i];
        prev = cur;
    }
    return est;
}

/** Plain sample median (midpoint of the middle pair). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/**
 * One traffic mix over the common deployment. The corpus (what is
 * stored) is fixed per workload; --seed drives the traffic: arrival
 * times and which object each request names.
 */
struct Workload
{
    const char *name;
    DatasetSpec data;
    uint64_t corpus_seed;  //!< dataset seed of the stored corpus
    int corpus;            //!< stored objects
    double crop;           //!< center-crop area fraction
    bool remote;           //!< latency-injecting storage tier
    double zipf;           //!< popularity exponent, 0 = uniform
    double nominal_rps;    //!< main-phase offered load (mean)
    double limit_ms;       //!< p95 latency limit; overload deadline
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        // Backbone-bound: native-size ImageNet-like objects from an
        // in-memory store, uniform popularity over a corpus well past
        // the decode cache, so nn and engine changes show here and
        // storage and cache changes should not.
        {"imagenet_local", imagenetLike(), 7001, 48, 0.75, false, 0.0,
         5.0, 1500.0},
        // Storage-bound tail: larger Cars-like objects behind a remote
        // tier (5 ms fixed delay + Pareto tail), a 0.25 crop that
        // zooms in so low resolutions win, Zipf(1.0) popularity over
        // a hot set larger than the cache. Hedging, retries, the
        // decode cache and the codec move this workload.
        {"cars_remote_zipf", carsLike(), 7002, 48, 0.25, true, 1.0,
         5.0, 1200.0},
    };
    return w;
}

// ------------------------------------------------------------------
// The deployment (identical in every workload)
// ------------------------------------------------------------------

constexpr int kPreviewScans = 2;
constexpr int kMaxBatch = 2;
constexpr size_t kCacheBytes = 24u << 20;
constexpr int kSetupReps = 3;
constexpr int kWindows = 3; //!< main-phase latency windows
/**
 * Steady rate-ladder rungs, x nominal: one comfortably below the
 * deployment's capacity (~10 req/s on 4 cores for both workloads),
 * one well above it, so both rungs' scores are steady and the
 * interpolated crossing is too.
 */
const std::vector<double> kLadder = {1.6, 4.0};
/** The overload rung, x nominal: far above capacity, with deadlines. */
constexpr double kOverloadX = 6.0;

/**
 * Total scans each grid resolution reads: the preview prefix for the
 * lowest resolution, one more scan every two grid steps above it — a
 * fixed monotone bytes-for-resolution schedule (uncalibrated).
 */
int
scanDepth(int r_idx, int num_scans)
{
    static const int depth[] = {2, 3, 3, 4, 4, 5, 5};
    const int i = std::clamp(r_idx, 0, 6);
    return std::min(depth[i], num_scans);
}

struct Deployment
{
    const Workload *w = nullptr;
    int cpus = 1;
    std::unique_ptr<SyntheticDataset> corpus;
    std::vector<uint64_t> ids;         //!< corpus index -> object id
    ObjectStore store;
    std::unique_ptr<FaultyObjectStore> remote;
    ObjectStore *tier = nullptr;       //!< what the engine reads
    std::unique_ptr<ScaleModel> scale;
    std::unique_ptr<Graph> fp32;
    std::unique_ptr<Graph> int8;
    std::unique_ptr<DecodeCache> cache;
    std::unique_ptr<TimedObjectStore> timed; //!< traced pass only
    std::unique_ptr<StagedServingEngine> engine;
    ReadStats reads_at_start; //!< tier's meter when the engine started

    ~Deployment()
    {
        engine.reset();
        if (cache)
            store.detachCache(cache.get());
    }
};

/** Swap in a fresh decode cache and an engine reading @p tier. */
void
startEngine(Deployment &d, ObjectStore &tier)
{
    d.engine.reset();
    if (d.cache)
        d.store.detachCache(d.cache.get());
    DecodeCacheConfig cc;
    cc.capacity_bytes = kCacheBytes;
    d.cache = std::make_unique<DecodeCache>(cc);
    d.store.attachCache(d.cache.get());

    StagedEngineConfig cfg;
    cfg.preview_scans = kPreviewScans;
    cfg.crop_area = d.w->crop;
    cfg.decode_workers = d.cpus;
    cfg.decode_batch = 1;
    cfg.queue_capacity = 256;
    ObjectStore *store = &d.store;
    cfg.scan_depth = [store](uint64_t id, int r_idx) {
        return scanDepth(r_idx, store->peek(id).numScans());
    };
    cfg.cache = d.cache.get();
    cfg.overload.hedge.enable = true;
    BrownoutConfig &bo = cfg.overload.brownout;
    bo.enable = true;
    bo.window_s = 1.0; // the overload rung yields >= min_samples
    bo.min_samples = 8;
    bo.int8_tier = 1;     // precision first ...
    bo.resolution_cap = 224; // ... then resolution (tier 2)
    bo.max_tier = 2;      // shed quality, never refuse admission
    cfg.backbone.workers = d.cpus;
    cfg.backbone.max_batch = kMaxBatch;
    cfg.backbone.max_delay_us = 2000;
    cfg.backbone.queue_capacity = 256;
    cfg.backbone.quant_graph = d.int8.get();
    for (int r : paperResolutions())
        cfg.backbone.warm_shapes.push_back(Shape{1, 3, r, r});
    d.reads_at_start = d.tier->stats();
    d.engine = std::make_unique<StagedServingEngine>(tier, *d.scale,
                                                     d.fp32.get(), cfg);
}

/** The backbone input exactly as the staged engine prepares it. */
Tensor
backboneInput(const Image &decoded, double crop, int res)
{
    const Image sized = resize(centerCropFraction(decoded, crop), res, res);
    Tensor t(Shape{1, 3, res, res});
    std::copy_n(sized.data(), sized.numel(), t.data());
    return t;
}

/** Serve one object per backbone worker and wait for them. */
void
warmUp(Deployment &d)
{
    std::vector<std::unique_ptr<StagedRequest>> warm;
    for (int i = 0; i < d.cpus && i < d.w->corpus; ++i) {
        warm.push_back(std::make_unique<StagedRequest>());
        warm.back()->id = d.ids[static_cast<size_t>(i)];
        d.engine->submit(*warm.back());
    }
    for (auto &r : warm)
        d.engine->wait(*r);
}

/** Build the whole deployment, serve the warm-up, ready for traffic. */
std::unique_ptr<Deployment>
buildDeployment(const Workload &w, int cpus)
{
    auto d = std::make_unique<Deployment>();
    d->w = &w;
    const double t0 = nowS();
    d->cpus = cpus;

    // Ingest (render + progressively encode the corpus), scale-model
    // training and backbone construction are independent: run them
    // side by side, the corpus spread over the host's cores.
    d->corpus = std::make_unique<SyntheticDataset>(w.data, w.corpus,
                                                   w.corpus_seed);
    std::vector<EncodedImage> enc(static_cast<size_t>(w.corpus));
    {
        ProgressiveConfig pc;
        pc.quality = w.data.encode_quality;
        std::vector<std::thread> th;
        for (int t = 0; t < cpus; ++t) {
            th.emplace_back([&, t] {
                for (int i = t; i < w.corpus; i += cpus)
                    enc[static_cast<size_t>(i)] =
                        encodeProgressive(d->corpus->render(i), pc);
            });
        }
        // Scale model on the paper's grid, trained on held-out images
        // of the same dataset profile.
        th.emplace_back([&] {
            ScaleModelOptions so;
            so.epochs = 40;
            d->scale = std::make_unique<ScaleModel>(paperResolutions(), so);
            const SyntheticDataset train(w.data, 128, w.corpus_seed + 1);
            d->scale->train(train, 0, 128, BackboneArch::ResNet18,
                            {0.25, 0.5, 0.75, 1.0}, 112);
        });
        th.emplace_back([&] {
            d->fp32 = buildResNet18(1000, 1);
            optimizeForInference(*d->fp32);
            d->int8 = buildResNet18(1000, 1);
            optimizeForInference(*d->int8);
        });
        for (auto &t : th)
            t.join();
    }
    for (int i = 0; i < w.corpus; ++i) {
        const uint64_t id = d->corpus->record(i).id;
        d->ids.push_back(id);
        d->store.put(id, std::move(enc[static_cast<size_t>(i)]));
    }
    if (w.remote) {
        FaultPolicy fp;
        fp.seed = 0xfe7c4;
        fp.latency_fixed_s = 5e-3;
        fp.latency_tail_p = 0.1;
        fp.latency_tail_scale_s = 0.02;
        fp.latency_max_s = 0.1;
        d->remote = std::make_unique<FaultyObjectStore>(d->store, fp);
        d->tier = d->remote.get();
    } else {
        d->tier = &d->store;
    }
    const double t_built = nowS();

    // The int8 twin, with static activation scales calibrated on a
    // stored object (static scales keep int8 batching bit-identical
    // to batch 1).
    {
        const Tensor cal_in = backboneInput(
            decodeProgressive(d->store.peek(d->ids[0])), w.crop, 224);
        const QuantCalibration cal = calibrateActivations(*d->int8, {cal_in});
        quantizeConvs(*d->int8, &cal);
    }
    const double t_quant = nowS();

    startEngine(*d, *d->tier);
    warmUp(*d);
    std::printf("  setup: ingest + scale model + graphs %.2f s, quantize "
                "%.2f s, engine + warm-up %.2f s\n",
                t_built - t0, t_quant - t_built, nowS() - t_quant);
    return d;
}

// ------------------------------------------------------------------
// Traffic
// ------------------------------------------------------------------

struct Arrival
{
    double t = 0; //!< seconds after phase start
    int obj = 0;  //!< corpus index
};

struct Phase
{
    double rate = 0;       //!< mean offered load
    double dur_s = 0;
    double deadline_s = 0; //!< per-request deadline, 0 = none
    std::vector<Arrival> arrivals;
};

/**
 * Object popularity (uniform, or Zipf over corpus rank). A phase's n
 * draws are a systematic sample of the popularity CDF, so every seed
 * serves the same popularity mix (each object floor or ceil of its
 * expected count) and differs in order and timing only.
 */
class Popularity
{
  public:
    Popularity(int n, double zipf)
    {
        double sum = 0;
        for (int i = 0; i < n; ++i) {
            sum += zipf > 0 ? 1.0 / std::pow(i + 1.0, zipf) : 1.0;
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }

    /** @p count draws in popularity-rank order (not shuffled). */
    std::vector<int> draw(size_t count, Rng &rng) const
    {
        std::vector<int> out;
        const double offset = rng.uniform();
        for (size_t k = 0; k < count; ++k) {
            const double u = (static_cast<double>(k) + offset) /
                             static_cast<double>(count);
            const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
            out.push_back(std::min(static_cast<int>(cdf_.size()) - 1,
                                   static_cast<int>(it - cdf_.begin())));
        }
        return out;
    }

  private:
    std::vector<double> cdf_;
};

/**
 * Open-loop arrivals at mean @p rate for @p dur_s, in @p strata equal
 * time slices. The phase's popularity sample is dealt round-robin to
 * the slices, so every slice — every latency window of summarize() —
 * serves the same object mix; within a slice, arrivals are a Poisson
 * process conditioned on its count (placed uniformly at random) and
 * name its objects in shuffled order.
 */
Phase
makePhase(const Workload &w, double rate, double dur_s, double deadline_s,
          int strata, uint64_t seed)
{
    Phase p;
    p.rate = rate;
    p.dur_s = dur_s;
    p.deadline_s = deadline_s;
    Rng rng(seed);
    const std::vector<int> objs = Popularity(w.corpus, w.zipf).draw(
        static_cast<size_t>(std::lround(rate * dur_s)), rng);
    const double len = dur_s / strata;
    for (int k = 0; k < strata; ++k) {
        std::vector<int> mine;
        for (size_t i = static_cast<size_t>(k); i < objs.size();
             i += static_cast<size_t>(strata))
            mine.push_back(objs[i]);
        for (size_t i = mine.size(); i > 1; --i)
            std::swap(mine[i - 1], mine[rng.uniformInt(i)]);
        std::vector<double> times;
        for (size_t i = 0; i < mine.size(); ++i)
            times.push_back(len * (k + rng.uniform()));
        std::sort(times.begin(), times.end());
        for (size_t i = 0; i < mine.size(); ++i)
            p.arrivals.push_back({times[i], mine[i]});
    }
    return p;
}

struct Slot
{
    StagedRequest req;
    int obj = 0;
    double sched_s = 0; //!< scheduled send (harness clock)
    double sub_s = 0;   //!< actual submit
    double done_s = 0;  //!< terminal observed by a waiter
    bool admitted = false;
};

bool
served(const Slot &s)
{
    const StagedState st = s.req.stateNow();
    return st == StagedState::Done || st == StagedState::Degraded;
}

double
e2eMs(const Slot &s)
{
    return (s.sub_s - s.sched_s + s.req.latency_s) * 1e3;
}

struct PhaseRun
{
    const Phase *phase = nullptr;
    std::vector<std::unique_ptr<Slot>> slots;
    double start_s = 0;
    double end_s = 0;          //!< last terminal observed
    size_t backlog_at_end = 0; //!< outstanding when sending stopped
    ReadStats store_before, store_after;
};

/**
 * Send @p phase open-loop from this (the generator) thread, collect
 * every terminal on waiter threads, and return once all are terminal.
 */
PhaseRun
runPhase(Deployment &d, const Phase &phase, int waiters)
{
    PhaseRun run;
    run.phase = &phase;
    const size_t n = phase.arrivals.size();
    for (size_t i = 0; i < n; ++i) {
        run.slots.push_back(std::make_unique<Slot>());
        run.slots.back()->obj = phase.arrivals[i].obj;
        run.slots.back()->req.id =
            d.ids[static_cast<size_t>(phase.arrivals[i].obj)];
    }
    run.store_before = d.tier->stats();

    std::mutex mu;
    std::condition_variable cv;
    size_t submitted = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::vector<std::thread> th;
    for (int k = 0; k < waiters; ++k) {
        th.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return submitted > i; });
                }
                Slot &s = *run.slots[i];
                d.engine->wait(s.req);
                s.done_s = nowS();
                s.req.infer.input = Tensor(); // keep memory flat
                completed.fetch_add(1);
            }
        });
    }

    run.start_s = nowS() + 0.01;
    for (size_t i = 0; i < n; ++i) {
        Slot &s = *run.slots[i];
        s.sched_s = run.start_s + phase.arrivals[i].t;
        sleepUntilS(s.sched_s);
        s.sub_s = nowS();
        if (phase.deadline_s > 0)
            s.req.deadline_s =
                std::max(1e-6, phase.deadline_s - (s.sub_s - s.sched_s));
        s.admitted = d.engine->submit(s.req);
        {
            std::lock_guard<std::mutex> lock(mu);
            submitted = i + 1;
        }
        cv.notify_all();
    }
    sleepUntilS(run.start_s + phase.dur_s);
    run.backlog_at_end = n - completed.load();
    for (auto &t : th)
        t.join();
    run.end_s = run.start_s + phase.dur_s;
    for (const auto &sp : run.slots)
        run.end_s = std::max(run.end_s, sp->done_s);
    run.store_after = d.tier->stats();
    return run;
}

// ------------------------------------------------------------------
// Metrics
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct PhaseSummary
{
    size_t sent = 0;
    size_t served = 0;
    size_t ok = 0;
    size_t late = 0;            //!< served after the deadline
    size_t failed_terminal = 0; //!< StagedState::Failed
    double p50_ms = 0;
    double p95_ms = 0;
    double fail_frac = 0;
    double goodput_rps = 0;
    /**
     * How far the phase is from its service-level objective: the
     * largest of p95 / limit, fail_frac / 1% and backlog / the
     * backlog a steady queue can hold. At most 1 meets the SLO.
     */
    double load_score = 0;
};

PhaseSummary
summarize(const Deployment &d, const PhaseRun &run, int windows)
{
    PhaseSummary s;
    s.sent = run.slots.size();
    // Served latencies per window: equal slices of the phase by
    // scheduled send time.
    std::vector<std::vector<double>> lat(static_cast<size_t>(windows));
    const double deadline_s = run.phase->deadline_s;
    const double limit_ms = deadline_s > 0 ? deadline_s * 1e3 : d.w->limit_ms;
    for (const auto &sp : run.slots) {
        if (sp->req.stateNow() == StagedState::Failed)
            ++s.failed_terminal;
        if (!served(*sp))
            continue;
        ++s.served;
        const double ms = e2eMs(*sp);
        const double at = (sp->sched_s - run.start_s) / run.phase->dur_s;
        lat[std::min(static_cast<size_t>(windows - 1),
                     static_cast<size_t>(std::max(0.0, at) * windows))]
            .push_back(ms);
        if (ms <= limit_ms)
            ++s.ok;
        else if (deadline_s > 0)
            ++s.late;
    }
    // Both quantiles are medians over windows, so a few seconds of
    // outside interference cannot move them alone.
    std::vector<double> p50, p95;
    for (const auto &v : lat) {
        if (v.empty())
            continue;
        p50.push_back(quantile(v, 0.5));
        p95.push_back(quantile(v, 0.95));
    }
    s.p50_ms = median(p50);
    s.p95_ms = median(p95);
    // Failures: every request not served, plus those served after
    // their deadline (the latency limit alone is not a failure).
    s.fail_frac = s.sent ? static_cast<double>(s.sent - s.served + s.late) /
                               static_cast<double>(s.sent)
                         : 0.0;
    s.goodput_rps = static_cast<double>(s.ok) / (run.end_s - run.start_s);
    // Little's law: within the limit, at most rate x limit requests
    // are in the system; more outstanding when sending stops means
    // the queue outgrew the service rate.
    const double steady_backlog =
        run.phase->rate * d.w->limit_ms * 1e-3 + 2.0 * d.cpus;
    s.load_score = std::max({s.p95_ms / d.w->limit_ms, s.fail_frac / 0.01,
                             static_cast<double>(run.backlog_at_end) /
                                 steady_backlog});
    return s;
}

/**
 * slo_rps: the highest ladder rate whose p95 is within the limit,
 * fail_frac <= 1% and backlog steady, interpolated linearly on the
 * load score towards the next (failing) step; from rate 0 at score 0
 * when no step passes. Load cannot fall as the rate rises, so the
 * scores are first made monotone (pool-adjacent-violators): one noisy
 * step then shifts the estimate instead of flipping it. The last step
 * is the overload rung, whose expiries fail it at any capacity below
 * its rate, so the estimate does not stop at the top steady rung.
 */
double
sloRps(const std::vector<std::pair<double, PhaseSummary>> &steps)
{
    // Pool adjacent violators: blocks of (mean score, weight).
    std::vector<std::pair<double, double>> blocks;
    for (const auto &step : steps) {
        blocks.push_back({step.second.load_score, 1.0});
        while (blocks.size() > 1 &&
               blocks[blocks.size() - 2].first > blocks.back().first) {
            const auto [v, w] = blocks.back();
            blocks.pop_back();
            auto &prev = blocks.back();
            prev.first = (prev.first * prev.second + v * w) / (prev.second + w);
            prev.second += w;
        }
    }
    std::vector<double> score;
    for (const auto &[v, w] : blocks)
        score.insert(score.end(), static_cast<size_t>(w), v);

    double r0 = 0.0, s0 = 0.0;
    for (size_t i = 0; i < steps.size(); ++i) {
        const double r1 = steps[i].first, s1 = score[i];
        if (s1 > 1.0)
            return r0 + (r1 - r0) * (1.0 - s0) / (s1 - s0);
        r0 = r1;
        s0 = s1;
    }
    return r0;
}

/** SSIM of the served-depth input vs the full-depth one, memoized. */
class QualityMemo
{
  public:
    using Key = std::tuple<int, int, int>; //!< (corpus index, scans, res)

    void need(int obj, int scans, int res) { keys_[{obj, scans, res}] = 1.0; }

    /** Compute every needed key on @p threads threads. */
    void compute(const Deployment &d, int threads)
    {
        std::vector<Key> todo;
        for (const auto &[k, v] : keys_) {
            const int num_scans =
                d.store.peek(d.ids[static_cast<size_t>(std::get<0>(k))])
                    .numScans();
            if (std::get<1>(k) < num_scans)
                todo.push_back(k);
        }
        std::vector<double> out(todo.size(), 1.0);
        std::atomic<size_t> next{0};
        std::vector<std::thread> th;
        for (int t = 0; t < threads; ++t) {
            th.emplace_back([&] {
                for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
                    const auto [obj, scans, res] = todo[i];
                    const EncodedImage &e =
                        d.store.peek(d.ids[static_cast<size_t>(obj)]);
                    const Image a = resize(
                        centerCropFraction(decodeProgressive(e, scans),
                                           d.w->crop),
                        res, res);
                    const Image b = resize(
                        centerCropFraction(decodeProgressive(e), d.w->crop),
                        res, res);
                    out[i] = ssim(a, b);
                }
            });
        }
        for (auto &t : th)
            t.join();
        for (size_t i = 0; i < todo.size(); ++i)
            keys_[todo[i]] = out[i];
    }

    double at(int obj, int scans, int res) const
    {
        return keys_.at({obj, scans, res});
    }

  private:
    std::map<Key, double> keys_;
};

// ------------------------------------------------------------------
// Correctness
// ------------------------------------------------------------------

/**
 * Stop the engine, store its final stats in *out and check, over its
 * whole life: terminal conservation, and engine-metered bytes equal
 * to the bytes the storage tier metered since the engine started.
 */
bool
stopAndCheck(Deployment &d, StagedStats *out)
{
    d.engine->stop();
    const StagedStats &s = *out = d.engine->stats();
    bool ok = true;
    const uint64_t terminals = s.done + s.degraded + s.failed + s.expired +
                               s.shed_admission + s.rejected + s.cancelled;
    if (s.admitted != terminals) {
        std::fprintf(stderr,
                     "FAIL terminal conservation: admitted %llu != %llu\n",
                     static_cast<unsigned long long>(s.admitted),
                     static_cast<unsigned long long>(terminals));
        ok = false;
    }
    const uint64_t metered =
        d.tier->stats().bytes_read - d.reads_at_start.bytes_read;
    if (s.bytes_read != metered) {
        std::fprintf(stderr,
                     "FAIL engine bytes_read %llu != store-metered %llu\n",
                     static_cast<unsigned long long>(s.bytes_read),
                     static_cast<unsigned long long>(metered));
        ok = false;
    }
    return ok;
}

/**
 * Recompute a sample of served outputs from scratch — decode at
 * scans_read, crop/resize, batch-1 runInto on the graph of the served
 * precision — and require bitwise equality. The sample starts with
 * one int8 output when @p pool holds any (the overload rung serves
 * them).
 */
bool
checkOutputs(Deployment &d, const std::vector<const Slot *> &pool,
             uint64_t seed, int samples, int *checked, int *checked_int8)
{
    std::vector<const Slot *> pick;
    Rng rng(mixSeed(seed, 77));
    std::vector<const Slot *> rest = pool;
    // One int8 output first when any was served, then random picks.
    for (size_t i = 0; i < rest.size(); ++i) {
        if (rest[i]->req.infer.served_int8) {
            pick.push_back(rest[i]);
            rest.erase(rest.begin() + static_cast<long>(i));
            break;
        }
    }
    while (static_cast<int>(pick.size()) < samples && !rest.empty()) {
        const size_t i = rng.uniformInt(static_cast<uint64_t>(rest.size()));
        pick.push_back(rest[i]);
        rest.erase(rest.begin() + static_cast<long>(i));
    }
    // One thread per sample, each on its own executor (executors of
    // one graph may run concurrently).
    std::vector<char> same(pick.size(), 0);
    std::vector<std::thread> th;
    for (size_t k = 0; k < pick.size(); ++k) {
        th.emplace_back([&, k] {
            const StagedRequest &r = pick[k]->req;
            const Tensor in = backboneInput(
                decodeProgressive(d.store.peek(r.id), r.scans_read),
                d.w->crop, r.resolution);
            Graph::Executor exec(r.infer.served_int8 ? *d.int8 : *d.fp32);
            Tensor out;
            exec.runInto(in, out);
            const Tensor &got = r.infer.output;
            same[k] = got.shape() == out.shape() &&
                      std::memcmp(got.data(), out.data(),
                                  static_cast<size_t>(out.numel()) *
                                      sizeof(float)) == 0;
        });
    }
    for (auto &t : th)
        t.join();
    bool ok = true;
    for (size_t k = 0; k < pick.size(); ++k) {
        if (same[k])
            continue;
        const StagedRequest &r = pick[k]->req;
        std::fprintf(stderr,
                     "FAIL output of object %llu (res %d, scans %d, %s) "
                     "differs from the reference recomputation\n",
                     static_cast<unsigned long long>(r.id), r.resolution,
                     r.scans_read, r.infer.served_int8 ? "int8" : "fp32");
        ok = false;
    }
    *checked = static_cast<int>(pick.size());
    *checked_int8 = static_cast<int>(
        std::count_if(pick.begin(), pick.end(), [](const Slot *s) {
            return s->req.infer.served_int8;
        }));
    return ok;
}

// ------------------------------------------------------------------
// Traced-run attribution
// ------------------------------------------------------------------

struct TraceOut
{
    size_t spans = 0;
    size_t unattributed = 0;
};

/**
 * Write per-request spans — request, staged, fetch (attributed by
 * object id and time window), backbone.queue, backbone.exec — as JSON
 * lines. A fetch matching no request window, or more than one, is
 * counted unattributed.
 */
TraceOut
writeSpans(const std::string &path, const PhaseRun &run,
           const std::vector<FetchRecord> &fetches)
{
    TraceOut out;
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return out;
    }
    auto span = [&](size_t req, const char *name, const char *parent,
                    double a, double b, uint64_t obj) {
        std::fprintf(f,
                     "{\"req\": %zu, \"span\": \"%s\", \"parent\": %s%s%s, "
                     "\"start_ms\": %.4f, \"end_ms\": %.4f, \"obj\": %llu}\n",
                     req, name, parent ? "\"" : "", parent ? parent : "null",
                     parent ? "\"" : "", a * 1e3, b * 1e3,
                     static_cast<unsigned long long>(obj));
        ++out.spans;
    };
    std::multimap<uint64_t, size_t> by_obj;
    for (size_t i = 0; i < run.slots.size(); ++i) {
        const Slot &s = *run.slots[i];
        const StagedRequest &r = s.req;
        span(i, "request", nullptr, s.sched_s, s.sub_s + r.latency_s, r.id);
        if (!s.admitted)
            continue;
        by_obj.emplace(r.id, i);
        const double handoff = s.sub_s + r.decode_s;
        span(i, "staged", "request", s.sub_s, handoff, r.id);
        if (r.stateNow() == StagedState::Done ||
            r.stateNow() == StagedState::Degraded) {
            const double q_end = handoff + r.infer.queue_s;
            span(i, "backbone.queue", "request", handoff, q_end, r.id);
            span(i, "backbone.exec", "request", q_end,
                 handoff + r.infer.latency_s, r.id);
        }
    }
    constexpr double kSlack = 2e-3; // engine vs harness clock stamps
    for (const FetchRecord &fr : fetches) {
        size_t match = 0, hits = 0;
        const auto [lo, hi] = by_obj.equal_range(fr.id);
        for (auto it = lo; it != hi; ++it) {
            const Slot &s = *run.slots[it->second];
            if (fr.start_s >= s.sub_s - kSlack &&
                fr.end_s <= s.sub_s + s.req.decode_s + kSlack) {
                match = it->second;
                ++hits;
            }
        }
        if (hits == 1)
            span(match, "fetch", "staged", fr.start_s, fr.end_s, fr.id);
        else
            ++out.unattributed;
    }
    std::fclose(f);
    return out;
}

/** Union length of [start, end) intervals. */
double
busySeconds(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double busy = 0, cur_a = 0, cur_b = -1;
    for (const auto &[a, b] : iv) {
        if (a > cur_b) {
            if (cur_b > cur_a)
                busy += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    if (cur_b > cur_a)
        busy += cur_b - cur_a;
    return busy;
}

// ------------------------------------------------------------------
// Entry point
// ------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string out_dir = ".";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out-dir")
            a.out_dir = v;
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0;
}

/** The overload rung and the engine's counters around it. */
struct OverloadRun
{
    PhaseRun run;
    StagedStats before, after;
};

/**
 * The traced pass: the main phase again on a fresh engine that reads
 * through the fetch-timing decorator, with decode-queue sampling and
 * per-request spans. Returns the storage, cache, staged, backbone,
 * generator and trace metrics; *tsum summarizes the pass. The
 * overload counters (shed, expired, rejected, brownout, int8 share
 * and int8 throughput) come from @p over: the main phase never
 * overloads the engine.
 */
std::vector<Metric>
tracedPass(Deployment &d, const Phase &phase, const OverloadRun &over,
           const Args &args, int waiters, PhaseSummary *tsum, bool *correct)
{
    d.timed = std::make_unique<TimedObjectStore>(*d.tier, nowS);
    startEngine(d, *d.timed);
    warmUp(d);
    const StagedStats base = d.engine->stats();
    const ReadStats store0 = d.tier->stats();
    d.timed->clearRecords();

    std::atomic<bool> sampling{true};
    std::vector<double> depth;
    std::thread sampler([&] {
        while (sampling.load()) {
            depth.push_back(d.engine->stats().decode_queue_depth);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });
    const PhaseRun tr = runPhase(d, phase, waiters);
    sampling = false;
    sampler.join();
    StagedStats ts;
    *correct = stopAndCheck(d, &ts) && *correct;
    const ReadStats store1 = d.tier->stats();
    *tsum = summarize(d, tr, kWindows);

    const std::vector<FetchRecord> fetches = d.timed->records();
    const std::string span_path = args.out_dir + "/spans_" + d.w->name +
                                  "_" + std::to_string(args.seed) + ".jsonl";
    const TraceOut tro = writeSpans(span_path, tr, fetches);
    std::printf("%s: spans -> %s\n", d.w->name, span_path.c_str());

    auto delta = [&](uint64_t StagedStats::*f) {
        return static_cast<double>(ts.*f - base.*f);
    };
    auto over_delta = [&](uint64_t StagedStats::*f) {
        return static_cast<double>(over.after.*f - over.before.*f);
    };
    std::vector<Metric> m;

    // storage.*
    std::vector<double> fetch_ms;
    std::vector<std::pair<double, double>> iv;
    double fbytes = 0, stage4 = 0;
    for (const FetchRecord &fr : fetches) {
        fetch_ms.push_back((fr.end_s - fr.start_s) * 1e3);
        iv.push_back({fr.start_s, fr.end_s});
        fbytes += static_cast<double>(fr.bytes);
        stage4 += fr.from_scans > 0 ? 1 : 0;
    }
    const double nf = static_cast<double>(fetches.size());
    const double full =
        static_cast<double>(store1.bytes_full - store0.bytes_full);
    const double read =
        static_cast<double>(store1.bytes_read - store0.bytes_read);
    m.push_back({"storage.fetches", nf, "count"});
    m.push_back({"storage.fetch_ms.p50", quantile(fetch_ms, 0.5), "ms"});
    m.push_back({"storage.fetch_ms.p95", quantile(fetch_ms, 0.95), "ms"});
    m.push_back({"storage.busy_s", busySeconds(iv), "s"});
    m.push_back({"storage.bytes", fbytes, "bytes"});
    m.push_back({"storage.stage4_share", nf > 0 ? stage4 / nf : 0.0, "ratio"});
    m.push_back({"storage.read_fraction", full > 0 ? read / full : 0.0,
                 "ratio"});
    m.push_back({"storage.retries", delta(&StagedStats::retries), "count"});
    m.push_back({"storage.hedges_issued", delta(&StagedStats::hedges_issued),
                 "count"});
    m.push_back({"storage.hedge_wins", delta(&StagedStats::hedge_wins),
                 "count"});

    // cache.*
    const double lookups =
        delta(&StagedStats::cache_hits) + delta(&StagedStats::cache_misses);
    const double hits =
        delta(&StagedStats::cache_hits) + delta(&StagedStats::cache_resumes);
    m.push_back({"cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                 "ratio"});
    m.push_back({"cache.bytes_saved", delta(&StagedStats::cache_bytes_saved),
                 "bytes"});
    m.push_back({"cache.evictions",
                 static_cast<double>(ts.cache.evictions - base.cache.evictions),
                 "count"});

    // staged.* and backbone.*, from the served requests
    const auto &grid = paperResolutions();
    std::vector<double> decode_ms, queue_ms, exec_ms;
    std::map<int, double> res_count;
    // (resolution, int8) -> (GMACs, batch-shared execution seconds):
    // fp32 from the traced main phase, int8 from the overload rung.
    std::map<std::pair<int, bool>, std::pair<double, double>> work;
    auto addWork = [&](const StagedRequest &r) {
        auto &wk = work[{r.resolution, r.infer.served_int8}];
        wk.first += backboneGflops(BackboneArch::ResNet18, r.resolution);
        wk.second += (r.infer.latency_s - r.infer.queue_s) /
                     std::max(1, r.infer.batch);
    };
    double n_served = 0;
    for (const auto &sp : tr.slots) {
        if (!served(*sp))
            continue;
        const StagedRequest &r = sp->req;
        n_served += 1;
        decode_ms.push_back(r.decode_s * 1e3);
        queue_ms.push_back(r.infer.queue_s * 1e3);
        exec_ms.push_back((r.infer.latency_s - r.infer.queue_s) * 1e3);
        res_count[r.resolution] += 1;
        if (!r.infer.served_int8)
            addWork(r);
    }
    double over_served = 0, over_int8 = 0;
    for (const auto &sp : over.run.slots) {
        if (!served(*sp))
            continue;
        over_served += 1;
        if (sp->req.infer.served_int8) {
            over_int8 += 1;
            addWork(sp->req);
        }
    }
    double depth_sum = 0;
    for (double v : depth)
        depth_sum += v;
    m.push_back({"staged.decode_ms.p50", quantile(decode_ms, 0.5), "ms"});
    m.push_back({"staged.decode_ms.p95", quantile(decode_ms, 0.95), "ms"});
    m.push_back({"staged.queue_depth.mean",
                 depth.empty() ? 0.0
                               : depth_sum / static_cast<double>(depth.size()),
                 "count"});
    for (int r : grid)
        m.push_back({"staged.res_share." + std::to_string(r),
                     n_served > 0 ? res_count[r] / n_served : 0.0, "ratio"});
    m.push_back({"staged.shed", over_delta(&StagedStats::shed_admission),
                 "count"});
    m.push_back({"staged.expired", over_delta(&StagedStats::expired),
                 "count"});
    m.push_back({"staged.rejected", over_delta(&StagedStats::rejected),
                 "count"});
    m.push_back({"staged.tier_drops", over_delta(&StagedStats::tier_drops),
                 "count"});
    m.push_back({"staged.brownout_capped",
                 over_delta(&StagedStats::brownout_capped), "count"});
    m.push_back({"staged.brownout_int8",
                 over_delta(&StagedStats::brownout_int8), "count"});
    m.push_back({"backbone.queue_ms.p50", quantile(queue_ms, 0.5), "ms"});
    m.push_back({"backbone.queue_ms.p95", quantile(queue_ms, 0.95), "ms"});
    m.push_back({"backbone.exec_ms.p50", quantile(exec_ms, 0.5), "ms"});
    m.push_back({"backbone.exec_ms.p95", quantile(exec_ms, 0.95), "ms"});
    const double batches =
        static_cast<double>(ts.backbone.batches - base.backbone.batches);
    const double bserved =
        static_cast<double>(ts.backbone.served - base.backbone.served);
    m.push_back({"backbone.mean_batch", batches > 0 ? bserved / batches : 0.0,
                 "count"});
    m.push_back({"backbone.int8_share",
                 over_served > 0 ? over_int8 / over_served : 0.0, "ratio"});
    for (int r : grid) {
        for (bool q : {false, true}) {
            const auto it = work.find({r, q});
            const double v = it != work.end() && it->second.second > 0
                                 ? it->second.first / it->second.second
                                 : 0.0;
            m.push_back({"backbone.gmacs_per_s." + std::to_string(r) +
                             (q ? ".int8" : ".fp32"),
                         v, "GMAC/s"});
        }
    }

    // gen.* and trace.*: how late the generator ran, span bookkeeping
    std::vector<double> lag_ms;
    for (const auto &sp : tr.slots)
        lag_ms.push_back((sp->sub_s - sp->sched_s) * 1e3);
    m.push_back({"gen.lag_ms.p99", quantile(lag_ms, 0.99), "ms"});
    m.push_back({"gen.sent", static_cast<double>(tr.slots.size()), "count"});
    m.push_back({"trace.spans", static_cast<double>(tro.spans), "count"});
    m.push_back({"trace.unattributed_fetches",
                 static_cast<double>(tro.unattributed), "count"});
    return m;
}

/**
 * Serial, uncontended probe of each layer on the workload's own
 * objects: its share of the blocking path with nothing else running.
 */
void
probeLayers(Deployment &d, std::vector<Metric> *m)
{
    constexpr int kProbeObjects = 8;
    const Workload &w = *d.w;
    const auto &grid = paperResolutions();
    std::vector<double> preview_ms, resume_ms, crop_ms, choose_ms;
    for (int i = 0; i < kProbeObjects && i < w.corpus; ++i) {
        const EncodedImage &e = d.store.peek(d.ids[static_cast<size_t>(i)]);
        double a = nowS();
        ProgressiveDecoder dec(e);
        dec.advanceTo(std::min(kPreviewScans, e.numScans()));
        const Image preview = dec.image();
        preview_ms.push_back((nowS() - a) * 1e3);
        a = nowS();
        const int input_res = d.scale->options().input_res;
        const int r_idx = d.scale->chooseResolutionIndex(resize(
            centerCropFraction(preview, w.crop), input_res, input_res));
        choose_ms.push_back((nowS() - a) * 1e3);
        a = nowS();
        dec.advanceTo(scanDepth(r_idx, e.numScans()));
        const Image full = dec.image();
        resume_ms.push_back((nowS() - a) * 1e3);
        a = nowS();
        const Tensor in = backboneInput(full, w.crop, grid[r_idx]);
        crop_ms.push_back((nowS() - a) * 1e3);
    }
    m->push_back({"codec.preview_ms", median(preview_ms), "ms"});
    m->push_back({"codec.resume_ms", median(resume_ms), "ms"});
    m->push_back({"image.crop_resize_ms", median(crop_ms), "ms"});
    m->push_back({"scale.choose_ms", median(choose_ms), "ms"});
    const Image img = decodeProgressive(d.store.peek(d.ids[0]));
    for (int r : {112, 224, 336, 448}) {
        const Tensor in = backboneInput(img, w.crop, r);
        for (bool q : {false, true}) {
            Graph &g = q ? *d.int8 : *d.fp32;
            Tensor out;
            std::vector<double> t;
            for (int rep = 0; rep < 3; ++rep) {
                const double a = nowS();
                g.runInto(in, out);
                t.push_back((nowS() - a) * 1e3);
            }
            m->push_back({"nn.run_ms." + std::to_string(r) +
                              (q ? ".int8" : ".fp32"),
                          median(t), "ms"});
        }
    }
}

/** The host block: what the numbers were measured on. */
std::string
hostJson(int cpus)
{
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %d, \"simd\": \"%s\", \"vnni\": %s, "
                  "\"compiler\": \"%s\", \"flags\": \"%s\", "
                  "\"git_sha\": \"%s\"}",
                  cpus, simdLevelName(simdLevel()),
                  simdVnni() ? "true" : "false", PERFBENCH_COMPILER,
                  PERFBENCH_FLAGS, sha ? sha : "unknown");
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
        return 2;
    }
    const Workload *wp = nullptr;
    for (const Workload &w : workloads())
        if (args.workload == w.name)
            wp = &w;
    if (!wp) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const Workload &w = *wp;
    const int cpus = hostCpus();
    // Engine workers own the cores: every op runs single-threaded.
    setenv("TAMRES_THREADS", "1", 1);
    const int waiters = 8 * cpus;

    // --- Set-up, repeated; the last deployment serves the traffic ---
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> dep;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = rep == 0 ? 0.0 : nowS();
        dep.reset();
        dep = buildDeployment(w, cpus);
        setup_s.push_back(nowS() - t0);
    }
    Deployment &d = *dep;
    const double t_setup = nowS();
    std::printf("%s: setup %.2f s (median of %d), corpus %d objects\n",
                w.name, median(setup_s), kSetupReps, w.corpus);

    // --- Main phase, rate ladder, overload rung (untraced) ---------
    // The main phase is the ladder's first rung. Steady rungs carry no
    // deadline, so slo_rps is the deployment's capacity on the
    // workload's objects and storage tier; the overload rung's
    // deadlines drive brownout into its int8 and resolution tiers.
    const double main_s = 0.6 * args.seconds;
    const double step_s = 0.15 * args.seconds;
    const double over_s = 0.1 * args.seconds;
    const Phase main_phase =
        makePhase(w, w.nominal_rps, main_s, 0.0, kWindows,
                  mixSeed(args.seed, 1));
    PhaseRun main_run = runPhase(d, main_phase, waiters);
    const PhaseSummary main_sum = summarize(d, main_run, kWindows);

    std::vector<std::pair<double, PhaseSummary>> steps = {
        {w.nominal_rps, main_sum}};
    size_t ladder_sent = 0, ladder_failed = 0;
    auto rung = [&](const Phase &phase, const PhaseRun &run) {
        const PhaseSummary s = summarize(d, run, 1);
        ladder_sent += s.sent;
        ladder_failed += s.failed_terminal;
        steps.push_back({phase.rate, s});
        std::printf("  step %.1f req/s: sent %zu p95 %.0f ms fail %.3f "
                    "backlog %zu score %.2f\n",
                    phase.rate, s.sent, s.p95_ms, s.fail_frac,
                    run.backlog_at_end, s.load_score);
    };
    for (size_t i = 0; i < kLadder.size(); ++i) {
        const Phase phase = makePhase(w, w.nominal_rps * kLadder[i], step_s,
                                      0.0, 1, mixSeed(args.seed, 10 + i));
        rung(phase, runPhase(d, phase, waiters));
    }
    const Phase over_phase =
        makePhase(w, w.nominal_rps * kOverloadX, over_s, w.limit_ms * 1e-3,
                  1, mixSeed(args.seed, 20));
    OverloadRun over;
    over.before = d.engine->stats();
    over.run = runPhase(d, over_phase, waiters);
    rung(over_phase, over.run);
    const double slo = sloRps(steps);
    if (slo >= steps.back().first)
        std::fprintf(stderr, "WARN every rung met the SLO: slo_rps %.1f is "
                             "only a lower bound\n", slo);
    const double t_traffic = nowS();

    bool correct = stopAndCheck(d, &over.after);
    // The serving peak, before the harness's own reference decodes.
    const double peak_rss_mb = peakRssMb();
    std::printf("  overload: brownout int8 %llu, capped %llu, tier drops "
                "%llu, expired %llu, shed %llu\n",
                static_cast<unsigned long long>(over.after.brownout_int8 -
                                                over.before.brownout_int8),
                static_cast<unsigned long long>(over.after.brownout_capped -
                                                over.before.brownout_capped),
                static_cast<unsigned long long>(over.after.tier_drops -
                                                over.before.tier_drops),
                static_cast<unsigned long long>(over.after.expired -
                                                over.before.expired),
                static_cast<unsigned long long>(
                    over.after.shed_admission - over.before.shed_admission));

    // --- Quality and cost of the main phase (outside the window) ----
    const BackboneAccuracyModel acc(BackboneArch::ResNet18, w.data, 1);
    QualityMemo memo;
    std::vector<const Slot *> served_main;
    for (const auto &sp : main_run.slots) {
        if (served(*sp)) {
            served_main.push_back(sp.get());
            memo.need(sp->obj, sp->req.scans_read, sp->req.resolution);
        }
    }
    memo.compute(d, cpus);
    double top1 = 0, gmacs = 0;
    for (const Slot *s : served_main) {
        const ImageRecord &rec = d.corpus->record(s->obj);
        if (acc.correct(rec, w.crop, s->req.resolution,
                        memo.at(s->obj, s->req.scans_read,
                                s->req.resolution)))
            top1 += 1;
        gmacs += backboneGflops(BackboneArch::ResNet18, s->req.resolution) +
                 scaleModelGflops();
    }
    const double sent = static_cast<double>(main_sum.sent);
    top1 /= std::max(1.0, sent);
    gmacs /= std::max<double>(1.0, static_cast<double>(served_main.size()));
    const double bytes_per_req =
        static_cast<double>(main_run.store_after.bytes_read -
                            main_run.store_before.bytes_read) /
        std::max(1.0, sent);

    std::map<int, int> mix;
    for (const Slot *s : served_main)
        ++mix[s->req.resolution * (s->req.infer.served_int8 ? -1 : 1)];
    std::printf("  main-phase resolutions (negative = int8):");
    for (const auto &[r, n] : mix)
        std::printf(" %d:%d", r, n);
    std::printf("\n");

    std::vector<const Slot *> pool = served_main;
    for (const auto &sp : over.run.slots)
        if (served(*sp))
            pool.push_back(sp.get());
    int checked = 0, checked_int8 = 0;
    correct = checkOutputs(d, pool, args.seed, 4, &checked, &checked_int8) &&
              correct;

    std::vector<Metric> metrics;
    size_t attempted = main_sum.sent + ladder_sent;
    size_t failed = main_sum.failed_terminal + ladder_failed;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"p50_ms", main_sum.p50_ms, "ms"},
            {"p95_ms", main_sum.p95_ms, "ms"},
            {"slo_rps", slo, "1/s"},
            {"goodput_rps", main_sum.goodput_rps, "1/s"},
            {"ok_frac", 1.0 - main_sum.fail_frac, "ratio"},
            {"modeled_top1", top1, "ratio"},
            {"bytes_per_req", bytes_per_req, "bytes"},
            {"gmacs_per_req", gmacs, "GMAC"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
    } else {
        PhaseSummary tsum;
        metrics =
            tracedPass(d, main_phase, over, args, waiters, &tsum, &correct);
        probeLayers(d, &metrics);
        attempted += tsum.sent;
        failed += tsum.failed_terminal;
        metrics.push_back({"trace.overhead_ms.p50",
                           tsum.p50_ms - main_sum.p50_ms, "ms"});
        std::printf("%s: traced p50 %.1f ms vs untraced %.1f ms\n", w.name,
                    tsum.p50_ms, main_sum.p50_ms);
    }

    std::printf("%s: main sent %zu served %zu ok %zu p50 %.1f p95 %.1f ms, "
                "slo %.2f req/s, %d outputs checked bitwise (%d int8)\n",
                w.name, main_sum.sent, main_sum.served, main_sum.ok,
                main_sum.p50_ms, main_sum.p95_ms, slo, checked, checked_int8);
    std::printf("%s: wall %.1f s (set-up %.1f, traffic %.1f, after %.1f)\n",
                w.name, nowS(), t_setup, t_traffic - t_setup,
                nowS() - t_traffic);
    const std::string host = hostJson(cpus);
    std::printf("{\"host\": %s}\n", host.c_str());
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "FAIL metric %s is not finite\n",
                         m.name.c_str());
            correct = false;
        }
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                      metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    const std::string result_path =
        args.out_dir + "/result_" + w.name + "_" + std::to_string(args.seed) +
        (args.trace ? "_trace.json" : ".json");
    if (FILE *f = std::fopen(result_path.c_str(), "w")) {
        std::fprintf(f, "{\"host\": %s, \"result\": %s}\n", host.c_str(),
                     json.c_str());
        std::fclose(f);
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
