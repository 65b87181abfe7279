/**
 * @file
 * StagedServingEngine: the measured realization of the paper's
 * Figure-4 dynamic pipeline as a multi-stage serving engine.
 *
 * A request enters as a stored object id — *encoded progressive
 * bytes* in an ObjectStore — and flows through the staged lifecycle:
 *
 *   1. partial decode:   a ranged read fetches the preview scans and
 *                        a resumable ProgressiveDecoder decodes them;
 *   2. preview + scale:  the decoded preview (cropped + resized) runs
 *                        through the scale model;
 *   3. decision:         the scale model's resolution, optionally
 *                        capped by a queue-depth shed policy (the
 *                        same makeShedPolicy machinery the flat
 *                        engine uses) — under load the decision
 *                        stage itself sheds resolution;
 *   4. remaining decode: a second ranged read fetches exactly the
 *                        additional scans the chosen resolution
 *                        needs and the SAME decoder resumes — no
 *                        preview work is redone;
 *   5. batched backbone: the prepared input is submitted to an inner
 *                        ServingEngine, which batches same-shaped
 *                        requests dynamically and keeps the
 *                        zero-alloc / zero-pack steady state.
 *
 * Stages 1-4 run on a pool of decode workers with per-stage batching
 * (a worker drains up to decode_batch requests per wakeup); stage 5
 * is the unmodified ServingEngine, so every guarantee it makes
 * (per-item bit-identity, shared prepacks, steady-state zero
 * allocation) carries over to the staged backbone stage.
 *
 * Threading/lifetime contract (see also engine.hh): the ObjectStore,
 * ScaleModel, backbone Graph and the config's policy callbacks must
 * outlive the engine. While serving, ObjectStore::put, ANY external
 * use of the scale model (its forward pass reuses internal buffers;
 * the decode workers serialize their own use), and structural Graph
 * mutations are ILLEGAL; ranged reads, stats() and
 * Graph::invalidatePlans() are legal. Each StagedRequest is
 * caller-owned and must stay alive until terminal (wait() blocks for
 * that).
 *
 * A null backbone runs the engine in decision-only mode: requests
 * complete after stage 4 with resolution / scans / bytes filled in —
 * what the calibration and figure harnesses use to *measure* the
 * decision + byte flow without paying for backbone inference whose
 * accuracy is modeled analytically anyway.
 *
 * Fault tolerance: stages 1 and 4 decode from a per-request DELIVERY
 * BUFFER (EncodedImage::headerCopy() plus physically fetched bytes),
 * so storage-tier faults — transient errors, short reads, in-flight
 * corruption (see storage/fault_injection.hh) — damage only that
 * request's copy. Recoverable fetch faults (Error kinds Transient /
 * Truncated / Corrupt, the last caught by the per-scan checksum
 * BEFORE the damaged scan decodes) are retried with exponential
 * backoff + deterministic jitter under StagedRetryConfig; the backoff
 * budget is charged against the request's deadline and the per-stage
 * timeout, so a retry sleep never outlives either. When the budget or
 * attempt cap runs out, the request DEGRADES: it is served at the
 * scan depth already decoded (bit-identical to a clean decode of
 * that prefix), terminal state Degraded. Unrecoverable faults —
 * missing object (NotFound), mid-scan entropy damage (Decode), or a
 * preview/resume that could not decode a single scan — terminate the
 * request as Failed. Worker threads contain every request-scoped
 * throw: one poisoned request never stalls its batch or kills a
 * worker, and every admitted request reaches one of Done / Degraded /
 * Shed / Expired / Failed / Rejected / Cancelled.
 *
 * Overload control (OverloadConfig; full narrative in
 * docs/robustness.md): PR 6's per-request defenses compose with three
 * fleet-level ones. (1) A BreakerObjectStore (storage/breaker.hh)
 * wrapped around the store fail-fasts fetches while the tier is sick;
 * the retry loop honors Error::failFast() by skipping its backoff and
 * degrading immediately. (2) Hedged reads: with hedging enabled the
 * engine reads through a HedgedObjectStore (storage/hedged_store.hh)
 * around the store it was given, which races ONE backup against a
 * slow stage-1/4 fetch and joins the loser before the fetch returns;
 * the loser's bytes still count in bytes_read (honest metering).
 * Hedge timing is wall-clock, so hedge tests inject real latencies.
 * (3) A brownout controller watches a sliding window of terminal
 * outcomes (and deadline headroom on successes) and shifts a quality
 * tier hysteretically: tier 1 caps preview/scan depth, tier 2 also
 * sheds resolution to a floor, tier 3 also REJECTS new submissions
 * with the typed Rejected terminal.
 *
 * Lifecycle supervision (the rest of the robustness story; narrative
 * in docs/robustness.md): every request carries a cooperative
 * CancelToken (util/cancel.hh) armed with its absolute deadline and
 * fired by cancel() — the store checks it between delivery chunks,
 * the decoder between scans, the engine between stages — so client
 * disconnects map to the Cancelled terminal and mid-pipeline deadline
 * expiry maps to Expired without burning further I/O or CPU;
 * cancellation only ever lands on clean scan boundaries, so partial
 * results stay bit-identical to clean decodes of the same prefix.
 * Each read attempt carries a token chained under the request's that
 * also fires Abandoned when stage_timeout_s runs out, so a wedged read
 * unwinds on its own worker (reads_abandoned) and the request drops
 * into the retry/degrade ladder instead of blocking. A Watchdog
 * (util/watchdog.hh) supervises the decode workers' heartbeats and
 * fail-fasts any request holding a worker silent past the liveness
 * budget. Terminal conservation extends to
 *   admitted == done + degraded + failed + expired + shed + rejected
 *               + cancelled.
 */

#ifndef TAMRES_CORE_STAGED_ENGINE_HH
#define TAMRES_CORE_STAGED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/engine.hh"
#include "core/scale_model.hh"
#include "storage/decode_cache.hh"
#include "storage/hedged_store.hh"
#include "storage/object_store.hh"
#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/watchdog.hh"
#include "util/windowed.hh"

namespace tamres {

/**
 * Staged request states (terminal: Done, Degraded, Shed, Expired,
 * Failed, Rejected, Cancelled).
 */
enum class StagedState : int
{
    Idle = 0,   //!< never submitted (or reset for reuse)
    Queued,     //!< admitted, waiting for a decode worker
    Submitted,  //!< decode + decision done; in the backbone stage
    Done,       //!< served at the intended scan depth
    Shed,       //!< rejected at admission (either stage's queue full)
    Expired,    //!< deadline passed before a stage could serve it
    Degraded,   //!< served at a REDUCED scan depth after fetch faults
    Failed,     //!< unrecoverable fault; output fields are NOT valid
    Rejected,   //!< refused by the brownout controller (tier 3)
    Cancelled,  //!< client cancel()ed; output fields are NOT valid
};

/**
 * One caller-owned staged request. Fill id (a stored object) and
 * optionally deadline_s before submit(); the engine fills the rest.
 * Reusable across submissions; reusing the same object keeps the
 * backbone stage's steady-state path allocation-free (the inner
 * request's input/output tensors are recycled when shapes repeat).
 */
struct StagedRequest
{
    uint64_t id = 0;         //!< object id in the engine's store
    double deadline_s = 0.0; //!< seconds after submit; 0 = none

    int resolution = 0;       //!< decided square backbone resolution
    int resolution_index = 0; //!< index into engine resolutions()
    int preview_scans = 0;    //!< scans fetched for the preview
    int scans_read = 0;       //!< total scans DECODED and served at
    int scans_intended = 0;   //!< scans the decision wanted
    size_t bytes_read = 0;    //!< total bytes fetched (both ranges)
    int retries = 0;          //!< fetch attempts beyond the first
    double decode_s = 0.0;    //!< submit -> backbone-stage handoff
    double latency_s = 0.0;   //!< submit -> terminal

    /** Inner backbone-stage request; output lives in infer.output. */
    InferenceRequest infer;

    std::atomic<int> state{static_cast<int>(StagedState::Idle)};

    StagedState
    stateNow() const
    {
        return static_cast<StagedState>(
            state.load(std::memory_order_acquire));
    }

  private:
    friend class StagedServingEngine;
    double submit_s_ = 0.0;
    /**
     * The request's cooperative cancellation/deadline token: armed at
     * submit() with the absolute deadline on the engine clock, fired
     * by StagedServingEngine::cancel() or the watchdog, polled by the
     * store / decoder / stage boundaries all the way down.
     */
    CancelToken cancel_;
};

/**
 * Deadline-aware retry policy for storage fetch faults (stages 1/4).
 *
 * Attempt n (n >= 1 retries) sleeps
 *   min(backoff_base_s * 2^(n-1), backoff_max_s) * f,
 * where f is a deterministic jitter factor in [1 - jitter, 1] drawn
 * from (seed, object id, attempt). The sleep is charged against the
 * request deadline and the per-stage timeout: a retry whose backoff
 * does not fit the remaining budget is abandoned immediately (the
 * request degrades or fails) — a retry sleep NEVER runs past the
 * deadline.
 */
struct StagedRetryConfig
{
    int max_attempts = 3;          //!< total tries per fetch stage
    double backoff_base_s = 1e-3;  //!< first retry's nominal sleep
    double backoff_max_s = 50e-3;  //!< exponential backoff ceiling
    double jitter = 0.5;           //!< fractional jitter span [0, 1)
    uint64_t seed = 0x5eed;        //!< jitter determinism

    /**
     * Per-stage fetch budget in seconds (0 = none). When set, it
     * bounds BOTH halves of a fetch stage: retry backoff sleeps are
     * charged against it (a sleep that does not fit is abandoned and
     * the request degrades), and every physical storage read carries
     * a token that fires Abandoned when the budget's remaining
     * wall-clock time runs out, unwinding a read still in flight
     * (counted in reads_abandoned; its delivered bytes still meter).
     * Budget time comes from the engine clock; the in-flight bound is
     * wall-clock, since a wedged read advances no injectable clock.
     */
    double stage_timeout_s = 0;
};

/**
 * Brownout (adaptive quality-shedding) policy.
 *
 * A sliding window of terminal outcomes drives a quality tier:
 * an outcome is "bad" when the request Degraded / Failed / Expired /
 * was Shed, or when it was Done with less than headroom_frac of its
 * deadline left. When the windowed bad fraction reaches
 * high_pressure (with at least min_samples of evidence and
 * min_dwell_s since the last shift) the tier steps UP; at or below
 * low_pressure it steps DOWN — hysteresis, and the window resets on
 * every shift so each tier is judged on its own evidence. A tier > 0
 * whose window has gone empty for a full window (e.g. tier 3
 * rejecting everything, so no samples arrive) also steps down: the
 * controller must be able to find its way back without traffic.
 *
 * Tiers: 0 = full quality; 1 = preview/scan depth caps (preview_cap,
 * scan_cap); 2 = tier 1 + resolution shed to resolution_cap (0 means
 * the grid's lowest); 3 = tier 2 + admission rejection (typed
 * Rejected terminal). max_tier limits the climb.
 */
struct BrownoutConfig
{
    bool enable = false;
    double window_s = 0.5;     //!< outcome-window length
    int min_samples = 8;       //!< evidence needed before a shift
    double high_pressure = 0.5; //!< bad fraction that raises the tier
    double low_pressure = 0.1; //!< bad fraction that lowers it
    double min_dwell_s = 0.25; //!< min time between shifts

    /**
     * Asymmetric hysteresis for stepping DOWN: shedding must engage
     * on little evidence (min_samples, min_dwell_s), but recovering
     * on the same small sample is trigger-happy — right after a
     * shift the window is empty, and a handful of lucky outcomes
     * would flap the tier straight back. 0 inherits the symmetric
     * knobs; set higher to make recovery patient.
     */
    int recovery_samples = 0;     //!< window evidence to step down
    double recovery_dwell_s = 0;  //!< min time at a tier before down
    double headroom_frac = 0.2; //!< Done is "bad" under this headroom
    int preview_cap = 1;       //!< tier >= 1: max preview scans
    int scan_cap = 2;          //!< tier >= 1: max total scans
    int resolution_cap = 0;    //!< tier >= 2: res floor (0 = lowest)
    int max_tier = 3;          //!< highest tier the controller may use

    /**
     * Tier at or above which the backbone stage serves int8 (0 =
     * never). Precision is shed BEFORE resolution: set int8_tier
     * below the resolution-shedding tier so overload first drops to
     * the quantized backbone (cheap, accuracy-close) and only then
     * shrinks the input. Requires the inner engine to be configured
     * with a quantized graph (EngineConfig::quant_graph); without one
     * the flag degrades to fp32 harmlessly.
     */
    int int8_tier = 0;
};

/**
 * Worker-liveness supervision policy (the engine-side face of
 * util/watchdog.hh). Decode workers heartbeat at stage boundaries and
 * per retry attempt; a busy worker silent past liveness_budget_s is
 * flagged — the engine warn()s a per-request diagnostic dump, bumps
 * watchdog_flags, and fail-fasts the stuck request by firing its
 * CancelToken with CancelReason::Watchdog (the request degrades to
 * its decoded prefix or Fails; the worker is freed at the next token
 * poll). Budget time comes from the engine clock so tests drive
 * expiry with a ManualClock; the supervisor thread's cadence is
 * wall-clock by necessity.
 */
struct SupervisionConfig
{
    bool enable = false;
    double liveness_budget_s = 1.0; //!< max silence for a busy worker
    double poll_interval_s = 0.01;  //!< wall-clock supervisor cadence
};

/** The staged engine's overload-control knobs (see file docs). */
struct OverloadConfig
{
    HedgeConfig hedge;
    BrownoutConfig brownout;
    SupervisionConfig watchdog;

    /**
     * Time source for deadlines, retry backoff, and brownout dwell —
     * nullptr means Clock::steady(). Tests inject a ManualClock to
     * replay controller transitions deterministically. Hedge timing
     * deliberately stays wall-clock (see HedgeConfig).
     */
    Clock *clock = nullptr;
};

/** Staged engine construction parameters. */
struct StagedEngineConfig
{
    int preview_scans = 2;   //!< default scans fetched for stage 1
    double crop_area = 1.0;  //!< center-crop fraction before resizing
    int decode_workers = 1;  //!< stage 1-4 worker threads
    int decode_batch = 4;    //!< requests a worker drains per wakeup
    int queue_capacity = 256; //!< bounded admission for stage 1

    /**
     * When > 0, skip the scale model and serve every request at this
     * resolution — the measured static baseline through the exact
     * same staged machinery (full-prefix read unless scan_depth says
     * otherwise).
     */
    int fixed_resolution = 0;

    /** Per-object preview depth; overrides preview_scans when set. */
    std::function<int(uint64_t id)> preview_depth;

    /**
     * Total scans the chosen resolution needs for object @p id
     * (e.g. a calibrated storage policy); null reads every scan. The
     * engine never reads fewer scans than the preview already
     * fetched.
     */
    std::function<int(uint64_t id, int resolution_index)> scan_depth;

    /**
     * Queue-depth -> resolution cap applied to the scale model's
     * choice at decision time (same machinery as makeShedPolicy):
     * return 0 to keep the choice, else the decision is clamped to
     * the largest grid resolution <= the returned cap. Sees the
     * decode-stage depth (waiting + in flight).
     */
    EngineResolutionPolicy shed_cap;

    /**
     * Optional hot-object decode cache (storage/decode_cache.hh);
     * nullptr = off. When set, stage 1 consults it before fetching —
     * a hit at or past the preview depth skips the stage-1 fetch
     * entirely (zero bytes charged) and a deep hit lets stage 4
     * resume from the cached snapshot and fetch only the missing
     * range. The cache must outlive the engine, and the caller should
     * ObjectStore::attachCache() it to the store's root() so put()
     * invalidates stale entries. Multiple engines may share one cache.
     */
    DecodeCache *cache = nullptr;

    /** Fetch retry / degradation policy for storage faults. */
    StagedRetryConfig retry;

    /** Overload control: hedged reads, brownout, injectable clock. */
    OverloadConfig overload;

    /** Inner backbone-stage engine configuration. */
    EngineConfig backbone;
};

/**
 * Counter snapshot from StagedServingEngine::stats().
 *
 * Consistency: stats() copies the engine's counters inside ONE
 * critical section on the engine's counter lock, so they are mutually
 * consistent — e.g. the terminal-conservation identity below holds
 * within a single snapshot whenever it holds at all, and bytes_read
 * never lags the decode that charged it. The hedge counters and the
 * hedge losers' bytes are added from the hedged store right after.
 *
 * Terminal conservation: once every submitted request has reached a
 * terminal state (all wait()s returned),
 *   admitted == done + degraded + failed + expired + shed_admission
 *               + rejected + cancelled.
 */
struct StagedStats
{
    int decode_queue_depth = 0;   //!< stage-1 requests waiting now
    uint64_t admitted = 0;        //!< submit() calls (incl. refused)
    uint64_t decoded = 0;         //!< requests through stages 1-4
    uint64_t done = 0;            //!< terminal Done
    uint64_t shed_admission = 0;  //!< rejected at either admission
    uint64_t expired = 0;         //!< dropped past their deadline
    uint64_t rejected = 0;        //!< refused by brownout tier 3
    uint64_t shed_cap_applied = 0; //!< decisions lowered by shed_cap
    uint64_t scans_read = 0;      //!< total scans fetched
    uint64_t bytes_read = 0;      //!< total bytes fetched
    uint64_t failed = 0;          //!< unrecoverable per-request faults
    uint64_t degraded = 0;        //!< served at reduced scan depth
    uint64_t retries = 0;         //!< fetch attempts beyond the first
    uint64_t fetch_faults = 0;    //!< recoverable faults observed
    uint64_t retry_giveups = 0;   //!< retries abandoned (budget/cap)
    uint64_t hedges_issued = 0;   //!< backup fetches launched
    uint64_t hedge_wins = 0;      //!< backups adopted over the primary
    int brownout_tier = 0;        //!< current quality tier
    uint64_t tier_drops = 0;      //!< tier increments (quality down)
    uint64_t tier_recoveries = 0; //!< tier decrements (quality back)
    uint64_t brownout_capped = 0; //!< decisions lowered by the tier
    uint64_t brownout_int8 = 0;   //!< requests routed to the int8 tier
    uint64_t cancelled = 0;       //!< terminal Cancelled (client)
    uint64_t reads_abandoned = 0; //!< reads unwound by a fired token
    uint64_t watchdog_flags = 0;  //!< liveness flags raised on workers

    // Decode-cache effect on this engine's traffic (all zero with no
    // cache configured). A "hit" skipped a stage-1 fetch outright; a
    // "resume" continued a stage-4 decode from a cached snapshot and
    // fetched only the missing range; bytes_saved is the physical
    // store bytes those hits and resumes did NOT fetch.
    uint64_t cache_hits = 0;        //!< stage-1 fetches skipped
    uint64_t cache_resumes = 0;     //!< stage-4 resumes from snapshots
    uint64_t cache_misses = 0;      //!< stage-1 lookups with no entry
    uint64_t cache_bytes_saved = 0; //!< store bytes not fetched

    std::vector<uint64_t> resolution_hist; //!< per resolutions() index
    DecodeCacheStats cache;       //!< cache-internal counter snapshot
    EngineStats backbone;         //!< inner engine snapshot
};

/**
 * Multi-stage dynamic-resolution serving engine over encoded
 * progressive objects (see file docs for the stage diagram).
 */
class StagedServingEngine
{
  public:
    /**
     * @param store    stored encoded objects (outlives the engine)
     * @param scale    trained resolution selector (outlives the engine)
     * @param backbone backbone graph for stage 5, or nullptr for
     *                 decision-only mode
     */
    StagedServingEngine(ObjectStore &store, const ScaleModel &scale,
                        Graph *backbone, StagedEngineConfig config);

    /** stop()s and joins. */
    ~StagedServingEngine();

    StagedServingEngine(const StagedServingEngine &) = delete;
    StagedServingEngine &operator=(const StagedServingEngine &) = delete;

    /**
     * Admit @p req (non-blocking). Returns false — and marks the
     * request Shed — when the decode queue is full or the engine is
     * stopping. req.id must name a stored object. The request must
     * stay alive until terminal.
     */
    bool submit(StagedRequest &req);

    /**
     * Block until @p req reaches a terminal state. At most ONE
     * thread may wait() a given request per submission: the waiter
     * finalizes the backbone-stage handback (latency, terminal
     * state), so concurrent waiters on one request would race.
     */
    void wait(StagedRequest &req);

    /**
     * Cooperatively cancel an in-flight request (the client hung up).
     * Safe from any thread, any number of times, at any point between
     * submit() and terminal. The request stops at its next token poll
     * — a clean scan boundary — and terminates as Cancelled; callers
     * still wait() it. Best-effort by design: a request already past
     * its last poll (e.g. handed to the backbone stage) completes
     * normally, and a cancelled-at-formation request never touches
     * storage. First fire wins: a cancel that races deadline expiry
     * keeps whichever reason fired first.
     */
    void cancel(StagedRequest &req);

    /** Block until both stages are empty and idle. */
    void drain();

    /**
     * Stop accepting requests, flush everything already admitted
     * through every stage, and join the workers. Idempotent.
     */
    void stop();

    /** Counter snapshot (safe while serving). */
    StagedStats stats() const;

    /** The resolution grid decisions index into. */
    const std::vector<int> &resolutions() const
    {
        return scale_->resolutions();
    }

  private:
    void decodeLoop();
    void processOne(StagedRequest &req, int depth);
    void processOneImpl(StagedRequest &req, int depth);
    bool fetchScansWithRetry(StagedRequest &req,
                             EncodedImage &delivery,
                             ProgressiveDecoder &dec, int target,
                             bool &charged_full, double stage_start_s);
    void markTerminal(StagedRequest &req, StagedState state);
    /** Heartbeat this worker's watchdog slot (no-op unsupervised). */
    void heartbeat(StagedRequest &req, const char *phase);
    /** Watchdog flag callback: dump diagnostics + fail-fast. */
    void onWatchdogFlag(const WatchdogReport &report);
    void finalize(StagedRequest &req);
    /** Bump the terminal counter + feed the brownout window (mu_ held). */
    void accountTerminalLocked(const StagedRequest &req,
                               StagedState terminal);
    /** Run the tier up/down logic against the window (mu_ held). */
    void brownoutEvaluateLocked(double now_s);
    double now() const;

    ObjectStore *store_; //!< what reads go through (maybe hedged_)
    std::unique_ptr<HedgedObjectStore> hedged_; //!< null unless hedging
    const ScaleModel *scale_;
    Graph *backbone_;
    StagedEngineConfig cfg_;
    std::unique_ptr<ServingEngine> inner_; //!< null in decision-only

    Clock *clock_;       //!< deadlines, backoff, brownout dwell
    double epoch_s_ = 0; //!< clock_->now() at construction

    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< decode workers: queue state
    std::condition_variable done_cv_; //!< clients: completion / drain
    std::deque<StagedRequest *> queue_;
    bool stopping_ = false;
    int active_decoders_ = 0;

    // The scale model's forward pass reuses internal activation
    // buffers, so concurrent decode workers serialize inference.
    mutable std::mutex scale_mu_;

    // Worker supervision: the watchdog plus the worker -> in-flight
    // request map its flag callback uses to fire the right token.
    // wd_mu_ guards worker_current_ only and is never held while
    // calling into the watchdog or the engine's other locks.
    std::unique_ptr<Watchdog> watchdog_; //!< null when disabled
    mutable std::mutex wd_mu_;
    std::vector<StagedRequest *> worker_current_;

    // Brownout: tier is written under mu_ but read lock-free on the
    // decode path; the outcome window and dwell clock live under mu_.
    std::atomic<int> brownout_tier_{0};
    WindowedOutcomes brown_window_;
    double last_shift_s_ = 0;

    // Counters: ONE StagedStats guarded by mu_, mutated field-wise by
    // the workers and copied wholesale by stats() — a snapshot is a
    // single critical section, never a field-at-a-time stitch. The
    // live-state fields (decode_queue_depth, brownout_tier, cache,
    // backbone, hedges) are filled in at snapshot time, not here.
    StagedStats stats_;

    std::vector<std::thread> threads_;
};

} // namespace tamres

#endif // TAMRES_CORE_STAGED_ENGINE_HH
