#include "core/staged_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "util/error.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace tamres {

namespace {

/** splitmix64 finalizer for deterministic backoff jitter. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** This thread's watchdog slot (-1 on non-decode-worker threads). */
thread_local int tls_wd_slot = -1;

} // namespace

StagedServingEngine::StagedServingEngine(ObjectStore &store,
                                         const ScaleModel &scale,
                                         Graph *backbone,
                                         StagedEngineConfig config)
    : store_(&store), scale_(&scale), backbone_(backbone),
      cfg_(std::move(config)),
      clock_(cfg_.overload.clock ? cfg_.overload.clock
                                 : &Clock::steady()),
      epoch_s_(clock_->now()),
      brown_window_(cfg_.overload.brownout.window_s > 0
                        ? cfg_.overload.brownout.window_s
                        : 0.5)
{
    tamres_assert(cfg_.decode_workers >= 1,
                  "staged engine needs >= 1 decode worker");
    tamres_assert(cfg_.decode_batch >= 1, "decode_batch must be >= 1");
    tamres_assert(cfg_.queue_capacity >= 1,
                  "queue_capacity must be >= 1");
    tamres_assert(!scale_->resolutions().empty(),
                  "scale model has no resolution grid");

    stats_.resolution_hist.assign(scale_->resolutions().size(), 0);
    if (backbone_)
        inner_ = std::make_unique<ServingEngine>(*backbone_,
                                                 cfg_.backbone);
    if (cfg_.overload.hedge.enable) {
        hedged_ = std::make_unique<HedgedObjectStore>(store,
                                                      cfg_.overload.hedge);
        store_ = hedged_.get();
    }
    if (cfg_.overload.watchdog.enable) {
        Watchdog::Config wc;
        wc.liveness_budget_s = cfg_.overload.watchdog.liveness_budget_s;
        wc.poll_interval_s = cfg_.overload.watchdog.poll_interval_s;
        wc.clock = clock_;
        watchdog_ = std::make_unique<Watchdog>(
            wc, [this](const WatchdogReport &r) { onWatchdogFlag(r); });
    }

    threads_.reserve(cfg_.decode_workers);
    for (int i = 0; i < cfg_.decode_workers; ++i)
        threads_.emplace_back([this] { decodeLoop(); });
}

StagedServingEngine::~StagedServingEngine()
{
    stop();
}

double
StagedServingEngine::now() const
{
    return clock_->now() - epoch_s_;
}

bool
StagedServingEngine::submit(StagedRequest &req)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.admitted;
    // Brownout tier 3: the controller has concluded the system cannot
    // finish the work it already holds — refuse new work with a typed
    // terminal the caller can distinguish from a full queue.
    if (cfg_.overload.brownout.enable &&
        brownout_tier_.load(std::memory_order_relaxed) >= 3) {
        req.latency_s = 0.0;
        req.state.store(static_cast<int>(StagedState::Rejected),
                        std::memory_order_release);
        accountTerminalLocked(req, StagedState::Rejected);
        done_cv_.notify_all();
        return false;
    }
    if (stopping_ ||
        queue_.size() >= static_cast<size_t>(cfg_.queue_capacity)) {
        req.state.store(static_cast<int>(StagedState::Shed),
                        std::memory_order_release);
        accountTerminalLocked(req, StagedState::Shed);
        done_cv_.notify_all();
        return false;
    }
    req.submit_s_ = now();
    // Arm the lifecycle token: explicit cancel() and the watchdog
    // fire it by hand; the deadline fires it lazily on the engine
    // clock (absolute, in raw clock units — NOT epoch-relative).
    req.cancel_.reset();
    if (req.deadline_s > 0.0)
        req.cancel_.armDeadline(*clock_, clock_->now() + req.deadline_s);
    req.resolution = 0;
    req.resolution_index = 0;
    req.preview_scans = 0;
    req.scans_read = 0;
    req.scans_intended = 0;
    req.bytes_read = 0;
    req.retries = 0;
    req.decode_s = 0.0;
    req.latency_s = 0.0;
    req.state.store(static_cast<int>(StagedState::Queued),
                    std::memory_order_release);
    queue_.push_back(&req);
    work_cv_.notify_one();
    return true;
}

void
StagedServingEngine::wait(StagedRequest &req)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return req.stateNow() != StagedState::Queued;
        });
    }
    if (req.stateNow() == StagedState::Submitted) {
        inner_->wait(req.infer);
        finalize(req);
    }
}

void
StagedServingEngine::cancel(StagedRequest &req)
{
    req.cancel_.cancel(CancelReason::Client);
    // The token is polled cooperatively: in-flight store reads poll it
    // through their per-attempt token, the decoder between scans, and
    // a queued request observes it at formation when a worker picks
    // it up.
    work_cv_.notify_all();
}

void
StagedServingEngine::finalize(StagedRequest &req)
{
    // Single-finalizer contract (see wait() docs): fields are written
    // before the terminal state store, after which the owner may free
    // the request.
    StagedState terminal = StagedState::Shed;
    switch (req.infer.stateNow()) {
      case RequestState::Done:
        // A backbone serve of a degraded decode stays degraded: the
        // output is valid but was computed from fewer scans than the
        // decision intended.
        terminal = req.scans_read < req.scans_intended
                       ? StagedState::Degraded
                       : StagedState::Done;
        break;
      case RequestState::Expired:
        terminal = StagedState::Expired;
        break;
      case RequestState::Failed:
        terminal = StagedState::Failed;
        break;
      default: break;
    }
    req.latency_s = req.decode_s + req.infer.latency_s;
    req.state.store(static_cast<int>(terminal),
                    std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mu_);
        accountTerminalLocked(req, terminal);
    }
}

void
StagedServingEngine::accountTerminalLocked(const StagedRequest &req,
                                           StagedState terminal)
{
    switch (terminal) {
      case StagedState::Done: ++stats_.done; break;
      case StagedState::Degraded: ++stats_.degraded; break;
      case StagedState::Failed: ++stats_.failed; break;
      case StagedState::Expired: ++stats_.expired; break;
      case StagedState::Shed: ++stats_.shed_admission; break;
      case StagedState::Rejected: ++stats_.rejected; break;
      case StagedState::Cancelled: ++stats_.cancelled; break;
      default: break;
    }

    const BrownoutConfig &bc = cfg_.overload.brownout;
    if (!bc.enable)
        return;
    const double t = now();
    // Rejected outcomes are NOT pressure evidence: at tier 3 they are
    // the controller's own output, and sampling them would latch the
    // brownout at maximum forever. (Idle recovery below is what walks
    // a rejecting tier back down.) Cancelled outcomes are excluded
    // too: a client hanging up says nothing about system pressure.
    if (terminal != StagedState::Rejected &&
        terminal != StagedState::Cancelled) {
        bool bad = terminal != StagedState::Done;
        if (terminal == StagedState::Done && req.deadline_s > 0.0 &&
            req.latency_s >
                (1.0 - bc.headroom_frac) * req.deadline_s)
            bad = true; // served, but with the deadline nearly spent
        brown_window_.record(t, bad);
    }
    brownoutEvaluateLocked(t);
}

void
StagedServingEngine::brownoutEvaluateLocked(double now_s)
{
    const BrownoutConfig &bc = cfg_.overload.brownout;
    if (!bc.enable)
        return;
    const int tier = brownout_tier_.load(std::memory_order_relaxed);
    const int64_t n = brown_window_.total(now_s);
    const double frac = brown_window_.badFraction(now_s);
    const double since = now_s - last_shift_s_;
    const int max_tier = std::clamp(bc.max_tier, 0, 3);

    // Hysteresis: shifts need min_dwell_s between them, evidence
    // thresholds are asymmetric (high_pressure > low_pressure), and
    // the window resets on every shift so each tier is judged only on
    // outcomes produced while it was active. Stepping down may
    // require extra evidence/patience (recovery_samples /
    // recovery_dwell_s, defaulting to the symmetric knobs).
    const int down_samples =
        bc.recovery_samples > 0 ? bc.recovery_samples : bc.min_samples;
    const double down_dwell = bc.recovery_dwell_s > 0
                                  ? bc.recovery_dwell_s
                                  : bc.min_dwell_s;
    if (tier < max_tier && n >= bc.min_samples &&
        frac >= bc.high_pressure && since >= bc.min_dwell_s) {
        brownout_tier_.store(tier + 1, std::memory_order_relaxed);
        ++stats_.tier_drops;
        last_shift_s_ = now_s;
        brown_window_.reset();
        return;
    }
    if (tier > 0 && n >= down_samples && frac <= bc.low_pressure &&
        since >= down_dwell) {
        brownout_tier_.store(tier - 1, std::memory_order_relaxed);
        ++stats_.tier_recoveries;
        last_shift_s_ = now_s;
        brown_window_.reset();
        return;
    }
    // Idle recovery: a tier that sees no outcomes (tier 3 rejects all
    // submissions, or traffic simply stopped) would otherwise never
    // collect the evidence to step back down.
    if (tier > 0 && n == 0 &&
        since >= std::max(down_dwell, bc.window_s)) {
        brownout_tier_.store(tier - 1, std::memory_order_relaxed);
        ++stats_.tier_recoveries;
        last_shift_s_ = now_s;
        brown_window_.reset();
    }
}

void
StagedServingEngine::drain()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return queue_.empty() && active_decoders_ == 0;
        });
    }
    if (inner_)
        inner_->drain();
}

void
StagedServingEngine::stop()
{
    std::vector<std::thread> joinable;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        joinable.swap(threads_);
    }
    work_cv_.notify_all();
    done_cv_.notify_all();
    for (auto &t : joinable)
        t.join();
    if (watchdog_)
        watchdog_->stop(); // workers are gone; nothing left to flag
    if (inner_)
        inner_->stop();
}

StagedStats
StagedServingEngine::stats() const
{
    // One critical section copies the whole counter struct, so every
    // field in a snapshot is mutually consistent (no field-at-a-time
    // stitching while workers mutate). The live-state fields are
    // filled in afterwards from their own sources.
    StagedStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s = stats_;
        s.decode_queue_depth = static_cast<int>(queue_.size());
    }
    s.brownout_tier = brownout_tier_.load(std::memory_order_relaxed);
    if (hedged_) {
        // The requests charged only their winners' bytes.
        const ReadStats h = hedged_->stats();
        s.hedges_issued = h.hedges_issued;
        s.hedge_wins = h.hedge_wins;
        s.bytes_read += h.hedge_loser_bytes;
    }
    if (cfg_.cache)
        s.cache = cfg_.cache->stats();
    if (inner_)
        s.backbone = inner_->stats();
    return s;
}

void
StagedServingEngine::decodeLoop()
{
    std::vector<StagedRequest *> batch;
    batch.reserve(cfg_.decode_batch);

    if (watchdog_) {
        tls_wd_slot = watchdog_->registerWorker();
        std::lock_guard<std::mutex> wlock(wd_mu_);
        if (worker_current_.size() <=
            static_cast<size_t>(tls_wd_slot))
            worker_current_.resize(
                static_cast<size_t>(tls_wd_slot) + 1, nullptr);
    }

    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        // Per-stage batching: drain up to decode_batch requests in
        // one wakeup, then process them back to back outside the
        // lock. The depth reported to the shed policy counts waiting
        // AND in-hand requests — the same "load at formation time"
        // the flat engine's policy sees.
        batch.clear();
        while (!queue_.empty() &&
               batch.size() < static_cast<size_t>(cfg_.decode_batch)) {
            batch.push_back(queue_.front());
            queue_.pop_front();
        }
        const int depth = static_cast<int>(queue_.size()) +
                          static_cast<int>(batch.size());

        ++active_decoders_;
        lock.unlock();
        for (StagedRequest *req : batch)
            processOne(*req, depth);
        if (watchdog_)
            watchdog_->idle(tls_wd_slot); // parked != stuck
        lock.lock();
        --active_decoders_;
        done_cv_.notify_all();
    }
}

void
StagedServingEngine::markTerminal(StagedRequest &req, StagedState state)
{
    // Unpublish from the watchdog registry BEFORE the terminal store:
    // the instant the owner's wait() can return, the request may be
    // freed, and onWatchdogFlag dereferences worker_current_ entries
    // under wd_mu_ — this ordering is what makes that safe.
    if (watchdog_ && tls_wd_slot >= 0) {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = nullptr;
    }
    req.latency_s = now() - req.submit_s_;
    req.state.store(static_cast<int>(state),
                    std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mu_);
        accountTerminalLocked(req, state);
    }
    done_cv_.notify_all();
}

void
StagedServingEngine::processOne(StagedRequest &req, int depth)
{
    // Fault containment boundary: everything a bad object, missing id
    // or poisoned byte stream can throw is request-scoped. The worker
    // survives, the batch continues, the request terminates Failed.
    try {
        processOneImpl(req, depth);
    } catch (const std::exception &e) {
        const auto *err = dynamic_cast<const Error *>(&e);
        if (err != nullptr && err->kind() == ErrorKind::Cancelled) {
            // Cancelled at a clean prefix boundary: meter what was
            // actually read (the stages record scan and byte progress
            // on the request as it happens), then terminate by the
            // reason that fired (client hangup vs. deadline expiry).
            // Output fields are not valid, but the accounting is.
            req.decode_s = now() - req.submit_s_;
            {
                std::lock_guard<std::mutex> lock(mu_);
                stats_.scans_read += static_cast<uint64_t>(req.scans_read);
                stats_.bytes_read += req.bytes_read;
            }
            markTerminal(req,
                         req.cancel_.reason() == CancelReason::Client
                             ? StagedState::Cancelled
                             : StagedState::Expired);
            return;
        }
        warn("staged request %llu failed: %s",
             static_cast<unsigned long long>(req.id), e.what());
        markTerminal(req, StagedState::Failed);
    }
}

void
StagedServingEngine::heartbeat(StagedRequest &req, const char *phase)
{
    if (!watchdog_ || tls_wd_slot < 0)
        return;
    {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = &req;
    }
    watchdog_->beat(tls_wd_slot, phase, req.id);
}

void
StagedServingEngine::onWatchdogFlag(const WatchdogReport &report)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.watchdog_flags;
    }
    // Holding wd_mu_ pins the request: workers unpublish (under
    // wd_mu_) before the terminal store that lets owners free it.
    // Diagnostics stick to fields that are immutable after submit
    // (id) or atomic (state) — the worker may be mutating the rest.
    std::lock_guard<std::mutex> wlock(wd_mu_);
    StagedRequest *req = nullptr;
    if (report.worker >= 0 &&
        report.worker < static_cast<int>(worker_current_.size()))
        req = worker_current_[static_cast<size_t>(report.worker)];
    if (req == nullptr) {
        warn("watchdog: worker %d silent %.3fs in phase '%s' "
             "(request already retired)",
             report.worker, report.silent_s, report.phase);
        return;
    }
    warn("watchdog: worker %d silent %.3fs in phase '%s' — "
         "fail-fasting request %llu (state %d)",
         report.worker, report.silent_s, report.phase,
         static_cast<unsigned long long>(req->id),
         static_cast<int>(req->stateNow()));
    req->cancel_.cancel(CancelReason::Watchdog);
}

/**
 * Drive the resumable decoder to @p target scans, fetching delivery
 * bytes with deadline-aware retries and recording scan and byte
 * progress on @p req as it happens. Returns true when the target was
 * reached; false when the retry budget (attempt cap, backoff vs.
 * remaining deadline, or stage timeout) ran out — the decoder then
 * holds a clean prefix at scansDecoded() and the caller degrades.
 * Unrecoverable faults (NotFound, mid-scan Decode damage) and
 * client/deadline cancellation propagate.
 */
bool
StagedServingEngine::fetchScansWithRetry(StagedRequest &req,
                                         EncodedImage &delivery,
                                         ProgressiveDecoder &dec,
                                         int target, bool &charged_full,
                                         double stage_start_s)
{
    // Every read gets at least this much wall time, so a fast read can
    // still land with the stage budget nearly spent.
    constexpr double kMinReadS = 2e-3;

    const StagedRetryConfig &rc = cfg_.retry;
    auto giveUp = [&] {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retry_giveups;
        return false;
    };
    int attempt = 0;
    while (dec.scansDecoded() < target) {
        heartbeat(req, "fetch");
        // Cancellation gate per attempt: client/deadline firings end
        // the request (the caller maps them to terminals); a watchdog
        // or abandonment firing degrades it — give the clean prefix
        // up without another attempt or a backoff sleep.
        const CancelReason cr = req.cancel_.reason();
        if (cr == CancelReason::Client || cr == CancelReason::Deadline)
            req.cancel_.throwIfFired();
        if (cr != CancelReason::None)
            return giveUp();
        if (attempt > 0) {
            if (attempt >= rc.max_attempts)
                return giveUp();
            // Exponential backoff with deterministic jitter in
            // [1 - jitter, 1], charged against the deadline AND the
            // stage timeout: a sleep that does not fit the remaining
            // budget is not taken — give up and degrade instead.
            const double nominal =
                std::min(rc.backoff_base_s * std::ldexp(1.0, attempt - 1),
                         rc.backoff_max_s);
            Rng rng(mix64(mix64(rc.seed ^ req.id) ^
                          static_cast<uint64_t>(attempt)));
            const double backoff =
                nominal * (1.0 - rc.jitter * rng.uniform());
            double budget = std::numeric_limits<double>::infinity();
            if (req.deadline_s > 0.0)
                budget = req.submit_s_ + req.deadline_s - now();
            if (rc.stage_timeout_s > 0.0)
                budget = std::min(
                    budget, stage_start_s + rc.stage_timeout_s - now());
            if (backoff >= budget)
                return giveUp();
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.retries;
            }
            ++req.retries;
            if (backoff > 0.0)
                clock_->sleepFor(backoff);
        }
        ++attempt;

        // Re-establish the delivery invariant before every fetch: the
        // buffer ends exactly at the last cleanly decoded scan
        // boundary (a faulted attempt may have left damaged or
        // partial trailing bytes behind).
        const int from = dec.scansDecoded();
        const size_t start = delivery.scan_offsets[from];
        delivery.bytes.resize(start);

        // The attempt's token reports the request token's firings
        // (client, deadline, watchdog) and fires Abandoned when the
        // stage budget runs out, so a wedged read unwinds on this
        // worker at the bound. The budget is measured on the engine
        // clock but enforced on the wall clock: a wedged read
        // advances no injectable clock (hedge timing is the same).
        CancelToken read_token(&req.cancel_);
        if (rc.stage_timeout_s > 0.0) {
            const Clock &wall = Clock::steady();
            read_token.armDeadline(
                wall,
                wall.now() +
                    std::max(kMinReadS, stage_start_s +
                                            rc.stage_timeout_s - now()),
                CancelReason::Abandoned);
        }
        try {
            store_->fetchScanRange(req.id, from, target, delivery.bytes,
                                   !charged_full, SIZE_MAX, &read_token);
        } catch (const Error &e) {
            // A read that unwound part-way still delivered (and the
            // store metered) the bytes now in the buffer.
            req.bytes_read += delivery.bytes.size() - start;
            if (read_token.fired()) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.reads_abandoned;
            }
            if (e.kind() != ErrorKind::Transient)
                throw; // NotFound, Cancelled: not retryable here
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.fetch_faults;
            }
            // A circuit breaker is refusing fetches, or the stage
            // budget or the watchdog abandoned the read: every retry
            // would fail the same way, so backing off only burns
            // deadline the request could spend degrading gracefully.
            // Give up NOW.
            if (e.failFast())
                return giveUp();
            continue;
        }
        req.bytes_read += delivery.bytes.size() - start;
        if (from == 0)
            charged_full = true;
        try {
            dec.advanceWithBytes(delivery.bytes.size());
        } catch (const Error &e) {
            req.scans_read = dec.scansDecoded();
            // Decode means the damage was caught MID-SCAN (entropy
            // stream violated after the checksum passed): coefficient
            // state is unspecified, the request cannot be saved.
            // Cancelled is the decoder's between-scan token check
            // (client/deadline): the prefix is clean, but the request
            // is over — propagate to the terminal mapping.
            if (e.kind() == ErrorKind::Decode ||
                e.kind() == ErrorKind::Cancelled)
                throw;
            // Corrupt (checksum or side tables, verified BEFORE the
            // scan decoded) and Truncated leave the decoder clean at
            // the previous boundary: trim and refetch.
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.fetch_faults;
            continue;
        }
        req.scans_read = dec.scansDecoded();
        if (dec.scansDecoded() < target) {
            // The advance was clean but the delivery was short (an
            // injected truncated read): refetch the missing tail.
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.fetch_faults;
        }
    }
    return true;
}

void
StagedServingEngine::processOneImpl(StagedRequest &req, int depth)
{
    const double t0 = now();
    heartbeat(req, "formation");

    // Deadline shedding at formation time: a request whose deadline
    // has already passed is dropped before any byte is read. A client
    // cancel that landed while queued is honoured the same way —
    // before any byte is read.
    if (req.deadline_s > 0.0 &&
        t0 > req.submit_s_ + req.deadline_s) {
        markTerminal(req, StagedState::Expired);
        return;
    }
    if (req.cancel_.reason() == CancelReason::Client) {
        markTerminal(req, StagedState::Cancelled);
        return;
    }

    const EncodedImage &enc = store_->peek(req.id);
    const auto &grid = scale_->resolutions();
    const int num_scans = enc.numScans();

    // Per-request delivery buffer: header + side tables from the
    // store, payload bytes PHYSICALLY fetched below. Faults (short
    // reads, bit flips) damage only this copy — never the store's
    // pristine object — and the resumable decoder is bound to it.
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    // The decoder polls the request token between scans, so a cancel
    // or deadline firing stops decode at a clean prefix boundary.
    dec.setCancel(&req.cancel_);

    int r_idx = 0;
    int resolution = 0;
    int kprev = 0;
    int total = 0;
    bool capped = false;
    bool tier_capped = false;
    bool charged_full = false;
    // Stage-1 cache hit, when any; carried into stage 2 so a hit's
    // ready-made preview pixels are reused.
    DecodeCache::EntryPtr hit;

    // Stage-boundary poll: client/deadline firings end the request at
    // the next boundary (processOne's Cancelled handler maps them);
    // watchdog firings are left to the fetch/retry path, which
    // degrades instead — the CPU stages between fetches are short.
    auto pollCancel = [&] {
        const CancelReason cr = req.cancel_.reason();
        if (cr == CancelReason::Client || cr == CancelReason::Deadline)
            req.cancel_.throwIfFired();
    };

    // The brownout tier is sampled ONCE at formation so one request
    // sees a consistent quality level even if the controller shifts
    // mid-flight.
    const BrownoutConfig &bc = cfg_.overload.brownout;
    const int tier =
        bc.enable ? brownout_tier_.load(std::memory_order_relaxed) : 0;

    if (cfg_.fixed_resolution > 0) {
        // Static mode: no preview fetch, no scale model — the
        // measured baseline through identical machinery.
        resolution = cfg_.fixed_resolution;
        for (size_t i = 1; i < grid.size(); ++i) {
            if (std::abs(grid[i] - resolution) <
                std::abs(grid[r_idx] - resolution))
                r_idx = static_cast<int>(i);
        }
    } else {
        // Stage 1: ranged read + partial decode of the preview
        // scans. A calibrated policy may demand ZERO preview
        // scans (the threshold is already met by the mid-gray
        // reconstruction); then nothing is fetched and the scale
        // model sees the same 0-scan preview the inline pipeline
        // would. A preview shortfall after retries is NON-fatal:
        // the scale model sees whatever prefix decoded (possibly
        // mid-gray), and the stage-4 fetch below still tries to
        // recover the gap.
        kprev = cfg_.preview_depth
                    ? cfg_.preview_depth(req.id)
                    : cfg_.preview_scans;
        kprev = std::clamp(kprev, 0, num_scans);
        // Brownout tier >= 1 caps how much preview evidence a
        // request may buy: cheaper decisions, shallower reads.
        if (tier >= 1)
            kprev = std::min(kprev, std::max(0, bc.preview_cap));
        req.preview_scans = kprev;
        // Decode cache, stage 1: a cached prefix at or past the
        // preview depth replaces the fetch entirely (zero store
        // bytes charged). The resumed decoder never reads bytes
        // below its resume offset, so a zero-filled placeholder
        // prefix stands in for the bytes the skipped fetch would
        // have delivered; a stage-4 fetch appends real bytes
        // after it.
        if (cfg_.cache && kprev > 0)
            hit = cfg_.cache->lookup(req.id, kprev, num_scans);
        if (hit) {
            delivery.bytes.assign(
                delivery.scan_offsets[hit->depth], 0);
            dec = ProgressiveDecoder(delivery, hit->snap);
            dec.setCancel(&req.cancel_);
            req.scans_read = dec.scansDecoded();
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.cache_hits;
            stats_.cache_bytes_saved += static_cast<uint64_t>(
                delivery.scan_offsets[hit->depth]);
        } else if (kprev > 0) {
            if (cfg_.cache) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.cache_misses;
            }
            fetchScansWithRetry(req, delivery, dec, kprev, charged_full,
                                t0);
        }
        pollCancel();
        heartbeat(req, "scale-model");

        // Stage 2: scale-model inference on the decoded preview.
        // A hit may carry its preview pixels ready-made; snapshot-
        // only entries (and misses) materialize them here.
        const Image preview_full = hit && !hit->preview.empty()
                                       ? hit->preview
                                       : dec.image();
        // Offer the freshly decoded preview for caching (misses
        // only — a hit's entry is already resident). A degraded
        // preview (retry budget ran out short of kprev) is not
        // offered: the next clean decode defines the cached
        // prefix.
        if (cfg_.cache && !hit && kprev > 0 &&
            dec.scansDecoded() == kprev)
            cfg_.cache->insert(req.id, kprev, preview_full,
                               dec.snapshot());
        const Image preview =
            resize(centerCropFraction(preview_full,
                                      cfg_.crop_area),
                   scale_->options().input_res,
                   scale_->options().input_res);
        {
            std::lock_guard<std::mutex> lock(scale_mu_);
            r_idx = scale_->chooseResolutionIndex(preview);
        }

        // Stage 3: resolution decision — the scale model's
        // choice, capped by the queue-depth shed policy under
        // load.
        const int cap = cfg_.shed_cap ? cfg_.shed_cap(depth) : 0;
        if (cap > 0 && grid[r_idx] > cap) {
            int lowered = 0;
            for (size_t i = 0; i < grid.size(); ++i) {
                if (grid[i] <= cap &&
                    grid[i] >= grid[lowered])
                    lowered = static_cast<int>(i);
            }
            r_idx = lowered;
            capped = true;
        }

        // Brownout tier >= 2 sheds resolution to a floor
        // regardless of queue depth — the controller has
        // evidence the system is not keeping up at current
        // quality.
        if (tier >= 2) {
            const int floor_res =
                bc.resolution_cap > 0
                    ? bc.resolution_cap
                    : *std::min_element(grid.begin(), grid.end());
            int lowered = 0;
            for (size_t i = 0; i < grid.size(); ++i) {
                if (grid[i] <= floor_res &&
                    grid[i] >= grid[lowered])
                    lowered = static_cast<int>(i);
            }
            if (grid[r_idx] > grid[lowered]) {
                r_idx = lowered;
                tier_capped = true;
            }
        }
        resolution = grid[r_idx];
    }

    // Stage 4: ranged read + resumed decode of the remaining
    // scans the decision needs. The decoder continues from the
    // preview state — no scan is decoded twice. The full-read
    // denominator is charged by whichever fetch starts at scan 0
    // (at most one per request: the stage-1 read, or this one
    // when no preview byte was fetched). When the retry budget
    // runs out the request is served DEGRADED at the scan depth
    // already decoded.
    pollCancel();
    heartbeat(req, "resume-fetch");
    total = cfg_.scan_depth ? cfg_.scan_depth(req.id, r_idx)
                            : num_scans;
    total = std::clamp(total, kprev, num_scans);
    // Brownout tier >= 1 also caps the total scan depth (never
    // below what the preview already decoded).
    if (tier >= 1)
        total = std::min(total, std::max(bc.scan_cap, kprev));
    req.scans_intended = total;
    // Decode cache, stage 4: a cached prefix strictly deeper than
    // what this request holds (up to the target) lets the decoder
    // jump ahead and fetch only the missing range — the partial
    // hit charges only the delta. Same zero-filled placeholder
    // trick as stage 1.
    bool fetched_tail = false;
    if (cfg_.cache && dec.scansDecoded() < total) {
        const DecodeCache::EntryPtr deep = cfg_.cache->lookup(
            req.id, dec.scansDecoded() + 1, total);
        if (deep) {
            const uint64_t skipped = static_cast<uint64_t>(
                delivery.scan_offsets[deep->depth] -
                delivery.scan_offsets[dec.scansDecoded()]);
            delivery.bytes.assign(
                delivery.scan_offsets[deep->depth], 0);
            dec = ProgressiveDecoder(delivery, deep->snap);
            dec.setCancel(&req.cancel_);
            req.scans_read = dec.scansDecoded();
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.cache_resumes;
            stats_.cache_bytes_saved += skipped;
        }
    }
    if (dec.scansDecoded() < total) {
        fetched_tail = true;
        fetchScansWithRetry(req, delivery, dec, total, charged_full,
                            now());
    }
    // Offer the full-depth prefix when this request paid a
    // physical fetch to reach it. Snapshot-only (empty preview):
    // decision-only serving never materializes these pixels, and
    // a resuming hit re-derives them on demand.
    if (cfg_.cache && fetched_tail && total > 0 &&
        dec.scansDecoded() == total)
        cfg_.cache->insert(req.id, total, Image(), dec.snapshot());
    pollCancel();
    const int achieved = dec.scansDecoded();
    const bool degraded = achieved < total;
    // Nothing decoded at all when the decision needed data: there is
    // no prefix to degrade to — the request fails.
    tamres_check(achieved > 0 || total == 0, ErrorKind::Transient,
                 "request %llu: no scan of %d decodable after retries",
                 static_cast<unsigned long long>(req.id), total);

    req.resolution = resolution;
    req.resolution_index = r_idx;

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.decoded;
        stats_.scans_read += static_cast<uint64_t>(achieved);
        stats_.bytes_read += req.bytes_read;
        stats_.resolution_hist[static_cast<size_t>(r_idx)] += 1;
        if (capped)
            ++stats_.shed_cap_applied;
        if (tier_capped)
            ++stats_.brownout_capped;
    }

    if (!inner_) {
        // Decision-only mode: the request is complete once the
        // decision and byte accounting are in. Retry backoff counts
        // against the deadline, so re-check it before classifying.
        req.decode_s = now() - req.submit_s_;
        if (req.deadline_s > 0.0 && req.decode_s > req.deadline_s) {
            markTerminal(req, StagedState::Expired);
            return;
        }
        if (req.cancel_.reason() == CancelReason::Client) {
            markTerminal(req, StagedState::Cancelled);
            return;
        }
        markTerminal(req, degraded ? StagedState::Degraded
                                   : StagedState::Done);
        return;
    }

    // Stage 5: prepare the backbone input and hand off to the
    // batched inner engine. The input tensor is recycled when the
    // shape repeats, keeping the handoff allocation-light and the
    // inner batch path zero-alloc. A client cancel observed here —
    // before batch formation — still wins; past the submit below,
    // the request rides through the backbone and completes normally
    // (watchdog firings also proceed: the decode work is done).
    heartbeat(req, "handoff");
    if (req.cancel_.reason() == CancelReason::Client) {
        markTerminal(req, StagedState::Cancelled);
        return;
    }
    tamres_assert(enc.channels == 3,
                  "backbone stage needs 3-channel objects, got %d",
                  enc.channels);
    const Image full = dec.image();
    const Image sized =
        resize(centerCropFraction(full, cfg_.crop_area), resolution,
               resolution);
    const Shape want{1, 3, resolution, resolution};
    if (req.infer.input.shape() != want)
        req.infer.input = Tensor(want);
    std::copy_n(sized.data(), sized.numel(), req.infer.input.data());

    req.decode_s = now() - req.submit_s_;
    if (req.deadline_s > 0.0) {
        const double left = req.deadline_s - req.decode_s;
        if (left <= 0.0) {
            markTerminal(req, StagedState::Expired);
            return;
        }
        req.infer.deadline_s = left;
    } else {
        req.infer.deadline_s = 0.0;
    }

    // Brownout precision shed: at or past int8_tier the backbone
    // request is stamped for the quantized graph. Precision comes
    // before resolution in the degradation ladder (int8_tier is
    // normally set below the resolution-shedding tier); if the inner
    // engine carries no quantized graph the flag is a harmless no-op.
    req.infer.want_int8 = bc.enable && bc.int8_tier > 0 &&
                          tier >= bc.int8_tier;
    if (req.infer.want_int8) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.brownout_int8;
    }

    if (!inner_->submit(req.infer)) {
        markTerminal(req, StagedState::Shed);
        return;
    }
    // Unpublish before the Submitted store: the worker no longer
    // advances this request, so the watchdog must not attribute its
    // future silence (or a later freed pointer) to it.
    if (watchdog_ && tls_wd_slot >= 0) {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = nullptr;
    }
    req.state.store(static_cast<int>(StagedState::Submitted),
                    std::memory_order_release);
    done_cv_.notify_all();
}

} // namespace tamres
