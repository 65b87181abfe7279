#include "storage/hedged_store.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "util/clock.hh"

namespace tamres {

namespace {

constexpr double kDelayQuantile = 0.95; //!< hedge past this quantile
constexpr int kLatencyWindow = 64;      //!< samples kept for it
constexpr int kMinSamples = 8;          //!< evidence before tracking
constexpr double kIdle = std::numeric_limits<double>::infinity();

} // namespace

/**
 * One call's race, on the caller's stack. The flags are guarded by the
 * decorator's mu_; the caller joins the backup before the Race dies.
 */
struct HedgedObjectStore::Race
{
    explicit Race(const CancelToken *cancel)
        : primary_tok(cancel), backup_tok(cancel)
    {}

    uint64_t id = 0;
    int from_scans = 0;
    int to_scans = 0;
    size_t begin = 0; //!< dst.size() at the call
    bool charge_full = true;
    size_t max_bytes = SIZE_MAX;
    double t0 = 0;       //!< wall clock at the call
    double hedge_at = 0; //!< wall clock the backup may start at

    CancelToken primary_tok;
    CancelToken backup_tok;
    bool primary_won = false;
    bool backup_won = false;
    std::thread backup;              //!< started by the timer thread
    std::vector<uint8_t> backup_buf; //!< the backup's delivery
};

HedgedObjectStore::HedgedObjectStore(ObjectStore &base, HedgeConfig config)
    : ObjectStoreDecorator(base), cfg_(config), timer_wake_s_(kIdle),
      lat_(kLatencyWindow)
{
    if (cfg_.enable && cfg_.inflight_budget > 0)
        timer_ = std::thread([this] { timerLoop(); });
}

HedgedObjectStore::~HedgedObjectStore()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (timer_.joinable())
        timer_.join();
}

ReadStats
HedgedObjectStore::stats() const
{
    ReadStats out = base_->stats();
    std::lock_guard<std::mutex> lock(mu_);
    out.merge(counters_);
    return out;
}

void
HedgedObjectStore::resetStats()
{
    base_->resetStats();
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = ReadStats{};
}

void
HedgedObjectStore::timerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
        // Every waiting primary gets one chance: past its delay it
        // leaves the list, with a backup when the budget allows one.
        const double now = Clock::steady().now();
        timer_wake_s_ = kIdle;
        for (auto it = waiting_.begin(); it != waiting_.end();) {
            Race *race = *it;
            if (race->hedge_at > now) {
                timer_wake_s_ = std::min(timer_wake_s_, race->hedge_at);
                ++it;
                continue;
            }
            if (backups_ < cfg_.inflight_budget) {
                ++backups_;
                ++counters_.hedges_issued;
                race->backup = std::thread([this, race] { runBackup(*race); });
            }
            it = waiting_.erase(it);
        }
        if (timer_wake_s_ == kIdle)
            cv_.wait(lock);
        else
            cv_.wait_for(lock,
                         std::chrono::duration<double>(timer_wake_s_ - now));
    }
}

void
HedgedObjectStore::runBackup(Race &race)
{
    // Scratch delivery prefix: the primitive only requires
    // dst.size() == the range's start offset.
    std::vector<uint8_t> buf(race.begin);
    bool ok = false;
    try {
        base_->fetchScanRange(race.id, race.from_scans, race.to_scans, buf,
                              race.charge_full, race.max_bytes,
                              &race.backup_tok);
        ok = true;
    } catch (...) {
        // The primary's outcome decides what the caller sees.
    }
    bool won = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        --backups_;
        race.backup_buf = std::move(buf);
        if (ok && !race.primary_won) {
            won = race.backup_won = true;
            lat_.record(Clock::steady().now() - race.t0);
        }
    }
    if (won)
        race.primary_tok.cancel(CancelReason::Superseded);
}

size_t
HedgedObjectStore::fetchScanRange(uint64_t id, int from_scans,
                                  int to_scans,
                                  std::vector<uint8_t> &dst,
                                  bool charge_full, size_t max_bytes,
                                  const CancelToken *cancel)
{
    if (!timer_.joinable())
        return base_->fetchScanRange(id, from_scans, to_scans, dst,
                                     charge_full, max_bytes, cancel);

    Race race(cancel);
    race.id = id;
    race.from_scans = from_scans;
    race.to_scans = to_scans;
    race.begin = dst.size();
    race.charge_full = charge_full;
    race.max_bytes = max_bytes;
    race.t0 = Clock::steady().now();
    bool wake_timer = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const double delay =
            lat_.count() < kMinSamples
                ? cfg_.max_delay_s
                : std::clamp(lat_.quantile(kDelayQuantile),
                             cfg_.min_delay_s, cfg_.max_delay_s);
        race.hedge_at = race.t0 + delay;
        waiting_.push_back(&race);
        wake_timer = race.hedge_at < timer_wake_s_;
    }
    if (wake_timer)
        cv_.notify_one();

    std::exception_ptr primary_err;
    try {
        base_->fetchScanRange(id, from_scans, to_scans, dst, charge_full,
                              max_bytes, &race.primary_tok);
    } catch (...) {
        primary_err = std::current_exception();
    }
    {
        // Settle: past this point the timer can no longer start a
        // backup for this call, so race.backup is stable.
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = std::find(waiting_.begin(), waiting_.end(), &race);
        if (it != waiting_.end())
            waiting_.erase(it);
        if (!primary_err && !race.backup_won) {
            race.primary_won = true;
            lat_.record(Clock::steady().now() - race.t0);
        }
    }
    if (race.backup.joinable()) {
        if (race.primary_won)
            race.backup_tok.cancel(CancelReason::Superseded);
        race.backup.join();
        // Joined: the loser's delivery is final. A winning backup's
        // range replaces whatever the primary appended.
        const std::vector<uint8_t> &loser =
            race.backup_won ? dst : race.backup_buf;
        {
            std::lock_guard<std::mutex> lock(mu_);
            counters_.hedge_loser_bytes += loser.size() - race.begin;
            counters_.hedge_wins += race.backup_won ? 1 : 0;
        }
        if (race.backup_won) {
            dst.resize(race.begin);
            dst.insert(dst.end(),
                       race.backup_buf.begin() +
                           static_cast<ptrdiff_t>(race.begin),
                       race.backup_buf.end());
        }
    }
    if (!race.primary_won && !race.backup_won)
        std::rethrow_exception(primary_err);
    return dst.size() - race.begin;
}

} // namespace tamres
