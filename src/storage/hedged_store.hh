/**
 * @file
 * Hedged reads as an ObjectStore decorator (Dean & Barroso's
 * tail-at-scale move; narrative in docs/robustness.md).
 *
 * Each fetchScanRange() call runs its primary read on the calling
 * thread. A primary still in flight after the hedge delay (the 95th
 * percentile of recent successful fetch latencies, clamped to
 * [min_delay_s, max_delay_s], max_delay_s until there are samples)
 * gets ONE backup read of the same range on a thread of its own; the
 * first success is adopted. One timer thread per decorator watches
 * the delays, so a call that ends before its delay waits on no other
 * thread.
 *
 * Join-on-return: no read outlives its call. Each read carries its own
 * CancelToken chained under the caller's; when one read succeeds, the
 * other's token fires Superseded (surfacing as ErrorKind::Cancelled,
 * which a breaker below releases uncounted) and the call joins it.
 * Stores must poll their token while they wait, or the hedge saves
 * nothing.
 *
 * Metering: the base store meters both reads; a loser's delivered
 * bytes are in ReadStats::hedge_loser_bytes before the call returns.
 * Both reads pass the caller's charge_full; a loser superseded before
 * its last chunk never charges the full-read denominator, so it is
 * charged twice only when both reads deliver the whole range first.
 * Hedge timing is wall-clock: it races real threads.
 */

#ifndef TAMRES_STORAGE_HEDGED_STORE_HH
#define TAMRES_STORAGE_HEDGED_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/object_store.hh"
#include "util/windowed.hh"

namespace tamres {

/**
 * Hedged-read policy. inflight_budget bounds the backups running at
 * once across all callers, so a sick store cannot amplify load; each
 * fetchScanRange() call issues at most one backup.
 */
struct HedgeConfig
{
    bool enable = false;
    double min_delay_s = 1e-3; //!< hedge-delay floor
    double max_delay_s = 0.1;  //!< hedge-delay ceiling + bootstrap
    int inflight_budget = 4;   //!< global concurrent backup cap
};

class HedgedObjectStore : public ObjectStoreDecorator
{
  public:
    /**
     * @p base must outlive the decorator, and no call may be in flight
     * when it is destroyed.
     */
    HedgedObjectStore(ObjectStore &base, HedgeConfig config);
    ~HedgedObjectStore() override;

    HedgedObjectStore(const HedgedObjectStore &) = delete;
    HedgedObjectStore &operator=(const HedgedObjectStore &) = delete;

    ReadStats stats() const override;
    void resetStats() override;

    /**
     * Race a primary read against at most one backup (see file docs).
     * Returns the winner's appended byte count; when both reads fail,
     * throws the primary's error, with whatever the primary delivered
     * left appended to @p dst.
     */
    size_t fetchScanRange(uint64_t id, int from_scans, int to_scans,
                          std::vector<uint8_t> &dst,
                          bool charge_full = true,
                          size_t max_bytes = SIZE_MAX,
                          const CancelToken *cancel = nullptr) override;

  private:
    struct Race; // one call's primary-vs-backup state

    void timerLoop();
    void runBackup(Race &race);

    HedgeConfig cfg_;
    mutable std::mutex mu_;  //!< guards everything below but timer_
    std::condition_variable cv_; //!< wakes the timer thread
    std::vector<Race *> waiting_; //!< primaries not yet past their delay
    double timer_wake_s_;    //!< when the timer wakes next (inf = idle)
    bool stopping_ = false;
    int backups_ = 0;        //!< backups running now
    QuantileWindow lat_;     //!< successful fetch latencies
    ReadStats counters_;     //!< only the hedge fields are used
    std::thread timer_;      //!< null when hedging is off
};

} // namespace tamres

#endif // TAMRES_STORAGE_HEDGED_STORE_HH
