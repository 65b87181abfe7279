/**
 * @file
 * The benchmark's fetch-timing decorator: an ObjectStore that forwards
 * everything to its base and records one FetchRecord per call of the
 * single read primitive, fetchScanRange. It is stacked above the
 * storage tier (and its fault injection) only in the traced run, so
 * the untraced run measures the stack without it.
 */

#ifndef TAMRES_PERFBENCH_TIMED_STORE_HH
#define TAMRES_PERFBENCH_TIMED_STORE_HH

#include <functional>
#include <mutex>
#include <vector>

#include "storage/object_store.hh"

namespace perfbench {

/** One timed call of fetchScanRange. */
struct FetchRecord
{
    uint64_t id = 0;     //!< object fetched
    int from_scans = 0;  //!< range start (0 = stage-1 preview read)
    int to_scans = 0;    //!< range end (exclusive)
    double start_s = 0;  //!< harness clock at call
    double end_s = 0;    //!< harness clock at return or throw
    size_t bytes = 0;    //!< bytes appended (0 when it threw)
    bool ok = true;      //!< false when the fetch threw
};

class TimedObjectStore : public tamres::ObjectStore
{
  public:
    /** @p now is the harness clock the records are stamped with. */
    TimedObjectStore(tamres::ObjectStore &base, std::function<double()> now)
        : base_(&base), now_(std::move(now))
    {
        records_.reserve(1 << 14);
    }

    void put(uint64_t id, tamres::EncodedImage image) override
    {
        base_->put(id, std::move(image));
    }
    bool contains(uint64_t id) const override { return base_->contains(id); }
    uint64_t storedBytes() const override { return base_->storedBytes(); }
    size_t size() const override { return base_->size(); }
    const tamres::EncodedImage &peek(uint64_t id) const override
    {
        return base_->peek(id);
    }
    tamres::ReadStats stats() const override { return base_->stats(); }
    void resetStats() override { base_->resetStats(); }
    tamres::ObjectStore &root() override { return base_->root(); }

    size_t fetchScanRange(uint64_t id, int from_scans, int to_scans,
                          std::vector<uint8_t> &dst, bool charge_full,
                          size_t max_bytes = SIZE_MAX,
                          const tamres::CancelToken *cancel = nullptr) override
    {
        FetchRecord rec;
        rec.id = id;
        rec.from_scans = from_scans;
        rec.to_scans = to_scans;
        rec.start_s = now_();
        try {
            rec.bytes = base_->fetchScanRange(id, from_scans, to_scans, dst,
                                              charge_full, max_bytes, cancel);
        } catch (...) {
            rec.ok = false;
            rec.end_s = now_();
            append(rec);
            throw;
        }
        rec.end_s = now_();
        append(rec);
        return rec.bytes;
    }

    /** Records taken so far (copy; safe while serving). */
    std::vector<FetchRecord> records() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return records_;
    }

    /** Drop the records taken so far. */
    void clearRecords()
    {
        std::lock_guard<std::mutex> lock(mu_);
        records_.clear();
    }

  private:
    void append(const FetchRecord &rec)
    {
        std::lock_guard<std::mutex> lock(mu_);
        records_.push_back(rec);
    }

    tamres::ObjectStore *base_;
    std::function<double()> now_;
    mutable std::mutex mu_; //!< guards records_
    std::vector<FetchRecord> records_;
};

} // namespace perfbench

#endif // TAMRES_PERFBENCH_TIMED_STORE_HH
