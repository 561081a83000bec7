#include "obs/trace.hh"

#include <atomic>

#include "support/parallel.hh"

namespace coterie::obs {

namespace {

/**
 * Bridges support::ThreadPool's observer hooks into counter tracks and
 * `pool.*` metrics. Observe-only: it records and never touches pool
 * state. Installed once for the process lifetime (the pool requires
 * the observer to outlive all pool use).
 */
class PoolTracer final : public support::PoolObserver
{
  public:
    void onJobBegin(std::int64_t chunkCount) override
    {
        const int depth =
            queueDepth_.fetch_add(1, std::memory_order_relaxed) + 1;
        COTERIE_COUNT("pool.jobs");
        COTERIE_COUNT_N("pool.chunks", chunkCount);
        flight::recordCounter(
            "pool.queue_depth", static_cast<double>(depth));
    }

    void onJobEnd(std::int64_t /*chunkCount*/) override
    {
        const int depth =
            queueDepth_.fetch_sub(1, std::memory_order_relaxed) - 1;
        flight::recordCounter(
            "pool.queue_depth", static_cast<double>(depth));
    }

    void onWorkerActivity(int activeWorkers, int workerCount) override
    {
        flight::recordCounter(
            "pool.active_workers", static_cast<double>(activeWorkers));
        if (workerCount > 0) {
            COTERIE_GAUGE_SET("pool.worker_utilization",
                              static_cast<double>(activeWorkers) /
                                  static_cast<double>(workerCount));
        }
    }

  private:
    std::atomic<int> queueDepth_{0};
};

} // namespace

void
installPoolTelemetry()
{
    // Leaked singleton: the pool observer contract requires the
    // observer to outlive every pool job, including ones racing with
    // static destruction.
    static PoolTracer *tracer = [] {
        auto *t = new PoolTracer();
        support::setPoolObserver(t);
        return t;
    }();
    (void)tracer;
}

} // namespace coterie::obs
