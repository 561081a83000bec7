/**
 * @file
 * Shared thread pool and deterministic data-parallel helpers.
 *
 * Every parallel stage of the frame pipeline (panorama rendering, the
 * quadtree partitioner's per-region cutoff searches, the pano cache's
 * batched renders, the SSIM kernel) submits work to one persistent,
 * lazily-initialized pool instead of spawning threads per call.
 *
 * Determinism contract: `parallelFor` splits [begin, end) into chunks
 * whose boundaries depend only on (begin, end, grain) — never on the
 * worker count — so a kernel that accumulates per chunk and reduces in
 * chunk order produces bit-identical results at any `COTERIE_THREADS`
 * value, including 1. Which worker executes a chunk is unspecified;
 * what each chunk computes is not.
 *
 * Pool size: `COTERIE_THREADS` env var if set (>= 1), else
 * std::thread::hardware_concurrency(). A size of 1 means no worker
 * threads — everything runs inline on the caller. Nested parallelFor
 * calls (from inside a pool task) always run inline, so kernels may
 * compose freely without deadlock.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hh"

namespace coterie::support {

/** Chunked loop body: invoked once per chunk with [chunkBegin, chunkEnd). */
using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

/**
 * Observe-only telemetry hooks into the pool (queue depth and worker
 * utilisation tracks for the trace exporter). `support` must not
 * depend on `obs`, so the observability layer registers itself here
 * instead of the pool calling it directly. Callbacks may fire from
 * any worker thread and must be thread-safe; they must never block on
 * pool progress or mutate pool state. The installed observer must
 * outlive all pool use (obs installs a process-lifetime singleton).
 */
class PoolObserver
{
  public:
    virtual ~PoolObserver() = default;
    /** A pooled job with @p chunkCount chunks was submitted. */
    virtual void onJobBegin(std::int64_t chunkCount) = 0;
    /** That job completed (all chunks done). */
    virtual void onJobEnd(std::int64_t chunkCount) = 0;
    /** A worker started/stopped running chunks. */
    virtual void onWorkerActivity(int activeWorkers, int workerCount) = 0;
};

/** Install (or clear, with nullptr) the process-wide pool observer. */
void setPoolObserver(PoolObserver *observer);

/**
 * Persistent worker pool. Use the process-wide `instance()` (what the
 * free helpers below dispatch to); standalone instances are
 * constructible for tests that need a specific worker count.
 */
class ThreadPool
{
  public:
    /** @p threads total lanes including the caller; <= 1 -> no workers. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The shared pool, created on first use. Size comes from
     * `COTERIE_THREADS` (else hardware concurrency), clamped to
     * [1, 256].
     */
    static ThreadPool &instance();

    /** Total parallel lanes (worker threads + the calling thread). */
    int concurrency() const { return workerCount_ + 1; }

    /**
     * Run @p fn over [begin, end) in chunks of @p grain indices
     * (grain <= 0 picks a thread-count-independent default). The
     * caller participates; returns after every chunk has completed.
     * The first exception thrown by any chunk is rethrown here (the
     * remaining chunks are skipped).
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     std::int64_t grain, const ChunkFn &fn);

    /** True while inside a pool task (nested calls run inline). */
    static bool onWorkerThread();

  private:
    struct Job;

    void workerLoop();
    static void runChunks(Job &job);

    Mutex mutex_{"ThreadPool::mutex_"};
    CondVar workCv_;
    CondVar doneCv_;
    Mutex submitMutex_{"ThreadPool::submitMutex_"}; ///< serializes concurrent top-level jobs
    Job *job_ COTERIE_GUARDED_BY(mutex_) = nullptr;
    std::uint64_t generation_ COTERIE_GUARDED_BY(mutex_) = 0;
    int activeWorkers_ COTERIE_GUARDED_BY(mutex_) = 0;
    bool stop_ COTERIE_GUARDED_BY(mutex_) = false;
    int workerCount_ = 0; ///< immutable after the constructor
    std::vector<std::thread> workers_;
};

/**
 * Chunked parallel loop on the shared pool. @p threads: 0 = shared
 * pool, 1 = force serial inline execution (also used for the
 * serial-vs-pooled determinism checks); other values use the pool.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const ChunkFn &fn, int threads = 0);

/**
 * Map i -> fn(i) for i in [0, n) into an ordered vector. Results are
 * positionally stored, so the output never depends on scheduling.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::int64_t n, std::int64_t grain, Fn &&fn, int threads = 0)
{
    std::vector<T> out(static_cast<std::size_t>(n > 0 ? n : 0));
    parallelFor(
        0, n, grain,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                out[static_cast<std::size_t>(i)] = fn(i);
        },
        threads);
    return out;
}

} // namespace coterie::support
