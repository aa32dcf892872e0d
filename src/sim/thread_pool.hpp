#pragma once
/// \file thread_pool.hpp
/// \brief Work-stealing worker pool.
///
/// Used by two embarrassingly-parallel layers:
///   * the engine's parallel executor (one closure per alive machine per
///     superstep, then a barrier), and
///   * the batched local-scoring step in core/driver.cpp (one task per
///     row slab or shard × query-block tile).
///
/// Design: each worker owns a deque.  The owner pushes and pops at the back
/// (LIFO — nested submissions run hot), thieves steal *half* the victim's
/// queue from the front (FIFO — oldest, coarsest tasks migrate), so a single
/// producer's burst spreads across the pool in O(log tasks) steals.  All
/// deque access is mutex-guarded — the pool targets coarse tasks (≥ tens of
/// microseconds), where lock cost is noise and the simple protocol stays
/// TSan-clean.
///
/// Guarantees (unit-tested in tests/test_pool.cpp):
///   * every submitted job runs exactly once, even across shutdown;
///   * jobs may submit further jobs from inside the pool (they land on the
///     submitting worker's own deque; no deadlock at any nesting depth);
///   * exceptions escaping a job are captured and the *first* one is
///     rethrown from the next wait_idle() on the submitting thread;
///   * victim selection uses per-worker RNG streams that are a pure
///     function of (master seed, worker index) — Rng::split, the same
///     derivation the engine uses for machine streams — so scheduling
///     randomness is reproducible run-to-run for a fixed seed.
///
/// Output determinism is the *caller's* contract: tasks must write to
/// disjoint pre-sized slots (as the engine's per-machine contexts and the
/// driver's per-(query, shard) result slots do); the pool only promises
/// exactly-once execution, not ordering.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rng/rng.hpp"

namespace dknn {

class ThreadPool {
public:
  /// Seed for victim-selection streams when the caller has no run seed.
  static constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

  /// `threads == 0` uses std::thread::hardware_concurrency() (min 1).
  /// Worker i's steal RNG is Rng(seed).split(i).
  explicit ThreadPool(std::size_t threads = 0, std::uint64_t seed = kDefaultSeed);

  /// Drains every job already submitted (each runs exactly once), then
  /// joins.  Does not rethrow captured exceptions — call wait_idle() first
  /// if you need them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job.  From a worker thread of *this* pool the job lands on
  /// that worker's own deque (nested submission); from any other thread the
  /// jobs round-robin across workers.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job (including nested ones) has finished,
  /// then rethrows the first exception any job raised since the last
  /// wait_idle(), if any.  Must not be called from inside a pool job.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Jobs submitted but not yet finished (queued + running) — a load
  /// observer for serving loops reporting background-maintenance pressure
  /// (e.g. in-flight compactions).  Racy by nature; never synchronize on it.
  [[nodiscard]] std::size_t pending_jobs() const { return unfinished_.load(); }

  /// A completion scope over a subset of this pool's jobs.  wait_idle()
  /// waits for *global* quiescence, which several independent submitters
  /// sharing one pool can starve indefinitely (each new batch of tiles
  /// keeps `unfinished_` above zero); a TaskGroup waits for exactly the
  /// jobs it submitted and rethrows only their first exception, so
  /// concurrent scoring batches and background compactions on a shared
  /// pool never wait on (or steal errors from) each other.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    /// wait()s; a throwing destructor would terminate, so the error (if
    /// any) is swallowed here — call wait() explicitly if you need it.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues a job on the pool, tracked by this group.
    void submit(std::function<void()> job);

    /// Blocks until every job submitted through *this group* has finished,
    /// then rethrows the first exception any of them raised (clearing it).
    /// Unlike wait_idle(), safe while other threads keep the pool busy.
    void wait();

   private:
    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex mutex_;
    std::condition_variable done_;
    std::exception_ptr error_;  ///< guarded by mutex_
  };

private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> jobs;  ///< owner: back; thieves: front
    Rng rng;                                 ///< victim selection stream

    explicit Worker(Rng stream) : rng(std::move(stream)) {}
  };

  void worker_loop(std::size_t index);
  bool try_pop_local(std::size_t index, std::function<void()>& job);
  bool try_steal(std::size_t index, std::function<void()>& job);
  void run_job(std::function<void()>& job);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  /// Jobs sitting in some deque (not yet popped).  Guarded by sleep_mutex_
  /// for the sleep/wake protocol; also touched under the owning deque's
  /// mutex at push/pop sites.
  std::atomic<std::size_t> queued_{0};
  /// Jobs submitted but not yet finished executing.
  std::atomic<std::size_t> unfinished_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_external_{0};

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::exception_ptr first_error_;  ///< guarded by sleep_mutex_
};

}  // namespace dknn
