// Deterministic keyed task pool — the host-side execution engine behind
// parallel shard simulation (DESIGN.md §13).
//
// The heap service's shards are independent simulators: each owns its
// Runtime, ShadowMutator and scheduler bookkeeping, and is bit-deterministic
// from its seed. Cross-shard host parallelism therefore preserves the
// serial semantics as long as
//   (1) tasks for the SAME key run in submission order, one at a time
//       (per-key FIFO), and
//   (2) the submitter joins a key before reading that shard's state.
// The pool enforces (1); HeapService's conductor loop enforces (2) by
// joining exactly at its data dependencies (closed-loop arrival sampling,
// admission control, fleet observation).
//
// With `threads <= 1` the pool degenerates to inline execution on the
// caller's thread — byte-for-byte the serial engine, with identical
// exception propagation. This is the reference mode the parallel mode is
// tested against (tests/test_service_parallel.cpp).
//
// Exception contract (parallel mode): the first exception thrown by a task
// is captured; every task still queued afterwards is discarded (mirroring
// serial execution, where a throw prevents all later work from starting),
// and the exception is rethrown from the next join()/join_all() once the
// pool has fully drained — so no worker can be touching shard state while
// the caller unwinds.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hwgc {

class ShardPool {
 public:
  using Task = std::function<void()>;

  /// `keys` is the number of independent FIFO lanes (one per shard);
  /// `threads <= 1` selects inline (serial) execution.
  ShardPool(std::size_t keys, std::size_t threads) : state_(keys) {
    if (threads > 1) {
      workers_.reserve(threads);
      for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker(); });
      }
    }
  }

  ~ShardPool() {
    if (workers_.empty()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  bool parallel() const noexcept { return !workers_.empty(); }

  /// Enqueues a task on `key`'s FIFO lane. Inline mode runs it before
  /// returning (exceptions propagate to the caller directly).
  void submit(std::size_t key, Task task) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      KeyState& st = state_[key];
      st.queue.push_back(std::move(task));
      ++st.pending;
      ++total_pending_;
      if (!st.scheduled && !st.running) {
        st.scheduled = true;
        ready_.push_back(key);
      }
    }
    cv_work_.notify_one();
  }

  /// Blocks until every task submitted on `key` has finished. Rethrows a
  /// captured task exception (after a full drain; see contract above).
  void join(std::size_t key) {
    if (workers_.empty()) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      if (failure_) return total_pending_ == 0;
      return state_[key].pending == 0;
    });
    rethrow_locked(lk);
  }

  /// Blocks until every submitted task has finished; rethrows a captured
  /// task exception.
  void join_all() {
    if (workers_.empty()) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return total_pending_ == 0; });
    rethrow_locked(lk);
  }

 private:
  struct KeyState {
    std::deque<Task> queue;
    std::size_t pending = 0;  ///< queued + running
    bool running = false;
    bool scheduled = false;  ///< on ready_ awaiting a worker
  };

  void rethrow_locked(std::unique_lock<std::mutex>& lk) {
    if (!failure_) return;
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }

  void worker() {
    for (;;) {
      std::size_t key = 0;
      Task task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || !ready_.empty(); });
        if (stop_) return;
        key = ready_.front();
        ready_.pop_front();
        KeyState& st = state_[key];
        st.scheduled = false;
        if (failure_) {
          // Discard the lane: serial execution would never have reached
          // these tasks either.
          const std::size_t n = st.queue.size();
          st.queue.clear();
          st.pending -= n;
          total_pending_ -= n;
          if (st.pending == 0 || total_pending_ == 0) cv_done_.notify_all();
          continue;
        }
        task = std::move(st.queue.front());
        st.queue.pop_front();
        st.running = true;
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!failure_) failure_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        KeyState& st = state_[key];
        st.running = false;
        --st.pending;
        --total_pending_;
        if (!st.queue.empty() && !st.scheduled) {
          st.scheduled = true;
          ready_.push_back(key);
          cv_work_.notify_one();
        }
        if (st.pending == 0 || total_pending_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<KeyState> state_;
  std::deque<std::size_t> ready_;  ///< keys with work and no worker
  std::size_t total_pending_ = 0;
  bool stop_ = false;
  std::exception_ptr failure_;
  std::vector<std::thread> workers_;
};

}  // namespace hwgc
