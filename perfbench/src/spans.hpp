// In-memory span recorder for the benchmark's traced pass.
//
// A span is a named host-time interval with a parent: the span that was
// innermost-open when it started. The traced pass runs on one thread (the
// service on its serial engine), so spans nest strictly and a layer's self
// time — its spans' durations minus the time their children cover —
// partitions the root span's wall time exactly. Spans are kept in memory
// and written out once, when the benchmark exits.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  const char* name = "";
  std::int64_t arg = -1;  ///< shard index, core count, ... (-1 = none)
  std::size_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a child of the innermost open span; returns its id.
  std::size_t open(const char* name, std::int64_t arg = -1);

  /// Closes span `id`. Spans opened inside it and still open (an exception
  /// unwound past their close) are closed at the same instant.
  void close(std::size_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Nesting violations found so far (a span opened from a second thread,
  /// a close of a span that is not open). Empty for a valid trace.
  const std::vector<std::string>& errors() const noexcept { return errors_; }

  double seconds(std::size_t id) const;

  /// Self time (seconds) summed by span name over the subtree rooted at
  /// `root`, the root included. Self times of a subtree sum to the root's
  /// duration.
  std::map<std::string, double> self_times(std::size_t root) const;

  /// Writes {"spans":[...]} as JSON; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<std::string> errors_;
};

/// RAII span; a null recorder makes it a no-op (the untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t arg = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, arg) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

}  // namespace perfbench
