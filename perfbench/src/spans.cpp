#include "spans.hpp"

#include <fstream>

namespace perfbench {

SpanRecorder::SpanRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      owner_(std::this_thread::get_id()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t SpanRecorder::open(const char* name, std::int64_t arg) {
  if (std::this_thread::get_id() != owner_ && errors_.size() < 8) {
    errors_.push_back(std::string("span '") + name +
                      "' opened off the recording thread");
  }
  Span s;
  s.name = name;
  s.arg = arg;
  s.parent = open_.empty() ? Span::kNoParent : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  const std::int64_t t = now_ns();
  bool found = false;
  for (std::size_t i : open_) found = found || i == id;
  if (!found) {
    if (errors_.size() < 8) {
      errors_.push_back("close of span " + std::to_string(id) +
                        " which is not open");
    }
    return;
  }
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = t;
    if (top == id) break;
  }
}

double SpanRecorder::seconds(std::size_t id) const {
  const Span& s = spans_.at(id);
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, double> SpanRecorder::self_times(std::size_t root) const {
  // Children nest inside their parent and never overlap each other (one
  // thread, stack discipline), so the time a span's children cover is the
  // sum of their durations.
  std::vector<std::int64_t> self(spans_.size(), 0);
  std::vector<bool> inside(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent != Span::kNoParent) {
      self[s.parent] -= s.end_ns - s.start_ns;
      // Spans are stored in open order, so a parent precedes its children.
      inside[i] = inside[s.parent];
    }
    if (i == root) inside[i] = true;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i]) {
      by_name[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
  }
  return by_name;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
      << s.name << "\",\"arg\":" << s.arg << ",\"parent\":"
      << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  f << "\n]}\n";
  return f.flush().good();
}

}  // namespace perfbench
