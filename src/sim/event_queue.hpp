// pdceval -- time-ordered event queue.
//
// Three internal lanes, all ordered globally by (time, sequence) so that
// same-time events fire in push order -- deterministic across runs and
// platforms -- no matter which lane an event lands in:
//
//   1. A FIFO *fast lane* for events pushed at the queue's current minimum
//      time (the `Mailbox::push` -> `schedule_resume(now)` pattern): O(1)
//      push and pop, no heap sift.
//   2. A *sorted run* for pushes whose time is >= the last sorted-run push
//      (monotone completion-time chains from SerialResource and delays --
//      the dominant scheduling pattern): O(1) append and pop-front.
//   3. A 4-ary implicit min-heap for genuinely out-of-order pushes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace pdc::sim {

class EventQueue {
 public:
  using Action = Event;  // historical alias; Event accepts any callable

  /// Enqueue `ev` to fire at absolute time `at`.
  void push(TimePoint at, Event ev) {
    if (run_empty() || at >= run_.back().at) {
      // Monotone append: the sorted run stays ordered by (at, seq) because
      // seq grows with every push.
      if (run_empty() && !run_.empty()) {
        run_.clear();
        run_head_ = 0;
      }
      ++stats_.run_pushes;
      run_.push_back(Entry{at, next_seq_++, std::move(ev)});
      return;
    }
    push_out_of_order(at, next_seq_++, std::move(ev));
  }

  /// Enqueue `ev` at `at` where `at` is the caller's current time (i.e. no
  /// pending event fires earlier). Joins the FIFO fast lane when possible;
  /// falls back to the general push otherwise, so it is always safe.
  void push_now(TimePoint at, Event ev) {
    if (lane_empty()) {
      // Reuse the drained buffer instead of shifting elements.
      lane_.clear();
      lane_head_ = 0;
      lane_time_ = at;
    } else if (at != lane_time_) {
      push(at, std::move(ev));
      return;
    }
    ++stats_.lane_pushes;
    lane_.push_back(LaneEntry{next_seq_++, std::move(ev)});
  }

  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && lane_empty() && run_empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + (lane_.size() - lane_head_) + (run_.size() - run_head_);
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] TimePoint next_time() const noexcept;

  /// Remove and return the earliest pending event (FIFO among equal times).
  /// Precondition: !empty().
  [[nodiscard]] Event pop();

  /// Fused empty/next_time/pop for the scheduler's hot loop: if the minimal
  /// pending event fires at or before `until`, move it into `out`, set `at`
  /// and return true; otherwise leave the queue untouched and return false.
  [[nodiscard]] bool pop_next(TimePoint until, TimePoint& at, Event& out) {
    // 0 = lane, 1 = run, 2 = heap (same selection as pop(), one scan).
    int src = -1;
    TimePoint best{};
    std::uint64_t best_seq = 0;
    if (!lane_empty()) {
      src = 0;
      best = lane_time_;
      best_seq = lane_[lane_head_].seq;
    }
    if (!run_empty()) {
      const Entry& r = run_[run_head_];
      if (src < 0 || before(r.at, r.seq, best, best_seq)) {
        src = 1;
        best = r.at;
        best_seq = r.seq;
      }
    }
    if (!heap_.empty()) {
      const Entry& h = heap_.front();
      if (src < 0 || before(h.at, h.seq, best, best_seq)) {
        src = 2;
        best = h.at;
        best_seq = h.seq;
      }
    }
    if (src < 0 || best > until) return false;
    at = best;
    if (src == 0) [[likely]] {
      out = std::move(lane_[lane_head_++].ev);
      if (lane_head_ >= kCompactMin && lane_head_ * 2 >= lane_.size()) compact_lane();
    } else if (src == 1) {
      out = std::move(run_[run_head_++].ev);
      if (run_head_ >= kCompactMin && run_head_ * 2 >= run_.size()) compact_run();
    } else {
      out = pop_heap_top();
    }
    return true;
  }

  /// Drop all pending events and reset the sequence counter, so a cleared
  /// queue reproduces the same (time, seq) ordering as a fresh one.
  void clear();

  struct Stats {
    std::uint64_t lane_pushes{0};  ///< O(1) same-time fast-lane pushes
    std::uint64_t run_pushes{0};   ///< O(1) sorted-run appends
    std::uint64_t heap_pushes{0};  ///< pushes that paid a heap sift
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kArity = 4;
  // Drained-prefix compaction threshold for the lane/run vectors.
  static constexpr std::size_t kCompactMin = 1024;

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    Event ev;
  };
  struct LaneEntry {
    std::uint64_t seq;
    Event ev;
  };

  [[nodiscard]] static bool before(TimePoint at_a, std::uint64_t seq_a, TimePoint at_b,
                                   std::uint64_t seq_b) noexcept {
    return at_a != at_b ? at_a < at_b : seq_a < seq_b;
  }
  [[nodiscard]] bool lane_empty() const noexcept { return lane_head_ == lane_.size(); }
  [[nodiscard]] bool run_empty() const noexcept { return run_head_ == run_.size(); }

  void push_out_of_order(TimePoint at, std::uint64_t seq, Event ev);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  [[nodiscard]] Event pop_heap_top();
  [[nodiscard]] Event pop_run_front();
  void compact_lane();
  void compact_run();

  std::vector<Entry> heap_;      // 4-ary min-heap on (at, seq)
  std::vector<Entry> run_;       // sorted by (at, seq); consumed from run_head_
  std::vector<LaneEntry> lane_;  // FIFO of events at lane_time_
  std::size_t run_head_{0};
  std::size_t lane_head_{0};
  TimePoint lane_time_{};
  std::uint64_t next_seq_{0};
  Stats stats_{};
};

}  // namespace pdc::sim
