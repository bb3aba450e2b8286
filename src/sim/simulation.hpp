// pdceval -- discrete-event simulation kernel.
//
// Deterministic. Processes are `Task<void>` coroutines spawned on the
// simulation; they suspend on awaitables (delays, mailboxes, locks) and are
// resumed by the event loop in strict (time, FIFO) order. One queue, one
// thread: every run of the same program dispatches the same events in the
// same order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace pdc::sim {

/// Thrown when Simulation::run exceeds its event budget -- almost always a
/// runaway process (e.g. a livelocked protocol loop).
class EventBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown at the end of run() if any spawned process is still suspended and
/// no event can ever wake it (deadlock).
class DeadlockDetected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Schedule an arbitrary event at absolute time `at` (>= now()). Events
  /// at exactly now() take the queue's FIFO fast lane (no heap sift).
  void schedule_at(TimePoint at, Event event) {
    if (at < now_) throw std::invalid_argument("Simulation::schedule_at: time in the past");
    if (at == now_) {
      queue_.push_now(at, std::move(event));
    } else {
      queue_.push(at, std::move(event));
    }
  }
  /// Schedule an event `after` from now.
  void schedule_in(Duration after, Event event) { schedule_at(now() + after, std::move(event)); }
  /// Schedule a coroutine resume (the kernel's non-allocating fast path).
  void schedule_resume(TimePoint at, std::coroutine_handle<> h) {
    schedule_at(at, Event{h});
  }

  /// Launch a root process. It starts at the current simulated time (the
  /// start is itself an event, preserving FIFO order among spawns).
  void spawn(Task<> process, std::string name = {});

  /// Launch a root process that starts at absolute time `at` (>= now());
  /// safe mid-run, e.g. from a scheduler placing a job.
  void spawn_at(TimePoint at, Task<> process, std::string name = {});

  /// Run until the event queue drains (or `until`, whichever first).
  /// Returns the final simulated time. Rethrows the first exception raised
  /// by any root process. Throws DeadlockDetected if the queue drained but
  /// some root process never finished.
  TimePoint run(TimePoint until = {std::numeric_limits<std::int64_t>::max()});

  /// Awaitable: suspend the calling process for `d` (>= 0) simulated time.
  [[nodiscard]] auto delay(Duration d) {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim.schedule_resume(sim.now() + d, h);
      }
      void await_resume() const noexcept {}
    };
    if (d < Duration::zero()) throw std::invalid_argument("Simulation::delay: negative duration");
    return Awaiter{*this, d};
  }

  /// Awaitable: suspend until absolute time `at` (clamped to now()).
  [[nodiscard]] auto delay_until(TimePoint at) {
    const TimePoint n = now();
    return delay(at > n ? at - n : Duration::zero());
  }

  /// Maximum number of events run() may process before aborting.
  void set_event_budget(std::uint64_t budget) noexcept { event_budget_ = budget; }

  /// Event-queue instrumentation (fast-lane vs heap push mix).
  [[nodiscard]] const EventQueue::Stats& queue_stats() const noexcept { return queue_.stats(); }

 private:
  struct RootProcess {
    Task<> task;
    std::string name;
  };

  void finish_run_checks();

  TimePoint now_{TimePoint::origin()};
  EventQueue queue_;
  std::vector<std::unique_ptr<RootProcess>> roots_;
  std::uint64_t events_processed_{0};
  std::uint64_t event_budget_{500'000'000};
};

}  // namespace pdc::sim
