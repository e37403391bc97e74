#include "sim/runner.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace rn::sim {

unsigned resolve_threads(unsigned requested, std::size_t trials) {
  unsigned t = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  if (trials > 0 && t > trials) t = static_cast<unsigned>(trials);
  return t < 1 ? 1 : t;
}

void run_parallel(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  RN_REQUIRE(static_cast<bool>(fn), "run_parallel requires a work function");
  if (count == 0) return;

  const unsigned workers = resolve_threads(threads, count);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto work = [&] {
    for (;;) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= count) return;
      try {
        fn(u);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(count, std::memory_order_relaxed);  // drain the queue
        return;
      }
    }
  };

  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned i = 0; i < workers - 1; ++i) pool.emplace_back(work);
    work();
    for (auto& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

trial_results run_trials(const run_config& cfg, const trial_fn& fn) {
  RN_REQUIRE(static_cast<bool>(fn), "run_trials requires a trial function");
  trial_results out;
  out.per_trial.resize(cfg.trials);
  run_parallel(cfg.trials, cfg.threads, [&](std::size_t t) {
    rng r = rng::for_stream(cfg.seed, cfg.stream_base + t);
    out.per_trial[t] = fn(t, r);
  });
  return out;
}

}  // namespace rn::sim
