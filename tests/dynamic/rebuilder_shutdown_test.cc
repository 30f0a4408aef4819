// BackgroundRebuilder shutdown latency: Stop() takes effect between
// managers inside a sweep, so a long multi-shard poll delays shutdown by
// at most one manager's step — not the whole sweep. Regression for the
// many-shard case where each manager's step costs real time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/dictionary_manager.h"
#include "workload/drift.h"

namespace hope::dynamic {
namespace {

TEST(RebuilderShutdownTest, StopDoesNotWaitOutAMultiShardSweep) {
  // Every manager's trigger stays on while every candidate is rejected:
  // drifted traffic holds the EWMA below the baseline, a zero drop
  // threshold fires on that, an unbeatable gain gate rejects each
  // candidate without moving the baseline, and no backoff follows the
  // reject. So each sweep runs one real build + validate per manager.
  constexpr size_t kManagers = 24;
  DriftOptions dopt;
  dopt.keys_per_phase = 1000;
  dopt.num_phases = 3;
  dopt.seed = 7;
  DriftingWorkload drift(dopt);
  const auto phase0 = drift.Phase(0);
  const auto phase2 = drift.Phase(2);

  DictionaryManager::Options mopt;
  mopt.scheme = Scheme::kDoubleChar;
  mopt.dict_size_limit = size_t{1} << 12;
  mopt.stats.sample_every = 1;
  mopt.stats.reservoir_size = 1024;
  mopt.min_cpr_gain = 10.0;
  mopt.rebuild_backoff_seconds = 0;
  mopt.rebuild_cpr_drop = 0;
  // A pre-built template keeps set-up at Clone(), not Build().
  const std::unique_ptr<Hope> initial = Hope::Build(
      Scheme::kDoubleChar, SampleKeys(phase0, 0.25), mopt.dict_size_limit);
  std::vector<std::unique_ptr<DictionaryManager>> owned;
  std::vector<DictionaryManager*> managers;
  for (size_t i = 0; i < kManagers; i++) {
    owned.push_back(
        std::make_unique<DictionaryManager>(initial->Clone(), mopt, phase0));
    for (const auto& k : phase2) owned.back()->Encode(k);
    managers.push_back(owned.back().get());
  }

  // One manager's step, measured: a rejected build + validate on each
  // manager in turn (the median damps a preempted one). The trigger
  // survives the reject.
  std::vector<std::chrono::steady_clock::duration> steps;
  for (DictionaryManager* m : managers) {
    auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(m->RebuildNow(),
              DictionaryManager::RebuildResult::kRejectedNoGain);
    steps.push_back(std::chrono::steady_clock::now() - t0);
    ASSERT_TRUE(m->ShouldRebuild());
  }
  std::nth_element(steps.begin(), steps.begin() + kManagers / 2, steps.end());
  const auto step = steps[kManagers / 2];

  BackgroundRebuilder::Options ropt;
  ropt.poll_interval = std::chrono::milliseconds(1);
  BackgroundRebuilder rebuilder(managers, ropt);
  // Let the worker get well into a sweep (a quarter of it) first.
  std::this_thread::sleep_for(step * (kManagers / 4));

  auto start = std::chrono::steady_clock::now();
  rebuilder.Stop();
  auto elapsed = std::chrono::steady_clock::now() - start;

  // Waiting out the sweep would cost up to the remaining ~3/4 of
  // kManagers steps; one manager's step is 1. Half a sweep splits them
  // with margin for scheduling noise, and both sides scale together
  // under load or a sanitizer, since the steps are real builds.
  EXPECT_LT(elapsed, step * (kManagers / 2))
      << "Stop() waited out the sweep: step "
      << std::chrono::duration<double, std::milli>(step).count()
      << " ms, Stop() "
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
}

}  // namespace
}  // namespace hope::dynamic
