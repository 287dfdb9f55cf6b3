// Tests for the ThreadPool primitive and the batch K-PBS front end:
// the pool runs every submitted job, is reusable across wait_idle()
// cycles and journals only jobs submitted under a solve ID;
// solve_kpbs_batch is positionally identical to a sequential
// solve_kpbs loop at every thread count and propagates per-instance
// failures after the batch completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/journal.hpp"
#include "runtime/batch.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPool, SingleThreadAndClamping) {
  ThreadPool pool(0);  // clamped to one worker
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitFromWithinJob) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.submit([&counter] { counter.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

// Pool lifecycle events are journaled only for jobs that belong to a
// solve: a job submitted outside any SolveIdScope leaves no trace, one
// submitted inside records enqueue, start and finish under its solve ID.
TEST(ThreadPool, JournalsOnlyJobsSubmittedUnderASolveId) {
  obs::Journal journal(256);
  const obs::ScopedJournal scoped(&journal);
  {
    ThreadPool pool(1);
    pool.submit([] {});
    pool.wait_idle();
  }
  EXPECT_EQ(journal.total_recorded(), 0u);

  {
    ThreadPool pool(1);
    const obs::SolveIdScope scope(77);
    pool.submit([] {});
    pool.wait_idle();
  }
  std::vector<obs::JournalEventKind> kinds;
  for (const obs::JournalEvent& e : journal.snapshot()) {
    EXPECT_EQ(e.solve_id, 77u);
    kinds.push_back(e.kind);
  }
  // The submitter records the enqueue after releasing the queue lock, so
  // the worker's start may be sequenced first.
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(kinds, (std::vector<obs::JournalEventKind>{
                       obs::JournalEventKind::kPoolEnqueue,
                       obs::JournalEventKind::kPoolStart,
                       obs::JournalEventKind::kPoolFinish}));
}

std::vector<KpbsRequest> sample_requests(std::size_t count) {
  Rng rng(0xBA7C4);
  std::vector<KpbsRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RandomGraphConfig config;
    config.max_left = 10;
    config.max_right = 10;
    config.max_edges = 40;
    KpbsRequest request;
    request.demand = random_bipartite(rng, config);
    request.options.k = static_cast<int>(rng.uniform_int(1, 8));
    request.options.beta = rng.uniform_int(0, 3);
    request.options.algorithm =
        (i % 2 == 0) ? Algorithm::kOGGP : Algorithm::kGGP;
    requests.push_back(std::move(request));
  }
  return requests;
}

void expect_equal_schedules(const Schedule& a, const Schedule& b,
                            std::size_t index) {
  ASSERT_EQ(a.step_count(), b.step_count()) << "instance " << index;
  for (std::size_t s = 0; s < a.step_count(); ++s) {
    const Step& sa = a.steps()[s];
    const Step& sb = b.steps()[s];
    ASSERT_EQ(sa.comms.size(), sb.comms.size())
        << "instance " << index << " step " << s;
    for (std::size_t c = 0; c < sa.comms.size(); ++c) {
      EXPECT_EQ(sa.comms[c].sender, sb.comms[c].sender);
      EXPECT_EQ(sa.comms[c].receiver, sb.comms[c].receiver);
      EXPECT_EQ(sa.comms[c].amount, sb.comms[c].amount);
    }
  }
}

TEST(KpbsBatch, MatchesSequentialSolveAtEveryThreadCount) {
  const std::vector<KpbsRequest> requests = sample_requests(12);
  std::vector<Schedule> reference;
  reference.reserve(requests.size());
  for (const KpbsRequest& r : requests) {
    SolverOptions cold = r.options;
    cold.engine = MatchingEngine::kCold;
    reference.push_back(solve_kpbs(r.demand, cold).schedule);
  }
  for (const int threads : {1, 2, 4}) {
    for (const MatchingEngine engine :
         {MatchingEngine::kCold, MatchingEngine::kWarm}) {
      std::vector<KpbsRequest> engined = requests;
      for (KpbsRequest& r : engined) r.options.engine = engine;
      BatchOptions options;
      options.threads = threads;
      const std::vector<SolveResult> batch =
          solve_kpbs_batch(engined, options);
      ASSERT_EQ(batch.size(), requests.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_equal_schedules(reference[i], batch[i].schedule, i);
        EXPECT_GE(batch[i].evaluation_ratio, 1.0) << "instance " << i;
        EXPECT_GE(batch[i].solve_ms, 0.0) << "instance " << i;
      }
    }
  }
}

TEST(KpbsBatch, EmptyBatch) {
  EXPECT_TRUE(solve_kpbs_batch({}).empty());
}

TEST(KpbsBatch, DefaultThreadCount) {
  const std::vector<KpbsRequest> requests = sample_requests(3);
  BatchOptions options;  // threads = 0 -> hardware concurrency, clamped
  const std::vector<SolveResult> batch = solve_kpbs_batch(requests, options);
  EXPECT_EQ(batch.size(), requests.size());
}

TEST(KpbsBatch, PropagatesFirstFailureAfterCompletingTheRest) {
  std::vector<KpbsRequest> requests = sample_requests(6);
  requests[2].options.beta = -1;  // solve_kpbs rejects negative beta
  for (const int threads : {1, 3}) {
    BatchOptions options;
    options.threads = threads;
    EXPECT_THROW(solve_kpbs_batch(requests, options), Error)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace redist
