// PSF — tests for psf::serve: dispatch order, admission control,
// cooperative cancellation, per-job isolation (metrics, fault log, trace)
// and single-job parity with the direct (CLI-style) run path. Suites are
// named Serve* so scripts/check.sh picks them up for the TSan pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/kmeans.h"
#include "serve/job_context.h"
#include "serve/jobs.h"
#include "serve/serve.h"
#include "support/metrics.h"

namespace psf::serve {
namespace {

using std::chrono::milliseconds;

JobFn trivial_job(double vtime = 1.0) {
  return [vtime](JobContext&) -> support::StatusOr<double> { return vtime; };
}

/// Dispatch must be highest priority first, FIFO within a level —
/// deterministic for any executor width because ONE runner consumes a
/// fully pre-queued (paused) submission sequence.
TEST(Serve, PriorityOrderingIsDeterministic) {
  for (const int executor_threads : {1, 7}) {
    Server server(ServerOptions{}
                      .with_workers(1)
                      .with_executor_threads(executor_threads)
                      .with_start_paused());
    std::mutex order_mutex;
    std::vector<std::string> order;
    auto record = [&](std::string label) -> JobFn {
      return [&, label = std::move(label)](
                 JobContext&) -> support::StatusOr<double> {
        std::lock_guard<std::mutex> guard(order_mutex);
        order.push_back(label);
        return 0.0;
      };
    };
    ASSERT_TRUE(server
                    .submit(JobSpec{}.with_name("low-a").with_priority(-1).with_fn(
                        record("low-a")))
                    .is_ok());
    ASSERT_TRUE(server
                    .submit(JobSpec{}.with_name("mid-a").with_priority(0).with_fn(
                        record("mid-a")))
                    .is_ok());
    ASSERT_TRUE(server
                    .submit(JobSpec{}.with_name("high-a").with_priority(5).with_fn(
                        record("high-a")))
                    .is_ok());
    ASSERT_TRUE(server
                    .submit(JobSpec{}.with_name("mid-b").with_priority(0).with_fn(
                        record("mid-b")))
                    .is_ok());
    ASSERT_TRUE(server
                    .submit(JobSpec{}.with_name("high-b").with_priority(5).with_fn(
                        record("high-b")))
                    .is_ok());
    server.drain();
    const std::vector<std::string> expected = {"high-a", "high-b", "mid-a",
                                               "mid-b", "low-a"};
    EXPECT_EQ(order, expected) << "executor_threads=" << executor_threads;
  }
}

TEST(Serve, AdmissionControlRejectsWhenQueueIsFull) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_queue_depth(2)
                    .with_start_paused());
  ASSERT_TRUE(server.submit(JobSpec{}.with_fn(trivial_job())).is_ok());
  ASSERT_TRUE(server.submit(JobSpec{}.with_fn(trivial_job())).is_ok());
  auto rejected = server.submit(JobSpec{}.with_fn(trivial_job()));
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), support::ErrorCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected, 1u);
  server.drain();
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(Serve, SubmitWithoutBodyIsInvalid) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  auto submitted = server.submit(JobSpec{});
  ASSERT_FALSE(submitted.is_ok());
  EXPECT_EQ(submitted.status().code(), support::ErrorCode::kInvalidArgument);
}

TEST(Serve, CancelQueuedJobNeverRuns) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_start_paused());
  std::atomic<bool> ran{false};
  auto victim = server.submit(JobSpec{}.with_name("victim").with_fn(
      [&ran](JobContext&) -> support::StatusOr<double> {
        ran.store(true);
        return 0.0;
      }));
  ASSERT_TRUE(victim.is_ok());
  EXPECT_TRUE(victim.value().cancel());
  server.drain();
  const JobResult result = victim.value().wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kCancelled);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Serve, CancelRunningJobCooperatively) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<bool> entered{false};
  auto handle = server.submit(JobSpec{}.with_name("looper").with_fn(
      [&entered](JobContext& ctx) -> support::StatusOr<double> {
        entered.store(true);
        // Cooperative loop: poll the cancel flag like a long pattern job
        // polling between iterations. Bounded so a lost cancel fails the
        // test instead of hanging it.
        for (int i = 0; i < 10000; ++i) {
          PSF_RETURN_IF_ERROR(ctx.check_cancelled());
          std::this_thread::sleep_for(milliseconds(1));
        }
        return support::Status::internal("cancel never observed");
      }));
  ASSERT_TRUE(handle.is_ok());
  while (!entered.load()) std::this_thread::yield();
  EXPECT_TRUE(handle.value().cancel());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kCancelled);
}

TEST(Serve, ThrowingJobReportsFailed) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  auto handle = server.submit(JobSpec{}.with_name("thrower").with_fn(
      [](JobContext&) -> support::StatusOr<double> {
        throw std::runtime_error("boom");
      }));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kInternal);
  EXPECT_NE(result.status.message().find("boom"), std::string::npos);
}

TEST(Serve, SubmitAfterShutdownFailsPrecondition) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  server.shutdown();
  auto submitted = server.submit(JobSpec{}.with_fn(trivial_job()));
  ASSERT_FALSE(submitted.is_ok());
  EXPECT_EQ(submitted.status().code(),
            support::ErrorCode::kFailedPrecondition);
}

/// Concurrent submission from several threads while runners execute:
/// everything completes exactly once and the counters add up. Exercised
/// under TSan by scripts/check.sh.
TEST(Serve, ConcurrentSubmissionCompletesEverything) {
  constexpr int kSubmitters = 4;
  constexpr int kJobsPerSubmitter = 25;
  Server server(ServerOptions{}.with_workers(3).with_executor_threads(2));
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  std::mutex handles_mutex;
  std::vector<JobHandle> handles;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        auto handle = server.submit(JobSpec{}.with_fn(
            [&executed](JobContext&) -> support::StatusOr<double> {
              executed.fetch_add(1);
              return 1.0;
            }));
        ASSERT_TRUE(handle.is_ok());
        std::lock_guard<std::mutex> guard(handles_mutex);
        handles.push_back(handle.value());
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  server.drain();
  EXPECT_EQ(executed.load(), kSubmitters * kJobsPerSubmitter);
  for (const auto& handle : handles) {
    EXPECT_EQ(handle.wait().state, JobState::kDone);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kJobsPerSubmitter));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

#ifndef PSF_DISABLE_METRICS
/// Two concurrent jobs bump the same counter name; each sees only its own
/// increments, and the process-global registry sees none of them.
TEST(Serve, PerJobMetricsAreIsolated) {
  const char* kCounter = "serve.test.isolated_counter";
  const std::uint64_t global_before =
      metrics::Registry::global().counter(kCounter).value();
  Server server(ServerOptions{}.with_workers(2).with_executor_threads(2));
  auto make_job = [&](int amount) {
    return JobSpec{}.with_fn(
        [amount, kCounter](JobContext&) -> support::StatusOr<double> {
          for (int i = 0; i < amount; ++i) PSF_METRIC_ADD(kCounter, 1);
          return 0.0;
        });
  };
  auto a = server.submit(make_job(3));
  auto b = server.submit(make_job(7));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  server.drain();
  EXPECT_EQ(a.value().wait().state, JobState::kDone);
  EXPECT_EQ(b.value().wait().state, JobState::kDone);
  EXPECT_EQ(a.value().context().metrics().counter(kCounter).value(), 3u);
  EXPECT_EQ(b.value().context().metrics().counter(kCounter).value(), 7u);
  EXPECT_EQ(metrics::Registry::global().counter(kCounter).value(),
            global_before);
}
#endif  // PSF_DISABLE_METRICS

/// The ambient snapshot must ride executor task submission: a task run on
/// a pool worker under a JobScope resolves the JOB registry, and the
/// thread reverts to the global one after the task.
TEST(ServeJobContext, AmbientContextPropagatesThroughExecutor) {
  JobContext context(99, "ambient-test", /*record_trace=*/false);
  exec::ThreadPool pool(2);
  metrics::Registry* seen_in_task = nullptr;
  JobContext* seen_context = nullptr;
  {
    const JobScope scope(context);
    pool.submit([&] {
        seen_in_task = &metrics::Registry::current();
        seen_context = JobContext::current();
      }).wait();
  }
  EXPECT_EQ(seen_in_task, &context.metrics());
  EXPECT_EQ(seen_context, &context);
  EXPECT_EQ(&metrics::Registry::current(), &metrics::Registry::global());
  EXPECT_EQ(JobContext::current(), nullptr);
  // The worker thread's ambient state must be restored too: a task run
  // outside any scope resolves the global registry.
  metrics::Registry* seen_outside = nullptr;
  pool.submit([&] { seen_outside = &metrics::Registry::current(); }).wait();
  EXPECT_EQ(seen_outside, &metrics::Registry::global());
}

/// Message faults injected for one job land in ITS fault log, not the
/// global one — the FaultPlan/FaultLog leg of per-job isolation.
TEST(ServeJobContext, FaultEventsLandInTheJobLog) {
  fault::FaultLog::global().reset();
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  apps::kmeans::Params params;
  params.num_points = 500;
  params.num_clusters = 4;
  params.iterations = 2;
  auto handle = server.submit(
      JobSpec{}.with_name("faulty-kmeans").with_fn(jobs::kmeans(
          params, jobs::WorkloadOptions{}.with_ranks(2).with_fault_plan(
                      "msg_drop:p=0.3,seed=7"))));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.status.to_string();
  EXPECT_FALSE(handle.value().context().fault_log().snapshot().empty())
      << "injected message faults must be recorded in the job's own log";
  EXPECT_TRUE(fault::FaultLog::global().snapshot().empty())
      << "per-job fault events must not leak into the global log";
}

/// One tenant's exhausted link must fail that tenant only: the lossy sobel
/// job's overlapped inner tiles run on the shared executor, and the job
/// must not free the grid they read before they finish. A clean job
/// submitted afterwards still completes.
TEST(ServeFault, LossyStencilJobFailsAloneAndLaterJobsComplete) {
  Server server(ServerOptions{}.with_workers(2).with_executor_threads(2));
  const apps::sobel::Params params;
  auto lossy = server.submit(JobSpec{}.with_name("lossy-sobel").with_fn(
      jobs::sobel(params, jobs::WorkloadOptions{}
                              .with_ranks(2)
                              .with_gpus(2)
                              .with_fault_plan(
                                  "msg_drop:p=0.99,retries=1,seed=1"))));
  ASSERT_TRUE(lossy.is_ok());
  const JobResult failed = lossy.value().wait();
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_EQ(failed.status.code(), support::ErrorCode::kInternal);
  EXPECT_NE(failed.status.message().find(
                "exhausted 1 retransmissions under the fault plan"),
            std::string::npos)
      << failed.status.to_string();

  auto clean = server.submit(JobSpec{}.with_name("clean-sobel").with_fn(
      jobs::sobel(params,
                  jobs::WorkloadOptions{}.with_ranks(2).with_gpus(2))));
  ASSERT_TRUE(clean.is_ok());
  const JobResult done = clean.value().wait();
  EXPECT_EQ(done.state, JobState::kDone) << done.status.to_string();
  EXPECT_GT(done.vtime, 0.0);
}

/// A job submitted with record_trace captures its schedule in its own
/// recorder; jobs without tracing record nothing.
TEST(ServeJobContext, PerJobTraceIsCaptured) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  apps::kmeans::Params params;
  params.num_points = 500;
  params.num_clusters = 4;
  params.iterations = 1;
  auto traced = server.submit(JobSpec{}
                                  .with_name("traced")
                                  .with_trace()
                                  .with_fn(jobs::kmeans(params)));
  auto untraced = server.submit(
      JobSpec{}.with_name("untraced").with_fn(jobs::kmeans(params)));
  ASSERT_TRUE(traced.is_ok());
  ASSERT_TRUE(untraced.is_ok());
  ASSERT_EQ(traced.value().wait().state, JobState::kDone);
  ASSERT_EQ(untraced.value().wait().state, JobState::kDone);
  ASSERT_NE(traced.value().context().trace(), nullptr);
  EXPECT_GT(traced.value().context().trace()->size(), 0u);
  EXPECT_EQ(untraced.value().context().trace(), nullptr);
}

/// Serving must not perturb the time model: the same kmeans run submitted
/// through a Server (shared executor, any width) and run directly
/// (private serial executor, CLI-style) produces bit-identical centers
/// and virtual time.
TEST(ServeParity, SingleJobMatchesDirectRunBitIdentical) {
  apps::kmeans::Params params;
  params.num_points = 2000;
  params.num_clusters = 8;
  params.iterations = 3;
  const auto points = apps::kmeans::generate_points(params);

  // Direct run: the pre-serve code path, serial executor.
  minimpi::World direct_world(2);
  pattern::EnvOptions direct_env;
  direct_env.use_cpu = true;
  direct_env.use_gpus = 1;
  direct_env.num_threads = 1;
  apps::kmeans::Result direct_result;
  direct_world.run([&](minimpi::Communicator& comm) {
    auto result = apps::kmeans::run_framework(comm, direct_env, params, points);
    if (comm.rank() == 0) direct_result = std::move(result);
  });

  for (const int executor_threads : {1, 7}) {
    Server server(
        ServerOptions{}.with_workers(2).with_executor_threads(executor_threads));
    std::vector<double> served_centers;
    auto handle = server.submit(JobSpec{}.with_name("kmeans").with_fn(
        [&](JobContext& ctx) -> support::StatusOr<double> {
          minimpi::World world(2);
          const pattern::EnvOptions env =
              jobs::base_env(ctx, jobs::WorkloadOptions{});
          double vtime = 0.0;
          PSF_RETURN_IF_ERROR(run_world(
              ctx, world, [&](minimpi::Communicator& comm) {
                auto result =
                    apps::kmeans::run_framework(comm, env, params, points);
                if (comm.rank() == 0) {
                  served_centers = std::move(result.centers);
                  vtime = result.vtime;
                }
              }));
          return vtime;
        }));
    ASSERT_TRUE(handle.is_ok());
    const JobResult result = handle.value().wait();
    ASSERT_EQ(result.state, JobState::kDone) << result.status.to_string();
    EXPECT_EQ(result.vtime, direct_result.vtime)
        << "executor_threads=" << executor_threads;
    ASSERT_EQ(served_centers.size(), direct_result.centers.size());
    for (std::size_t i = 0; i < served_centers.size(); ++i) {
      EXPECT_EQ(served_centers[i], direct_result.centers[i])
          << "center " << i << " at executor_threads=" << executor_threads;
    }
  }
}

/// Canned jobs report the same deterministic vtime when multiplexed
/// concurrently as when run alone — tenants cannot perturb each other's
/// virtual time.
TEST(ServeParity, ConcurrentTenantsDoNotPerturbVtime) {
  apps::sobel::Params params;
  params.height = 48;
  params.width = 48;
  params.iterations = 2;

  double solo_vtime = 0.0;
  {
    Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
    auto handle =
        server.submit(JobSpec{}.with_name("solo").with_fn(jobs::sobel(params)));
    ASSERT_TRUE(handle.is_ok());
    const JobResult result = handle.value().wait();
    ASSERT_EQ(result.state, JobState::kDone);
    solo_vtime = result.vtime;
  }

  Server server(ServerOptions{}.with_workers(4).with_executor_threads(3));
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    auto handle = server.submit(
        JobSpec{}.with_name("tenant-" + std::to_string(i))
            .with_fn(jobs::sobel(params)));
    ASSERT_TRUE(handle.is_ok());
    handles.push_back(handle.value());
  }
  server.drain();
  for (const auto& handle : handles) {
    const JobResult result = handle.wait();
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.vtime, solo_vtime);
  }
}

/// A job that fails with retryable kUnavailable until `succeed_at` calls,
/// counting invocations.
JobFn flaky_job(std::atomic<int>& calls, int succeed_at) {
  return [&calls, succeed_at](JobContext&) -> support::StatusOr<double> {
    const int call = calls.fetch_add(1) + 1;
    if (call < succeed_at) {
      return support::Status::unavailable("flaky: attempt " +
                                          std::to_string(call));
    }
    return 1.0;
  };
}

// --- deadlines / TTL ---------------------------------------------------------

TEST(ServeDeadline, QueuedJobExpiresAtDispatch) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_start_paused());
  std::atomic<bool> ran{false};
  auto handle = server.submit(
      JobSpec{}.with_name("doomed").with_deadline_ms(20).with_fn(
          [&ran](JobContext&) -> support::StatusOr<double> {
            ran.store(true);
            return 0.0;
          }));
  ASSERT_TRUE(handle.is_ok());
  std::this_thread::sleep_for(milliseconds(60));
  server.drain();
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(ran.load()) << "expired job must never dispatch its body";
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(ServeDeadline, QueueTtlExpiresAtDispatch) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_start_paused());
  std::atomic<bool> ran{false};
  auto handle = server.submit(
      JobSpec{}.with_name("stale").with_queue_ttl_ms(20).with_fn(
          [&ran](JobContext&) -> support::StatusOr<double> {
            ran.store(true);
            return 0.0;
          }));
  ASSERT_TRUE(handle.is_ok());
  std::this_thread::sleep_for(milliseconds(60));
  server.drain();
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(ran.load());
}

TEST(ServeDeadline, QueueTtlReArmsPerQueuedPeriodAcrossRetries) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<int> calls{0};
  // TTL (150ms) < backoff (500ms): if the TTL were measured from
  // admission, the retry could never dispatch. It bounds each QUEUED
  // period instead, re-arming when the retry re-enters the queue.
  auto handle = server.submit(
      JobSpec{}
          .with_name("ttl-retry")
          .with_queue_ttl_ms(150)
          .with_retry(RetryPolicy{}
                          .with_max_attempts(2)
                          .with_base_backoff_ms(500.0)
                          .with_jitter(0.0)
                          .with_budget_ratio(5.0))
          .with_fn(flaky_job(calls, 2)));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.status.to_string();
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(server.stats().retried, 1u);
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST(ServeDeadline, RunningJobObservesDeadlineCooperatively) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  auto handle = server.submit(
      JobSpec{}.with_name("overrunner").with_deadline_ms(30).with_fn(
          [](JobContext& ctx) -> support::StatusOr<double> {
            for (;;) {
              PSF_RETURN_IF_ERROR(ctx.check());
              std::this_thread::sleep_for(milliseconds(5));
            }
          }));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(server.stats().expired, 1u);
}

// --- retry with backoff ------------------------------------------------------

TEST(ServeRetry, RetriesUntilSuccess) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<int> calls{0};
  auto handle = server.submit(
      JobSpec{}
          .with_name("flaky")
          .with_retry(RetryPolicy{}
                          .with_max_attempts(4)
                          .with_base_backoff_ms(1.0)
                          .with_budget_ratio(5.0))
          .with_fn(flaky_job(calls, 3)));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.status.to_string();
  EXPECT_EQ(result.vtime, 1.0);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(server.stats().retried, 2u);
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(ServeRetry, BudgetExhaustionStopsRetry) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<int> calls{0};
  auto handle = server.submit(
      JobSpec{}
          .with_name("starved")
          .with_retry(RetryPolicy{}
                          .with_max_attempts(5)
                          .with_base_backoff_ms(1.0)
                          .with_budget_ratio(0.0))  // accrues no tokens
          .with_fn(flaky_job(calls, 100)));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kUnavailable);
  EXPECT_EQ(result.attempts, 1) << "no budget means no second attempt";
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(server.stats().retried, 0u);
}

TEST(ServeRetry, CancelDuringBackoffWins) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<int> calls{0};
  auto handle = server.submit(
      JobSpec{}
          .with_name("parked")
          .with_retry(RetryPolicy{}
                          .with_max_attempts(3)
                          .with_base_backoff_ms(60000.0)  // parks ~1 min
                          .with_jitter(0.0)
                          .with_budget_ratio(5.0))
          .with_fn(flaky_job(calls, 100)));
  ASSERT_TRUE(handle.is_ok());
  // Wait until the failed first attempt parks the job in backoff.
  for (int i = 0; i < 2000 && server.stats().backoff == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(server.stats().backoff, 1u) << "job never reached backoff";
  EXPECT_TRUE(handle.value().cancel()) << "cancel must win against backoff";
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(server.stats().backoff, 0u) << "pending retry must be cleared";
  // drain() must return promptly — nothing left to wait a minute for.
  server.drain();
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ServeRetry, CancelDuringFailingAttemptSkipsBackoff) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<bool> in_body{false};
  auto handle = server.submit(
      JobSpec{}
          .with_name("racing")
          .with_retry(RetryPolicy{}
                          .with_max_attempts(3)
                          .with_base_backoff_ms(60000.0)  // parks ~1 min
                          .with_jitter(0.0)
                          .with_budget_ratio(5.0))
          .with_fn([&in_body](JobContext& ctx) -> support::StatusOr<double> {
            in_body.store(true);
            // Fail retryably only once the cancel has landed, modelling a
            // cancel racing the failing attempt.
            while (!ctx.cancel_requested()) {
              std::this_thread::sleep_for(milliseconds(1));
            }
            return support::Status::unavailable("failing as cancel lands");
          }));
  ASSERT_TRUE(handle.is_ok());
  while (!in_body.load()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(handle.value().cancel());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kCancelled);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(server.stats().backoff, 0u)
      << "a cancelled job must not park in retry backoff";
  EXPECT_EQ(server.stats().retried, 0u);
  // drain() must return promptly — nothing is waiting out a minute.
  server.drain();
  EXPECT_EQ(server.stats().cancelled, 1u);
}

// --- load shedding -----------------------------------------------------------

TEST(ServeShed, WatermarkShedsLowestPriority) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_queue_depth(100)
                    .with_shed_watermark(2)
                    .with_start_paused());
  auto low1 = server.submit(
      JobSpec{}.with_name("low1").with_priority(-1).with_fn(trivial_job()));
  auto low2 = server.submit(
      JobSpec{}.with_name("low2").with_priority(-2).with_fn(trivial_job()));
  ASSERT_TRUE(low1.is_ok());
  ASSERT_TRUE(low2.is_ok());
  // Queue is at the watermark; a higher-priority submission sheds the
  // lowest-priority victim (low2) to make room.
  auto high = server.submit(
      JobSpec{}.with_name("high").with_priority(5).with_fn(trivial_job()));
  ASSERT_TRUE(high.is_ok());
  const JobResult shed = low2.value().wait();
  EXPECT_EQ(shed.state, JobState::kFailed);
  EXPECT_EQ(shed.status.code(), support::ErrorCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("shed under overload"),
            std::string::npos)
      << shed.status.to_string();
  EXPECT_EQ(server.stats().shed, 1u);
  server.drain();
  EXPECT_EQ(low1.value().wait().state, JobState::kDone);
  EXPECT_EQ(high.value().wait().state, JobState::kDone);
  EXPECT_EQ(server.stats().failed, 0u) << "sheds are not counted as failures";
}

TEST(ServeShed, ShedsMultipleVictimsLowestPriorityFirst) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_queue_depth(100)
                    .with_shed_watermark(2)
                    .with_start_paused());
  auto mid = server.submit(
      JobSpec{}.with_name("mid").with_priority(0).with_fn(trivial_job()));
  auto low1 = server.submit(
      JobSpec{}.with_name("low1").with_priority(-1).with_fn(trivial_job()));
  // At the watermark with nothing strictly below priority -2: the queue
  // grows past the watermark instead of shedding.
  auto low2 = server.submit(
      JobSpec{}.with_name("low2").with_priority(-2).with_fn(trivial_job()));
  ASSERT_TRUE(mid.is_ok());
  ASSERT_TRUE(low1.is_ok());
  ASSERT_TRUE(low2.is_ok());
  // Three queued, watermark 2: the high-priority submission must shed TWO
  // victims in one admission, lowest priority first (low2, then low1).
  auto high = server.submit(
      JobSpec{}.with_name("high").with_priority(5).with_fn(trivial_job()));
  ASSERT_TRUE(high.is_ok());
  for (const auto& victim : {&low2, &low1}) {
    const JobResult shed = victim->value().wait();
    EXPECT_EQ(shed.state, JobState::kFailed);
    EXPECT_EQ(shed.status.code(), support::ErrorCode::kUnavailable);
  }
  EXPECT_EQ(server.stats().shed, 2u);
  server.drain();
  EXPECT_EQ(mid.value().wait().state, JobState::kDone)
      << "the not-lowest victim candidate must survive";
  EXPECT_EQ(high.value().wait().state, JobState::kDone);
}

TEST(ServeShed, HardFullRejectsWithRetryAfterWhenSheddingEnabled) {
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_queue_depth(2)
                    .with_shed_watermark(1)
                    .with_retry_after_hint_ms(7)
                    .with_start_paused());
  // Two equal-priority jobs fill the queue; neither is a valid victim for
  // a third at the same priority, so admission rejects with kUnavailable
  // and the retry-after hint instead of legacy kResourceExhausted.
  ASSERT_TRUE(server.submit(JobSpec{}.with_fn(trivial_job())).is_ok());
  ASSERT_TRUE(server.submit(JobSpec{}.with_fn(trivial_job())).is_ok());
  auto rejected = server.submit(JobSpec{}.with_fn(trivial_job()));
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), support::ErrorCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("retry after 7ms"),
            std::string::npos)
      << rejected.status().to_string();
  EXPECT_EQ(server.stats().rejected, 1u);
  server.drain();
  EXPECT_EQ(server.stats().completed, 2u);
}

// --- circuit breaker ---------------------------------------------------------

TEST(ServeBreaker, OpensHalfOpensCloses) {
  for (const int executor_threads : {1, 7}) {
    ServerOptions::BreakerPolicy policy;
    policy.enabled = true;
    policy.window = 4;
    policy.min_samples = 4;
    policy.failure_threshold = 0.5;
    policy.cooldown_ms = 40;
    Server server(ServerOptions{}
                      .with_workers(1)
                      .with_executor_threads(executor_threads)
                      .with_breaker(policy));
    auto failing = []() -> JobFn {
      return [](JobContext&) -> support::StatusOr<double> {
        return support::Status::internal("synthetic failure");
      };
    };
    for (int i = 0; i < 4; ++i) {
      auto handle =
          server.submit(JobSpec{}.with_name("flaky").with_fn(failing()));
      ASSERT_TRUE(handle.is_ok()) << "i=" << i;
      EXPECT_EQ(handle.value().wait().state, JobState::kFailed);
    }
    // Four failures in a four-wide window: the breaker is open and
    // fast-fails this name, while other names stay admitted.
    auto rejected =
        server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
    ASSERT_FALSE(rejected.is_ok());
    EXPECT_EQ(rejected.status().code(), support::ErrorCode::kUnavailable);
    EXPECT_NE(rejected.status().message().find("circuit breaker open"),
              std::string::npos)
        << rejected.status().to_string();
    EXPECT_EQ(server.stats().breaker_open, 1u)
        << "executor_threads=" << executor_threads;
    auto other =
        server.submit(JobSpec{}.with_name("healthy").with_fn(trivial_job()));
    ASSERT_TRUE(other.is_ok());
    EXPECT_EQ(other.value().wait().state, JobState::kDone);

    // After the cooldown one half-open probe is admitted; while it is in
    // flight every other submission of the name keeps fast-failing.
    std::this_thread::sleep_for(milliseconds(60));
    std::atomic<bool> release{false};
    auto probe = server.submit(JobSpec{}.with_name("flaky").with_fn(
        [&release](JobContext&) -> support::StatusOr<double> {
          while (!release.load()) {
            std::this_thread::sleep_for(milliseconds(1));
          }
          return 1.0;
        }));
    ASSERT_TRUE(probe.is_ok()) << "half-open must admit one probe";
    while (server.stats().running == 0) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    auto second =
        server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
    ASSERT_FALSE(second.is_ok());
    EXPECT_NE(second.status().message().find("probe in flight"),
              std::string::npos)
        << second.status().to_string();
    release.store(true);
    EXPECT_EQ(probe.value().wait().state, JobState::kDone);

    // The successful probe closed the breaker: admissions flow again.
    auto closed =
        server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
    ASSERT_TRUE(closed.is_ok());
    EXPECT_EQ(closed.value().wait().state, JobState::kDone)
        << "executor_threads=" << executor_threads;
  }
}

TEST(ServeBreaker, ProbeSlotReleasedWhenAdmissionRejectsProbe) {
  ServerOptions::BreakerPolicy policy;
  policy.enabled = true;
  policy.window = 2;
  policy.min_samples = 2;
  policy.failure_threshold = 0.5;
  policy.cooldown_ms = 20;
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_queue_depth(1)
                    .with_breaker(policy));
  for (int i = 0; i < 2; ++i) {
    auto failing = server.submit(JobSpec{}.with_name("flaky").with_fn(
        [](JobContext&) -> support::StatusOr<double> {
          return support::Status::internal("synthetic failure");
        }));
    ASSERT_TRUE(failing.is_ok()) << "i=" << i;
    EXPECT_EQ(failing.value().wait().state, JobState::kFailed);
  }
  ASSERT_EQ(server.stats().breaker_open, 1u);

  // Occupy the single runner and fill the one-deep queue with another
  // name, so the post-cooldown probe admission loses to the queue bound.
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> release{false};
  auto blocker = server.submit(JobSpec{}.with_name("blocker").with_fn(
      [&blocker_running, &release](JobContext&) -> support::StatusOr<double> {
        blocker_running.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(milliseconds(1));
        }
        return 1.0;
      }));
  ASSERT_TRUE(blocker.is_ok());
  // Wait for the blocker BODY (stats().running can still read the
  // previous job's slot before its runner goes idle): only once the
  // blocker has left the queue is the one-deep queue free for the filler.
  while (!blocker_running.load()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  auto filler =
      server.submit(JobSpec{}.with_name("filler").with_fn(trivial_job()));
  if (!filler.is_ok()) release.store(true);  // don't hang shutdown on failure
  ASSERT_TRUE(filler.is_ok()) << filler.status().to_string();
  std::this_thread::sleep_for(milliseconds(30));  // cooldown elapses
  auto rejected =
      server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
  ASSERT_FALSE(rejected.is_ok()) << "queue bound must reject the probe";
  EXPECT_EQ(rejected.status().code(),
            support::ErrorCode::kResourceExhausted);

  // The rejected admission must have returned the half-open probe slot:
  // once the queue drains, the next submission of the name becomes the
  // new probe and the breaker recovers (it used to wedge on "probe in
  // flight" until server restart).
  release.store(true);
  server.drain();
  auto probe =
      server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
  ASSERT_TRUE(probe.is_ok()) << probe.status().to_string();
  EXPECT_EQ(probe.value().wait().state, JobState::kDone);
  auto closed =
      server.submit(JobSpec{}.with_name("flaky").with_fn(trivial_job()));
  ASSERT_TRUE(closed.is_ok()) << "successful probe must close the breaker";
  EXPECT_EQ(closed.value().wait().state, JobState::kDone);
}

// --- drain vs concurrency ----------------------------------------------------

TEST(ServeDrain, DrainRacesConcurrentSubmit) {
  Server server(ServerOptions{}
                    .with_workers(2)
                    .with_executor_threads(2)
                    .with_queue_depth(1024));
  std::vector<JobHandle> handles;
  std::mutex handles_mutex;
  std::atomic<bool> submitting{true};
  std::thread submitter([&] {
    for (int i = 0; i < 300; ++i) {
      auto handle = server.submit(JobSpec{}.with_fn(trivial_job()));
      ASSERT_TRUE(handle.is_ok());
      std::lock_guard<std::mutex> guard(handles_mutex);
      handles.push_back(handle.value());
    }
    submitting.store(false);
  });
  // drain() while submissions race it: each call returns on SOME idle
  // instant without deadlock or crash; the final drain below is the real
  // completeness barrier.
  while (submitting.load()) server.drain();
  submitter.join();
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.backoff, 0u);
  std::lock_guard<std::mutex> guard(handles_mutex);
  ASSERT_EQ(handles.size(), 300u);
  for (const auto& handle : handles) {
    EXPECT_EQ(handle.wait().state, JobState::kDone);
  }
}

TEST(ServeDrain, DrainWaitsForBackoff) {
  Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
  std::atomic<int> calls{0};
  auto handle = server.submit(
      JobSpec{}
          .with_name("flaky")
          .with_retry(RetryPolicy{}
                          .with_max_attempts(2)
                          .with_base_backoff_ms(50.0)
                          .with_jitter(0.0)
                          .with_budget_ratio(5.0))
          .with_fn(flaky_job(calls, 2)));
  ASSERT_TRUE(handle.is_ok());
  server.drain();
  // drain() must cover the backoff interval: after it returns the retry
  // already ran and the job is terminal.
  EXPECT_EQ(handle.value().state(), JobState::kDone);
  EXPECT_EQ(handle.value().wait().attempts, 2);
}

/// Jobs that complete under chaos (injected fails + stalls, recovered by
/// retry) must report vtime bit-identical to a fault-free solo run: chaos
/// is wall-clock-only, never priced into the time model.
TEST(ServeParity, ChaosCompletedJobsKeepVtime) {
  apps::sobel::Params params;
  params.height = 48;
  params.width = 48;
  params.iterations = 2;

  double solo_vtime = 0.0;
  {
    Server server(ServerOptions{}.with_workers(1).with_executor_threads(1));
    auto handle =
        server.submit(JobSpec{}.with_name("solo").with_fn(jobs::sobel(params)));
    ASSERT_TRUE(handle.is_ok());
    const JobResult result = handle.value().wait();
    ASSERT_EQ(result.state, JobState::kDone);
    solo_vtime = result.vtime;
  }

  for (const int executor_threads : {1, 7}) {
    Server server(
        ServerOptions{}
            .with_workers(2)
            .with_executor_threads(executor_threads)
            .with_chaos_plan(
                "job_fail:p=0.4,seed=5;runner_stall:ms=1,p=0.5,seed=6"));
    std::vector<JobHandle> handles;
    for (int i = 0; i < 8; ++i) {
      auto handle = server.submit(
          JobSpec{}
              .with_name("tenant-" + std::to_string(i))
              .with_retry(RetryPolicy{}
                              .with_max_attempts(4)
                              .with_base_backoff_ms(1.0)
                              .with_budget_ratio(5.0))
              .with_fn(jobs::sobel(params)));
      ASSERT_TRUE(handle.is_ok());
      handles.push_back(handle.value());
    }
    server.drain();
    int completed = 0;
    for (const auto& handle : handles) {
      const JobResult result = handle.wait();
      if (result.state != JobState::kDone) continue;  // lost to chaos: fine
      ++completed;
      EXPECT_EQ(result.vtime, solo_vtime)
          << "executor_threads=" << executor_threads;
    }
    EXPECT_GT(completed, 0) << "executor_threads=" << executor_threads;
  }
}

}  // namespace
}  // namespace psf::serve
