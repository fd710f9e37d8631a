#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/streamer.h"

namespace psf::serve {

namespace detail {

/// The server-side job record. Shared between the Server's queue, the
/// runner executing it and every JobHandle; lives until the last reference
/// drops, so handles stay answerable after completion.
struct Job {
  Job(std::uint64_t id_in, std::uint64_t seq_in, JobSpec spec, Server* owner)
      : id(id_in),
        seq(seq_in),
        priority(spec.priority),
        name(spec.name),
        retry(spec.retry),
        fn(std::move(spec.fn)),
        context(id_in, std::move(spec.name), spec.record_trace),
        server(owner),
        queue_ttl_ms(spec.queue_ttl_ms),
        submit_tp(std::chrono::steady_clock::now()) {
    if (spec.deadline_ms > 0) {
      has_deadline = true;
      deadline_tp = submit_tp + std::chrono::milliseconds(spec.deadline_ms);
      context.set_deadline(deadline_tp);
    }
    arm_expiry(submit_tp);
  }

  /// Recompute the dispatch-time expiry for a (re-)enqueue at
  /// `enqueue_tp`: the tighter of the absolute deadline (fixed at
  /// admission; also the cooperative in-flight check) and this queued
  /// period's TTL. The TTL re-arms on every entry into the queue —
  /// admission and each promotion out of retry backoff — so it bounds
  /// wall time spent QUEUED, not runs or backoffs. Written under the
  /// server's mutex_ once the job is shared.
  void arm_expiry(std::chrono::steady_clock::time_point enqueue_tp) {
    has_expire = has_deadline || queue_ttl_ms > 0;
    if (!has_expire) return;
    expire_tp = std::chrono::steady_clock::time_point::max();
    if (has_deadline) expire_tp = deadline_tp;
    if (queue_ttl_ms > 0) {
      expire_tp = std::min(
          expire_tp, enqueue_tp + std::chrono::milliseconds(queue_ttl_ms));
    }
  }

  const std::uint64_t id;
  const std::uint64_t seq;  ///< admission seq — keys chaos draws and jitter
  const int priority;
  const std::string name;
  const RetryPolicy retry;
  JobFn fn;
  JobContext context;
  Server* const server;
  const int queue_ttl_ms;
  const std::chrono::steady_clock::time_point submit_tp;
  std::chrono::steady_clock::time_point deadline_tp{};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point expire_tp{};
  bool has_expire = false;

  // Guarded by the SERVER's mutex_.
  Server::QueueKey queue_key{};     ///< current position while queued
  bool breaker_probe = false;       ///< admitted as the half-open probe

  mutable std::mutex mutex;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  support::Status status;
  double vtime = 0.0;
  int attempts = 0;  ///< dispatch attempts STARTED; 0 until first dispatch
  std::chrono::steady_clock::time_point start_tp;
  double queue_wall_s = 0.0;
  double run_wall_s = 0.0;
};

}  // namespace detail

namespace {

using detail::Job;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Salts keeping the stall / fail / jitter draw streams independent even
/// when their user-supplied seeds coincide.
inline constexpr std::uint64_t kStallSalt = 0x53;
inline constexpr std::uint64_t kFailSalt = 0xFA;
inline constexpr std::uint64_t kJitterSalt = 0x71;

/// Seed for one (spec seed, admission seq, attempt) chaos/jitter draw:
/// independent of thread timing, distinct per job and per attempt.
std::uint64_t draw_seed(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t seq, int attempt) noexcept {
  return (seed + salt * 0x94D049BB133111EBULL) ^
         ((seq + 1) * 0x9E3779B97F4A7C15ULL) ^
         (static_cast<std::uint64_t>(attempt) * 0xBF58476D1CE4E5B9ULL);
}

/// Server-side chaos events land in the GLOBAL fault log keyed by the
/// job's admission seq (stable across executor widths), so harnesses can
/// compare the full injected sequence run-to-run.
void record_chaos_event(const Job& job, int attempt, std::string event) {
  fault::FaultLog& log = fault::FaultLog::global();
  if (!log.enabled()) return;
  event += " job=";
  event += job.name;
  event += " attempt=" + std::to_string(attempt);
  log.record(static_cast<int>(job.seq), std::move(event));
}

/// True for failure codes the retry machinery may re-enqueue: transient
/// unavailability (chaos, shedding upstream) and fault-layer device loss.
bool retryable(support::ErrorCode code) noexcept {
  return code == support::ErrorCode::kUnavailable ||
         code == support::ErrorCode::kDeviceLost;
}

}  // namespace

// --- JobHandle ---------------------------------------------------------------

std::uint64_t JobHandle::id() const {
  PSF_CHECK_MSG(job_ != nullptr, "id() on an invalid JobHandle");
  return job_->id;
}

JobState JobHandle::state() const {
  PSF_CHECK_MSG(job_ != nullptr, "state() on an invalid JobHandle");
  std::lock_guard<std::mutex> guard(job_->mutex);
  return job_->state;
}

JobResult JobHandle::wait() const {
  PSF_CHECK_MSG(job_ != nullptr, "wait() on an invalid JobHandle");
  std::unique_lock<std::mutex> lock(job_->mutex);
  job_->cv.wait(lock, [this] {
    return job_->state != JobState::kQueued &&
           job_->state != JobState::kRunning;
  });
  JobResult result;
  result.state = job_->state;
  result.status = job_->status;
  result.vtime = job_->vtime;
  result.queue_wall_s = job_->queue_wall_s;
  result.run_wall_s = job_->run_wall_s;
  result.attempts = job_->attempts;
  return result;
}

bool JobHandle::cancel() const {
  PSF_CHECK_MSG(job_ != nullptr, "cancel() on an invalid JobHandle");
  return job_->server->cancel_job(job_);
}

JobContext& JobHandle::context() const {
  PSF_CHECK_MSG(job_ != nullptr, "context() on an invalid JobHandle");
  return job_->context;
}

// --- Server ------------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(options),
      pool_(exec::ThreadPool::resolve_workers(options.executor_threads)) {
  options_.workers = std::max(1, options_.workers);
  if (!options_.chaos_plan.empty()) {
    auto parsed = fault::FaultPlan::parse(options_.chaos_plan);
    PSF_CHECK_MSG(parsed.is_ok(),
                  "ServerOptions::chaos_plan failed to parse: "
                      << parsed.status().to_string()
                      << " — validate with fault::FaultPlan::parse first");
    chaos_ = std::move(parsed).value();
    chaos_armed_ = chaos_.has_server_chaos();
    // Chaos exists to be observed: arm the global fault log so harnesses
    // can digest the injected sequence without extra setup.
    if (chaos_armed_) fault::FaultLog::global().set_enabled(true);
  }
  // Any serving entry point arms the $PSF_TELEMETRY stream, same as
  // RuntimeEnv does for single-job runs.
  telemetry::SnapshotStreamer::ensure_global_from_env();
  auto& registry = metrics::Registry::global();
  queue_wait_ms_hist_ = &registry.histogram("serve.queue_wait_ms");
  run_ms_hist_ = &registry.histogram("serve.run_ms");
  latency_ms_hist_ = &registry.histogram("serve.latency_ms");
  backoff_ms_hist_ = &registry.histogram("serve.backoff_ms");
  attempts_hist_ = &registry.histogram("serve.attempts");
  queue_depth_gauge_ = &registry.gauge("serve.queue_depth");
  started_ = !options_.start_paused;
  runners_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

Server::~Server() { shutdown(); }

support::StatusOr<JobHandle> Server::submit(JobSpec spec) {
  if (!spec.fn) {
    return support::Status::invalid_argument(
        "JobSpec.fn is empty; provide a job body (see serve/jobs.h for "
        "canned workloads)");
  }
  std::shared_ptr<Job> job;
  std::vector<std::shared_ptr<Job>> victims;
  support::Status rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return support::Status::failed_precondition(
          "submit() on a shut-down server");
    }
    bool probe = false;
    if (options_.breaker.enabled) {
      support::Status gate = breaker_admit_locked(spec.name, probe);
      if (!gate.is_ok()) {
        ++rejected_;
        PSF_METRIC_ADD("serve.jobs_rejected", 1);
        return gate;
      }
    }
    const bool shedding = options_.shed_watermark > 0;
    if (shedding && queue_.size() >= options_.shed_watermark) {
      // Past the watermark: make room by shedding strictly-lower-priority
      // queued victims — lowest priority first, expiring-soonest first
      // within a level, newest submission breaking ties. Lower-priority
      // entries are a contiguous suffix of the priority-ordered queue, so
      // one scan collects every candidate and one sort ranks them —
      // O(k log k) on the hot submit path instead of a scan per victim,
      // which went quadratic under exactly the overload this path
      // handles. Victims finish outside the lock below.
      const std::size_t need = queue_.size() - options_.shed_watermark + 1;
      std::vector<decltype(queue_)::iterator> candidates;
      for (auto it = queue_.lower_bound(
               QueueKey{-static_cast<long long>(spec.priority) + 1, 0});
           it != queue_.end(); ++it) {
        candidates.push_back(it);
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& a, const auto& b) {
                  const Job& ca = *a->second;
                  const Job& cb = *b->second;
                  if (ca.priority != cb.priority) {
                    return ca.priority < cb.priority;
                  }
                  const auto ea =
                      ca.has_expire
                          ? ca.expire_tp
                          : std::chrono::steady_clock::time_point::max();
                  const auto eb =
                      cb.has_expire
                          ? cb.expire_tp
                          : std::chrono::steady_clock::time_point::max();
                  if (ea != eb) return ea < eb;
                  return ca.seq > cb.seq;
                });
      const std::size_t take = std::min(need, candidates.size());
      for (std::size_t i = 0; i < take; ++i) {
        victims.push_back(candidates[i]->second);
        queue_.erase(candidates[i]);
      }
      if (take > 0) {
        queue_depth_gauge_->set(static_cast<double>(queue_.size()));
      }
    }
    if (queue_.size() >= options_.queue_depth) {
      ++rejected_;
      PSF_METRIC_ADD("serve.jobs_rejected", 1);
      // This admission may have claimed the half-open probe slot before
      // losing to the queue bound. Release it, or no probe ever reports
      // an outcome and the name fast-fails "probe in flight" forever.
      if (probe) breaker_release_probe_locked(spec.name);
      // No early return: backoff promotions can push the queue past
      // queue_depth, so a rejection can follow a partial shed — the
      // already-erased victims below still need their terminal state.
      if (shedding) {
        rejection = support::Status::unavailable(
            "overloaded: " + std::to_string(queue_.size()) +
            " jobs queued and none lower-priority to shed; retry after " +
            std::to_string(options_.retry_after_hint_ms) + "ms");
      } else {
        rejection = support::Status::resource_exhausted(
            "admission control: " + std::to_string(queue_.size()) +
            " jobs already queued (queue_depth = " +
            std::to_string(options_.queue_depth) + "); retry later");
      }
    } else {
      // The admission seq (next_seq_) keys chaos and jitter draws, so it
      // must be a pure function of submission order; queue-ordering seqs
      // come from a separate counter (next_order_) because retry
      // re-enqueues also consume one and their timing is not
      // deterministic.
      job = std::make_shared<Job>(next_id_++, next_seq_++, std::move(spec),
                                  this);
      job->context.set_shared_executor(&pool_);
      job->breaker_probe = probe;
      job->queue_key =
          QueueKey{-static_cast<long long>(job->priority), next_order_++};
      queue_.emplace(job->queue_key, job);
      ++submitted_;
      // Every admission accrues retry budget; the cap bounds burst
      // retries after a long healthy stretch.
      retry_tokens_ =
          std::min(retry_tokens_ + job->retry.budget_ratio,
                   static_cast<double>(std::max<std::size_t>(
                       options_.queue_depth, 1)));
      queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    }
  }
  for (const auto& victim : victims) {
    finish_job(victim, JobState::kFailed,
               support::Status::unavailable(
                   "job \"" + victim->name +
                   "\" shed under overload (queue past watermark); retry "
                   "after " +
                   std::to_string(options_.retry_after_hint_ms) + "ms"),
               0.0, /*shed=*/true);
  }
  if (!rejection.is_ok()) return rejection;
  PSF_METRIC_ADD("serve.jobs_submitted", 1);
  dispatch_cv_.notify_one();
  return JobHandle(job);
}

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
  }
  dispatch_cv_.notify_all();
}

void Server::drain() {
  start();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return idle_locked(); });
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_ && runners_.empty()) return;
    shutting_down_ = true;
    started_ = true;  // a paused server still drains its queue
  }
  dispatch_cv_.notify_all();
  for (auto& runner : runners_) runner.join();
  runners_.clear();
  idle_cv_.notify_all();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats stats;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.cancelled = cancelled_;
  stats.expired = expired_;
  stats.retried = retried_;
  stats.shed = shed_;
  stats.breaker_open = breaker_open_;
  stats.queued = queue_.size();
  stats.running = running_;
  stats.backoff = backoff_.size();
  return stats;
}

std::string Server::stats_json() const {
  const ServerStats now = stats();
  std::ostringstream json;
  json << "{\"schema\":\"psf.serve\",\"version\":1,\"submitted\":"
       << now.submitted << ",\"rejected\":" << now.rejected
       << ",\"completed\":" << now.completed << ",\"failed\":" << now.failed
       << ",\"cancelled\":" << now.cancelled << ",\"expired\":" << now.expired
       << ",\"retried\":" << now.retried << ",\"shed\":" << now.shed
       << ",\"breaker_open\":" << now.breaker_open
       << ",\"queued\":" << now.queued << ",\"running\":" << now.running
       << ",\"backoff\":" << now.backoff << ",\"histograms\":{";
  bool first = true;
  const std::pair<const char*, metrics::Histogram*> hists[] = {
      {"serve.queue_wait_ms", queue_wait_ms_hist_},
      {"serve.run_ms", run_ms_hist_},
      {"serve.latency_ms", latency_ms_hist_},
      {"serve.backoff_ms", backoff_ms_hist_},
      {"serve.attempts", attempts_hist_},
  };
  for (const auto& [name, hist] : hists) {
    if (!first) json << ",";
    first = false;
    json << "\"" << name
         << "\":" << metrics::histogram_snapshot_json(hist->snapshot());
  }
  json << "}}";
  return json.str();
}

void Server::promote_due_backoff_locked(
    std::chrono::steady_clock::time_point now) {
  while (!backoff_.empty()) {
    auto it = backoff_.begin();
    // Shutdown forfeits the remaining backoff: queued jobs are promised a
    // terminal state, so pending retries dispatch immediately.
    if (!shutting_down_ && it->first.first > now) break;
    std::shared_ptr<Job> job = std::move(it->second);
    backoff_.erase(it);
    // Re-entering the queue starts a fresh TTL period (the absolute
    // deadline component of expire_tp is unaffected).
    job->arm_expiry(now);
    job->queue_key =
        QueueKey{-static_cast<long long>(job->priority), next_order_++};
    queue_.emplace(job->queue_key, job);
  }
}

void Server::runner_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        promote_due_backoff_locked(std::chrono::steady_clock::now());
        if (started_ && !queue_.empty()) break;
        if (shutting_down_) {
          if (queue_.empty() && backoff_.empty()) return;
          continue;  // promote_due drained backoff_; re-evaluate
        }
        if (started_ && !backoff_.empty()) {
          // Copy the deadline: wait_until re-reads it after waking, and
          // another runner may erase that backoff_ node meanwhile.
          const auto deadline = backoff_.begin()->first.first;
          dispatch_cv_.wait_until(lock, deadline);
        } else {
          dispatch_cv_.wait(lock);
        }
      }
      job = queue_.begin()->second;
      queue_.erase(queue_.begin());
      ++running_;
      queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    }
    run_job(job);
    note_runner_idle();
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  if (job->context.cancel_requested()) {
    // Cancelled between admission and dispatch but after the cancel lost
    // the queue-erase race to this runner: honour it without running.
    finish_job(job, JobState::kCancelled,
               support::Status::cancelled("job \"" + job->name +
                                          "\" cancelled before dispatch"),
               0.0);
    return;
  }
  const auto dispatch_tp = std::chrono::steady_clock::now();
  if (job->has_expire && dispatch_tp >= job->expire_tp) {
    // Deadline/TTL lapsed while queued: shed at dispatch without spending
    // any runner time on a result nobody can use.
    finish_job(job, JobState::kExpired,
               support::Status::deadline_exceeded(
                   "job \"" + job->name +
                   "\" expired in queue before dispatch (deadline/TTL)"),
               0.0);
    return;
  }
  int attempt = 1;
  {
    std::lock_guard<std::mutex> guard(job->mutex);
    job->state = JobState::kRunning;
    job->start_tp = dispatch_tp;
    job->queue_wall_s = seconds_between(job->submit_tp, job->start_tp);
    // Attempts count dispatches that actually started: a retry parked in
    // backoff and then cancelled still reports 1.
    attempt = ++job->attempts;
  }
  job->context.set_attempt(attempt);
  support::StatusOr<double> result =
      support::Status::internal("job body did not produce a result");
  bool chaos_failed = false;
  if (chaos_armed_) {
    // Seeded server-side chaos, keyed by (admission seq, attempt): the
    // injected stall/fail sequence is identical across runs and executor
    // widths. Fixed draw order — stall first, then fail.
    if (const fault::RunnerStallSpec* stall = chaos_.runner_stall()) {
      fault::FaultRng rng(draw_seed(stall->seed, kStallSalt, job->seq, attempt));
      if (rng.next_double() < stall->p) {
        record_chaos_event(*job, attempt,
                           "chaos.runner_stall ms=" +
                               std::to_string(stall->ms));
        std::this_thread::sleep_for(std::chrono::milliseconds(stall->ms));
      }
    }
    if (const fault::JobFailSpec* jf = chaos_.job_fail()) {
      fault::FaultRng rng(draw_seed(jf->seed, kFailSalt, job->seq, attempt));
      if (rng.next_double() < jf->p) {
        record_chaos_event(*job, attempt, "chaos.job_fail");
        result = support::Status::unavailable(
            "chaos: injected job_fail (attempt " + std::to_string(attempt) +
            ")");
        chaos_failed = true;
      }
    }
  }
  if (!chaos_failed) {
    try {
      const JobScope scope(job->context);
      result = job->fn(job->context);
    } catch (const std::exception& e) {
      result = support::Status::internal("job \"" + job->name +
                                         "\" threw: " + e.what());
    } catch (...) {
      result = support::Status::internal("job \"" + job->name +
                                         "\" threw a non-std exception");
    }
  }
  if (result.is_ok()) {
    finish_job(job, JobState::kDone, support::Status::ok(), result.value());
  } else if (result.status().code() == support::ErrorCode::kCancelled) {
    finish_job(job, JobState::kCancelled, result.status(), 0.0);
  } else if (result.status().code() ==
             support::ErrorCode::kDeadlineExceeded) {
    finish_job(job, JobState::kExpired, result.status(), 0.0);
  } else if (retryable(result.status().code()) &&
             maybe_schedule_retry(job, result.status())) {
    // Re-enqueued after backoff; this dispatch is over, no terminal state.
  } else {
    PSF_LOG(kWarn, "serve") << "job \"" << job->name << "\" (#" << job->id
                            << ") failed: " << result.status().to_string();
    finish_job(job, JobState::kFailed, result.status(), 0.0);
  }
}

bool Server::maybe_schedule_retry(const std::shared_ptr<Job>& job,
                                  const support::Status& failure) {
  const RetryPolicy& policy = job->retry;
  int attempt = 1;
  {
    std::lock_guard<std::mutex> guard(job->mutex);
    attempt = job->attempts;
  }
  if (attempt >= policy.max_attempts) return false;
  // Exponential backoff with full deterministic jitter: the delay depends
  // only on (policy, admission seq, attempt), never on thread timing.
  double backoff_ms = policy.base_backoff_ms *
                      std::pow(2.0, static_cast<double>(attempt - 1));
  backoff_ms = std::min(backoff_ms, policy.max_backoff_ms);
  fault::FaultRng rng(draw_seed(policy.jitter_seed, kJitterSalt, job->seq, attempt));
  backoff_ms *= 1.0 + policy.jitter * (rng.next_double() - 0.5);
  backoff_ms = std::max(backoff_ms, 0.0);
  const auto release_tp =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(backoff_ms));
  if (job->has_deadline && release_tp >= job->deadline_tp) {
    // The backoff alone would overrun the absolute deadline — expire now
    // instead of parking a doomed job. (The queue TTL is no obstacle: it
    // re-arms when the retry re-enters the queue.)
    finish_job(job, JobState::kExpired,
               support::Status::deadline_exceeded(
                   "job \"" + job->name + "\" retry backoff (" +
                   std::to_string(backoff_ms) +
                   "ms) would overrun its deadline; " + failure.message()),
               0.0);
    return true;  // handled: terminal state reached, no kFailed fallback
  }
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return false;
    if (job->context.cancel_requested()) {
      // A cancel raced with this failing attempt: cancellation wins, so
      // finish kCancelled (outside the lock) instead of parking a
      // logically-cancelled job whose backoff drain() would wait out.
      // Checked under mutex_: a concurrent cancel_job either set the
      // flag before this point or finds the job in backoff_ and clears
      // the pending retry itself.
      cancelled = true;
    } else {
      if (retry_tokens_ < 1.0) {
        PSF_LOG(kWarn, "serve")
            << "job \"" << job->name << "\" (#" << job->id
            << ") retry budget exhausted after attempt " << attempt << ": "
            << failure.to_string();
        return false;
      }
      retry_tokens_ -= 1.0;
      ++retried_;
      {
        std::lock_guard<std::mutex> guard(job->mutex);
        job->state = JobState::kQueued;
      }
      backoff_.emplace(std::make_pair(release_tp, job->seq), job);
    }
  }
  if (cancelled) {
    finish_job(job, JobState::kCancelled,
               support::Status::cancelled(
                   "job \"" + job->name +
                   "\" cancelled during a retryable failure (" +
                   failure.message() + ")"),
               0.0);
    return true;  // handled: terminal state reached, no kFailed fallback
  }
  backoff_ms_hist_->record(backoff_ms);
  PSF_METRIC_ADD("serve.retries", 1);
  // Backoff deadlines changed; every waiter re-evaluates its wait_until.
  dispatch_cv_.notify_all();
  return true;
}

void Server::finish_job(const std::shared_ptr<Job>& job, JobState state,
                        support::Status status, double vtime, bool shed) {
  double queue_wall_s = 0.0;
  double run_wall_s = 0.0;
  int attempts = 1;
  {
    std::lock_guard<std::mutex> guard(job->mutex);
    if (job->state == JobState::kRunning) {
      job->run_wall_s =
          seconds_between(job->start_tp, std::chrono::steady_clock::now());
    }
    job->state = state;
    job->status = std::move(status);
    job->vtime = vtime;
    queue_wall_s = job->queue_wall_s;
    run_wall_s = job->run_wall_s;
    attempts = job->attempts;
  }
  if (state == JobState::kDone) {
    // Latency histograms describe SUCCESSFUL serving; failed/cancelled
    // jobs would skew quantiles with near-zero or truncated times. This
    // runs after the JobScope was torn down, so the records land in the
    // process-global registry the Server cached at construction.
    queue_wait_ms_hist_->record(queue_wall_s * 1e3);
    run_ms_hist_->record(run_wall_s * 1e3);
    latency_ms_hist_->record((queue_wall_s + run_wall_s) * 1e3);
  }
  if (!shed) attempts_hist_->record(static_cast<double>(attempts));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state) {
      case JobState::kDone: ++completed_; break;
      case JobState::kFailed:
        if (shed) {
          ++shed_;
        } else {
          ++failed_;
        }
        break;
      case JobState::kCancelled: ++cancelled_; break;
      case JobState::kExpired: ++expired_; break;
      case JobState::kQueued:
      case JobState::kRunning: break;  // not terminal; unreachable here
    }
    // Sheds never ran and cancels/expiries say nothing about the job's
    // health — only real successes and failures move the breaker.
    if (options_.breaker.enabled) {
      if (!shed && (state == JobState::kDone || state == JobState::kFailed)) {
        breaker_record_locked(job, state == JobState::kFailed);
      } else if (job->breaker_probe) {
        // The probe ended without a health verdict (shed, cancelled, or
        // expired). Release the probe slot so the breaker cannot wedge
        // half-open; the next submission becomes the new probe.
        breaker_release_probe_locked(job->name);
      }
    }
  }
  switch (state) {
    case JobState::kDone: PSF_METRIC_ADD("serve.jobs_completed", 1); break;
    case JobState::kFailed:
      if (shed) {
        PSF_METRIC_ADD("serve.sheds", 1);
      } else {
        PSF_METRIC_ADD("serve.jobs_failed", 1);
      }
      break;
    case JobState::kCancelled:
      PSF_METRIC_ADD("serve.jobs_cancelled", 1);
      break;
    case JobState::kExpired: PSF_METRIC_ADD("serve.expired", 1); break;
    case JobState::kQueued:
    case JobState::kRunning: break;
  }
  // Waiters wake only after the counters and the breaker have absorbed the
  // outcome: a client that observes a terminal wait() and immediately
  // resubmits sees the server's post-outcome admission behaviour.
  job->cv.notify_all();
}

support::Status Server::breaker_admit_locked(const std::string& name,
                                             bool& probe) {
  auto it = breakers_.find(name);
  if (it == breakers_.end()) return support::Status::ok();
  Breaker& breaker = it->second;
  switch (breaker.state) {
    case Breaker::State::kClosed: return support::Status::ok();
    case Breaker::State::kOpen: {
      const auto now = std::chrono::steady_clock::now();
      if (now - breaker.opened_tp >=
          std::chrono::milliseconds(options_.breaker.cooldown_ms)) {
        breaker.state = Breaker::State::kHalfOpen;
        breaker.probe_in_flight = true;
        probe = true;
        return support::Status::ok();
      }
      return support::Status::unavailable(
          "circuit breaker open for job \"" + name + "\"; retry after " +
          std::to_string(options_.retry_after_hint_ms) + "ms");
    }
    case Breaker::State::kHalfOpen:
      if (!breaker.probe_in_flight) {
        breaker.probe_in_flight = true;
        probe = true;
        return support::Status::ok();
      }
      return support::Status::unavailable(
          "circuit breaker half-open for job \"" + name +
          "\" with a probe in flight; retry after " +
          std::to_string(options_.retry_after_hint_ms) + "ms");
  }
  return support::Status::ok();
}

void Server::breaker_release_probe_locked(const std::string& name) {
  auto it = breakers_.find(name);
  if (it != breakers_.end() &&
      it->second.state == Breaker::State::kHalfOpen) {
    it->second.probe_in_flight = false;
  }
}

void Server::breaker_record_locked(const std::shared_ptr<Job>& job,
                                   bool failure) {
  Breaker& breaker = breakers_[job->name];
  if (breaker.state == Breaker::State::kHalfOpen && job->breaker_probe) {
    breaker.probe_in_flight = false;
    if (failure) {
      breaker.state = Breaker::State::kOpen;
      breaker.opened_tp = std::chrono::steady_clock::now();
      ++breaker_open_;
      PSF_METRIC_ADD("serve.breaker_open", 1);
    } else {
      breaker = Breaker{};  // healthy again: closed, window cleared
    }
    return;
  }
  if (breaker.state != Breaker::State::kClosed) {
    // Late outcomes from jobs admitted before the trip don't perturb the
    // open/half-open protocol.
    return;
  }
  const std::size_t cap = std::max<std::size_t>(options_.breaker.window, 1);
  if (breaker.window.size() < cap) {
    breaker.window.push_back(failure);
    breaker.failures += failure ? 1 : 0;
  } else {
    breaker.failures -= breaker.window[breaker.window_next] ? 1 : 0;
    breaker.window[breaker.window_next] = failure;
    breaker.failures += failure ? 1 : 0;
    breaker.window_next = (breaker.window_next + 1) % cap;
  }
  breaker.samples = breaker.window.size();
  if (breaker.samples >= options_.breaker.min_samples &&
      static_cast<double>(breaker.failures) >=
          options_.breaker.failure_threshold *
              static_cast<double>(breaker.samples)) {
    breaker.state = Breaker::State::kOpen;
    breaker.opened_tp = std::chrono::steady_clock::now();
    ++breaker_open_;
    PSF_METRIC_ADD("serve.breaker_open", 1);
    PSF_LOG(kWarn, "serve")
        << "circuit breaker OPEN for job \"" << job->name << "\" ("
        << breaker.failures << "/" << breaker.samples
        << " recent failures)";
  }
}

bool Server::cancel_job(const std::shared_ptr<detail::Job>& job) {
  job->context.request_cancel();
  bool removed = false;
  const char* where = "queued";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    removed = queue_.erase(job->queue_key) > 0;
    if (!removed) {
      // Cancel-during-backoff: the pending retry is cleared and the cancel
      // wins over the scheduled re-dispatch.
      for (auto it = backoff_.begin(); it != backoff_.end(); ++it) {
        if (it->second == job) {
          backoff_.erase(it);
          removed = true;
          where = "in retry backoff";
          break;
        }
      }
    }
    if (removed) {
      queue_depth_gauge_->set(static_cast<double>(queue_.size()));
      if (idle_locked()) idle_cv_.notify_all();
    }
  }
  if (removed) {
    finish_job(job, JobState::kCancelled,
               support::Status::cancelled("job \"" + job->name +
                                          "\" cancelled while " + where),
               0.0);
    return true;
  }
  // Already dispatched: the running body will observe the flag at its next
  // cooperative check. Report whether the request can still have an effect.
  std::lock_guard<std::mutex> guard(job->mutex);
  return job->state == JobState::kQueued || job->state == JobState::kRunning;
}

void Server::note_runner_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  if (idle_locked()) idle_cv_.notify_all();
}

}  // namespace psf::serve
