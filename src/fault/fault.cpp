// PSF — fault-plan parsing and the shared fault log.
#include "fault/fault.h"

#include <charconv>
#include <cstdlib>
#include <string>

namespace psf::fault {
namespace {

using support::Status;
using support::StatusOr;

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_int(std::string_view s, int& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  // std::from_chars for double is missing in some libstdc++ configurations;
  // strtod needs a terminated copy.
  const std::string copy(s);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

std::string clause_error(std::string_view clause, const char* why) {
  std::string msg = "fault plan: bad clause '";
  msg.append(clause);
  msg += "': ";
  msg += why;
  return msg;
}

Status parse_device_clause(std::string_view body, std::string_view clause,
                           std::vector<DeviceFault>& out) {
  // <rank|*>.<device>@iter=N
  const std::size_t dot = body.find('.');
  const std::size_t at = body.find('@');
  if (dot == std::string_view::npos || at == std::string_view::npos ||
      dot > at) {
    return Status::invalid_argument(
        clause_error(clause, "want device:<rank|*>.<name>@iter=N"));
  }
  DeviceFault fault;
  const std::string_view rank_str = trim(body.substr(0, dot));
  if (rank_str == "*") {
    fault.rank = -1;
  } else if (!parse_int(rank_str, fault.rank) || fault.rank < 0) {
    return Status::invalid_argument(
        clause_error(clause, "rank must be a non-negative integer or '*'"));
  }
  fault.device = std::string(trim(body.substr(dot + 1, at - dot - 1)));
  if (fault.device.rfind("gpu", 0) != 0 && fault.device.rfind("mic", 0) != 0) {
    return Status::invalid_argument(clause_error(
        clause,
        "only accelerators (gpu*/mic*) can be lost — the CPU must survive "
        "to replay the work"));
  }
  const std::string_view trigger = trim(body.substr(at + 1));
  if (trigger.rfind("iter=", 0) != 0 ||
      !parse_int(trigger.substr(5), fault.iteration) || fault.iteration < 1) {
    return Status::invalid_argument(
        clause_error(clause, "trigger must be @iter=N with N >= 1"));
  }
  // The runtimes price at most one device loss per rank and iteration
  // (GReduction's requeue schedule has one failure point), so two losses
  // that could fall on one rank in one iteration are refused up front.
  for (const DeviceFault& other : out) {
    if (other.iteration == fault.iteration &&
        (other.rank < 0 || fault.rank < 0 || other.rank == fault.rank)) {
      const std::string why =
          "due on the same rank and iteration as device:" +
          (other.rank < 0 ? std::string("*") : std::to_string(other.rank)) +
          "." + other.device + "@iter=" + std::to_string(other.iteration) +
          "; a rank can lose at most one device per iteration";
      return Status::invalid_argument(clause_error(clause, why.c_str()));
    }
  }
  out.push_back(std::move(fault));
  return Status::ok();
}

Status parse_msg_clause(std::string_view body, std::string_view clause,
                        MsgFaultSpec& spec, bool& has_msg) {
  if (has_msg) {
    return Status::invalid_argument(
        clause_error(clause, "duplicate msg_drop clause"));
  }
  std::string_view rest = body;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view pair = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::invalid_argument(
          clause_error(clause, "msg_drop options must be key=value"));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    bool ok = true;
    if (key == "p") {
      ok = parse_double(value, spec.p_drop);
    } else if (key == "corrupt") {
      ok = parse_double(value, spec.p_corrupt);
    } else if (key == "dup") {
      ok = parse_double(value, spec.p_dup);
    } else if (key == "delay_p") {
      ok = parse_double(value, spec.p_delay);
    } else if (key == "delay_s") {
      ok = parse_double(value, spec.delay_s) && spec.delay_s >= 0.0;
    } else if (key == "timeout_s") {
      ok = parse_double(value, spec.timeout_s) && spec.timeout_s >= 0.0;
    } else if (key == "backoff_s") {
      ok = parse_double(value, spec.backoff_s) && spec.backoff_s >= 0.0;
    } else if (key == "deadline_ms") {
      ok = parse_int(value, spec.deadline_ms) && spec.deadline_ms >= 0;
    } else if (key == "retries") {
      ok = parse_int(value, spec.max_retries) && spec.max_retries >= 1;
    } else if (key == "seed") {
      ok = parse_u64(value, spec.seed);
    } else {
      return Status::invalid_argument(
          clause_error(clause, "unknown msg_drop option"));
    }
    if (!ok) {
      return Status::invalid_argument(
          clause_error(clause, "malformed msg_drop option value"));
    }
  }
  for (const double p :
       {spec.p_drop, spec.p_corrupt, spec.p_dup, spec.p_delay}) {
    if (p < 0.0 || p >= 1.0) {
      return Status::invalid_argument(
          clause_error(clause, "probabilities must lie in [0, 1)"));
    }
  }
  if (spec.p_drop + spec.p_corrupt + spec.p_dup + spec.p_delay >= 1.0) {
    return Status::invalid_argument(
        clause_error(clause, "fault probabilities must sum below 1"));
  }
  has_msg = true;
  return Status::ok();
}

/// Iterate `body` as comma-separated key=value pairs, calling
/// `on_pair(key, value)` for each; on_pair returns false for an unknown key.
template <typename Fn>
Status parse_kv_options(std::string_view body, std::string_view clause,
                        const char* what, Fn&& on_pair) {
  std::string_view rest = body;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view pair = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::invalid_argument(clause_error(
          clause, (std::string(what) + " options must be key=value").c_str()));
    }
    const int verdict = on_pair(pair.substr(0, eq), pair.substr(eq + 1));
    if (verdict < 0) {
      return Status::invalid_argument(
          clause_error(clause, (std::string("unknown ") + what +
                                " option").c_str()));
    }
    if (verdict == 0) {
      return Status::invalid_argument(
          clause_error(clause, (std::string("malformed ") + what +
                                " option value").c_str()));
    }
  }
  return Status::ok();
}

Status parse_job_fail_clause(std::string_view body, std::string_view clause,
                             JobFailSpec& spec, bool& has) {
  if (has) {
    return Status::invalid_argument(
        clause_error(clause, "duplicate job_fail clause"));
  }
  bool saw_p = false;
  PSF_RETURN_IF_ERROR(parse_kv_options(
      body, clause, "job_fail",
      [&](std::string_view key, std::string_view value) -> int {
        if (key == "p") {
          saw_p = true;
          return parse_double(value, spec.p) ? 1 : 0;
        }
        if (key == "seed") return parse_u64(value, spec.seed) ? 1 : 0;
        return -1;
      }));
  if (!saw_p || spec.p < 0.0 || spec.p >= 1.0) {
    return Status::invalid_argument(
        clause_error(clause, "job_fail needs p in [0, 1)"));
  }
  has = true;
  return Status::ok();
}

Status parse_runner_stall_clause(std::string_view body,
                                 std::string_view clause,
                                 RunnerStallSpec& spec, bool& has) {
  if (has) {
    return Status::invalid_argument(
        clause_error(clause, "duplicate runner_stall clause"));
  }
  bool saw_ms = false;
  PSF_RETURN_IF_ERROR(parse_kv_options(
      body, clause, "runner_stall",
      [&](std::string_view key, std::string_view value) -> int {
        if (key == "ms") {
          saw_ms = true;
          return parse_int(value, spec.ms) && spec.ms >= 1 ? 1 : 0;
        }
        if (key == "p") return parse_double(value, spec.p) ? 1 : 0;
        if (key == "seed") return parse_u64(value, spec.seed) ? 1 : 0;
        return -1;
      }));
  if (!saw_ms) {
    return Status::invalid_argument(
        clause_error(clause, "runner_stall needs ms=N with N >= 1"));
  }
  if (spec.p < 0.0 || spec.p > 1.0) {
    return Status::invalid_argument(
        clause_error(clause, "runner_stall p must lie in [0, 1]"));
  }
  has = true;
  return Status::ok();
}

Status parse_submit_burst_clause(std::string_view body,
                                 std::string_view clause,
                                 SubmitBurstSpec& spec, bool& has) {
  if (has) {
    return Status::invalid_argument(
        clause_error(clause, "duplicate submit_burst clause"));
  }
  PSF_RETURN_IF_ERROR(parse_kv_options(
      body, clause, "submit_burst",
      [&](std::string_view key, std::string_view value) -> int {
        if (key == "every") return parse_int(value, spec.every) ? 1 : 0;
        if (key == "count") return parse_int(value, spec.count) ? 1 : 0;
        if (key == "priority") return parse_int(value, spec.priority) ? 1 : 0;
        return -1;
      }));
  if (spec.every < 1 || spec.count < 1) {
    return Status::invalid_argument(clause_error(
        clause, "submit_burst needs every=K and count=B, both >= 1"));
  }
  has = true;
  return Status::ok();
}

Status parse_rank_clause(std::string_view body, std::string_view clause,
                         std::vector<RankFault>& out) {
  // <R>@iter=N | <R>@vtime=X
  const std::size_t at = body.find('@');
  if (at == std::string_view::npos) {
    return Status::invalid_argument(
        clause_error(clause, "want rank:<R>@iter=N or rank:<R>@vtime=X"));
  }
  RankFault fault;
  if (!parse_int(trim(body.substr(0, at)), fault.rank) || fault.rank < 0) {
    return Status::invalid_argument(
        clause_error(clause, "rank must be a non-negative integer"));
  }
  const std::string_view trigger = trim(body.substr(at + 1));
  if (trigger.rfind("iter=", 0) == 0) {
    if (!parse_int(trigger.substr(5), fault.iteration) ||
        fault.iteration < 1) {
      return Status::invalid_argument(
          clause_error(clause, "@iter=N needs N >= 1"));
    }
  } else if (trigger.rfind("vtime=", 0) == 0) {
    if (!parse_double(trigger.substr(6), fault.vtime) || fault.vtime < 0.0) {
      return Status::invalid_argument(
          clause_error(clause, "@vtime=X needs X >= 0"));
    }
  } else {
    return Status::invalid_argument(
        clause_error(clause, "trigger must be @iter=N or @vtime=X"));
  }
  out.push_back(fault);
  return Status::ok();
}

}  // namespace

StatusOr<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view clause = trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos) {
      return Status::invalid_argument(
          clause_error(clause, "want <class>:<spec>"));
    }
    const std::string_view kind = clause.substr(0, colon);
    const std::string_view body = clause.substr(colon + 1);
    Status status;
    if (kind == "device") {
      status = parse_device_clause(body, clause, plan.device_faults_);
    } else if (kind == "msg_drop") {
      status = parse_msg_clause(body, clause, plan.msg_, plan.has_msg_);
    } else if (kind == "rank") {
      status = parse_rank_clause(body, clause, plan.rank_faults_);
    } else if (kind == "job_fail") {
      status = parse_job_fail_clause(body, clause, plan.job_fail_,
                                     plan.has_job_fail_);
    } else if (kind == "runner_stall") {
      status = parse_runner_stall_clause(body, clause, plan.runner_stall_,
                                         plan.has_runner_stall_);
    } else if (kind == "submit_burst") {
      status = parse_submit_burst_clause(body, clause, plan.submit_burst_,
                                         plan.has_submit_burst_);
    } else {
      status = Status::invalid_argument(
          clause_error(clause,
                       "unknown fault class (want device, msg_drop, rank, "
                       "job_fail, runner_stall, or submit_burst)"));
    }
    PSF_RETURN_IF_ERROR(status);
  }
  return plan;
}

const DeviceFault* FaultPlan::device_fault_due(int rank,
                                               std::string_view device,
                                               int iteration) const {
  for (const DeviceFault& fault : device_faults_) {
    if (fault.iteration == iteration &&
        (fault.rank < 0 || fault.rank == rank) && fault.device == device) {
      return &fault;
    }
  }
  return nullptr;
}

FaultLog& FaultLog::global() {
  static FaultLog log;
  return log;
}

void FaultLog::record(int rank, std::string event) {
  std::lock_guard<std::mutex> guard(mutex_);
  events_[rank].push_back(std::move(event));
}

std::map<int, std::vector<std::string>> FaultLog::snapshot() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return events_;
}

void FaultLog::reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  events_.clear();
}

}  // namespace psf::fault
