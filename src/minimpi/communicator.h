// PSF — Pattern Specification Framework
// World and Communicator: the rank-parallel execution environment and its
// message-passing interface. Mirrors the MPI subset the paper's framework
// uses: blocking and non-blocking point-to-point, barrier, broadcast,
// binomial-tree reductions, gather and personalized all-to-all.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "fault/fault.h"
#include "minimpi/message.h"
#include "support/error.h"
#include "timemodel/link.h"
#include "timemodel/rates.h"
#include "timemodel/timeline.h"
#include "timemodel/trace.h"

namespace psf::minimpi {

class Communicator;

/// A cluster of `size` ranks living in one process. `run` launches one
/// thread per rank executing `rank_main(comm)` SPMD-style, and joins them.
/// Virtual time: every rank has a Timeline; the network LinkModel prices
/// messages; collectives use real message trees so their virtual cost is
/// emergent.
class World {
 public:
  explicit World(int size,
                 timemodel::LinkModel network = timemodel::LinkModel::free(),
                 timemodel::Overheads overheads = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;
  /// Movable so factory helpers can return a configured World. Only move a
  /// World with no ranks running. (Defined out of line: BarrierState is
  /// incomplete here.)
  World(World&&) noexcept;

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Run `rank_main` on every rank. Rethrows the first rank exception after
  /// all threads have been joined. May be called repeatedly (timelines are
  /// NOT reset automatically; call reset_timelines() between experiments).
  void run(const std::function<void(Communicator&)>& rank_main);

  /// Status-returning adapter around run() for callers on the Status side
  /// of the error contract (see support/error.h): a rank exception becomes
  /// ErrorCode::kInternal carrying the exception message instead of
  /// propagating. All ranks are still joined before it returns.
  [[nodiscard]] support::Status try_run(
      const std::function<void(Communicator&)>& rank_main);

  /// Virtual time of a rank (after run() returns).
  [[nodiscard]] double rank_vtime(int rank) const;
  /// Max virtual time over all ranks — the experiment's makespan.
  [[nodiscard]] double makespan() const;
  void reset_timelines();

  [[nodiscard]] const timemodel::LinkModel& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const timemodel::Overheads& overheads() const noexcept {
    return overheads_;
  }

  /// Multiplier applied to message sizes when pricing network transfers,
  /// so scaled-down functional payloads are charged at the paper-scale
  /// workload size (see DESIGN.md §2). Functional delivery is unaffected.
  void set_byte_scale(double scale) noexcept { byte_scale_ = scale; }
  [[nodiscard]] double byte_scale() const noexcept { return byte_scale_; }

  /// Install message-fault injection (drop/corrupt/duplicate/delay, see
  /// fault::MsgFaultSpec) on every send in this World. Thread-safe and
  /// idempotent — the first call wins; rank threads may race to install the
  /// same spec during SPMD setup (RuntimeEnv does exactly that). Faults are
  /// drawn from per-rank seeded streams, so injection is deterministic.
  void set_msg_faults(const fault::MsgFaultSpec& spec);
  [[nodiscard]] bool msg_faults_enabled() const noexcept;

  /// Attach a schedule recorder: every send/recv/barrier records a span on
  /// the per-rank network lane (timemodel::kNetLane) and deliveries record
  /// send -> recv dependency edges, giving psf::analysis the causal message
  /// graph. Call before run(); not owned, must outlive the World. The
  /// recorder also gets "rankN" process names and a "net" lane name per
  /// rank so trace viewers label the lanes.
  void set_trace(timemodel::TraceRecorder* trace);
  [[nodiscard]] timemodel::TraceRecorder* trace() const noexcept {
    return trace_;
  }

 private:
  friend class Communicator;

  struct BarrierState;
  struct MsgFaultState;

  [[nodiscard]] MsgFaultState* msg_fault_state() const noexcept;

  int size_;
  timemodel::LinkModel network_;
  timemodel::Overheads overheads_;
  double byte_scale_ = 1.0;
  timemodel::TraceRecorder* trace_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<timemodel::Timeline>> timelines_;
  std::unique_ptr<BarrierState> barrier_;
  /// Installed-once fault state; behind a heap holder so World stays
  /// movable (atomics are not). Owned: deleted in ~World.
  std::unique_ptr<std::atomic<MsgFaultState*>> msg_faults_;
};

/// Handle for a pending non-blocking operation. Obtained from isend/irecv,
/// completed by Communicator::wait / wait_all.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::kNone; }
  [[nodiscard]] const MessageInfo& info() const noexcept { return info_; }

 private:
  friend class Communicator;
  enum class Kind { kNone, kSendDone, kRecvPending };

  Kind kind_ = Kind::kNone;
  int source_ = kAnySource;
  int tag_ = kAnyTag;
  std::span<std::byte> out_;
  MessageInfo info_;
};

/// Per-rank communication endpoint, passed to the rank main function.
class Communicator {
 public:
  Communicator(World& world, int rank) : world_(&world), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size_; }
  [[nodiscard]] timemodel::Timeline& timeline() noexcept {
    return *world_->timelines_[static_cast<std::size_t>(rank_)];
  }
  [[nodiscard]] World& world() noexcept { return *world_; }

  // --- point-to-point -----------------------------------------------------

  /// Blocking buffered send. Copies `data` once, into a pooled payload.
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Pooled storage for a zero-copy send: pack directly into the returned
  /// buffer and hand it to send_pooled/isend_pooled. The steady state
  /// recycles released payloads, so this allocates only while the pool
  /// warms up.
  [[nodiscard]] support::PooledBuffer acquire_buffer(std::size_t bytes);

  /// Zero-copy blocking send: the pooled payload travels to the receiver
  /// as-is, no intermediate copy.
  void send_pooled(int dest, int tag, support::PooledBuffer payload);

  /// Blocking receive into `out`; the payload must fit. Returns metadata.
  /// Copies the matched payload into `out` exactly once (the matched
  /// delivery itself is zero-copy — use recv_any to keep the pooled
  /// payload and skip even that copy).
  MessageInfo recv(int source, int tag, std::span<std::byte> out);

  /// Alias for recv() emphasizing the copy-once contract.
  MessageInfo recv_into(int source, int tag, std::span<std::byte> out) {
    return recv(source, tag, out);
  }

  /// Blocking receive of a message of unknown size. Zero-copy: the returned
  /// Message owns the pooled payload the sender packed; it returns to the
  /// pool when the Message is destroyed.
  Message recv_any(int source, int tag);

  /// Blocking receive with a wall-clock deadline (a hang detector for
  /// lossy-transport experiments): returns kDeadlineExceeded when no
  /// matching message arrives within `timeout_s` wall seconds. A message
  /// arriving after the deadline stays queued for a later receive. Virtual
  /// time is only advanced on success.
  [[nodiscard]] support::StatusOr<MessageInfo> recv_deadline(
      int source, int tag, std::span<std::byte> out, double timeout_s);

  /// Non-blocking send: buffered, completes immediately (MPI_Ibsend-like —
  /// matches how the paper's runtime posts asynchronous boundary sends).
  Request isend(int dest, int tag, std::span<const std::byte> data);

  /// Zero-copy variant of isend (see send_pooled).
  Request isend_pooled(int dest, int tag, support::PooledBuffer payload);

  /// Non-blocking receive: matching is deferred to wait().
  Request irecv(int source, int tag, std::span<std::byte> out);

  /// Complete a pending request.
  void wait(Request& request);
  void wait_all(std::span<Request> requests);

  /// True if a matching message is already queued.
  [[nodiscard]] bool probe(int source, int tag);

  // --- typed convenience ----------------------------------------------------

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_span(int dest, int tag, std::span<const T> data) {
    send(dest, tag, std::as_bytes(data));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  MessageInfo recv_span(int source, int tag, std::span<T> out) {
    return recv(source, tag, std::as_writable_bytes(out));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dest, int tag, const T& value) {
    send_span<T>(dest, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int source, int tag) {
    T value{};
    recv_span<T>(source, tag, std::span<T>(&value, 1));
    return value;
  }

  // --- collectives ----------------------------------------------------------

  /// Synchronize all ranks; virtual time advances to the global maximum plus
  /// a log2(size) latency term.
  void barrier();

  /// Broadcast `data` from `root` over a binomial tree.
  void bcast(std::span<std::byte> data, int root);

  /// In-place element-wise reduction of `data` to `root` over a binomial
  /// tree ("parallel binary tree order" per the paper). `op(dst, src)`
  /// combines one element.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  void reduce(std::span<T> data, int root, Op op) {
    reduce_bytes(std::as_writable_bytes(data), sizeof(T), root,
                 [&op](std::byte* dst, const std::byte* src) {
                   op(*reinterpret_cast<T*>(dst),
                      *reinterpret_cast<const T*>(src));
                 });
  }

  /// Reduce-to-all: tree reduce to rank 0 followed by broadcast.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  void allreduce(std::span<T> data, Op op) {
    reduce<T>(data, 0, op);
    bcast(std::as_writable_bytes(data), 0);
  }

  /// Convenience scalar allreduce.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T allreduce_value(T value, Op op) {
    allreduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Gather one value per rank to all ranks (small metadata exchanges).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allgather_value(const T& value);

  /// Personalized all-to-all with per-destination byte buffers. Used by the
  /// irregular-reduction node-data exchange. `outbound[r]` goes to rank r;
  /// returns inbound payloads indexed by source rank.
  std::vector<std::vector<std::byte>> alltoallv(
      const std::vector<std::vector<std::byte>>& outbound, int tag);

  /// Reusing variant: fills `inbound` in place, assigning into whatever
  /// capacity the caller's vectors already hold. Pass the same `inbound`
  /// across iterations for an allocation-free steady state.
  void alltoallv(const std::vector<std::vector<std::byte>>& outbound, int tag,
                 std::vector<std::vector<std::byte>>& inbound);

  /// Type-erased tree reduction (implementation detail of reduce<T>).
  void reduce_bytes(
      std::span<std::byte> data, std::size_t elem_size, int root,
      const std::function<void(std::byte*, const std::byte*)>& combine);

 private:
  Mailbox& mailbox(int rank) {
    return *world_->mailboxes_[static_cast<std::size_t>(rank)];
  }

  void deliver(int dest, int tag, support::PooledBuffer payload);
  void consume(const Message& message);

  /// retrieve() plus the fault-era receiver protocol: wall-clock deadline
  /// (when the plan arms one), CRC verification, and duplicate purging.
  /// Reduces to a plain retrieve when no faults are installed.
  Message retrieve_checked(int source, int tag);

  /// False if `message` fails its CRC (it is discarded and the caller must
  /// retrieve again); true otherwise, after purging duplicate deliveries.
  bool accept_message(const Message& message);

  World* world_;
  int rank_;
};

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> Communicator::allgather_value(const T& value) {
  std::vector<T> all(static_cast<std::size_t>(size()));
  all[static_cast<std::size_t>(rank())] = value;
  // Ring allgather: size-1 steps, each rank forwards the next slot.
  constexpr int kTag = 0x7fff0001;
  const int n = size();
  for (int step = 0; step < n - 1; ++step) {
    const int send_slot = (rank() - step + n) % n;
    const int recv_slot = (rank() - step - 1 + n) % n;
    const int next = (rank() + 1) % n;
    const int prev = (rank() - 1 + n) % n;
    Request rr = irecv(prev, kTag + step,
                       std::as_writable_bytes(std::span<T>(
                           &all[static_cast<std::size_t>(recv_slot)], 1)));
    send_span<T>(next, kTag + step,
                 std::span<const T>(&all[static_cast<std::size_t>(send_slot)],
                                    1));
    wait(rr);
  }
  return all;
}

}  // namespace psf::minimpi
