// SchedulerCore: ConVGPU's GPU memory scheduler (paper §III-D), transport-
// agnostic.
//
// Determines accept / suspend / reject for every GPU memory allocation from
// every container. The socket daemon (SchedulerServer) and the discrete-
// event simulation both drive this same object, so the policy experiments
// in bench/ exercise exactly the code that runs in production.
//
// Concurrency: one mutex serializes every step (the paper: "Each step is
// protected by a mutex lock"). Grant callbacks fire *after* the lock is
// released — a suspended request's callback may run seconds later, from
// whichever thread performed the release that freed the memory.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/mutex.h"
#include "common/result.h"
#include "convgpu/ledger.h"
#include "convgpu/ledger_page.h"
#include "convgpu/policy.h"

namespace convgpu {

struct SchedulerOptions {
  /// Total schedulable GPU memory (the paper's K20m: 5 GB).
  Bytes capacity = 5 * kGiB;
  /// Limit when neither --nvidia-memory nor the image label is present.
  Bytes default_limit = 1 * kGiB;
  /// Driver charge on a pid's first allocation: 64 MiB process state +
  /// 2 MiB context (§III-D).
  Bytes first_alloc_overhead = 66 * kMiB;
  /// "FIFO", "BF", "RU", or "Rand".
  std::string policy = "FIFO";
  std::uint64_t policy_seed = 0x5EEDULL;
};

/// Outcome passed to a request's callback.
///  ok                   — granted; caller may perform the real allocation
///  kResourceExhausted   — rejected: would exceed the container's limit
///  kAborted             — canceled: container closed while suspended
using GrantCallback = std::function<void(const Status&)>;

struct MemInfoReply {
  Bytes free = 0;   // container-virtualized: limit − used
  Bytes total = 0;  // the container's limit
};

struct ContainerStatsSnapshot {
  std::string id;
  Bytes limit = 0;
  Bytes assigned = 0;
  Bytes used = 0;
  bool suspended = false;
  Duration total_suspended = Duration::zero();
  std::uint64_t suspend_episodes = 0;
  std::size_t pending_requests = 0;
  TimePoint created_at = kTimeZero;
};

class SchedulerCore {
 public:
  explicit SchedulerCore(SchedulerOptions options, const Clock* clock = nullptr);

  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // --- Container lifecycle --------------------------------------------------

  /// Registers a container before it starts; `limit` empty applies the
  /// default. Immediately assigns min(limit, free pool).
  Status RegisterContainer(const std::string& id, std::optional<Bytes> limit);

  /// The plugin's *close* signal: releases everything, cancels suspended
  /// requests (kAborted), and redistributes the returned memory via the
  /// policy.
  Status ContainerClose(const std::string& id);

  // --- Wrapper-module entry points -----------------------------------------

  /// Allocation admission. The callback fires exactly once:
  /// immediately when the decision is accept/reject, or later when a
  /// suspended request is finally satisfied. `size` must already include
  /// any wrapper-side adjustment (pitch, managed rounding); the scheduler
  /// adds the first-allocation overhead itself.
  void RequestAlloc(const std::string& id, Pid pid, Bytes size,
                    GrantCallback done);

  /// Reports the address of a granted allocation (post-cudaMalloc).
  Status CommitAlloc(const std::string& id, Pid pid, std::uint64_t address,
                     Bytes size);

  /// Rolls back a granted allocation whose real cudaMalloc failed.
  Status AbortAlloc(const std::string& id, Pid pid, Bytes size);

  /// cudaFree passthrough accounting.
  Status FreeAlloc(const std::string& id, Pid pid, std::uint64_t address);

  /// Virtualized cudaMemGetInfo answered entirely from the ledger.
  Result<MemInfoReply> MemGetInfo(const std::string& id);

  // --- Ledger pages (see ledger_page.h) -------------------------------------

  /// From now on `id`'s MemGetInfo answer is published on `page` at every
  /// transition that changes it, under this core's mutex; published once
  /// right here. The page is invalidated (epoch 0) and dropped when the
  /// container closes. kNotFound for an unknown container.
  Status AttachLedgerPage(const std::string& id,
                          std::shared_ptr<LedgerPage> page);
  /// Invalidates and drops every attached page (the daemon is stopping).
  void DetachLedgerPages();

  /// __cudaUnregisterFatBinary: drop every allocation owned by the pid.
  Status ProcessExit(const std::string& id, Pid pid);

  // --- Reattach (daemon restart recovery) -----------------------------------

  /// One allocation in a wrapper's reattach snapshot.
  struct RestoredAlloc {
    std::uint64_t address = 0;
    Bytes size = 0;
  };

  /// Rebuilds one pid's ledger state from the wrapper's reattach snapshot
  /// (see protocol::Reattach). Registers the container when absent (`limit`
  /// empty applies the default; a limit disagreeing with an existing
  /// registration is kFailedPrecondition), then re-reserves and re-commits
  /// every snapshot allocation plus the pid's first-allocation overhead,
  /// topping up the assignment from the free pool as needed.
  ///
  /// Idempotent: when the pid is already present with *exactly* the
  /// snapshot's allocations this is an Ok no-op (a reattach duplicated by
  /// a connection lost mid-handshake). A disagreeing snapshot means a
  /// commit or free notification was lost in the blip; the snapshot is
  /// authoritative (it mirrors the device), so the pid's stale state is
  /// released and rebuilt from it. kResourceExhausted when the free pool
  /// cannot cover the snapshot (the memory was promised to others after
  /// the crash); partial failures roll back completely.
  Status RestoreProcess(const std::string& id, std::optional<Bytes> limit,
                        Pid pid, const std::vector<RestoredAlloc>& allocations);

  [[nodiscard]] bool HasContainer(const std::string& id) const;

  // --- Introspection --------------------------------------------------------

  [[nodiscard]] std::vector<ContainerStatsSnapshot> Stats() const;
  [[nodiscard]] std::optional<ContainerStatsSnapshot> StatsFor(
      const std::string& id) const;
  [[nodiscard]] Bytes free_pool() const;
  [[nodiscard]] Bytes capacity() const { return options_.capacity; }
  [[nodiscard]] std::size_t pending_request_count() const;
  [[nodiscard]] std::string_view policy_name() const { return policy_->name(); }
  [[nodiscard]] Bytes default_limit() const { return options_.default_limit; }

  /// Property-test hook: full ledger + queue consistency.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  struct PendingRequest {
    Pid pid;
    Bytes size;  // base size; overhead due is recomputed at grant time
    GrantCallback done;
  };
  using Callbacks = std::vector<std::pair<GrantCallback, Status>>;

  [[nodiscard]] TimePoint Now() const { return clock_->Now(); }

  /// Grants `account`'s queued requests (FIFO) while they fit; updates
  /// suspension stats. Appends fired callbacks to `out`.
  void TryGrantPendingLocked(const std::string& id, Callbacks& out)
      REQUIRES(mutex_);

  /// The release path: policy-driven assignment of the free pool to paused
  /// containers (paper §III-D, Fig. 3d).
  void RedistributeLocked(Callbacks& out) REQUIRES(mutex_);

  /// Debug-mode invariant audit (LedgerAuditor): called under the lock at
  /// the end of every state transition; aborts with a full ledger dump on
  /// violation. Compiled to nothing unless CONVGPU_LEDGER_AUDIT is set.
  void AuditLocked() const REQUIRES(mutex_);

  static void Fire(Callbacks& callbacks);

  /// Publishes `id`'s MemGetInfo answer on its ledger page, if it has one.
  void PublishLocked(const std::string& id) REQUIRES(mutex_);

  SchedulerOptions options_;
  std::unique_ptr<SchedulingPolicy> policy_;
  const Clock* clock_;

  mutable Mutex mutex_;
  MemoryLedger ledger_ GUARDED_BY(mutex_);
  std::map<std::string, std::deque<PendingRequest>> pending_ GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<LedgerPage>> pages_ GUARDED_BY(mutex_);
};

}  // namespace convgpu
