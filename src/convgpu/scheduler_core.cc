#include "convgpu/scheduler_core.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "convgpu/ledger_auditor.h"

namespace convgpu {

namespace {
constexpr char kTag[] = "sched";

/// User-visible numbers: the driver overhead is invisible to the program,
/// exactly as a real cudaMemGetInfo hides driver-internal allocations.
MemInfoReply MemInfoOf(const ContainerAccount& account) {
  const Bytes user_used = account.used - account.overhead_charged;
  return MemInfoReply{account.declared_limit - user_used,
                      account.declared_limit};
}
}  // namespace

SchedulerCore::SchedulerCore(SchedulerOptions options, const Clock* clock)
    : options_(std::move(options)),
      policy_(MakePolicy(options_.policy, options_.policy_seed)),
      clock_(clock != nullptr ? clock : &RealClock::Instance()),
      ledger_(options_.capacity) {
  if (policy_ == nullptr) {
    CONVGPU_LOG(kWarn, kTag) << "unknown policy '" << options_.policy
                             << "', falling back to FIFO";
    policy_ = std::make_unique<FifoPolicy>();
  }
}

void SchedulerCore::AuditLocked() const {
#ifdef CONVGPU_LEDGER_AUDIT
  LedgerAuditor::PendingView view;
  view.reserve(pending_.size());
  for (const auto& [id, queue] : pending_) {
    std::vector<LedgerAuditor::PendingAlloc> requests;
    requests.reserve(queue.size());
    for (const auto& request : queue) {
      requests.push_back({request.pid, request.size});
    }
    view.emplace_back(id, std::move(requests));
  }
  LedgerAuditor::AuditOrDie(ledger_, view, options_.first_alloc_overhead);
#endif
}

void SchedulerCore::PublishLocked(const std::string& id) {
  if (pages_.empty()) return;
  auto page = pages_.find(id);
  if (page == pages_.end()) return;
  const ContainerAccount* account = ledger_.Find(id);
  if (account == nullptr) return;
  const MemInfoReply info = MemInfoOf(*account);
  page->second->Publish(info.free, info.total);
}

Status SchedulerCore::AttachLedgerPage(const std::string& id,
                                       std::shared_ptr<LedgerPage> page) {
  MutexLock lock(mutex_);
  if (ledger_.Find(id) == nullptr) {
    return NotFoundError("unknown container: " + id);
  }
  pages_[id] = std::move(page);
  PublishLocked(id);
  return Status::Ok();
}

void SchedulerCore::DetachLedgerPages() {
  MutexLock lock(mutex_);
  for (auto& [id, page] : pages_) page->Invalidate();
  pages_.clear();
}

void SchedulerCore::Fire(Callbacks& callbacks) {
  for (auto& [callback, status] : callbacks) {
    if (callback) callback(status);
  }
  callbacks.clear();
}

Status SchedulerCore::RegisterContainer(const std::string& id,
                                        std::optional<Bytes> limit) {
  MutexLock lock(mutex_);
  const Bytes effective = limit.value_or(options_.default_limit);
  auto status =
      ledger_.Register(id, effective, options_.first_alloc_overhead, Now());
  if (status.ok()) {
    CONVGPU_LOG(kInfo, kTag) << "registered " << id << " limit "
                             << FormatByteSize(effective) << ", assigned "
                             << FormatByteSize(ledger_.Find(id)->assigned);
  }
  AuditLocked();
  return status;
}

void SchedulerCore::RequestAlloc(const std::string& id, Pid pid, Bytes size,
                                 GrantCallback done) {
  Callbacks callbacks;
  {
    MutexLock lock(mutex_);
    const ContainerAccount* account = ledger_.Find(id);
    if (account == nullptr) {
      callbacks.emplace_back(std::move(done),
                             NotFoundError("unknown container: " + id));
      Fire(callbacks);
      return;
    }
    if (size <= 0) {
      callbacks.emplace_back(std::move(done),
                             InvalidArgumentError("allocation size must be > 0"));
      Fire(callbacks);
      return;
    }

    const Bytes overhead =
        ledger_.OverheadDue(id, pid, options_.first_alloc_overhead);
    const Bytes total = size + overhead;

    // Beyond the declared limit: reject outright (the wrapper returns
    // cudaErrorMemoryAllocation to the user program).
    if (account->used + total > account->limit) {
      callbacks.emplace_back(
          std::move(done),
          ResourceExhaustedError(
              "allocation of " + FormatByteSize(size) + " (+ " +
              FormatByteSize(overhead) + " overhead) exceeds limit " +
              FormatByteSize(account->limit)));
      Fire(callbacks);
      return;
    }

    // Preserve per-container FIFO: if this container already has suspended
    // requests, the new one queues behind them regardless of fit.
    if (pending_.contains(id)) {
      pending_[id].push_back(PendingRequest{pid, size, std::move(done)});
      AuditLocked();
      Fire(callbacks);
      return;
    }

    // Within limit but beyond the current assignment: top up from the free
    // pool. (When other containers are paused the pool is always empty, so
    // this cannot jump the queue — see RedistributeLocked.)
    if (account->used + total > account->assigned) {
      const Bytes need = account->used + total - account->assigned;
      const Bytes available = std::min(need, ledger_.free_pool());
      if (available > 0) {
        (void)ledger_.TopUp(id, available);
      }
    }

    auto reserve = ledger_.Reserve(id, total);
    if (reserve.ok()) {
      if (overhead > 0) {
        (void)ledger_.ChargeOverhead(id, pid, overhead);
      }
      callbacks.emplace_back(std::move(done), Status::Ok());
    } else if (reserve.code() == StatusCode::kResourceExhausted) {
      // Suspend: queue the request; the reply is deferred until another
      // container's release lets the redistribution loop satisfy it.
      pending_[id].push_back(PendingRequest{pid, size, std::move(done)});
      ledger_.MarkSuspended(id, Now());
      CONVGPU_LOG(kDebug, kTag)
          << id << " suspended on alloc of " << FormatByteSize(total);
      // Other suspended containers may hold revocable headroom that the
      // policy would rather route here (or re-concentrate elsewhere).
      RedistributeLocked(callbacks);
    } else {
      callbacks.emplace_back(std::move(done), reserve);
    }
    PublishLocked(id);
    AuditLocked();
  }
  Fire(callbacks);
}

void SchedulerCore::TryGrantPendingLocked(const std::string& id,
                                          Callbacks& out) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto& queue = it->second;
  while (!queue.empty()) {
    PendingRequest& request = queue.front();
    const Bytes overhead =
        ledger_.OverheadDue(id, request.pid, options_.first_alloc_overhead);
    auto reserve = ledger_.Reserve(id, request.size + overhead);
    if (reserve.code() == StatusCode::kResourceExhausted) {
      break;  // still insufficient; keep waiting
    }
    if (!reserve.ok()) {
      // Cannot ever be satisfied (e.g. over the limit after accounting
      // drift): reject instead of waiting forever.
      out.emplace_back(std::move(request.done), reserve);
      queue.pop_front();
      continue;
    }
    if (overhead > 0) {
      (void)ledger_.ChargeOverhead(id, request.pid, overhead);
    }
    out.emplace_back(std::move(request.done), Status::Ok());
    queue.pop_front();
  }
  if (queue.empty()) {
    pending_.erase(it);
    ledger_.MarkResumed(id, Now());
  }
  PublishLocked(id);
}

void SchedulerCore::RedistributeLocked(Callbacks& out) {
  // Emergency re-concentration: when EVERY registered container is
  // suspended there can be no future release (nobody is running to exit or
  // free), so memory stranded as partial assignments would deadlock the
  // system — the failure the paper's prior study observed. A suspended
  // container is blocked inside its allocation call and cannot consume its
  // headroom, so that headroom is revocable: pull it all back and let the
  // policy re-concentrate it. Outside quiescence assignments persist,
  // keeping the paper's §III-E dynamics (and Best-Fit's Table V starvation
  // behaviour) intact.
  if (!pending_.empty() && pending_.size() == ledger_.container_count()) {
    for (const auto& [id, queue] : pending_) {
      (void)ledger_.ReclaimUnusedAssignment(id);
    }
  }

  // While memory remains and containers are paused, the policy picks one
  // and it receives min(insufficient, free) — Fig. 3d.
  for (;;) {
    const Bytes free = ledger_.free_pool();
    if (free <= 0 || pending_.empty()) return;

    std::vector<PausedContainer> paused;
    paused.reserve(pending_.size());
    for (const auto& [id, queue] : pending_) {
      const ContainerAccount* account = ledger_.Find(id);
      assert(account != nullptr);
      paused.push_back(PausedContainer{account->id, account->created_at,
                                       account->last_suspended_at,
                                       account->insufficient()});
    }

    const std::size_t index = policy_->Select(paused, free);
    assert(index < paused.size());
    const PausedContainer& chosen = paused[index];
    const Bytes give = std::min(chosen.insufficient, free);
    if (give <= 0) {
      // A paused container with zero insufficiency cannot exist (its
      // pending request would have been grantable); guard against policy
      // bugs rather than loop forever.
      CONVGPU_LOG(kError, kTag)
          << "policy chose container with nothing to assign: " << chosen.id;
      return;
    }
    (void)ledger_.TopUp(chosen.id, give);
    CONVGPU_LOG(kDebug, kTag) << "assigned " << FormatByteSize(give) << " to "
                              << chosen.id << " by " << policy_->name();
    TryGrantPendingLocked(chosen.id, out);
  }
}

Status SchedulerCore::CommitAlloc(const std::string& id, Pid pid,
                                  std::uint64_t address, Bytes size) {
  MutexLock lock(mutex_);
  auto status = ledger_.Commit(id, pid, address, size);
  AuditLocked();
  return status;
}

Status SchedulerCore::AbortAlloc(const std::string& id, Pid pid, Bytes size) {
  Callbacks callbacks;
  Status status;
  {
    MutexLock lock(mutex_);
    (void)pid;
    status = ledger_.Unreserve(id, size);
    if (status.ok()) {
      // The freed reservation may let this container's own queued requests
      // proceed (the pool itself did not change).
      TryGrantPendingLocked(id, callbacks);
    }
    PublishLocked(id);
    AuditLocked();
  }
  Fire(callbacks);
  return status;
}

Status SchedulerCore::FreeAlloc(const std::string& id, Pid pid,
                                std::uint64_t address) {
  Callbacks callbacks;
  Status status = Status::Ok();
  {
    MutexLock lock(mutex_);
    auto freed = ledger_.Free(id, pid, address);
    if (!freed.ok()) {
      status = freed.status();
    } else {
      // Freeing lowers `used`, which may unblock this container's queued
      // requests. The assignment (and thus other containers) is unchanged:
      // the guarantee persists until the container closes.
      TryGrantPendingLocked(id, callbacks);
    }
    PublishLocked(id);
    AuditLocked();
  }
  Fire(callbacks);
  return status;
}

Result<MemInfoReply> SchedulerCore::MemGetInfo(const std::string& id) {
  MutexLock lock(mutex_);
  const ContainerAccount* account = ledger_.Find(id);
  if (account == nullptr) return NotFoundError("unknown container: " + id);
  return MemInfoOf(*account);
}

Status SchedulerCore::ProcessExit(const std::string& id, Pid pid) {
  Callbacks callbacks;
  Status status = Status::Ok();
  {
    MutexLock lock(mutex_);
    // Cancel queued requests from the exiting pid — nobody is waiting for
    // those replies anymore.
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      auto& queue = it->second;
      for (auto request = queue.begin(); request != queue.end();) {
        if (request->pid == pid) {
          callbacks.emplace_back(std::move(request->done),
                                 AbortedError("process exited"));
          request = queue.erase(request);
        } else {
          ++request;
        }
      }
      if (queue.empty()) {
        pending_.erase(it);
        ledger_.MarkResumed(id, Now());
      }
    }

    auto released = ledger_.ProcessExit(id, pid, options_.first_alloc_overhead);
    if (!released.ok()) {
      status = released.status();
    } else {
      // Always re-run the grant loop, not just when memory was released:
      // canceling the exiting pid's queued requests above may have exposed
      // a smaller head request that already fits the current assignment,
      // and nothing else would ever wake it.
      TryGrantPendingLocked(id, callbacks);
    }
    PublishLocked(id);
    AuditLocked();
  }
  Fire(callbacks);
  return status;
}

Status SchedulerCore::RestoreProcess(
    const std::string& id, std::optional<Bytes> limit, Pid pid,
    const std::vector<RestoredAlloc>& allocations) {
  MutexLock lock(mutex_);

  // Validate the snapshot before touching any state.
  Bytes total_alloc = 0;
  std::map<std::uint64_t, Bytes> snapshot;
  for (const auto& alloc : allocations) {
    if (alloc.size <= 0) {
      return InvalidArgumentError("reattach snapshot for " + id +
                                  ": non-positive allocation size");
    }
    if (!snapshot.emplace(alloc.address, alloc.size).second) {
      return InvalidArgumentError("reattach snapshot for " + id +
                                  ": duplicate address");
    }
    total_alloc += alloc.size;
  }

  const ContainerAccount* account = ledger_.Find(id);
  bool registered_here = false;
  if (account == nullptr) {
    const Bytes effective = limit.value_or(options_.default_limit);
    CONVGPU_RETURN_IF_ERROR(
        ledger_.Register(id, effective, options_.first_alloc_overhead, Now()));
    registered_here = true;
    account = ledger_.Find(id);
    CONVGPU_LOG(kInfo, kTag)
        << "reattach re-registered " << id << " limit "
        << FormatByteSize(effective) << " (daemon restart recovery)";
  } else if (limit && *limit != account->declared_limit) {
    return FailedPreconditionError(
        "reattach limit " + FormatByteSize(*limit) + " disagrees with " + id +
        "'s registered limit " + FormatByteSize(account->declared_limit));
  }

  if (auto pid_it = account->pids.find(pid); pid_it != account->pids.end()) {
    // The pid is already on the books — a reattach that raced ahead of the
    // old connection's disconnect, or one duplicated by a connection lost
    // mid-handshake. An exactly-matching snapshot is the idempotent no-op;
    // a disagreeing one means a commit or free notification was lost in
    // the blip, and the wrapper's snapshot is authoritative (it mirrors
    // what the device actually holds): release the stale state and rebuild
    // from the snapshot below.
    if (snapshot == pid_it->second.allocations) return Status::Ok();
    CONVGPU_LOG(kInfo, kTag)
        << "reattach of pid " << pid << " in " << id
        << " disagrees with the ledger; reconciling from the snapshot";
    CONVGPU_RETURN_IF_ERROR(
        ledger_.ProcessExit(id, pid, options_.first_alloc_overhead).status());
  }
  if (allocations.empty()) {
    // Nothing live on the device (overhead charges on the pid's next
    // allocation) — but a reconcile above may have released memory that
    // un-suspends someone.
    Callbacks callbacks;
    TryGrantPendingLocked(id, callbacks);
    RedistributeLocked(callbacks);
    PublishLocked(id);
    AuditLocked();
    lock.Unlock();
    Fire(callbacks);
    return Status::Ok();
  }

  const Bytes overhead =
      ledger_.OverheadDue(id, pid, options_.first_alloc_overhead);
  const Bytes total = total_alloc + overhead;
  Status status = Status::Ok();
  if (account->used + total > account->limit) {
    status = FailedPreconditionError("reattach snapshot for " + id +
                                     " exceeds the container limit");
  }
  if (status.ok() && account->used + total > account->assigned) {
    // The restored memory is *already allocated on the device*, so the
    // assignment must cover it now — no suspension is possible here.
    // kResourceExhausted means the pool re-promised the crashed daemon's
    // memory elsewhere before this wrapper got through.
    status = ledger_.TopUp(id, account->used + total - account->assigned);
  }
  bool reserved = false;
  bool overhead_charged = false;
  Bytes committed = 0;
  if (status.ok()) {
    status = ledger_.Reserve(id, total);
    reserved = status.ok();
  }
  if (status.ok() && overhead > 0) {
    status = ledger_.ChargeOverhead(id, pid, overhead);
    overhead_charged = status.ok();
  }
  if (status.ok()) {
    for (const auto& alloc : allocations) {
      status = ledger_.Commit(id, pid, alloc.address, alloc.size);
      if (!status.ok()) break;
      committed += alloc.size;
    }
  }

  if (!status.ok()) {
    // Roll the partial restore back so the ledger stays consistent.
    if (reserved) {
      const Bytes leftover =
          total - committed - (overhead_charged ? overhead : 0);
      if (leftover > 0) (void)ledger_.Unreserve(id, leftover);
    }
    if (committed > 0 || overhead_charged) {
      (void)ledger_.ProcessExit(id, pid, options_.first_alloc_overhead);
    }
    if (registered_here) (void)ledger_.Close(id, Now());
    PublishLocked(id);
    AuditLocked();
    return status;
  }

  CONVGPU_LOG(kInfo, kTag) << "restored pid " << pid << " in " << id << ": "
                           << allocations.size() << " allocation(s), "
                           << FormatByteSize(total) << " (incl. overhead)";
  // A reconcile may have shrunk net usage (a lost free): whatever came
  // back can un-suspend queued requests here or elsewhere.
  Callbacks callbacks;
  TryGrantPendingLocked(id, callbacks);
  RedistributeLocked(callbacks);
  PublishLocked(id);
  AuditLocked();
  lock.Unlock();
  Fire(callbacks);
  return Status::Ok();
}

bool SchedulerCore::HasContainer(const std::string& id) const {
  MutexLock lock(mutex_);
  return ledger_.Find(id) != nullptr;
}

Status SchedulerCore::ContainerClose(const std::string& id) {
  Callbacks callbacks;
  Status status;
  {
    MutexLock lock(mutex_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      for (auto& request : it->second) {
        callbacks.emplace_back(std::move(request.done),
                               AbortedError("container closed"));
      }
      pending_.erase(it);
    }
    status = ledger_.Close(id, Now());
    if (status.ok()) {
      if (auto page = pages_.find(id); page != pages_.end()) {
        page->second->Invalidate();
        pages_.erase(page);
      }
      CONVGPU_LOG(kInfo, kTag) << "closed " << id << ", free pool now "
                               << FormatByteSize(ledger_.free_pool());
      RedistributeLocked(callbacks);
    }
    AuditLocked();
  }
  Fire(callbacks);
  return status;
}

std::vector<ContainerStatsSnapshot> SchedulerCore::Stats() const {
  MutexLock lock(mutex_);
  std::vector<ContainerStatsSnapshot> result;
  for (const ContainerAccount* account : ledger_.Containers()) {
    ContainerStatsSnapshot snapshot;
    snapshot.id = account->id;
    snapshot.limit = account->declared_limit;
    snapshot.assigned = account->assigned;
    snapshot.used = account->used;
    snapshot.suspended = account->suspended;
    snapshot.total_suspended = account->total_suspended;
    if (account->suspended) {
      snapshot.total_suspended += Now() - account->suspended_since;
    }
    snapshot.suspend_episodes = account->suspend_episodes;
    snapshot.created_at = account->created_at;
    auto it = pending_.find(account->id);
    snapshot.pending_requests = it == pending_.end() ? 0 : it->second.size();
    result.push_back(std::move(snapshot));
  }
  return result;
}

std::optional<ContainerStatsSnapshot> SchedulerCore::StatsFor(
    const std::string& id) const {
  for (auto& snapshot : Stats()) {
    if (snapshot.id == id) return snapshot;
  }
  return std::nullopt;
}

Bytes SchedulerCore::free_pool() const {
  MutexLock lock(mutex_);
  return ledger_.free_pool();
}

std::size_t SchedulerCore::pending_request_count() const {
  MutexLock lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, queue] : pending_) count += queue.size();
  return count;
}

Status SchedulerCore::CheckInvariants() const {
  MutexLock lock(mutex_);
  CONVGPU_RETURN_IF_ERROR(ledger_.CheckInvariants());
  for (const auto& [id, queue] : pending_) {
    if (queue.empty()) {
      return InternalError("empty pending queue not erased for " + id);
    }
    const ContainerAccount* account = ledger_.Find(id);
    if (account == nullptr) {
      return InternalError("pending queue for unregistered container " + id);
    }
    if (!account->suspended) {
      return InternalError("pending queue but not marked suspended: " + id);
    }
  }
  return Status::Ok();
}

}  // namespace convgpu
