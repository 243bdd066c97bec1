// The ledger page: a container's cudaMemGetInfo answer, published by the
// daemon in one 4 KiB shared page that its wrappers read without a syscall.
//
// The daemon creates the page with memfd_create on the first hello (or
// reattach) for a container — no path, no filesystem — seals it against
// resizing and against any new writable mapping, and passes the descriptor
// with SCM_RIGHTS on the handshake reply, together with the connection's
// slot index. A tenant can map the page read-only and nothing else, so no
// tenant can write state that the scheduler or another tenant trusts.
//
// Layout (every word a lock-free std::atomic<uint64_t>):
//
//   [seq][epoch][free][total][4 reserved words][applied slot 0 ... N-1]
//
// (the reserved words keep the seqlock on a cache line of its own, apart
// from the slots the reactor writes after every frame)
//
//  * seq, epoch, free, total — a seqlock: the writer makes seq odd, stores
//    epoch/free/total, and makes seq even again; a reader that sees the
//    same even seq before and after its loads has a consistent triple.
//    Every store is a release and every load an acquire, so the argument
//    needs no standalone fence (and ThreadSanitizer follows it).
//  * epoch — the daemon's session epoch; 0 once the container is closed or
//    the daemon stopped, so a stale page never matches a live link.
//  * applied[slot] — the number of frames the daemon has handled on the
//    connection that owns the slot, the handshake frame included. A free
//    slot reads 0, which no live connection (it has sent at least its
//    handshake) can mistake for caught up.
//
// Who writes what: SchedulerCore publishes {free, total} under its mutex
// at every ledger transition; the reactor stores a connection's applied
// count after each of its frames. The wrapper side (LedgerPageView) only
// reads. See DESIGN.md for the read-your-writes argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/result.h"
#include "ipc/fd.h"

namespace convgpu {

inline constexpr std::size_t kLedgerPageBytes = 4096;
inline constexpr std::size_t kLedgerPageHeaderWords = 8;
inline constexpr std::size_t kLedgerPageSlots =
    kLedgerPageBytes / sizeof(std::uint64_t) - kLedgerPageHeaderWords;

/// The page as both sides see it. Only ever placed over a mapping.
struct LedgerPageLayout {
  std::atomic<std::uint64_t> seq;
  std::atomic<std::uint64_t> epoch;
  std::atomic<std::uint64_t> free;
  std::atomic<std::uint64_t> total;
  std::atomic<std::uint64_t> reserved[kLedgerPageHeaderWords - 4];
  std::atomic<std::uint64_t> applied[kLedgerPageSlots];
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the page is shared across processes");
static_assert(sizeof(LedgerPageLayout) == kLedgerPageBytes);

/// One consistent seqlock read.
struct LedgerSnapshot {
  std::uint64_t epoch = 0;
  Bytes free = 0;
  Bytes total = 0;
};

/// The daemon's side: owns the memfd and the only writable mapping.
/// Publish/Invalidate are called under SchedulerCore's mutex (one writer at
/// a time); the slot calls run on the reactor thread.
class LedgerPage {
 public:
  static Result<std::shared_ptr<LedgerPage>> Create(std::uint64_t epoch);
  ~LedgerPage();
  LedgerPage(const LedgerPage&) = delete;
  LedgerPage& operator=(const LedgerPage&) = delete;

  /// The sealed memfd, for SCM_RIGHTS.
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Seqlock write of the container's cudaMemGetInfo answer; a no-op when
  /// it did not change.
  void Publish(Bytes free, Bytes total);
  /// Epoch 0: no link answers from this page any more.
  void Invalidate();

  /// Takes the least recently released slot and stores `applied` in it;
  /// empty when every slot is in use.
  std::optional<std::size_t> AcquireSlot(std::uint64_t applied);
  /// The slot reads 0 again and goes to the back of the free list.
  void ReleaseSlot(std::size_t slot);
  void StoreApplied(std::size_t slot, std::uint64_t applied) {
    page_->applied[slot].store(applied, std::memory_order_release);
  }

  /// Leaves seq odd, as a writer that died mid-update would.
  void BreakSeqlockForTesting();

 private:
  LedgerPage(ipc::Fd fd, LedgerPageLayout* page);
  void Write(std::uint64_t epoch, Bytes free, Bytes total);

  ipc::Fd fd_;
  LedgerPageLayout* page_;
  // Writer-private copies (the page is only ever read back by readers).
  std::uint64_t epoch_ = 0;
  std::optional<std::pair<Bytes, Bytes>> published_;
  std::deque<std::size_t> free_slots_;
};

/// The wrapper's side: a read-only mapping of a received page, and the slot
/// of the connection it came with.
class LedgerPageView {
 public:
  /// Maps `fd` read-only and closes it (the mapping keeps the page alive).
  static Result<std::unique_ptr<LedgerPageView>> Map(ipc::Fd fd,
                                                     std::size_t slot);
  ~LedgerPageView();
  LedgerPageView(const LedgerPageView&) = delete;
  LedgerPageView& operator=(const LedgerPageView&) = delete;

  /// Frames the daemon has handled on this view's connection (acquire).
  [[nodiscard]] std::uint64_t applied() const {
    return page_->applied[slot_].load(std::memory_order_acquire);
  }
  /// Bounded seqlock read: at most kReadAttempts tries, no waiting between
  /// them. Empty when every try met a write in progress.
  [[nodiscard]] std::optional<LedgerSnapshot> Read() const;

  static constexpr int kReadAttempts = 4;

 private:
  LedgerPageView(const LedgerPageLayout* page, std::size_t slot)
      : page_(page), slot_(slot) {}

  const LedgerPageLayout* page_;
  std::size_t slot_;
};

}  // namespace convgpu
