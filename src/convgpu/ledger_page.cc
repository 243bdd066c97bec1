#include "convgpu/ledger_page.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <string>

namespace convgpu {

namespace {

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

Result<std::shared_ptr<LedgerPage>> LedgerPage::Create(std::uint64_t epoch) {
  ipc::Fd fd(::memfd_create("convgpu-ledger", MFD_CLOEXEC | MFD_ALLOW_SEALING));
  if (!fd.valid()) return Errno("memfd_create");
  if (::ftruncate(fd.get(), kLedgerPageBytes) != 0) return Errno("ftruncate");
  // The daemon's own writable mapping is made before the seals: after
  // F_SEAL_FUTURE_WRITE nobody — tenants included — can make another.
  void* mapped = ::mmap(nullptr, kLedgerPageBytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd.get(), 0);
  if (mapped == MAP_FAILED) return Errno("mmap(ledger page)");
  // F_SEAL_SEAL as well, so a tenant cannot add seals of its own.
  if (::fcntl(fd.get(), F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_FUTURE_WRITE |
                  F_SEAL_SEAL) != 0) {
    const Status status = Errno("fcntl(F_ADD_SEALS)");
    ::munmap(mapped, kLedgerPageBytes);
    return status;
  }
  auto* page = new (mapped) LedgerPageLayout{};
  // The page reads epoch 0 (matches no link) until the first Publish.
  std::shared_ptr<LedgerPage> owner(new LedgerPage(std::move(fd), page));
  owner->epoch_ = epoch;
  return owner;
}

LedgerPage::LedgerPage(ipc::Fd fd, LedgerPageLayout* page)
    : fd_(std::move(fd)), page_(page) {
  for (std::size_t slot = 0; slot < kLedgerPageSlots; ++slot) {
    free_slots_.push_back(slot);
  }
}

LedgerPage::~LedgerPage() { ::munmap(page_, kLedgerPageBytes); }

void LedgerPage::Write(std::uint64_t epoch, Bytes free, Bytes total) {
  const std::uint64_t seq = page_->seq.load(std::memory_order_relaxed);
  page_->seq.store(seq + 1, std::memory_order_relaxed);
  // Each release store keeps the odd seq before it; a reader that loads
  // any of these values (acquire) then reads seq as odd or newer.
  page_->epoch.store(epoch, std::memory_order_release);
  page_->free.store(static_cast<std::uint64_t>(free),
                    std::memory_order_release);
  page_->total.store(static_cast<std::uint64_t>(total),
                     std::memory_order_release);
  page_->seq.store(seq + 2, std::memory_order_release);
}

void LedgerPage::Publish(Bytes free, Bytes total) {
  if (published_ && published_->first == free &&
      published_->second == total) {
    return;
  }
  published_.emplace(free, total);
  Write(epoch_, free, total);
}

void LedgerPage::Invalidate() {
  if (epoch_ == 0) return;
  epoch_ = 0;
  Write(0, 0, 0);
  published_.reset();
}

std::optional<std::size_t> LedgerPage::AcquireSlot(std::uint64_t applied) {
  if (free_slots_.empty()) return std::nullopt;
  const std::size_t slot = free_slots_.front();
  free_slots_.pop_front();
  StoreApplied(slot, applied);
  return slot;
}

void LedgerPage::ReleaseSlot(std::size_t slot) {
  StoreApplied(slot, 0);
  free_slots_.push_back(slot);
}

void LedgerPage::BreakSeqlockForTesting() {
  page_->seq.fetch_add(1, std::memory_order_release);
}

Result<std::unique_ptr<LedgerPageView>> LedgerPageView::Map(ipc::Fd fd,
                                                            std::size_t slot) {
  if (slot >= kLedgerPageSlots) {
    return InvalidArgumentError("ledger page slot " + std::to_string(slot) +
                                " out of range");
  }
  // A page that could shrink under the mapping would turn a read into
  // SIGBUS: take only a sealed page of the right size.
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) return Errno("fstat(ledger page)");
  const int seals = ::fcntl(fd.get(), F_GET_SEALS);
  if (st.st_size < static_cast<off_t>(kLedgerPageBytes) || seals < 0 ||
      (seals & F_SEAL_SHRINK) == 0) {
    return InvalidArgumentError("not a sealed ledger page");
  }
  void* mapped =
      ::mmap(nullptr, kLedgerPageBytes, PROT_READ, MAP_SHARED, fd.get(), 0);
  if (mapped == MAP_FAILED) return Errno("mmap(ledger page)");
  return std::unique_ptr<LedgerPageView>(
      new LedgerPageView(static_cast<const LedgerPageLayout*>(mapped), slot));
}

LedgerPageView::~LedgerPageView() {
  ::munmap(const_cast<LedgerPageLayout*>(page_), kLedgerPageBytes);
}

std::optional<LedgerSnapshot> LedgerPageView::Read() const {
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    const std::uint64_t before = page_->seq.load(std::memory_order_acquire);
    if ((before & 1u) != 0) continue;  // a write is in progress
    LedgerSnapshot snapshot;
    snapshot.epoch = page_->epoch.load(std::memory_order_acquire);
    snapshot.free =
        static_cast<Bytes>(page_->free.load(std::memory_order_acquire));
    snapshot.total =
        static_cast<Bytes>(page_->total.load(std::memory_order_acquire));
    if (page_->seq.load(std::memory_order_relaxed) == before) return snapshot;
  }
  return std::nullopt;
}

}  // namespace convgpu
