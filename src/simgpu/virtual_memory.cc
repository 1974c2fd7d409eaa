#include "simgpu/virtual_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "simgpu/fault_injector.h"
#include "support/strings.h"

namespace bridgecl::simgpu {

const char* SegmentName(Segment seg) {
  switch (seg) {
    case Segment::kGlobal: return "global";
    case Segment::kConstant: return "constant";
    case Segment::kShared: return "shared";
    case Segment::kPrivate: return "private";
  }
  return "unknown";
}

namespace {
size_t RoundUpToGranule(size_t bytes) {
  return (bytes + VirtualMemory::kGranule - 1) &
         ~(VirtualMemory::kGranule - 1);
}
}  // namespace

StatusOr<uint64_t> VirtualMemory::AllocGlobal(size_t bytes) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnGlobalAlloc(bytes));
  if (bytes == 0) return InvalidArgumentError("zero-size allocation");
  if (global_in_use_ + bytes > global_capacity_)
    return ResourceExhaustedError(
        StrFormat("device global memory exhausted: %zu in use, %zu requested,"
                  " %zu capacity",
                  global_in_use_, bytes, global_capacity_));
  // Bump allocation with a granule-aligned base and a guard gap so that
  // accesses past an allocation's span fall into unmapped space.
  uint64_t base = (next_global_ + kGranule - 1) & ~uint64_t{kGranule - 1};
  Region r;
  r.user_size = bytes;
  r.generation = next_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (guarded_) {
    // Strict span plus poisoned redzones on both sides of the user bytes.
    r.span = bytes;
    r.front_pad = kRedzone;
    r.storage.assign(kRedzone + bytes + kRedzone, kRedzonePoison);
    std::fill_n(r.storage.begin() + kRedzone, bytes, std::byte{0});
  } else {
    // Real allocators hand out whole granules: the slack past the
    // requested size is addressable and corrupts silently.
    r.span = RoundUpToGranule(bytes);
    r.front_pad = 0;
    r.storage.assign(r.span, std::byte{0});
  }
  next_global_ = base + r.span + kGranule;
  global_allocs_.emplace(base, std::move(r));
  global_in_use_ += bytes;
  ++live_global_count_;
  return base;
}

Status VirtualMemory::FreeGlobal(uint64_t va) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnGlobalFree());
  auto it = global_allocs_.find(va);
  if (it == global_allocs_.end())
    return InvalidArgumentError(
        StrFormat("free of unknown device pointer 0x%llx",
                  static_cast<unsigned long long>(va)));
  Region& r = it->second;
  if (r.freed)
    return InvalidArgumentError(StrFormat(
        "double free of device pointer 0x%llx (global allocation of %zu"
        " bytes, generation %llu, already freed)",
        static_cast<unsigned long long>(va), r.user_size,
        static_cast<unsigned long long>(r.generation)));
  global_in_use_ -= r.user_size;
  --live_global_count_;
  if (r.front_pad > 0) {
    // Guarded: leave a poisoned tombstone so later accesses are diagnosed
    // as use-after-free (with the generation tag) instead of "unmapped".
    std::fill(r.storage.begin(), r.storage.end(), kFreePoison);
    r.freed = true;
  } else {
    global_allocs_.erase(it);
  }
  return OkStatus();
}

void VirtualMemory::MapConstant(size_t bytes) {
  constant_.storage.assign(bytes, std::byte{0});
  constant_.user_size = constant_.span = bytes;
}
void VirtualMemory::MapSharedSlot(int slot, size_t bytes) {
  RemapSlot(shared_slots_[static_cast<size_t>(slot)], bytes);
}
void VirtualMemory::MapPrivateSlot(int slot, size_t bytes) {
  RemapSlot(private_slots_[static_cast<size_t>(slot)], bytes);
}

void VirtualMemory::SlotWindow::Unmap::operator()(std::byte* store) const {
  munmap(store, bytes);
}

void VirtualMemory::RemapSlot(SlotWindow& w, size_t bytes) {
  w.span = bytes;
  if (bytes > w.store.get_deleter().bytes) {
    // Grow: fresh anonymous pages read as zero and stay non-resident until
    // a block touches them.
    size_t capacity = (bytes + kSlotPage - 1) / kSlotPage * kSlotPage;
    void* store = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (store == MAP_FAILED) throw std::bad_alloc();
    w.store = {static_cast<std::byte*>(store), SlotWindow::Unmap{capacity}};
    w.dirty.assign((capacity / kSlotPage + 63) / 64, 0);
    return;
  }
  for (size_t i = 0; i < w.dirty.size(); ++i) {
    for (uint64_t bits = std::exchange(w.dirty[i], 0); bits != 0;
         bits &= bits - 1) {
      size_t page = i * 64 + static_cast<size_t>(std::countr_zero(bits));
      std::memset(w.store.get() + page * kSlotPage, 0, kSlotPage);
    }
  }
}

void VirtualMemory::EnsureWorkerSlots(int slots) {
  size_t n = static_cast<size_t>(
      std::min(std::max(slots, 1), kMaxWorkerSlots));
  if (shared_slots_.size() < n) shared_slots_.resize(n);
  if (private_slots_.size() < n) private_slots_.resize(n);
}

uint64_t VirtualMemory::GlobalAllocationBaseOf(uint64_t va) const {
  auto it = global_allocs_.upper_bound(va);
  if (it == global_allocs_.begin()) return 0;
  auto prev = std::prev(it);
  const Region& r = prev->second;
  if (!r.freed && va < prev->first + r.span) return prev->first;
  return 0;
}

StatusOr<std::byte*> VirtualMemory::ResolveGlobal(uint64_t va, size_t len) {
  auto it = global_allocs_.upper_bound(va);
  if (it != global_allocs_.begin()) {
    auto prev = std::prev(it);
    uint64_t base = prev->first;
    Region& r = prev->second;
    if (r.freed) {
      if (va + len <= base + r.span + kRedzone)
        return InternalError(StrFormat(
            "guarded-memory fault: use-after-free access of %zu bytes at"
            " 0x%llx, %llu bytes into freed global allocation"
            " [0x%llx, +%zu) generation %llu",
            len, static_cast<unsigned long long>(va),
            static_cast<unsigned long long>(va - base),
            static_cast<unsigned long long>(base), r.user_size,
            static_cast<unsigned long long>(r.generation)));
    } else if (va + len <= base + r.span) {
      return r.storage.data() + r.front_pad + (va - base);
    } else if (r.front_pad > 0 && va < base + r.span + kRedzone) {
      return InternalError(StrFormat(
          "guarded-memory fault: access of %zu bytes at 0x%llx overruns"
          " global allocation [0x%llx, +%zu) generation %llu by %llu"
          " byte(s) into the redzone",
          len, static_cast<unsigned long long>(va),
          static_cast<unsigned long long>(base), r.user_size,
          static_cast<unsigned long long>(r.generation),
          static_cast<unsigned long long>(va + len - (base + r.span))));
    }
  }
  if (it != global_allocs_.end() && it->second.front_pad > 0 &&
      va + len > it->first - kRedzone)
    return InternalError(StrFormat(
        "guarded-memory fault: access of %zu bytes at 0x%llx underruns"
        " global allocation [0x%llx, +%zu) generation %llu (front"
        " redzone)",
        len, static_cast<unsigned long long>(va),
        static_cast<unsigned long long>(it->first), it->second.user_size,
        static_cast<unsigned long long>(it->second.generation)));
  return InternalError(StrFormat(
      "device memory fault: access of %zu bytes at 0x%llx (segment global,"
      " unmapped)",
      len, static_cast<unsigned long long>(va)));
}

StatusOr<std::byte*> VirtualMemory::ResolveSlotted(
    uint64_t va, size_t len, uint64_t seg_base,
    std::vector<SlotWindow>& slots, Segment seg) {
  uint64_t slot = (va - seg_base) / kWorkerSlotStride;
  uint64_t base = seg_base + slot * kWorkerSlotStride;
  if (slot < slots.size()) {
    SlotWindow& r = slots[static_cast<size_t>(slot)];
    if (va + len <= base + r.span) {
      size_t off = static_cast<size_t>(va - base);
      if (len > 0) {
        for (size_t page = off / kSlotPage, last = (off + len - 1) / kSlotPage;
             page <= last; ++page)
          r.dirty[page / 64] |= uint64_t{1} << (page % 64);
      }
      return r.store.get() + off;
    }
    return InternalError(StrFormat(
        "device memory fault: access of %zu bytes at 0x%llx overruns the"
        " %s segment [0x%llx, +%zu)",
        len, static_cast<unsigned long long>(va), SegmentName(seg),
        static_cast<unsigned long long>(base), r.span));
  }
  return InternalError(StrFormat(
      "device memory fault: access of %zu bytes at 0x%llx (segment %s,"
      " unmapped worker slot %llu)",
      len, static_cast<unsigned long long>(va), SegmentName(seg),
      static_cast<unsigned long long>(slot)));
}

StatusOr<std::byte*> VirtualMemory::Resolve(uint64_t va, size_t len) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnMemoryAccess(va, len));
  // Order: constant (highest base) > shared > private > global.
  if (va >= kConstantBase) {
    Region& r = constant_;
    if (va + len <= kConstantBase + r.span)
      return r.storage.data() + (va - kConstantBase);
    return InternalError(StrFormat(
        "device memory fault: access of %zu bytes at 0x%llx overruns the"
        " constant segment [0x%llx, +%zu)",
        len, static_cast<unsigned long long>(va),
        static_cast<unsigned long long>(kConstantBase), r.span));
  }
  if (va >= kSharedBase)
    return ResolveSlotted(va, len, kSharedBase, shared_slots_,
                          Segment::kShared);
  if (va >= kPrivateBase)
    return ResolveSlotted(va, len, kPrivateBase, private_slots_,
                          Segment::kPrivate);
  if (va >= kGlobalBase) return ResolveGlobal(va, len);
  return InternalError(
      StrFormat("device memory fault: access of %zu bytes at 0x%llx"
                " (null-guard / unmapped low memory)",
                len, static_cast<unsigned long long>(va)));
}

VirtualMemory::State VirtualMemory::ExportState() const {
  State s;
  s.guarded = guarded_;
  s.global_in_use = global_in_use_;
  s.live_global_count = live_global_count_;
  s.next_global = next_global_;
  s.next_generation = next_generation_.load(std::memory_order_relaxed);
  s.global_allocs.reserve(global_allocs_.size());
  for (const auto& [base, r] : global_allocs_) {
    RegionState rs;
    rs.base = base;
    rs.storage = r.storage;
    rs.user_size = r.user_size;
    rs.span = r.span;
    rs.front_pad = r.front_pad;
    rs.generation = r.generation;
    rs.freed = r.freed;
    s.global_allocs.push_back(std::move(rs));
  }
  s.constant.storage = constant_.storage;
  s.constant.user_size = constant_.user_size;
  s.constant.span = constant_.span;
  return s;
}

Status VirtualMemory::ImportState(const State& state) {
  if (state.global_in_use > global_capacity_)
    return ResourceExhaustedError(StrFormat(
        "snapshot image holds %llu bytes of global memory but this device"
        " has only %zu",
        static_cast<unsigned long long>(state.global_in_use),
        global_capacity_));
  guarded_ = state.guarded;
  global_in_use_ = state.global_in_use;
  live_global_count_ = state.live_global_count;
  next_global_ = state.next_global;
  next_generation_.store(state.next_generation, std::memory_order_relaxed);
  global_allocs_.clear();
  for (const RegionState& rs : state.global_allocs) {
    Region r;
    r.storage = rs.storage;
    r.user_size = rs.user_size;
    r.span = rs.span;
    r.front_pad = rs.front_pad;
    r.generation = rs.generation;
    r.freed = rs.freed;
    global_allocs_.emplace(rs.base, std::move(r));
  }
  constant_ = Region{};
  constant_.storage = state.constant.storage;
  constant_.user_size = state.constant.user_size;
  constant_.span = state.constant.span;
  // Shared/private windows live only for the duration of one launch (the
  // scheduler executes commands eagerly, so no launch is ever in flight
  // at snapshot time); the next launch remaps them.
  shared_slots_ = std::vector<SlotWindow>(1);
  private_slots_ = std::vector<SlotWindow>(1);
  return OkStatus();
}

StatusOr<Segment> VirtualMemory::SegmentOf(uint64_t va) const {
  if (va >= kConstantBase) return Segment::kConstant;
  if (va >= kSharedBase) return Segment::kShared;
  if (va >= kPrivateBase) return Segment::kPrivate;
  if (va >= kGlobalBase) return Segment::kGlobal;
  return InternalError(StrFormat("address 0x%llx is in no segment",
                                 static_cast<unsigned long long>(va)));
}

}  // namespace bridgecl::simgpu
