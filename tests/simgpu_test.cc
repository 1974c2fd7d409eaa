#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simgpu/device.h"
#include "simgpu/fiber.h"

namespace bridgecl::simgpu {
namespace {

TEST(Dim3Test, NdrangeGridConversion) {
  Dim3 grid;
  ASSERT_TRUE(NdrangeToGrid(Dim3(256, 64), Dim3(32, 8), &grid));
  EXPECT_EQ(grid, Dim3(8, 8));
  EXPECT_FALSE(NdrangeToGrid(Dim3(100), Dim3(32), &grid));  // not divisible
  EXPECT_FALSE(NdrangeToGrid(Dim3(100), Dim3(0), &grid));
  EXPECT_EQ(GridToNdrange(Dim3(8, 8), Dim3(32, 8)), Dim3(256, 64));
}

TEST(VirtualMemoryTest, AllocResolveFree) {
  VirtualMemory vm(1 << 20);
  auto a = vm.AllocGlobal(256);
  ASSERT_TRUE(a.ok());
  auto b = vm.AllocGlobal(256);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(vm.global_in_use(), 512u);
  auto p = vm.Resolve(*a + 100, 8);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(vm.Resolve(*a + 250, 8).ok() == false);  // crosses the end
  ASSERT_TRUE(vm.FreeGlobal(*a).ok());
  EXPECT_EQ(vm.global_in_use(), 256u);
  EXPECT_FALSE(vm.FreeGlobal(*a).ok());  // double free
  EXPECT_FALSE(vm.Resolve(*a, 8).ok());  // use after free
}

TEST(VirtualMemoryTest, CapacityEnforced) {
  VirtualMemory vm(1024);
  EXPECT_TRUE(vm.AllocGlobal(1000).ok());
  auto r = vm.AllocGlobal(100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VirtualMemoryTest, SegmentsDistinct) {
  VirtualMemory vm(1 << 20);
  auto g = vm.AllocGlobal(64);
  ASSERT_TRUE(g.ok());
  vm.MapConstant(64);
  vm.MapShared(64);
  vm.MapPrivate(64);
  EXPECT_EQ(*vm.SegmentOf(*g), Segment::kGlobal);
  EXPECT_EQ(*vm.SegmentOf(vm.constant_base()), Segment::kConstant);
  EXPECT_EQ(*vm.SegmentOf(vm.shared_base()), Segment::kShared);
  EXPECT_EQ(*vm.SegmentOf(vm.private_base()), Segment::kPrivate);
  EXPECT_TRUE(vm.Resolve(vm.constant_base(), 64).ok());
  EXPECT_FALSE(vm.Resolve(vm.constant_base() + 32, 64).ok());
  EXPECT_FALSE(vm.SegmentOf(4).ok());  // inside the null guard
}

TEST(VirtualMemoryTest, SlotRemapReadsZero) {
  // A remap must hide everything the previous block wrote, whether the
  // window shrinks, grows back within its store, or grows past it.
  VirtualMemory vm(1 << 20);
  vm.EnsureWorkerSlots(2);
  auto fill = [&](uint64_t base, size_t bytes) {
    std::byte* p = *vm.Resolve(base, bytes);
    std::memset(p, 0x5A, bytes);
  };
  auto all_zero = [&](uint64_t base, size_t bytes) {
    const std::byte* p = *vm.Resolve(base, bytes);
    return std::all_of(p, p + bytes,
                       [](std::byte b) { return b == std::byte{0}; });
  };
  for (int slot : {0, 1}) {
    SCOPED_TRACE(slot);
    uint64_t shared = vm.shared_base(slot), priv = vm.private_base(slot);
    vm.MapSharedSlot(slot, 3 * 4096 + 100);
    vm.MapPrivateSlot(slot, 64 * 1024);
    fill(shared, 3 * 4096 + 100);
    fill(priv + 4096 - 2, 4);  // straddles a page boundary
    fill(priv + 60 * 1024, 4096);
    vm.MapSharedSlot(slot, 100);
    vm.MapPrivateSlot(slot, 8 * 1024);
    EXPECT_TRUE(all_zero(shared, 100));
    EXPECT_TRUE(all_zero(priv, 8 * 1024));
    EXPECT_FALSE(vm.Resolve(shared + 100, 1).ok());
    fill(shared, 100);
    vm.MapSharedSlot(slot, 3 * 4096 + 100);
    vm.MapPrivateSlot(slot, 64 * 1024);
    EXPECT_TRUE(all_zero(shared, 3 * 4096 + 100));
    EXPECT_TRUE(all_zero(priv, 64 * 1024));
    fill(priv, 64 * 1024);
    vm.MapPrivateSlot(slot, 256 * 1024);
    EXPECT_TRUE(all_zero(priv, 256 * 1024));
  }
}

TEST(DeviceTest, BankWordAccounting) {
  Device d(TitanProfile());
  d.set_bank_mode(BankMode::k32Bit);
  EXPECT_EQ(d.SharedAccessBankWords(0, 4), 1);
  EXPECT_EQ(d.SharedAccessBankWords(0, 8), 2);   // double spans 2 words
  EXPECT_EQ(d.SharedAccessBankWords(2, 4), 2);   // misaligned
  d.set_bank_mode(BankMode::k64Bit);
  EXPECT_EQ(d.SharedAccessBankWords(0, 8), 1);   // the §6.2 effect
  EXPECT_EQ(d.SharedAccessBankWords(0, 4), 1);
  EXPECT_EQ(d.SharedAccessBankWords(4, 8), 2);   // straddles two banks
}

TEST(DeviceTest, OccupancyModel) {
  Device d(TitanProfile());
  // 65536 regs / 2048 threads = 32 regs for full occupancy.
  EXPECT_DOUBLE_EQ(d.OccupancyFor(32), 1.0);
  EXPECT_NEAR(d.OccupancyFor(85), 0.375, 0.01);  // cfd CUDA variant
  EXPECT_NEAR(d.OccupancyFor(68), 0.469, 0.01);  // cfd OpenCL variant
  EXPECT_GT(d.OccupancyFor(16), 0.99);           // capped at 1.0
}

TEST(DeviceTest, ClockAdvances) {
  Device d(TitanProfile());
  EXPECT_DOUBLE_EQ(d.now_us(), 0.0);
  d.ChargeApiCall();
  double t1 = d.now_us();
  EXPECT_GT(t1, 0.0);
  d.ChargeCopy(1 << 20);
  EXPECT_GT(d.now_us(), t1 + 50.0);  // 1MB over ~10GB/s ≈ 100us
  EXPECT_EQ(d.stats().api_calls, 1u);
}

TEST(FiberTest, PlainTasksComplete) {
  FiberGroup g(64 * 1024);
  std::vector<int> done(8, 0);
  Status st = g.Run(8, [&](int i) {
    done[i] = i + 1;
    return OkStatus();
  });
  ASSERT_TRUE(st.ok());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(done[i], i + 1);
}

TEST(FiberTest, BarrierSynchronizes) {
  FiberGroup g(64 * 1024);
  // Phase counter: all fibers must write phase-1 data before any reads it.
  std::vector<int> a(16, 0), b(16, 0);
  Status st = g.Run(16, [&](int i) {
    a[i] = i * 2;
    g.Barrier();
    b[i] = a[15 - i];  // reads sibling data written before the barrier
    return OkStatus();
  });
  ASSERT_TRUE(st.ok());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b[i], (15 - i) * 2);
}

TEST(FiberTest, MultipleBarriers) {
  FiberGroup g(64 * 1024);
  int counter = 0;
  Status st = g.Run(4, [&](int) {
    for (int round = 0; round < 5; ++round) {
      ++counter;
      g.Barrier();
    }
    return OkStatus();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(counter, 20);
}

TEST(FiberTest, ErrorPropagates) {
  FiberGroup g(64 * 1024);
  Status st = g.Run(4, [&](int i) {
    if (i == 2) return InternalError("boom");
    return OkStatus();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "boom");
}

TEST(FiberTest, EarlyExitTolerated) {
  // Some work-items return before the barrier (guarded kernels).
  FiberGroup g(64 * 1024);
  int reached = 0;
  Status st = g.Run(8, [&](int i) {
    if (i >= 4) return OkStatus();  // early exit
    g.Barrier();
    ++reached;
    return OkStatus();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reached, 4);
}

// Fiber stacks come from a per-thread pool and are reused, un-zeroed, by
// every later Run on the thread.
uintptr_t AddressOfTaskLocal(FiberGroup& g) {
  uintptr_t addr = 0;
  Status st = g.Run(1, [&](int) {
    volatile int local = 0;
    addr = reinterpret_cast<uintptr_t>(&local);
    return OkStatus();
  });
  EXPECT_TRUE(st.ok());
  return addr;
}

TEST(FiberTest, ConsecutiveRunsReuseStack) {
  FiberGroup g(64 * 1024);
  uintptr_t first = AddressOfTaskLocal(g);
  EXPECT_EQ(AddressOfTaskLocal(g), first);
  FiberGroup other(64 * 1024);  // the pool is per thread, not per group
  EXPECT_EQ(AddressOfTaskLocal(other), first);
}

TEST(FiberTest, StackSizesInterleave) {
  FiberGroup small(64 * 1024), large(256 * 1024);
  for (int round = 0; round < 3; ++round) {
    for (FiberGroup* g : {&small, &large}) {
      const size_t size = g == &small ? 64 * 1024 : 256 * 1024;
      std::vector<size_t> left(8), after(8);
      std::vector<int> seen(8, -1);
      Status st = g->Run(8, [&](int i) {
        left[i] = g->StackLeft();
        g->Barrier();
        seen[i] = i;
        after[i] = g->StackLeft();
        return OkStatus();
      });
      ASSERT_TRUE(st.ok());
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(seen[i], i);
        EXPECT_GT(left[i], size / 2);  // a shallow task on a fresh stack
        EXPECT_LT(left[i], size);
        EXPECT_EQ(after[i], left[i]);
      }
    }
  }
  EXPECT_EQ(small.StackLeft(), SIZE_MAX);  // outside a task
}

TEST(FiberTest, NestedRunInsideTask) {
  FiberGroup outer(256 * 1024);
  std::vector<int> sums(4, 0);
  int after_barrier = 0;
  Status st = outer.Run(4, [&](int i) {
    FiberGroup inner(64 * 1024);
    std::vector<int> vals(4, 0);
    Status inner_st = inner.Run(4, [&](int j) {
      vals[j] = i * 10 + j;
      inner.Barrier();
      sums[i] += vals[3 - j];
      EXPECT_LT(inner.StackLeft(), 64u * 1024);
      return OkStatus();
    });
    if (!inner_st.ok()) return inner_st;
    EXPECT_TRUE(outer.InFiber());
    outer.Barrier();
    ++after_barrier;
    return OkStatus();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sums[i], 4 * i * 10 + 6);
  EXPECT_EQ(after_barrier, 4);
}

size_t Recurse(size_t depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return Recurse(depth - 1) + frame[0];
}

TEST(FiberDeathTest, HostOverrunHitsGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FiberGroup g(64 * 1024);
        (void)g.Run(1, [](int) {
          // ~512 MiB of frames: far past the 64 KiB stack.
          return Recurse(size_t{1} << 20) == 7 ? InternalError("")
                                                      : OkStatus();
        });
      },
      "");
}

TEST(ProfileTest, TableTwoProfiles) {
  const DeviceProfile& t = TitanProfile();
  EXPECT_EQ(t.warp_size, 32);
  EXPECT_EQ(t.opencl_bank_mode, BankMode::k32Bit);
  EXPECT_EQ(t.cuda_bank_mode, BankMode::k64Bit);
  const DeviceProfile& a = HD7970Profile();
  EXPECT_EQ(a.warp_size, 64);
  EXPECT_EQ(a.opencl_bank_mode, a.cuda_bank_mode);  // no CUDA on AMD
  EXPECT_FALSE(SystemConfigurationTable().empty());
}

}  // namespace
}  // namespace bridgecl::simgpu
