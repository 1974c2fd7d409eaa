#include "simgpu/fiber.h"

#include <ucontext.h>

#include <cassert>
#include <cstdint>

namespace bridgecl::simgpu {

namespace {
enum class FiberState { kReady, kAtBarrier, kDone };
}  // namespace

struct FiberGroup::Impl {
  struct Fiber {
    ucontext_t ctx;
    std::vector<char> stack;
    FiberState state = FiberState::kReady;
    Status status;
  };

  size_t stack_bytes;
  ucontext_t main_ctx;
  std::vector<Fiber> fibers;
  const Task* task = nullptr;
  int current = -1;
  bool in_fiber = false;

  void RunFiberBody() {
    Fiber& f = fibers[current];
    f.status = (*task)(current);
    f.state = FiberState::kDone;
    // uc_link returns control to main_ctx.
  }
};

namespace {
// makecontext can only pass ints; hand the Impl over via a thread-local.
thread_local FiberGroup::Impl* g_active_impl = nullptr;

extern "C" void FiberTrampoline() {
  assert(g_active_impl != nullptr);
  g_active_impl->RunFiberBody();
}
}  // namespace

FiberGroup::FiberGroup(size_t stack_bytes) : impl_(std::make_unique<Impl>()) {
  impl_->stack_bytes = stack_bytes;
}

FiberGroup::~FiberGroup() = default;

bool FiberGroup::InFiber() const { return impl_->in_fiber; }

size_t FiberGroup::StackLeft() const {
  if (!impl_->in_fiber) return SIZE_MAX;
  // Stacks grow down from the end of the fiber's buffer.
  const char* low = impl_->fibers[impl_->current].stack.data();
  const char* sp = static_cast<const char*>(__builtin_frame_address(0));
  return sp > low ? static_cast<size_t>(sp - low) : 0;
}

void FiberGroup::Barrier() {
  assert(impl_->in_fiber && "Barrier() outside of a running work-item");
  Impl* impl = impl_.get();
  impl->fibers[impl->current].state = FiberState::kAtBarrier;
  impl->in_fiber = false;
  swapcontext(&impl->fibers[impl->current].ctx, &impl->main_ctx);
  impl->in_fiber = true;
}

Status FiberGroup::Run(int count, const Task& task) {
  if (count <= 0) return OkStatus();
  Impl* impl = impl_.get();
  impl->task = &task;
  impl->fibers.clear();
  impl->fibers.resize(count);

  Impl* prev_active = g_active_impl;
  g_active_impl = impl;

  for (int i = 0; i < count; ++i) {
    Impl::Fiber& f = impl->fibers[i];
    f.stack.resize(impl->stack_bytes);
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack.data();
    f.ctx.uc_stack.ss_size = f.stack.size();
    f.ctx.uc_link = &impl->main_ctx;
    makecontext(&f.ctx, FiberTrampoline, 0);
  }

  Status first_error;
  while (true) {
    int live = 0;
    int waiting = 0;
    for (int i = 0; i < count; ++i) {
      Impl::Fiber& f = impl->fibers[i];
      if (f.state != FiberState::kReady) continue;
      impl->current = i;
      impl->in_fiber = true;
      swapcontext(&impl->main_ctx, &f.ctx);
      impl->in_fiber = false;
      if (f.state == FiberState::kDone && !f.status.ok() &&
          first_error.ok()) {
        first_error = f.status;
      }
    }
    for (const Impl::Fiber& f : impl->fibers) {
      if (f.state == FiberState::kAtBarrier) {
        ++waiting;
        ++live;
      } else if (f.state != FiberState::kDone) {
        ++live;
      }
    }
    if (live == 0) break;
    // Every live fiber is parked at the barrier: release the whole group.
    // Work-items that already returned are tolerated (trailing early-exit
    // threads — common in guard-banded kernels).
    assert(waiting == live);
    for (Impl::Fiber& f : impl->fibers)
      if (f.state == FiberState::kAtBarrier) f.state = FiberState::kReady;
  }

  g_active_impl = prev_active;
  impl->task = nullptr;
  impl->fibers.clear();
  return first_error;
}

}  // namespace bridgecl::simgpu
