#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace ledger {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* Allocate(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size == 0 ? alignment : (size + alignment - 1) / alignment * alignment);
  return std::aligned_alloc(alignment, rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCount CurrentAllocs() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace ledger

// The whole replaceable family, nothrow forms included, so every block is
// allocated and freed by the same pair (malloc/free) under any runtime.
void* operator new(std::size_t size) {
  return ledger::OrThrow(ledger::Allocate(size));
}
void* operator new[](std::size_t size) {
  return ledger::OrThrow(ledger::Allocate(size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return ledger::OrThrow(ledger::AllocateAligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ledger::OrThrow(ledger::AllocateAligned(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ledger::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ledger::Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ledger::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ledger::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
