#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local uint64_t t_heap_bytes = 0;

void* Allocate(std::size_t size) {
  t_heap_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

uint64_t ThreadHeapBytes() { return t_heap_bytes; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
