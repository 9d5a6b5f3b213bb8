// Heap bytes requested through operator new by the calling thread since it
// started. The benchmark binary replaces the global operator new to keep
// this count (one thread-local add per allocation).

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

uint64_t ThreadHeapBytes();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
