// Heap-allocation counter for benches that gate allocations: link
// heap_counter.cpp into the bench binary, which replaces the global
// operator new/delete with counting versions (a program may define the
// replacements only once).
#pragma once

#include <cstdint>

namespace gridvc::bench {

/// operator-new calls, scalar and array, since the program started.
std::uint64_t heap_allocs();

}  // namespace gridvc::bench
