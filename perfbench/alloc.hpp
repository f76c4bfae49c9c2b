// Exact heap-allocation counting for the traced run (see alloc.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// Switches counting of global operator new calls on or off (all threads).
void count_allocations(bool on);

/// operator new calls counted so far, over all threads.
std::uint64_t allocations();

/// Switches tracking of live heap bytes (operator new minus operator
/// delete, each block at its malloc_usable_size) on or off, all threads.
void track_heap(bool on);

/// Restarts the high-water mark at the live bytes now, and returns them.
std::int64_t reset_heap_peak();

/// The most live heap bytes seen since the last reset_heap_peak().
std::int64_t heap_peak();

}  // namespace perfbench
