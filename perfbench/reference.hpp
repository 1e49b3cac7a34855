// A fixed reference computation that measures how fast the host runs at
// the moment, independently of the simulator. perfbench/run.py times it
// next to every repetition and scales the end-to-end wall metrics by it,
// so that a slower or faster phase of a shared host cancels out while a
// change to the simulator does not.
#pragma once

namespace perfbench {

/// Wall seconds of the reference work on `threads` threads (1 or more).
/// Each thread runs the same discrete-event loop over a binary heap,
/// dispatches through a table of closures into a hash map, and copies
/// 32 KiB every 256 events. With more than one thread, the threads meet at
/// a spin barrier every 2000 events, as sharded simulations do, so the
/// reference also slows when the host does not run them at once. The work
/// is the same on every call.
double reference_s(int threads);

}  // namespace perfbench
