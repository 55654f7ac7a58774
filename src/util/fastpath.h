#pragma once
/// \file fastpath.h
/// Process-wide toggle for the simulator fast path: the batched
/// (run-compressed) frame-execution path of sim/fb_simulator. It is a pure
/// optimization — every cycle total and output byte is identical at either
/// setting — so the toggle exists to keep the per-event frame loop alive as
/// the oracle for A/B tests (`--no-bb-cache` on the benches and mrts_cli,
/// MRTS_NO_BB_CACHE=1 in the environment, or set_fastpath_enabled(false)
/// from tests and perfbench's fig_grid check).

namespace mrts {

/// True when the fast path is active. Defaults to true unless the
/// MRTS_NO_BB_CACHE environment variable is set to anything but "0"
/// (checked once, at first use).
bool fastpath_enabled();

/// Overrides the fast-path toggle for the whole process. Not synchronized
/// with concurrently running sweeps — flip it only between runs (tests and
/// bench flag parsing do this before any simulation starts).
void set_fastpath_enabled(bool enabled);

}  // namespace mrts
