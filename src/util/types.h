#pragma once
/// \file types.h
/// Fundamental value types shared across the mRTS library.
///
/// The global time unit of the whole model is one cycle of the core/CG clock
/// domain (400 MHz, see Section 5.1 of the paper). The fine-grained fabric
/// runs at 100 MHz, i.e. one FG cycle equals kFgClockRatio core cycles.

#include <cstdint>
#include <limits>

namespace mrts {

/// Time / duration expressed in core-clock cycles (400 MHz domain).
using Cycles = std::uint64_t;

/// Signed cycle arithmetic helper (differences, error terms).
using CycleDelta = std::int64_t;

/// Core and coarse-grained fabric clock frequency [Hz].
inline constexpr double kCoreClockHz = 400.0e6;

/// Fine-grained (embedded FPGA) fabric clock frequency [Hz].
inline constexpr double kFgClockHz = 100.0e6;

/// Number of core cycles per FG-fabric cycle.
inline constexpr Cycles kFgClockRatio =
    static_cast<Cycles>(kCoreClockHz / kFgClockHz);

/// Reconfiguration bandwidth of the FG fabric [bytes per second]
/// (Section 5.1: 67584 KB/s).
inline constexpr double kFgReconfigBandwidthBytesPerSec = 67584.0 * 1024.0;

/// Sentinel for "never" / "not scheduled".
inline constexpr Cycles kNeverCycles = std::numeric_limits<Cycles>::max();

/// Convert a duration in milliseconds to core cycles.
constexpr Cycles ms_to_cycles(double ms) {
  return static_cast<Cycles>(ms * 1.0e-3 * kCoreClockHz + 0.5);
}

/// Convert a duration in microseconds to core cycles.
constexpr Cycles us_to_cycles(double us) {
  return static_cast<Cycles>(us * 1.0e-6 * kCoreClockHz + 0.5);
}

/// Convert core cycles to milliseconds.
constexpr double cycles_to_ms(Cycles c) {
  return static_cast<double>(c) / kCoreClockHz * 1.0e3;
}

/// fg_reconfig_cycles_for_bytes() before its conversion to Cycles: the
/// conversion is undefined unless this is below 2^64.
constexpr double fg_reconfig_cycles_rounded(std::uint64_t bytes) {
  return static_cast<double>(bytes) / kFgReconfigBandwidthBytesPerSec *
             kCoreClockHz +
         0.5;
}

/// Number of core cycles needed to stream \p bytes over the FG
/// reconfiguration port.
constexpr Cycles fg_reconfig_cycles_for_bytes(std::uint64_t bytes) {
  return static_cast<Cycles>(fg_reconfig_cycles_rounded(bytes));
}

/// Strongly-typed identifiers. They are plain integers with distinct types so
/// that a kernel id cannot be accidentally passed where an ISE id is expected.
enum class KernelId : std::uint32_t {};
enum class IseId : std::uint32_t {};
enum class DataPathId : std::uint32_t {};
enum class FunctionalBlockId : std::uint32_t {};

constexpr std::uint32_t raw(KernelId id) { return static_cast<std::uint32_t>(id); }
constexpr std::uint32_t raw(IseId id) { return static_cast<std::uint32_t>(id); }
constexpr std::uint32_t raw(DataPathId id) { return static_cast<std::uint32_t>(id); }
constexpr std::uint32_t raw(FunctionalBlockId id) { return static_cast<std::uint32_t>(id); }

/// Invalid-id sentinels.
inline constexpr KernelId kInvalidKernel{0xffffffffu};
inline constexpr IseId kInvalidIse{0xffffffffu};
inline constexpr DataPathId kInvalidDataPath{0xffffffffu};
inline constexpr FunctionalBlockId kInvalidFunctionalBlock{0xffffffffu};

/// Reconfigurable fabric grain of a data path.
enum class Grain : std::uint8_t {
  kCoarse,  ///< coarse-grained reconfigurable fabric (ALU array)
  kFine,    ///< fine-grained reconfigurable fabric (embedded FPGA / PRC)
};

/// Both grains, FG first: the order in which every walk over the two emits
/// trace events and counters, draws fault-RNG trials and lays out snapshot
/// fields.
inline constexpr Grain kGrains[] = {Grain::kFine, Grain::kCoarse};

/// Human-readable name of a grain.
constexpr const char* to_string(Grain g) {
  return g == Grain::kCoarse ? "CG" : "FG";
}

}  // namespace mrts
