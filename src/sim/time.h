// Simulation time and link-speed units.
//
// All simulation time is kept in signed 64-bit picoseconds, which gives
// ~106 days of range: far more than any experiment needs, while keeping
// serialization times of single bytes on 100Gb/s links exactly representable.
#pragma once

#include <cstdint>

namespace ndpsim {

/// Simulation time in picoseconds.
using simtime_t = std::int64_t;

/// Link speed in bits per second.
using linkspeed_bps = std::uint64_t;

inline constexpr simtime_t kPicosecond = 1;
inline constexpr simtime_t kNanosecond = 1'000;
inline constexpr simtime_t kMicrosecond = 1'000'000;
inline constexpr simtime_t kMillisecond = 1'000'000'000;
inline constexpr simtime_t kSecond = 1'000'000'000'000;

namespace detail {
/// Round-to-nearest for non-negative conversions (avoids 8.2us -> 8199999ps).
[[nodiscard]] constexpr simtime_t round_time(double ps) {
  return ps >= 0 ? static_cast<simtime_t>(ps + 0.5)
                 : static_cast<simtime_t>(ps - 0.5);
}
}  // namespace detail

[[nodiscard]] constexpr simtime_t from_ns(double ns) {
  return detail::round_time(ns * static_cast<double>(kNanosecond));
}
[[nodiscard]] constexpr simtime_t from_us(double us) {
  return detail::round_time(us * static_cast<double>(kMicrosecond));
}
[[nodiscard]] constexpr simtime_t from_ms(double ms) {
  return detail::round_time(ms * static_cast<double>(kMillisecond));
}
[[nodiscard]] constexpr simtime_t from_sec(double s) {
  return detail::round_time(s * static_cast<double>(kSecond));
}

[[nodiscard]] constexpr double to_ns(simtime_t t) {
  return static_cast<double>(t) / static_cast<double>(kNanosecond);
}
[[nodiscard]] constexpr double to_us(simtime_t t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}
[[nodiscard]] constexpr double to_sec(simtime_t t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

[[nodiscard]] constexpr linkspeed_bps gbps(double g) {
  return static_cast<linkspeed_bps>(g * 1e9);
}
[[nodiscard]] constexpr linkspeed_bps mbps(double m) {
  return static_cast<linkspeed_bps>(m * 1e6);
}

/// Time to serialize `bytes` onto a link of speed `speed` (store-and-forward).
[[nodiscard]] constexpr simtime_t serialization_time(std::uint64_t bytes,
                                                     linkspeed_bps speed) {
  // bits * ps-per-second / bps; use 128-bit intermediate to avoid overflow.
  using u128 = unsigned __int128;
  return static_cast<simtime_t>(u128(bytes) * 8u * u128(kSecond) / speed);
}

/// Bytes transferable in time `t` at speed `speed` (rounded down).
[[nodiscard]] constexpr std::uint64_t bytes_in_time(simtime_t t,
                                                    linkspeed_bps speed) {
  using u128 = unsigned __int128;
  return static_cast<std::uint64_t>(u128(t) * speed / 8u / u128(kSecond));
}

}  // namespace ndpsim
