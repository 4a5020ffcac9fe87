// Test adapter: wraps a per-packet observer as the run callback that
// link delivery, switch mirrors and host receivers take, so a test can
// count or record packets without caring how they were grouped.
#pragma once

#include <cstddef>
#include <utility>

#include "netsim/packet.hpp"

namespace idseval::netsim {

template <class Fn>
auto per_packet(Fn fn) {
  return [fn = std::move(fn)](const Packet* packets,
                              std::size_t count) mutable {
    for (std::size_t i = 0; i < count; ++i) fn(packets[i]);
  };
}

}  // namespace idseval::netsim
