// Reference model of the host forwarding table: the single linear vector
// Host kept before /32 host routes got their own sorted index. Every
// operation is a scan in insertion order -- slow but obviously correct, so
// it is the oracle the differential test checks Host's FIB against. Not
// part of any library.
#pragma once

#include <optional>
#include <vector>

#include "net/host.hpp"

namespace siphoc::net::reference {

class LinearFib {
 public:
  void add_route(RouteEntry entry) {
    // Replace an identical prefix/len/iface entry instead of duplicating.
    std::erase_if(routes_, [&](const RouteEntry& r) {
      return r.prefix == entry.prefix && r.prefix_len == entry.prefix_len &&
             r.iface == entry.iface;
    });
    routes_.push_back(entry);
  }

  void remove_route(Address prefix, int prefix_len) {
    std::erase_if(routes_, [&](const RouteEntry& r) {
      return r.prefix == prefix && r.prefix_len == prefix_len;
    });
  }

  void clear_routes(Interface iface) {
    std::erase_if(routes_,
                  [&](const RouteEntry& r) { return r.iface == iface; });
  }

  std::optional<RouteEntry> lookup_route(Address dst) const {
    const RouteEntry* best = nullptr;
    for (const auto& r : routes_) {
      if (!r.matches(dst)) continue;
      if (best == nullptr || r.prefix_len > best->prefix_len ||
          (r.prefix_len == best->prefix_len && r.metric < best->metric)) {
        best = &r;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }

  std::size_t size() const { return routes_.size(); }

 private:
  std::vector<RouteEntry> routes_;
};

}  // namespace siphoc::net::reference
