// Reference model of sip::BindingStore: one ordered std::map that scans to
// expire. Obviously correct and single-threaded, so it is the oracle the
// store tests check ShardedBindingStore against, and the comparison row
// bench_registrar measures the sharded store against. Not part of any
// library: the registrar itself always runs ShardedBindingStore.
#pragma once

#include <map>
#include <string>

#include "sip/registrar_store.hpp"

namespace siphoc::sip {

class SingleMapStore final : public BindingStore {
 public:
  void upsert(const std::string& aor, const Uri& contact,
              TimePoint expires) override {
    bindings_[aor] = ContactBinding{contact, expires};
  }
  bool erase(const std::string& aor) override {
    return bindings_.erase(aor) > 0;
  }
  std::optional<ContactBinding> lookup(const std::string& aor,
                                       TimePoint now) const override {
    const auto it = bindings_.find(aor);
    if (it == bindings_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    return it->second;
  }
  std::size_t purge_expired(TimePoint now) override {
    return std::erase_if(bindings_, [now](const auto& kv) {
      return kv.second.expires <= now;
    });
  }
  std::size_t size() const override { return bindings_.size(); }

 private:
  std::map<std::string, ContactBinding> bindings_;
};

}  // namespace siphoc::sip
