// Flat name -> slot table for the per-VM state below the controller.
//
// Slots are positions in first-added order. The samplers (run_scenario,
// ext_scale, the repo benchmark's harness) and the controller's observe
// loop walk the VMs in the same order every round, so a lookup tries the
// slot after the previous lookup first and is usually one string
// compare; a miss scans the table.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace prepare {

class NameTable {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Slot of `name`, or kNone.
  std::size_t find(const std::string& name) const {
    const std::size_t guess = next_ < names_.size() ? next_ : 0;
    if (guess < names_.size() && names_[guess] == name) {
      next_ = guess + 1;
      return guess;
    }
    for (std::size_t slot = 0; slot < names_.size(); ++slot) {
      if (names_[slot] == name) {
        next_ = slot + 1;
        return slot;
      }
    }
    return kNone;
  }

  /// Appends `name`, which find() does not know, as the next slot.
  std::size_t add(const std::string& name) {
    names_.push_back(name);
    next_ = names_.size();
    return names_.size() - 1;
  }

  /// Every name, by slot.
  const std::vector<std::string>& names() const { return names_; }

  void clear() {
    names_.clear();
    next_ = 0;
  }

 private:
  std::vector<std::string> names_;
  /// The slot after the previous lookup. Lookups move it, so a table,
  /// and whatever owns one, must not be read from two threads at once.
  mutable std::size_t next_ = 0;
};

}  // namespace prepare
