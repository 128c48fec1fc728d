// Fixture for tests/check_invariants_test.py: per-VM state keyed by
// name, which rule R9 (no-string-keyed-vm-state) must reject under
// src/core and src/monitor and leave alone elsewhere.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct StringKeyedState {
  std::map<std::string, double> load_by_vm;
  std::set<std::string> seen_vms;
  std::unordered_map<const std::string, std::vector<double>> rows_by_vm;
  std::unordered_set<
      std::string> migrating_vms;
  // Keyed by position, with names as values: allowed.
  std::map<int, std::string> name_by_slot;
  std::vector<std::string> names;
};
