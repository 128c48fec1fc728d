// prepare-analyze-fixture: as=src/core/confined_good.cpp
// Driver-confined types used from the driver thread only: the worker
// lambda sticks to its own disjoint slice, so confinement holds.
#include <cstddef>
#include <functional>
#include <vector>

#include "common/analyze_annotations.h"

namespace prepare {

// A fan-out pool stand-in: the analyzer finds worker lambdas by the name
// ThreadPool::parallel_for, so only the declaration is needed.
class ThreadPool {
 public:
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);
};

class PREPARE_DRIVER_CONFINED FixtureEventSink {
 public:
  void record(std::size_t round) { last_round_ = round; }

 private:
  std::size_t last_round_ = 0;
};

void fixture_round(ThreadPool& pool, FixtureEventSink& sink,
                   std::vector<double>& cells) {
  const auto worker = [&](std::size_t i) { cells[i] *= 2.0; };
  pool.parallel_for(cells.size(), worker);
  sink.record(cells.size());  // driver thread: allowed
}

}  // namespace prepare
