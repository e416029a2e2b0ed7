#include "scheduling/soa.hpp"

namespace qbss::scheduling {

SoaInstance::SoaInstance(std::span<const ClassicalJob> jobs,
                         SolveArena& arena)
    : n_(jobs.size()),
      release_(arena.alloc<double>(n_)),
      deadline_(arena.alloc<double>(n_)),
      work_(arena.alloc<double>(n_)) {
  for (std::size_t i = 0; i < n_; ++i) {
    release_[i] = jobs[i].release;
    deadline_[i] = jobs[i].deadline;
    work_[i] = jobs[i].work;
  }
}

}  // namespace qbss::scheduling
