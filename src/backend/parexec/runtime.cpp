#include "backend/parexec/runtime.hpp"

#include <algorithm>
#include <thread>

namespace hli::backend::parexec {

std::vector<Chunk> plan_chunks(std::uint64_t trips, unsigned workers,
                               std::int64_t distance) {
  std::vector<Chunk> chunks;
  if (trips == 0) return chunks;
  if (workers == 0) workers = 1;
  if (distance <= 0) {
    // DOALL: one contiguous chunk per lane, sizes differing by at most
    // one (the first trips % lanes chunks take the extra iteration).
    const std::uint64_t lanes = std::min<std::uint64_t>(trips, workers);
    const std::uint64_t base = trips / lanes;
    const std::uint64_t extra = trips % lanes;
    std::uint64_t begin = 0;
    for (std::uint64_t c = 0; c < lanes; ++c) {
      const std::uint64_t end = begin + base + (c < extra ? 1 : 0);
      chunks.push_back({begin, end});
      begin = end;
    }
    return chunks;
  }
  // DOACROSS: each chunk spans at least 2*d so the in-chunk prefix covers
  // the dependence for the tail; ~4 chunks per lane keep the pipeline fed.
  const std::uint64_t size = std::max<std::uint64_t>(
      2 * static_cast<std::uint64_t>(distance), trips / (workers * 4u));
  for (std::uint64_t begin = 0; begin < trips; begin += size) {
    chunks.push_back({begin, std::min(trips, begin + size)});
  }
  return chunks;
}

SyncCounts structural_sync_counts(const std::vector<Chunk>& chunks,
                                  std::int64_t distance) {
  SyncCounts counts;
  if (distance <= 0) return counts;
  const std::uint64_t d = static_cast<std::uint64_t>(distance);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::uint64_t len = chunks[c].size();
    // Iterations i with i - d >= chunk.begin are ordered after their
    // source by the chunk's own sequential execution: sync elided.
    counts.elided += len > d ? len - d : 0;
    // The first min(d, len) iterations of a non-first chunk depend on an
    // earlier chunk and post-wait on the board.  (Chunk 0's head has no
    // source at all: i - d < 0 is not a dependence.)
    if (c > 0) counts.waits += std::min(d, len);
  }
  return counts;
}

ProgressBoard::ProgressBoard(const std::vector<Chunk>& chunks)
    : chunks_(chunks),
      progress_(new std::atomic<std::uint64_t>[chunks.size()]) {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    progress_[c].store(0, std::memory_order_relaxed);
  }
}

void ProgressBoard::publish(std::size_t chunk, std::uint64_t completed) {
  progress_[chunk].store(completed, std::memory_order_release);
}

bool ProgressBoard::wait_for_prefix(std::uint64_t target) {
  // Chunk holding `target`, by scan: chunk counts are tiny (a few dozen).
  std::size_t cj = 0;
  while (cj < chunks_.size() && chunks_[cj].end <= target) ++cj;
  if (cj == chunks_.size()) return !aborted();
  const std::uint64_t need_in_cj = target - chunks_[cj].begin + 1;
  for (std::size_t c = 0; c <= cj; ++c) {
    const std::uint64_t need = c == cj ? need_in_cj : chunks_[c].size();
    unsigned spins = 0;
    while (progress_[c].load(std::memory_order_acquire) < need) {
      if (aborted()) return false;
      // Brief spin, then yield: the expected wait is one predecessor
      // iteration, but on an oversubscribed machine the predecessor may
      // need this very core.
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }
  return true;
}

}  // namespace hli::backend::parexec
