// Shared building blocks for the chunked burst kernels (kernel v2).
//
// Every kernel walks its burst in fixed-size chunks and splits each
// step into a draw and an apply.  The draws consume the rng in EXACT
// step() order into small index buffers -- 8-step software-pipelined
// groups in the node, edge and weighted-median kernels, a whole chunk
// through Rng::fill_below in the Hegselmann-Krause one -- and the
// applies then walk those steps sequentially, doing the exact
// floating-point update and bookkeeping of set_value.  The draw phase
// only MOVES data -- no floating-point operation is reordered or fused
// -- so a burst is bit-identical to repeated step() calls by
// construction.  Neighbour VALUES are never pre-gathered: the apply
// phase reads them live in step order, which is the exact sequential
// semantics even when an earlier step wrote the node a later step
// reads.
//
// Arc positions are held in int32 (the edge kernel's drawn arc and
// its source/target lookups), so the chunked kernels are only entered
// when 2m < 2^31; larger graphs take the generic step() loops.
#ifndef OPINDYN_CORE_BURST_KERNELS_H
#define OPINDYN_CORE_BURST_KERNELS_H

#include <cstdint>

namespace opindyn {
namespace burst {

/// Steps per chunk.  Small enough that the draw buffers live in L1,
/// large enough to amortise the per-chunk recompute-cadence check.
inline constexpr int kChunkSteps = 64;

/// Largest arc count the chunked kernels handle (int32 arc positions);
/// beyond this the models fall back to their generic loops.
inline constexpr std::int64_t kMaxChunkedArcs = std::int64_t{1} << 31;

}  // namespace burst
}  // namespace opindyn

#endif  // OPINDYN_CORE_BURST_KERNELS_H
