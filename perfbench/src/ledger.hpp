// The peeled layer walks.  Each replays one rank's compiled program (the
// CProgram the Communicator's plan cache holds) through a lower public entry
// point, so the difference between adjacent walks is the self time of the
// layer in between:
//
//   walk_transport  Transport::send / recv / post_recv / wait_recv
//   walk_fabric     Fabric::post / deposit / claim / wait
//   walk_floor      memcpy and ReduceOp::fn over the same byte ranges
//
// The transport and fabric walks move real payloads with the same
// eager/rendezvous split as the transport's raw path, so their outputs must
// equal the Communicator's; the floor walk only times the copies and folds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "intercom/runtime/compiled_plan.hpp"
#include "intercom/runtime/fabric.hpp"
#include "intercom/runtime/reduce.hpp"
#include "intercom/runtime/transport.hpp"

namespace perfbench {

/// One rank's program plus the buffers it resolves against.
struct ProgramView {
  const intercom::CProgram* program = nullptr;
  int node = -1;
  std::span<std::byte> user;
  std::vector<std::byte>* arena = nullptr;  ///< grown to arena_bytes
  const intercom::ReduceOp* reduce = nullptr;
};

void walk_transport(intercom::Transport& transport, const ProgramView& view,
                    std::uint64_t ctx);

void walk_fabric(intercom::Fabric& fabric, std::size_t rendezvous_threshold,
                 const ProgramView& view, std::uint64_t ctx);

/// Which half of the floor to run: the receive/copy data movement, or the
/// element-wise folds.  `staging` stands in for the bytes a message brings.
enum class FloorPart { kCopy, kFold };
void walk_floor(const ProgramView& view, FloorPart part,
                std::span<const std::byte> staging);

/// Messages and payload bytes this program sends, and how many of those
/// messages take the rendezvous path.
struct SendCounts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rendezvous = 0;
};
SendCounts count_sends(const intercom::CProgram& program,
                       std::size_t rendezvous_threshold);

/// Largest single operand length in the program (sizes the floor staging).
std::size_t max_operand_bytes(const intercom::CProgram& program);

}  // namespace perfbench
