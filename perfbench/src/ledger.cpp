#include "ledger.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace perfbench {

using intercom::COp;
using intercom::FabricKey;
using intercom::FabricStatus;
using intercom::OpKind;
using intercom::PostedRecv;

namespace {

std::span<std::byte> operand(const ProgramView& view, bool is_user,
                             std::size_t off, std::size_t len) {
  std::byte* base = is_user ? view.user.data() : view.arena->data();
  return {base + off, len};
}

void prepare(const ProgramView& view) {
  if (view.arena->size() < view.program->arena_bytes) {
    view.arena->resize(view.program->arena_bytes);
  }
}

const intercom::ReduceOp* accumulate_op(const ProgramView& view,
                                        const COp& op) {
  return op.accumulate ? view.reduce : nullptr;
}

[[noreturn]] void fabric_failure(const char* verb, FabricStatus status) {
  throw std::runtime_error(std::string("fabric walk: ") + verb +
                           " returned status " +
                           std::to_string(static_cast<int>(status)));
}

void fabric_send(intercom::Fabric& fabric, std::size_t threshold, int src,
                 int dst, const FabricKey& key,
                 std::span<const std::byte> data) {
  if (data.size() >= threshold) {
    for (;;) {
      const FabricStatus st =
          fabric.claim(src, dst, key, data, /*fill=*/true, /*timeout_ms=*/0);
      if (st == FabricStatus::kOk) return;
      if (st == FabricStatus::kMismatch) break;  // eager fallback
      if (st != FabricStatus::kInterrupted) fabric_failure("claim", st);
    }
  }
  fabric.deposit(src, dst, key, data);
}

void fabric_wait(intercom::Fabric& fabric, PostedRecv& ticket) {
  for (;;) {
    const FabricStatus st = fabric.wait(ticket, /*timeout_ms=*/0);
    if (st == FabricStatus::kOk) return;
    if (st != FabricStatus::kInterrupted) fabric_failure("wait", st);
  }
}

void fabric_post(intercom::Fabric& fabric, PostedRecv& ticket, int src,
                 int dst, std::uint64_t ctx, int tag, std::span<std::byte> out,
                 const intercom::ReduceOp* accumulate) {
  ticket.out = out;
  ticket.accumulate = accumulate;
  ticket.src = src;
  ticket.dst = dst;
  ticket.ctx = ctx;
  ticket.tag = tag;
  fabric.post(ticket);
}

}  // namespace

void walk_transport(intercom::Transport& transport, const ProgramView& view,
                    std::uint64_t ctx) {
  prepare(view);
  const int node = view.node;
  for (const COp& op : view.program->ops) {
    switch (op.kind) {
      case OpKind::kSend:
        transport.send(node, op.peer, ctx, op.tag,
                       operand(view, op.src_user, op.src_off, op.src_len));
        break;
      case OpKind::kRecv:
        transport.recv(op.peer, node, ctx, op.tag,
                       operand(view, op.dst_user, op.dst_off, op.dst_len),
                       accumulate_op(view, op));
        break;
      case OpKind::kSendRecv: {
        // Post before sending, as the executor does: above the rendezvous
        // threshold a ring of send-then-post would deadlock.
        PostedRecv ticket;
        transport.post_recv(ticket, op.peer2, node, ctx, op.tag2,
                            operand(view, op.dst_user, op.dst_off, op.dst_len),
                            accumulate_op(view, op));
        try {
          transport.send(node, op.peer, ctx, op.tag,
                         operand(view, op.src_user, op.src_off, op.src_len));
        } catch (...) {
          transport.cancel_recv(ticket);
          throw;
        }
        transport.wait_recv(ticket);
        break;
      }
      case OpKind::kCombine: {
        const auto dst = operand(view, op.dst_user, op.dst_off, op.dst_len);
        const auto src = operand(view, op.src_user, op.src_off, op.src_len);
        view.reduce->fn(dst.data(), src.data(), src.size());
        break;
      }
      case OpKind::kCopy:
        if (op.src_len != 0) {
          std::memcpy(operand(view, op.dst_user, op.dst_off, op.dst_len).data(),
                      operand(view, op.src_user, op.src_off, op.src_len).data(),
                      op.src_len);
        }
        break;
    }
  }
}

void walk_fabric(intercom::Fabric& fabric, std::size_t rendezvous_threshold,
                 const ProgramView& view, std::uint64_t ctx) {
  prepare(view);
  const int node = view.node;
  for (const COp& op : view.program->ops) {
    switch (op.kind) {
      case OpKind::kSend:
        fabric_send(fabric, rendezvous_threshold, node, op.peer,
                    FabricKey{ctx, op.tag},
                    operand(view, op.src_user, op.src_off, op.src_len));
        break;
      case OpKind::kRecv: {
        PostedRecv ticket;
        fabric_post(fabric, ticket, op.peer, node, ctx, op.tag,
                    operand(view, op.dst_user, op.dst_off, op.dst_len),
                    accumulate_op(view, op));
        fabric_wait(fabric, ticket);
        break;
      }
      case OpKind::kSendRecv: {
        PostedRecv ticket;
        fabric_post(fabric, ticket, op.peer2, node, ctx, op.tag2,
                    operand(view, op.dst_user, op.dst_off, op.dst_len),
                    accumulate_op(view, op));
        try {
          fabric_send(fabric, rendezvous_threshold, node, op.peer,
                      FabricKey{ctx, op.tag},
                      operand(view, op.src_user, op.src_off, op.src_len));
        } catch (...) {
          fabric.unpost(ticket);
          throw;
        }
        fabric_wait(fabric, ticket);
        break;
      }
      case OpKind::kCombine: {
        const auto dst = operand(view, op.dst_user, op.dst_off, op.dst_len);
        const auto src = operand(view, op.src_user, op.src_off, op.src_len);
        view.reduce->fn(dst.data(), src.data(), src.size());
        break;
      }
      case OpKind::kCopy:
        if (op.src_len != 0) {
          std::memcpy(operand(view, op.dst_user, op.dst_off, op.dst_len).data(),
                      operand(view, op.src_user, op.src_off, op.src_len).data(),
                      op.src_len);
        }
        break;
    }
  }
}

void walk_floor(const ProgramView& view, FloorPart part,
                std::span<const std::byte> staging) {
  prepare(view);
  for (const COp& op : view.program->ops) {
    switch (op.kind) {
      case OpKind::kSend:
        break;  // the one copy of a message is charged to its receiver
      case OpKind::kRecv:
      case OpKind::kSendRecv: {
        const auto dst = operand(view, op.dst_user, op.dst_off, op.dst_len);
        if (op.accumulate) {
          if (part == FloorPart::kFold) {
            view.reduce->fn(dst.data(), staging.data(), dst.size());
          }
        } else if (part == FloorPart::kCopy) {
          std::memcpy(dst.data(), staging.data(), dst.size());
        }
        break;
      }
      case OpKind::kCombine:
        if (part == FloorPart::kFold) {
          const auto dst = operand(view, op.dst_user, op.dst_off, op.dst_len);
          const auto src = operand(view, op.src_user, op.src_off, op.src_len);
          view.reduce->fn(dst.data(), src.data(), src.size());
        }
        break;
      case OpKind::kCopy:
        if (part == FloorPart::kCopy && op.src_len != 0) {
          std::memcpy(operand(view, op.dst_user, op.dst_off, op.dst_len).data(),
                      operand(view, op.src_user, op.src_off, op.src_len).data(),
                      op.src_len);
        }
        break;
    }
  }
}

SendCounts count_sends(const intercom::CProgram& program,
                       std::size_t rendezvous_threshold) {
  SendCounts counts;
  for (const COp& op : program.ops) {
    if (op.kind != OpKind::kSend && op.kind != OpKind::kSendRecv) continue;
    ++counts.messages;
    counts.bytes += op.src_len;
    if (op.src_len >= rendezvous_threshold) ++counts.rendezvous;
  }
  return counts;
}

std::size_t max_operand_bytes(const intercom::CProgram& program) {
  std::size_t most = 0;
  for (const COp& op : program.ops) {
    most = std::max({most, op.src_len, op.dst_len});
  }
  return most;
}

}  // namespace perfbench
