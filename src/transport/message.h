// Typed messages of the inter-container transport.
//
// Everything that crosses a container boundary is one of three message
// types, addressed by the dense handles interned at bootstrap (see
// src/reactor/symbol.h — handles are stable for the lifetime of the
// deployment, so they are valid wire identifiers):
//
//   SubmitRequest  client -> container: start a root transaction
//   CallRequest    container -> container: invoke a sub-transaction
//                  (the paper's asynchronous cross-reactor call)
//   CallResponse   container -> container: result of a CallRequest
//
// Each message serializes to bytes through src/util/wire.h — argument rows
// and results travel as encoded Values, never as live pointers. An Envelope
// wraps the encoded payload for link transfer. Because today's links are
// in-process, the envelope additionally carries an opaque continuation
// pointer (the dispatch state the receiving side needs: a pending frame, a
// reply future, a root context); a future TCP link replaces that pointer
// with a pending-call table keyed by (root_id, call_id), which is why those
// ids are already part of every wire image.

#ifndef REACTDB_TRANSPORT_MESSAGE_H_
#define REACTDB_TRANSPORT_MESSAGE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/reactor/proc.h"
#include "src/reactor/symbol.h"
#include "src/util/wire.h"

namespace reactdb {
namespace transport {

enum class MessageKind : uint8_t {
  kSubmit = 1,
  kCall = 2,
  kResponse = 3,
};

std::string_view MessageKindName(MessageKind kind);

/// Client -> container: start root transaction `root_id` running
/// `proc` on `reactor` with `args`.
struct SubmitRequest {
  uint64_t root_id = 0;
  ReactorId reactor;
  ProcId proc;
  Row args;
  /// Absolute end-to-end deadline on the session clock (virtual us under
  /// SimRuntime, steady-clock us under ThreadRuntime); 0 = none. Carried on
  /// the wire so a remote submission keeps its budget.
  double deadline_us = 0;

  void EncodeTo(wire::Writer* w) const;
  static StatusOr<SubmitRequest> DecodeFrom(wire::Reader* r);
};

/// Container -> container: invoke sub-transaction `subtxn_id` of root
/// `root_id` as `proc(args)` on `reactor`. `call_id` correlates the
/// response.
struct CallRequest {
  uint64_t root_id = 0;
  uint64_t call_id = 0;
  uint64_t subtxn_id = 0;
  ReactorId reactor;
  ProcId proc;
  Row args;
  /// Root's absolute deadline, inherited by every sub-transaction (0 =
  /// none): the callee checks the remaining budget at its own dispatch.
  double deadline_us = 0;

  void EncodeTo(wire::Writer* w) const;
  static StatusOr<CallRequest> DecodeFrom(wire::Reader* r);
};

/// Container -> container: the ProcResult of CallRequest `call_id`.
struct CallResponse {
  uint64_t root_id = 0;
  uint64_t call_id = 0;
  /// Flattened ProcResult: OK + value, or a non-OK status.
  StatusCode code = StatusCode::kOk;
  std::string status_message;
  Value value;

  static CallResponse FromResult(uint64_t root_id, uint64_t call_id,
                                 const ProcResult& result);
  ProcResult ToResult() const;

  void EncodeTo(wire::Writer* w) const;
  static StatusOr<CallResponse> DecodeFrom(wire::Reader* r);
};

using Message = std::variant<SubmitRequest, CallRequest, CallResponse>;

/// Encodes kind byte + payload into a fresh buffer (the full wire image a
/// network link would transfer).
std::string EncodeMessage(const Message& m);
/// Inverse of EncodeMessage; fails on truncation, bad tags, or trailing
/// bytes.
StatusOr<Message> DecodeMessage(std::string_view data);

/// One transferable unit: the encoded payload plus routing metadata. The
/// wire image is authoritative — receivers decode it and act on the decoded
/// fields, so a serialization bug corrupts results instead of hiding.
struct Envelope {
  MessageKind kind = MessageKind::kCall;
  uint32_t dst_container = 0;
  /// Executor the decoded message should be dispatched to (routing is
  /// decided at send time; a remote link would ship this as part of a
  /// framing header).
  uint32_t dst_executor = 0;
  /// Encoded message (EncodeMessage output).
  std::string wire;
  /// In-process continuation state (owned; see file comment).
  void* ctx = nullptr;
};

}  // namespace transport
}  // namespace reactdb

#endif  // REACTDB_TRANSPORT_MESSAGE_H_
