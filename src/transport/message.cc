#include "src/transport/message.h"

namespace reactdb {
namespace transport {

std::string_view MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kSubmit:
      return "SUBMIT";
    case MessageKind::kCall:
      return "CALL";
    case MessageKind::kResponse:
      return "RESPONSE";
  }
  return "UNKNOWN";
}

void SubmitRequest::EncodeTo(wire::Writer* w) const {
  w->PutU64(root_id);
  w->PutU32(reactor.value);
  w->PutU32(proc.value);
  w->PutDouble(deadline_us);
  wire::EncodeRow(args, w);
}

StatusOr<SubmitRequest> SubmitRequest::DecodeFrom(wire::Reader* r) {
  SubmitRequest m;
  REACTDB_ASSIGN_OR_RETURN(m.root_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(m.reactor.value, r->ReadU32());
  REACTDB_ASSIGN_OR_RETURN(m.proc.value, r->ReadU32());
  REACTDB_ASSIGN_OR_RETURN(m.deadline_us, r->ReadDouble());
  REACTDB_ASSIGN_OR_RETURN(m.args, wire::DecodeRow(r));
  return m;
}

void CallRequest::EncodeTo(wire::Writer* w) const {
  w->PutU64(root_id);
  w->PutU64(call_id);
  w->PutU64(subtxn_id);
  w->PutU32(reactor.value);
  w->PutU32(proc.value);
  w->PutDouble(deadline_us);
  wire::EncodeRow(args, w);
}

StatusOr<CallRequest> CallRequest::DecodeFrom(wire::Reader* r) {
  CallRequest m;
  REACTDB_ASSIGN_OR_RETURN(m.root_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(m.call_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(m.subtxn_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(m.reactor.value, r->ReadU32());
  REACTDB_ASSIGN_OR_RETURN(m.proc.value, r->ReadU32());
  REACTDB_ASSIGN_OR_RETURN(m.deadline_us, r->ReadDouble());
  REACTDB_ASSIGN_OR_RETURN(m.args, wire::DecodeRow(r));
  return m;
}

CallResponse CallResponse::FromResult(uint64_t root_id, uint64_t call_id,
                                      const ProcResult& result) {
  CallResponse m;
  m.root_id = root_id;
  m.call_id = call_id;
  if (result.ok()) {
    m.code = StatusCode::kOk;
    m.value = result.value();
  } else {
    m.code = result.status().code();
    m.status_message = result.status().message();
  }
  return m;
}

ProcResult CallResponse::ToResult() const {
  if (code == StatusCode::kOk) return ProcResult(value);
  return ProcResult(Status(code, status_message));
}

void CallResponse::EncodeTo(wire::Writer* w) const {
  w->PutU64(root_id);
  w->PutU64(call_id);
  w->PutU8(static_cast<uint8_t>(code));
  w->PutBytes(status_message);
  wire::EncodeValue(value, w);
}

StatusOr<CallResponse> CallResponse::DecodeFrom(wire::Reader* r) {
  CallResponse m;
  REACTDB_ASSIGN_OR_RETURN(m.root_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(m.call_id, r->ReadU64());
  REACTDB_ASSIGN_OR_RETURN(uint8_t code, r->ReadU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("wire: bad status code " +
                                   std::to_string(code));
  }
  m.code = static_cast<StatusCode>(code);
  REACTDB_ASSIGN_OR_RETURN(m.status_message, r->ReadBytes());
  REACTDB_ASSIGN_OR_RETURN(m.value, wire::DecodeValue(r));
  return m;
}

std::string EncodeMessage(const Message& m) {
  std::string out;
  wire::Writer w(&out);
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, SubmitRequest>) {
          w.PutU8(static_cast<uint8_t>(MessageKind::kSubmit));
        } else if constexpr (std::is_same_v<T, CallRequest>) {
          w.PutU8(static_cast<uint8_t>(MessageKind::kCall));
        } else {
          w.PutU8(static_cast<uint8_t>(MessageKind::kResponse));
        }
        msg.EncodeTo(&w);
      },
      m);
  return out;
}

StatusOr<Message> DecodeMessage(std::string_view data) {
  wire::Reader r(data);
  REACTDB_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  Message m;
  switch (static_cast<MessageKind>(kind)) {
    case MessageKind::kSubmit: {
      REACTDB_ASSIGN_OR_RETURN(m, SubmitRequest::DecodeFrom(&r));
      break;
    }
    case MessageKind::kCall: {
      REACTDB_ASSIGN_OR_RETURN(m, CallRequest::DecodeFrom(&r));
      break;
    }
    case MessageKind::kResponse: {
      REACTDB_ASSIGN_OR_RETURN(m, CallResponse::DecodeFrom(&r));
      break;
    }
    default:
      return Status::InvalidArgument("wire: unknown message kind " +
                                     std::to_string(kind));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("wire: trailing bytes after message");
  }
  return m;
}

}  // namespace transport
}  // namespace reactdb
