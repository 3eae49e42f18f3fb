#include "net/protocol.h"

namespace anc::net {

namespace {

/// Validates a wire element count against the bytes actually present, so a
/// forged count can never drive an allocation beyond the payload size.
Status CheckCount(const ByteReader& in, uint64_t count, size_t element_bytes,
                  const char* what) {
  if (count * element_bytes != in.remaining()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": count disagrees with payload size");
  }
  return Status::OK();
}

}  // namespace

bool OpKnown(uint16_t raw) {
  return raw >= static_cast<uint16_t>(Op::kPing) &&
         raw <= static_cast<uint16_t>(Op::kPullLog);
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kSubmit: return "submit";
    case Op::kSubmitBatch: return "submit_batch";
    case Op::kFlush: return "flush";
    case Op::kAwaitSeq: return "await_seq";
    case Op::kFlushDurable: return "flush_durable";
    case Op::kClusters: return "clusters";
    case Op::kLocalCluster: return "local_cluster";
    case Op::kSmallestCluster: return "smallest_cluster";
    case Op::kZoom: return "zoom";
    case Op::kStats: return "stats";
    case Op::kHealth: return "health";
    case Op::kMetrics: return "metrics";
    case Op::kWatermark: return "watermark";
    case Op::kPullLog: return "pull_log";
  }
  return "unknown";
}

// --- Envelope --------------------------------------------------------------

void AppendRequestHeader(std::string* out, const RequestHeader& header) {
  PutU64(out, header.request_id);
  PutU64(out, header.tenant_id);
  PutU16(out, static_cast<uint16_t>(header.op));
  PutU16(out, header.flags);
}

Status DecodeRequestHeader(ByteReader* in, RequestHeader* out) {
  uint16_t op_raw = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->request_id));
  ANC_RETURN_NOT_OK(in->ReadU64(&out->tenant_id));
  ANC_RETURN_NOT_OK(in->ReadU16(&op_raw));
  ANC_RETURN_NOT_OK(in->ReadU16(&out->flags));
  if (!OpKnown(op_raw)) {
    return Status::InvalidArgument("request: unknown op " +
                                   std::to_string(op_raw));
  }
  out->op = static_cast<Op>(op_raw);
  return Status::OK();
}

void AppendResponseHeader(std::string* out, const ResponseHeader& header) {
  PutU64(out, header.request_id);
  PutU16(out, static_cast<uint16_t>(header.op));
  PutU16(out, header.flags);
  PutI32(out, static_cast<int32_t>(header.code));
}

Status DecodeResponseHeader(ByteReader* in, ResponseHeader* out) {
  uint16_t op_raw = 0;
  int32_t code_raw = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->request_id));
  ANC_RETURN_NOT_OK(in->ReadU16(&op_raw));
  ANC_RETURN_NOT_OK(in->ReadU16(&out->flags));
  ANC_RETURN_NOT_OK(in->ReadI32(&code_raw));
  if (!OpKnown(op_raw)) {
    return Status::InvalidArgument("response: unknown op " +
                                   std::to_string(op_raw));
  }
  if (code_raw < 0 || code_raw > static_cast<int32_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("response: unknown status code " +
                                   std::to_string(code_raw));
  }
  out->op = static_cast<Op>(op_raw);
  out->code = static_cast<StatusCode>(code_raw);
  return Status::OK();
}

// --- Typed bodies ----------------------------------------------------------

void AppendSubmitBody(std::string* out, const SubmitBody& body) {
  PutU32(out, static_cast<uint32_t>(body.activations.size()));
  for (const Activation& a : body.activations) {
    PutU32(out, static_cast<uint32_t>(a.edge));
    PutF64(out, a.time);
  }
}

Status DecodeSubmitBody(ByteReader* in, SubmitBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 12, "submit"));
  out->activations.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t edge = 0;
    ANC_RETURN_NOT_OK(in->ReadU32(&edge));
    ANC_RETURN_NOT_OK(in->ReadF64(&out->activations[i].time));
    out->activations[i].edge = edge;
  }
  return Status::OK();
}

void AppendSubmitAck(std::string* out, const SubmitAck& ack) {
  PutU64(out, ack.accepted);
  PutU64(out, ack.last_seq);
}

Status DecodeSubmitAck(ByteReader* in, SubmitAck* out) {
  ANC_RETURN_NOT_OK(in->ReadU64(&out->accepted));
  return in->ReadU64(&out->last_seq);
}

void AppendAwaitBody(std::string* out, const AwaitBody& body) {
  PutU64(out, body.seq);
  PutU32(out, body.timeout_ms);
}

Status DecodeAwaitBody(ByteReader* in, AwaitBody* out) {
  ANC_RETURN_NOT_OK(in->ReadU64(&out->seq));
  return in->ReadU32(&out->timeout_ms);
}

void AppendWatermarkBody(std::string* out, const WatermarkBody& body) {
  PutU64(out, body.seq);
  PutF64(out, body.time);
  PutU64(out, body.durable_seq);
  PutF64(out, body.durable_time);
  PutU64(out, body.epoch);
}

Status DecodeWatermarkBody(ByteReader* in, WatermarkBody* out) {
  ANC_RETURN_NOT_OK(in->ReadU64(&out->seq));
  ANC_RETURN_NOT_OK(in->ReadF64(&out->time));
  ANC_RETURN_NOT_OK(in->ReadU64(&out->durable_seq));
  ANC_RETURN_NOT_OK(in->ReadF64(&out->durable_time));
  return in->ReadU64(&out->epoch);
}

void AppendQueryBody(std::string* out, const QueryBody& body) {
  PutU32(out, body.node);
  PutU32(out, body.level);
  PutU32(out, body.min_size);
  PutU64(out, body.min_seq);
}

Status DecodeQueryBody(ByteReader* in, QueryBody* out) {
  ANC_RETURN_NOT_OK(in->ReadU32(&out->node));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->level));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->min_size));
  return in->ReadU64(&out->min_seq);
}

void AppendClustersBody(std::string* out, const ClustersBody& body) {
  PutU64(out, body.epoch);
  PutU64(out, body.watermark_seq);
  PutU32(out, body.level);
  PutU32(out, body.num_clusters);
  PutU32(out, static_cast<uint32_t>(body.labels.size()));
  for (uint32_t label : body.labels) PutU32(out, label);
}

Status DecodeClustersBody(ByteReader* in, ClustersBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->epoch));
  ANC_RETURN_NOT_OK(in->ReadU64(&out->watermark_seq));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->level));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->num_clusters));
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 4, "clusters"));
  out->labels.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ANC_RETURN_NOT_OK(in->ReadU32(&out->labels[i]));
  }
  return Status::OK();
}

void AppendMembersBody(std::string* out, const MembersBody& body) {
  PutU64(out, body.epoch);
  PutU64(out, body.watermark_seq);
  PutU32(out, body.level);
  PutU32(out, static_cast<uint32_t>(body.members.size()));
  for (NodeId member : body.members) PutU32(out, member);
}

Status DecodeMembersBody(ByteReader* in, MembersBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->epoch));
  ANC_RETURN_NOT_OK(in->ReadU64(&out->watermark_seq));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->level));
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 4, "members"));
  out->members.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ANC_RETURN_NOT_OK(in->ReadU32(&out->members[i]));
  }
  return Status::OK();
}

void AppendZoomBody(std::string* out, const ZoomBody& body) {
  PutU64(out, body.epoch);
  PutU64(out, body.watermark_seq);
  PutU32(out, body.default_level);
  PutU32(out, static_cast<uint32_t>(body.cluster_sizes.size()));
  for (uint32_t size : body.cluster_sizes) PutU32(out, size);
}

Status DecodeZoomBody(ByteReader* in, ZoomBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->epoch));
  ANC_RETURN_NOT_OK(in->ReadU64(&out->watermark_seq));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->default_level));
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 4, "zoom"));
  out->cluster_sizes.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ANC_RETURN_NOT_OK(in->ReadU32(&out->cluster_sizes[i]));
  }
  return Status::OK();
}

void AppendTextBody(std::string* out, const TextBody& body) {
  PutU32(out, static_cast<uint32_t>(body.text.size()));
  out->append(body.text);
}

Status DecodeTextBody(ByteReader* in, TextBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 1, "text"));
  std::string_view bytes;
  ANC_RETURN_NOT_OK(in->ReadBytes(count, &bytes));
  out->text.assign(bytes);
  return Status::OK();
}

void AppendPullLogBody(std::string* out, const PullLogBody& body) {
  PutU64(out, body.after_seq);
  PutU32(out, body.max_records);
  PutU64(out, body.follower_id);
}

Status DecodePullLogBody(ByteReader* in, PullLogBody* out) {
  ANC_RETURN_NOT_OK(in->ReadU64(&out->after_seq));
  ANC_RETURN_NOT_OK(in->ReadU32(&out->max_records));
  // Appended after the first release of the op: absent means anonymous.
  out->follower_id = 0;
  if (in->remaining() >= sizeof(uint64_t)) {
    ANC_RETURN_NOT_OK(in->ReadU64(&out->follower_id));
  }
  return Status::OK();
}

void AppendLogChunkBody(std::string* out, const LogChunkBody& body) {
  PutU64(out, body.ship_seq);
  PutU32(out, static_cast<uint32_t>(body.frames.size()));
  out->append(body.frames);
}

Status DecodeLogChunkBody(ByteReader* in, LogChunkBody* out) {
  uint32_t count = 0;
  ANC_RETURN_NOT_OK(in->ReadU64(&out->ship_seq));
  ANC_RETURN_NOT_OK(in->ReadU32(&count));
  ANC_RETURN_NOT_OK(CheckCount(*in, count, 1, "log chunk"));
  std::string_view bytes;
  ANC_RETURN_NOT_OK(in->ReadBytes(count, &bytes));
  out->frames.assign(bytes);
  return Status::OK();
}

std::string CanonicalQueryArgs(Op op, const QueryBody& query) {
  std::string args;
  PutU16(&args, static_cast<uint16_t>(op));
  PutU32(&args, query.node);
  PutU32(&args, query.level);
  PutU32(&args, query.min_size);
  return args;
}

}  // namespace anc::net
