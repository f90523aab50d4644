#include "shard/remote_substrate.h"

#include <string>
#include <utility>

#include "server/line_protocol.h"

namespace bigindex {

RemoteSubstrate::RemoteSubstrate(std::vector<ShardEndpoint> endpoints,
                                 ProtocolClientOptions client_options) {
  shards_.reserve(endpoints.size());
  for (const ShardEndpoint& ep : endpoints) {
    shards_.push_back(std::make_unique<Shard>(ep, client_options));
  }
}

Status RemoteSubstrate::CheckShard(size_t shard) const {
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard " + std::to_string(shard) +
                              " out of range (substrate has " +
                              std::to_string(shards_.size()) + ")");
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> RemoteSubstrate::RequestLocked(
    size_t shard, const std::string& line) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.client.Request(line);
}

StatusOr<ShardInfo> RemoteSubstrate::Info(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, "info");
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty INFO response");
  const std::string& head = lines->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  WireInfo wire;
  BIGINDEX_RETURN_IF_ERROR(ParseInfoLine(head, &wire));
  ShardInfo info;
  info.epoch = wire.epoch;
  info.fingerprint = wire.fingerprint;
  info.num_layers = wire.num_layers;
  info.shard_id = wire.shard_id;
  info.num_shards = wire.num_shards;
  info.algorithms = std::move(wire.algorithms);
  return info;
}

StatusOr<QueryResult> RemoteSubstrate::Query(size_t shard,
                                             const EngineQuery& query) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, FormatQueryLine(query));
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty query response");
  const std::string& head = lines->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  QueryResult result;
  result.algorithm = query.algorithm;
  // ms= and layer= are the shard's own measurements; n= announces the
  // answer lines that follow.
  BIGINDEX_RETURN_IF_ERROR(ParseQueryHeadLine(head, &result));
  if (result.breakdown.final_answers != lines->size() - 1) {
    return Status::IOError("query response announced n=" +
                           std::to_string(result.breakdown.final_answers) +
                           " but carried " +
                           std::to_string(lines->size() - 1) + " answers");
  }
  result.answers.reserve(lines->size() - 1);
  for (size_t i = 1; i < lines->size(); ++i) {
    Answer a;
    BIGINDEX_RETURN_IF_ERROR(ParseAnswerLine((*lines)[i], &a));
    result.answers.push_back(std::move(a));
  }
  return result;
}

StatusOr<UpdateOutcome> RemoteSubstrate::Update(
    size_t shard, std::span<const GraphUpdate> updates) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, FormatUpdateLine(updates));
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty update response");
  const std::string& head = lines->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  UpdateOutcome outcome;
  BIGINDEX_RETURN_IF_ERROR(ParseUpdateOutcomeLine(head, &outcome));
  return outcome;
}

StatusOr<uint64_t> RemoteSubstrate::BumpEpoch(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, "bump");
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty bump response");
  const std::string& head = lines->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  uint64_t epoch = 0;
  BIGINDEX_RETURN_IF_ERROR(ParseEpochLine(head, &epoch));
  return epoch;
}

StatusOr<uint64_t> RemoteSubstrate::Rollback(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, "rollback");
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty rollback response");
  const std::string& head = lines->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  uint64_t epoch = 0;
  BIGINDEX_RETURN_IF_ERROR(ParseEpochLine(head, &epoch));
  return epoch;
}

StatusOr<BoundaryExport> RemoteSubstrate::Boundary(size_t shard) {
  BIGINDEX_RETURN_IF_ERROR(CheckShard(shard));
  auto lines = RequestLocked(shard, "boundary");
  if (!lines.ok()) return lines.status();
  if (lines->empty()) return Status::IOError("empty boundary response");
  if (lines->front().starts_with("ERR")) return ParseErrLine(lines->front());
  BoundaryExport ex;
  BIGINDEX_RETURN_IF_ERROR(ParseBoundaryBlock(*lines, &ex));
  return ex;
}

}  // namespace bigindex
