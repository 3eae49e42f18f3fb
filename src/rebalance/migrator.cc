#include "rebalance/migrator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "rebalance/journal.h"
#include "store/store.h"
#include "store/test_hooks.h"
#include "store/wal.h"
#include "util/atomic_file.h"

namespace anc::rebalance {

namespace fs = std::filesystem;

namespace {

/// Simulated-crash statuses must freeze on-disk state exactly as a real
/// process death would — the error path must *not* clean artifacts up.
bool IsSimulatedCrash(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().rfind("simulated crash", 0) == 0;
}

/// A's WAL segments as (base_seq, path), sorted by base_seq.
std::vector<std::pair<uint64_t, std::string>> ListWalSegments(
    const std::string& shard_dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t base_seq = 0;
    if (std::sscanf(name.c_str(), "wal-%20" SCNu64 ".log", &base_seq) == 1 &&
        name.size() == 28) {
      segments.emplace_back(base_seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// The edges whose deliveries must be handed to `to`: incident to the
/// moving set and not already delivered to `to` (as owner or halo) under
/// `router`'s assignment. Must stay the exact mirror of the bitmap
/// ShardedServer::BeginHandoff builds — both are pure functions of the
/// same pre-migration router snapshot.
std::vector<uint8_t> HandoffEdgeBitmap(const Graph& graph,
                                       const shard::Router& router,
                                       const std::vector<NodeId>& moving,
                                       uint32_t to) {
  std::vector<uint8_t> bitmap(graph.NumEdges(), 0);
  for (const NodeId v : moving) {
    for (const auto& nb : graph.Neighbors(v)) {
      const auto [owner, halo] = router.DeliveryOf(nb.edge);
      if (owner == to || halo == to) continue;
      bitmap[nb.edge] = 1;
    }
  }
  return bitmap;
}

}  // namespace

Migrator::Migrator(shard::ShardedServer* server, MigratorOptions options)
    : server_(server), options_(options) {}

Status Migrator::WriteWalTailSidecar(
    const std::string& path, uint32_t from, uint64_t s_a,
    const std::vector<uint8_t>& edge_in_handoff) {
  // Collect the filtered tail first: every M-incident delivery to `from`
  // with per-shard ticket <= S_A that `to` never received. FlushDurable
  // already ran, so frames covering those tickets are fully written; a
  // torn tail past them (the live segment racing this scan) is fine.
  std::vector<Activation> tail;
  const std::string shard_dir =
      (fs::path(server_->store_dir()) / ("shard-" + std::to_string(from)))
          .string();
  const auto segments = ListWalSegments(shard_dir);
  if (segments.empty() || segments.front().first > 1) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(from) +
        ": WAL does not reach back to ticket 1 (a checkpoint trimmed the "
        "history the handoff needs)");
  }
  // Edges this shard *imported* (it was a migration target) have their
  // pre-import history only in the archived sidecars of those migrations,
  // never in this shard's WAL. An archived edge got no routed deliveries
  // here before its import committed, so archive records strictly precede
  // this shard's own — splice them first.
  const auto collect_archived = [&](const store::WalRecord& record) {
    for (const Activation& a : record.activations) {
      if (a.edge < edge_in_handoff.size() && edge_in_handoff[a.edge]) {
        tail.push_back(a);
      }
    }
    return Status::OK();
  };
  for (const std::string& archive : ListImportArchives(shard_dir)) {
    Result<store::WalSegmentInfo> info = store::ReadWalSegment(
        archive, collect_archived, /*truncate_torn_tail=*/false);
    if (!info.ok()) {
      return Status(info.status().code(),
                    "import archive " + archive + ": " +
                        info.status().message());
    }
  }
  for (const auto& [base_seq, segment_path] : segments) {
    if (base_seq > s_a) break;
    const auto collect = [&](const store::WalRecord& record) {
      for (size_t i = 0; i < record.activations.size(); ++i) {
        const uint64_t seq = record.first_seq + i;
        if (seq > s_a) return Status::OK();
        const Activation& a = record.activations[i];
        if (a.edge < edge_in_handoff.size() && edge_in_handoff[a.edge]) {
          tail.push_back(a);
        }
      }
      return Status::OK();
    };
    Result<store::WalSegmentInfo> info =
        store::ReadWalSegment(segment_path, collect,
                              /*truncate_torn_tail=*/false);
    if (!info.ok()) {
      return Status(info.status().code(), "sidecar snapshot: " +
                                              info.status().message());
    }
  }

  Result<std::unique_ptr<store::WalAppender>> appender =
      store::WalAppender::Create(path, 1);
  if (!appender.ok()) return appender.status();
  if (store::TestHooks::ShouldCrash(
          store::CrashPoint::kMidMigrationImport)) {
    // Die mid-write: the sidecar exists but holds none of its records.
    appender.value()->Abandon();
    return Status::Unavailable("simulated crash: mid-migration-import");
  }
  uint64_t next_seq = 1;
  constexpr size_t kChunk = 4096;
  for (size_t at = 0; at < tail.size(); at += kChunk) {
    const size_t count = std::min(kChunk, tail.size() - at);
    ANC_RETURN_NOT_OK(
        appender.value()->Append(tail.data() + at, count, next_seq));
    next_seq += count;
  }
  return appender.value()->Close();
}

Status Migrator::ApplyQuiesced(uint32_t s,
                               const std::vector<Activation>& batch) {
  if (batch.empty()) return Status::OK();
  Status applied = Status::OK();
  const Status quiesced = server_->shard(s).RunQuiesced(
      [this, s, &batch, &applied](const serve::AncServer::QuiescedContext&) {
        AncIndex& index = server_->shard_index(s);
        // The imports carry timestamps behind the target's clock (its own
        // stream kept running), so they go through the anchored
        // out-of-order path — exact, not clamped. A failure here means
        // the replica diverged: surface it and let the caller roll back.
        for (const Activation& a : batch) {
          applied = index.ApplyOutOfOrder(a);
          if (!applied.ok()) return;
        }
      },
      options_.quiesce_timeout);
  if (!quiesced.ok()) return quiesced;
  return applied;
}

Status Migrator::Migrate(const std::vector<NodeId>& moving, uint32_t to) {
  if (!server_->running()) {
    return Status::FailedPrecondition("server not running");
  }
  if (!server_->durable()) {
    return Status::FailedPrecondition(
        "live migration requires a durable server (the handoff replays the "
        "owner's WAL tail)");
  }
  if (moving.empty()) {
    return Status::InvalidArgument("nothing to migrate");
  }
  const std::shared_ptr<const shard::Router> router = server_->router();
  if (to >= router->num_shards()) {
    return Status::InvalidArgument("no shard " + std::to_string(to));
  }
  const Graph& graph = server_->graph();
  for (const NodeId v : moving) {
    if (v >= graph.NumNodes()) {
      return Status::InvalidArgument("no vertex " + std::to_string(v));
    }
  }
  const uint32_t from = router->NodeOwner(moving[0]);
  if (from == to) {
    return Status::InvalidArgument("vertices already live on shard " +
                                   std::to_string(to));
  }
  if (server_->shard_import_dirty(to)) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(to) +
        " holds live imports from a rolled-back migration; importing into "
        "it again would double-count that history. Rebuild the server from "
        "durable state (RecoverAll) before migrating into this shard");
  }

  const std::string dir = server_->store_dir();
  const uint64_t id = server_->NextMigrationId();

  // Phase 0: start side-buffering, snapshot A's frontier, journal intent.
  Result<uint64_t> s_a = server_->BeginHandoff(moving, from, to);
  if (!s_a.ok()) return s_a.status();
  // Checkpoints on the target must hold still until the commit: one firing
  // mid-migration would capture half-imported state, breaking both the
  // rollback invariant (B's durable state untouched) and the roll-forward
  // splice arithmetic. Guarded again at commit.
  const store::DurableStore* to_store = server_->shard_store(to);
  if (to_store == nullptr) {
    server_->AbortHandoff();
    return Status::FailedPrecondition("target shard has no open store");
  }
  const uint64_t g_begin = to_store->generation();
  const std::vector<uint8_t> edge_in_handoff =
      HandoffEdgeBitmap(graph, *router, moving, to);

  MigrationJournal journal;
  journal.id = id;
  journal.from = from;
  journal.to = to;
  journal.s_a = s_a.value();
  journal.phase = MigrationPhase::kPrepare;
  journal.moving = moving;

  // Everything up to the commit point rolls back on failure: abort the
  // handoff, and (unless a simulated crash must freeze the directory)
  // remove whatever artifacts were already written. Once phase 2 has
  // touched B's live index the rollback cannot undo those imports (they
  // never reach B's WAL, so its durable state is clean, but the live
  // state is not): B is marked import-dirty and refuses further
  // migrations into it until the process is rebuilt from durable state.
  bool target_imported = false;
  const auto rollback = [&](const Status& status) {
    server_->AbortHandoff();
    if (target_imported) server_->MarkShardImportDirty(to);
    if (!IsSimulatedCrash(status)) {
      std::error_code ec;
      fs::remove(JournalPath(dir), ec);
      fs::remove(SidecarPath(dir, id, 0), ec);
      fs::remove(SidecarPath(dir, id, 1), ec);
    }
    return status;
  };

  Status status = WriteJournal(dir, journal);
  if (!status.ok()) return rollback(status);

  // Phase 1: everything <= S_A becomes durable, then the filtered WAL
  // tail becomes sidecar-0.
  status = server_->shard(from).FlushDurable(options_.quiesce_timeout);
  if (!status.ok()) return rollback(status);
  status = WriteWalTailSidecar(SidecarPath(dir, id, 0), from, s_a.value(),
                               edge_in_handoff);
  if (!status.ok()) return rollback(status);

  // Phase 2: import sidecar-0 into B's live index (never its WAL: an
  // aborted migration must leave B's durable state untouched).
  std::vector<Activation> snapshot;
  const auto collect = [&snapshot](const store::WalRecord& record) {
    snapshot.insert(snapshot.end(), record.activations.begin(),
                    record.activations.end());
    return Status::OK();
  };
  Result<store::WalSegmentInfo> sidecar0 = store::ReadWalSegment(
      SidecarPath(dir, id, 0), collect, /*truncate_torn_tail=*/false);
  if (!sidecar0.ok()) return rollback(sidecar0.status());
  // Conservatively dirty-on-attempt: a failed apply may still have
  // imported a prefix of the batch.
  target_imported = true;
  status = ApplyQuiesced(to, snapshot);
  if (!status.ok()) return rollback(status);

  // Phase 3: drain the side buffer while ingest keeps running, retaining
  // the chunks — they become part of sidecar-1 at commit.
  std::vector<Activation> catchup;
  for (uint32_t round = 0; round < options_.catchup_max_rounds; ++round) {
    if (server_->HandoffBacklog() <= options_.catchup_max_backlog) break;
    std::vector<Activation> chunk = server_->TakeHandoffChunk();
    if (chunk.empty()) break;
    status = ApplyQuiesced(to, chunk);
    if (!status.ok()) return rollback(status);
    catchup.insert(catchup.end(), chunk.begin(), chunk.end());
  }

  // Phase 4: finalize. Under the route lock the residual side buffer is
  // applied to B at a quiescent point, sidecar-1 and the committed
  // journal become durable (the commit point), B republishes, and the
  // router swaps. Producers block on the route lock for the duration —
  // the migration's only ingest stall, bounded by the residual size.
  shard::Partition new_partition = router->partition();
  for (const NodeId v : moving) new_partition.node_shard[v] = to;
  const shard::PartitionStats new_stats =
      shard::ComputeStats(graph, new_partition);
  const auto new_router =
      std::make_shared<const shard::Router>(graph, std::move(new_partition));

  const uint64_t epoch_before = server_->assignment_epoch();
  Status finalize = server_->FinalizeHandoff(
      new_router, new_stats,
      [&](std::vector<Activation> residual) -> Status {
        Status inner = Status::OK();
        const Status quiesced = server_->shard(to).RunQuiesced(
            [&](const serve::AncServer::QuiescedContext& context) {
              AncIndex& index = server_->shard_index(to);
              for (const Activation& a : residual) {
                inner = index.ApplyOutOfOrder(a);
                if (!inner.ok()) return;
              }
              // Sidecar-1 = catch-up chunks + residual, in routing order.
              std::vector<Activation> imported = std::move(catchup);
              imported.insert(imported.end(), residual.begin(),
                              residual.end());
              Result<std::unique_ptr<store::WalAppender>> appender =
                  store::WalAppender::Create(SidecarPath(dir, id, 1), 1);
              if (!appender.ok()) {
                inner = appender.status();
                return;
              }
              uint64_t next_seq = 1;
              constexpr size_t kChunk = 4096;
              for (size_t at = 0; at < imported.size(); at += kChunk) {
                const size_t count = std::min(kChunk, imported.size() - at);
                inner = appender.value()->Append(imported.data() + at, count,
                                                 next_seq);
                if (!inner.ok()) return;
                next_seq += count;
              }
              inner = appender.value()->Close();
              if (!inner.ok()) return;
              if (store::TestHooks::ShouldCrash(
                      store::CrashPoint::kPreMigrationCommit)) {
                inner =
                    Status::Unavailable("simulated crash: pre-migration-commit");
                return;
              }
              const uint64_t g_now = server_->shard_store(to)->generation();
              if (g_now != g_begin) {
                // The checkpoint captured half-imported state, so the
                // target's durable state is polluted too — a retry would
                // double-count. The rollback marks the target
                // import-dirty; do NOT advertise retrying into it.
                inner = Status::FailedPrecondition(
                    "target shard checkpointed mid-migration, persisting "
                    "half-imported state; the migration is rolled back and "
                    "the target refuses further imports");
                return;
              }
              // THE COMMIT POINT: the journal's atomic prepare->committed
              // rename. Before it, recovery rolls back; after it, forward.
              journal.phase = MigrationPhase::kCommitted;
              journal.s_b = context.watermark.seq;
              journal.g0 = g_now;
              inner = WriteJournal(dir, journal);
              if (!inner.ok()) return;
              // Republish before the router swap becomes visible: no
              // reader may observe the new assignment with a pre-import
              // view of B.
              context.republish();
            },
            options_.quiesce_timeout);
        if (!quiesced.ok()) return quiesced;
        return inner;
      });
  if (!finalize.ok()) {
    if (server_->assignment_epoch() == epoch_before) {
      // Commit never happened: the handoff is still active; roll back.
      return rollback(finalize);
    }
    // Committed but not fully persisted (e.g. the shards.meta write died,
    // simulated or real): the journal now owns the move — recovery rolls
    // it forward. Nothing to clean up here.
    ++migrations_;
    return finalize;
  }
  ++migrations_;

  // Phase 5: fold the imports into B's durable state, then retire the
  // journal (first — it references the sidecars) and archive the sidecars
  // into B's shard directory: they are the moved edges' only pre-import
  // history, which a later handoff *out of* B splices back in. A failure
  // here is benign: recovery rolls the committed move forward from the
  // artifacts, and Start() retires them after the next open.
  status = server_->shard(to).RequestCheckpoint(options_.quiesce_timeout);
  if (!status.ok()) return Status::OK();
  std::error_code ec;
  fs::remove(JournalPath(dir), ec);
  // Best-effort durability of the delete; see the benign-failure note above.
  if (!ec) (void)FsyncDir(dir);
  const std::string to_dir =
      (fs::path(dir) / ("shard-" + std::to_string(to))).string();
  for (const int stage : {0, 1}) {
    const std::string archive = ImportArchivePath(to_dir, id, stage);
    // Never clobber an existing archive: it is the only copy of some
    // earlier migration's pre-import history. Unreachable with
    // server-issued ids; the orphaned sidecar is retired at next Start().
    if (!fs::exists(archive, ec)) {
      fs::rename(SidecarPath(dir, id, stage), archive, ec);
    }
  }
  return Status::OK();
}

}  // namespace anc::rebalance
