#include "dsp/durable.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace csxa::dsp {

namespace {

// Manifest record / blob types. A blob carries the same type tag as the
// record that commits it, so a remapped extent of the wrong kind is
// caught before any field is trusted.
enum RecordType : uint8_t {
  kCommit = 1,      // publish/republish: blob = container + sealed rules
  kRulesCommit = 2,  // rules update: blob = sealed rules
  kRemove = 3,      // tombstone; no blob
  kClean = 4,       // clean-shutdown marker; no blob
  kInUse = 5,       // appended at open to consume a kClean marker, so a
                    // crash after a warm open still forces the cold path
};

// Keeps every record type within one 512 B manifest frame.
constexpr size_t kMaxDocIdSize = 256;

struct RecordFields {
  uint8_t type = 0;
  std::string doc_id;
  uint64_t version = 0;
  uint64_t first_block = 0;
  uint64_t block_count = 0;
};

Result<RecordFields> ParseRecord(Span payload) {
  RecordFields rec;
  ByteReader r(payload);
  if (!r.GetU8(&rec.type)) {
    return Status::IntegrityError("manifest record: empty");
  }
  if (rec.type == kClean || rec.type == kInUse) return rec;
  bool ok = r.GetString(&rec.doc_id) && r.GetU64(&rec.version);
  if (ok && (rec.type == kCommit || rec.type == kRulesCommit)) {
    ok = r.GetU64(&rec.first_block) && r.GetU64(&rec.block_count);
  }
  if (!ok || !r.AtEnd()) {
    return Status::IntegrityError("manifest record: malformed fields");
  }
  return rec;
}

Bytes EncodeCommitRecord(uint8_t type, const std::string& doc_id,
                         uint64_t version, uint64_t first_block,
                         uint64_t block_count) {
  ByteWriter w;
  w.PutU8(type);
  w.PutString(doc_id);
  w.PutU64(version);
  if (type == kCommit || type == kRulesCommit) {
    w.PutU64(first_block);
    w.PutU64(block_count);
  }
  return w.Take();
}

// Blob layout: type tag, embedded identity, then the payloads. Identity
// and version are cross-checked against the committing manifest record so
// extents cannot be remapped between documents.
Bytes EncodeBlob(uint8_t type, const std::string& doc_id, uint64_t version,
                 Span container, Span sealed_rules) {
  ByteWriter w;
  w.PutU8(type);
  w.PutString(doc_id);
  w.PutU64(version);
  if (type == kCommit) w.PutLengthPrefixed(container);
  w.PutLengthPrefixed(sealed_rules);
  return w.Take();
}

struct BlobFields {
  Bytes container;     // kCommit only
  Bytes sealed_rules;  // kCommit and kRulesCommit
};

Result<BlobFields> ParseBlob(Span blob, uint8_t want_type,
                             const std::string& want_doc_id,
                             uint64_t want_version) {
  ByteReader r(blob);
  uint8_t type = 0;
  std::string doc_id;
  uint64_t version = 0;
  if (!r.GetU8(&type) || !r.GetString(&doc_id) || !r.GetU64(&version)) {
    return Status::IntegrityError("stored blob: truncated envelope");
  }
  if (type != want_type || doc_id != want_doc_id || version != want_version) {
    return Status::IntegrityError(
        "stored blob for '" + want_doc_id + "' v" +
        std::to_string(want_version) + " carries '" + doc_id + "' v" +
        std::to_string(version) + ": extent remapped between documents");
  }
  BlobFields out;
  Span payload;
  if (type == kCommit) {
    if (!r.GetLengthPrefixed(&payload)) {
      return Status::IntegrityError("stored blob: truncated container");
    }
    out.container = payload.ToBytes();
  }
  if (!r.GetLengthPrefixed(&payload) || !r.AtEnd()) {
    return Status::IntegrityError("stored blob: truncated sealed rules");
  }
  out.sealed_rules = payload.ToBytes();
  return out;
}

}  // namespace

Result<std::unique_ptr<DurableServer>> DurableServer::Open(
    DurableOptions options) {
  if (options.env == nullptr) options.env = PosixEnv::Default();
  CSXA_RETURN_IF_ERROR(options.env->CreateDir(options.directory));

  auto server = std::unique_ptr<DurableServer>(new DurableServer());
  Table& table = server->table_;

  uint64_t data_torn_bytes = 0;
  CSXA_ASSIGN_OR_RETURN(
      server->blocks_,
      BlockLog::Open(options.env, options.directory, options.key,
                     options.store_id, options.segment_bytes,
                     &data_torn_bytes));
  ManifestScan scan;
  CSXA_ASSIGN_OR_RETURN(
      server->manifest_,
      ManifestLog::Open(options.env, options.directory + "/MANIFEST",
                        options.key, options.store_id, &scan));
  // Fresh nonce epoch per open: any mutation this store retries after a
  // crash rewound its block indices seals under a different epoch, so the
  // CTR (key, nonce, index) triple can never repeat (blockseal.h).
  CSXA_ASSIGN_OR_RETURN(Bytes epoch_bytes, options.env->RandomBytes(8));
  uint64_t epoch = 0;
  for (size_t i = 0; i < 8; ++i) {
    epoch |= static_cast<uint64_t>(epoch_bytes[i]) << (8 * i);
  }
  server->nonces_ = crypto::NonceSequence(epoch);

  if (options.expected_manifest_records > scan.records.size()) {
    return Status::IntegrityError(
        "manifest rollback: publisher committed " +
        std::to_string(options.expected_manifest_records) +
        " records but only " + std::to_string(scan.records.size()) +
        " survive the scan");
  }

  // Replay the manifest into document metadata.
  RecoveryReport& report = server->recovery_;
  report.manifest_records = scan.records.size();
  report.torn_tail_records = scan.torn_tail_records;
  report.torn_tail_bytes = scan.torn_tail_bytes + data_torn_bytes;
  // A dropped FULL frame is ambiguous between a torn commit append and an
  // attacker rolling back the last committed record; surface it instead
  // of absorbing it silently into the torn-tail count.
  report.rollback_suspected = scan.torn_tail_records > 0;
  if (report.rollback_suspected) {
    CSXA_LOG(kWarning)
        << "store '" << options.store_id << "': dropped a whole trailing "
        << "manifest frame failing authentication — a torn commit, or a "
        << "one-record rollback by the volume; verify against the last "
        << "commit_seq if one was retained";
  }
  uint64_t committed_end = 0;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    CSXA_ASSIGN_OR_RETURN(RecordFields rec, ParseRecord(scan.records[i]));
    report.clean_shutdown = rec.type == kClean;
    Result<Table::Entry*> applied = server->Apply(
        rec.type, rec.doc_id, rec.version, rec.first_block, rec.block_count);
    CSXA_RETURN_IF_ERROR(applied.status());
    committed_end = std::max(committed_end, rec.first_block + rec.block_count);
  }
  report.documents = table.size();

  // GC: blocks past the last committed extent were appended by a mutation
  // whose commit record never made it — the op never happened.
  if (server->blocks_.block_count() > committed_end) {
    report.orphaned_blocks_gced =
        server->blocks_.block_count() - committed_end;
    CSXA_RETURN_IF_ERROR(server->blocks_.TruncateBlocks(committed_end));
  }

  if (report.clean_shutdown) {
    // Consume the marker: from here the store is in use, and a crash
    // before the next Close() must force the cold path.
    CSXA_RETURN_IF_ERROR(
        server->Commit(kInUse, std::string(), 0, Span(), Span()).status());
  } else {
    // Cold open: the previous run ended in a crash (or this is a fresh
    // store) — authenticate every live document now so damage surfaces at
    // open, not at first read.
    table.ForEach([&](const std::string& doc_id, Table::Entry& doc) {
      report.blocks_verified += doc.meta.block_count + doc.meta.rules_count;
      doc.meta.damage = server->LoadDoc(doc_id, &doc);
      if (!doc.meta.damage.ok()) report.quarantined.push_back(doc_id);
    });
  }
  return server;
}

Result<DurableServer::Table::Entry*> DurableServer::Commit(
    uint8_t type, const std::string& doc_id, uint64_t version,
    Span container, Span sealed_rules) {
  uint64_t first = 0;
  uint64_t count = 0;
  if (type == kCommit || type == kRulesCommit) {
    const Bytes blob =
        EncodeBlob(type, doc_id, version, container, sealed_rules);
    first = blocks_.block_count();
    for (size_t off = 0; off == 0 || off < blob.size();
         off += crypto::kBlockPayloadCapacity) {
      size_t n = std::min(crypto::kBlockPayloadCapacity, blob.size() - off);
      CSXA_RETURN_IF_ERROR(
          blocks_.AppendBlock(Span(blob).subspan(off, n), &nonces_).status());
      ++count;
    }
    // Data durable before the manifest may name it (commit protocol step 2).
    CSXA_RETURN_IF_ERROR(blocks_.Sync());
  }
  CSXA_RETURN_IF_ERROR(manifest_.Append(
      EncodeCommitRecord(type, doc_id, version, first, count), &nonces_));
  return Apply(type, doc_id, version, first, count);
}

Result<DurableServer::Table::Entry*> DurableServer::Apply(
    uint8_t type, const std::string& doc_id, uint64_t version,
    uint64_t first_block, uint64_t block_count) {
  Table::Entry* doc = nullptr;
  switch (type) {
    case kCommit: {
      Table::Entry fresh;
      fresh.rules_version = version;
      fresh.meta.commit_version = version;
      fresh.meta.first_block = first_block;
      fresh.meta.block_count = block_count;
      doc = table_.Publish(doc_id, std::move(fresh));
      break;
    }
    case kRulesCommit:
      doc = table_.Find(doc_id);
      if (doc == nullptr) {
        return Status::IntegrityError(
            "manifest: rules update for unknown document '" + doc_id + "'");
      }
      doc->rules_version = version;
      doc->meta.rules_first = first_block;
      doc->meta.rules_count = block_count;
      break;
    case kRemove:
      table_.Remove(doc_id, version);
      break;
    case kClean:
    case kInUse:
      break;
    default:
      return Status::IntegrityError("manifest: unknown record type " +
                                    std::to_string(type));
  }
  return doc;
}

Result<Bytes> DurableServer::ReadExtent(uint64_t first,
                                        uint64_t count) const {
  Bytes blob;
  for (uint64_t i = 0; i < count; ++i) {
    CSXA_ASSIGN_OR_RETURN(Bytes part, blocks_.ReadBlock(first + i));
    blob.insert(blob.end(), part.begin(), part.end());
  }
  return blob;
}

Status DurableServer::LoadDoc(const std::string& doc_id, Table::Entry* doc) {
  CSXA_ASSIGN_OR_RETURN(
      Bytes blob, ReadExtent(doc->meta.first_block, doc->meta.block_count));
  CSXA_ASSIGN_OR_RETURN(
      BlobFields fields,
      ParseBlob(blob, kCommit, doc_id, doc->meta.commit_version));
  if (doc->meta.rules_count > 0) {
    CSXA_ASSIGN_OR_RETURN(
        Bytes rules_blob,
        ReadExtent(doc->meta.rules_first, doc->meta.rules_count));
    CSXA_ASSIGN_OR_RETURN(
        BlobFields rules,
        ParseBlob(rules_blob, kRulesCommit, doc_id, doc->rules_version));
    fields.sealed_rules = std::move(rules.sealed_rules);
  }
  // Last fallible step, so a failure leaves the entry unloaded.
  CSXA_RETURN_IF_ERROR(doc->SetContainer(std::move(fields.container)));
  doc->sealed_rules = std::move(fields.sealed_rules);
  return Status::OK();
}

Result<DurableServer::Table::Entry*> DurableServer::Healthy(
    const std::string& doc_id) {
  CSXA_ASSIGN_OR_RETURN(Table::Entry * doc, table_.Lookup(doc_id));
  if (!doc->meta.damage.ok()) return doc->meta.damage;
  return doc;
}

Result<Response> DurableServer::Execute(Request request) {
  return table_.Served([&]() -> Result<Response> {
    switch (request.op) {
      case Op::kPublish: {
        if (request.doc_id.size() > kMaxDocIdSize) {
          return Status::InvalidArgument("doc_id too long to commit");
        }
        // Parse before taking the lock: validation needs no store state.
        DocState parsed;
        CSXA_RETURN_IF_ERROR(
            parsed.SetContainer(std::move(request.container)));

        std::unique_lock lock(mu_);
        uint64_t version =
            table_.NextVersion(request.doc_id, request.force_rules_version);
        CSXA_ASSIGN_OR_RETURN(
            Table::Entry * doc,
            Commit(kCommit, request.doc_id, version, *parsed.container_bytes,
                   request.sealed_rules));
        // Committed: the fresh entry heals any quarantine and serves the
        // parse from memory.
        doc->container_bytes = std::move(parsed.container_bytes);
        doc->container = std::move(parsed.container);
        doc->sealed_rules = std::move(request.sealed_rules);
        Response resp;
        resp.rules_version = version;
        resp.commit_seq = manifest_.next_seq();
        return resp;
      }

      case Op::kUpdateRules: {
        std::unique_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(Table::Entry * doc, Healthy(request.doc_id));
        uint64_t version =
            table_.NextVersion(request.doc_id, request.force_rules_version);
        CSXA_RETURN_IF_ERROR(Commit(kRulesCommit, request.doc_id, version,
                                    Span(), request.sealed_rules)
                                 .status());
        if (doc->loaded()) doc->sealed_rules = std::move(request.sealed_rules);
        Response resp;
        resp.rules_version = version;
        resp.commit_seq = manifest_.next_seq();
        return resp;
      }

      case Op::kRemove: {
        // Removing a damaged document is a legitimate way to retire it.
        std::unique_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(const Table::Entry* doc,
                              table_.Lookup(request.doc_id));
        CSXA_RETURN_IF_ERROR(Commit(kRemove, request.doc_id,
                                    doc->rules_version, Span(), Span())
                                 .status());
        Response resp;
        resp.commit_seq = manifest_.next_seq();
        return resp;
      }

      case Op::kPing:
        return table_.Ping();

      case Op::kOpenDocument:
      case Op::kGetChunks:
      case Op::kGetContainer: {
        {
          std::shared_lock lock(mu_);
          CSXA_ASSIGN_OR_RETURN(const Table::Entry* doc,
                                Healthy(request.doc_id));
          if (doc->loaded()) return table_.Read(request, *doc);
        }
        // Warm-open lazy path: first access loads and verifies the blobs
        // under the exclusive lock (this also serializes the BlockLog).
        std::unique_lock lock(mu_);
        CSXA_ASSIGN_OR_RETURN(Table::Entry * doc, Healthy(request.doc_id));
        if (!doc->loaded()) {
          doc->meta.damage = LoadDoc(request.doc_id, doc);
          CSXA_RETURN_IF_ERROR(doc->meta.damage);
        }
        return table_.Read(request, *doc);
      }
    }
    return Status::InvalidArgument("unknown DSP op");
  }());
}

Status DurableServer::Close() {
  std::unique_lock lock(mu_);
  if (closed_) return Status::OK();
  CSXA_RETURN_IF_ERROR(
      Commit(kClean, std::string(), 0, Span(), Span()).status());
  closed_ = true;
  return Status::OK();
}

std::vector<std::string> DurableServer::quarantined() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  table_.ForEach([&](const std::string& doc_id, const Table::Entry& doc) {
    if (!doc.meta.damage.ok()) out.push_back(doc_id);
  });
  return out;
}

}  // namespace csxa::dsp
