//===- model/serve_daemon.h - Sharded serving daemon + prediction cache ----===//
//
// The one way requests enter serving: N worker shards, each a bounded
// request queue in front of one ServingEngine (the degradation ladder; all
// engines share one trained model), an admission layer with per-tenant
// token-bucket quotas, and a sharded signature-keyed prediction cache. The
// daemon owns every queue, the queue-full and shutdown rejections and the
// Submitted == Rejected + Answered ledger; an engine only answers what a
// pump round hands it. The paper's dedup stage shows real workloads are
// dominated by repeated abstracted instruction sequences, so a daemon that
// answers repeats from cache turns the dominant case into a hash lookup.
//
// Cache correctness: entries are bucketed by the 64-bit hash of the full
// request key (abstracted token sequence + every answer-affecting knob;
// PredictionCache::keyHash), but a hash match alone NEVER produces a hit —
// membership is decided by byte-wise comparison of the stored key, so a
// 64-bit collision can never replay another request's answer. Hits are bit-identical copies of the
// originally computed predictions and carry the `cached` provenance tier.
//
// Crash safety: the cache serializes to a versioned snapshot of per-shard
// segments, each with its own checksum, written atomically (support/io) on
// graceful shutdown and on an every-N-insertions cadence. On restart the
// daemon loads what validates and quarantines corrupt segments one by one —
// a flipped bit in one shard's segment costs that shard's warmth, not the
// whole snapshot. Warm hits after a restart are bit-identical to the
// answers computed before it.
//
// Poison quarantine: a request whose answer fell to the baseline tier
// because a model tier exhausted its budget or faulted (ServeResponse::
// Suspect) earns its signature a watchdog strike; at the configured strike
// limit the signature is denylisted (later retries get RejectedPoisoned
// without touching a worker) and the shard's engine is restarted in place,
// mirroring the trainer supervisor's skip-and-continue design. A restart
// replaces only the engine; the shard's queue is the daemon's and loses
// nothing.
//
// Determinism: requests shard by the hash of their token sequence, so
// byte-identical inputs always land on the same worker and replay in
// submission order there. Quota refills happen per pump round (virtual
// time), never from the wall clock. Under the byte budget (no evictions),
// responses are bit-identical at any SNOWWHITE_THREADS; under eviction
// pressure the LRU victim can depend on cross-worker timing, which may flip
// a hit into a recompute — the predictions are still bit-identical, only the
// provenance tier and step counters can differ.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_MODEL_SERVE_DAEMON_H
#define SNOWWHITE_MODEL_SERVE_DAEMON_H

#include "model/serving.h"
#include "support/result.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace snowwhite {
namespace model {

/// A cached answer: the predictions exactly as first computed, plus the
/// ladder tier that computed them (surfaced in hit responses' Detail).
struct CachedPrediction {
  PredictionTier ComputedBy = PredictionTier::Baseline;
  std::vector<TypePrediction> Predictions;
};

/// Aggregate cache counters; available per shard and summed (totals()).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  /// Inserts that landed in an occupied hash bucket with a different key:
  /// detected 64-bit collisions, kept side by side, never merged.
  uint64_t Collisions = 0;
  uint64_t Bytes = 0;   ///< Current resident entry bytes.
  uint64_t Entries = 0; ///< Current resident entries.
};

/// What loadSnapshot() salvaged, segment by segment. Segment-level damage
/// is quarantined (counted here, taxonomy-coded), never fatal: one shard's
/// corrupt segment costs that shard's warmth, not the whole restart.
struct SnapshotLoadReport {
  uint64_t SegmentsTotal = 0;
  uint64_t SegmentsLoaded = 0;
  uint64_t SegmentsQuarantined = 0;
  uint64_t EntriesLoaded = 0;
  /// Quarantined segments partitioned by error class (ChecksumMismatch,
  /// Truncated, Malformed, LimitExceeded).
  std::map<ErrorCode, uint64_t> QuarantinedByCode;
};

/// Sharded, byte-budgeted, LRU prediction cache. Thread-safe: each shard has
/// its own mutex; a key always maps to the same shard (Hash % NumShards).
class PredictionCache {
public:
  struct Config {
    size_t NumShards = 4;
    /// Total byte budget across all shards (split evenly). Entry cost is
    /// the deterministic entryBytes() estimate, not allocator truth.
    uint64_t ByteBudget = 8ull << 20;
  };

  PredictionCache() : PredictionCache(Config()) {}
  explicit PredictionCache(const Config &Cfg);

  /// Canonical cache key for a request, opaque binary: the token frame
  /// (ULEB128 token count, then each token's ULEB128 length and bytes —
  /// the same frame as ServeDaemon::requestSignature), the effective step
  /// budget, K and beam width as ULEB128, a presence byte (bit 0 param
  /// evidence, bit 1 return evidence), then each present evidence struct's
  /// fields in declaration order as ULEB128. Every knob that can change the
  /// answer is part of the identity.
  static std::string requestKey(const ServeRequest &Request, uint64_t Budget,
                                unsigned K, unsigned Width);

  /// The bucket hash of a request key, for find() and insert(). It takes
  /// the key 8 bytes per multiply-xorshift step, read little-endian so
  /// values match on every platform, mixes in the length and ends with a
  /// 64-bit finalizer, so Hash % NumShards spreads evenly. It lives only in
  /// memory: a snapshot stores keys and re-hashes them on load, and every
  /// persisted digest stays FNV-1a (support/hash.h).
  static uint64_t keyHash(std::string_view Key);

  /// Looks up (Hash, Key); a hit requires the stored key to compare equal
  /// byte-wise. Returns a copy (safe under concurrent eviction) and marks
  /// the entry most-recently-used.
  std::optional<CachedPrediction> find(uint64_t Hash, std::string_view Key);

  /// Inserts or refreshes (Hash, Key) -> Value, then evicts
  /// least-recently-used entries in the shard until it is back under its
  /// byte budget. An entry larger than the whole shard budget is admitted
  /// alone and evicted by the next insert.
  void insert(uint64_t Hash, std::string Key, CachedPrediction Value);

  /// Deterministic size estimate used against the byte budget.
  static uint64_t entryBytes(const std::string &Key,
                             const CachedPrediction &Value);

  size_t numShards() const { return Shards.size(); }
  CacheStats shardStats(size_t Shard) const;
  /// Field-wise sum over all shards.
  CacheStats totals() const;

  /// Debug-mode reconciliation, mirroring ServingStats::checkStats(): walks
  /// every shard and verifies the Bytes/Entries counters against the sum
  /// over resident entries. True iff every shard reconciles.
  bool checkStats() const;

  /// Serializes the resident entries to the versioned snapshot format:
  /// a magic+version+segment-count header followed by one length-prefixed,
  /// individually checksummed segment per shard. Entries are emitted oldest
  /// LRU first so a load replays them in recency order.
  std::vector<uint8_t> serializeSnapshot() const;

  /// serializeSnapshot() written atomically via io::writeFileAtomic, with
  /// injected transient failures retried per Policy. A crash mid-save
  /// leaves the previous snapshot intact.
  Result<void> saveSnapshot(const std::string &Path,
                            fault::FaultInjector *Faults = nullptr,
                            const fault::RetryPolicy &Policy = {}) const;

  /// Loads a snapshot into this cache. File-level damage (unreadable, bad
  /// magic, unsupported version, header truncation) fails the whole load
  /// with a taxonomy-coded error; segment-level damage (bad checksum,
  /// truncation, oversized field) quarantines that segment and keeps going.
  /// Restored entries route by the current shard count, so a snapshot taken
  /// with a different NumShards still loads. Counts as restores, not
  /// insertions, so warm-start cadence accounting is unaffected.
  Result<SnapshotLoadReport> loadSnapshot(const std::string &Path,
                                          fault::FaultInjector *Faults =
                                              nullptr);

  /// Publishes per-shard resident bytes/entries as telemetry gauges
  /// ("serve_cache.shard<i>.bytes" / ".entries") plus the totals.
  void publishGauges() const;

  /// On-disk snapshot format version accepted by loadSnapshot(). Version 2
  /// stores binary request keys; a version-1 snapshot holds the old text
  /// keys, which could never hit, so it loads as Unsupported (a cold start).
  static constexpr uint64_t SnapshotVersion = 2;

private:
  struct Entry {
    std::string Key;
    CachedPrediction Value;
    uint64_t Bytes = 0;
    uint64_t LastUse = 0; ///< Logical per-shard clock, not wall time.
  };
  struct Shard {
    mutable std::mutex Mutex;
    // One vector per 64-bit hash; more than one element means a detected
    // collision (distinct keys, same hash).
    std::map<uint64_t, std::vector<Entry>> Buckets;
    CacheStats Stats;
    uint64_t Clock = 0;
    uint64_t ByteBudget = 0;
  };

  void evictOverBudget(Shard &S); ///< Caller holds S.Mutex.
  /// The one admit path behind insert() and loadSnapshot(). A Restored
  /// entry skips the Insertions/Collisions counters; its recency is the
  /// restore order, i.e. the snapshot's LRU order.
  void admit(uint64_t Hash, std::string Key, CachedPrediction Value,
             bool Restored);
  /// Counter reconciliation for one shard; caller holds S.Mutex.
  static bool shardConsistent(const Shard &S);

  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Admission verdict for one daemon submission.
enum class AdmitOutcome : uint8_t {
  Admitted,
  RejectedQuota,     ///< Tenant token bucket empty this round.
  RejectedQueueFull, ///< Worker shard's bounded queue full.
  RejectedShutdown,  ///< Daemon already shut down.
  RejectedOverload,  ///< Shard's pending compute cost over budget; retry
                     ///< after the hinted number of pump rounds.
  RejectedPoisoned,  ///< Signature denylisted by the poison watchdog.
};

const char *admitOutcomeCode(AdmitOutcome Outcome);

/// Admission verdict plus the overload retry hint. RetryAfterRounds is in
/// virtual time — pump rounds, not wall-clock — and is nonzero only for
/// RejectedOverload: the number of rounds after which the shard's pending
/// cost will have drained enough to admit a request of this cost.
struct AdmitResult {
  AdmitOutcome Outcome = AdmitOutcome::Admitted;
  uint64_t RetryAfterRounds = 0;
};

struct DaemonOptions {
  /// Worker shards; each owns a ServingEngine over the shared model.
  size_t NumWorkers = 2;
  /// Per-worker engine options; QueueCapacity bounds each worker's queue.
  /// Cache is overwritten with the daemon's own cache (null when
  /// Cache.ByteBudget is 0), and Faults with the worker's injector from
  /// WorkerFaults (null when WorkerFaults is unset).
  ServingOptions Serving;
  /// The daemon's prediction cache; a zero byte budget means no cache.
  PredictionCache::Config Cache;
  /// Token-bucket quota per tenant: a tenant may have at most
  /// TenantCapacity requests admitted between refills; every pump() adds
  /// TenantRefill tokens (capped at capacity). 0 capacity disables quotas.
  uint64_t TenantCapacity = 0;
  uint64_t TenantRefill = 0;
  /// When set, each worker shard gets its own FaultInjector seeded
  /// deterministically from (Seed, shard index), safe at any NumWorkers. A
  /// restarted shard keeps its injector, so fault schedules survive watchdog
  /// restarts.
  std::optional<fault::FaultConfig> WorkerFaults;
  /// Snapshot file for crash-safe warm restarts ("" disables). Written on
  /// graceful shutdown and, when SnapshotEveryInsertions > 0, whenever that
  /// many cache insertions have accumulated since the last save (checked
  /// per pump round — a deterministic cadence, not a wall-clock timer).
  std::string SnapshotPath;
  uint64_t SnapshotEveryInsertions = 0;
  /// Poison watchdog: a request signature whose answers come back Suspect
  /// (baseline fallback after budget exhaustion or a model fault) this many
  /// times is denylisted and its shard's engine restarted in place.
  /// 0 disables the watchdog.
  size_t PoisonStrikeLimit = 0;
  /// Deadline-aware admission: each shard may hold at most this much
  /// pending decode-step cost (sum of effective step budgets of queued
  /// requests); submissions beyond it shed with RejectedOverload and a
  /// retry-after hint. 0 disables shedding.
  uint64_t ShardCostBudget = 0;
};

struct DaemonRequest {
  ServeRequest Request;
  /// Quota accounting key; "" is the default tenant.
  std::string Tenant;
};

/// Daemon-level counters. Queue and ladder outcomes are in the ServingStats
/// ledger (engineTotals).
struct DaemonStats {
  uint64_t Submitted = 0;
  uint64_t RejectedQuota = 0;
  uint64_t RejectedPoisoned = 0;
  uint64_t RejectedOverload = 0;
  uint64_t PumpRounds = 0;
  /// Suspect answers attributed to a tracked signature by the watchdog.
  uint64_t WatchdogStrikes = 0;
  /// Engines recreated in place after a signature hit the strike limit.
  uint64_t ShardRestarts = 0;
  /// Successful snapshot saves (cadence + shutdown).
  uint64_t SnapshotSaves = 0;
};

class ServeDaemon {
public:
  /// Model and task must outlive the daemon and are shared by all workers
  /// (inference never mutates the model, so concurrent decodes are safe).
  ServeDaemon(nn::Seq2SeqModel &Model, const Task &BoundTask,
              const DaemonOptions &Options);

  /// Worker shard a request routes to: hash of its token sequence modulo
  /// NumWorkers, so byte-identical inputs always co-locate. A single-worker
  /// daemon routes to 0 without hashing.
  size_t shardOf(const ServeRequest &Request) const;

  /// Watchdog identity of a request: its token frame (ULEB128 count, then
  /// each token's ULEB128 length and bytes), the prefix of its cache key.
  /// Deliberately excludes budget/K/width — poison is a property of the
  /// input, and a retry with a different budget is the same poison.
  static std::string requestSignature(const ServeRequest &Request);

  /// Admission: shutdown check, denylist check, overload check, quota
  /// check, then bounded enqueue on the target shard. Every call counts as
  /// submitted somewhere: denylist, overload and quota rejections in
  /// stats(), queue-full and shutdown rejections and admitted requests in
  /// engineTotals().
  AdmitResult submit(DaemonRequest Request);

  /// Runs every worker shard's queue through its engine's ladder (shards in
  /// parallel over the global thread pool), merges the responses sorted by
  /// request Id, feeds Suspect answers to the poison watchdog, refills
  /// tenant buckets by TenantRefill, writes a cadence snapshot when due,
  /// and republishes per-shard gauges.
  std::vector<ServeResponse> pump();

  /// Stops admission and rejects all queued requests with RejectedShutdown
  /// (one response per victim, merged and Id-sorted). Writes a final
  /// snapshot when SnapshotPath is set. Idempotent; after it returns,
  /// checkStats() holds with empty queues so
  /// Submitted == Rejected + Answered exactly.
  std::vector<ServeResponse> shutdown();

  /// Loads Options.SnapshotPath into the cache (call once, before traffic,
  /// to warm-start after a restart). Returns the salvage report; file-level
  /// errors (missing file, bad magic, wrong version) are returned, not
  /// thrown — a missing snapshot is a cold start, not a failure. The report
  /// is retained for healthReport().
  Result<SnapshotLoadReport> loadSnapshotNow();

  /// Saves the cache to Options.SnapshotPath immediately.
  Result<void> saveSnapshotNow();

  size_t numWorkers() const { return Workers.size(); }
  size_t queued() const;
  bool stopped() const { return Stopped; }
  const DaemonStats &stats() const { return Stats; }
  /// The serving ledger: the queue-full and shutdown rejections plus the
  /// field-wise sum of every shard engine's ServingStats, including engines
  /// replaced by watchdog restarts. Submitted also counts the requests
  /// still queued.
  ServingStats engineTotals() const;
  PredictionCache *cache() { return Cache.get(); }

  /// Deterministic tokens left for a tenant right now (TenantCapacity when
  /// the tenant has never submitted; 0 when quotas are disabled).
  uint64_t tenantTokens(const std::string &Tenant) const;

  /// Signatures currently denylisted by the poison watchdog.
  size_t denylistSize() const { return Denylist.size(); }
  /// True iff this request's signature is denylisted.
  bool isDenylisted(const ServeRequest &Request) const {
    return Denylist.count(requestSignature(Request)) > 0;
  }

  /// Pending decode-step cost currently admitted to a shard's queue.
  uint64_t shardPendingCost(size_t Shard) const {
    return Workers[Shard].PendingCost;
  }

  /// The report from the last loadSnapshotNow(), if one ran.
  const std::optional<SnapshotLoadReport> &lastLoadReport() const {
    return LastLoad;
  }

  /// Human-readable "key=value" lines covering liveness, admission,
  /// watchdog, cache, and snapshot state — the `!health` REPL command and
  /// `snowwhite health` surface this.
  std::string healthReport() const;

  /// Daemon-wide consistency: every engine's checkStats(), the cache's
  /// checkStats(), the ledger (engineTotals: Submitted == Rejected +
  /// Answered + queued()) and the admission identity: Submitted ==
  /// denylist, overload and quota rejections + engineTotals().Submitted.
  bool checkStats() const;

private:
  struct TenantBucket {
    uint64_t Tokens = 0;
  };
  /// An admitted request waiting for the next pump round.
  struct QueuedRequest {
    ServeRequest Request;
    /// Watchdog identity (requestSignature); empty when the watchdog is off.
    std::string Signature;
  };
  /// One worker shard: its queue and the engine that answers it.
  struct Worker {
    std::unique_ptr<ServingEngine> Engine;
    std::vector<QueuedRequest> Queue;
    /// Sum of the queued requests' effective step budgets, for overload
    /// shedding.
    uint64_t PendingCost = 0;
  };

  uint64_t effectiveCost(const ServeRequest &Request) const;
  ServingOptions workerOptions(size_t Shard) const;
  /// Counts one queue-full or shutdown rejection in the ledger.
  void countQueueRejection(ServeOutcome Cause);
  void strikeSignature(const std::string &Signature, size_t Shard);
  void restartShard(size_t Shard);
  void maybeSnapshotOnCadence();

  nn::Seq2SeqModel &Model;
  const Task &BoundTask;
  DaemonOptions Options;
  std::unique_ptr<PredictionCache> Cache; ///< Null at a zero byte budget.
  std::vector<std::unique_ptr<fault::FaultInjector>> WorkerInjectors;
  std::vector<Worker> Workers;
  std::map<std::string, TenantBucket> Tenants;
  std::map<std::string, size_t> Strikes;
  std::set<std::string> Denylist;
  /// The ServingStats no live engine holds: queue-full and shutdown
  /// rejections, and the stats of engines replaced by restartShard().
  ServingStats Ledger;
  uint64_t LastSnapshotInsertions = 0;
  std::optional<SnapshotLoadReport> LastLoad;
  bool LastSaveOk = true;
  DaemonStats Stats;
  bool Stopped = false;
};

} // namespace model
} // namespace snowwhite

#endif // SNOWWHITE_MODEL_SERVE_DAEMON_H
