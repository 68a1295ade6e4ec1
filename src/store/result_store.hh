/**
 * @file
 * ResultStore: the disk-backed, versioned ResultBackend that makes
 * experiment results persistent across processes — the moral
 * equivalent of the paper's amortization of Dixie traces across
 * experiments, applied to finished simulations.
 *
 * Layout: a store is a directory of hash-partitioned *shards*
 * (`shard-SS/`), each holding append-only segment files
 * (`seg-NNNNNN.mtvs`). A record lives in the shard selected by
 * `fnv1a64(key) % shards`, so every shard owns a disjoint slice of
 * the key space and the shards never coordinate: each has its own
 * mutex, its own index, and its own session segment. Concurrent
 * engine workers appending different keys contend only when their
 * keys land on the same shard, which removed the single append lock
 * as the daemon's multi-worker bottleneck.
 *
 * Every segment starts with a 16-byte header (magic, format version,
 * schema hash) followed by checksummed records, each mapping a
 * RunSpec::canonical() key to a serializeSimStats() blob:
 *
 *   u32 keyLen | u32 blobLen | u64 fnv1a64(key+blob) | key | blob
 *
 * Crash safety is write-ahead-append per shard: a record is flushed
 * before store() returns, a crash mid-record leaves a short or
 * checksum-failing tail in at most one segment per shard, and opening
 * the store skips such tails (warning and counting them) while
 * keeping every intact record. Each process session appends to a
 * fresh segment per shard, so recovery never rewrites existing data.
 * Segments whose schema hash differs from this build's
 * storeSchemaHash() are rejected wholesale — their results were
 * produced under a different machine-parameter vocabulary or workload
 * registry and must not be served.
 *
 * Opening warm-loads all shards in parallel (one thread per shard, up
 * to the hardware thread count). Only `shard-SS/` segments are read:
 * a segment at the directory root predates sharding and with it the
 * current schema hash, so it could only ever be rejected as stale.
 *
 * Memory: only an index (key → segment/offset/length) is resident;
 * load() reads and decodes the blob from disk on demand, so a
 * cache-capped daemon's footprint stays bounded by the index, not by
 * the result payloads (records were checksum-verified when the index
 * was built).
 *
 * A store directory has a single writer at a time, enforced with
 * flock() on `<dir>/LOCK`; all methods are thread-safe within that
 * process (engine workers write through concurrently).
 */

#ifndef MTV_STORE_RESULT_STORE_HH
#define MTV_STORE_RESULT_STORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/backend.hh"
#include "src/obs/metrics.hh"

namespace mtv
{

/** Magic bytes at the start of a store segment ("MTVS" LE). */
constexpr uint32_t storeMagic = 0x5356544d;
/** Current segment format version (record layout; sharding is a
 *  directory-layout property, not a record-format change). */
constexpr uint32_t storeVersion = 1;
/** Shard count of a freshly created store. */
constexpr int defaultStoreShards = 8;
/** Upper bound on configurable shard counts. */
constexpr int maxStoreShards = 64;

/** Disk-backed persistent result store (see file comment). */
class ResultStore : public ResultBackend
{
  public:
    /** Load/recovery counters, fixed at open; session counters. */
    struct Stats
    {
        size_t shards = 0;         ///< hash partitions of the store
        size_t segments = 0;       ///< segment files seen at open
        size_t staleSegments = 0;  ///< rejected: schema-hash mismatch
        size_t badSegments = 0;    ///< rejected: bad magic/version
        uint64_t loadedRecords = 0;///< intact records read at open
        uint64_t droppedRecords = 0;///< corrupt/truncated tails skipped
        uint64_t appends = 0;      ///< records appended this session
        uint64_t hits = 0;         ///< load() calls served
        uint64_t misses = 0;       ///< load() calls not present
    };

    /**
     * Open (creating if needed) the store at @p dir, take the writer
     * lock, warm-load every shard in parallel, and start a fresh
     * segment per shard for this session's appends. @p shards picks the partition count
     * of a *new* store (0 = defaultStoreShards); an existing store
     * keeps the count it was created with (with a warning when a
     * different count was requested). fatal()s when the directory is
     * unusable or another process holds the writer lock.
     */
    explicit ResultStore(const std::string &dir, int shards = 0);
    ~ResultStore() override;

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    std::shared_ptr<const SimStats>
    load(const std::string &key) override;

    /**
     * load() plus the record's canonical blob bytes — the zero-copy
     * path of the binary result wire: the segment stores the exact
     * serializeSimStats() output, so the bytes read off disk ARE the
     * canonical encoding and stream/digest without re-encoding.
     */
    StoredRecord loadRecord(const std::string &key) override;

    void store(const std::string &key, const SimStats &stats) override;

    size_t size() const override;

    /** Counter snapshot, aggregated over the shards. */
    Stats stats() const;

    /** One shard's session/recovery counters (for `status`). */
    struct ShardStats
    {
        uint64_t appends = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t loadedRecords = 0;
        uint64_t droppedRecords = 0;
        size_t records = 0;  ///< live index entries right now
    };

    /** Per-shard counter snapshot, index i = shard i. */
    std::vector<ShardStats> shardStats() const;

    /** The store directory. */
    const std::string &directory() const { return dir_; }

    /** Hash partitions this store is split into. */
    int shardCount() const { return static_cast<int>(shards_.size()); }

  private:
    /** Where one record's blob lives on disk. */
    struct RecordLocation
    {
        uint32_t segment = 0;  ///< index into Shard::segmentPaths
        long offset = 0;       ///< byte offset of the blob
        uint32_t length = 0;   ///< blob bytes
    };

    /**
     * One hash partition: its own lock, index, read handles and
     * session segment. Counters are per-shard and summed by stats().
     */
    struct Shard
    {
        std::mutex mutex;
        std::string dir;
        std::FILE *segment = nullptr;  ///< session segment (append)
        std::string segmentPath;
        /** Scanned segments in load order; the session one is last. */
        std::vector<std::string> segmentPaths;
        /** Lazily opened read handles, parallel to segmentPaths. */
        std::vector<std::FILE *> readHandles;
        std::unordered_map<std::string, RecordLocation> index;
        size_t segments = 0;
        size_t staleSegments = 0;
        size_t badSegments = 0;
        uint64_t loadedRecords = 0;
        uint64_t droppedRecords = 0;
        uint64_t appends = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        // Process-wide observability handles, labelled by shard index
        // (src/obs/metrics.hh); shared when several stores coexist.
        Counter *obsAppends = nullptr;
        Counter *obsHits = nullptr;
        Counter *obsMisses = nullptr;
    };

    /** How one segment scan ended. */
    enum class SegmentVerdict
    {
        Scanned,  ///< header ok; intact records were delivered
        Stale,    ///< rejected wholesale: schema-hash mismatch
        Bad       ///< rejected wholesale: bad magic/version/unreadable
    };

    Shard &shardFor(const std::string &key);

    /**
     * Scan @p path, invoking @p record for every intact record with
     * the record's key, blob, and the blob's byte offset in the file.
     * Truncated/corrupt tails bump @p dropped and stop the scan.
     */
    SegmentVerdict scanSegment(
        const std::string &path, uint64_t *dropped,
        const std::function<void(std::string &&key, std::string &&blob,
                                 long blobOffset)> &record) const;

    /** Load every segment of @p shard and open its session segment. */
    void loadShard(Shard &shard);

    void openSessionSegment(Shard &shard);

    /** Append one pre-serialized record. Caller holds shard.mutex. */
    void appendLocked(Shard &shard, const std::string &key,
                      const std::string &blob);

    /** Read handle for @p segment of @p shard, opened lazily. Caller
     *  holds shard.mutex; fatal()s when the file vanished. */
    std::FILE *readHandle(Shard &shard, uint32_t segment);

    std::string dir_;
    int lockFd_ = -1;
    uint64_t schemaHash_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace mtv

#endif // MTV_STORE_RESULT_STORE_HH
