/**
 * @file
 * Statistics package: named values, histograms and derived ratios
 * collected into StatGroups, a hierarchical StatRegistry with text and
 * JSON renderers, and the geometric-mean helpers the paper's figures
 * use.
 */

#ifndef PUBS_COMMON_STATS_HH
#define PUBS_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pubs
{

/** How a Histogram maps sample values to buckets. */
enum class BucketScale
{
    Linear, ///< bucket i covers [i*width, (i+1)*width)
    Log2,   ///< bucket 0 is {0}, bucket i covers [2^(i-1), 2^i)
};

/**
 * Fixed-bucket histogram with an overflow bucket. Buckets are unit-width
 * by default; a wider linear bucket width or log2 scaling keeps long-tail
 * samples (misspeculation penalties, IQ waits) from collapsing into the
 * overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param buckets number of in-range buckets before overflow.
     * @param bucketWidth value range covered by each linear bucket
     *        (ignored under BucketScale::Log2).
     */
    explicit Histogram(size_t buckets = 64, uint64_t bucketWidth = 1,
                       BucketScale scale = BucketScale::Linear);

    void
    sample(uint64_t v)
    {
        ++counts_[bucketOf(v)];
        sum_ += v;
        ++total_;
    }

    /**
     * Record @p v as if sampled @p n times. The event-driven pipeline
     * uses this to account a span of fast-forwarded idle cycles in one
     * call; the resulting counts are bit-identical to sampling each
     * cycle individually.
     */
    void
    sample(uint64_t v, uint64_t n)
    {
        counts_[bucketOf(v)] += n;
        sum_ += v * n;
        total_ += n;
    }

    void reset();

    uint64_t bucket(size_t i) const { return counts_.at(i); }
    size_t numBuckets() const { return counts_.size(); }
    uint64_t samples() const { return total_; }
    double mean() const { return total_ ? double(sum_) / total_ : 0.0; }
    uint64_t bucketWidth() const { return width_; }
    BucketScale scale() const { return scale_; }
    uint64_t sum() const { return sum_; }

    /**
     * Replace the whole state from serialized raw form, bit-identical
     * to the histogram it was captured from (proc-pool result frames
     * and the sweep journal round-trip histograms this way).
     */
    void restore(uint64_t width, BucketScale scale,
                 std::vector<uint64_t> counts, uint64_t sum,
                 uint64_t total);

    /** Bucket index a value of @p v lands in. */
    size_t bucketOf(uint64_t v) const;

    /** Smallest sample value that maps to bucket @p i. */
    uint64_t bucketLow(size_t i) const;

    /**
     * Value below which @p fraction of samples fall, reported in sample
     * value units (the lower bound of the containing bucket).
     */
    uint64_t percentile(double fraction) const;

  private:
    uint64_t width_;
    BucketScale scale_;
    std::vector<uint64_t> counts_;
    uint64_t sum_ = 0;
    uint64_t total_ = 0;
};

/**
 * A named, ordered collection of statistics for reporting: scalars,
 * strings (run metadata) and vectors (histogram buckets, heartbeat
 * series).
 *
 * Subsystems register values at dump time; StatGroup is a passive
 * formatting container, not a live registry, so there is no global state.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void add(const std::string &key, double value,
             const std::string &desc = "");

    /** Attach a string-valued stat (workload names, machine labels). */
    void addString(const std::string &key, const std::string &value,
                   const std::string &desc = "");

    /** Attach a vector-valued stat (bucket counts, interval series). */
    void addVector(const std::string &key, std::vector<double> values,
                   const std::string &desc = "");

    /**
     * Attach @p h under @p key: summary scalars (<key>_samples,
     * <key>_mean, <key>_p50/_p90/_p99), the bucket layout
     * (<key>_bucket_width), the overflow bucket's count (<key>_overflow)
     * and the raw counts (<key>_buckets).
     */
    void addHistogram(const std::string &key, const Histogram &h,
                      const std::string &desc = "");

    bool has(const std::string &key) const;

    /** Value for @p key; panics if missing. */
    double get(const std::string &key) const;

    /** Value for @p key or @p fallback if missing. */
    double getOr(const std::string &key, double fallback) const;

    /** Render as aligned "name  value  # desc" lines. */
    std::string format() const;

    const std::string &name() const { return name_; }

    struct Entry
    {
        std::string key;
        double value;
        std::string desc;
    };

    struct StringEntry
    {
        std::string key;
        std::string value;
        std::string desc;
    };

    struct VectorEntry
    {
        std::string key;
        std::vector<double> values;
        std::string desc;
    };

    const std::vector<Entry> &entries() const { return entries_; }
    const std::vector<StringEntry> &stringEntries() const
        { return strings_; }
    const std::vector<VectorEntry> &vectorEntries() const
        { return vectors_; }

  private:
    std::string name_;
    std::vector<Entry> entries_;
    std::vector<StringEntry> strings_;
    std::vector<VectorEntry> vectors_;
    std::map<std::string, size_t> index_;
};

/**
 * Hierarchical, ordered collection of StatGroups that subsystems publish
 * into at dump time. Dots in group names nest in the JSON rendering:
 * groups "pubs" and "pubs.conf_tab" become {"pubs": {..., "conf_tab":
 * {...}}}, so one file carries the whole machine-readable run record.
 */
class StatRegistry
{
  public:
    /** Group named @p name, created (in order) on first use. */
    StatGroup &group(const std::string &name);

    /** Existing group, or nullptr. */
    const StatGroup *find(const std::string &name) const;

    bool empty() const { return groups_.empty(); }
    size_t size() const { return groups_.size(); }
    const std::vector<std::unique_ptr<StatGroup>> &groups() const
        { return groups_; }

    /** The whole registry as a single JSON object. */
    std::string renderJson() const;

    /** Write renderJson() to @p path; fatal on I/O failure. */
    void writeJson(const std::string &path) const;

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
    std::map<std::string, size_t> index_;
};

/** Escape @p s for inclusion in a double-quoted JSON string. */
std::string jsonEscape(const std::string &s);

/** Render a double as a JSON number ("null" for non-finite values). */
std::string jsonNumber(double v);

/** Geometric mean of @p values (all must be > 0). */
double geometricMean(const std::vector<double> &values);

/** Arithmetic mean. */
double arithmeticMean(const std::vector<double> &values);

} // namespace pubs

#endif // PUBS_COMMON_STATS_HH
