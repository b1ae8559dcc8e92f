#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace pubs
{

Histogram::Histogram(size_t buckets, uint64_t bucketWidth, BucketScale scale)
    : width_(bucketWidth), scale_(scale), counts_(buckets + 1, 0)
{
    panic_if(buckets == 0, "histogram needs at least one bucket");
    panic_if(bucketWidth == 0, "histogram bucket width must be positive");
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    sum_ = 0;
    total_ = 0;
}

void
Histogram::restore(uint64_t width, BucketScale scale,
                   std::vector<uint64_t> counts, uint64_t sum,
                   uint64_t total)
{
    panic_if(counts.empty(), "histogram needs at least one bucket");
    panic_if(width == 0, "histogram bucket width must be positive");
    width_ = width;
    scale_ = scale;
    counts_ = std::move(counts);
    sum_ = sum;
    total_ = total;
}

size_t
Histogram::bucketOf(uint64_t v) const
{
    size_t last = counts_.size() - 1;
    if (scale_ == BucketScale::Log2) {
        size_t idx = v == 0 ? 0 : (size_t)floorLog2(v) + 1;
        return idx < last ? idx : last;
    }
    size_t idx = (size_t)(v / width_);
    return idx < last ? idx : last;
}

uint64_t
Histogram::bucketLow(size_t i) const
{
    panic_if(i >= counts_.size(), "histogram bucket %zu out of range", i);
    if (scale_ == BucketScale::Log2)
        return i == 0 ? 0 : (uint64_t)1 << std::min<size_t>(i - 1, 63);
    return (uint64_t)i * width_;
}

uint64_t
Histogram::percentile(double fraction) const
{
    panic_if(fraction < 0.0 || fraction > 1.0, "bad percentile fraction");
    if (total_ == 0)
        return 0;
    uint64_t threshold = (uint64_t)std::ceil(fraction * (double)total_);
    uint64_t running = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        running += counts_[i];
        if (running >= threshold)
            return bucketLow(i);
    }
    return bucketLow(counts_.size() - 1);
}

void
StatGroup::add(const std::string &key, double value, const std::string &desc)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        entries_[it->second].value = value;
        if (!desc.empty())
            entries_[it->second].desc = desc;
        return;
    }
    index_[key] = entries_.size();
    entries_.push_back({key, value, desc});
}

void
StatGroup::addString(const std::string &key, const std::string &value,
                     const std::string &desc)
{
    for (auto &entry : strings_) {
        if (entry.key == key) {
            entry.value = value;
            if (!desc.empty())
                entry.desc = desc;
            return;
        }
    }
    strings_.push_back({key, value, desc});
}

void
StatGroup::addVector(const std::string &key, std::vector<double> values,
                     const std::string &desc)
{
    for (auto &entry : vectors_) {
        if (entry.key == key) {
            entry.values = std::move(values);
            if (!desc.empty())
                entry.desc = desc;
            return;
        }
    }
    vectors_.push_back({key, std::move(values), desc});
}

void
StatGroup::addHistogram(const std::string &key, const Histogram &h,
                        const std::string &desc)
{
    add(key + "_samples", (double)h.samples(), desc);
    add(key + "_mean", h.mean());
    add(key + "_p50", (double)h.percentile(0.5));
    add(key + "_p90", (double)h.percentile(0.9));
    add(key + "_p99", (double)h.percentile(0.99));
    add(key + "_bucket_width",
        h.scale() == BucketScale::Log2 ? 0.0 : (double)h.bucketWidth(),
        h.scale() == BucketScale::Log2 ? "0 = log2-scaled buckets" : "");
    std::vector<double> counts(h.numBuckets());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        counts[i] = (double)h.bucket(i);
    add(key + "_overflow", counts.back(),
        "samples beyond the last in-range bucket");
    addVector(key + "_buckets", std::move(counts),
              "bucket counts; the last bucket is overflow");
}

bool
StatGroup::has(const std::string &key) const
{
    return index_.count(key) != 0;
}

double
StatGroup::get(const std::string &key) const
{
    auto it = index_.find(key);
    panic_if(it == index_.end(), "stat '%s.%s' not found", name_.c_str(),
             key.c_str());
    return entries_[it->second].value;
}

double
StatGroup::getOr(const std::string &key, double fallback) const
{
    auto it = index_.find(key);
    return it == index_.end() ? fallback : entries_[it->second].value;
}

std::string
StatGroup::format() const
{
    size_t width = 0;
    for (const auto &e : entries_)
        width = std::max(width, name_.size() + 1 + e.key.size());
    for (const auto &e : strings_)
        width = std::max(width, name_.size() + 1 + e.key.size());
    for (const auto &e : vectors_)
        width = std::max(width, name_.size() + 1 + e.key.size());

    std::ostringstream out;
    auto pad = [&](const std::string &full) {
        out << full << std::string(width + 2 - full.size(), ' ');
    };
    for (const auto &e : strings_) {
        pad(name_ + "." + e.key);
        out << e.value;
        if (!e.desc.empty())
            out << "  # " << e.desc;
        out << "\n";
    }
    for (const auto &e : entries_) {
        char value[64];
        if (e.value == std::floor(e.value) && std::abs(e.value) < 1e15) {
            std::snprintf(value, sizeof(value), "%lld",
                          (long long)e.value);
        } else {
            std::snprintf(value, sizeof(value), "%.6f", e.value);
        }
        pad(name_ + "." + e.key);
        out << value;
        if (!e.desc.empty())
            out << "  # " << e.desc;
        out << "\n";
    }
    for (const auto &e : vectors_) {
        pad(name_ + "." + e.key);
        out << "vector[" << e.values.size() << "]";
        if (!e.desc.empty())
            out << "  # " << e.desc;
        out << "\n";
    }
    return out.str();
}

StatGroup &
StatRegistry::group(const std::string &name)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return *groups_[it->second];
    index_[name] = groups_.size();
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

const StatGroup *
StatRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : groups_[it->second].get();
}

std::string
StatRegistry::renderText() const
{
    std::ostringstream out;
    for (const auto &group : groups_)
        out << group->format();
    return out.str();
}

namespace
{

/** Ordered JSON object tree assembled from dotted group names. */
struct JsonNode
{
    const StatGroup *group = nullptr;
    std::vector<std::pair<std::string, JsonNode>> children;

    JsonNode &
    child(const std::string &name)
    {
        for (auto &entry : children) {
            if (entry.first == name)
                return entry.second;
        }
        children.emplace_back(name, JsonNode{});
        return children.back().second;
    }
};

void
emitNode(std::ostringstream &out, const JsonNode &node, int depth)
{
    std::string indent((size_t)depth * 2, ' ');
    std::string inner((size_t)(depth + 1) * 2, ' ');
    out << "{";
    bool first = true;
    auto sep = [&]() {
        out << (first ? "\n" : ",\n") << inner;
        first = false;
    };
    if (node.group) {
        for (const auto &e : node.group->stringEntries()) {
            sep();
            out << "\"" << jsonEscape(e.key) << "\": \""
                << jsonEscape(e.value) << "\"";
        }
        for (const auto &e : node.group->entries()) {
            sep();
            out << "\"" << jsonEscape(e.key) << "\": " << jsonNumber(e.value);
        }
        for (const auto &e : node.group->vectorEntries()) {
            sep();
            out << "\"" << jsonEscape(e.key) << "\": [";
            for (size_t i = 0; i < e.values.size(); ++i)
                out << (i ? ", " : "") << jsonNumber(e.values[i]);
            out << "]";
        }
    }
    for (const auto &entry : node.children) {
        sep();
        out << "\"" << jsonEscape(entry.first) << "\": ";
        emitNode(out, entry.second, depth + 1);
    }
    if (!first)
        out << "\n" << indent;
    out << "}";
}

} // namespace

std::string
StatRegistry::renderJson() const
{
    JsonNode root;
    for (const auto &group : groups_) {
        JsonNode *node = &root;
        const std::string &name = group->name();
        size_t start = 0;
        while (true) {
            size_t dot = name.find('.', start);
            std::string part = name.substr(
                start, dot == std::string::npos ? dot : dot - start);
            node = &node->child(part);
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
        node->group = group.get();
    }
    std::ostringstream out;
    emitNode(out, root, 0);
    out << "\n";
    return out.str();
}

void
StatRegistry::writeJson(const std::string &path) const
{
    // Temp-file + rename: a crash or kill mid-export leaves either the
    // previous complete JSON or the new one, never a truncated file.
    atomicWriteFileOrThrow(path, renderJson());
}

namespace
{

/**
 * Length of the valid UTF-8 sequence starting at s[i], or 0 if the
 * bytes there are not well-formed (invalid lead, truncated or overlong
 * sequence, surrogate, out of range). RFC 8259 interchange requires
 * valid UTF-8, and strict consumers (browsers, Perfetto, json.load)
 * reject documents carrying raw invalid bytes.
 */
size_t
utf8SequenceLength(const std::string &s, size_t i)
{
    unsigned char lead = (unsigned char)s[i];
    size_t extra;
    unsigned cp;
    if ((lead & 0xe0) == 0xc0) {
        extra = 1;
        cp = lead & 0x1f;
    } else if ((lead & 0xf0) == 0xe0) {
        extra = 2;
        cp = lead & 0x0f;
    } else if ((lead & 0xf8) == 0xf0) {
        extra = 3;
        cp = lead & 0x07;
    } else {
        return 0;
    }
    if (i + extra >= s.size())
        return 0;
    for (size_t k = 1; k <= extra; ++k) {
        unsigned char c = (unsigned char)s[i + k];
        if ((c & 0xc0) != 0x80)
            return 0;
        cp = cp << 6 | (c & 0x3f);
    }
    static constexpr unsigned minByLen[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < minByLen[extra] || (cp >= 0xd800 && cp <= 0xdfff) ||
        cp > 0x10ffff) {
        return 0;
    }
    return extra + 1;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = (unsigned char)s[i];
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else if (c < 0x80) {
                out += (char)c;
            } else if (size_t len = utf8SequenceLength(s, i)) {
                out.append(s, i, len);
                i += len - 1;
            } else {
                // Invalid UTF-8 byte: substitute U+FFFD rather than emit
                // a document strict parsers reject.
                out += "\\ufffd";
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buffer[64];
    if (v == std::floor(v) && std::abs(v) < 1e15)
        std::snprintf(buffer, sizeof(buffer), "%lld", (long long)v);
    else
        std::snprintf(buffer, sizeof(buffer), "%.9g", v);
    return buffer;
}

double
geometricMean(const std::vector<double> &values)
{
    panic_if(values.empty(), "geometric mean of empty set");
    double logSum = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geometric mean requires positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / (double)values.size());
}

double
arithmeticMean(const std::vector<double> &values)
{
    panic_if(values.empty(), "arithmetic mean of empty set");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / (double)values.size();
}

} // namespace pubs
