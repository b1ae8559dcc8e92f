#include "branch/perceptron.hh"

#include <cmath>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace pubs::branch
{

Perceptron::Perceptron(unsigned historyBits, unsigned tableEntries)
    : historyBits_(historyBits),
      tableEntries_(tableEntries),
      threshold_((int)std::floor(1.93 * historyBits + 14)),
      weights_((size_t)tableEntries * (historyBits + 1), 0)
{
    fatal_if(historyBits == 0 || historyBits > 63,
             "perceptron history must be 1..63 bits");
    fatal_if(!isPowerOf2(tableEntries),
             "perceptron table size must be a power of two");
}

size_t
Perceptron::indexOf(Pc pc) const
{
    return (pc / instBytes) & (tableEntries_ - 1);
}

int
Perceptron::dot(size_t index) const
{
    // The history kernel lives in common/simd.hh (vectorised on SSE2
    // targets, bit-identical scalar fallback otherwise);
    // weights are clamped to [-128, 127] and historyBits_ <= 63, the
    // kernel's no-overflow precondition.
    const Weight *w = &weights_[index * (historyBits_ + 1)];
    return (int)w[0] + simd::perceptronDot(w + 1, historyBits_, history_);
}

bool
Perceptron::predict(Pc pc)
{
    size_t index = indexOf(pc);
    int y = dot(index);
    memoIndex_ = index;
    memoHistory_ = history_;
    memoY_ = y;
    memoValid_ = true;
    return y >= 0;
}

void
Perceptron::update(Pc pc, bool taken)
{
    size_t index = indexOf(pc);
    int y = memoValid_ && memoIndex_ == index && memoHistory_ == history_
                ? memoY_
                : dot(index);
    memoValid_ = false; // the weights or history change below
    bool predicted = y >= 0;

    if (predicted != taken || std::abs(y) <= threshold_) {
        Weight *w = &weights_[index * (historyBits_ + 1)];
        int t = taken ? 1 : -1;
        auto clamp = [](int v) {
            return (Weight)std::min(weightMax, std::max(weightMin, v));
        };
        w[0] = clamp(w[0] + t);
        for (unsigned i = 0; i < historyBits_; ++i) {
            bool h = (history_ >> i) & 1;
            int x = h ? 1 : -1;
            w[i + 1] = clamp(w[i + 1] + t * x);
        }
    }

    history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask(historyBits_);
}

uint64_t
Perceptron::costBits() const
{
    return (uint64_t)tableEntries_ * (historyBits_ + 1) * weightBits +
           historyBits_;
}

void
Perceptron::serialize(Serializer &s) const
{
    s.beginObject("perceptron");
    s.u64(history_);
    writeTable(s, weights_);
    s.endObject("perceptron");
}

void
Perceptron::unserialize(Deserializer &d)
{
    d.beginObject("perceptron");
    history_ = d.u64();
    readTable(d, weights_, "perceptron weights");
    memoValid_ = false;
    d.endObject("perceptron");
}

} // namespace pubs::branch
