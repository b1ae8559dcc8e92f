/**
 * @file
 * The perceptron branch predictor [Jiménez & Lin, HPCA'01], which the
 * paper adopts because AMD Zen disclosed using one. Default configuration
 * matches Table I: 34-bit global history, 256-entry weight table. The
 * enlarged configuration of Fig. 13 uses 36-bit history and 512 entries.
 */

#ifndef PUBS_BRANCH_PERCEPTRON_HH
#define PUBS_BRANCH_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace pubs::branch
{

class Perceptron
{
  public:
    /**
     * @param historyBits length of the global history (number of inputs).
     * @param tableEntries number of perceptrons (power of two).
     */
    Perceptron(unsigned historyBits, unsigned tableEntries);

    /** Predicted direction of the conditional branch at @p pc. */
    bool predict(Pc pc);

    /**
     * Train with the actual outcome and shift it into the global
     * history. Updating with the actual outcome models perfect history
     * repair after a misprediction: fetch resumes on the correct path,
     * so the repaired history is what the hardware would hold.
     */
    void update(Pc pc, bool taken);

    /** Storage cost in bits (for Table III-style accounting). */
    uint64_t costBits() const;

    /** Cost in kilobytes. */
    double costKB() const { return (double)costBits() / 8.0 / 1024.0; }

    /**
     * Checkpoint the weights and history; restoring into a predictor of
     * another geometry fails. The predict/update memo is a pure cache
     * and is not serialized.
     */
    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

    unsigned historyBits() const { return historyBits_; }
    unsigned tableEntries() const { return tableEntries_; }

    /** Training threshold theta = floor(1.93 h + 14) per the HPCA paper. */
    int threshold() const { return threshold_; }

  private:
    using Weight = int16_t; // stored 8-bit semantics, wider for safety

    static constexpr int weightBits = 8;
    static constexpr int weightMax = 127;
    static constexpr int weightMin = -128;

    size_t indexOf(Pc pc) const;
    int dot(size_t index) const;

    unsigned historyBits_;
    unsigned tableEntries_;
    int threshold_;
    uint64_t history_ = 0; ///< bit i = outcome of the i-th most recent
    std::vector<Weight> weights_; ///< tableEntries x (historyBits + 1)

    /**
     * Memo of the last dot() evaluation. The pipeline calls predict(pc)
     * immediately followed by update(pc, taken); as long as neither the
     * history nor any weight changed in between, update() can reuse the
     * sum instead of recomputing the identical product.
     */
    size_t memoIndex_ = 0;
    uint64_t memoHistory_ = 0;
    int memoY_ = 0;
    bool memoValid_ = false;
};

} // namespace pubs::branch

#endif // PUBS_BRANCH_PERCEPTRON_HH
