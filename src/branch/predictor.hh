/**
 * @file
 * The conditional-branch predictor configurations the evaluation uses:
 * the Table I perceptron and the enlarged one of Fig. 13.
 */

#ifndef PUBS_BRANCH_PREDICTOR_HH
#define PUBS_BRANCH_PREDICTOR_HH

#include <memory>

#include "branch/perceptron.hh"

namespace pubs::branch
{

/**
 * Named predictor configurations understood by makePredictor(). The
 * machine key and the checkpoint fingerprint render a kind as its
 * number, so the values are fixed.
 */
enum class PredictorKind
{
    Perceptron = 0,      ///< paper default: 34-bit history, 256 weights
    PerceptronLarge = 1, ///< Fig. 13: 36-bit history, 512 weights
};

/** Factory for the predictor configurations used in the evaluation. */
std::unique_ptr<Perceptron> makePredictor(PredictorKind kind);

const char *predictorKindName(PredictorKind kind);

} // namespace pubs::branch

#endif // PUBS_BRANCH_PREDICTOR_HH
