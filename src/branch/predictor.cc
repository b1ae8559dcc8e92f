#include "branch/predictor.hh"

#include "common/logging.hh"

namespace pubs::branch
{

std::unique_ptr<Perceptron>
makePredictor(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Perceptron:
        // Table I: 34-bit history, 256-entry weight table.
        return std::make_unique<Perceptron>(34, 256);
      case PredictorKind::PerceptronLarge:
        // Section V-F: 36-bit history, 512-entry weight table.
        return std::make_unique<Perceptron>(36, 512);
    }
    panic("unknown predictor kind %d", (int)kind);
}

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Perceptron: return "perceptron";
      case PredictorKind::PerceptronLarge: return "perceptron-large";
    }
    panic("unknown predictor kind %d", (int)kind);
}

} // namespace pubs::branch
