#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/mlp.h"

namespace roicl::nn {
namespace {

/// Central-difference gradient check for a whole Mlp against a scalar loss
/// L = sum of outputs. Verifies both parameter grads and input grads.
void CheckGradients(Mlp* net, const Matrix& input, double tol = 1e-5) {
  Rng rng(0);
  Matrix out = net->Forward(input, Mode::kTrain, &rng);
  Matrix grad_out(out.rows(), out.cols(), 1.0);  // dL/dout = 1
  net->ZeroGrads();
  Matrix grad_in = net->Backward(grad_out);

  auto loss_at = [&]() {
    Matrix o = net->Forward(input, Mode::kInfer, nullptr);
    double total = 0.0;
    for (double v : o.data()) total += v;
    return total;
  };

  const double h = 1e-6;
  // Parameter gradients.
  std::vector<Matrix*> params = net->Params();
  std::vector<Matrix*> grads = net->Grads();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t k = 0; k < params[p]->size(); k += 7) {  // sample entries
      double original = params[p]->data()[k];
      params[p]->data()[k] = original + h;
      double plus = loss_at();
      params[p]->data()[k] = original - h;
      double minus = loss_at();
      params[p]->data()[k] = original;
      double numeric = (plus - minus) / (2 * h);
      EXPECT_NEAR(grads[p]->data()[k], numeric, tol)
          << "param " << p << " entry " << k;
    }
  }
  // Input gradients.
  Matrix perturbed = input;
  for (size_t k = 0; k < perturbed.size(); k += 5) {
    double original = perturbed.data()[k];
    perturbed.data()[k] = original + h;
    Matrix o_plus = net->Forward(perturbed, Mode::kInfer, nullptr);
    perturbed.data()[k] = original - h;
    Matrix o_minus = net->Forward(perturbed, Mode::kInfer, nullptr);
    perturbed.data()[k] = original;
    double plus = 0.0, minus = 0.0;
    for (double v : o_plus.data()) plus += v;
    for (double v : o_minus.data()) minus += v;
    EXPECT_NEAR(grad_in.data()[k], (plus - minus) / (2 * h), tol)
        << "input entry " << k;
  }
}

TEST(DenseTest, ForwardIsAffine) {
  Rng rng(1);
  Dense dense(2, 2, Init::kZero, nullptr);
  // Manually set W and b.
  std::vector<Matrix*> params = dense.Params();
  (*params[0])(0, 0) = 1.0;
  (*params[0])(0, 1) = 2.0;
  (*params[0])(1, 0) = 3.0;
  (*params[0])(1, 1) = 4.0;
  (*params[1])(0, 0) = 0.5;
  (*params[1])(0, 1) = -0.5;
  Matrix input = {{1.0, 1.0}};
  Matrix out = dense.Forward(input, Mode::kInfer, nullptr);
  EXPECT_DOUBLE_EQ(out(0, 0), 4.5);
  EXPECT_DOUBLE_EQ(out(0, 1), 5.5);
}

TEST(DenseTest, XavierInitBounded) {
  Rng rng(2);
  Dense dense(10, 20, Init::kXavier, &rng);
  double bound = std::sqrt(6.0 / 30.0);
  for (double w : dense.weights().data()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
  for (double b : dense.bias().data()) EXPECT_EQ(b, 0.0);
}

TEST(DenseTest, CloneIsDeepCopy) {
  Rng rng(3);
  Dense dense(3, 2, Init::kHe, &rng);
  std::unique_ptr<Layer> clone = dense.Clone();
  Matrix input(1, 3, 1.0);
  Matrix a = dense.Forward(input, Mode::kInfer, nullptr);
  Matrix b = clone->Forward(input, Mode::kInfer, nullptr);
  EXPECT_DOUBLE_EQ(a(0, 0), b(0, 0));
  // Mutating the original must not affect the clone.
  (*dense.Params()[0])(0, 0) += 10.0;
  Matrix c = clone->Forward(input, Mode::kInfer, nullptr);
  EXPECT_DOUBLE_EQ(b(0, 0), c(0, 0));
}

TEST(ActivationTest, ReluForward) {
  Activation relu(ActivationKind::kRelu);
  Matrix input = {{-1.0, 0.0, 2.0}};
  Matrix out = relu.Forward(input, Mode::kInfer, nullptr);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 2.0);
}

TEST(ActivationTest, EluForward) {
  Activation elu(ActivationKind::kElu);
  Matrix input = {{-1.0, 1.0}};
  Matrix out = elu.Forward(input, Mode::kInfer, nullptr);
  EXPECT_NEAR(out(0, 0), std::expm1(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(out(0, 1), 1.0);
}

TEST(ActivationTest, SigmoidAndTanhForward) {
  Activation sigmoid(ActivationKind::kSigmoid);
  Activation tanh_act(ActivationKind::kTanh);
  Matrix input = {{0.7}};
  EXPECT_NEAR(sigmoid.Forward(input, Mode::kInfer, nullptr)(0, 0),
              Sigmoid(0.7), 1e-12);
  EXPECT_NEAR(tanh_act.Forward(input, Mode::kInfer, nullptr)(0, 0),
              std::tanh(0.7), 1e-12);
}

TEST(DropoutTest, IdentityAtInference) {
  Dropout dropout(0.5);
  Matrix input = {{1.0, 2.0, 3.0}};
  Matrix out = dropout.Forward(input, Mode::kInfer, nullptr);
  for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(out(0, c), input(0, c));
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  Rng rng(4);
  Dropout dropout(0.5);
  Matrix input(1, 10000, 1.0);
  Matrix out = dropout.Forward(input, Mode::kTrain, &rng);
  int zeros = 0;
  double sum = 0.0;
  for (double v : out.data()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_DOUBLE_EQ(v, 2.0);  // inverted dropout scaling 1/(1-0.5)
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // expectation preserved
}

TEST(DropoutTest, McSampleModeIsStochastic) {
  Rng rng(5);
  Dropout dropout(0.3);
  Matrix input(1, 100, 1.0);
  Matrix a = dropout.Forward(input, Mode::kMcSample, &rng);
  Matrix b = dropout.Forward(input, Mode::kMcSample, &rng);
  int diff = 0;
  for (size_t i = 0; i < a.size(); ++i) diff += a.data()[i] != b.data()[i];
  EXPECT_GT(diff, 10);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(6);
  Dropout dropout(0.5);
  Matrix input(1, 100, 3.0);
  Matrix out = dropout.Forward(input, Mode::kTrain, &rng);
  Matrix grad_out(1, 100, 1.0);
  Matrix grad_in = dropout.Backward(grad_out);
  for (int c = 0; c < 100; ++c) {
    if (out(0, c) == 0.0) {
      EXPECT_DOUBLE_EQ(grad_in(0, c), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(grad_in(0, c), 2.0);
    }
  }
}

TEST(GradientCheckTest, DenseOnly) {
  Rng rng(7);
  Mlp net;
  net.Add(std::make_unique<Dense>(3, 2, Init::kXavier, &rng));
  Matrix input = {{0.5, -1.0, 2.0}, {1.0, 0.0, -0.5}};
  CheckGradients(&net, input);
}

class MlpGradientCheck : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(MlpGradientCheck, TwoLayerWithActivation) {
  Rng rng(8);
  Mlp net = Mlp::MakeMlp(4, {8, 5}, 2, GetParam(), /*dropout_rate=*/0.0,
                         &rng);
  Matrix input(3, 4);
  Rng data_rng(9);
  for (double& v : input.data()) v = data_rng.Normal();
  CheckGradients(&net, input, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradientCheck,
                         ::testing::Values(ActivationKind::kRelu,
                                           ActivationKind::kElu,
                                           ActivationKind::kSigmoid,
                                           ActivationKind::kTanh));

// ---------- ForwardRowsInto: caller-owned output buffers ----------

Matrix RandomInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Normal();
  return m;
}

RowRngs StreamsFor(int rows, uint64_t seed) {
  RowRngs rngs;
  for (int r = 0; r < rows; ++r) {
    rngs.push_back(MakeCounterRng(seed, static_cast<uint64_t>(r)));
  }
  return rngs;
}

void ExpectSameBits(const Matrix& actual, const Matrix& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual.data()[i], expected.data()[i])
        << what << ", element " << i;
  }
}

// ForwardRowsInto into a fresh buffer, a reused same-shape buffer holding
// stale values, a buffer of another shape and, for elementwise layers, in
// place: each must equal ForwardRows bitwise. Every call gets the same
// freshly seeded streams, so stochastic layers draw the same masks.
void ExpectIntoMatchesForwardRows(Layer* layer, Mode mode) {
  const std::string where =
      mode == Mode::kInfer ? "kInfer: " : "kMcSample: ";
  const Matrix input = RandomInput(5, 6, 11);
  RowRngs rngs = StreamsFor(5, 12);
  const Matrix expected = layer->ForwardRows(input, mode, &rngs);

  Matrix fresh;
  rngs = StreamsFor(5, 12);
  layer->ForwardRowsInto(input, mode, &rngs, &fresh);
  ExpectSameBits(fresh, expected, where + "fresh buffer");

  for (double& v : fresh.data()) v = 12345.0;
  const double* storage = fresh.data().data();
  rngs = StreamsFor(5, 12);
  layer->ForwardRowsInto(input, mode, &rngs, &fresh);
  ExpectSameBits(fresh, expected, where + "reused buffer");
  EXPECT_EQ(fresh.data().data(), storage)
      << where << "a same-shape buffer was reallocated";

  Matrix other(3, 2, 7.0);
  rngs = StreamsFor(5, 12);
  layer->ForwardRowsInto(input, mode, &rngs, &other);
  ExpectSameBits(other, expected, where + "buffer of another shape");

  if (layer->SupportsInPlace()) {
    Matrix in_place = input;
    rngs = StreamsFor(5, 12);
    layer->ForwardRowsInto(in_place, mode, &rngs, &in_place);
    ExpectSameBits(in_place, expected, where + "in place");
  }
}

TEST(ForwardRowsIntoTest, DenseMatchesForwardRows) {
  Rng rng(21);
  Dense dense(6, 4, Init::kXavier, &rng);
  for (double& b : dense.Params()[1]->data()) b = rng.Uniform(-1.0, 1.0);
  EXPECT_FALSE(dense.SupportsInPlace());
  for (Mode mode : {Mode::kInfer, Mode::kMcSample}) {
    ExpectIntoMatchesForwardRows(&dense, mode);
  }
}

class ActivationIntoTest : public ::testing::TestWithParam<ActivationKind> {
};

TEST_P(ActivationIntoTest, MatchesForwardRows) {
  Activation activation(GetParam());
  EXPECT_TRUE(activation.SupportsInPlace());
  for (Mode mode : {Mode::kInfer, Mode::kMcSample}) {
    ExpectIntoMatchesForwardRows(&activation, mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, ActivationIntoTest,
                         ::testing::Values(ActivationKind::kRelu,
                                           ActivationKind::kElu,
                                           ActivationKind::kSigmoid,
                                           ActivationKind::kTanh));

TEST(ForwardRowsIntoTest, DropoutMatchesForwardRows) {
  for (double rate : {0.0, 0.2}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    Dropout dropout(rate);
    EXPECT_TRUE(dropout.SupportsInPlace());
    for (Mode mode : {Mode::kInfer, Mode::kMcSample}) {
      ExpectIntoMatchesForwardRows(&dropout, mode);
    }
  }
}

TEST(ForwardRowsIntoTest, DropoutDrawsEachRowFromItsOwnStream) {
  Dropout dropout(0.2);
  const Matrix input = RandomInput(5, 6, 13);
  RowRngs rngs = StreamsFor(5, 14);
  Matrix out;
  dropout.ForwardRowsInto(input, Mode::kMcSample, &rngs, &out);
  for (int r = 0; r < input.rows(); ++r) {
    Rng stream = MakeCounterRng(14, static_cast<uint64_t>(r));
    for (int c = 0; c < input.cols(); ++c) {
      const double factor = stream.Bernoulli(0.8) ? 1.0 / 0.8 : 0.0;
      EXPECT_EQ(out(r, c), input(r, c) * factor) << "row " << r;
    }
  }
}

TEST(ForwardRowsIntoTest, MlpWorkspaceMatchesLayerChainAcrossPasses) {
  Rng rng(31);
  // Dense, ReLU, Dropout, Dense, ReLU, Dropout, Dense: row r's stream runs
  // through both dropout layers.
  Mlp net = Mlp::MakeMlp(6, {8, 5}, 1, ActivationKind::kRelu,
                         /*dropout_rate=*/0.2, &rng);
  ASSERT_EQ(net.num_layers(), 7u);
  const Matrix input = RandomInput(9, 6, 32);
  Mlp::Workspace workspace;
  std::vector<const double*> storage;
  for (uint64_t pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    // Reference: the allocating layer chain over one set of streams.
    RowRngs chain_rngs = StreamsFor(9, 40 + pass);
    Matrix expected = input;
    for (size_t i = 0; i < net.num_layers(); ++i) {
      expected =
          net.layer(i)->ForwardRows(expected, Mode::kMcSample, &chain_rngs);
    }
    RowRngs rngs = StreamsFor(9, 40 + pass);
    const Matrix& out =
        net.ForwardRowsInto(input, Mode::kMcSample, &rngs, &workspace);
    ExpectSameBits(out, expected, "workspace forward");

    // Each row forwarded alone with only its own stream: same bits.
    for (int r = 0; r < input.rows(); ++r) {
      Matrix row(1, input.cols());
      for (int c = 0; c < input.cols(); ++c) row(0, c) = input(r, c);
      RowRngs own = {MakeCounterRng(40 + pass, static_cast<uint64_t>(r))};
      Mlp::Workspace alone;
      EXPECT_EQ(net.ForwardRowsInto(row, Mode::kMcSample, &own, &alone)(0, 0),
                out(r, 0))
          << "row " << r;
    }

    // Passes after the first reuse every buffer.
    std::vector<const double*> now;
    for (const Matrix& buffer : workspace.outputs) {
      now.push_back(buffer.data().data());
    }
    if (pass == 0) {
      storage = now;
    } else {
      EXPECT_EQ(now, storage) << "workspace reallocated";
    }
  }
}

}  // namespace
}  // namespace roicl::nn
