#include "uplift/multi_head_net.h"

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::uplift {

MultiHeadNet::MultiHeadNet(nn::Mlp trunk, std::vector<nn::Mlp> heads)
    : trunk_(std::move(trunk)), heads_(std::move(heads)) {
  ROICL_CHECK(!heads_.empty());
}

MultiHeadNet MultiHeadNet::MakeKHead(int input_dim,
                                     const std::vector<int>& trunk_hidden,
                                     int trunk_out, int num_heads,
                                     const std::vector<int>& head_hidden,
                                     nn::ActivationKind activation,
                                     double dropout_rate, Rng* rng) {
  ROICL_CHECK(input_dim > 0);
  ROICL_CHECK(trunk_out > 0);
  ROICL_CHECK(num_heads >= 1);
  nn::Mlp trunk = nn::Mlp::MakeMlp(input_dim, trunk_hidden, trunk_out,
                                   activation, dropout_rate, rng);
  std::vector<nn::Mlp> heads;
  heads.reserve(AsSize(num_heads));
  for (int h = 0; h < num_heads; ++h) {
    heads.push_back(nn::Mlp::MakeMlp(trunk_out, head_hidden,
                                     /*output_dim=*/1, activation,
                                     dropout_rate, rng));
  }
  return MultiHeadNet(std::move(trunk), std::move(heads));
}

Matrix MultiHeadNet::Forward(const Matrix& input, nn::Mode mode, Rng* rng) {
  Matrix rep = trunk_.Forward(input, mode, rng);
  Matrix out(input.rows(), num_heads());
  for (int h = 0; h < num_heads(); ++h) {
    Matrix head_out = heads_[AsSize(h)].Forward(rep, mode, rng);
    ROICL_CHECK_MSG(head_out.cols() == 1,
                    "each head must output one column");
    for (int r = 0; r < out.rows(); ++r) out(r, h) = head_out(r, 0);
  }
  return out;
}

Matrix MultiHeadNet::Backward(const Matrix& grad_output) {
  ROICL_CHECK(grad_output.cols() == num_heads());
  Matrix grad_rep;
  for (int h = 0; h < num_heads(); ++h) {
    Matrix head_grad(grad_output.rows(), 1);
    for (int r = 0; r < grad_output.rows(); ++r) {
      head_grad(r, 0) = grad_output(r, h);
    }
    Matrix g = heads_[AsSize(h)].Backward(head_grad);
    if (h == 0) {
      grad_rep = std::move(g);
    } else {
      grad_rep += g;
    }
  }
  return trunk_.Backward(grad_rep);
}

std::vector<Matrix*> MultiHeadNet::Params() {
  std::vector<Matrix*> params = trunk_.Params();
  for (nn::Mlp& head : heads_) {
    for (Matrix* p : head.Params()) params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> MultiHeadNet::Grads() {
  std::vector<Matrix*> grads = trunk_.Grads();
  for (nn::Mlp& head : heads_) {
    for (Matrix* g : head.Grads()) grads.push_back(g);
  }
  return grads;
}

}  // namespace roicl::uplift
