#ifndef ROICL_CORE_MC_DROPOUT_H_
#define ROICL_CORE_MC_DROPOUT_H_

#include <cstdint>

#include "core/direct_model.h"
#include "nn/batch_forward.h"
#include "nn/mlp.h"

namespace roicl::core {

/// Monte-Carlo dropout inference (Gal & Ghahramani 2016; §IV-C2 of the
/// paper): runs `passes` forward passes in nn::Mode::kMcSample — dropout
/// active, everything else inference-mode — and accumulates per-sample
/// mean and standard deviation of the (optionally sigmoid-squashed)
/// scalar output.
///
/// Batched parallel engine: samples are split into row blocks of
/// `opts.batch_size`; blocks fan out across the ThreadPool per
/// `opts.num_threads`; within a block every pass is one batched forward
/// through one workspace, so passes after the first allocate nothing.
/// The dropout draws for (sample i, pass p) come from the counter-based
/// stream MakeCounterRng(seed, p * n + i), and each block owns its rows'
/// accumulators with passes applied in ascending order — so the output is
/// bit-identical to the serial sweep at any batch size and thread count.
///
/// `sigmoid_output` converts the network logit to ROI space before the
/// statistics, matching the paper where r_hat(x) is the std of roi_hat.
/// Requires a single-column network output.
McDropoutStats RunMcDropout(nn::Mlp* net, const Matrix& x, int passes,
                            uint64_t seed, bool sigmoid_output,
                            const nn::BatchOptions& opts = {});

}  // namespace roicl::core

#endif  // ROICL_CORE_MC_DROPOUT_H_
