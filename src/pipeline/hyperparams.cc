#include "pipeline/hyperparams.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/math_util.h"
#include "core/interval_backend.h"

namespace roicl::pipeline {
namespace {

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

template <typename T>
bool ParseValue(const std::string& text, T* out) {
  std::istringstream in(text);
  T value{};
  if (!(in >> value)) return false;
  in >> std::ws;
  if (!in.eof()) return false;  // trailing garbage
  *out = value;
  return true;
}

bool ParseInt(const std::string& text, int* out) {
  return ParseValue(text, out);
}

bool ParseU64(const std::string& text, uint64_t* out) {
  return ParseValue(text, out);
}

bool ParseDouble(const std::string& text, double* out) {
  return ParseValue(text, out);
}

}  // namespace

core::RdrpConfig MakeRdrpConfig(const Hyperparams& hp) {
  core::RdrpConfig config;
  // The DRP row's exact network: identical DRP for fair comparison.
  config.drp = MakeDirectConfig<core::DrpConfig>(hp, /*seed_offset=*/1);
  config.mc_passes = hp.mc_passes;
  config.alpha = hp.alpha;
  config.mc_seed = hp.seed + 3;
  config.interval_backend = hp.interval_backend;
  return config;
}

uplift::NeuralCateConfig MakeNeuralCateConfig(const Hyperparams& hp) {
  uplift::NeuralCateConfig config;
  config.trunk_hidden = {hp.cate_trunk};
  config.head_hidden = {hp.cate_head};
  config.dropout = 0.1;
  config.train.epochs = hp.cate_epochs;
  config.train.batch_size = hp.batch_size;
  config.train.learning_rate = hp.learning_rate;
  config.train.patience = hp.cate_patience;
  config.train.seed = hp.seed + 4;
  config.seed = hp.seed + 5;
  return config;
}

trees::ForestConfig MakeForestConfig(const Hyperparams& hp) {
  trees::ForestConfig config;
  config.num_trees = hp.forest_trees;
  config.tree.max_depth = hp.forest_depth;
  config.seed = hp.seed + 6;
  return config;
}

trees::CausalForestConfig MakeCausalForestConfig(const Hyperparams& hp) {
  trees::CausalForestConfig config;
  config.num_trees = hp.causal_forest_trees;
  config.tree.max_depth = hp.forest_depth;
  config.seed = hp.seed + 7;
  return config;
}

std::string SerializeHyperparams(const Hyperparams& hp) {
  std::ostringstream out;
  out << "neural_epochs=" << hp.neural_epochs
      << " batch_size=" << hp.batch_size
      << " learning_rate=" << FormatDouble(hp.learning_rate)
      << " patience=" << hp.patience << " drp_hidden=" << hp.drp_hidden
      << " drp_dropout=" << FormatDouble(hp.drp_dropout)
      << " restarts=" << hp.restarts << " cate_epochs=" << hp.cate_epochs
      << " cate_patience=" << hp.cate_patience
      << " cate_trunk=" << hp.cate_trunk << " cate_head=" << hp.cate_head
      << " forest_trees=" << hp.forest_trees
      << " forest_depth=" << hp.forest_depth
      << " causal_forest_trees=" << hp.causal_forest_trees
      << " ridge_lambda=" << FormatDouble(hp.ridge_lambda)
      << " mc_passes=" << hp.mc_passes
      << " alpha=" << FormatDouble(hp.alpha)
      << " interval_backend=" << hp.interval_backend
      << " predict_batch_size=" << hp.predict_batch_size
      << " predict_threads=" << hp.predict_threads << " seed=" << hp.seed;
  return out.str();
}

StatusOr<Hyperparams> ParseHyperparams(const std::string& line) {
  Hyperparams hp;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed hyperparam token '" + token +
                                     "' (expected key=value)");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    bool parsed;
    if (key == "neural_epochs") {
      parsed = ParseInt(value, &hp.neural_epochs);
    } else if (key == "batch_size") {
      parsed = ParseInt(value, &hp.batch_size);
    } else if (key == "learning_rate") {
      parsed = ParseDouble(value, &hp.learning_rate);
    } else if (key == "patience") {
      parsed = ParseInt(value, &hp.patience);
    } else if (key == "drp_hidden") {
      parsed = ParseInt(value, &hp.drp_hidden);
    } else if (key == "drp_dropout") {
      parsed = ParseDouble(value, &hp.drp_dropout);
    } else if (key == "restarts") {
      parsed = ParseInt(value, &hp.restarts);
    } else if (key == "cate_epochs") {
      parsed = ParseInt(value, &hp.cate_epochs);
    } else if (key == "cate_patience") {
      parsed = ParseInt(value, &hp.cate_patience);
    } else if (key == "cate_trunk") {
      parsed = ParseInt(value, &hp.cate_trunk);
    } else if (key == "cate_head") {
      parsed = ParseInt(value, &hp.cate_head);
    } else if (key == "forest_trees") {
      parsed = ParseInt(value, &hp.forest_trees);
    } else if (key == "forest_depth") {
      parsed = ParseInt(value, &hp.forest_depth);
    } else if (key == "causal_forest_trees") {
      parsed = ParseInt(value, &hp.causal_forest_trees);
    } else if (key == "ridge_lambda") {
      parsed = ParseDouble(value, &hp.ridge_lambda);
    } else if (key == "mc_passes") {
      parsed = ParseInt(value, &hp.mc_passes);
    } else if (key == "alpha") {
      parsed = ParseDouble(value, &hp.alpha);
    } else if (key == "interval_backend") {
      parsed = core::IsIntervalBackendName(value);
      hp.interval_backend = value;
    } else if (key == "predict_batch_size") {
      parsed = ParseInt(value, &hp.predict_batch_size);
    } else if (key == "predict_threads") {
      parsed = ParseInt(value, &hp.predict_threads);
    } else if (key == "seed") {
      parsed = ParseU64(value, &hp.seed);
    } else {
      return Status::InvalidArgument(
          "unknown hyperparam key '" + key +
          "' (artifact written by a newer version?)");
    }
    if (!parsed) {
      return Status::InvalidArgument("bad value for hyperparam '" + key +
                                     "': '" + value + "'");
    }
  }
  if (Status valid = ValidateHyperparams(hp); !valid.ok()) return valid;
  return hp;
}

Status ValidateHyperparams(const Hyperparams& hp,
                           const std::map<std::string, std::string>& names) {
  RangeCheck require(names);
  require("neural_epochs", hp.neural_epochs, hp.neural_epochs >= 1, ">= 1");
  require("drp_hidden", hp.drp_hidden, hp.drp_hidden >= 0, ">= 0 (0 = auto)");
  require("restarts", hp.restarts, hp.restarts >= 1, ">= 1");
  require("batch_size", hp.batch_size, hp.batch_size >= 1, ">= 1");
  require("learning_rate", hp.learning_rate,
          std::isfinite(hp.learning_rate) && hp.learning_rate > 0.0,
          "finite and > 0");
  require("drp_dropout", hp.drp_dropout,
          hp.drp_dropout >= 0.0 && hp.drp_dropout < 1.0, "in [0, 1)");
  require("cate_epochs", hp.cate_epochs, hp.cate_epochs >= 1, ">= 1");
  require("forest_trees", hp.forest_trees, hp.forest_trees >= 1, ">= 1");
  require("causal_forest_trees", hp.causal_forest_trees,
          hp.causal_forest_trees >= 1, ">= 1");
  require("mc_passes", hp.mc_passes, hp.mc_passes >= 2, ">= 2");
  require("alpha", hp.alpha, hp.alpha > 0.0 && hp.alpha < 1.0, "in (0, 1)");
  require("predict_batch_size", hp.predict_batch_size,
          hp.predict_batch_size >= 1, ">= 1");
  require("predict_threads", hp.predict_threads, hp.predict_threads >= 0,
          ">= 0");
  return require.status();
}

}  // namespace roicl::pipeline
