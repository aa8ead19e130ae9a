#include "data/csv.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"

namespace roicl {
namespace {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  // Trailing empty field after a final comma.
  if (!line.empty() && line.back() == ',') fields.push_back("");
  return fields;
}

// Parses the whole of `field` as a finite double.
bool ParseFinite(const std::string& field, double* out) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// Parses the whole of `field` as a base-10 int.
bool ParseInt(const std::string& field, int* out) {
  char* end = nullptr;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0' ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

Status FieldError(int line_number, int col,
                  const std::vector<std::string>& header,
                  const std::vector<std::string>& fields,
                  const std::string& expected) {
  return Status::InvalidArgument(
      "line " + std::to_string(line_number) + ", column " +
      std::to_string(col + 1) + " (" + header[AsSize(col)] + "): expected " +
      expected + ", got '" + fields[AsSize(col)] + "'");
}

}  // namespace

Status WriteDatasetCsv(const RctDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  dataset.Validate();

  for (int c = 0; c < dataset.dim(); ++c) out << "f" << c << ",";
  out << "treatment,y_revenue,y_cost";
  bool oracle = dataset.has_ground_truth();
  if (oracle) out << ",true_tau_r,true_tau_c";
  bool segments = !dataset.segment.empty();
  if (segments) out << ",segment";
  out << "\n";

  out.precision(12);
  for (int i = 0; i < dataset.n(); ++i) {
    const double* row = dataset.x.RowPtr(i);
    const size_t si = AsSize(i);
    for (int c = 0; c < dataset.dim(); ++c) out << row[c] << ",";
    out << dataset.treatment[si] << "," << dataset.y_revenue[si] << ","
        << dataset.y_cost[si];
    if (oracle) {
      out << "," << dataset.true_tau_r[si] << "," << dataset.true_tau_c[si];
    }
    if (segments) out << "," << dataset.segment[si];
    out << "\n";
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<RctDataset> ReadDatasetCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  std::string line;
  if (!std::getline(in, line)) return Status::IoError("empty file: " + path);
  std::vector<std::string> header = SplitLine(line);

  int col_treatment = -1, col_yr = -1, col_yc = -1;
  int col_tau_r = -1, col_tau_c = -1, col_segment = -1;
  std::vector<int> feature_cols;
  for (size_t i = 0; i < header.size(); ++i) {
    const std::string& name = header[i];
    int idx = static_cast<int>(i);
    if (name == "treatment") {
      col_treatment = idx;
    } else if (name == "y_revenue") {
      col_yr = idx;
    } else if (name == "y_cost") {
      col_yc = idx;
    } else if (name == "true_tau_r") {
      col_tau_r = idx;
    } else if (name == "true_tau_c") {
      col_tau_c = idx;
    } else if (name == "segment") {
      col_segment = idx;
    } else {
      feature_cols.push_back(idx);
    }
  }
  if (col_treatment < 0 || col_yr < 0 || col_yc < 0) {
    return Status::InvalidArgument(
        "CSV must contain treatment, y_revenue and y_cost columns");
  }

  RctDataset dataset;
  dataset.x = Matrix(0, static_cast<int>(feature_cols.size()));
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitLine(line);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("field count mismatch at line " +
                                     std::to_string(line_number));
    }
    // Every field is parsed whole: a feature, outcome or tau must be a
    // finite number, treatment the integer 0 or 1, segment an integer.
    std::vector<double> features(feature_cols.size());
    for (size_t f = 0; f < feature_cols.size(); ++f) {
      if (!ParseFinite(fields[AsSize(feature_cols[f])], &features[f])) {
        return FieldError(line_number, feature_cols[f], header, fields,
                          "a finite number");
      }
    }
    int treatment = 0;
    if (!ParseInt(fields[AsSize(col_treatment)], &treatment) ||
        (treatment != 0 && treatment != 1)) {
      return FieldError(line_number, col_treatment, header, fields,
                        "treatment 0 or 1");
    }
    double y_revenue = 0.0, y_cost = 0.0, tau_r = 0.0, tau_c = 0.0;
    for (auto [col, out] : {std::pair{col_yr, &y_revenue},
                            std::pair{col_yc, &y_cost},
                            std::pair{col_tau_r, &tau_r},
                            std::pair{col_tau_c, &tau_c}}) {
      if (col >= 0 && !ParseFinite(fields[AsSize(col)], out)) {
        return FieldError(line_number, col, header, fields,
                          "a finite number");
      }
    }
    int segment = 0;
    if (col_segment >= 0 &&
        !ParseInt(fields[AsSize(col_segment)], &segment)) {
      return FieldError(line_number, col_segment, header, fields,
                        "an integer segment");
    }
    dataset.x.AppendRow(features);
    dataset.treatment.push_back(treatment);
    dataset.y_revenue.push_back(y_revenue);
    dataset.y_cost.push_back(y_cost);
    if (col_tau_r >= 0) dataset.true_tau_r.push_back(tau_r);
    if (col_tau_c >= 0) dataset.true_tau_c.push_back(tau_c);
    if (col_segment >= 0) dataset.segment.push_back(segment);
  }
  dataset.Validate();
  return dataset;
}

}  // namespace roicl
