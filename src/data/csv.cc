#include "data/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
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
    std::vector<double> features;
    features.reserve(feature_cols.size());
    for (int c : feature_cols) {
      features.push_back(std::atof(fields[AsSize(c)].c_str()));
    }
    const int treatment = std::atoi(fields[AsSize(col_treatment)].c_str());
    if (treatment != 0 && treatment != 1) {
      return Status::InvalidArgument(
          "treatment must be 0 or 1, got " + std::to_string(treatment) +
          " at line " + std::to_string(line_number));
    }
    dataset.x.AppendRow(features);
    dataset.treatment.push_back(treatment);
    dataset.y_revenue.push_back(std::atof(fields[AsSize(col_yr)].c_str()));
    dataset.y_cost.push_back(std::atof(fields[AsSize(col_yc)].c_str()));
    if (col_tau_r >= 0) {
      dataset.true_tau_r.push_back(std::atof(fields[AsSize(col_tau_r)].c_str()));
    }
    if (col_tau_c >= 0) {
      dataset.true_tau_c.push_back(std::atof(fields[AsSize(col_tau_c)].c_str()));
    }
    if (col_segment >= 0) {
      dataset.segment.push_back(std::atoi(fields[AsSize(col_segment)].c_str()));
    }
  }
  dataset.Validate();
  return dataset;
}

}  // namespace roicl
