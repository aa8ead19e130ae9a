#include "exp/methods.h"

#include "common/macros.h"

namespace roicl::exp {

MethodSpec RegistryMethod(const std::string& name,
                          const MethodHyperparams& hp) {
  pipeline::ScorerRegistry& registry = pipeline::ScorerRegistry::Global();
  StatusOr<std::string> resolved = registry.Resolve(name);
  ROICL_CHECK_MSG(resolved.ok(), "unregistered method '%s': %s",
                  name.c_str(), resolved.status().message().c_str());
  std::string canonical = resolved.value();
  return {canonical, [canonical, hp]() -> std::unique_ptr<uplift::RoiModel> {
            StatusOr<std::unique_ptr<pipeline::RoiScorer>> scorer =
                pipeline::ScorerRegistry::Global().Create(canonical, hp);
            ROICL_CHECK_MSG(scorer.ok(), "scorer construction failed: %s",
                            scorer.status().message().c_str());
            return std::move(scorer).value();
          }};
}

std::vector<MethodSpec> Table1Methods(const MethodHyperparams& hp) {
  std::vector<MethodSpec> methods;
  methods.reserve(kTable1MethodNames.size());
  for (const char* name : kTable1MethodNames) {
    methods.push_back(RegistryMethod(name, hp));
  }
  return methods;
}

MethodSpec DrpMethod(const MethodHyperparams& hp) {
  return RegistryMethod("DRP", hp);
}

MethodSpec RdrpMethod(const MethodHyperparams& hp) {
  return RegistryMethod("rDRP", hp);
}

}  // namespace roicl::exp
