#include "core/factory.hpp"

#include <stdexcept>

#include "core/sla_filter.hpp"

namespace ecdra::core {

FilterRegistryType& FilterRegistry() {
  static FilterRegistryType registry("filter");
  return registry;
}

std::vector<std::unique_ptr<Filter>> MakeFilterChain(
    std::string_view variant, const FilterChainOptions& options) {
  std::vector<std::unique_ptr<Filter>> chain;
  if (variant == "none") return chain;
  std::string_view rest = variant;
  while (true) {
    const std::size_t plus = rest.find('+');
    const std::string_view name = rest.substr(0, plus);
    if (name.empty()) {
      throw std::invalid_argument("empty filter name in variant '" +
                                  std::string(variant) + "'");
    }
    chain.push_back(FilterRegistry().Make(name, options));
    if (plus == std::string_view::npos) break;
    rest.remove_prefix(plus + 1);
  }
  return chain;
}

// -- Built-in filter registrations. These live here (not in the filters'
// own translation units) because static libraries drop object files nothing
// references; factory.o is always retained via MakeFilterChain, so the
// built-ins exist in any binary that names them. --

ECDRA_REGISTER_FILTER("en", [](const FilterChainOptions& options) {
  return std::make_unique<EnergyFilter>(options.energy);
})
ECDRA_REGISTER_FILTER("rob", [](const FilterChainOptions& options) {
  return std::make_unique<RobustnessFilter>(options.robustness_threshold);
})
ECDRA_REGISTER_FILTER("sla", [](const FilterChainOptions&) {
  return std::make_unique<SlaFilter>();
})

}  // namespace ecdra::core
