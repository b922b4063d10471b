// SLA-tier filter (econ extension, src/econ): prunes candidates whose
// on-time probability falls below the floor the task's tier contracted for
// (SlaTier::rho_floor). A gold task would rather be discarded — and show up
// in the miss accounting — than be placed somewhere it will probably blow
// its SLA; best-effort tiers carry a zero floor and pass untouched.
//
// Composes with the paper's chain through the ordinary '+' syntax
// ("en+rob+sla"). Under the trivial model every task has the neutral tier's
// zero floor, so naming it outside econ mode changes nothing.
#pragma once

#include "core/filter.hpp"

namespace ecdra::core {

class SlaFilter final : public Filter {
 public:
  void Apply(MappingContext& ctx) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sla";
  }
};

}  // namespace ecdra::core
