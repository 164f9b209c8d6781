// One factory for the in-datapath baselines, shared by the scenario
// runner and ccp_sim so "native:<name>" means the same thing everywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "datapath/cc_module.hpp"

namespace ccp::algorithms::native {

/// Instantiates the native baseline `name` (reno, cubic, vegas, dctcp).
/// Throws std::invalid_argument("unknown native baseline: <name>")
/// on any other name.
std::unique_ptr<datapath::CcModule> make_native(const std::string& name,
                                                uint32_t mss,
                                                uint64_t init_cwnd);

}  // namespace ccp::algorithms::native
