#include "algorithms/native/make_native.hpp"

#include <stdexcept>

#include "algorithms/native/native_cubic.hpp"
#include "algorithms/native/native_dctcp.hpp"
#include "algorithms/native/native_reno.hpp"
#include "algorithms/native/native_vegas.hpp"

namespace ccp::algorithms::native {

std::unique_ptr<datapath::CcModule> make_native(const std::string& name,
                                                uint32_t mss,
                                                uint64_t init_cwnd) {
  if (name == "reno") return std::make_unique<NativeReno>(mss, init_cwnd);
  if (name == "cubic") return std::make_unique<NativeCubic>(mss, init_cwnd);
  if (name == "vegas") return std::make_unique<NativeVegas>(mss, init_cwnd);
  if (name == "dctcp") return std::make_unique<NativeDctcp>(mss, init_cwnd);
  throw std::invalid_argument("unknown native baseline: " + name);
}

}  // namespace ccp::algorithms::native
