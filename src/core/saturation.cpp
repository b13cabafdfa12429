#include "core/saturation.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace wormnet::core {

double find_saturation_rate(const std::function<double(double)>& service_of,
                            double upper_bound, int iterations) {
  WORMNET_EXPECTS(upper_bound > 0.0);
  WORMNET_EXPECTS(iterations > 0);
  // g(λ) = λ · x̄(λ) - 1 is negative below saturation, positive (or +inf)
  // at/above it.
  auto g = [&](double lambda) {
    const double x = service_of(lambda);
    if (!std::isfinite(x)) return 1.0;  // unstable: definitely past saturation
    return lambda * x - 1.0;
  };
  double lo = 0.0;
  double hi = upper_bound;
  // Ensure the bracket: grow hi if g(hi) is somehow still negative (cannot
  // happen for wormhole x̄ >= s_f with hi = 1/s_f, but keep the solver
  // generic for custom service functions); a rejected hi becomes lo.
  for (int grow = 0; grow < 64 && g(hi) < 0.0; ++grow) {
    lo = hi;
    hi *= 2.0;
  }
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (!(lo < mid && mid < hi)) break;  // collapsed: no step can move it
    if (g(mid) < 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace wormnet::core
