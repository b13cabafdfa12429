// wormnet/core/saturation.hpp
//
// The paper's throughput criterion (Eq. 26): the network saturates at the
// injection rate λ₀ where the source service time equals the inter-arrival
// time, x̄_inj(λ₀) = 1/λ₀.  Since x̄_inj is non-decreasing in λ₀ (more load
// can only slow channels down) and 1/λ₀ strictly decreases, the crossing is
// unique; we bracket and bisect, treating an unstable evaluation (infinite
// x̄) as "past saturation".
//
// Note on which limit binds: in the butterfly fat-tree an interior channel
// (the top-level up bundle) reaches utilization 1 — driving x̄_inj to
// infinity — slightly BEFORE the source criterion λ₀·x̄_inj = 1 is met, so
// the solver returns the stability boundary: the largest λ₀ the model can
// sustain.  That is exactly the load where the paper's "let the source
// arrival rate increase until the equation is satisfied" procedure stops,
// because x̄_inj jumps through 1/λ₀ at that point.
#pragma once

#include <functional>

namespace wormnet::core {

/// Find λ₀* with service_of(λ₀*) == 1/λ₀*.
///  * `service_of`  — λ₀ → x̄_inj (may return +inf past stability);
///  * `upper_bound` — any rate known to be at/above saturation, e.g. 1/s_f
///                    (the injection channel can never serve faster than one
///                    worm per s_f cycles);
///  * `iterations`  — cap on bisection steps (each halves the bracket).
/// Stops early once the midpoint rounds onto an endpoint (adjacent doubles):
/// no later step could move the bracket, so the result is bitwise the
/// full-cap answer and no λ₀ is probed twice.
double find_saturation_rate(const std::function<double(double)>& service_of,
                            double upper_bound, int iterations = 60);

}  // namespace wormnet::core
