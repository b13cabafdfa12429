#include "harness/sweep_engine.hpp"

#include <unordered_map>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wormnet::harness {

SweepEngine::SweepEngine(Options opts) {
  if (opts.parallel) pool_ = std::make_unique<util::ThreadPool>(opts.threads);
}

unsigned SweepEngine::threads() const { return pool_ ? pool_->size() : 1u; }

std::vector<SweepPoint> SweepEngine::sweep_lambda(const core::NetworkModel& model,
                                                  const std::vector<double>& lambdas) {
  const double sf = model.worm_flits();
  std::vector<SweepPoint> points(lambdas.size());
  // Each distinct λ₀ (util::double_bits folds -0.0 onto 0.0) is one job;
  // later occurrences copy from their first.
  std::unordered_map<std::uint64_t, std::size_t> rep;  // λ bits → first index
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    points[i].lambda0 = lambdas[i];
    points[i].load_flits = lambdas[i] * sf;
    if (rep.emplace(util::double_bits(lambdas[i]), i).second) jobs.push_back(i);
  }

  // On the pool when parallel, in order when serial.  Each job is a pure
  // function of (model, λ₀), so the schedule cannot change any result bit.
  const auto eval_one = [&](std::int64_t j) {
    const std::size_t i = jobs[static_cast<std::size_t>(j)];
    points[i].est = model.evaluate(lambdas[i]);
  };
  if (pool_ && jobs.size() > 1) {
    util::parallel_for(*pool_, static_cast<std::int64_t>(jobs.size()), eval_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j)
      eval_one(static_cast<std::int64_t>(j));
  }

  if (jobs.size() < lambdas.size()) {
    for (std::size_t i = 0; i < lambdas.size(); ++i)
      points[i].est = points[rep.at(util::double_bits(lambdas[i]))].est;
  }
  return points;
}

std::vector<SweepPoint> SweepEngine::sweep_load(const core::NetworkModel& model,
                                                const std::vector<double>& loads) {
  const double sf = model.worm_flits();
  std::vector<double> lambdas;
  lambdas.reserve(loads.size());
  for (double load : loads) lambdas.push_back(load / sf);
  std::vector<SweepPoint> points = sweep_lambda(model, lambdas);
  // Report the caller's loads verbatim (λ·s_f could differ in the last ulp).
  for (std::size_t i = 0; i < loads.size(); ++i) points[i].load_flits = loads[i];
  return points;
}

std::vector<SweepPoint> SweepEngine::sweep_saturation_fractions(
    const core::NetworkModel& model, const std::vector<double>& fractions) {
  const double sat = model.saturation_rate();
  std::vector<double> lambdas;
  lambdas.reserve(fractions.size());
  for (double f : fractions) lambdas.push_back(sat * f);
  return sweep_lambda(model, lambdas);
}

FamilyMember SweepEngine::sweep_member(
    double parameter, std::unique_ptr<core::NetworkModel> model,
    const std::vector<double>& saturation_fractions) {
  WORMNET_EXPECTS(model != nullptr);
  FamilyMember member;
  member.parameter = parameter;
  member.model = std::move(model);
  member.saturation_rate = member.model->saturation_rate();
  std::vector<double> lambdas;
  lambdas.reserve(saturation_fractions.size());
  for (double f : saturation_fractions)
    lambdas.push_back(member.saturation_rate * f);
  member.points = sweep_lambda(*member.model, lambdas);
  return member;
}

std::vector<FamilyMember> SweepEngine::sweep_family(
    const ModelFactory& make, const std::vector<double>& parameters,
    const std::vector<double>& saturation_fractions) {
  // Members are built and swept one at a time: the per-member sweeps already
  // fan out across the pool, and building serially keeps member order (and
  // thus output order) deterministic.
  std::vector<FamilyMember> family;
  family.reserve(parameters.size());
  for (double parameter : parameters)
    family.push_back(
        sweep_member(parameter, make(parameter), saturation_fractions));
  return family;
}

std::vector<FamilyMember> SweepEngine::sweep_lanes(
    const LaneModelFactory& make, const std::vector<int>& lane_counts,
    const std::vector<double>& saturation_fractions) {
  std::vector<double> parameters;
  parameters.reserve(lane_counts.size());
  for (int lanes : lane_counts) {
    WORMNET_EXPECTS(lanes >= 1);
    parameters.push_back(static_cast<double>(lanes));
  }
  return sweep_family(
      [&make](double parameter) { return make(static_cast<int>(parameter)); },
      parameters, saturation_fractions);
}

std::vector<FamilyMember> SweepEngine::sweep_burstiness(
    const ArrivalModelFactory& make,
    const std::vector<arrivals::ArrivalSpec>& processes,
    const std::vector<double>& saturation_fractions) {
  // Same structure as sweep_family; the family axis is the process's
  // (rate-invariant) C_a².
  std::vector<FamilyMember> family;
  family.reserve(processes.size());
  for (const arrivals::ArrivalSpec& process : processes) {
    WORMNET_EXPECTS(process.check().empty());
    // Bernoulli's SCV depends on λ₀, which varies point-by-point inside a
    // member's own sweep — it has no single position on this axis, and the
    // rate-invariant default below would silently read as Poisson.
    WORMNET_EXPECTS(process.kind() != arrivals::Kind::Bernoulli);
    family.push_back(sweep_member(process.effective_ca2(), make(process),
                                  saturation_fractions));
  }
  return family;
}

}  // namespace wormnet::harness
