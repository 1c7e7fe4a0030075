// E14b — two-fidelity DCM policy autotune (paper §4, DESIGN.md §14).
//
// Runs policy::RunTune over the default candidate grid: every candidate is
// measured on the analytic tiered backend (MRM tier priced at its compiled
// KV retention, capacity derated to its ECC payload fraction, scrub ages
// derived from MaxSafeAge of its code), the Pareto frontier is promoted to
// the cycle-level sim backend with the F2 fault ladder active, and the
// winner is the validated candidate that strictly beats the static 10-year
// SCM baseline on J/token at equal-or-better usable capacity.
//
// Metric labels are fixed per candidate, so a --sim-threads=1 run and a
// --sim-threads=4 run write byte-identical BENCH_e14_policy_tune.json files
// (CI compares them with cmp).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_runner.h"
#include "src/common/table.h"
#include "src/policy/tuner.h"

namespace {

using namespace mrm;  // NOLINT: bench binary

}  // namespace

int main(int argc, char** argv) {
  const int sim_threads = bench::ParseSimThreads(argc, argv, /*fallback=*/1);
  // arg > MRMSIM_POLICY_PRESET > default (empty = the full default grid).
  // A named preset restricts the tune to preset-vs-static-SCM-baseline.
  const std::string preset = bench::ParsePolicyPreset(argc, argv, /*fallback=*/"");
  std::printf("E14b: two-fidelity DCM policy autotune (DESIGN.md §14)\n");

  policy::TunerOptions options = policy::TunerOptions::Defaults();
  options.sim_threads = sim_threads;

  std::vector<policy::PolicyCandidate> grid;
  if (!preset.empty()) {
    auto restricted = policy::GridForPreset(preset);
    if (!restricted.ok()) {
      std::fprintf(stderr, "e14_policy_tune: %s\n", restricted.error().message().c_str());
      return 1;
    }
    grid = restricted.value();
  }

  bench::BenchRunner runner("e14_policy_tune");
  runner.SetConfig("suite", "policy autotune, analytic grid + sim validation");
  runner.SetConfig("policy_preset", preset.empty() ? "(default grid)" : preset);
  runner.SetConfig("fault_rate", std::to_string(options.fault_rate));
  runner.SetConfig("agreement_bound", std::to_string(options.agreement_bound));

  policy::TuneReport report;
  runner.Add("policy_tune", [&options, &report, &grid](bench::PointResult& r) {
    report = policy::RunTune(options, grid);
    std::uint64_t events = 0;
    for (const policy::CandidateOutcome& c : report.candidates) {
      r.metrics[c.name + ".j_per_token"] = c.analytic_j_per_token;
      r.metrics[c.name + ".decode_tokens_per_s"] = c.analytic_decode_tokens_per_s;
      r.metrics[c.name + ".capacity_frac"] = c.usable_capacity_fraction;
      r.metrics[c.name + ".kv_scrub_age_s"] = c.kv_scrub_age_s;
      r.metrics[c.name + ".feasible"] = c.feasible ? 1.0 : 0.0;
      r.metrics[c.name + ".meets_slo"] = c.meets_slo ? 1.0 : 0.0;
      r.metrics[c.name + ".on_frontier"] = c.on_frontier ? 1.0 : 0.0;
      r.metrics[c.name + ".validated"] = c.validated ? 1.0 : 0.0;
      if (c.validated) {
        r.metrics[c.name + ".sim_j_per_token"] = c.sim_j_per_token;
        r.metrics[c.name + ".agreement_ratio"] = c.agreement_ratio;
        r.metrics[c.name + ".within_agreement"] = c.within_agreement ? 1.0 : 0.0;
        r.metrics[c.name + ".faults_injected"] = static_cast<double>(c.faults_injected);
        events += c.sim_events;
      }
    }
    r.metrics["winner_found"] = report.winner_index >= 0 ? 1.0 : 0.0;
    r.metrics["winner_index"] = static_cast<double>(report.winner_index);
    r.metrics["j_per_token_delta_frac"] = report.j_per_token_delta_frac;
    r.metrics["capacity_delta_frac"] = report.capacity_delta_frac;
    r.metrics["max_agreement_error"] = report.max_agreement_error;
    r.events = events;
  });

  const int rc = runner.RunAndReport();

  TablePrinter table({"candidate", "J/token", "tokens/s", "capacity frac",
                      "frontier", "validated", "sim/analytic"});
  for (const policy::CandidateOutcome& c : report.candidates) {
    table.AddRow({c.name + (c.baseline ? " (baseline)" : ""),
                  c.feasible ? FormatNumber(c.analytic_j_per_token) : "infeasible",
                  FormatNumber(c.analytic_decode_tokens_per_s),
                  FormatNumber(c.usable_capacity_fraction),
                  c.on_frontier ? "yes" : "-", c.validated ? "yes" : "-",
                  c.validated ? FormatNumber(c.agreement_ratio) : "-"});
  }
  table.Print("Policy grid: three static references vs. the tuned DCM sweep");

  if (const policy::CandidateOutcome* winner = report.winner()) {
    std::printf("winner: %s  J/token %+.1f%%  capacity %+.1f%%  vs %s "
                "(max sim/analytic error %.1f%%)\n",
                winner->name.c_str(), report.j_per_token_delta_frac * 100.0,
                report.capacity_delta_frac * 100.0,
                report.baseline() != nullptr ? report.baseline()->name.c_str() : "?",
                report.max_agreement_error * 100.0);
  } else {
    std::printf("winner: none — no validated candidate dominates the baseline\n");
  }
  std::printf("Shape check: managed retention (tuned DCM) strictly beats the\n");
  std::printf("static 10-year SCM provisioning on J/token at equal-or-better\n");
  std::printf("usable capacity, and the promoted candidates' cycle-level decode\n");
  std::printf("steps agree with the analytic grid inside the documented bound.\n");
  return rc;
}
