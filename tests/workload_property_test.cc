// Property tests for the inference engine: conservation laws and ordering
// invariants over randomized workloads and several model presets.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/workload/inference_engine.h"
#include "src/workload/request_generator.h"

namespace mrm {
namespace workload {
namespace {

TierSpec GenericTier() {
  TierSpec spec;
  spec.name = "tier";
  spec.read_bw_bytes_per_s = 4e12;
  spec.write_bw_bytes_per_s = 4e12;
  spec.read_pj_per_bit = 3.0;
  spec.write_pj_per_bit = 3.0;
  spec.static_power_w = 50.0;
  return spec;
}

struct ModelCase {
  std::string name;
  FoundationModelConfig (*make)();
};

// Without a printer gtest names each test after the parameter's raw bytes,
// which hold addresses that ASLR moves on every run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class EnginePropertyTest : public ::testing::TestWithParam<ModelCase> {};

INSTANTIATE_TEST_SUITE_P(Models, EnginePropertyTest,
                         ::testing::Values(ModelCase{"phi3", &Phi3_14B},
                                           ModelCase{"llama70b", &Llama2_70B},
                                           ModelCase{"llama70b_mha", &Llama2_70B_MHA}),
                         [](const auto& param_info) { return param_info.param.name; });

EngineSummary RunRandomWorkload(const FoundationModelConfig& model, std::uint64_t seed,
                                int requests, TraceSink* trace = nullptr) {
  AnalyticBackend backend(GenericTier(), model.weight_bytes());
  EngineConfig config;
  config.model = model;
  config.max_batch = 8;
  config.compute_tflops = 500.0;
  InferenceEngine engine(config, &backend, trace);
  RequestGenerator generator(SplitwiseConversation(), 5.0, seed);
  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < requests; ++i) {
    InferenceRequest request = generator.Next();
    request.arrival_s = 0.0;  // saturating: no idle gaps (roofline property)
    request.prompt_tokens = std::min(request.prompt_tokens, 2048);
    request.output_tokens = std::min(request.output_tokens, 64);
    reqs.push_back(request);
  }
  return engine.Run(reqs);
}

TEST_P(EnginePropertyTest, TokenConservation) {
  const FoundationModelConfig model = GetParam().make();
  RequestGenerator generator(SplitwiseConversation(), 5.0, 11);
  std::vector<InferenceRequest> reqs;
  std::uint64_t expected_prompt = 0;
  std::uint64_t expected_output = 0;
  for (int i = 0; i < 12; ++i) {
    InferenceRequest request = generator.Next();
    request.prompt_tokens = std::min(request.prompt_tokens, 2048);
    request.output_tokens = std::min(request.output_tokens, 64);
    expected_prompt += static_cast<std::uint64_t>(request.prompt_tokens);
    expected_output += static_cast<std::uint64_t>(request.output_tokens);
    reqs.push_back(request);
  }
  AnalyticBackend backend(GenericTier(), model.weight_bytes());
  EngineConfig config;
  config.model = model;
  config.max_batch = 8;
  config.compute_tflops = 500.0;
  InferenceEngine engine(config, &backend);
  const EngineSummary summary = engine.Run(reqs);
  EXPECT_EQ(summary.prefill_tokens, expected_prompt);
  EXPECT_EQ(summary.decode_tokens, expected_output);
  EXPECT_EQ(summary.requests_completed, 12u);
}

TEST_P(EnginePropertyTest, KvByteConservation) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary summary = RunRandomWorkload(model, 13, 10);
  // Every prefilled and decoded token appends exactly one vector.
  EXPECT_EQ(summary.kv_write_bytes,
            model.kv_bytes_per_token() * (summary.prefill_tokens + summary.decode_tokens));
}

TEST_P(EnginePropertyTest, WeightReadsMatchSteps) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary summary = RunRandomWorkload(model, 17, 10);
  EXPECT_EQ(summary.weight_read_bytes, summary.steps * model.weight_bytes());
}

TEST_P(EnginePropertyTest, DecodeLedgerSubsetOfTotal) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary summary = RunRandomWorkload(model, 19, 10);
  EXPECT_LE(summary.decode_read_bytes, summary.total_read_bytes());
  EXPECT_LE(summary.decode_write_bytes, summary.total_write_bytes());
  EXPECT_GT(summary.decode_read_write_ratio(), summary.read_write_ratio());
}

TEST_P(EnginePropertyTest, StepTimeIsRooflineMax) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary summary = RunRandomWorkload(model, 23, 8);
  // duration >= max(total memory, total compute) since each step takes the
  // max of its two components; and duration <= their sum.
  EXPECT_GE(summary.duration_s + 1e-9,
            std::max(summary.memory_seconds, summary.compute_seconds));
  EXPECT_LE(summary.duration_s,
            summary.memory_seconds + summary.compute_seconds + 1e-9);
}

TEST_P(EnginePropertyTest, LatencyOrdering) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary summary = RunRandomWorkload(model, 29, 10);
  // Every request: TTFT <= E2E (histograms preserve this in aggregate).
  EXPECT_LE(summary.ttft_ms.min(), summary.e2e_latency_s.max() * 1e3 + 1e-6);
  EXPECT_EQ(summary.ttft_ms.count(), summary.e2e_latency_s.count());
}

TEST_P(EnginePropertyTest, DeterministicAcrossRuns) {
  const FoundationModelConfig model = GetParam().make();
  const EngineSummary a = RunRandomWorkload(model, 31, 10);
  const EngineSummary b = RunRandomWorkload(model, 31, 10);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.backend_energy_j, b.backend_energy_j);
}

TEST_P(EnginePropertyTest, TraceByteCountsMatchSummary) {
  const FoundationModelConfig model = GetParam().make();
  TraceSink sink;
  const EngineSummary summary = RunRandomWorkload(model, 37, 6, &sink);
  std::uint64_t traced_reads = 0;
  std::uint64_t traced_writes = 0;
  for (const auto& extent : sink.extents()) {
    (extent.is_write ? traced_writes : traced_reads) += extent.length;
  }
  EXPECT_EQ(traced_reads, summary.total_read_bytes());
  EXPECT_EQ(traced_writes, summary.total_write_bytes());
}

TEST_P(EnginePropertyTest, TighterKvCapacityNeverFaster) {
  const FoundationModelConfig model = GetParam().make();
  auto run_with_capacity = [&](std::uint64_t capacity) {
    AnalyticBackend backend(GenericTier(), model.weight_bytes());
    EngineConfig config;
    config.model = model;
    config.max_batch = 8;
    config.compute_tflops = 500.0;
    config.kv_capacity_bytes = capacity;
    InferenceEngine engine(config, &backend);
    RequestGenerator generator(SplitwiseConversation(), 5.0, 41);
    std::vector<InferenceRequest> reqs;
    for (int i = 0; i < 10; ++i) {
      InferenceRequest request = generator.Next();
      request.prompt_tokens = std::min(request.prompt_tokens, 1024);
      request.output_tokens = std::min(request.output_tokens, 64);
      reqs.push_back(request);
    }
    return engine.Run(reqs);
  };
  const EngineSummary roomy = run_with_capacity(0);
  const EngineSummary tight =
      run_with_capacity(model.kv_bytes_per_token() * 1100 * 2);  // ~2 requests
  EXPECT_GE(tight.duration_s, roomy.duration_s * 0.999);
  EXPECT_LE(tight.mean_batch, roomy.mean_batch + 1e-9);
}

}  // namespace
}  // namespace workload
}  // namespace mrm
